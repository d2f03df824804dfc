"""Command-line harness: seeded, manifest-tracked experiment runs.

Subcommands
    etf         generate + verify a frame, write JSON/CSV
    peeled      run a DLPM/LPM optimization, write trajectory + final state
    regularity  one-step contraction experiment, records + bound/dominance summary
    train       backbone training regimes from a JSON config
    report      aggregate run directories into summary tables

Every run writes a manifest.json with the resolved configuration and
sha256 hashes of the artifacts; rerunning a command with identical
inputs reproduces every CSV/JSON payload byte for byte (wall-clock time
appears only in the manifest). Seeds fan out per component via
serialize.derive_seed. Exit codes: 0 ok, 2 bad config/flags, 3 numeric
divergence, 4 a verification/acceptance check failed, 1 a bug (traceback).
This module parses argv and JSON and checks types; range rules and verdicts
live in the library (TrainConfig, the peeled problem builders, check_sweep).
Inputs are built before the output directory; a ValueError raised while
building them becomes a ConfigError naming the flag, config block or file.
A negative number in exponent form needs --flag=value (--gamma=-1e+300).
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields

import numpy as np

from . import peeled as lp
from . import regularity as reg
from . import trainer as tr
from .etf import (
    frame_to_csv_text,
    frame_to_json_dict,
    generate_etf,
    uniform_classifier,
    verify_etf,
)
from .losses import NumericDivergence
from .serialize import derive_seed, sha256_file, write_csv, write_json
from .trainer import SyntheticDatasetSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4


class ConfigError(Exception):
    """Bad input (a flag, config key or file), refused before any output: exit 2."""


@contextmanager
def _blame(what):
    """Re-raise a ValueError from building a run's inputs as a ConfigError naming ``what``."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from None


def _out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(out, command, config, artifacts, label=""):
    manifest = {
        "command": command,
        "label": label,
        "config": config,
        "artifacts": {name: sha256_file(f"{out}/{name}") for name in artifacts},
        "created_at_unix": time.time(),
    }
    write_json(f"{out}/manifest.json", manifest)


def _flags(args):
    """The parsed flags, as the manifest records them."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _check_flags(args, positive=(), nonnegative=()):
    """Reject a flag value outside (0, inf) (``positive``) or [0, inf) before any work."""
    for name in (*positive, *nonnegative):
        value = getattr(args, name)
        rule = "> 0" if name in positive else ">= 0"
        if not (np.isfinite(value) and (value > 0 if name in positive else value >= 0)):
            finite = "" if isinstance(value, int) else "finite and "
            raise ConfigError(f"--{name.replace('_', '-')} must be {finite}{rule}, got {value}")


def _read_json(path, what):
    """A JSON input file; a missing or malformed one is a ConfigError naming it."""
    try:
        with open(path) as f, _blame(f"{what} {path} is not valid JSON"):
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}") from None


# --- etf ---------------------------------------------------------------------


def cmd_etf(args):
    _check_flags(args, positive=("tol",))
    with _blame("--d/--K"):
        frame = generate_etf(args.d, args.K, args.seed)
    out = _out_dir(args.out)
    report = verify_etf(frame, args.tol)
    write_json(f"{out}/frame.json", frame_to_json_dict(frame))
    with open(f"{out}/frame.csv", "w") as f:
        f.write(frame_to_csv_text(frame))
    write_csv(
        f"{out}/gram_report.csv",
        ["max_deviation", "worst_row", "worst_col", "passed", "tol"],
        [[report.max_deviation, report.worst_row, report.worst_col,
          int(report.passed), report.tol]],
    )
    config = {"d": args.d, "K": args.K, "seed": args.seed, "tol": args.tol}
    _write_manifest(out, "etf", config, ["frame.json", "frame.csv", "gram_report.csv"], args.label)
    if not report.passed:
        print(f"etf: FAIL max deviation {report.max_deviation:.3e} > {args.tol:g}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"etf: ok, max Gram deviation {report.max_deviation:.3e}")
    return EXIT_OK


# --- peeled -------------------------------------------------------------------


def _parse_counts(args):
    if args.counts:
        with _blame("--counts"):
            return np.array([int(v) for v in args.counts.split(",")])
    with _blame("--n-max/--tau"):
        return SyntheticDatasetSpec(args.K, 1, args.n_max, args.tau).counts()  # input_dim unused


def _parse_minor_classes(args, counts):
    """The probed classes: --minor-classes, or else the max(2, K//2) smallest classes."""
    if args.minor_classes:
        with _blame("--minor-classes"):
            minor = [int(v) for v in args.minor_classes.split(",")]
    else:
        minor = sorted(np.argsort(counts, kind="stable")[: max(2, args.K // 2)].tolist())
    if any(not 0 <= k < args.K for k in minor):
        raise ConfigError(f"--minor-classes entries must lie in [0, {args.K}), got {minor}")
    if len(minor) < 2 or len(set(minor)) != len(minor):
        raise ConfigError(f"--minor-classes needs at least two distinct classes, got {minor}")
    return minor


def cmd_peeled(args):
    _check_flags(args, positive=("d", "gamma", "e_h", "e_w"), nonnegative=("steps", "stop_tol"))
    if args.init_at_optimum and args.mode != "dlpm":
        raise ConfigError("--init-at-optimum needs dlpm mode")
    counts = _parse_counts(args)
    if args.mode == "dlpm":
        with _blame("--d/--K"):
            frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
    with _blame("--K/--counts"):
        if args.mode == "dlpm":
            problem = lp.dlpm_problem(uniform_classifier(frame, args.e_w), counts, args.e_h)
        else:
            problem = lp.lpm_problem(
                args.d, args.K, counts, args.e_h, args.e_w, derive_seed(args.seed, "classifier")
            )
    minor = _parse_minor_classes(args, counts) if args.mode == "lpm" else None
    if args.init_at_optimum:
        problem.features = lp.analytic_optimum(problem.classifier, args.e_h)[:, problem.labels].T
    else:
        problem = lp.init_features(problem, derive_seed(args.seed, "features"))

    traj = lp.optimize(
        problem,
        args.loss,
        lp.OptimizerConfig(step_size=args.gamma, max_steps=args.steps, stop_tol=args.stop_tol),
    )
    final = traj.final
    probe = lp.minority_collapse_probe(final.classifier, minor) if args.mode == "lpm" else None
    out = _out_dir(args.out)  # only a run that got through leaves --out behind
    header, rows = traj.csv_rows()
    write_csv(f"{out}/trajectory.csv", header, rows)
    state = {
        "mode": args.mode,
        "loss": args.loss,
        "e_h": args.e_h,
        "e_w": args.e_w,
        "class_counts": [int(c) for c in counts],
        "labels": [int(v) for v in final.labels],
        "features": np.asarray(final.features).tolist(),
        "stop_reason": traj.stop_reason,
    }
    if final.is_fixed_classifier:
        state["classifier"] = dict(
            frame_to_json_dict(final.classifier.frame),
            lengths=[float(v) for v in final.classifier.lengths],
        )
    else:
        state["classifier_matrix"] = np.asarray(final.classifier).tolist()
    write_json(f"{out}/final_state.json", state)

    artifacts = ["trajectory.csv", "final_state.json"]
    if probe is not None:
        write_csv(
            f"{out}/probe.csv",
            ["class_i", "class_j", "cosine"],
            [[i, j, c] for i, j, c in probe.pairs],
        )
        write_csv(
            f"{out}/probe_summary.csv",
            ["min_cosine", "mean_cosine", "balanced_reference"],
            [[probe.min_cosine, probe.mean_cosine, -1.0 / (args.K - 1)]],
        )
        artifacts += ["probe.csv", "probe_summary.csv"]
        print(
            f"peeled lpm: {traj.stop_reason} after {traj.records[-1].step} steps, "
            f"minor mean cosine {probe.mean_cosine:.4f} (balanced {-1.0/(args.K-1):.4f})"
        )
    else:
        print(
            f"peeled dlpm: {traj.stop_reason} after {traj.records[-1].step} steps, "
            f"final gap {traj.records[-1].gap:.3e}"
        )
    config = dict(_flags(args), counts_resolved=[int(c) for c in counts])
    _write_manifest(out, "peeled", config, artifacts, args.label)
    return EXIT_OK


# --- regularity ----------------------------------------------------------------


def _float_list(flag, text):
    try:
        return [float(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def cmd_regularity(args):
    gammas = _float_list("--gammas", args.gammas)
    deltas = _float_list("--deltas", args.deltas)
    losses = args.losses.split(",")
    _check_flags(args, positive=("e_h", "e_w"), nonnegative=("trials",))
    if not deltas or not all(np.isfinite(deltas)) or min(deltas) <= 0:
        raise ConfigError(f"--deltas entries must be finite and > 0, got {args.deltas!r}")
    if not all(np.isfinite(gammas)):
        raise ConfigError(f"--gammas entries must be finite, got {args.gammas!r}")
    if not set(losses) <= {"ce", "dr"}:
        raise ConfigError(f"--losses entries must be 'ce' or 'dr', got {args.losses!r}")
    with _blame("--d/--K"):
        frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
    clf = uniform_classifier(frame, args.e_w)

    # clf.e_w is sqrt(--e-w)**2, which can differ from --e-w in the last ulp
    gamma_dr = float(np.sqrt(args.e_h / clf.e_w))
    steps = [(loss, g) for loss in losses for g in (gammas if loss == "ce" else [gamma_dr])]
    if args.instance_optimal and "ce" in losses:
        steps.append(("ce", "instance-optimal"))
    if not steps:
        raise ConfigError("no step to measure: --losses ce needs --gammas or --instance-optimal")
    runs = [reg.run_regularity_sweep(clf, steps, delta, args.trials, args.seed, args.e_h)
            for delta in deltas]
    verdict, passed = (reg.check_sweep(steps, deltas, runs) if args.trials
                       else ({"status": "no-data"}, True))
    out = _out_dir(args.out)  # only a run that got through leaves --out behind
    records = [r for run in runs for step_records in run for r in step_records]
    header, rows = reg.records_csv(records)
    write_csv(f"{out}/records.csv", header, rows)
    summary = {"trials": args.trials, "K": args.K, "d": args.d,
               "e_h": args.e_h, "e_w": args.e_w, **verdict}
    write_json(f"{out}/summary.json", summary)
    _write_manifest(out, "regularity", _flags(args), ["records.csv", "summary.json"], args.label)
    if not passed:
        why = (f"no records: all {args.trials * len(deltas)} trials started within "
               f"{reg.DIST_GUARD:g} of the optimum and were excluded" if not records
               else "bound or dominance check FAILED")
        print(f"regularity: {why}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"regularity: ok ({len(records)} records)")
    return EXIT_OK


# --- train ----------------------------------------------------------------------


def _is_int(v, low=1):
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _int_list(low):
    return lambda v: isinstance(v, list) and all(_is_int(n, low) for n in v)


#: (test, what the value must be) per field type of the config dataclasses
_KINDS = {
    int: (_is_int, "an integer >= 1"),
    float: (lambda v: _is_int(v, -math.inf) or isinstance(v, float) and math.isfinite(v),
            "a finite number"),
    tuple: (_int_list(-math.inf), "a list of integers"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _schema(cls, *skip, **extra):
    return {**{f.name: _KINDS[f.type] for f in fields(cls) if f.name not in skip}, **extra}


#: the keys each block may set, with their checks; ``seeds`` and
#: ``regimes`` are top-level lists
_BLOCKS = {
    "dataset": _schema(SyntheticDatasetSpec, "seed", train_csv=_KINDS[str], test_csv=_KINDS[str],
                       test_per_class=(lambda v: _is_int(v, 0), "an integer >= 0 (0: n_max)")),
    "model": {"hidden_sizes": (_int_list(1), "a list of integers >= 1"),
              "feature_dim": _KINDS[int]},
    "train": _schema(tr.TrainConfig, "regime", "seed"),
}
#: what ``model`` holds when the config leaves a key out
_MODEL_DEFAULTS = {"hidden_sizes": [64], "feature_dim": 16}
_TOP = {
    "regimes": ((lambda v: isinstance(v, list) and all(r in tr.REGIMES for r in v)),
                f"a list of regimes from {', '.join(tr.REGIMES)}"),
    "seeds": (_int_list(0), "a list of integers >= 0"),
}


def _check_config(cfg):
    """Check a train config before any run; a bad value raises ConfigError naming it.

    Required are the dataclass fields without a default; an external
    dataset (``train_csv``) needs only ``num_classes``.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    checks = []  # (path, node, key, (test, what))
    for block, allowed in _BLOCKS.items():
        node = cfg.get(block, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config field '{block}' must be an object")
        unknown = sorted(set(node) - set(allowed))
        if unknown:
            raise ConfigError(f"config has unknown key '{block}.{unknown[0]}'; "
                              f"'{block}' allows {', '.join(sorted(allowed))}")
        cls = {"dataset": SyntheticDatasetSpec, "train": tr.TrainConfig}.get(block)
        required = [f.name for f in fields(cls) if f.default is MISSING] if cls else []
        keys = (["num_classes"] if "train_csv" in node else required) + list(node)
        checks += [(f"{block}.{key}", node, key, allowed[key]) for key in keys]
    if "test_csv" in cfg.get("dataset", {}) and "train_csv" not in cfg["dataset"]:
        raise ConfigError("config field 'dataset.test_csv' needs 'dataset.train_csv'")
    checks += [(key, cfg, key, check) for key, check in _TOP.items()]
    for path, node, key, (test, what) in checks:
        if key not in node:
            raise ConfigError(f"config is missing required field '{path}'")
        if not test(node[key]):
            raise ConfigError(f"config field '{path}' must be {what}, got {node[key]!r}")
    ds, model = cfg["dataset"], {**_MODEL_DEFAULTS, **cfg.get("model", {})}
    K = ds["num_classes"]
    if K < 2:
        raise ConfigError(f"config field 'dataset.num_classes' must be >= 2, got {K}")
    for path, d in (("model.feature_dim", model["feature_dim"]),
                    ("dataset.input_dim", K if "train_csv" in ds else ds["input_dim"])):
        if d < K - 1:  # an ETF frame of K classes spans K-1 dimensions
            raise ConfigError(f"config field '{path}' must be >= "
                              f"dataset.num_classes - 1 = {K - 1}, got {d}")


def _load_dataset(path, num_classes, dim=None):
    """One dataset CSV; it must hold a row of every class, and ``dim`` features if given."""
    try:
        with _blame("dataset file"):
            data = tr.load_dataset_csv(path, num_classes)
    except OSError as e:
        raise ConfigError(f"cannot read dataset file {path}: {e.strerror}") from None
    missing = np.flatnonzero(np.bincount(data.y, minlength=num_classes) == 0)
    if missing.size:
        raise ConfigError(f"dataset file {path} has no row of class {missing[0]}")
    if dim not in (None, data.x.shape[1]):
        raise ConfigError(f"dataset file {path} has {data.x.shape[1]} features, not {dim}")
    return data


def _bal_acc_by_regime(runs):
    """[(regime, [final_bal_acc per run])] in regime order."""
    by_regime = {}
    for run in runs:
        by_regime.setdefault(run["regime"], []).append(run["final_bal_acc"])
    return sorted(by_regime.items())


def cmd_train(args):
    cfg = _read_json(args.config, "config file")
    _check_config(cfg)
    ds, regimes, seeds = cfg["dataset"], cfg["regimes"], cfg["seeds"]
    model_cfg = {**_MODEL_DEFAULTS, **cfg.get("model", {})}
    hidden, feature_dim = model_cfg["hidden_sizes"], model_cfg["feature_dim"]
    train_cfg = dict(cfg["train"], milestones=tuple(cfg["train"].get("milestones", ())))
    with _blame("config block 'train'"):
        configs = {(seed, regime): tr.regime_config(regime, seed=seed, **train_cfg)
                   for seed in seeds for regime in regimes}
    if "train_csv" in ds:  # an external dataset replaces the generator; read each file once
        train_set = _load_dataset(ds["train_csv"], ds["num_classes"])
        test_set = (_load_dataset(ds["test_csv"], ds["num_classes"], train_set.x.shape[1])
                    if "test_csv" in ds else train_set)
        datasets = dict.fromkeys(seeds, (train_set, test_set))
    else:
        with _blame("config block 'dataset'"):
            datasets = {seed: tr.make_imbalanced_dataset(SyntheticDatasetSpec(
                **dict(ds, seed=derive_seed(seed, "dataset")))) for seed in seeds}
    out = _out_dir(args.out)

    summary = {"runs": [], "config_file": args.config}
    artifacts = []
    for seed in seeds:
        train_set, test_set = datasets[seed]
        for regime in regimes:
            config = configs[seed, regime]
            model = tr.MlpBackbone.init(
                [train_set.x.shape[1], *hidden, feature_dim], derive_seed(seed, f"model:{regime}")
            )
            log = tr.train(model, train_set, test_set, config)
            name = f"trainlog_{regime}_seed{seed}.csv"
            header, rows = log.csv_rows()
            write_csv(f"{out}/{name}", header, rows)
            artifacts.append(name)
            snap = f"model_{regime}_seed{seed}.json"
            write_json(f"{out}/{snap}", {
                "regime": regime, "seed": seed,
                "weights": [w.tolist() for w in model.weights],
                "biases": [b.tolist() for b in model.biases],
                "classifier": np.asarray(log.classifier).tolist(),
            })
            artifacts.append(snap)
            tail = log.records[-max(1, len(log.records) // 4):]  # the final quarter
            summary["runs"].append({
                "regime": regime, "seed": seed, "trainlog": name,
                "final_bal_acc": log.final_bal_acc, "final_loss": log.records[-1].loss,
                **{f"final_quarter_{k}": float(np.mean([getattr(r.nc_train, k) for r in tail]))
                   for k in ("cos_ff_std", "cos_fc_std")},
            })
            print(f"train: {regime} seed {seed}: bal_acc {log.final_bal_acc:.4f}")
    summary["by_regime"] = {
        regime: {
            "mean_bal_acc": float(np.mean(accs)),
            "std_bal_acc": float(np.std(accs)),
            "runs": len(accs),
        }
        for regime, accs in _bal_acc_by_regime(summary["runs"])
    }
    write_json(f"{out}/summary.json", summary)
    artifacts.append("summary.json")
    _write_manifest(out, "train", cfg, artifacts, args.label)
    return EXIT_OK


# --- report ----------------------------------------------------------------------


#: per-run summary fields that report_long.csv lists
REPORT_METRICS = ("final_bal_acc", "final_loss",
                  "final_quarter_cos_ff_std", "final_quarter_cos_fc_std")


def cmd_report(args):
    if not args.runs:
        raise ConfigError("no run directories given")
    rows = []
    for run_dir in args.runs:
        manifest = _read_json(f"{run_dir}/manifest.json", "run file")
        run_summary = _read_json(f"{run_dir}/summary.json", "run file")
        if manifest.get("command") != "train":
            raise ConfigError(f"{run_dir} is not a train run (command={manifest.get('command')!r})")
        runs = run_summary.get("runs") if isinstance(run_summary, dict) else None
        if not isinstance(runs, list):
            raise ConfigError(f"{run_dir}/summary.json has no 'runs' list")
        for i, run in enumerate(runs):
            missing = [k for k in ("regime", "seed", *REPORT_METRICS)
                       if not isinstance(run, dict) or k not in run]
            if missing:
                raise ConfigError(
                    f"{run_dir}/summary.json: run {i} is missing {', '.join(missing)}"
                )
            if not all(isinstance(run[k], (int, float)) for k in REPORT_METRICS):
                raise ConfigError(f"{run_dir}/summary.json: run {i} has a non-numeric metric")
            rows.append((run_dir, run))
    out = _out_dir(args.out)
    by_regime = _bal_acc_by_regime(run for _, run in rows)
    write_csv(
        f"{out}/report_summary.csv",
        ["regime", "runs", "bal_acc_mean", "bal_acc_std"],
        [[regime, len(accs), float(np.mean(accs)), float(np.std(accs))]
         for regime, accs in by_regime],
    )
    long_rows = []
    for run_dir, run in rows:
        for metric in REPORT_METRICS:
            long_rows.append([run_dir, run["regime"], run["seed"], metric, run[metric]])
    write_csv(
        f"{out}/report_long.csv",
        ["run_dir", "regime", "seed", "metric", "value"],
        long_rows,
    )
    _write_manifest(
        out, "report", {"runs": list(args.runs)}, ["report_summary.csv", "report_long.csv"],
        args.label,
    )
    print(f"report: {len(rows)} runs, {len(by_regime)} regimes")
    return EXIT_OK


# --- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="etfnc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--out", required=True, help="output directory")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--label", default="", help="free-form run label for the manifest")

    sp = sub.add_parser("etf", help="generate and verify a simplex ETF")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=cmd_etf)

    sp = sub.add_parser("peeled", help="optimize a layer-peeled model")
    sp.add_argument("--mode", choices=["dlpm", "lpm"], required=True)
    sp.add_argument("--loss", choices=["ce", "dr"], required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--counts", default="", help="comma-separated per-class counts")
    sp.add_argument("--tau", type=float, default=1.0, help="imbalance ratio (with --n-max)")
    sp.add_argument("--n-max", type=int, default=100)
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=5000)
    sp.add_argument("--stop-tol", type=float, default=0.0)
    sp.add_argument("--e-h", type=float, default=1.0)
    sp.add_argument("--e-w", type=float, default=1.0)
    sp.add_argument("--init-at-optimum", action="store_true")
    sp.add_argument("--minor-classes", default="", help="comma-separated minor class indices")
    common(sp)
    sp.set_defaults(func=cmd_peeled)

    sp = sub.add_parser("regularity", help="one-step contraction experiment")
    sp.add_argument("--losses", default="ce,dr")
    sp.add_argument("--gammas", default="0.05,0.1,0.5,1.0", help="CE step-size sweep")
    sp.add_argument("--deltas", default="0.01,0.05,0.1")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--e-h", type=float, default=1.0)
    sp.add_argument("--e-w", type=float, default=1.0)
    sp.add_argument("--instance-optimal", action="store_true",
                    help="also report CE at the per-trial optimal rate")
    common(sp)
    sp.set_defaults(func=cmd_regularity)

    sp = sub.add_parser("train", help="backbone training regimes from a JSON config")
    sp.add_argument("--config", required=True)
    common(sp, seeded=False)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("report", help="aggregate train run directories")
    sp.add_argument("--runs", nargs="*", default=[])
    common(sp, seeded=False)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericDivergence as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
