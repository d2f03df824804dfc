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
divergence, 4 a verification/acceptance check failed.
"""

import argparse
import json
import math
import os
import sys
import time
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


class ConfigError(ValueError):
    pass


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


# --- etf ---------------------------------------------------------------------


def cmd_etf(args):
    _check_flags(args, positive=("tol",))
    out = _out_dir(args.out)
    frame = generate_etf(args.d, args.K, args.seed)
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
        counts = np.array([int(v) for v in args.counts.split(",")])
        if len(counts) != args.K:
            raise ConfigError(f"--counts has {len(counts)} entries, expected K={args.K}")
        if np.any(counts < 1):
            raise ConfigError("--counts entries must be >= 1")
        return counts
    spec = SyntheticDatasetSpec(
        num_classes=args.K, input_dim=1, n_max=args.n_max, imbalance_ratio=args.tau
    )
    return spec.counts()


def _parse_minor_classes(args, counts):
    """The probed classes: --minor-classes, or else the K//2 smallest classes."""
    if args.minor_classes:
        minor = [int(v) for v in args.minor_classes.split(",")]
    else:
        minor = sorted(np.argsort(counts, kind="stable")[: args.K // 2].tolist())
    if any(not 0 <= k < args.K for k in minor):
        raise ConfigError(f"--minor-classes entries must lie in [0, {args.K}), got {minor}")
    if len(minor) < 2 or len(set(minor)) != len(minor):
        raise ConfigError(f"the minority probe needs at least two distinct classes, got {minor}")
    return minor


def cmd_peeled(args):
    _check_flags(args, positive=("gamma", "e_h", "e_w"), nonnegative=("steps", "stop_tol"))
    out = _out_dir(args.out)
    counts = _parse_counts(args)
    minor = _parse_minor_classes(args, counts) if args.mode == "lpm" else None
    if args.mode == "dlpm":
        frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
        clf = uniform_classifier(frame, args.e_w)
        problem = lp.dlpm_problem(clf, counts, args.e_h)
    else:
        problem = lp.lpm_problem(
            args.d, args.K, counts, args.e_h, args.e_w, derive_seed(args.seed, "classifier")
        )
    if args.init_at_optimum:
        if args.mode != "dlpm":
            raise ConfigError("--init-at-optimum needs dlpm mode")
        h_star = lp.analytic_optimum(problem.classifier, args.e_h)
        problem.features = h_star[:, problem.labels].T.copy()
    else:
        problem = lp.init_features(problem, derive_seed(args.seed, "features"))

    config = dict(_flags(args), counts_resolved=[int(c) for c in counts])
    traj = lp.optimize(
        problem,
        args.loss,
        lp.OptimizerConfig(step_size=args.gamma, max_steps=args.steps, stop_tol=args.stop_tol),
    )
    header, rows = traj.csv_rows()
    write_csv(f"{out}/trajectory.csv", header, rows)

    final = traj.final
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
    if args.mode == "lpm":
        probe = lp.minority_collapse_probe(final.classifier, minor)
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
    out = _out_dir(args.out)
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
    records = [r for run in runs for step_records in run for r in step_records]
    header, rows = reg.records_csv(records)
    write_csv(f"{out}/records.csv", header, rows)

    summary = {"trials": args.trials, "K": args.K, "d": args.d,
               "e_h": args.e_h, "e_w": args.e_w}
    failed = False
    if args.trials == 0:
        summary["status"] = "no-data"
    else:
        dr_records = [r for r in records if r.loss_kind == "dr"]
        if dr_records:
            worst = max(r.ratio - r.bound for r in dr_records)
            summary["dr_bound"] = {
                "max_ratio_minus_bound": worst,
                "passed": worst <= 1e-9,
                "max_sphere_dev": max(r.sphere_dev for r in dr_records),
                "min_cos_after": min(r.cos_after for r in dr_records),
            }
            failed |= worst > 1e-9
        dom = reg.pair_dominance(steps, deltas, runs)
        if dom is not None:
            summary["paired_dominance"] = dom
            for cfg in dom["configs"]:
                frac = cfg.get("raw_dominance_frac")
                if frac is not None and (
                    frac < 0.99 or cfg["mean_ce_raw"] < cfg["mean_dr_raw"]
                ):
                    failed = True
    write_json(f"{out}/summary.json", summary)
    _write_manifest(out, "regularity", _flags(args), ["records.csv", "summary.json"], args.label)
    if args.trials and not records:
        print(f"regularity: no records: all {args.trials * len(deltas)} trials started within "
              f"{reg.DIST_GUARD:g} of the optimum and were excluded", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if failed:
        print("regularity: bound or dominance check FAILED", file=sys.stderr)
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


def _load_dataset(path, num_classes):
    try:
        return tr.load_dataset_csv(path, num_classes)
    except OSError as e:
        raise ConfigError(f"cannot read dataset file {path}: {e.strerror}") from None


def _bal_acc_by_regime(runs):
    """[(regime, [final_bal_acc per run])] in regime order."""
    by_regime = {}
    for run in runs:
        by_regime.setdefault(run["regime"], []).append(run["final_bal_acc"])
    return sorted(by_regime.items())


def cmd_train(args):
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {args.config} is not valid JSON: {e}")

    _check_config(cfg)
    out = _out_dir(args.out)
    ds_cfg, regimes, seeds = cfg["dataset"], cfg["regimes"], cfg["seeds"]
    model_cfg = cfg.get("model", {})
    hidden = model_cfg.get("hidden_sizes", [64])
    feature_dim = model_cfg.get("feature_dim", 16)
    train_cfg = dict(cfg["train"], milestones=tuple(cfg["train"].get("milestones", ())))

    summary = {"runs": [], "config_file": args.config}
    artifacts = []
    for seed in seeds:
        if "train_csv" in ds_cfg:  # external dataset replaces the generator
            train_set = _load_dataset(ds_cfg["train_csv"], ds_cfg["num_classes"])
            test_set = _load_dataset(
                ds_cfg.get("test_csv", ds_cfg["train_csv"]), ds_cfg["num_classes"]
            )
            input_dim = train_set.x.shape[1]
        else:
            spec = SyntheticDatasetSpec(**dict(ds_cfg, seed=derive_seed(seed, "dataset")))
            train_set, test_set = tr.make_imbalanced_dataset(spec)
            input_dim = spec.input_dim
        for regime in regimes:
            config = tr.regime_config(regime, seed=seed, **train_cfg)
            model = tr.MlpBackbone.init(
                [input_dim, *hidden, feature_dim], derive_seed(seed, f"model:{regime}")
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


def _read_run_json(run_dir, name):
    path = f"{run_dir}/{name}"
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"run directory {run_dir} is missing {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def cmd_report(args):
    out = _out_dir(args.out)
    if not args.runs:
        raise ConfigError("no run directories given")
    rows = []
    for run_dir in args.runs:
        manifest = _read_run_json(run_dir, "manifest.json")
        run_summary = _read_run_json(run_dir, "summary.json")
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
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
