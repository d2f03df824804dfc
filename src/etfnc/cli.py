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
import sys
import time
from dataclasses import fields

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
    import os

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


# --- tiny SVG line charts (optional convenience output) ---------------------


def _svg_chart(path, series, title, width=640, height=400):
    """series: list of (label, xs, ys); one polyline each, log-free axes."""
    pad = 50
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if np.isfinite(y)]
    if not xs_all or not ys_all:
        return
    x0, x1 = min(xs_all), max(xs_all) or 1
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    colors = ["#c0392b", "#2c3e50", "#27ae60", "#8e44ad", "#d35400"]

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" text-anchor="end" font-size="10">{x1:g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" text-anchor="end" font-size="10">{y0:.3g}</text>',
        f'<text x="{pad-4}" y="{pad}" text-anchor="end" font-size="10">{y1:.3g}</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if np.isfinite(y)
        )
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width-pad}" y="{pad + 14*i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


# --- etf ---------------------------------------------------------------------


def cmd_etf(args):
    out = _out_dir(args.out)
    frame = generate_etf(args.d, args.K, args.seed)
    report = verify_etf(frame, args.tol)
    with open(f"{out}/frame.json", "w") as f:
        json.dump(frame_to_json_dict(frame), f, indent=2, sort_keys=True)
        f.write("\n")
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

    config = vars(args).copy()
    config.pop("func", None)
    config["counts_resolved"] = [int(c) for c in counts]
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
    if args.svg:
        key = "gap" if args.mode == "dlpm" else "grad_norm"
        _svg_chart(
            f"{out}/trajectory.svg",
            [(key, [r.step for r in traj.records],
              [getattr(r, key) for r in traj.records])],
            f"{args.mode} {args.loss} trajectory",
        )
        artifacts.append("trajectory.svg")
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
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    if not deltas or not all(np.isfinite(deltas)) or min(deltas) <= 0:
        raise ConfigError(f"--deltas entries must be finite and > 0, got {args.deltas!r}")
    if not all(np.isfinite(gammas)):
        raise ConfigError(f"--gammas entries must be finite, got {args.gammas!r}")
    if not set(losses) <= {"ce", "dr"}:
        raise ConfigError(f"--losses entries must be 'ce' or 'dr', got {args.losses!r}")
    for flag, value in (("--e-h", args.e_h), ("--e-w", args.e_w)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    out = _out_dir(args.out)
    frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
    clf = uniform_classifier(frame, args.e_w)

    gamma_dr = float(np.sqrt(args.e_h / clf.e_w))  # clf.e_w, as in paired_dominance_summary
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
        if "ce" in losses and "dr" in losses and gammas:
            # the first DR step and the first CE block (one step per --gammas entry)
            dr_at, ce_at = steps.index(("dr", gamma_dr)), steps.index(("ce", gammas[0]))
            dom = reg.pair_dominance(gamma_dr, gammas, deltas, [
                (run[dr_at], run[ce_at:ce_at + len(gammas)]) for run in runs
            ])
            summary["paired_dominance"] = dom
            for cfg in dom["configs"]:
                frac = cfg.get("raw_dominance_frac")
                if frac is not None and (
                    frac < 0.99 or cfg["mean_ce_raw"] < cfg["mean_dr_raw"]
                ):
                    failed = True
    write_json(f"{out}/summary.json", summary)
    artifacts = ["records.csv", "summary.json"]
    if args.svg and records:
        by_kind = {}
        for r in records:
            by_kind.setdefault(r.loss_kind, []).append(r)
        series = [
            (kind, [r.cos_before for r in rs], [r.ratio for r in rs])
            for kind, rs in sorted(by_kind.items())
        ]
        _svg_chart(f"{out}/ratios.svg", series, "one-step ratio vs starting cosine")
        artifacts.append("ratios.svg")
    config = vars(args).copy()
    config.pop("func", None)
    _write_manifest(out, "regularity", config, artifacts, args.label)
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


def _require(cfg, path):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"config is missing required field '{path}'")
        node = node[part]
    return node


#: keys each block of a train config may set; seeds come from ``seeds``
#: and regimes from ``regimes``
_BLOCK_KEYS = {
    "dataset": ({f.name for f in fields(SyntheticDatasetSpec)} - {"seed"})
    | {"train_csv", "test_csv"},
    "model": {"hidden_sizes", "feature_dim"},
    "train": {f.name for f in fields(tr.TrainConfig)} - {"regime", "seed"},
}


def _check_blocks(cfg):
    for block, allowed in _BLOCK_KEYS.items():
        node = cfg.get(block, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config field '{block}' must be an object")
        unknown = sorted(set(node) - allowed)
        if unknown:
            raise ConfigError(
                f"config has unknown key '{block}.{unknown[0]}'; "
                f"'{block}' allows {', '.join(sorted(allowed))}"
            )
    epochs = cfg["train"]["epochs"]
    if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs < 1:
        raise ConfigError(f"config field 'train.epochs' must be an integer >= 1, got {epochs!r}")


def _load_dataset(path, num_classes):
    try:
        return tr.load_dataset_csv(path, num_classes)
    except OSError as e:
        raise ConfigError(f"cannot read dataset file {path}: {e.strerror}") from None


def cmd_train(args):
    out = _out_dir(args.out)
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {args.config} is not valid JSON: {e}")

    ds_cfg = _require(cfg, "dataset")
    _require(cfg, "dataset.num_classes")
    if "train_csv" not in ds_cfg:  # synthetic generator needs its knobs
        for fieldname in ("input_dim", "n_max", "imbalance_ratio"):
            _require(cfg, f"dataset.{fieldname}")
    epochs = _require(cfg, "train.epochs")
    regimes = _require(cfg, "regimes")
    seeds = _require(cfg, "seeds")
    _check_blocks(cfg)
    model_cfg = cfg.get("model", {})
    hidden = model_cfg.get("hidden_sizes", [64])
    feature_dim = model_cfg.get("feature_dim", 16)
    train_over = {k: v for k, v in cfg.get("train", {}).items() if k != "epochs"}
    if "milestones" in train_over:
        train_over["milestones"] = tuple(train_over["milestones"])

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
            config = tr.regime_config(regime, epochs=epochs, seed=seed, **train_over)
            model = tr.MlpBackbone.init(
                [input_dim, *hidden, feature_dim], derive_seed(seed, f"model:{regime}")
            )
            log = tr.train(model, train_set, test_set, config)
            name = f"trainlog_{regime}_seed{seed}.csv"
            header, rows = log.csv_rows()
            write_csv(f"{out}/{name}", header, rows)
            artifacts.append(name)
            snap = f"model_{regime}_seed{seed}.json"
            write_json(
                f"{out}/{snap}",
                {
                    "regime": regime,
                    "seed": seed,
                    "weights": [w.tolist() for w in model.weights],
                    "biases": [b.tolist() for b in model.biases],
                    "classifier": np.asarray(log.classifier).tolist(),
                },
            )
            artifacts.append(snap)
            quarter = max(1, len(log.records) // 4)
            tail = log.records[-quarter:]
            summary["runs"].append(
                {
                    "regime": regime,
                    "seed": seed,
                    "final_bal_acc": log.final_bal_acc,
                    "final_loss": log.records[-1].loss,
                    "final_quarter_cos_ff_std": float(
                        np.mean([r.nc_train.cos_ff_std for r in tail])
                    ),
                    "final_quarter_cos_fc_std": float(
                        np.mean([r.nc_train.cos_fc_std for r in tail])
                    ),
                    "trainlog": name,
                }
            )
            print(f"train: {regime} seed {seed}: bal_acc {log.final_bal_acc:.4f}")
    by_regime = {}
    for run in summary["runs"]:
        by_regime.setdefault(run["regime"], []).append(run["final_bal_acc"])
    summary["by_regime"] = {
        regime: {
            "mean_bal_acc": float(np.mean(accs)),
            "std_bal_acc": float(np.std(accs)),
            "runs": len(accs),
        }
        for regime, accs in sorted(by_regime.items())
    }
    write_json(f"{out}/summary.json", summary)
    artifacts.append("summary.json")
    if args.svg:
        # bal-acc curves for the first seed
        import csv as _csv

        series = []
        for regime in regimes:
            name = f"trainlog_{regime}_seed{seeds[0]}.csv"
            with open(f"{out}/{name}") as f:
                r = list(_csv.DictReader(f))
            series.append(
                (regime, [int(v["epoch"]) for v in r], [float(v["bal_acc"]) for v in r])
            )
        _svg_chart(f"{out}/bal_acc.svg", series, "balanced accuracy per epoch")
        artifacts.append("bal_acc.svg")
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
    by_regime = {}
    for run_dir, run in rows:
        by_regime.setdefault(run["regime"], []).append(run["final_bal_acc"])
    write_csv(
        f"{out}/report_summary.csv",
        ["regime", "runs", "bal_acc_mean", "bal_acc_std"],
        [
            [regime, len(accs), float(np.mean(accs)), float(np.std(accs))]
            for regime, accs in sorted(by_regime.items())
        ],
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

    def common(sp):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--label", default="", help="free-form run label for the manifest")
        sp.add_argument("--svg", action="store_true", help="also write SVG charts")

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
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("report", help="aggregate train run directories")
    sp.add_argument("--runs", nargs="*", default=[])
    common(sp)
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
