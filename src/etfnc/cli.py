"""Command-line harness: seeded, manifest-tracked experiment runs.

Subcommands
    etf         generate + verify a frame, write JSON/CSV
    peeled      run a DLPM/LPM optimization of --counts classes, write trajectory + final state
    regularity  one-step CE, DR (always) and CE-opt steps; records + bound/dominance verdict
    train       backbone training regimes from a JSON config

Every run writes a manifest.json with the resolved configuration and
sha256 hashes of the artifacts; rerunning a command with identical
inputs reproduces every CSV/JSON payload byte for byte (wall-clock time
appears only in the manifest). Seeds fan out per component via
serialize.derive_seed. Exit codes: 0 ok, 2 bad config/flags, 3 numeric
divergence, 4 a verification/acceptance check failed, 1 a bug (traceback).
This module parses argv and checks flags and a train config's JSON shape; value
rules and verdicts live in the library (the config types, peeled problems, check_sweep).
A ValueError or MemoryError raised while building a run's inputs becomes a
ConfigError naming the flag, config block or file.
Each cmd_* writes nothing: it returns its exit code, the manifest's config, its payloads by file
name and the manifest's "run" block (train: its worker count). Only main writes them, after the
command returned, so exit 2 or 3 leaves no --out; exit 4 writes the failed check's payloads.
A negative number in exponent form needs --flag=value (--gamma=-1e+300).
With BLAS pinned to one thread, train's runs use one process per usable CPU, with the same
payloads. A job is sent by value (layer sizes, model seed, dataset spec, config): each run
builds its model and draws its seed's (train, test) sets where it trains, in a pool worker
or in process, so a pool's parent holds neither. Each epoch's features overwrite the last's.
A command loads its module when it runs (a train pool also loads multiprocessing), so
`import etfnc.cli` loads only etf, losses, batches and serialize, which every command shares.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields

import numpy as np

from .etf import (STRUCT_TOL, GramReport, frame_to_json_dict, generate_etf, uniform_classifier,
                  verify_etf)
from .losses import NumericDivergence
from .serialize import derive_seed, sha256_file, table, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4


class ConfigError(Exception):
    """Bad input (a flag, config key or file), refused before any output: exit 2."""


@contextmanager
def _blame(what):
    """Re-raise a ValueError or MemoryError from building a run's inputs as a ConfigError.

    The message names ``what``. Inputs too large to allocate are refused at
    once, before any output.
    """
    try:
        yield
    except (ValueError, MemoryError) as e:
        raise ConfigError(f"{what}: {e}") from None


def _environment():
    """The Python, numpy and BLAS versions and the BLAS thread variables (None if unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v)
                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _write_run(out, command, config, files, run):
    """Write a run: every payload of ``files``, then manifest.json hashing them.

    ``files`` maps a file name to its payload: a CSV (header, rows), whose
    header None writes no header row, or a JSON value. Only the manifest
    records ``run`` (what a command reports of how it ran), the environment and the time.
    """
    os.makedirs(out, exist_ok=True)
    for name, payload in files.items():
        path = f"{out}/{name}"
        if isinstance(payload, tuple):
            write_csv(path, *payload)
        else:
            write_json(path, payload)
    write_json(f"{out}/manifest.json", {
        "command": command,
        "config": config,
        "artifacts": {name: sha256_file(f"{out}/{name}") for name in files},
        "created_at_unix": time.time(),
        "environment": _environment(),
        "run": run,
    })


def _flags(args):
    """The parsed flags, as the manifest records them."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _check_flags(args, positive=(), nonnegative=()):
    """Reject a flag value outside (0, inf) (``positive``) or [0, inf) before any work.

    An integer flag is a count or size, so it must also be < 2**63.
    """
    for name in (*positive, *nonnegative):
        value, flag = getattr(args, name), f"--{name.replace('_', '-')}"
        is_int = isinstance(value, int)
        if is_int and value >= 2**63:
            raise ConfigError(f"{flag} must be < 2**63, got {value}")
        rule = ("" if is_int else "finite and ") + ("> 0" if name in positive else ">= 0")
        in_range = value > 0 if name in positive else value >= 0
        if not (in_range and (is_int or math.isfinite(value))):
            raise ConfigError(f"{flag} must be {rule}, got {value}")


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
    report = verify_etf(frame, args.tol)
    files = {
        "frame.json": frame_to_json_dict(frame),
        "frame.csv": (None, frame.columns.T),  # one frame column per line
        "gram_report.csv": table(GramReport, [report]),
    }
    config = {"d": args.d, "K": args.K, "seed": args.seed, "tol": args.tol}
    if not report.passed:
        print(f"etf: FAIL max deviation {report.max_deviation:.3e} > {args.tol:g}", file=sys.stderr)
        return EXIT_CHECK_FAILED, config, files, {}
    print(f"etf: ok, max Gram deviation {report.max_deviation:.3e}")
    return EXIT_OK, config, files, {}


# --- peeled -------------------------------------------------------------------


def _list(flag, text, kind):
    """The comma-separated ``kind`` values of ``flag``; "" is the empty list."""
    try:
        return [kind(v) for v in text.split(",")] if text else []
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} must be comma-separated {what}, got {text!r}") from None


def _parse_minor_classes(args, counts):
    """The probed classes: --minor-classes, or else the max(2, K//2) smallest classes."""
    minor = _list("--minor-classes", args.minor_classes, int) or sorted(
        np.argsort(counts, kind="stable")[: max(2, args.K // 2)].tolist())
    if any(not 0 <= k < args.K for k in minor):
        raise ConfigError(f"--minor-classes entries must lie in [0, {args.K}), got {minor}")
    if len(minor) < 2 or len(set(minor)) != len(minor):
        raise ConfigError(f"--minor-classes needs at least two distinct classes, got {minor}")
    return minor


def cmd_peeled(args):
    from . import peeled as lp
    _check_flags(args, positive=("d", "gamma", "e_h", "e_w"), nonnegative=("steps", "stop_tol"))
    if args.minor_classes and args.mode != "lpm":
        raise ConfigError("--minor-classes needs lpm mode")
    counts = _list("--counts", args.counts, int)
    feature_seed = derive_seed(args.seed, "features")
    with _blame("--d/--K/--counts"):
        if args.mode == "dlpm":
            frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
            problem = lp.dlpm_problem(uniform_classifier(frame, args.e_w), counts, args.e_h,
                                      feature_seed)
        else:
            problem = lp.lpm_problem(args.d, args.K, counts, args.e_h, args.e_w,
                                     derive_seed(args.seed, "classifier"), feature_seed)
    minor = _parse_minor_classes(args, counts) if args.mode == "lpm" else None

    traj = lp.optimize(problem, args.loss, args.gamma, args.steps, args.stop_tol)
    final = traj.final
    probe = lp.minority_collapse_probe(final.classifier, minor) if args.mode == "lpm" else None
    state = {
        "mode": args.mode,
        "loss": args.loss,
        "e_h": args.e_h,
        "e_w": args.e_w,
        "class_counts": [int(c) for c in counts],
        "labels": final.labels,
        "features": final.features,
        "stop_reason": traj.stop_reason,
    }
    if final.is_fixed_classifier:
        state["classifier"] = dict(frame_to_json_dict(final.classifier.frame),
                                   lengths=final.classifier.lengths)
    else:
        state["classifier_matrix"] = np.asarray(final.classifier)
    files = {"trajectory.csv": table(lp.StepRecord, traj.records), "final_state.json": state}
    if probe is not None:
        files["probe.csv"] = (["class_i", "class_j", "cosine"], probe.pairs)
        files["probe_summary.csv"] = (["min_cosine", "mean_cosine", "balanced_reference"],
                                      [[probe.min_cosine, probe.mean_cosine, -1.0 / (args.K - 1)]])
        print(f"peeled lpm: {traj.stop_reason} after {traj.records[-1].step} steps, "
              f"minor mean cosine {probe.mean_cosine:.4f} (balanced {-1.0/(args.K-1):.4f})")
    else:
        print(f"peeled dlpm: {traj.stop_reason} after {traj.records[-1].step} steps, "
              f"final gap {traj.records[-1].gap:.3e}")
    return EXIT_OK, _flags(args), files, {}


# --- regularity ----------------------------------------------------------------


def cmd_regularity(args):
    from . import regularity as reg
    gammas = _list("--gammas", args.gammas, float)
    deltas = _list("--deltas", args.deltas, float)
    _check_flags(args, positive=("e_h", "e_w", "trials"))
    if not deltas or not all(0 < v < math.inf for v in deltas):
        raise ConfigError(f"--deltas entries must be finite and > 0, got {args.deltas!r}")
    if not all(0 < v < math.inf for v in gammas):  # a rate <= 0 steps CE away from h*
        raise ConfigError(f"--gammas entries must be finite and > 0, got {args.gammas!r}")
    with _blame("--d/--K"):
        frame = generate_etf(args.d, args.K, derive_seed(args.seed, "etf"))
        clf = uniform_classifier(frame, args.e_w)
        reg.check_classifier(clf)

    # clf.e_w is sqrt(--e-w)**2, which can differ from --e-w in the last ulp
    gamma_dr = float(np.sqrt(args.e_h / clf.e_w))
    steps = ([("ce", g) for g in gammas] + [("dr", gamma_dr)]
             + [("ce-opt", None)] * args.instance_optimal)
    with _blame("--trials"):  # each (delta, step) array is allocated --trials rows long
        runs = reg.run_regularity_sweep(clf, steps, deltas, args.trials, args.seed, args.e_h)
    verdict, passed = reg.check_sweep(steps, deltas, runs)
    header, rows = table(reg.RECORD, [records for run in runs for records in run])
    files = {
        "records.csv": (header, rows),
        "summary.json": {"trials": args.trials, "K": args.K, "d": args.d,
                         "e_h": args.e_h, "e_w": args.e_w, **verdict},
    }
    if not passed:
        guard = reg.DIST_GUARD * math.sqrt(args.e_h)
        why = (f"no records: all {args.trials * len(deltas)} trials started within "
               f"{guard:g} of the optimum and were excluded" if not rows
               else "bound or dominance check FAILED")
        print(f"regularity: {why}", file=sys.stderr)
        return EXIT_CHECK_FAILED, _flags(args), files, {}
    print(f"regularity: ok ({len(rows)} records)")
    return EXIT_OK, _flags(args), files, {}


# --- train ----------------------------------------------------------------------


def _is_int(v, low=1):
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _int_list(low):
    return lambda v: isinstance(v, list) and all(_is_int(n, low) for n in v)


def _keys(cls, *skip):
    """(settable keys, required keys) of a block that builds ``cls``: its fields but ``skip``."""
    return ([f.name for f in fields(cls) if f.name not in skip],
            [f.name for f in fields(cls) if f.default is MISSING])


#: what ``model`` holds when the config leaves a key out, and (test, what it must be) per key
_MODEL_DEFAULTS = {"hidden_sizes": [64], "feature_dim": 16}
_MODEL = {"hidden_sizes": (_int_list(1), "a list of integers >= 1"),
          "feature_dim": (_is_int, "an integer >= 1")}


def _check_config(cfg):
    """Check a train config's JSON shape before any run; return its model block with defaults.

    A bad shape raises ConfigError naming the key; the config types check the values.
    """
    from . import trainer as tr
    # the (settable, required) keys of each block; a run's seed and regime come from the top level
    blocks = {"dataset": _keys(tr.SyntheticDatasetSpec, "seed"), "model": (list(_MODEL), []),
              "train": _keys(tr.TrainConfig, "regime", "seed")}
    top = {
        "regimes": (lambda v: isinstance(v, list) and len(v) > 0
                    and all(r in tr.REGIMES for r in v),
                    f"a list of one or more regimes from {', '.join(tr.REGIMES)}"),
        # a seed names payload files, so it is capped like an integer flag
        "seeds": (lambda v: _int_list(0)(v) and 0 < len(v) and max(v) < 2**63,
                  "a list of one or more integers >= 0 and < 2**63"),
    }
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for block, (allowed, required) in blocks.items():
        node = cfg.get(block, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config field '{block}' must be an object")
        unknown = sorted(set(node) - set(allowed))
        if unknown:
            raise ConfigError(f"config has unknown key '{block}.{unknown[0]}'; "
                              f"'{block}' allows {', '.join(sorted(allowed))}")
        missing = [key for key in required if key not in node]
        if missing:
            raise ConfigError(f"config is missing required field '{block}.{missing[0]}'")
    model = {**_MODEL_DEFAULTS, **cfg.get("model", {})}
    checks = ([(f"model.{key}", model, key, check) for key, check in _MODEL.items()]
              + [(key, cfg, key, check) for key, check in top.items()])
    for path, node, key, (test, what) in checks:
        if key not in node:
            raise ConfigError(f"config is missing required field '{path}'")
        if not test(node[key]):
            raise ConfigError(f"config field '{path}' must be {what}, got {node[key]!r}")
    for key in top:  # a repeat would train twice and write one payload name twice
        repeated = [v for i, v in enumerate(cfg[key]) if v in cfg[key][:i]]
        if repeated:
            raise ConfigError(f"config field '{key}' repeats {repeated[0]!r}")
    K = cfg["dataset"]["num_classes"]  # SyntheticDatasetSpec refuses a K that is no integer
    if _is_int(K) and model["feature_dim"] < K - 1:  # an ETF of K classes spans K-1 dims
        raise ConfigError(f"config field 'model.feature_dim' must be >= "
                          f"dataset.num_classes - 1 = {K - 1}, got {model['feature_dim']}")
    return model


def _train_workers(runs):
    """Processes for ``runs`` train runs: every usable CPU if BLAS runs one thread, else 1.

    OpenBLAS reads OPENBLAS_NUM_THREADS first, then OMP_NUM_THREADS. With
    more BLAS threads, each worker's threads would fight for the same cores.
    A platform without ``os.fork`` or ``os.sched_getaffinity`` trains in process.
    """
    threads = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if v in os.environ), None)
    pooled = threads == "1" and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return min(runs, len(os.sched_getaffinity(0))) if pooled else 1


@contextmanager
def _run_map(jobs):
    """Yield the worker count and the ``(model, log)`` of every job in job order.

    The jobs train in process or in a fork pool of ``_train_workers(len(jobs))`` processes,
    which is sent each job by value. A run's error is raised when its job is reached, a dead
    worker as a RuntimeError; leaving the block stops and joins every worker.
    """
    workers = _train_workers(len(jobs))
    if workers < 2:
        yield workers, map(_train_run, jobs)
    else:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            # the workers before any job: one that dies in its job is no longer active
            forked = multiprocessing.active_children()
            results = pool.imap(_train_run, jobs)
            yield workers, (_result(results, i, forked) for i in range(len(jobs)))


def _result(results, i, forked):
    """Job ``i``'s result, next of the imap ``results``; RuntimeError once a ``forked`` one died.

    The dead worker may have held any job not yet returned, so the error names the job awaited.
    """
    import multiprocessing
    while True:
        try:
            return results.next(timeout=1.0)  # seconds between checks on the workers
        except multiprocessing.TimeoutError:
            if any(p.exitcode is not None for p in forked):
                raise RuntimeError(f"a pool worker died before train job {i} returned") from None


def _train_run(job):
    """Train one ``(layer sizes, model seed, dataset spec, config)`` job: ``(model, log)``.

    The run builds its model and draws its seed's sets where it trains; the model comes
    back because a pool worker trains its own.
    """
    from . import trainer as tr
    sizes, seed, spec, config = job
    model = tr.MlpBackbone.init(sizes, seed)
    with _blame("config block 'dataset'"):
        train_set, test_set = tr.make_imbalanced_dataset(spec)
    return model, tr.train(model, train_set, test_set, config)


def cmd_train(args):
    from . import trainer as tr
    cfg = _read_json(args.config, "config file")
    model_cfg = _check_config(cfg)
    ds, regimes, seeds = cfg["dataset"], cfg["regimes"], cfg["seeds"]
    with _blame("config block 'train'"):
        configs = {(seed, regime): tr.TrainConfig(regime=regime, seed=seed, **cfg["train"])
                   for seed in seeds for regime in regimes}
    with _blame("config block 'dataset'"):  # each run draws its seed's sets where it trains
        specs = {seed: tr.SyntheticDatasetSpec(**dict(ds, seed=derive_seed(seed, "dataset")))
                 for seed in seeds}
        specs[seeds[0]].counts()  # a class count rounded to zero is refused before any run
    sizes = [specs[seeds[0]].input_dim, *model_cfg["hidden_sizes"], model_cfg["feature_dim"]]
    keys = [(seed, regime) for seed in seeds for regime in regimes]
    with _blame("config block 'model'"):  # before any run: numpy may refuse a size
        tr.MlpBackbone.init(sizes, 0)  # each run builds its own model where it trains
    jobs = [(sizes, derive_seed(seed, f"model:{regime}"), specs[seed], configs[seed, regime])
            for seed, regime in keys]

    summary = {"runs": [], "config_file": args.config}
    accs = {regime: [] for regime in regimes}  # final_bal_acc per seed
    files = {}
    with _run_map(jobs) as (workers, results):
        for (seed, regime), (model, log) in zip(keys, results):
            name = f"trainlog_{regime}_seed{seed}.csv"
            files[name] = table(tr.EpochRecord, log.records)
            files[f"model_{regime}_seed{seed}.json"] = {
                "regime": regime, "seed": seed, "weights": model.weights,
                "biases": model.biases, "classifier": log.classifier,
            }
            tail = log.records[-max(1, len(log.records) // 4):]  # the final quarter
            summary["runs"].append({
                "regime": regime, "seed": seed, "trainlog": name,
                "final_bal_acc": log.final_bal_acc, "final_loss": log.records[-1].loss,
                **{f"final_quarter_{k}": float(np.mean([getattr(r.train, k) for r in tail]))
                   for k in ("cos_ff_std", "cos_fc_std")},
            })
            accs[regime].append(log.final_bal_acc)
            print(f"train: {regime} seed {seed}: bal_acc {log.final_bal_acc:.4f}")
    summary["by_regime"] = {
        regime: {"mean_bal_acc": float(np.mean(a)), "std_bal_acc": float(np.std(a)),
                 "runs": len(a)}
        for regime, a in accs.items()
    }
    files["summary.json"] = summary
    return EXIT_OK, cfg, files, {"workers": workers}


# --- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="etfnc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--out", required=True, help="output directory")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("etf", help="generate and verify a simplex ETF")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--tol", type=float, default=STRUCT_TOL)
    common(sp)
    sp.set_defaults(func=cmd_etf)

    sp = sub.add_parser("peeled", help="optimize a layer-peeled model")
    sp.add_argument("--mode", choices=["dlpm", "lpm"], required=True)
    sp.add_argument("--loss", choices=["ce", "dr"], required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--counts", required=True,
                    help="comma-separated class counts, one integer >= 1 per class")
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=5000)
    sp.add_argument("--stop-tol", type=float, default=0.0)
    sp.add_argument("--e-h", type=float, default=1.0)
    sp.add_argument("--e-w", type=float, default=1.0)
    sp.add_argument("--minor-classes", default="", help="comma-separated minor class indices")
    common(sp)
    sp.set_defaults(func=cmd_peeled)

    sp = sub.add_parser("regularity", help="one-step contraction experiment")
    sp.add_argument("--gammas", default="0.05,0.1,0.5,1.0", help="CE step-size sweep")
    sp.add_argument("--deltas", default="0.01,0.05,0.1",
                    help="start distances from h*, as fractions of |h*| = sqrt(E_H)")
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
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # the seeded commands
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if not args.out:
            raise ConfigError("--out must name a directory, got ''")
        path = os.path.abspath(args.out)  # --out may not be, or lie under, a non-directory
        while not os.path.lexists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise ConfigError(f"--out {args.out}: {path} exists and is not a directory")
        code, config, files, ran = args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericDivergence as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_run(args.out, args.command, config, files, ran)
    return code


if __name__ == "__main__":
    sys.exit(main())
