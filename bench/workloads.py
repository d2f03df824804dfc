"""The four etfnc CLI workloads: arguments, work done, science checks.

Each workload is one ``etfnc`` invocation run from a work directory with
relative ``--out out``, so payloads that record paths read the same in
every checkout. ``check`` returns a list of failure messages for an
output directory; an empty list is a pass.

BENCHMARK.json lists three of them. ``peeled-lpm`` runs by hand
(``--workload peeled-lpm`` or ``all``): a fourth 38 s workload would not
fit the time budget of a full benchmark pass, and shorter runs were not
steady on a shared host.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

#: the problem of demos/train_config.json, pinned here so the workload
#: does not move when the demo does; ``seeds`` is set per invocation
TRAIN_CONFIG = {
    "dataset": {"num_classes": 10, "input_dim": 32, "n_max": 500,
                "imbalance_ratio": 0.01, "separation": 3.0, "noise_scale": 1.0},
    "model": {"hidden_sizes": [64], "feature_dim": 32},
    "train": {"epochs": 48, "batch_size": 64, "momentum": 0.9},
    "regimes": ["learnable-ce", "learnable-wce", "etf-ce", "etf-dr"],
}


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _last_step(out):
    return int(float(_read_csv(os.path.join(out, "trajectory.csv"))[-1]["step"]))


def _check_dlpm(out):
    fails = []
    state = _read_json(os.path.join(out, "final_state.json"))
    if state["stop_reason"] != "gap":
        fails.append(f"stop_reason {state['stop_reason']!r}, expected 'gap'")
    gap = float(_read_csv(os.path.join(out, "trajectory.csv"))[-1]["gap"])
    if not gap < 1e-3:
        fails.append(f"final gap {gap!r} is not below 1e-3")
    return fails


def _check_lpm(out):
    fails = []
    state = _read_json(os.path.join(out, "final_state.json"))
    if state["stop_reason"] != "grad_norm":
        fails.append(f"stop_reason {state['stop_reason']!r}, expected 'grad_norm'")
    K = len(state["class_counts"])
    mean_cos = float(_read_csv(os.path.join(out, "probe_summary.csv"))[0]["mean_cosine"])
    if not mean_cos >= -1.0 / (K - 1) + 0.3:
        fails.append(f"minor mean cosine {mean_cos!r} < -1/(K-1) + 0.3")
    return fails


def _records_written(out):
    return len(_read_csv(os.path.join(out, "records.csv")))


def _check_regularity(out):
    summary = _read_json(os.path.join(out, "summary.json"))
    if summary.get("dr_bound", {}).get("passed") is not True:
        return ["summary.json dr_bound.passed is not true"]
    return []


def _regime_epochs(out):
    return sum(
        len(_read_csv(os.path.join(out, name)))
        for name in os.listdir(out)
        if name.startswith("trainlog_")
    )


def _check_train(out):
    runs = _read_json(os.path.join(out, "summary.json"))["runs"]
    if not runs:
        return ["summary.json has no runs"]
    fails = []
    for run in runs:
        acc = run["final_bal_acc"]
        if not (isinstance(acc, (int, float)) and math.isfinite(acc) and 0.0 <= acc <= 1.0):
            fails.append(f"{run['regime']} seed {run['seed']}: final_bal_acc {acc!r}")
    return fails


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments after ``etfnc``, without --out and --seed
    work_unit: str
    work: object  # out dir -> work done (int)
    check: object  # out dir -> list of failure messages
    train_config: dict = None  # written to config.json when set

    def prepare(self, work_dir, seed):
        """Write per-invocation inputs; return the CLI arguments."""
        if self.train_config is None:
            return [*self.args, "--seed", str(seed), "--out", "out"]
        with open(os.path.join(work_dir, "config.json"), "w") as f:
            json.dump(dict(self.train_config, seeds=[seed]), f, indent=2, sort_keys=True)
        return [*self.args, "--config", "config.json", "--out", "out"]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "peeled-dlpm",
            ("peeled", "--mode", "dlpm", "--loss", "dr", "--K", "10", "--d", "16",
             "--counts", "1000,333,111,37,12,4,1,1,1,1", "--gamma", "512",
             "--steps", "5000", "--stop-tol", "1e-3"),
            "steps", _last_step, _check_dlpm,
        ),
        Workload(
            "peeled-lpm",
            ("peeled", "--mode", "lpm", "--loss", "ce", "--K", "10", "--d", "16",
             "--counts", "1000,1000,1000,1000,1000,2,2,2,2,2", "--gamma", "0.5",
             "--steps", "20000", "--stop-tol", "1e-5"),
            "steps", _last_step, _check_lpm,
        ),
        Workload(
            "regularity",
            ("regularity", "--K", "10", "--d", "20"),
            "records", _records_written, _check_regularity,
        ),
        Workload(
            "train",
            ("train",),
            "regime-epochs", _regime_epochs, _check_train,
            train_config=TRAIN_CONFIG,
        ),
    )
}


def payload_hashes(out):
    """sha256 of every output file except manifest.json (which holds wall time)."""
    hashes = {}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        h = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
        hashes[name] = h.hexdigest()
    return hashes


def verify(wl, out):
    """Science check of one output directory; unreadable output is a failure."""
    try:
        return wl.check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def work_done(wl, out):
    try:
        return wl.work(out)
    except (OSError, ValueError, KeyError, IndexError):
        return 0
