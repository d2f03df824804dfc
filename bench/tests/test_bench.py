"""Tests of the benchmark itself, on tiny flag values so they take seconds.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from layers import HOOKS, TARGETS, is_count, layer_metrics  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, payload_hashes, verify  # noqa: E402

TINY_TRAIN = {
    "dataset": {"num_classes": 3, "input_dim": 4, "n_max": 20, "imbalance_ratio": 0.25},
    "model": {"hidden_sizes": [8], "feature_dim": 4},
    "train": {"epochs": 2, "batch_size": 16},
    "regimes": ["learnable-ce", "learnable-wce", "etf-ce", "etf-dr"],
}

TINY = {
    "peeled-dlpm": dataclasses.replace(WORKLOADS["peeled-dlpm"], args=(
        "peeled", "--mode", "dlpm", "--loss", "dr", "--K", "4", "--d", "6",
        "--counts", "10,5,2,1", "--gamma", "512", "--steps", "2000", "--stop-tol", "1e-3")),
    "peeled-lpm": dataclasses.replace(WORKLOADS["peeled-lpm"], args=(
        "peeled", "--mode", "lpm", "--loss", "ce", "--K", "4", "--d", "6",
        "--counts", "100,100,2,2", "--gamma", "0.5", "--steps", "20000",
        "--stop-tol", "1e-4")),
    "regularity": dataclasses.replace(WORKLOADS["regularity"], args=(
        "regularity", "--K", "4", "--d", "6", "--trials", "5", "--gammas", "0.1,1.0",
        "--deltas", "0.05")),
    "train": dataclasses.replace(WORKLOADS["train"], train_config=TINY_TRAIN),
}


def _bindings():
    """Every function-valued name in loaded etfnc modules and traced classes."""
    import etfnc.batches
    import etfnc.trainer

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "etfnc" or name.startswith("etfnc."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    for cls in (etfnc.batches.FeatureBatch, etfnc.trainer.MlpBackbone):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per tiny workload: a plain and two traced in-process runs, seed 3."""
    runs = {}
    for name, wl in TINY.items():
        base = tmp_path_factory.mktemp(name)
        plain = run.call_in_process(wl, 3, str(base / "w"))
        traced = []
        for _ in range(2):
            tracer = Tracer(TARGETS, HOOKS)
            inv = run.call_in_process(wl, 3, str(base / "w"), tracer)
            traced.append((inv, tracer))
        runs[name] = (plain, traced)
    return runs


def test_tracer_restores_every_wrapped_name(tmp_path):
    run.import_cli()
    before = _bindings()
    with Tracer(TARGETS, HOOKS) as tracer:
        import etfnc.cli
        import etfnc.trainer

        assert etfnc.cli.generate_etf is not before[("etfnc.cli", "generate_etf")]
        assert etfnc.trainer.nc_report is not before[("etfnc.trainer", "nc_report")]
        run.call_in_process(TINY["peeled-dlpm"], 0, str(tmp_path))
    assert not tracer.missing
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_an_exception():
    run.import_cli()
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(TARGETS, HOOKS):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_changes_no_payload(traced_runs, name, tmp_path):
    plain, traced = traced_runs[name]
    assert not plain.failures, plain.failures
    for inv, _ in traced:
        assert not inv.failures, inv.failures
        assert inv.hashes == plain.hashes
    child = run.run_child(TINY[name], 3, str(tmp_path))
    assert not child.failures, child.failures
    assert child.hashes == plain.hashes


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counts_repeat_exactly(traced_runs, name):
    _, traced = traced_runs[name]
    (_, t1), (_, t2) = traced
    m1, m2 = (layer_metrics(t.spans, t.counters) for t in (t1, t2))
    counts = [n for n in m1 if is_count(n)]
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    assert m1["cli.main.calls"] == 1


def test_layer_predictions_hold_on_tiny_runs(traced_runs):
    metrics = {name: layer_metrics(t.spans, t.counters)
               for name, (_, [(_, t), _]) in traced_runs.items()}
    for name, m in metrics.items():
        if name != "train":
            assert m["metrics.nc_report.calls"] == 0 and m["trainer.train.calls"] == 0
        if name != "regularity":
            assert m["regularity.run_regularity_experiment.calls"] == 0
    reg = metrics["regularity"]
    assert reg["regularity.records_written"] * 2 == reg["regularity.records_returned"]
    assert reg["regularity.useful_frac"] == 0.5
    train = metrics["train"]
    # per epoch: 35 train + 60 test rows distinct; 60 + 35 + 60 forwarded (test twice)
    assert train["trainer.eval_forward_useful_frac"] == pytest.approx(95 / 155)
    assert metrics["peeled-dlpm"]["peeled.optimize.steps"] > 0


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    out = summarize(spans, ["a", "b", "c"])
    assert out["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert out["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert out["c"]["self_s"] == 1.0


def _fresh_output(tmp_path, name):
    inv = run.call_in_process(TINY[name], 0, str(tmp_path))
    assert not inv.failures, inv.failures
    return str(tmp_path / "out")


def _edit_json(path, edit):
    with open(path) as f:
        obj = json.load(f)
    edit(obj)
    with open(path, "w") as f:
        json.dump(obj, f)


def _edit_csv_cell(path, column, value, row=-1):
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _state(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _bal_acc(run_index, value):
    return lambda obj: obj["runs"][run_index].update(final_bal_acc=value)


DOCTORS = {
    "peeled-dlpm": [
        ("final_state.json", lambda p: _edit_json(p, _state("stop_reason", "max_steps"))),
        ("trajectory.csv", lambda p: _edit_csv_cell(p, "gap", "0.002")),
    ],
    "peeled-lpm": [
        ("final_state.json", lambda p: _edit_json(p, _state("stop_reason", "max_steps"))),
        ("probe_summary.csv", lambda p: _edit_csv_cell(p, "mean_cosine", "-0.2")),
    ],
    "regularity": [
        ("summary.json", lambda p: _edit_json(p, lambda o: o["dr_bound"].update(passed=False))),
        ("summary.json", lambda p: _edit_json(p, lambda o: o.pop("dr_bound"))),
    ],
    "train": [
        ("summary.json", lambda p: _edit_json(p, _bal_acc(1, 1.5))),
        ("summary.json", lambda p: _edit_json(p, _bal_acc(0, math.nan))),
        ("summary.json", lambda p: _edit_json(p, _state("runs", []))),
    ],
}


@pytest.mark.parametrize("name", list(DOCTORS))
def test_science_check_fails_on_doctored_payload(tmp_path, name):
    out = _fresh_output(tmp_path, name)
    assert verify(TINY[name], out) == []
    pristine = str(tmp_path / "pristine")
    shutil.copytree(out, pristine)
    for filename, doctor in DOCTORS[name]:
        doctor(os.path.join(out, filename))
        assert verify(TINY[name], out), f"{name}: doctored {filename} passed"
        shutil.copy(os.path.join(pristine, filename), os.path.join(out, filename))
    os.remove(os.path.join(out, DOCTORS[name][0][0]))
    assert verify(TINY[name], out)


def test_payload_check_flags_changed_bytes(tmp_path):
    out = _fresh_output(tmp_path, "regularity")
    good = run.Invocation(0, hashes=payload_hashes(out))
    check = run.PayloadCheck(reference=None)
    check(good)
    assert not good.failures
    _edit_csv_cell(os.path.join(out, "records.csv"), "ratio", "0.5", row=1)
    bad = run.Invocation(0, hashes=payload_hashes(out))
    check(bad)
    assert bad.mismatch and bad.failures
    against_reference = run.Invocation(0, hashes=good.hashes)
    run.PayloadCheck(reference=bad.hashes)(against_reference)
    assert against_reference.mismatch


def test_failed_exit_is_a_failure(tmp_path):
    broken = dataclasses.replace(TINY["regularity"], args=("regularity", "--K", "1", "--d", "2"))
    inv = run.run_child(broken, 0, str(tmp_path))
    assert inv.failures and "exit code 2" in inv.failures[0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref", "cpu_ref", "peak_rss_mb", "setup_s", "work_per_ref"}
    known = set(layer_metrics([], {})) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= known


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "peeled-dlpm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = run.run_workload(TINY["regularity"], 5, 0.1, 0, spec)
    assert result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = capsys.readouterr().out
    assert all(m["name"] in printed for m in spec["end_to_end"])
