"""Payload sums pinned across versions: the benchmark workloads at their reference seed.

Each workload of bench/workloads.py runs through ``etfnc.cli.main`` with
the benchmark's own arguments and its relative ``--out out`` layout, in a
fresh work directory. The sha256 of every payload must equal
bench/reference_payloads.json, the one home of the sums. A change that
moves payloads on purpose re-records them with
``python3 bench/run.py --workload all --write-reference``.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from etfnc.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference_payloads.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_payload_sums_match_reference(tmp_path, monkeypatch, name):
    expected = REFERENCE[name]["payloads"]
    monkeypatch.chdir(tmp_path)
    argv = workloads.WORKLOADS[name].prepare(str(tmp_path), REFERENCE[name]["seed"])
    assert main(argv) == EXIT_OK
    got = workloads.payload_hashes("out")
    moved = [f"{f}: reference {expected.get(f)}, now {got.get(f)}"
             for f in sorted({*expected, *got}) if expected.get(f) != got.get(f)]
    assert not moved, (
        f"{name} payloads differ from bench/reference_payloads.json:\n  " + "\n  ".join(moved)
        + f"\nThe sums may depend on the CPU's BLAS kernel, not only on the code: this host "
        f"runs Python {platform.python_version()}, numpy {np.__version__} on "
        f"{platform.machine()}. Re-record them only for a change that moves payloads on purpose."
    )
