"""Payload sums pinned across versions: the benchmark workloads at their reference seed,
and the CLI paths those workloads do not take.

Each workload of bench/workloads.py runs through ``etfnc.cli.main`` with
the benchmark's own arguments and its relative ``--out out`` layout, in a
fresh work directory. The sha256 of every payload must equal
bench/reference_payloads.json, the one home of the workload sums. A change
that moves payloads on purpose re-records them with
``python3 bench/run.py --workload all --write-reference``, and the sums of
``PINNED`` below by hand.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from etfnc.cli import EXIT_CHECK_FAILED, EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference_payloads.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: name -> (CLI arguments without --out, exit code, sha256 per payload) of the paths
#: the benchmark workloads skip
PINNED = {
    "etf": (  # the gram_report.csv layout
        ("etf", "--d", 16, "--K", 10, "--seed", 0),
        EXIT_OK,
        {
            "frame.csv":
                "74b72ac5d8421386652542f33b9ddf6073892647bf9a9ab23b58b2587c0bcf56",
            "frame.json":
                "2332b154bb5ae1838bcdd8036c6cf905e5e202c7eadb74821d7eb6938c057c45",
            "gram_report.csv":
                "bfb7b7258dca151c6af8b971fe027b60bf6ac2c9d7ae206b243511426e5e88a6",
        },
    ),
    "peeled-dlpm-ce": (  # a small DLPM CE run
        ("peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
         "--counts", "5,3,2,1", "--steps", 50),
        EXIT_OK,
        {
            "final_state.json":
                "c1852e6983134bcb2fedc8e9171fbc0177cd97cca8ca8ae9cabfbb33b86c727f",
            "trajectory.csv":
                "b271cf0c689d5b34aeb0745dc63be74c8fe27922e27d51b5554b662181145fca",
        },
    ),
    "regularity-instance-optimal": (  # ce-opt rates are np.float64
        ("regularity", "--K", 10, "--d", 20, "--trials", 100, "--instance-optimal"),
        EXIT_OK,
        {
            "records.csv":
                "a5db0c9e56ee99f0c92b3d65d7246be4f0df95f7fbd04de58ec5e73091a35d16",
            "summary.json":
                "9c11c29e23d2eed120d3ead0c8e620e5b90d84cee77357c71d94a9ca2b56a8f3",
        },
    ),
    "regularity-two-classes": (  # K = 2, d = 2: the push of each class is one column
        ("regularity", "--K", 2, "--d", 2, "--instance-optimal"),
        EXIT_OK,
        {
            "records.csv":
                "4eb70b62a7e2cae95114e44ba6ef27a4ae8fda54def039e1548786c4cd83d078",
            "summary.json":
                "805049bbf26f599ebd0e5cc5564b325421e051b16d5d98c2d154d78960e85598",
        },
    ),
    "regularity-small-features": (  # E_H = 1e-6 against E_W = 1e6, with ce-opt rates
        ("regularity", "--K", 10, "--d", 20, "--e-h", "1e-6", "--e-w", "1e6",
         "--instance-optimal"),
        EXIT_OK,
        {
            "records.csv":
                "c2def7a02bcb6dd3d2cf3174478143b99fa2dd55cfcbbfb42b1ed6d9efc984d5",
            "summary.json":
                "2d7a64e248b275075f8725fa34a75cd637bf35114df2734582ed21746d29d011",
        },
    ),
    "regularity-wide": (  # K = 16, d = 40: another stride and block shape
        ("regularity", "--K", 16, "--d", 40, "--e-h", "0.3", "--e-w", "6"),
        EXIT_OK,
        {
            "records.csv":
                "ff6aed0d4e2237edb79ead9e282b90d8a373bc50d1798357932289af20b3fbdf",
            "summary.json":
                "82d9483d53c931081b3b70f38e53dcc3d2c3a30f7a37ebac2fa1b615f3440c13",
        },
    ),
    "regularity-all-excluded": (  # every start excluded: a header-only records.csv
        ("regularity", "--deltas", "1e-13", "--trials", 20, "--K", 4, "--d", 8),
        EXIT_CHECK_FAILED,
        {
            "records.csv":
                "e14d7b788e8157fec8307a5b194315cd1124834d44bda4dd06e50690ee5b0848",
            "summary.json":
                "563af60305578a4621701527d71bbfd4128ad74ecbc100a7de08bcbdb9f5c480",
        },
    ),
}


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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_payload_sums(tmp_path, monkeypatch, name):
    argv, code, expected = PINNED[name]
    monkeypatch.chdir(tmp_path)
    assert main([*map(str, argv), "--out", "out"]) == code
    assert workloads.payload_hashes("out") == expected
