"""Exit-code gate: mutated flags and train configs never escape ``main``.

Every input must end in exit 0 (ok), 2 (config error), 3 (numeric
divergence) or 4 (failed check); an exception out of ``main`` is a bug.
A command writes nothing itself; ``main`` writes its payloads only after it
returned, so after exit 2 or 3 no ``--out`` directory may exist, for any
command. Each example redraws a few values of a small valid input, so most
examples still run; ``report`` draws its run directories from one small
``train`` run, aliases and broken copies of it, an ``etf`` run and a
missing path. Floats range over all finite values, 1e300 and
negatives included, and seeds include -1; every size (K, d, counts,
epochs, steps, trials) stays small because memory and loops grow with it.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, REPORT_METRICS,
                       main)
from etfnc.trainer import REGIMES

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_CHECK_FAILED}
GATE = settings(max_examples=25, deadline=None)

floats = st.floats(allow_nan=False, allow_infinity=False)
K_VALUES, D_VALUES, SEEDS = st.integers(-1, 5), st.integers(-1, 8), st.integers(-1, 3)


def csv_list(values):
    return st.lists(values, max_size=5).map(lambda v: ",".join(map(str, v)))


def mutated(base, values, keep=()):
    """``base`` with up to three keys redrawn from ``values``, or dropped unless in ``keep``."""
    keys = st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: values[k] if k in keep else st.none() | values[k] for k in ks})).map(
        lambda new: {k: v for k, v in {**base, **new}.items() if v is not None})


def argv(flags):
    """``--name=value`` arguments; the ``=`` keeps argparse from taking ``-1e+300`` for a flag."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in flags.items()]


def check_exit(args):
    """Run ``etfnc *args --out <fresh dir>``, apply the gate's assertions, return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([str(a) for a in args] + ["--out", str(out)])
        assert code in EXIT_CODES
        if code in (EXIT_CONFIG, EXIT_DIVERGED):
            assert not out.exists()
        return code


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    """A tiny one-seed ``train`` run (``run``) and an ``etf`` run (``etf``), built once."""
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"num_classes": 3, "input_dim": 4, "n_max": 6, "imbalance_ratio": 0.5},
        "model": {"hidden_sizes": [4], "feature_dim": 3}, "train": {"epochs": 2},
        "regimes": ["etf-dr"], "seeds": [0]}))
    assert main(["train", f"--config={cfg}", f"--out={root / 'run'}"]) == EXIT_OK
    assert main(["etf", "--d=3", "--K=4", f"--out={root / 'etf'}"]) == EXIT_OK
    return root


#: a ``report --runs`` entry: a name under ``runs_dir`` (the run, two aliases of it,
#: a non-train run, a missing directory), or a copy of the run whose summary.json
#: has (key, value) set, or the key dropped where value is None
REPORT_ENTRIES = (
    st.sampled_from(["run", "run/", "./run", "etf", "missing"])
    | st.tuples(st.sampled_from(["runs", "regime", "seed", *REPORT_METRICS]),
                st.none() | st.sampled_from(["x", [0], -1, 1e308, True]))
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExitCodeGate:
    @GATE
    @given(mutated({"d": 3, "K": 4},
                   {"d": D_VALUES, "K": K_VALUES, "tol": floats, "seed": SEEDS},
                   keep=("d", "K")))
    def test_etf(self, flags):
        check_exit(["etf", *argv(flags)])

    @GATE
    @given(
        st.sampled_from(["dlpm", "lpm"]), st.sampled_from(["ce", "dr"]),
        mutated({"K": 4, "d": 6, "counts": "5,3,2,1", "steps": 5},
                {"K": K_VALUES, "d": D_VALUES,
                 "counts": csv_list(st.integers(-1, 6)) | st.just("a,b"), "gamma": floats,
                 "steps": st.integers(-1, 6), "stop_tol": floats, "e_h": floats, "e_w": floats,
                 "minor_classes": csv_list(K_VALUES), "seed": SEEDS},
                keep=("K", "d", "counts", "steps")),
    )
    def test_peeled(self, mode, loss, flags):
        check_exit(["peeled", f"--mode={mode}", f"--loss={loss}", *argv(flags)])

    @GATE
    @given(
        st.booleans(),
        mutated({"K": 4, "d": 6, "trials": 3, "gammas": "0.1,1.0", "deltas": "0.05"},
                {"K": K_VALUES, "d": D_VALUES, "trials": st.integers(-1, 4),
                 "gammas": csv_list(floats), "deltas": csv_list(floats), "e_h": floats,
                 "e_w": floats, "seed": SEEDS},
                keep=("K", "d", "trials")),
    )
    def test_regularity(self, instance_optimal, flags):
        check_exit(["regularity", *argv(flags)] + ["--instance-optimal"] * instance_optimal)

    @GATE
    @given(
        mutated({"num_classes": 3, "input_dim": 4, "n_max": 6, "imbalance_ratio": 0.5},
                {"num_classes": K_VALUES, "input_dim": D_VALUES, "n_max": st.integers(-1, 8),
                 "imbalance_ratio": floats, "separation": floats, "noise_scale": floats,
                 "test_per_class": st.integers(-1, 4)}),
        mutated({"hidden_sizes": [4], "feature_dim": 3},
                {"hidden_sizes": st.lists(st.integers(-1, 4), max_size=2),
                 "feature_dim": D_VALUES}),
        mutated({"epochs": 2, "batch_size": 4},
                {"epochs": st.integers(-1, 3), "batch_size": st.integers(-1, 8),
                 "step_size": floats, "milestones": st.lists(st.integers(-2, 4), max_size=3),
                 "momentum": floats, "e_h": floats}),
        st.lists(st.sampled_from(REGIMES), min_size=1, max_size=2),
        st.lists(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_train(self, dataset, model, train, regimes, seeds):
        cfg = {"dataset": dataset, "model": model, "train": train,
               "regimes": regimes, "seeds": seeds}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            check_exit(["train", f"--config={path}"])

    @GATE
    @given(st.lists(REPORT_ENTRIES, min_size=1, max_size=3))
    def test_report(self, runs_dir, entries):
        """Exit 0 or 2 only, and 2 whenever two entries name one directory."""
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for i, entry in enumerate(entries):
                if isinstance(entry, str):
                    runs.append(f"{runs_dir}/{entry}")
                    continue
                (key, value), copy = entry, shutil.copytree(runs_dir / "run", f"{tmp}/copy{i}")
                summary = json.loads(Path(copy, "summary.json").read_text())
                node = summary if key == "runs" else summary["runs"][0]
                if value is None:
                    del node[key]
                else:
                    node[key] = value
                Path(copy, "summary.json").write_text(json.dumps(summary))
                runs.append(copy)
            code = check_exit(["report", "--runs", *runs])
            resolved = [os.path.realpath(run) for run in runs]
        assert code in (EXIT_OK, EXIT_CONFIG)
        if len(set(resolved)) < len(resolved):
            assert code == EXIT_CONFIG
