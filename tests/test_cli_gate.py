"""Exit-code gate: mutated flags and train configs never escape ``main``.

Every input must end in exit 0 (ok), 2 (config error), 3 (numeric
divergence) or 4 (failed check); an exception out of ``main`` is a bug.
A command writes nothing itself; ``main`` writes its payloads only after it
returned, so after exit 2 or 3 no ``--out`` directory may exist, for any
command; after exit 0 or 4 every JSON payload must parse as standard JSON
(no NaN or Infinity). A warning is an error, as everywhere in the suite.
Each example redraws a few values of a small valid input, so most
examples still run. Floats range over all finite values, 1e300 and
negatives included, and seeds include -1 (and 2**63 and 10**300 in a train
config); every size (K, d, counts, epochs, steps, trials) stays small
because memory and loops grow with it. In a train config an integer key
also draws true, 2.5 and "3", and a float key true, "1", NaN and
+-Infinity, which ``json.dumps`` writes and ``json.load`` reads back.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from etfnc.trainer import REGIMES

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_CHECK_FAILED}
GATE = settings(max_examples=25, deadline=None)

floats = st.floats(allow_nan=False, allow_infinity=False)
K_VALUES, D_VALUES, SEEDS = st.integers(-1, 5), st.integers(-1, 8), st.integers(-1, 3)


def config_ints(low, high):
    """Integers in [low, high], or a JSON value that is no integer."""
    return st.integers(low, high) | st.sampled_from([True, 2.5, "3"])


config_floats = floats | st.sampled_from([True, "1", math.nan, math.inf, -math.inf])


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


def refuse_constant(name):
    """``json.loads``'s hook for NaN, Infinity and -Infinity, which standard JSON lacks."""
    raise AssertionError(f"a payload holds {name}, which is not JSON")


def check_exit(args):
    """Run ``etfnc *args --out <fresh dir>``, apply the gate's assertions, return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([str(a) for a in args] + ["--out", str(out)])
        assert code in EXIT_CODES
        if code in (EXIT_CONFIG, EXIT_DIVERGED):
            assert not out.exists()
        else:  # NaN and Infinity are not JSON
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=refuse_constant)
        return code


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
                {"num_classes": config_ints(-1, 5), "input_dim": config_ints(-1, 8),
                 "n_max": config_ints(-1, 8), "imbalance_ratio": config_floats,
                 "separation": config_floats, "noise_scale": config_floats,
                 "test_per_class": config_ints(-1, 4)}),
        mutated({"hidden_sizes": [4], "feature_dim": 3},
                {"hidden_sizes": st.lists(config_ints(-1, 4), max_size=2),
                 "feature_dim": config_ints(-1, 8)}),
        mutated({"epochs": 2, "batch_size": 4},
                {"epochs": config_ints(-1, 3), "batch_size": config_ints(-1, 8),
                 "step_size": config_floats,
                 "milestones": st.lists(config_ints(-2, 4), max_size=3),
                 "momentum": config_floats, "e_h": config_floats}),
        st.lists(st.sampled_from(REGIMES), min_size=1, max_size=2),
        st.lists(st.integers(0, 2) | st.sampled_from([2**63, 10**300]), min_size=1, max_size=2),
    )
    def test_train(self, dataset, model, train, regimes, seeds):
        cfg = {"dataset": dataset, "model": model, "train": train,
               "regimes": regimes, "seeds": seeds}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            check_exit(["train", f"--config={path}"])
