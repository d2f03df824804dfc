"""The benchmark's traced functions exist in etfnc.

``bench/tests`` runs outside Tier-1, so a traced function that is deleted
or renamed would leave its span empty without any Tier-1 test noticing.
This test reads ``bench/layers.py`` (without changing it) and resolves
every traced name as the tracer does. The names that no longer resolve
are pinned as an exact set: it may only shrink, as the benchmark is
repaired, and a function that leaves etfnc while still traced fails here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: span names of bench/layers.py whose functions etfnc no longer has
UNRESOLVED = {
    "losses.ce_grad_feature", "losses._batch_probs", "losses.ce_batch_loss",
    "losses.dr_batch_loss", "peeled._feature_grads", "peeled.project_ball",
    "peeled.init_features", "regularity.run_regularity_experiment",
    "regularity.check_offclass_uniformity", "regularity.paired_dominance_summary",
    "metrics.within_class_variability", "metrics.cosine_panels", "metrics.nc4_agreement",
    "batches.FeatureBatch.class_rows", "trainer.evaluate",
}


@pytest.fixture(scope="module")
def layers():
    """bench/layers.py as a module; its ``from tracer import ...`` reads bench/tracer.py.

    No bytecode is written under bench/, and no bench module stays in ``sys.modules``.
    """
    had_tracer, writes = "tracer" in sys.modules, sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = writes
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def resolves(target):
    """True if ``"module:qualname"`` names an attribute of an importable etfnc module."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_unresolved_targets_are_the_pinned_ones(layers):
    unresolved = {name for name, target in layers.TARGETS.items() if not resolves(target)}
    assert unresolved == UNRESOLVED


def test_hooks_name_targets(layers):
    assert set(layers.HOOKS) <= set(layers.TARGETS)
    assert {name for name in layers.HOOKS if name in UNRESOLVED} == {
        "regularity.run_regularity_experiment"}

