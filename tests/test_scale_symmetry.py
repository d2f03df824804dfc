"""Scale as an exact symmetry: multiplying E_H or E_W by a power of 4 is exact in floating point.

Every norm then moves by a power of 2, so a scale-free DR path reproduces the base run's
bits times that power, and CE does so at a fixed logit scale E_H E_W. An absolute constant
put into a DR path (a target or guard without its sqrt(E_H)) breaks the equalities.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.etf import generate_etf, uniform_classifier
from etfnc.peeled import dlpm_problem, optimize
from etfnc.regularity import DIST_GUARD, run_regularity_sweep

STEPS = 60
GAMMA = {"dr": 0.5, "ce": 2.0}
SCALE_FREE = ("cos_before", "ratio", "raw_ratio", "bound", "cos_after")  # of the DR records


def peeled(loss, e_h, e_w, gamma):
    clf = uniform_classifier(generate_etf(8, 5, 1), e_w)
    return optimize(dlpm_problem(clf, [10, 5, 3, 2, 1], e_h, 0), loss, gamma, STEPS)


def sweep(e_h, e_w):
    clf = uniform_classifier(generate_etf(6, 4, 2), e_w)
    # starts 4 DIST_GUARD sqrt(e_h) from h*: a guard without its sqrt(e_h) drops them at small e_h
    deltas = [4 * DIST_GUARD, 0.05, 0.1, 0.5]
    runs = run_regularity_sweep(clf, [("dr", float(np.sqrt(e_h / e_w)))], deltas, 40, 3, e_h)
    return np.concatenate([records for run in runs for records in run])


@cache
def base(loss):
    return peeled(loss, 1.0, 1.0, GAMMA[loss]) if loss != "sweep" else sweep(1.0, 1.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=st.integers(-8, 8), b=st.integers(-8, 8))
def test_power_of_4_scales_are_exact(a, b):
    """DR at (4^a E_H, 4^b E_W, 2^(a-b) gamma), CE at (4^a E_H, 4^-a E_W, 4^a gamma), the sweep."""
    dr, dr0 = peeled("dr", 4.0**a, 4.0**b, 2.0**(a - b) * GAMMA["dr"]), base("dr")
    assert np.array_equal(dr.final.features, 2.0**a * dr0.final.features)
    assert [r.gap for r in dr.records] == [2.0**(a + b) * r.gap for r in dr0.records]
    assert dr0.records[-1].gap < dr0.records[0].gap / 10  # the base run moved

    ce, ce0 = peeled("ce", 4.0**a, 4.0**-a, 4.0**a * GAMMA["ce"]), base("ce")
    assert np.array_equal(ce.final.features, 2.0**a * ce0.final.features)
    assert [r.loss for r in ce.records] == [r.loss for r in ce0.records]

    records, records0 = sweep(4.0**a, 4.0**b), base("sweep")
    assert len(records) == len(records0) > 0
    for name in SCALE_FREE:
        assert np.array_equal(records[name], records0[name]), name
    assert np.array_equal(records["sphere_dev"], 4.0**a * records0["sphere_dev"])
