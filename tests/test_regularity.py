"""One-step contraction ratios, the DR bound, and the CE/DR ordering."""

import json
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.etf import generate_etf, uniform_classifier
from etfnc.losses import NumericDivergence, dr_grad, softmax_probs
from etfnc.regularity import (
    BOUND_TOL,
    DIST_GUARD,
    DOMINANCE_FRAC,
    RegularityRecord,
    _norm,
    check_sweep,
    dr_eta_bound,
    offclass_deviation,
    pair_dominance,
    run_regularity_sweep,
)
from etfnc.serialize import derive_seed


def make_classifier(d=16, K=10, e_w=1.0, seed=0):
    return uniform_classifier(generate_etf(d, K, seed), e_w)


def dominance(clf, gammas, deltas, trials, seed, e_h=1.0):
    """CE at each of ``gammas`` paired with DR at sqrt(E_H/E_W), as the CLI pairs them."""
    steps = [("dr", float(np.sqrt(e_h / clf.e_w)))] + [("ce", g) for g in gammas]
    runs = [run_regularity_sweep(clf, steps, delta, trials, seed, e_h) for delta in deltas]
    return pair_dominance(steps, deltas, runs)


class TestContractionRatio:
    """The sweep's ``ratio`` field: |h1 - h*|^2 / |h0 - h*|^2."""

    def test_one_step_exact_convergence(self):
        # a step that swamps h0 points along w*_c, and projection lands it on h*
        records = run_regularity_sweep(make_classifier(), [("dr", 1e100)], 0.05, 20, 0)[0]
        assert len(records) == 20
        assert all(r.ratio < 1e-20 for r in records)

    def test_no_progress(self):
        for records in run_regularity_sweep(make_classifier(), [("ce", 0.0), ("dr", 0.0)],
                                            0.05, 20, 0):
            np.testing.assert_allclose([r.ratio for r in records], 1.0)

    def test_ratio_of_squared_distances(self):
        # DR iterates stay on the sphere |h|^2 = E_H, where |h - h*|^2 = 2 E_H (1 - cos)
        for delta in (0.05, 0.1):
            for r in run_regularity_sweep(make_classifier(), [("dr", 0.5)], delta, 50, 6)[0]:
                expected = (1.0 - r.cos_after) / (1.0 - r.cos_before)
                np.testing.assert_allclose(r.ratio, expected, rtol=1e-9)

    def test_at_optimum_signaled(self):
        """A start within DIST_GUARD of h* is excluded: it yields no record."""
        clf = make_classifier()
        assert run_regularity_sweep(clf, [("dr", 1.0)], DIST_GUARD / 10, 20, 0) == [[]]
        assert len(run_regularity_sweep(clf, [("dr", 1.0)], DIST_GUARD * 1e3, 20, 0)[0]) == 20


@st.composite
def norm_vectors(draw):
    """Contiguous 1-D vectors of length 1-64 near one magnitude in 1e-160..1e160.

    About a quarter of the entries are NaN, +-inf or +-0.
    """
    exponent = draw(st.integers(-160, 160))
    entry = st.builds(lambda m, e: m * 10.0 ** (exponent + e),
                      st.floats(-10, 10), st.integers(-3, 3))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    n = draw(st.integers(1, 64))
    values = draw(st.lists(st.one_of(entry, entry, entry, special), min_size=n, max_size=n))
    return np.array(values, dtype=float)


def float_bits(x):
    return np.float64(x).view(np.uint64)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestNorm:
    """_norm is np.linalg.norm's arithmetic without its checks: equal bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(norm_vectors())
    def test_bits_equal_linalg_norm(self, v):
        assert float_bits(_norm(v)) == float_bits(np.linalg.norm(v))

    @pytest.mark.parametrize("v", [
        [1e-160] * 7,            # squares are subnormal
        [3e-170, -2e-165],       # squares underflow to zero
        [1e160, 1.0],            # the square overflows to inf
        [1e154] * 64,            # the sum overflows to inf
        [np.nan, 1.0], [np.inf, -np.inf], [-0.0], [0.0, -0.0],
    ])
    def test_edge_cases(self, v):
        v = np.array(v)
        assert float_bits(_norm(v)) == float_bits(np.linalg.norm(v))


class TestDrEtaBound:
    def test_values(self):
        np.testing.assert_allclose(dr_eta_bound(0.0), 0.5)
        np.testing.assert_allclose(dr_eta_bound(1.0), 1.0)
        np.testing.assert_allclose(dr_eta_bound(-1.0), 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dr_eta_bound(1.5)


class TestOffclassUniformity:
    def test_zero_at_aligned_feature(self):
        clf = make_classifier()
        h = np.sqrt(1.0) * clf.frame.columns[:, 3]
        assert offclass_deviation(softmax_probs(h, clf.scaled_columns), 3) < 1e-12

    def test_small_near_optimum(self):
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("dr", 1.0)], 0.01, 100, 3)[0]
        assert all(r.uniformity_dev < 0.01 for r in records)

    def test_large_for_wrong_alignment(self):
        clf = make_classifier()
        h = clf.frame.columns[:, 1]  # aligned with class 1, evaluated for class 0
        assert offclass_deviation(softmax_probs(h, clf.scaled_columns), 0) > 0.01


class TestDrBound:
    @pytest.mark.parametrize("K,d", [(4, 3), (4, 8), (10, 9), (10, 20)])
    def test_ratio_below_bound(self, K, d):
        clf = make_classifier(d, K)
        gamma = 1.0  # sqrt(E_H / E_W)
        for delta in (0.01, 0.05, 0.1):
            records = run_regularity_sweep(clf, [("dr", gamma)], delta, 200, 11)[0]
            assert records, (K, d, delta)
            worst = max(r.ratio - r.bound for r in records)
            assert worst <= 1e-9, (K, d, delta, worst)

    def test_raw_ratio_equals_bound_on_sphere(self):
        """Pre-projection DR distance at gamma* matches (1+cos)/2 exactly."""
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("dr", 1.0)], 0.05, 200, 5)[0]
        worst = max(abs(r.raw_ratio - r.bound) for r in records)
        assert worst < 1e-12

    def test_sphere_preserved_and_cos_nonnegative(self):
        clf = make_classifier()
        for delta in (0.01, 0.1):
            for r in run_regularity_sweep(clf, [("dr", 1.0)], delta, 200, 7)[0]:
                assert r.sphere_dev <= 1e-9
                assert r.cos_after >= 0.0

    def test_deterministic_per_seed(self):
        clf = make_classifier()
        a = run_regularity_sweep(clf, [("dr", 1.0)], 0.05, 50, 9)[0]
        b = run_regularity_sweep(clf, [("dr", 1.0)], 0.05, 50, 9)[0]
        assert [(r.ratio, r.bound) for r in a] == [(r.ratio, r.bound) for r in b]


class TestStartSampling:
    def test_starts_near_h_star(self):
        clf = make_classifier()
        delta = 0.05
        for r in run_regularity_sweep(clf, [("dr", 1.0)], delta, 100, 1)[0]:
            # distance after re-projection stays within ~delta
            assert 1.0 - r.cos_before <= delta**2  # dist^2 = 2 E_H (1 - cos)

    def test_zero_delta_all_excluded(self):
        clf = make_classifier()
        assert run_regularity_sweep(clf, [("dr", 1.0)], 0.0, 20, 0) == [[]]


class TestPairedDominance:
    def test_raw_dominance_holds(self):
        clf = make_classifier()
        out = dominance(clf, gammas=[0.05, 0.5, 1.0], deltas=[0.01], trials=150, seed=2)
        gated = [c for c in out["configs"] if c.get("raw_dominance_frac") is not None]
        assert gated, "no configuration had gated trials"
        for cfg in gated:
            assert cfg["raw_dominance_frac"] >= 0.99
            assert cfg["mean_ce_raw"] >= cfg["mean_dr_raw"]

    def test_matched_starts(self):
        """CE and DR trials with the same (seed, trial) share the start point."""
        clf = make_classifier()
        ce = run_regularity_sweep(clf, [("ce", 0.5)], 0.05, 40, 13)[0]
        dr = run_regularity_sweep(clf, [("dr", 1.0)], 0.05, 40, 13)[0]
        for a, b in zip(ce, dr):
            assert a.trial == b.trial
            np.testing.assert_allclose(a.cos_before, b.cos_before, atol=1e-15)


class TestInstanceOptimalRate:
    def test_ce_at_instance_rate_tracks_bound(self):
        """At the per-trial minimizing rate, CE's raw ratio sits near the bound.

        Equality with (1+cos)/2 holds only under exact off-class
        uniformity; observed deviations are on the order of the
        uniformity deviation, on either side.
        """
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("ce-opt", None)], 0.01, 100, 4)[0]
        assert records
        for r in records:
            assert abs(r.raw_ratio - r.bound) < 10 * max(r.uniformity_dev, 1e-6)

    def test_instance_optimal_needs_ce(self):
        clf = make_classifier()
        with pytest.raises(ValueError, match="unknown step kind 'dr-opt'"):
            run_regularity_sweep(clf, [("dr-opt", None)], 0.01, 10, 0)


# The sweep as it was before it shared one softmax per trial and took norms as
# sqrt(v . v): frozen here, so the live code is checked against fixed arithmetic.


def reference_sample_start(clf, delta, e_h, rng):
    K = clf.num_classes
    c = int(rng.integers(K))
    h_star = np.sqrt(e_h) * clf.frame.columns[:, c]
    u = rng.standard_normal(clf.dim)
    u -= (u @ h_star) / e_h * h_star
    u /= np.linalg.norm(u)
    h0 = h_star + delta * u
    h0 *= np.sqrt(e_h) / np.linalg.norm(h0)
    return c, h_star, h0


def reference_project_ball(v, E):
    v = np.asarray(v, dtype=float)
    nsq = float(v @ v)
    if nsq <= E:
        return v
    w = v * np.sqrt(E / nsq)
    while float(w @ w) > E:
        w = w * (1.0 - 4.0 * np.finfo(float).eps)
    return w


def reference_uniformity(h, clf, c):
    p = softmax_probs(h, clf.scaled_columns)
    K = clf.num_classes
    resid = (1.0 - p[c]) / (K - 1)
    others = np.arange(K) != c
    return float(np.abs(p[others] - resid).max())


def reference_ce_grad(h, c, W):
    p = softmax_probs(h, W)
    pull = (1.0 - p[c]) * W[:, c]
    others = np.arange(W.shape[1]) != c
    push = -(W[:, others] @ p[others])
    return -(pull + push)


def reference_instance_rate(clf, h, c, e_h):
    K = clf.num_classes
    w = clf.scaled_columns[:, c]
    cos = float(h @ w / (np.linalg.norm(h) * np.linalg.norm(w)))
    p = softmax_probs(h, clf.scaled_columns)
    return (K - 1) / K * np.sqrt(e_h / clf.e_w) * (1.0 - cos) / (1.0 - p[c])


def reference_records(clf, loss_kind, gamma, delta, trials, seed, e_h=1.0):
    """One step per trial, each (step, trial) drawing and evaluating its own start."""
    instance_opt = loss_kind == "ce-opt"
    records = []
    for t in range(trials):
        c, h_star, h0 = reference_sample_start(clf, delta, e_h, np.random.default_rng([seed, t]))
        dist0 = np.linalg.norm(h0 - h_star)
        if dist0 < DIST_GUARD:
            continue
        w = clf.scaled_columns[:, c]
        cos0 = min(float(h0 @ w / (np.linalg.norm(h0) * np.linalg.norm(w))), 1.0)
        g = reference_instance_rate(clf, h0, c, e_h) if instance_opt else float(gamma)
        if loss_kind == "dr":
            grad = dr_grad(h0, clf, c, e_h)
        else:
            grad = reference_ce_grad(h0, c, clf.scaled_columns)
        pre = h0 - g * grad
        h1 = reference_project_ball(pre, e_h)
        records.append(RegularityRecord(
            trial=t,
            loss_kind=loss_kind,
            gamma=g,
            delta=delta,
            class_index=c,
            cos_before=cos0,
            ratio=float(np.linalg.norm(h1 - h_star) ** 2 / dist0**2),
            raw_ratio=float(np.linalg.norm(pre - h_star) ** 2 / dist0**2),
            bound=dr_eta_bound(cos0),
            uniformity_dev=reference_uniformity(h0, clf, c),
            sphere_dev=float(abs(h1 @ h1 - e_h)),
            cos_after=float(h1 @ w / (np.linalg.norm(h1) * np.linalg.norm(w))),
        ))
    return records


def bits(records):
    """Each record's fields, floats as float.hex: equal only bit for bit (0.0 != -0.0)."""
    return [tuple(float(v).hex() if isinstance(v, float) else v
                  for v in astuple(r)) for r in records]


STEPS = [("ce", 0.05), ("dr", 1.0), ("ce", 0.5), ("ce-opt", None), ("ce", 0.5)]


class TestSweep:
    """A multi-step sweep reproduces separate one-step runs exactly."""

    @pytest.mark.parametrize("e_w,e_h", [(1.0, 1.0), (4.0, 1.0), (4.0, 2.0)])
    def test_matches_separate_runs(self, e_w, e_h):
        clf = make_classifier(e_w=e_w)
        steps = STEPS + [("dr", float(np.sqrt(e_h / e_w)))]
        sweep = run_regularity_sweep(clf, steps, 0.05, 40, 13, e_h)
        assert len(sweep) == len(steps)
        for (loss, gamma), records in zip(steps, sweep):
            assert records == run_regularity_sweep(clf, [(loss, gamma)], 0.05, 40, 13, e_h)[0]
            assert bits(records) == bits(reference_records(clf, loss, gamma, 0.05, 40, 13, e_h))

    def test_default_run_matches_frozen_reference_bitwise(self):
        """The CLI's default sweep (7500 records), where rare last-ulp slips show up."""
        clf = uniform_classifier(generate_etf(20, 10, derive_seed(0, "etf")), 1.0)
        steps = [("ce", g) for g in (0.05, 0.1, 0.5, 1.0)] + [("dr", 1.0)]
        for delta in (0.01, 0.05, 0.1):
            sweep = run_regularity_sweep(clf, steps, delta, 500, 0)
            for (loss, gamma), records in zip(steps, sweep):
                assert bits(records) == bits(reference_records(clf, loss, gamma, delta, 500, 0))

    @settings(max_examples=25, deadline=None)
    @given(
        K=st.integers(3, 16),
        d=st.integers(2, 32),
        seed=st.integers(0, 2**16),
        delta=st.sampled_from([0.01, 0.05, 0.1, 0.7]),
        e_h=st.sampled_from([1.0, 0.3, 2.5, 9.0]),
        e_w=st.sampled_from([1.0, 0.05, 4.0, 6.0]),  # logits stay below ~8: p_c < 1
        gammas=st.lists(st.sampled_from([0.0, 0.05, 0.5, 3.0, 1e3]), min_size=1, max_size=3),
    )
    def test_matches_separate_runs_property(self, K, d, seed, delta, e_h, e_w, gammas):
        clf = make_classifier(max(d, K - 1), K, e_w=e_w, seed=seed)
        steps = ([("dr", float(np.sqrt(e_h / clf.e_w)))] + [("ce", g) for g in gammas]
                 + [("ce-opt", None), ("dr", gammas[0])])
        sweep = run_regularity_sweep(clf, steps, delta, 8, seed, e_h)
        for (loss, gamma), records in zip(steps, sweep):
            assert bits(records) == bits(reference_records(clf, loss, gamma, delta, 8, seed, e_h))

    def test_excluded_trials_drop_from_every_step(self):
        clf = make_classifier()
        assert run_regularity_sweep(clf, STEPS, 0.0, 5, 0) == [[] for _ in STEPS]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_start_diverges(self):
        """|h* + delta u| overflows, so the start would rescale to 0 and its cosine to NaN."""
        with pytest.raises(NumericDivergence, match="start of trial 0 at delta=1e\\+300"):
            run_regularity_sweep(make_classifier(), STEPS, 1e300, 5, 0)

    def test_bad_step_rejected_before_trials(self):
        clf = make_classifier()
        with pytest.raises(ValueError, match="unknown step kind 'xx'"):
            run_regularity_sweep(clf, [("ce", 0.1), ("xx", 0.1)], 0.05, 10, 0)
        with pytest.raises(ValueError, match="unknown step kind 'dr-opt'"):
            run_regularity_sweep(clf, [("dr-opt", None)], 0.05, 10, 0)


class TestPairDominance:
    def test_repeated_gammas_and_deltas_paired_by_position(self):
        clf = make_classifier()
        out = dominance(clf, [0.1, 0.1], [0.05, 0.01, 0.05], trials=30, seed=4)
        configs = out["configs"]
        assert [(c["delta"], c["gamma_ce"]) for c in configs] == [
            (0.05, 0.1), (0.05, 0.1), (0.01, 0.1), (0.01, 0.1), (0.05, 0.1), (0.05, 0.1),
        ]
        assert configs[0] == configs[1] == configs[4] == configs[5]

    def test_excluded_trials_not_counted(self):
        clf = make_classifier(d=8, K=4)
        out = dominance(clf, [0.1, 0.5], [1e-13, 0.05], trials=20, seed=0)
        excluded, run = out["configs"][:2], out["configs"][2:]
        for cfg in excluded:
            assert cfg["trials"] == 0 and cfg["gated_trials"] == 0
            assert cfg["note"] == "no trials: every start was excluded at the optimum"
        assert [cfg["trials"] for cfg in run] == [20, 20]
        assert all("note" not in cfg for cfg in run)

    def test_no_records_is_valid_json(self):
        clf = make_classifier()
        out = dominance(clf, [0.1], [0.05], trials=0, seed=0)
        assert out["configs"][0]["dr_max_ratio_minus_bound"] is None
        json.dumps(out, allow_nan=False)

    def test_steps_found_in_any_order(self):
        """The first DR step is the reference; ce-opt steps are not paired."""
        clf = make_classifier()
        steps = [("ce-opt", None), ("ce", 0.5), ("dr", 1.0), ("ce", 0.1), ("dr", 0.5)]
        runs = [run_regularity_sweep(clf, steps, delta, 30, 8) for delta in (0.05, 0.01)]
        assert pair_dominance(steps, [0.05, 0.01], runs) == dominance(clf, [0.5, 0.1],
                                                                      [0.05, 0.01], 30, 8)

    @pytest.mark.parametrize("steps", [[("dr", 1.0)], [("dr", 1.0), ("ce-opt", None)],
                                       [("ce", 0.5)]])
    def test_nothing_to_pair(self, steps):
        clf = make_classifier()
        assert pair_dominance(steps, [0.05], [run_regularity_sweep(clf, steps, 0.05, 5, 0)]) is None


class TestCheckSweep:
    """At delta 0.01 every one of the 100 trials passes the uniformity gate."""

    STEPS = [("dr", 1.0), ("ce", 0.1)]

    def sweep(self):
        return run_regularity_sweep(make_classifier(), self.STEPS, 0.01, 100, 3)

    def doctored(self, at, trials, **values):
        """The sweep with ``values`` set on the records of step ``at`` for ``trials``."""
        run = self.sweep()
        run[at] = [replace(r, **values) if r.trial in trials else r for r in run[at]]
        return check_sweep(self.STEPS, [0.01], [run])

    def test_real_sweep_passes(self):
        clf = make_classifier()
        runs = [run_regularity_sweep(clf, self.STEPS, d, 100, 3) for d in (0.01, 0.05)]
        fields, passed = check_sweep(self.STEPS, [0.01, 0.05], runs)
        assert passed
        assert fields["dr_bound"]["passed"]
        assert fields["dr_bound"]["max_ratio_minus_bound"] <= BOUND_TOL
        assert fields["paired_dominance"] == pair_dominance(self.STEPS, [0.01, 0.05], runs)
        assert fields["paired_dominance"]["configs"][0]["gated_trials"] == 100

    def test_sweep_without_records_fails(self):
        fields, passed = check_sweep(self.STEPS, [0.01], [[[], []]])
        assert not passed
        assert "dr_bound" not in fields

    def test_sweep_without_dr_records_fails(self):
        """CE records alone check neither the bound nor the dominance."""
        steps = [("ce", 0.1), ("ce", 0.5)]
        run = run_regularity_sweep(make_classifier(), steps, 0.01, 100, 3)
        assert all(run)
        assert check_sweep(steps, [0.01], [run]) == ({}, False)

    def test_bound_at_tolerance_passes(self):
        fields, passed = self.doctored(0, {7}, bound=0.0, ratio=BOUND_TOL)
        assert passed
        assert fields["dr_bound"]["max_ratio_minus_bound"] == BOUND_TOL

    def test_bound_violation_fails(self):
        fields, passed = self.doctored(0, {7}, bound=0.0, ratio=float(np.nextafter(BOUND_TOL, 1.0)))
        assert not passed
        assert fields["dr_bound"]["passed"] is False

    def test_dominance_at_fraction_passes(self):
        fields, passed = self.doctored(1, {4}, raw_ratio=0.0)
        assert passed
        assert fields["paired_dominance"]["configs"][0]["raw_dominance_frac"] == DOMINANCE_FRAC

    def test_dominance_below_fraction_fails(self):
        fields, passed = self.doctored(1, {4, 5}, raw_ratio=0.0)
        assert not passed
        assert fields["dr_bound"]["passed"]
        cfg = fields["paired_dominance"]["configs"][0]
        assert cfg["raw_dominance_frac"] < DOMINANCE_FRAC
        assert cfg["mean_ce_raw"] >= cfg["mean_dr_raw"]

    def test_mean_dominance_fails(self):
        """One DR outlier keeps the fraction at DOMINANCE_FRAC but lifts DR's mean over CE's."""
        fields, passed = self.doctored(0, {4}, raw_ratio=1e6)
        assert not passed
        assert fields["dr_bound"]["passed"]
        cfg = fields["paired_dominance"]["configs"][0]
        assert cfg["raw_dominance_frac"] == DOMINANCE_FRAC
        assert cfg["mean_ce_raw"] < cfg["mean_dr_raw"]
