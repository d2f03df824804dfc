"""One-step contraction ratios, the DR bound, and the CE/DR ordering."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.etf import generate_etf, uniform_classifier
from etfnc.losses import NumericDivergence, ce_grad_feature, dr_grad
from etfnc.peeled import project_ball
from etfnc.regularity import (
    BOUND_TOL,
    DIST_GUARD,
    DOMINANCE_FRAC,
    RegularityRecord,
    _sample_start,
    ce_instance_rate,
    check_offclass_uniformity,
    check_sweep,
    dr_eta_bound,
    pair_dominance,
    run_regularity_sweep,
)


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
        assert check_offclass_uniformity(h, clf, 3) < 1e-12

    def test_small_near_optimum(self):
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("dr", 1.0)], 0.01, 100, 3)[0]
        assert all(r.uniformity_dev < 0.01 for r in records)

    def test_large_for_wrong_alignment(self):
        clf = make_classifier()
        h = clf.frame.columns[:, 1]  # aligned with class 1, evaluated for class 0
        assert check_offclass_uniformity(h, clf, 0) > 0.01


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
        records = run_regularity_sweep(clf, [("ce", "instance-optimal")], 0.01, 100, 4)[0]
        assert records
        for r in records:
            assert abs(r.raw_ratio - r.bound) < 10 * max(r.uniformity_dev, 1e-6)

    def test_instance_optimal_needs_ce(self):
        clf = make_classifier()
        with pytest.raises(ValueError):
            run_regularity_sweep(clf, [("dr", "instance-optimal")], 0.01, 10, 0)


def reference_records(clf, loss_kind, gamma, delta, trials, seed, e_h=1.0):
    """One step per trial, each (step, trial) drawing and evaluating its own start."""
    instance_opt = gamma == "instance-optimal"
    records = []
    for t in range(trials):
        c, h_star, h0 = _sample_start(clf, delta, e_h, np.random.default_rng([seed, t]))
        dist0 = np.linalg.norm(h0 - h_star)
        if dist0 < DIST_GUARD:
            continue
        w = clf.scaled_columns[:, c]
        cos0 = float(h0 @ w / (np.linalg.norm(h0) * np.linalg.norm(w)))
        g = ce_instance_rate(clf, h0, c, e_h) if instance_opt else float(gamma)
        if loss_kind == "ce":
            grad = ce_grad_feature(h0, c, clf.scaled_columns)
        else:
            grad = dr_grad(h0, clf, c, e_h)
        pre = h0 - g * grad
        h1 = project_ball(pre, e_h)
        records.append(RegularityRecord(
            trial=t,
            loss_kind=loss_kind + ("-opt" if instance_opt else ""),
            gamma=g,
            delta=delta,
            class_index=c,
            cos_before=cos0,
            ratio=float(np.linalg.norm(h1 - h_star) ** 2 / dist0**2),
            raw_ratio=float(np.linalg.norm(pre - h_star) ** 2 / dist0**2),
            bound=dr_eta_bound(cos0),
            uniformity_dev=check_offclass_uniformity(h0, clf, c),
            sphere_dev=float(abs(h1 @ h1 - e_h)),
            cos_after=float(h1 @ w / (np.linalg.norm(h1) * np.linalg.norm(w))),
        ))
    return records


STEPS = [("ce", 0.05), ("dr", 1.0), ("ce", 0.5), ("ce", "instance-optimal"), ("ce", 0.5)]


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
            assert records == reference_records(clf, loss, gamma, 0.05, 40, 13, e_h)

    @settings(max_examples=15, deadline=None)
    @given(
        K=st.integers(3, 8),
        extra_d=st.integers(-1, 5),
        seed=st.integers(0, 2**16),
        delta=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_matches_separate_runs_property(self, K, extra_d, seed, delta):
        clf = make_classifier(K + extra_d, K, seed=seed)
        sweep = run_regularity_sweep(clf, STEPS, delta, 8, seed)
        for (loss, gamma), records in zip(STEPS, sweep):
            assert records == reference_records(clf, loss, gamma, delta, 8, seed)

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
        with pytest.raises(ValueError, match="unknown loss kind"):
            run_regularity_sweep(clf, [("ce", 0.1), ("xx", 0.1)], 0.05, 10, 0)
        with pytest.raises(ValueError, match="instance-optimal"):
            run_regularity_sweep(clf, [("dr", "instance-optimal")], 0.05, 10, 0)


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
        """The first DR step is the reference; instance-optimal CE steps are not paired."""
        clf = make_classifier()
        steps = [("ce", "instance-optimal"), ("ce", 0.5), ("dr", 1.0), ("ce", 0.1), ("dr", 0.5)]
        runs = [run_regularity_sweep(clf, steps, delta, 30, 8) for delta in (0.05, 0.01)]
        assert pair_dominance(steps, [0.05, 0.01], runs) == dominance(clf, [0.5, 0.1],
                                                                      [0.05, 0.01], 30, 8)

    @pytest.mark.parametrize("steps", [[("dr", 1.0)], [("dr", 1.0), ("ce", "instance-optimal")],
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
