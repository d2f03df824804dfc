"""One-step contraction ratios, the DR bound, and the CE/DR ordering."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.etf import generate_etf, uniform_classifier
from etfnc.losses import NumericDivergence, softmax_probs
from etfnc.regularity import (
    BLOCK_TRIALS,
    BOUND_TOL,
    DIST_GUARD,
    DOMINANCE_FRAC,
    RECORD,
    _NUDGE,
    _class_columns,
    _norm,
    _project_ball_rows,
    _row_dots,
    _squared,
    _squares,
    check_sweep,
    run_regularity_sweep,
)
from etfnc.serialize import derive_seed
from oracles import (
    RegularityRecord,
    check_sweep_records,
    dr_eta_bound,
    offclass_deviation,
    project_ball,
    regularity_sweep_loop,
)


def make_classifier(d=16, K=10, e_w=1.0, seed=0):
    return uniform_classifier(generate_etf(d, K, seed), e_w)


def dominance(clf, gammas, deltas, trials, seed, e_h=1.0):
    """CE at each of ``gammas`` paired with DR at sqrt(E_H/E_W), as the CLI pairs them."""
    steps = [("dr", float(np.sqrt(e_h / clf.e_w)))] + [("ce", g) for g in gammas]
    runs = run_regularity_sweep(clf, steps, deltas, trials, seed, e_h)
    return check_sweep(steps, deltas, runs)[0]["paired_dominance"]


class TestContractionRatio:
    """The sweep's ``ratio`` field: |h1 - h*|^2 / |h0 - h*|^2."""

    def test_one_step_exact_convergence(self):
        # a step that swamps h0 points along w*_c, and projection lands it on h*
        records = run_regularity_sweep(make_classifier(), [("dr", 1e100)], [0.05], 20, 0)[0][0]
        assert len(records) == 20
        assert (records["ratio"] < 1e-20).all()

    def test_no_progress(self):
        for records in run_regularity_sweep(make_classifier(), [("ce", 0.0), ("dr", 0.0)],
                                            [0.05], 20, 0)[0]:
            np.testing.assert_allclose(records["ratio"], 1.0)

    def test_ratio_of_squared_distances(self):
        # DR iterates stay on the sphere |h|^2 = E_H, where |h - h*|^2 = 2 E_H (1 - cos)
        for delta in (0.05, 0.1):
            r = run_regularity_sweep(make_classifier(), [("dr", 0.5)], [delta], 50, 6)[0][0]
            expected = (1.0 - r["cos_after"]) / (1.0 - r["cos_before"])
            np.testing.assert_allclose(r["ratio"], expected, rtol=1e-9)

    def test_at_optimum_signaled(self):
        """A start within DIST_GUARD of h* is excluded: it yields no record."""
        clf = make_classifier()
        assert lengths(run_regularity_sweep(clf, [("dr", 1.0)], [DIST_GUARD / 10], 20, 0)) == [[0]]
        assert len(run_regularity_sweep(clf, [("dr", 1.0)], [DIST_GUARD * 1e3], 20, 0)[0][0]) == 20


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
        records = run_regularity_sweep(clf, [("dr", 1.0)], [0.01], 100, 3)[0][0]
        assert (records["uniformity_dev"] < 0.01).all()

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
            records = run_regularity_sweep(clf, [("dr", gamma)], [delta], 200, 11)[0][0]
            assert len(records), (K, d, delta)
            worst = (records["ratio"] - records["bound"]).max()
            assert worst <= 1e-9, (K, d, delta, worst)

    def test_raw_ratio_equals_bound_on_sphere(self):
        """Pre-projection DR distance at gamma* matches (1+cos)/2 exactly."""
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("dr", 1.0)], [0.05], 200, 5)[0][0]
        worst = np.abs(records["raw_ratio"] - records["bound"]).max()
        assert worst < 1e-12

    def test_sphere_preserved_and_cos_nonnegative(self):
        clf = make_classifier()
        for delta in (0.01, 0.1):
            r = run_regularity_sweep(clf, [("dr", 1.0)], [delta], 200, 7)[0][0]
            assert (r["sphere_dev"] <= 1e-9).all()
            assert (r["cos_after"] >= 0.0).all()

    def test_deterministic_per_seed(self):
        clf = make_classifier()
        a = run_regularity_sweep(clf, [("dr", 1.0)], [0.05], 50, 9)[0][0]
        b = run_regularity_sweep(clf, [("dr", 1.0)], [0.05], 50, 9)[0][0]
        assert bits(a) == bits(b)


class TestStartSampling:
    def test_starts_near_h_star(self):
        clf = make_classifier()
        delta = 0.05
        r = run_regularity_sweep(clf, [("dr", 1.0)], [delta], 100, 1)[0][0]
        # distance after re-projection stays within ~delta
        assert (1.0 - r["cos_before"] <= delta**2).all()  # dist^2 = 2 E_H (1 - cos)

    def test_zero_delta_all_excluded(self):
        clf = make_classifier()
        assert lengths(run_regularity_sweep(clf, [("dr", 1.0)], [0.0], 20, 0)) == [[0]]


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
        ce = run_regularity_sweep(clf, [("ce", 0.5)], [0.05], 40, 13)[0][0]
        dr = run_regularity_sweep(clf, [("dr", 1.0)], [0.05], 40, 13)[0][0]
        np.testing.assert_array_equal(ce["trial"], dr["trial"])
        np.testing.assert_allclose(ce["cos_before"], dr["cos_before"], atol=1e-15)


class TestInstanceOptimalRate:
    def test_ce_at_instance_rate_tracks_bound(self):
        """At the per-trial minimizing rate, CE's raw ratio sits near the bound.

        Equality with (1+cos)/2 holds only under exact off-class
        uniformity; observed deviations are on the order of the
        uniformity deviation, on either side.
        """
        clf = make_classifier()
        records = run_regularity_sweep(clf, [("ce-opt", None)], [0.01], 100, 4)[0][0]
        assert len(records)
        gap = np.abs(records["raw_ratio"] - records["bound"])
        assert (gap < 10 * np.maximum(records["uniformity_dev"], 1e-6)).all()

    def test_instance_optimal_needs_ce(self):
        clf = make_classifier()
        with pytest.raises(ValueError, match="unknown step kind 'dr-opt'"):
            run_regularity_sweep(clf, [("dr-opt", None)], [0.01], 10, 0)


def bits(records):
    """The bytes of a record array, or of the loop oracle's RegularityRecords as a RECORD array.

    Equal only bit for bit, in every field (0.0 != -0.0).
    """
    if isinstance(records, list):
        records = np.array([astuple(r) for r in records], dtype=RECORD)
    return records.tobytes()


def lengths(runs):
    """The record count of every (delta, step) array of a sweep."""
    return [[len(records) for records in run] for run in runs]


STEPS = [("ce", 0.05), ("dr", 1.0), ("ce", 0.5), ("ce-opt", None), ("ce", 0.5)]


class TestSweep:
    """A multi-step sweep reproduces separate one-step runs exactly."""

    @pytest.mark.parametrize("e_w,e_h", [(1.0, 1.0), (4.0, 1.0), (4.0, 2.0)])
    def test_matches_separate_runs(self, e_w, e_h):
        clf = make_classifier(e_w=e_w)
        steps = STEPS + [("dr", float(np.sqrt(e_h / e_w)))]
        [sweep] = run_regularity_sweep(clf, steps, [0.05], 40, 13, e_h)
        assert len(sweep) == len(steps)
        for (loss, gamma), records in zip(steps, sweep):
            assert bits(records) == bits(
                run_regularity_sweep(clf, [(loss, gamma)], [0.05], 40, 13, e_h)[0][0])
            alone = regularity_sweep_loop(clf, [(loss, gamma)], [0.05], 40, 13, e_h)[0][0]
            assert bits(records) == bits(alone)

    @settings(max_examples=25, deadline=None)
    @given(
        K=st.integers(3, 16),
        d=st.integers(2, 32),
        seed=st.integers(0, 2**16),
        deltas=st.lists(st.sampled_from([0.01, 0.05, 0.1, 0.7]), min_size=1, max_size=3),
        e_h=st.sampled_from([1.0, 0.3, 2.5, 9.0]),
        e_w=st.sampled_from([1.0, 0.05, 4.0, 6.0]),  # logits stay below ~8: p_c < 1
        gammas=st.lists(st.sampled_from([0.0, 0.05, 0.5, 3.0, 1e3]), min_size=1, max_size=3),
    )
    def test_matches_separate_runs_property(self, K, d, seed, deltas, e_h, e_w, gammas):
        """A multi-delta sweep equals its one-delta sweeps, and the loop oracle one step
        at a time, bit for bit."""
        clf = make_classifier(max(d, K - 1), K, e_w=e_w, seed=seed)
        steps = ([("dr", float(np.sqrt(e_h / clf.e_w)))] + [("ce", g) for g in gammas]
                 + [("ce-opt", None), ("dr", gammas[0])])
        runs = run_regularity_sweep(clf, steps, deltas, 8, seed, e_h)
        assert len(runs) == len(deltas)
        for delta, sweep in zip(deltas, runs):
            [alone] = run_regularity_sweep(clf, steps, [delta], 8, seed, e_h)
            assert [bits(records) for records in sweep] == [bits(records) for records in alone]
            for (loss, gamma), records in zip(steps, sweep):
                assert bits(records) == bits(
                    regularity_sweep_loop(clf, [(loss, gamma)], [delta], 8, seed, e_h)[0][0])

    def test_one_generator_per_trial(self, monkeypatch):
        """Trial t builds its generator once and draws its class and tangent for every delta."""
        clf, built, default_rng = make_classifier(), [], np.random.default_rng

        def counting_rng(seed):
            built.append(tuple(seed))
            return default_rng(seed)

        monkeypatch.setattr("etfnc.regularity.np.random.default_rng", counting_rng)
        runs = run_regularity_sweep(clf, STEPS, [0.01, 0.05, 0.1], 20, 3)
        assert built == [(3, t) for t in range(20)]
        assert [len(records) for run in runs for records in run] == [20] * 3 * len(STEPS)

    def test_excluded_trials_drop_from_every_step(self):
        clf = make_classifier()
        assert lengths(run_regularity_sweep(clf, STEPS, [0.0], 5, 0)) == [[0] * len(STEPS)]

    def test_overflowing_start_diverges(self):
        """|h* + delta u| overflows, so the start would rescale to 0 and its cosine to NaN."""
        with pytest.raises(NumericDivergence, match="start of trial 0 at delta=1e\\+300"):
            run_regularity_sweep(make_classifier(), STEPS, [1e300], 5, 0)

    def test_underflowing_columns_diverge_before_trials(self):
        """A subnormal E_W: every |w_c|^2 underflows, so cos(h, w_c) would divide by 0."""
        with pytest.raises(NumericDivergence, match="classifier column norms under- or overflow"):
            run_regularity_sweep(make_classifier(e_w=5e-324), STEPS, [0.05], 0, 0)

    def test_bad_step_rejected_before_trials(self):
        clf = make_classifier()
        with pytest.raises(ValueError, match="unknown step kind 'xx'"):
            run_regularity_sweep(clf, [("ce", 0.1), ("xx", 0.1)], [0.05], 10, 0)
        with pytest.raises(ValueError, match="unknown step kind 'dr-opt'"):
            run_regularity_sweep(clf, [("dr-opt", None)], [0.05], 10, 0)

    def test_one_dimension_rejected_before_trials(self):
        """The sphere of d = 1 is two points: a start has no tangent direction to move along."""
        clf = uniform_classifier(generate_etf(1, 2, 0), 1.0)
        with pytest.raises(ValueError, match="regularity experiment needs d >= 2, got d=1"):
            run_regularity_sweep(clf, STEPS, [0.05], 10, 0)


def cli_instance(K=10, d=20, seed=0, e_h=1.0, e_w=1.0, gammas=(0.05, 0.1, 0.5, 1.0),
                 deltas=(0.01, 0.05, 0.1), trials=500, instance_optimal=False):
    """``run_regularity_sweep``'s arguments as ``etfnc regularity`` builds them from its flags."""
    clf = uniform_classifier(generate_etf(d, K, derive_seed(seed, "etf")), e_w)
    steps = ([("ce", g) for g in gammas] + [("dr", float(np.sqrt(e_h / clf.e_w)))]
             + [("ce-opt", None)] * instance_optimal)
    return clf, steps, list(deltas), trials, seed, e_h


def outcome(sweep, *args):
    """The bits of every record array of a sweep, or the type and message of what it raised."""
    try:
        return [[bits(records) for records in run] for run in sweep(*args)]
    except (ValueError, NumericDivergence) as err:
        return type(err), str(err)


def mostly(common, rare):
    """One of ``common`` three times in four, else one of ``rare``."""
    return st.one_of(*[st.sampled_from(common)] * 3, st.sampled_from(rare))


class TestBatchedSweep:
    """The batched sweep equals the one-vector loop of ``oracles``: records bit for bit,
    or the same exception with the same message."""

    @pytest.mark.parametrize("flags", [
        pytest.param({"seed": seed}, id=f"default-seed{seed}") for seed in (0, 1000, 2000, 5000)
    ] + [
        pytest.param({"K": 6, "d": 9, "e_w": 4.0, "instance_optimal": True}, id="K6-ce-opt"),
        pytest.param({"K": 7, "d": 9, "e_h": 2.0, "e_w": 4.0, "instance_optimal": True},
                     id="K7-ce-opt"),
        # logits large enough that the absolute uniformity gate admits tangential pushes
        pytest.param({"K": 11, "d": 10, "e_h": 16.95692372296018, "e_w": 12.268171069137315,
                      "deltas": (0.0006816733169454591,), "gammas": (0.06058149237855077,),
                      "trials": 40, "seed": 7}, id="K11-wide-logits"),
        pytest.param({"K": 3, "d": 2, "e_h": 1e-6, "e_w": 1e6}, id="K3-small-features"),
        pytest.param({"K": 12, "d": 17, "e_h": 1e3, "e_w": 1e-3}, id="K12-large-features"),
        pytest.param({"K": 2, "d": 2}, id="K2"),
        pytest.param({"K": 16, "d": 40, "e_h": 0.3, "e_w": 6.0}, id="K16-d40"),
    ])
    def test_matches_loop_bitwise(self, flags):
        args = cli_instance(**flags)
        got = outcome(run_regularity_sweep, *args)
        assert isinstance(got, list)
        assert got == outcome(regularity_sweep_loop, *args)

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(2, 12),
        d=st.integers(2, 24),
        seed=st.integers(0, 2**16),
        trials=st.integers(0, 2 * BLOCK_TRIALS + 3),
        # 1e-13 excludes every start; the last two overflow |h* + delta u|
        deltas=st.lists(mostly([0.01, 0.05, 0.7], [1e-13, 1.3407807929942596e154, 1e300]),
                        min_size=1, max_size=3),
        # they overflow the raw ratio, its mean, the projection or the step
        gammas=st.lists(mostly([0.05, 0.5, 3.0, 1e3], [1e152, 1e153, 1e300, 1e308]),
                        min_size=1, max_size=3),
        # 1e4 saturates the logits, so p_c rounds to 1; 1e-310 and below are subnormal
        e_h=mostly([1.0, 0.3, 1e4, 1e-6], [1e300, 1e-307, 1e-310, 1e-320, 5e-324]),
        e_w=mostly([1.0, 4.0, 1e-4, 1e4], [1e300, 5e-324]),
        instance_optimal=st.booleans(),
    )
    def test_matches_loop_property(self, K, d, seed, trials, deltas, gammas, e_h, e_w,
                                   instance_optimal):
        args = cli_instance(K, max(d, K - 1), seed, e_h, e_w, gammas, deltas, trials,
                            instance_optimal)
        assert outcome(run_regularity_sweep, *args) == outcome(regularity_sweep_loop, *args)

    def test_non_finite_step_names_trial_delta_and_step(self):
        """CE's gradient is about |w_c| = 100: a rate of 1e308 steps past float range."""
        clf = make_classifier(d=6, K=4, e_w=1e4)
        steps = [("dr", 1.0), ("ce", 1e308)]
        message = r"^non-finite step in trial 0 at delta=0\.01, step \(ce, 1e\+308\)$"
        with pytest.raises(NumericDivergence, match=message):
            run_regularity_sweep(clf, steps, [0.01, 0.05], 5, 0, e_h=1e-4)


class TestStackedMatmul:
    """The dispatch rule the batched sweep's bits rest on, compared as int64 bit patterns.

    A stacked np.matmul computes each item with the BLAS call that the
    one-vector form makes, so a numpy or BLAS change that breaks this fails
    here by name.
    """

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.K, self.d, self.n = 10, 20, 300
        self.W = rng.standard_normal((self.d, self.K))
        self.H = rng.standard_normal((self.n, self.d))
        self.classes = rng.integers(self.K, size=self.n)

    @staticmethod
    def assert_bits_equal(got, expected):
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(expected).view(np.int64))

    def test_row_dots_equal_contiguous_dot(self):
        G = self.H[::-1].copy()
        self.assert_bits_equal(_row_dots(self.H, G), [h.dot(g) for h, g in zip(self.H, G)])

    @pytest.mark.parametrize("n", [300, 1])
    def test_row_dots_equal_strided_dot(self, n):
        """Rows with the column's non-unit stride sum as h.dot(W[:, c]) does, one row too."""
        H, classes = self.H[:n], self.classes[:n]
        cols = _class_columns(self.W, classes)
        assert cols.strides[1] != cols.itemsize
        self.assert_bits_equal(_row_dots(H, cols),
                               [h.dot(self.W[:, c]) for h, c in zip(H, classes)])

    def test_stacked_softmax_equals_per_row(self):
        P = softmax_probs(self.H[:, None, :], self.W)[:, 0, :]
        self.assert_bits_equal(P, [softmax_probs(h, self.W) for h in self.H])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("top", [1.34e154, 1.36e154])  # the second squares past float range
    def test_float_squares_equal_scalar_pow(self, top):
        """A Python float's ** 2 calls np.float64's C pow; past ~1.3e154 _squares takes that."""
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(math.log(5e-324), math.log(top), 20000))
        x[:2] = 5e-324, top
        got = _squares(x)
        self.assert_bits_equal(got, [_squared(v) for v in x])
        assert np.isinf(got).any() == (top > 1.35e154)

    def test_broadcast_gemv_equals_per_vector(self):
        P = softmax_probs(self.H[:, None, :], self.W)[:, 0, :]
        for k in range(self.K):
            others = np.arange(self.K) != k
            block = np.ascontiguousarray(P[self.classes == k][:, others])
            got = np.matmul(self.W[:, others], block[:, :, None])[:, :, 0]
            self.assert_bits_equal(got, [self.W[:, others] @ p for p in block])


def projected_or_none(v, e_h):
    """``oracles.project_ball(v, e_h)``, or None where it raises."""
    try:
        return project_ball(v, e_h)
    except NumericDivergence:
        return None


@st.composite
def ball_rows(draw):
    """(rows, e_h): C-contiguous rows inside the ball |x|^2 <= e_h, at its sphere, outside it,
    and so far outside that |v|^2 overflows or e_h / |v|^2 is subnormal or 0."""
    e_h = draw(mostly([1.0, 0.3, 9.0, 1e-300], [2.3e-308, 1e-150, 1e150, 1e300]))
    n, d = draw(st.integers(1, 24)), draw(st.integers(1, 64))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    rows /= np.sqrt(_row_dots(rows, rows))[:, None]
    # log10 |v| / sqrt(e_h): inside, on, outside, and past 153.8, where e_h / |v|^2 is subnormal
    exponents = draw(st.lists(st.one_of(st.floats(-3, 0), st.just(0.0), st.floats(0, 3),
                                        st.floats(150, 170)), min_size=n, max_size=n))
    ulps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    with np.errstate(all="ignore"):
        lengths = [math.sqrt(e_h) * 10.0**x * (1.0 + k * np.finfo(float).eps)
                   for x, k in zip(exponents, ulps)]
        rows *= np.array(lengths)[:, None]
    return rows, e_h


class TestProjectBallRows:
    """``_project_ball_rows`` is the one-vector ``oracles.project_ball`` row by row.

    A projected row has the oracle's bits, compared as int64 bit patterns,
    and a row fails, left as it was, exactly where the oracle raises. Both
    run under the sweep's ``np.errstate(all="ignore")``.
    """

    @staticmethod
    def kinds(rows, e_h):
        """Check the kernel against the oracle on rows; the kind of each row's projection."""
        pre, kinds = rows.copy(), []
        with np.errstate(all="ignore"):
            nsq, failed = _project_ball_rows(pre, e_h)
            for v, got, n_sq, fail in zip(rows, pre, nsq, failed):
                want = projected_or_none(v, e_h)
                assert float_bits(n_sq) == float_bits(v.dot(v))
                assert fail == (want is None)
                np.testing.assert_array_equal(got.view(np.int64),
                                              (v if fail else want).view(np.int64))
                scaled = v * math.sqrt(e_h / n_sq)
                kinds.append("inside" if n_sq <= e_h else "failed" if fail
                             else "scaled" if np.array_equal(got, scaled)
                             else "one nudge" if np.array_equal(got, scaled * _NUDGE)
                             else "nudges")
        return kinds

    @settings(max_examples=150, deadline=None)
    @given(ball_rows())
    def test_matches_oracle_row_by_row(self, drawn):
        self.kinds(*drawn)

    @pytest.mark.parametrize("e_h,d,lengths,expected", [
        # unit-scale rows: about a quarter of the scaled ones round outside and take one nudge
        (1.0, 8, [0.5] * 50 + [3.0] * 200, {"inside", "scaled", "one nudge"}),
        # near the normal floor the squares of 1000 entries are subnormal: up to 5 nudges
        (2.3e-308, 1000, [3.0] * 200, {"scaled", "one nudge", "nudges"}),
        # |v|^2 overflows; e_h / |v|^2 is subnormal (1e-310: too few bits for the nudges to end)
        # or 0 (1e-330)
        (1e-300, 6, [1e305, 1e155, 1e165], {"failed"}),
    ])
    def test_covers_every_path(self, e_h, d, lengths, expected):
        """Seeded rows that reach each path of the kernel: inside, scaled, nudged and failed.

        ``lengths`` are |v| / sqrt(e_h).
        """
        rows = np.random.default_rng(11).standard_normal((len(lengths), d))
        rows *= (np.array(lengths) * math.sqrt(e_h) / np.sqrt(_row_dots(rows, rows)))[:, None]
        assert set(self.kinds(rows, e_h)) == expected


class TestPairDominance:
    """The ``paired_dominance`` block of ``check_sweep``."""

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
        runs = run_regularity_sweep(clf, steps, [0.05, 0.01], 30, 8)
        assert check_sweep(steps, [0.05, 0.01], runs)[0]["paired_dominance"] == dominance(
            clf, [0.5, 0.1], [0.05, 0.01], 30, 8)

    @pytest.mark.parametrize("steps", [[("dr", 1.0)], [("dr", 1.0), ("ce-opt", None)],
                                       [("ce", 0.5)]])
    def test_nothing_to_pair(self, steps):
        clf = make_classifier()
        fields, _ = check_sweep(steps, [0.05], run_regularity_sweep(clf, steps, [0.05], 5, 0))
        assert "paired_dominance" not in fields


#: a synthetic record's float fields draw from these: signed zeros, the least subnormal,
#: values on either side of UNIFORMITY_GATE, and 1e308, two of which overflow a mean
FIELD_VALUES = [0.0, -0.0, 5e-324, 1e-4, 1e-3, 0.5, 1.0, 1.5, 1e308]


@st.composite
def synthetic_sweeps(draw):
    """(steps, deltas, runs) shaped as ``run_regularity_sweep`` returns them, with drawn values.

    Every step of a delta holds the same trials, 0 to 10000 of them. Each float
    field draws from its own few of FIELD_VALUES, or from the signed zeros.
    """
    kinds = draw(st.lists(st.sampled_from(["ce", "dr", "ce-opt"]), max_size=2))
    kinds += draw(st.sampled_from([["dr", "ce"], ["ce", "dr"], ["ce", "ce-opt", "dr"],
                                   ["dr"], ["ce"]]))
    steps = [(kind, None if kind == "ce-opt" else draw(st.sampled_from([0.05, 0.5, 1.0])))
             for kind in kinds]
    deltas = draw(st.lists(st.sampled_from([0.01, 0.05, 0.1]), min_size=1, max_size=3))
    floats = [name for name in RECORD.names if RECORD[name] == np.float64 and name != "delta"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a max or min over signed zeros alone keeps the first read
    pools = {name: [0.0, -0.0] if rng.random() < 0.3 else
             rng.choice(FIELD_VALUES, size=rng.integers(1, 4)) for name in floats}
    runs = []
    for delta in deltas:
        n = draw(st.one_of(st.integers(0, 9), st.sampled_from([0, 300, 10000])))
        run = []
        for kind, gamma in steps:
            records = np.zeros(n, RECORD)
            records["trial"], records["loss_kind"], records["delta"] = np.arange(n), kind, delta
            records["class_index"] = rng.integers(10, size=n)
            for name in floats:
                records[name] = rng.choice(pools[name], size=n)
            run.append(records)
        runs.append(run)
    return steps, deltas, runs


def verdict(check, *args):
    """The repr of ``check(*args)``, or the message of the NumericDivergence it raised."""
    try:
        return repr(check(*args))
    except NumericDivergence as err:
        return f"NumericDivergence: {err}"


class TestCheckSweep:
    """At delta 0.01 every one of the 100 trials passes the uniformity gate."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(synthetic_sweeps())
    def test_matches_per_record_oracle(self, sweep):
        """Column reductions give the per-record oracle's fields and verdict exactly: equal
        reprs, so 0.0 and -0.0, float and int all count; or they raise its message."""
        steps, deltas, runs = sweep
        records = [[[RegularityRecord(*row) for row in a.tolist()] for a in run] for run in runs]
        assert verdict(check_sweep, steps, deltas, runs) == verdict(
            check_sweep_records, steps, deltas, records)

    STEPS = [("dr", 1.0), ("ce", 0.1)]

    def sweep(self):
        return run_regularity_sweep(make_classifier(), self.STEPS, [0.01], 100, 3)[0]

    def doctored(self, at, trials, **values):
        """The sweep with ``values`` set on the records of step ``at`` for ``trials``."""
        run = self.sweep()
        doctored = np.isin(run[at]["trial"], list(trials))
        for name, value in values.items():
            run[at][name][doctored] = value
        return check_sweep(self.STEPS, [0.01], [run])

    def test_real_sweep_passes(self):
        clf = make_classifier()
        runs = run_regularity_sweep(clf, self.STEPS, [0.01, 0.05], 100, 3)
        fields, passed = check_sweep(self.STEPS, [0.01, 0.05], runs)
        assert passed
        assert fields["dr_bound"]["passed"]
        assert fields["dr_bound"]["max_ratio_minus_bound"] <= BOUND_TOL
        assert fields["paired_dominance"]["configs"][0]["gated_trials"] == 100

    def test_sweep_without_records_fails(self):
        fields, passed = check_sweep(self.STEPS, [0.01], [[np.empty(0, RECORD)] * 2])
        assert not passed
        assert "dr_bound" not in fields

    def test_sweep_without_dr_records_fails(self):
        """CE records alone check neither the bound nor the dominance."""
        steps = [("ce", 0.1), ("ce", 0.5)]
        run = run_regularity_sweep(make_classifier(), steps, [0.01], 100, 3)[0]
        assert all(map(len, run))
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
