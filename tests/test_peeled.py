"""Projected gradient descent on the (decoupled) layer-peeled model."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etfnc.etf import generate_etf, scale_classifier, uniform_classifier
from etfnc.losses import NumericDivergence, ce_terms
from etfnc.peeled import (
    PeeledProblem,
    StepRecord,
    Trajectory,
    _gap_targets,
    analytic_optimum,
    dlpm_problem,
    lpm_problem,
    minority_collapse_probe,
    optimize,
)
from etfnc.serialize import table
from oracles import project_ball


def make_dlpm(d=8, K=5, counts=(10, 5, 3, 2, 1), e_h=1.0, e_w=1.0, seed=0, frame_seed=1):
    clf = uniform_classifier(generate_etf(d, K, frame_seed), e_w)
    return dlpm_problem(clf, list(counts), e_h, seed)


class TestProjectBall:
    """The one-vector projection of ``oracles``, the reference of the regularity sweep's."""

    def test_interior_point_unchanged(self):
        v = np.array([0.1, 0.2])
        assert np.array_equal(project_ball(v, 1.0), v)

    def test_radial_scaling(self):
        np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15)

    def test_exact_idempotence(self, rng):
        for _ in range(200):
            v = rng.standard_normal(6) * rng.uniform(0.1, 10)
            e = rng.uniform(0.5, 4.0)
            once = project_ball(v, e)
            twice = project_ball(once, e)
            assert np.array_equal(once, twice)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(float, st.integers(1, 8), elements=st.floats(-1e6, 1e6)),
        st.floats(1e-6, 1e6),
    )
    def test_within_radius_and_idempotent(self, v, E):
        once = project_ball(v, E)
        assert once @ once <= E
        assert np.array_equal(project_ball(once, E), once)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("v,E", [
        ([1e200, 0.0], 1.0), ([-1e155, 1e155, 3.0], 1.0), ([np.nan, 1.0], 1.0),
        ([1e100, 0.0], 1e-300), ([1e5, 0.0], 1e-307),
    ])
    def test_out_of_range_squared_norm_diverges(self, v, E):
        """v @ v is inf or NaN, or E / v @ v underflows: the scale would be 0 or NaN, not v/|v|.

        A subnormal E / v @ v (1e-317) keeps too few bits: the ulp nudges would run ~1.3e8 times.
        """
        with pytest.raises(NumericDivergence, match="no finite projection"):
            project_ball(np.array(v), E)

    def test_zero_vector(self):
        z = np.zeros(3)
        assert np.array_equal(project_ball(z, 2.0), z)

    def test_result_feasible(self, rng):
        for _ in range(100):
            v = rng.standard_normal(4) * 100
            w = project_ball(v, 1.0)
            assert w @ w <= 1.0


def both_builders(d, counts, e_h, feature_seed):
    """A DLPM and an LPM problem on the same sizes and feature seed."""
    clf = uniform_classifier(generate_etf(d, len(counts), 1), 1.0)
    return (dlpm_problem(clf, counts, e_h, feature_seed),
            lpm_problem(d, len(counts), counts, e_h, 1.0, 0, feature_seed))


class TestInitFeatures:
    """The initial features each builder draws from its feature seed."""

    def test_on_sphere(self):
        for prob in both_builders(8, [10, 5, 3, 2, 1], 2.5, 0):
            nsq = np.einsum("ij,ij->i", prob.features, prob.features)
            np.testing.assert_allclose(nsq, 2.5, atol=1e-12)

    def test_deterministic(self):
        for a, b in zip(both_builders(8, [10, 5, 3, 2, 1], 1.0, 9),
                        both_builders(8, [10, 5, 3, 2, 1], 1.0, 9)):
            assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("d,counts,e_h", [(1, [1, 1], 1.0), (6, [5, 3, 1, 1], 2.5),
                                              (32, [40, 7], 0.3)])
    def test_bits_equal_row_by_row_draws(self, d, counts, e_h):
        """One (N, d) array holds the same bits as stacking one fresh draw per row."""
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(sum(counts)):
            h = rng.standard_normal(d)
            h *= np.sqrt(e_h) / np.linalg.norm(h)
            rows.append(h)
        for prob in both_builders(d, counts, e_h, 7):
            assert prob.features.flags.c_contiguous
            assert np.array_equal(prob.features.view(np.int64), np.vstack(rows).view(np.int64))


class TestProblemCounts:
    @pytest.mark.parametrize("counts", [[2, 2], [2, 2, 2, 2, 2], [3, 0, 2, 1], [3, -1, 2, 1],
                                        [10**20, 1, 1, 1], [1, -10**20, 1, 1]])
    def test_dlpm_needs_one_count_per_class(self, counts):
        clf = uniform_classifier(generate_etf(6, 4, 0), 1.0)
        with pytest.raises(ValueError, match=r"class_counts must be K=4 integers >= 1"):
            dlpm_problem(clf, counts, 1.0, 0)

    @pytest.mark.parametrize("counts", [[2**63 - 1, 1, 1, 1], [2**62, 2**62, 1, 1]])
    def test_counts_total_below_2_63(self, counts):
        """Each count fits in int64 but their sum would wrap."""
        clf = uniform_classifier(generate_etf(6, 4, 0), 1.0)
        with pytest.raises(ValueError, match=r"class_counts must total < 2\*\*63"):
            dlpm_problem(clf, counts, 1.0, 0)
        with pytest.raises(ValueError, match=r"class_counts must total < 2\*\*63"):
            lpm_problem(6, 4, counts, 1.0, 1.0, 0, 0)

    @pytest.mark.parametrize("counts", [[2, 2], [2, 0, 2]])
    def test_lpm_needs_one_count_per_class(self, counts):
        with pytest.raises(ValueError, match=r"class_counts must be K=3 integers >= 1"):
            lpm_problem(5, 3, counts, 1.0, 1.0, 0, 0)

    @pytest.mark.parametrize("K", [1, 0])
    def test_lpm_needs_two_classes(self, K):
        with pytest.raises(ValueError, match=f"need at least K=2 classes, got K={K}"):
            lpm_problem(5, K, [4] * max(K, 1), 1.0, 1.0, 0, 0)

    @pytest.mark.parametrize("mode,d,e_h,e_w,message", [
        ("dlpm", 6, -1.0, 1.0, "e_h must be finite and > 0, got -1.0"),
        ("dlpm", 6, np.nan, 1.0, "e_h must be finite and > 0, got nan"),
        ("dlpm", 6, np.inf, 1.0, "e_h must be finite and > 0, got inf"),
        ("lpm", 6, np.nan, 1.0, "e_h must be finite and > 0, got nan"),
        ("lpm", 6, 1.0, 0.0, "e_w must be finite and > 0, got 0.0"),
        ("lpm", 6, 1.0, -1.0, "e_w must be finite and > 0, got -1.0"),
        ("lpm", 6, 1.0, np.inf, "e_w must be finite and > 0, got inf"),
        ("lpm", 0, 1.0, 1.0, "d must be >= 1, got d=0"),
    ])
    def test_bad_sizes_rejected_before_drawing(self, monkeypatch, mode, d, e_h, e_w, message):
        """Each would draw NaN or inf features or columns; no rng is made before the refusal."""
        clf = uniform_classifier(generate_etf(6, 4, 0), 1.0)

        def no_draw(*args, **kwargs):
            raise AssertionError("an array was drawn before the refusal")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(message)):
            if mode == "dlpm":
                dlpm_problem(clf, [2, 2, 2, 2], e_h, 0)
            else:
                lpm_problem(d, 4, [2, 2, 2, 2], e_h, e_w, 0, 0)


class TestAnalyticOptimum:
    def test_dot_products_k4(self):
        clf = uniform_classifier(generate_etf(3, 4, 1), 1.0)
        h_star = analytic_optimum(clf, 1.0)
        dots = h_star.T @ clf.scaled_columns
        np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-10)
        np.testing.assert_allclose(dots[~np.eye(4, dtype=bool)], -1.0 / 3.0, atol=1e-10)

    def test_dot_products_scaled(self):
        clf = uniform_classifier(generate_etf(12, 10, 2), 1.0)
        h_star = analytic_optimum(clf, 4.0)
        dots = h_star.T @ clf.scaled_columns
        np.testing.assert_allclose(np.diag(dots), 2.0, atol=1e-10)
        np.testing.assert_allclose(dots[~np.eye(10, dtype=bool)], -2.0 / 9.0, atol=1e-10)

    def test_norm_squared_is_e_h(self):
        clf = uniform_classifier(generate_etf(5, 4, 0), 3.0)
        h_star = analytic_optimum(clf, 2.0)
        np.testing.assert_allclose(np.einsum("dk,dk->k", h_star, h_star), 2.0, atol=1e-12)

    def test_nonuniform_rejected(self):
        clf = scale_classifier(generate_etf(5, 4, 0), [1.0, 2.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            analytic_optimum(clf, 1.0)


def step0_gap(prob):
    """The optimality gap of ``prob``'s features: ``optimize``'s step-0 record."""
    return optimize(prob, "dr", 0.5, 0).records[0].gap


class TestOptimalityGap:
    def test_zero_at_optimum(self):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = dlpm_problem(clf, [3, 2, 2, 1], 1.0, 0)
        h_star = analytic_optimum(clf, 1.0)
        prob.features = h_star[:, prob.labels].T
        assert step0_gap(prob) < 1e-12

    def test_zero_features_gap_one(self):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = dlpm_problem(clf, [2, 2, 2, 2], 1.0, 0)
        prob.features = np.zeros((8, 6))
        np.testing.assert_allclose(step0_gap(prob), 1.0, atol=1e-12)

    def test_rotation_invariance(self, rng):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = dlpm_problem(clf, [3, 3, 3, 3], 1.0, 5)
        gap = step0_gap(prob)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated_frame = generate_etf(6, 4, 2)
        rotated = PeeledProblem(
            prob.features @ q.T,
            prob.class_counts,
            scale_classifier(
                type(rotated_frame)(6, 4, q @ rotated_frame.columns, 2), np.ones(4)
            ),
            1.0,
            1.0,
        )
        np.testing.assert_allclose(step0_gap(rotated), gap, atol=1e-10)

    def test_learnable_has_no_gap(self):
        prob = lpm_problem(5, 3, [2, 2, 2], 1.0, 1.0, 0, 0)
        assert np.isnan(step0_gap(prob))


class TestOptimizeDlpm:
    def test_ce_converges_to_oracle(self):
        prob = make_dlpm(K=5, d=8, counts=(50, 20, 8, 3, 1))
        traj = optimize(prob, "ce", step_size=0.5, max_steps=2000, stop_tol=1e-4)
        assert traj.stop_reason == "gap"
        assert traj.records[-1].gap < 1e-4

    def test_fixed_point_at_optimum(self):
        clf = uniform_classifier(generate_etf(16, 10, 4), 1.0)
        prob = dlpm_problem(clf, [5] * 10, 1.0, 0)
        h_star = analytic_optimum(clf, 1.0)
        prob.features = h_star[:, prob.labels].T.copy()
        for loss in ("ce", "dr"):
            traj = optimize(prob, loss, step_size=0.5, max_steps=100)
            gaps = [r.gap for r in traj.records]
            assert max(gaps) < 1e-10, loss

    def test_loss_nonincreasing_small_step(self):
        prob = make_dlpm()
        for loss in ("ce", "dr"):
            traj = optimize(prob, loss, step_size=0.01, max_steps=60)
            losses = [r.loss for r in traj.records]
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), loss

    def test_gap_eventually_monotone(self):
        """The optimality gap is non-increasing over the second half of the
        run for both losses, under imbalance."""
        clf = uniform_classifier(generate_etf(12, 6, 2), 1.0)
        for loss, gamma in (("ce", 0.5), ("dr", 256.0)):
            prob = dlpm_problem(clf, [50, 20, 8, 3, 2, 1], 1.0, 3)
            traj = optimize(prob, loss, step_size=gamma, max_steps=600)
            gaps = [r.gap for r in traj.records]
            tail = gaps[len(gaps) // 2 :]
            assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])), loss

    def test_feasibility_after_every_step(self):
        prob = make_dlpm(e_h=2.0)
        traj = optimize(prob, "ce", step_size=1.0, max_steps=50)
        nsq = np.einsum("ij,ij->i", traj.final.features, traj.final.features)
        assert np.all(nsq <= 2.0 + 1e-9)

    def test_divergence_raises_with_step(self):
        prob = make_dlpm()
        prob.features = prob.features.copy()
        prob.features[0, 0] = np.nan
        with pytest.raises(NumericDivergence):
            optimize(prob, "dr", step_size=0.5, max_steps=10)

    @pytest.mark.parametrize("step_size", [0.0, -0.5])
    def test_nonpositive_step_size_rejected(self, step_size):
        with pytest.raises(ValueError, match="step_size must be positive"):
            optimize(make_dlpm(), "dr", step_size, 10)

    @pytest.mark.parametrize("args,message", [
        ((float("nan"), 5), "step_size must be positive and finite, got nan"),
        ((float("inf"), 5), "step_size must be positive and finite, got inf"),
        ((0.5, -3), "max_steps must be >= 0, got -3"),
        ((0.5, 5, float("nan")), "stop_tol must be finite and >= 0, got nan"),
        ((0.5, 5, -1e-3), "stop_tol must be finite and >= 0, got -0.001"),
        ((0.5, 5, float("inf")), "stop_tol must be finite and >= 0, got inf"),
    ])
    def test_bad_arguments_rejected_before_any_step(self, args, message):
        """The CLI refuses these flags first; the library refuses them for every caller."""
        with pytest.raises(ValueError, match=message):
            optimize(make_dlpm(), "dr", *args)

    def test_record_count_bounded(self):
        prob = make_dlpm()
        traj = optimize(prob, "ce", step_size=0.5, max_steps=25)
        assert len(traj.records) <= 26

    def test_input_problem_not_mutated(self):
        lpm = lpm_problem(6, 3, [4, 3, 2], 1.0, 1.0, 0, 1)
        for prob in (make_dlpm(), lpm):
            before = prob.features.copy()
            W_before = prob.classifier_matrix.copy()
            for loss in ("ce", "dr"):
                optimize(prob, loss, step_size=0.5, max_steps=20)
            assert np.array_equal(prob.features, before)
            assert np.array_equal(prob.classifier_matrix, W_before)

    def test_final_features_own_their_memory(self):
        """The loop's work buffers never leak into the input or a second run's result."""
        prob = make_dlpm()
        config = dict(step_size=0.5, max_steps=7)
        a = optimize(prob, "dr", **config).final.features
        b = optimize(prob, "dr", **config).final.features
        assert np.array_equal(a, b)
        for x, y in ((a, b), (a, prob.features), (b, prob.features)):
            assert not np.shares_memory(x, y)
        b[:] = 0.0
        assert np.array_equal(a, optimize(prob, "dr", **config).final.features)


class TestOptimizeLpm:
    def test_balanced_lpm_learns_etf(self):
        """Learned classifier Gram matches the ETF target up to 1e-2."""
        prob = lpm_problem(12, 6, [20] * 6, 1.0, 1.0, 3, 4)
        traj = optimize(prob, "ce", step_size=0.5, max_steps=4000, stop_tol=1e-6)
        W = traj.final.classifier
        Wn = W / np.linalg.norm(W, axis=0, keepdims=True)
        target = 6 / 5 * np.eye(6) - 1 / 5
        assert np.abs(Wn.T @ Wn - target).max() < 1e-2

    def test_minority_collapse_small(self):
        """3 major + 3 minor classes: minor columns merge (cos >> -1/(K-1))."""
        prob = lpm_problem(12, 6, [300, 300, 300, 2, 2, 2], 1.0, 1.0, 1, 2)
        traj = optimize(prob, "ce", step_size=0.5, max_steps=4000, stop_tol=1e-5)
        probe = minority_collapse_probe(traj.final.classifier, [3, 4, 5])
        assert probe.mean_cosine > 0.9  # calibrated: merges to ~1.0

    def test_gap_is_nan_without_oracle(self):
        prob = lpm_problem(6, 3, [4, 4, 4], 1.0, 1.0, 0, 0)
        traj = optimize(prob, "ce", step_size=0.5, max_steps=5)
        header, rows = table(StepRecord, traj.records)
        last = dict(zip(header, rows[-1]))
        assert np.isnan(last["gap"])
        assert last["grad_norm"] > 0
        assert header[4:] == ["mean_dist_0", "mean_dist_1", "mean_dist_2"]
        assert all(np.isnan(last[name]) for name in header[4:])


def _reference_project_rows(X, E):
    nsq = np.einsum("ij,ij->i", X, X)
    over = nsq > E
    if not np.any(over):
        return X
    X = X.copy()
    X[over] *= np.sqrt(E / nsq[over])[:, None]
    return X


def _reference_optimize(problem, loss_kind, step_size, max_steps, stop_tol=0.0):
    """The allocating loop that the buffered ``optimize`` must reproduce bit for bit."""
    X = problem.features.copy()
    labels = problem.labels
    N = X.shape[0]
    fixed = problem.is_fixed_classifier
    Wmat = problem.classifier_matrix.copy()
    gamma = step_size

    if fixed:
        lengths = problem.classifier.lengths
    else:
        lengths = np.full(problem.num_classes, np.sqrt(problem.e_w))
    dr_targets = lengths * np.sqrt(problem.e_h)

    has_oracle = fixed and problem.classifier.is_uniform()
    if has_oracle:
        h_star = analytic_optimum(problem.classifier, problem.e_h)
        gap_targets = _gap_targets(problem.classifier, problem.e_h)

    onehot = np.eye(problem.num_classes)[labels] if not fixed else None

    def loss_terms(rows, y):
        if loss_kind == "ce":
            return ce_terms(rows, y, Wmat)
        dots = np.einsum("ij,ji->i", rows, Wmat[:, y])
        t = dr_targets[y]
        return (dots - t) ** 2 / (2.0 * t), (dots - t) / t

    def snapshot(step, grad_norm, per_sample):
        loss = float(np.mean(per_sample))
        if has_oracle:
            gap = float(np.abs(X @ Wmat - gap_targets[labels]).max())
            dists = np.linalg.norm(X - h_star[:, labels].T, axis=1)
            mean_d = np.array(
                [dists[labels == k].mean() for k in range(problem.num_classes)]
            )
        else:
            gap = float("nan")
            mean_d = np.full(problem.num_classes, np.nan)
        if not np.isfinite([loss, *([gap, *mean_d] if has_oracle else [])]).all():
            raise NumericDivergence(f"loss or distance to the optimum out of range at step {step}")
        return StepRecord(step, loss, gap, grad_norm, mean_d)

    per_sample, aux = loss_terms(X, labels)
    traj = Trajectory()
    traj.records.append(snapshot(0, float("nan"), per_sample))
    stop_reason = "max_steps"

    for t in range(1, max_steps + 1):
        if loss_kind == "ce":
            G = aux @ Wmat.T - Wmat[:, labels].T
        else:
            G = aux[:, None] * Wmat[:, labels].T
        with np.errstate(over="ignore", invalid="ignore"):
            X_new = _reference_project_rows(X - gamma * G, problem.e_h)
        if not fixed:
            dlogits = aux - onehot if loss_kind == "ce" else aux[:, None] * onehot
            Gw = X.T @ dlogits / N
            W_new = _reference_project_rows((Wmat - gamma * Gw).T, problem.e_w).T
        else:
            W_new = Wmat

        if not (np.all(np.isfinite(X_new)) and np.all(np.isfinite(W_new))):
            raise NumericDivergence(f"non-finite values encountered at step {t}")

        disp = np.linalg.norm(X_new - X, axis=1).max()
        if not fixed:
            disp = max(disp, np.linalg.norm(W_new - Wmat, axis=0).max())
        grad_norm = float(disp / gamma)
        X, Wmat = X_new, W_new

        per_sample, aux = loss_terms(X, labels)
        traj.records.append(snapshot(t, grad_norm, per_sample))
        if stop_tol > 0:
            if has_oracle and traj.records[-1].gap < stop_tol:
                stop_reason = "gap"
                break
            if not has_oracle and grad_norm < stop_tol:
                stop_reason = "grad_norm"
                break

    final_classifier = problem.classifier if fixed else Wmat
    traj.final = PeeledProblem(
        X, problem.class_counts, final_classifier, problem.e_h, problem.e_w
    )
    traj.stop_reason = stop_reason
    return traj


@st.composite
def peeled_runs(draw):
    """A DLPM or LPM instance, a loss and the optimizer arguments."""
    K = draw(st.integers(2, 5))
    d = draw(st.integers(K - 1, K + 3))
    counts = draw(st.lists(st.integers(1, 30), min_size=K, max_size=K))
    e_h, e_w = draw(st.sampled_from([1.0, 2.5])), draw(st.sampled_from([1.0, 4.0]))
    if draw(st.sampled_from(["dlpm", "lpm"])) == "dlpm":
        clf = uniform_classifier(generate_etf(d, K, draw(st.integers(0, 99))), e_w)
        prob = dlpm_problem(clf, counts, e_h, draw(st.integers(0, 99)))
    else:
        prob = lpm_problem(d, K, counts, e_h, e_w, draw(st.integers(0, 99)),
                           draw(st.integers(0, 99)))
    loss = draw(st.sampled_from(["ce", "dr"]))
    gamma = draw(st.floats(1e-3, 600.0 if loss == "dr" else 4.0))
    config = dict(step_size=gamma, max_steps=draw(st.integers(0, 60)),
                  stop_tol=draw(st.sampled_from([0.0, 1e-3])))
    return prob, loss, config


def assert_same_run(a, b):
    assert a.stop_reason == b.stop_reason
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        scalars = [ra.step, ra.loss, ra.gap, ra.grad_norm]
        assert np.array_equal(scalars, [rb.step, rb.loss, rb.gap, rb.grad_norm], equal_nan=True)
        assert np.array_equal(ra.mean_dist, rb.mean_dist, equal_nan=True)
    assert np.array_equal(a.final.features, b.final.features)
    assert np.array_equal(a.final.classifier_matrix, b.final.classifier_matrix)


class TestMatchesReference:
    """``optimize`` in fixed buffers gives the allocating loop's bits, record by record."""

    @settings(max_examples=25, deadline=None)
    @given(peeled_runs())
    def test_byte_identical(self, run):
        prob, loss, config = run
        assert_same_run(optimize(prob, loss, **config), _reference_optimize(prob, loss, **config))

    def test_byte_identical_at_workload_scale(self):
        """Many rows per class and d >= 8, where axis-1 sums go pairwise."""
        clf = uniform_classifier(generate_etf(16, 10, 0), 1.0)
        counts = [300, 100, 33, 11, 4, 1, 1, 1, 1, 1]
        for mode, loss, gamma in (("dlpm", "dr", 512.0), ("dlpm", "ce", 0.5), ("lpm", "ce", 0.5)):
            if mode == "dlpm":
                prob = dlpm_problem(clf, counts, 1.0, 1)
            else:
                prob = lpm_problem(16, 10, counts, 1.0, 1.0, 2, 3)
            config = dict(step_size=gamma, max_steps=40)
            assert_same_run(optimize(prob, loss, **config), _reference_optimize(prob, loss, **config))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["dlpm", "lpm"])
    @pytest.mark.parametrize("loss", ["ce", "dr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_divergence_raises_at_same_step(self, mode, loss, bad):
        if mode == "dlpm":
            prob = make_dlpm()
        else:
            prob = lpm_problem(6, 3, [4, 3, 2], 1.0, 1.0, 0, 1)
        prob.features = prob.features.copy()
        prob.features[2, 1] = bad
        config = dict(step_size=0.5, max_steps=10)
        with pytest.raises(NumericDivergence) as expected:
            _reference_optimize(prob, loss, **config)
        with pytest.raises(NumericDivergence, match=f"^{expected.value}$"):
            optimize(prob, loss, **config)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lengths", [None, [1.0, 2.0, 0.5, 3.0, 0.25]])
    @pytest.mark.parametrize("loss", ["ce", "dr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_fixed_classifier_fails_step_0(self, lengths, loss, bad):
        """A fixed classifier never moves: it is checked once, by the step-0 loss, not each step."""
        prob = make_dlpm()
        clf = prob.classifier if lengths is None else scale_classifier(prob.classifier.frame,
                                                                       lengths)
        cols = clf.scaled_columns.copy()
        cols[3, 4] = bad  # class 4 has one sample
        prob.classifier = replace(clf, scaled_columns=cols)
        message = {"ce": "non-finite logits in softmax",
                   "dr": "loss or distance to the optimum out of range at step 0"}[loss]
        with pytest.raises(NumericDivergence, match=f"^{message}$"):
            optimize(prob, loss, step_size=0.5, max_steps=10)


class TestMinorityProbe:
    def test_etf_subset_cosines(self):
        clf = uniform_classifier(generate_etf(12, 10, 0), 1.0)
        probe = minority_collapse_probe(clf.scaled_columns, [2, 5, 7, 9])
        np.testing.assert_allclose(probe.min_cosine, -1 / 9, atol=1e-10)
        np.testing.assert_allclose(probe.mean_cosine, -1 / 9, atol=1e-10)

    def test_identical_columns(self):
        W = np.ones((4, 3))
        probe = minority_collapse_probe(W, [0, 1])
        np.testing.assert_allclose(probe.mean_cosine, 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        W = np.ones((4, 3))
        W[:, 1] = 0
        with pytest.raises(ValueError):
            minority_collapse_probe(W, [0, 1])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            minority_collapse_probe(np.ones((4, 3)), [0])
