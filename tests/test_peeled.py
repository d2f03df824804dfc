"""Projected gradient descent on the (decoupled) layer-peeled model."""

import numpy as np
import pytest

from etfnc.etf import generate_etf, scale_classifier, uniform_classifier
from etfnc.losses import NumericDivergence
from etfnc.peeled import (
    OptimizerConfig,
    PeeledProblem,
    analytic_optimum,
    dlpm_problem,
    init_features,
    lpm_problem,
    minority_collapse_probe,
    optimality_gap,
    optimize,
    project_ball,
)


def make_dlpm(d=8, K=5, counts=(10, 5, 3, 2, 1), e_h=1.0, e_w=1.0, seed=0, frame_seed=1):
    clf = uniform_classifier(generate_etf(d, K, frame_seed), e_w)
    return init_features(dlpm_problem(clf, list(counts), e_h), seed)


class TestProjectBall:
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

    def test_zero_vector(self):
        z = np.zeros(3)
        assert np.array_equal(project_ball(z, 2.0), z)

    def test_result_feasible(self, rng):
        for _ in range(100):
            v = rng.standard_normal(4) * 100
            w = project_ball(v, 1.0)
            assert w @ w <= 1.0


class TestInitFeatures:
    def test_on_sphere(self):
        prob = make_dlpm(e_h=2.5)
        nsq = np.einsum("ij,ij->i", prob.features, prob.features)
        np.testing.assert_allclose(nsq, 2.5, atol=1e-12)

    def test_nonneg_cos_initialization(self):
        clf = uniform_classifier(generate_etf(6, 4, 3), 1.0)
        prob = init_features(dlpm_problem(clf, [5, 5, 5, 5], 1.0), 7, nonneg_cos=True)
        for i, k in enumerate(prob.labels):
            assert prob.features[i] @ clf.scaled_columns[:, k] >= 0.0

    def test_deterministic(self):
        a = make_dlpm(seed=9)
        b = make_dlpm(seed=9)
        assert np.array_equal(a.features, b.features)

    def test_lpm_nonneg_cos_rejected(self):
        prob = lpm_problem(6, 3, [4, 4, 4], 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            init_features(prob, 0, nonneg_cos=True)


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


class TestOptimalityGap:
    def test_zero_at_optimum(self):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = dlpm_problem(clf, [3, 2, 2, 1], 1.0)
        h_star = analytic_optimum(clf, 1.0)
        prob.features = h_star[:, prob.labels].T
        assert optimality_gap(prob) < 1e-12

    def test_zero_features_gap_one(self):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = dlpm_problem(clf, [2, 2, 2, 2], 1.0)
        prob.features = np.zeros((8, 6))
        np.testing.assert_allclose(optimality_gap(prob), 1.0, atol=1e-12)

    def test_rotation_invariance(self, rng):
        clf = uniform_classifier(generate_etf(6, 4, 2), 1.0)
        prob = init_features(dlpm_problem(clf, [3, 3, 3, 3], 1.0), 5)
        gap = optimality_gap(prob)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated_frame = generate_etf(6, 4, 2)
        rotated = PeeledProblem(
            prob.features @ q.T,
            prob.labels,
            prob.class_counts,
            scale_classifier(
                type(rotated_frame)(6, 4, q @ rotated_frame.columns, 2), np.ones(4)
            ),
            1.0,
            1.0,
        )
        np.testing.assert_allclose(optimality_gap(rotated), gap, atol=1e-10)

    def test_learnable_rejected(self):
        prob = lpm_problem(5, 3, [2, 2, 2], 1.0, 1.0, 0)
        prob = init_features(prob, 0)
        with pytest.raises(ValueError):
            optimality_gap(prob)


class TestOptimizeDlpm:
    def test_ce_converges_to_oracle(self):
        prob = make_dlpm(K=5, d=8, counts=(50, 20, 8, 3, 1))
        traj = optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=2000, stop_tol=1e-4))
        assert traj.stop_reason == "gap"
        assert traj.records[-1].gap < 1e-4

    def test_fixed_point_at_optimum(self):
        clf = uniform_classifier(generate_etf(16, 10, 4), 1.0)
        prob = dlpm_problem(clf, [5] * 10, 1.0)
        h_star = analytic_optimum(clf, 1.0)
        prob.features = h_star[:, prob.labels].T.copy()
        for loss in ("ce", "dr"):
            traj = optimize(prob, loss, OptimizerConfig(step_size=0.5, max_steps=100))
            gaps = [r.gap for r in traj.records]
            assert max(gaps) < 1e-10, loss

    def test_loss_nonincreasing_small_step(self):
        prob = make_dlpm()
        for loss in ("ce", "dr"):
            traj = optimize(prob, loss, OptimizerConfig(step_size=0.01, max_steps=60))
            losses = [r.loss for r in traj.records]
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), loss

    def test_gap_eventually_monotone(self):
        """The optimality gap is non-increasing over the second half of the
        run for both losses, under imbalance."""
        clf = uniform_classifier(generate_etf(12, 6, 2), 1.0)
        for loss, gamma in (("ce", 0.5), ("dr", 256.0)):
            prob = init_features(dlpm_problem(clf, [50, 20, 8, 3, 2, 1], 1.0), 3)
            traj = optimize(prob, loss, OptimizerConfig(step_size=gamma, max_steps=600))
            gaps = [r.gap for r in traj.records]
            tail = gaps[len(gaps) // 2 :]
            assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])), loss

    def test_feasibility_after_every_step(self):
        prob = make_dlpm(e_h=2.0)
        traj = optimize(prob, "ce", OptimizerConfig(step_size=1.0, max_steps=50))
        nsq = np.einsum("ij,ij->i", traj.final.features, traj.final.features)
        assert np.all(nsq <= 2.0 + 1e-9)

    def test_per_sample_matches_full_batch(self):
        """The DLPM objective is separable, so cyclic == simultaneous."""
        prob = make_dlpm(counts=(4, 3, 2, 1, 1))
        full = optimize(prob, "dr", OptimizerConfig(step_size=1.0, max_steps=300))
        cyc = optimize(prob, "dr", OptimizerConfig(step_size=1.0, max_steps=300, mode="per-sample"))
        np.testing.assert_allclose(full.final.features, cyc.final.features, atol=1e-6)

    def test_divergence_raises_with_step(self):
        prob = make_dlpm()
        prob.features = prob.features.copy()
        prob.features[0, 0] = np.nan
        with pytest.raises(NumericDivergence):
            optimize(prob, "dr", OptimizerConfig(step_size=0.5, max_steps=10))

    def test_record_count_bounded(self):
        prob = make_dlpm()
        traj = optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=25))
        assert len(traj.records) <= 26

    def test_input_problem_not_mutated(self):
        prob = make_dlpm()
        before = prob.features.copy()
        optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=20))
        assert np.array_equal(prob.features, before)


class TestOptimizeLpm:
    def test_balanced_lpm_learns_etf(self):
        """Learned classifier Gram matches the ETF target up to 1e-2."""
        prob = init_features(lpm_problem(12, 6, [20] * 6, 1.0, 1.0, 3), 4)
        traj = optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=4000, stop_tol=1e-6))
        W = traj.final.classifier
        Wn = W / np.linalg.norm(W, axis=0, keepdims=True)
        target = 6 / 5 * np.eye(6) - 1 / 5
        assert np.abs(Wn.T @ Wn - target).max() < 1e-2

    def test_minority_collapse_small(self):
        """3 major + 3 minor classes: minor columns merge (cos >> -1/(K-1))."""
        prob = init_features(lpm_problem(12, 6, [300, 300, 300, 2, 2, 2], 1.0, 1.0, 1), 2)
        traj = optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=4000, stop_tol=1e-5))
        probe = minority_collapse_probe(traj.final.classifier, [3, 4, 5])
        assert probe.mean_cosine > 0.9  # calibrated: merges to ~1.0

    def test_per_sample_mode_rejected(self):
        prob = init_features(lpm_problem(6, 3, [4, 4, 4], 1.0, 1.0, 0), 0)
        with pytest.raises(ValueError):
            optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=5, mode="per-sample"))

    def test_gap_is_nan_without_oracle(self):
        prob = init_features(lpm_problem(6, 3, [4, 4, 4], 1.0, 1.0, 0), 0)
        traj = optimize(prob, "ce", OptimizerConfig(step_size=0.5, max_steps=5))
        assert np.isnan(traj.records[-1].gap)
        assert traj.records[-1].grad_norm > 0


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
