"""Loss values, exact gradients vs finite differences, pull/push splits."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import central_diff, rel_error
from etfnc.batches import FeatureBatch
from etfnc.etf import generate_etf, scale_classifier, uniform_classifier
from etfnc.losses import (
    NumericDivergence,
    ce_grad_classifier,
    ce_grad_feature,
    ce_loss,
    ce_terms,
    decompose_pull_push_classifier,
    decompose_pull_push_feature,
    dr_grad,
    dr_loss,
    dr_terms,
    softmax_probs,
)


def etf_matrix(d, K, seed=1, e_w=1.0):
    return uniform_classifier(generate_etf(d, K, seed), e_w).scaled_columns


class TestSoftmax:
    def test_uniform_under_equal_logits(self):
        W = etf_matrix(6, 5)
        p = softmax_probs(np.zeros(6), W)
        np.testing.assert_allclose(p, 0.2, atol=1e-12)

    def test_no_overflow_on_huge_logits(self):
        W = np.eye(3)
        p = softmax_probs(np.array([1000.0, 0.0, 0.0]), W)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p[0], 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        # columns differ only along u, so any v orthogonal to u shifts all
        # logits by the same constant
        u = np.array([1.0, 0.0, 0.0])
        base = np.array([0.0, 0.3, -0.2])
        W = np.stack([a * u + base for a in (0.5, -0.1, 1.3, 0.0)], axis=1)
        h = rng.standard_normal(3)
        v = np.array([0.0, 2.0, -1.0])
        np.testing.assert_allclose(
            softmax_probs(h, W), softmax_probs(h + v, W), atol=1e-12
        )

    def test_sums_to_one(self, rng):
        for _ in range(20):
            W = rng.standard_normal((8, 5))
            p = softmax_probs(rng.standard_normal(8), W)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            softmax_probs(np.array([np.inf, 0.0]), np.eye(2))


class TestCeLoss:
    def test_equal_logits_log_k(self):
        W = etf_matrix(12, 10)
        np.testing.assert_allclose(ce_loss(np.zeros(12), 3, W), np.log(10), atol=1e-12)

    def test_monotone_to_zero_along_own_column(self):
        W = etf_matrix(6, 4)
        losses = [ce_loss(t * W[:, 2], 2, W) for t in (1.0, 5.0, 20.0, 80.0)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-8

    def test_against_extended_precision_oracle(self, rng):
        """Brute-force log-sum-exp with 50-digit accumulation."""
        mpmath.mp.dps = 50
        for _ in range(25):
            d, K = 7, 6
            W = rng.standard_normal((d, K)) * 3
            h = rng.standard_normal(d) * 3
            c = int(rng.integers(K))
            logits = [mpmath.fsum(mpmath.mpf(h[i]) * mpmath.mpf(W[i, k]) for i in range(d)) for k in range(K)]
            oracle = mpmath.log(mpmath.fsum(mpmath.e**l for l in logits)) - logits[c]
            assert abs(ce_loss(h, c, W) - float(oracle)) < 1e-12


class TestCeGradFeature:
    def test_equal_logits_closed_form(self):
        W = etf_matrix(6, 5)
        g = ce_grad_feature(np.zeros(6), 1, W)
        K = 5
        expected = -(1 - 1 / K) * W[:, 1] + (1 / K) * W[:, [0, 2, 3, 4]].sum(axis=1)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_finite_difference_oracle(self, rng):
        for _ in range(10):
            W = rng.standard_normal((8, 5))
            h = rng.standard_normal(8)
            c = int(rng.integers(5))
            fd = central_diff(lambda x: ce_loss(x, c, W), h)
            assert rel_error(ce_grad_feature(h, c, W), fd) < 1e-6

    def test_parallel_to_own_column_at_optimum_direction(self):
        W = etf_matrix(6, 4, e_w=1.0)
        h = np.sqrt(1.0 / 1.0) * W[:, 2]
        g = ce_grad_feature(h, 2, W)
        cos = g @ W[:, 2] / (np.linalg.norm(g) * np.linalg.norm(W[:, 2]))
        np.testing.assert_allclose(abs(cos), 1.0, atol=1e-10)


class TestCeGradClassifier:
    def test_single_sample_equal_logits(self):
        W = etf_matrix(6, 5)
        h = np.zeros(6)
        batch = FeatureBatch(h[None, :], np.array([2]), 5)
        g = ce_grad_classifier(batch, W, 2)
        np.testing.assert_allclose(g, -(1 - 1 / 5) * h, atol=1e-12)
        # nonzero feature, logits all zero needs h orthogonal to all columns;
        # use d > K so such a vector exists
        W2 = etf_matrix(8, 3, seed=5)
        q, _ = np.linalg.qr(np.hstack([W2, np.eye(8)[:, :1]]))
        h2 = q[:, 3]  # orthogonal to the three columns
        batch2 = FeatureBatch(h2[None, :], np.array([1]), 3)
        np.testing.assert_allclose(
            ce_grad_classifier(batch2, W2, 1), -(1 - 1 / 3) * h2, atol=1e-10
        )

    def test_finite_difference_oracle(self, rng):
        d, K, N = 4, 3, 12
        feats = rng.standard_normal((N, d))
        labels = rng.integers(K, size=N)
        batch = FeatureBatch(feats, labels, K)
        W = rng.standard_normal((d, K))
        for k in range(K):
            def total_loss(col):
                Wp = W.copy()
                Wp[:, k] = col
                return sum(ce_loss(feats[i], labels[i], Wp) for i in range(N))

            fd = central_diff(total_loss, W[:, k])
            assert rel_error(ce_grad_classifier(batch, W, k), fd) < 1e-6

    def test_absent_class_gives_pure_push(self, rng):
        d, K = 5, 3
        feats = rng.standard_normal((40, d))
        labels = np.repeat([0, 1], 20)
        batch = FeatureBatch(feats, labels, K)
        W = rng.standard_normal((d, K))
        pp = decompose_pull_push_classifier(batch, W, 2)
        assert np.all(pp.pull == 0)
        np.testing.assert_allclose(ce_grad_classifier(batch, W, 2), -pp.push, atol=1e-15)

    def test_empty_batch_rejected(self):
        batch = FeatureBatch(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            ce_grad_classifier(batch, np.zeros((3, 2)), 0)


class TestPullPushFeature:
    def test_reconstruction_identity(self, rng):
        for _ in range(100):
            W = rng.standard_normal((6, 4))
            h = rng.standard_normal(6)
            c = int(rng.integers(4))
            pp = decompose_pull_push_feature(h, c, W)
            g = ce_grad_feature(h, c, W)
            assert rel_error(pp.pull + pp.push, -g) < 1e-12

    def test_saturated_softmax_vanishes(self):
        W = etf_matrix(6, 4)
        pp = decompose_pull_push_feature(50.0 * W[:, 1], 1, W)
        assert np.linalg.norm(pp.pull) < 1e-8
        assert np.linalg.norm(pp.push) < 1e-8

    def test_equal_logits_push_parallel_to_own_column(self):
        W = etf_matrix(6, 4)
        pp = decompose_pull_push_feature(np.zeros(6), 2, W)
        # sum of other columns is -w_c, so push = (1/K) w_c
        np.testing.assert_allclose(pp.push, 0.25 * W[:, 2], atol=1e-12)


class TestPullPushClassifier:
    def test_reconstruction_identity(self, rng):
        for _ in range(30):
            d, K, N = 5, 4, 16
            batch = FeatureBatch(rng.standard_normal((N, d)), rng.integers(K, size=N), K)
            W = rng.standard_normal((d, K))
            k = int(rng.integers(K))
            pp = decompose_pull_push_classifier(batch, W, k)
            g = ce_grad_classifier(batch, W, k)
            assert rel_error(pp.pull + pp.push, -g) < 1e-12

    def test_matches_per_sample_sums(self, rng):
        """pull = sum_{y_i=k} (1-p_k(h_i)) h_i, push = -sum_{y_i!=k} p_k(h_i) h_i."""
        d, K, N = 5, 4, 30
        batch = FeatureBatch(rng.standard_normal((N, d)), rng.integers(K, size=N), K)
        W = rng.standard_normal((d, K))
        for k in range(K):
            pull, push = np.zeros(d), np.zeros(d)
            for h, y in zip(batch.features, batch.labels):
                p_k = softmax_probs(h, W)[k]
                if y == k:
                    pull += (1.0 - p_k) * h
                else:
                    push -= p_k * h
            pp = decompose_pull_push_classifier(batch, W, k)
            np.testing.assert_allclose(pp.pull, pull, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(pp.push, push, rtol=1e-12, atol=1e-12)

    def test_extreme_imbalance_push_dominates(self, rng):
        d, K = 8, 4
        counts = [2, 200, 200, 200]
        feats = rng.standard_normal((sum(counts), d))
        labels = np.repeat(np.arange(K), counts)
        batch = FeatureBatch(feats, labels, K)
        W = rng.standard_normal((d, K)) / np.sqrt(d)
        pp = decompose_pull_push_classifier(batch, W, 0)
        assert np.linalg.norm(pp.push) > np.linalg.norm(pp.pull)

    def test_single_class_batch_zero_push(self, rng):
        feats = rng.standard_normal((7, 4))
        batch = FeatureBatch(feats, np.full(7, 1), 3)
        pp = decompose_pull_push_classifier(batch, np.ones((4, 3)), 1)
        assert np.all(pp.push == 0)


class TestDrLoss:
    def test_zero_at_regression_target(self):
        clf = uniform_classifier(generate_etf(6, 4, 1), e_w=2.0)
        e_h = 3.0
        h = np.sqrt(e_h / 2.0) * clf.scaled_columns[:, 1]
        np.testing.assert_allclose(dr_loss(h, clf, 1, e_h), 0.0, atol=1e-12)

    def test_orthogonal_feature_on_sphere(self, rng):
        e_w, e_h = 2.0, 3.0
        clf = uniform_classifier(generate_etf(8, 4, 2), e_w)
        w = clf.scaled_columns[:, 0]
        v = rng.standard_normal(8)
        v -= (v @ w) / (w @ w) * w
        h = v * np.sqrt(e_h) / np.linalg.norm(v)
        np.testing.assert_allclose(
            dr_loss(h, clf, 0, e_h), np.sqrt(e_w * e_h) / 2, atol=1e-10
        )

    def test_half_dot_product_value(self):
        # E_W = E_H = 1, w.h = 0.5 -> (0.5-1)^2/2 = 0.125
        clf = uniform_classifier(generate_etf(4, 3, 0), 1.0)
        w = clf.scaled_columns[:, 2]
        h = 0.5 * w  # unit column: dot = 0.5
        np.testing.assert_allclose(dr_loss(h, clf, 2, 1.0), 0.125, atol=1e-12)

    def test_nonnegative_everywhere(self, rng):
        clf = uniform_classifier(generate_etf(5, 4, 3), 1.5)
        for _ in range(50):
            h = rng.standard_normal(5) * 3
            c = int(rng.integers(4))
            val = dr_loss(h, clf, c, 2.0)
            assert val >= 0.0


class TestDrGrad:
    def test_zero_at_optimum(self):
        clf = uniform_classifier(generate_etf(6, 5, 1), 4.0)
        h = np.sqrt(1.0 / 4.0) * clf.scaled_columns[:, 3]
        np.testing.assert_allclose(dr_grad(h, clf, 3, 1.0), 0.0, atol=1e-12)

    def test_finite_difference_oracle(self, rng):
        clf = uniform_classifier(generate_etf(8, 5, 2), 2.0)
        for _ in range(10):
            h = rng.standard_normal(8)
            c = int(rng.integers(5))
            fd = central_diff(lambda x: dr_loss(x, clf, c, 1.5), h)
            assert rel_error(dr_grad(h, clf, c, 1.5), fd) < 1e-6

    def test_orthogonal_on_sphere_gives_minus_column(self, rng):
        e_w, e_h = 2.0, 1.0
        clf = uniform_classifier(generate_etf(8, 4, 2), e_w)
        w = clf.scaled_columns[:, 1]
        v = rng.standard_normal(8)
        v -= (v @ w) / (w @ w) * w
        h = v * np.sqrt(e_h) / np.linalg.norm(v)
        g = dr_grad(h, clf, 1, e_h)
        np.testing.assert_allclose(g, -w, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(g), np.sqrt(e_w), atol=1e-10)

    def test_cosine_form_on_sphere(self, rng):
        """On |h|^2 = E_H the quadratic gradient equals -(1-cos) w_c."""
        e_w, e_h = 3.0, 2.0
        clf = uniform_classifier(generate_etf(7, 4, 5), e_w)
        for _ in range(20):
            h = rng.standard_normal(7)
            h *= np.sqrt(e_h) / np.linalg.norm(h)
            c = int(rng.integers(4))
            w = clf.scaled_columns[:, c]
            cos = h @ w / (np.linalg.norm(h) * np.linalg.norm(w))
            assert rel_error(dr_grad(h, clf, c, e_h), -(1 - cos) * w) < 1e-12


class TestGradientProperties:
    @pytest.mark.parametrize("d,K", [(2, 2), (8, 5), (64, 10)])
    def test_gradient_check_sweep(self, d, K, rng):
        W = rng.standard_normal((d, K))
        for _ in range(5):
            h = rng.standard_normal(d)
            c = int(rng.integers(K))
            fd = central_diff(lambda x: ce_loss(x, c, W), h)
            assert rel_error(ce_grad_feature(h, c, W), fd) < 1e-6

    def test_ce_decreases_along_negative_gradient(self, rng):
        W = rng.standard_normal((6, 4))
        for _ in range(10):
            h = rng.standard_normal(6)
            c = int(rng.integers(4))
            g = ce_grad_feature(h, c, W)
            if np.linalg.norm(g) < 1e-12:
                continue
            assert ce_loss(h - 1e-4 * g, c, W) < ce_loss(h, c, W)


class TestKernels:
    """ce_terms/dr_terms return the loss and dL/dlogits; callers chain to h or W."""

    def test_ce_terms_finite_difference(self, rng):
        B, d, K = 6, 5, 4
        H, W = rng.standard_normal((B, d)), rng.standard_normal((d, K))
        y = rng.integers(K, size=B)
        _, P = ce_terms(H, y, W)
        dlogits = P - np.eye(K)[y]
        for i in range(B):
            fd = central_diff(lambda h: ce_terms(h, y[i], W)[0], H[i])
            assert rel_error(dlogits[i] @ W.T, fd) < 1e-6
        fd = central_diff(lambda M: ce_terms(H, y, M)[0].sum(), W)
        assert rel_error(H.T @ dlogits, fd) < 1e-6

    def test_weighted_ce_finite_difference(self, rng):
        """The trainer's weighted-CE step: (1/B) sum_i v_i L_i with dlogits scaled by v_i."""
        B, d, K = 7, 4, 3
        H, W = rng.standard_normal((B, d)), rng.standard_normal((d, K))
        y = rng.integers(K, size=B)
        v = rng.uniform(0.2, 5.0, size=B)
        loss, P = ce_terms(H, y, W)
        coef = (P - np.eye(K)[y]) * v[:, None]
        fd_h = central_diff(lambda X: float(np.sum(v * ce_terms(X, y, W)[0])) / B, H)
        assert rel_error(coef @ W.T / B, fd_h) < 1e-6
        fd_w = central_diff(lambda M: float(np.sum(v * ce_terms(H, y, M)[0])) / B, W)
        assert rel_error(H.T @ coef / B, fd_w) < 1e-6

    def test_dr_terms_finite_difference(self, rng):
        B, d, K = 6, 5, 4
        H, W = rng.standard_normal((B, d)), rng.standard_normal((d, K))
        y = rng.integers(K, size=B)
        targets = rng.uniform(0.5, 2.0, size=K)
        _, r = dr_terms(H, y, W, targets)
        fd_h = central_diff(lambda X: dr_terms(X, y, W, targets)[0].sum(), H)
        assert rel_error(r[:, None] * W[:, y].T, fd_h) < 1e-6
        fd_w = central_diff(lambda M: dr_terms(H, y, M, targets)[0].sum(), W)
        assert rel_error(H.T @ (r[:, None] * np.eye(K)[y]), fd_w) < 1e-6

    def test_nonfinite_logits_diverge(self):
        with pytest.raises(NumericDivergence):
            ce_terms(np.array([[np.inf, 0.0]]), np.array([0]), np.eye(2))


@st.composite
def loss_batches(draw):
    """A (B, d) batch with labels and a class-weighted ETF classifier."""
    K = draw(st.integers(2, 5))
    d = draw(st.integers(K - 1, 7))
    B = draw(st.integers(1, 6))
    H = draw(arrays(float, (B, d), elements=st.floats(-3, 3)))
    y = np.array(draw(st.lists(st.integers(0, K - 1), min_size=B, max_size=B)))
    lengths = draw(arrays(float, K, elements=st.floats(0.5, 3)))
    clf = scale_classifier(generate_etf(d, K, draw(st.integers(0, 99))), lengths)
    return H, y, clf, draw(st.floats(0.5, 3))


class TestKernelsMatchReference:
    """Batched rows agree with the per-sample paper-form functions.

    The comparison is to 1e-12, not bitwise: a batched matmul may round a
    row's logits differently from the single-sample product.
    """

    @settings(max_examples=40, deadline=None)
    @given(loss_batches())
    def test_ce_rows(self, case):
        H, y, clf, _ = case
        W = clf.scaled_columns
        loss, P = ce_terms(H, y, W)
        grads = (P - np.eye(W.shape[1])[y]) @ W.T
        for i in range(len(y)):
            np.testing.assert_allclose(loss[i], ce_loss(H[i], y[i], W), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(P[i], softmax_probs(H[i], W), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                grads[i], ce_grad_feature(H[i], y[i], W), rtol=1e-12, atol=1e-12
            )
            row_loss, row_P = ce_terms(H[i], y[i], W)
            np.testing.assert_allclose(row_loss, loss[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(row_P, P[i], rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(loss_batches())
    def test_dr_rows(self, case):
        H, y, clf, e_h = case
        W = clf.scaled_columns
        loss, r = dr_terms(H, y, W, clf.lengths * np.sqrt(e_h))
        for i in range(len(y)):
            np.testing.assert_allclose(
                loss[i], dr_loss(H[i], clf, y[i], e_h), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                r[i] * W[:, y[i]], dr_grad(H[i], clf, y[i], e_h), rtol=1e-12, atol=1e-12
            )
