"""Neural-collapse statistics: values at exact collapse, invariances, oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc import metrics
from etfnc.batches import FeatureBatch
from etfnc.etf import generate_etf
from etfnc.metrics import NC_FIELDS, NcReport, class_and_global_means, nc_report


def panels(report):
    """((cos_ff avg, std), (cos_fc avg, std)) of a report."""
    return (
        (report.cos_ff_avg, report.cos_ff_std),
        (report.cos_fc_avg, report.cos_fc_std),
    )


def collapsed_batch(d=6, K=4, per_class=2, seed=1, scale=1.0):
    """Features exactly at uniform-length ETF vertices, balanced.

    per_class stays a power of two so the class means reproduce the
    vertices bit-exactly (mean of 2^m identical doubles is exact).
    """
    frame = generate_etf(d, K, seed)
    feats = np.repeat(scale * frame.columns.T, per_class, axis=0)
    labels = np.repeat(np.arange(K), per_class)
    return FeatureBatch(feats, labels, K), frame


class TestMeans:
    def test_single_sample_per_class(self, rng):
        feats = rng.standard_normal((3, 4))
        batch = FeatureBatch(feats, np.arange(3), 3)
        means, h_g = class_and_global_means(batch)
        np.testing.assert_allclose(means, feats)
        np.testing.assert_allclose(h_g, feats.mean(axis=0))

    def test_duplication_invariance(self, rng):
        feats = rng.standard_normal((6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        batch = FeatureBatch(feats, labels, 3)
        doubled = FeatureBatch(np.vstack([feats, feats]), np.hstack([labels, labels]), 3)
        m1, g1 = class_and_global_means(batch)
        m2, g2 = class_and_global_means(doubled)
        np.testing.assert_allclose(m1, m2, atol=1e-15)
        np.testing.assert_allclose(g1, g2, atol=1e-15)

    def test_global_mean_is_sample_weighted(self):
        feats = np.array([[1.0], [1.0], [1.0], [5.0]])
        labels = np.array([0, 0, 0, 1])
        batch = FeatureBatch(feats, labels, 2)
        _, h_g = class_and_global_means(batch)
        np.testing.assert_allclose(h_g, [2.0])  # (3*1 + 5)/4, not (1+5)/2

    def test_empty_class_named(self):
        batch = FeatureBatch(np.ones((2, 3)), np.array([0, 2]), 3)
        with pytest.raises(ValueError, match="class 1"):
            class_and_global_means(batch)


class TestWithinClassVariability:
    def test_collapsed_is_zero(self):
        batch, frame = collapsed_batch()
        assert nc_report(batch, frame.columns).sigma_w_trace == 0.0

    def test_hand_computed_outer_product(self):
        # class 0 spreads +-1 along x, class 1 sits at one point:
        # Sigma_W = (2 e_x e_x^T) / 4, trace 1/2
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
        batch = FeatureBatch(feats, np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(nc_report(batch, np.eye(2)).sigma_w_trace, 0.5)

    def test_trace_rotation_invariant(self, rng):
        feats = rng.standard_normal((12, 5))
        labels = rng.integers(3, size=12)
        W = np.ones((5, 3))
        t1 = nc_report(FeatureBatch(feats, labels, 3), W).sigma_w_trace
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        t2 = nc_report(FeatureBatch(feats @ q.T, labels, 3), W).sigma_w_trace
        np.testing.assert_allclose(t1, t2, atol=1e-10)


class TestCosinePanels:
    def test_collapsed_etf_values(self):
        batch, frame = collapsed_batch()
        W = frame.columns
        (ff_avg, ff_std), (fc_avg, fc_std) = panels(nc_report(batch, W))
        np.testing.assert_allclose(ff_avg, -1 / 3, atol=1e-12)
        np.testing.assert_allclose(fc_avg, -1 / 3, atol=1e-12)
        assert ff_std < 1e-12 and fc_std < 1e-12

    def test_two_class_antipodal(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        batch = FeatureBatch(feats, np.array([0, 1]), 2)
        (ff_avg, ff_std), _ = panels(nc_report(batch, np.eye(2)))
        np.testing.assert_allclose(ff_avg, -1.0, atol=1e-12)
        assert ff_std < 1e-12

    def test_class_permutation_invariance(self, rng):
        feats = rng.standard_normal((12, 4))
        labels = np.repeat(np.arange(4), 3)
        W = rng.standard_normal((4, 4))
        batch = FeatureBatch(feats, labels, 4)
        perm = np.array([2, 0, 3, 1])
        batch_p = FeatureBatch(feats, perm[labels], 4)
        W_p = np.empty_like(W)
        W_p[:, perm] = W
        a = panels(nc_report(batch, W))
        b = panels(nc_report(batch_p, W_p))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_degenerate_centered_mean_rejected(self):
        feats = np.zeros((4, 3))
        batch = FeatureBatch(feats, np.array([0, 0, 1, 1]), 2)
        with pytest.raises(ValueError, match="zero norm"):
            nc_report(batch, np.ones((3, 2)))


class TestSelfDuality:
    def test_perfect_alignment(self):
        batch, frame = collapsed_batch()
        np.testing.assert_allclose(
            nc_report(batch, frame.columns).self_duality, 1.0, atol=1e-12
        )

    def test_permuted_classifier_below_one(self):
        batch, frame = collapsed_batch()
        W = frame.columns[:, [1, 2, 3, 0]]
        assert nc_report(batch, W).self_duality < 1.0

    def test_column_rescaling_invariance(self, rng):
        batch, frame = collapsed_batch()
        scales = rng.uniform(0.1, 10.0, size=4)
        np.testing.assert_allclose(
            nc_report(batch, frame.columns * scales).self_duality,
            nc_report(batch, frame.columns).self_duality,
            atol=1e-12,
        )


class TestDualityGap:
    def test_proportional_matrices_zero(self, rng):
        batch, frame = collapsed_batch(scale=3.7)
        np.testing.assert_allclose(
            nc_report(batch, frame.columns).duality_gap, 0.0, atol=1e-12
        )

    def test_antipodal_is_four(self):
        batch, frame = collapsed_batch()
        np.testing.assert_allclose(
            nc_report(batch, -frame.columns).duality_gap, 4.0, atol=1e-12
        )

    def test_range_zero_to_four(self, rng):
        for _ in range(25):
            feats = rng.standard_normal((12, 5))
            labels = np.repeat(np.arange(4), 3)
            batch = FeatureBatch(feats, labels, 4)
            gap = nc_report(batch, rng.standard_normal((5, 4))).duality_gap
            assert 0.0 <= gap <= 4.0


class TestNc4Agreement:
    def test_collapsed_agrees(self):
        batch, frame = collapsed_batch()
        np.testing.assert_allclose(nc_report(batch, frame.columns).nc4, 1.0)

    def test_tie_break_lowest_index(self):
        # identical columns make every logit a tie -> class 0. The class
        # means are exactly (2, 1) and (2, -1), so (2, 0) and (5, 0) are
        # equidistant from both -> class 0 as well; (2, 2) and (2, 1) are
        # nearest mean 0, (-1, -2) mean 1. Lowest index on both sides
        # agrees on 4 of 5 samples (highest index on both: 3 of 5).
        W = np.array([[1.0, 1.0], [0.0, 0.0]])
        feats = np.array([[2.0, 0.0], [2.0, 2.0], [2.0, 1.0], [5.0, 0.0], [-1.0, -2.0]])
        batch = FeatureBatch(feats, np.array([0, 0, 0, 1, 1]), 2)
        means, _ = class_and_global_means(batch)
        np.testing.assert_array_equal(means, [[2.0, 1.0], [2.0, -1.0]])
        assert nc_report(batch, W).nc4 == 0.8

    def test_brute_force_recount(self, rng):
        d, K, N = 4, 3, 30
        feats = rng.standard_normal((N, d))
        labels = rng.integers(K, size=N)
        batch = FeatureBatch(feats, labels, K)
        W = rng.standard_normal((d, K))
        means, _ = class_and_global_means(batch)
        agree = 0
        for i in range(N):
            best_logit, best_dist = 0, 0
            for k in range(1, K):
                if feats[i] @ W[:, k] > feats[i] @ W[:, best_logit]:
                    best_logit = k
                if np.linalg.norm(feats[i] - means[k]) < np.linalg.norm(feats[i] - means[best_dist]):
                    best_dist = k
            agree += best_logit == best_dist
        np.testing.assert_allclose(nc_report(batch, W).nc4, agree / N)


class TestReportInvariances:
    def test_shared_rotation_invariance(self, rng):
        feats = rng.standard_normal((20, 6))
        labels = np.repeat(np.arange(4), 5)
        W = rng.standard_normal((6, 4))
        batch = FeatureBatch(feats, labels, 4)
        r1 = nc_report(batch, W)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        r2 = nc_report(FeatureBatch(feats @ q.T, labels, 4), q @ W)
        for f in NC_FIELDS:
            np.testing.assert_allclose(getattr(r1, f), getattr(r2, f), atol=1e-9, err_msg=f)

    def test_duplication_invariance(self, rng):
        feats = rng.standard_normal((12, 5))
        labels = np.repeat(np.arange(4), 3)
        W = rng.standard_normal((5, 4))
        r1 = nc_report(FeatureBatch(feats, labels, 4), W)
        r2 = nc_report(
            FeatureBatch(np.vstack([feats, feats]), np.hstack([labels, labels]), 4), W
        )
        for f in NC_FIELDS:
            np.testing.assert_allclose(getattr(r1, f), getattr(r2, f), atol=1e-12, err_msg=f)

    def test_field_order_fixed(self):
        batch, frame = collapsed_batch()
        report = nc_report(batch, frame.columns)
        assert report.as_row() == [getattr(report, f) for f in NC_FIELDS]
        assert len(report.as_row()) == 8


def reference_means(batch):
    """class_and_global_means as one boolean-mask copy per class."""
    means = np.zeros((batch.num_classes, batch.dim))
    for k in range(batch.num_classes):
        means[k] = batch.features[batch.labels == k].mean(axis=0)
    return means, batch.features.mean(axis=0)


@st.composite
def labeled_features(draw):
    """A batch of 1-6 classes, d in {1, 2, 3, 32}, 1-300 samples per class.

    Labels come sorted or shuffled. Classes of one sample occur often,
    and counts pass 128, where numpy's pairwise sum of a d == 1 column
    splits its blocks.
    """
    K = draw(st.integers(1, 6))
    d = draw(st.sampled_from([1, 2, 3, 32]))
    counts = draw(st.lists(st.one_of(st.just(1), st.integers(1, 300)), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    labels = np.repeat(np.arange(K), counts)
    if draw(st.booleans()):
        labels = rng.permutation(labels)
    feats = rng.standard_normal((labels.size, d)) * 10.0 ** rng.integers(-3, 4, (labels.size, 1))
    return FeatureBatch(feats, labels, K)


@settings(max_examples=60, deadline=None)
@given(labeled_features())
def test_means_equal_mask_oracle_exactly(batch):
    means, h_g = class_and_global_means(batch)
    ref_means, ref_h_g = reference_means(batch)
    assert means.shape == ref_means.shape
    assert np.array_equal(means, ref_means)
    assert np.array_equal(h_g, ref_h_g)


def reference_report(batch, W):
    """nc_report as five separate helpers, each redoing the means pass."""
    K, W = batch.num_classes, np.asarray(W, dtype=float)

    def centered_means():
        means, h_g = reference_means(batch)
        return means - h_g

    def within_class_trace():
        means, _ = reference_means(batch)
        dev = batch.features - means[batch.labels]
        return float(np.trace(dev.T @ dev / batch.size))

    def cosine_panels():
        centered = centered_means()
        m_hat = centered / np.linalg.norm(centered, axis=1, keepdims=True)
        w_hat = W / np.linalg.norm(W, axis=0)
        off = ~np.eye(K, dtype=bool)
        ff, fc = (m_hat @ m_hat.T)[off], (m_hat @ w_hat)[off]
        return float(ff.mean()), float(ff.std()), float(fc.mean()), float(fc.std())

    def self_duality():
        centered = centered_means()
        cos = np.einsum("kd,dk->k", centered, W) / (
            np.linalg.norm(centered, axis=1) * np.linalg.norm(W, axis=0)
        )
        return float(cos.mean())

    def duality_gap():
        centered = centered_means().T
        diff = W / np.linalg.norm(W) - centered / np.linalg.norm(centered)
        return float(np.sum(diff * diff))

    def nc4_agreement():
        means, _ = reference_means(batch)
        pred_logit = np.argmax(batch.features @ W, axis=1)
        d2 = (
            np.sum(batch.features**2, axis=1, keepdims=True)
            - 2.0 * batch.features @ means.T
            + np.sum(means**2, axis=1)
        )
        return float(np.mean(pred_logit == np.argmin(d2, axis=1)))

    return NcReport(
        within_class_trace(), *cosine_panels(), self_duality(), duality_gap(), nc4_agreement()
    )


@st.composite
def random_snapshots(draw):
    """(batch, W) with 2-6 classes, d in 1..7, 1-40 samples per class, shuffled labels.

    Counts go past 8 because numpy sums a d == 1 column pairwise from 8
    rows on: a means pass that adds the rows one at a time differs there
    in the last ulp.
    """
    K = draw(st.integers(2, 6))
    d = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(1, 40), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    labels = rng.permutation(np.repeat(np.arange(K), counts))
    feats = rng.standard_normal((labels.size, d)) + 2.0 * rng.standard_normal((K, d))[labels]
    return FeatureBatch(feats, labels, K), rng.standard_normal((d, K))


class TestOnePass:
    @settings(max_examples=25, deadline=None)
    @given(random_snapshots())
    def test_equals_separate_helpers_exactly(self, snapshot):
        batch, W = snapshot
        assert nc_report(batch, W) == reference_report(batch, W)

    @settings(max_examples=25, deadline=None)
    @given(random_snapshots(), st.integers(0, 2**16))
    def test_sample_permutation_invariance(self, snapshot, seed):
        batch, W = snapshot
        perm = np.random.default_rng(seed).permutation(batch.size)
        shuffled = FeatureBatch(batch.features[perm], batch.labels[perm], batch.num_classes)
        r1, r2 = nc_report(batch, W), nc_report(shuffled, W)
        for f in NC_FIELDS:
            np.testing.assert_allclose(getattr(r1, f), getattr(r2, f), atol=1e-12, err_msg=f)

    def test_one_means_pass_per_report(self, monkeypatch):
        calls = []
        means_pass = metrics.class_and_global_means
        monkeypatch.setattr(
            metrics, "class_and_global_means", lambda b: calls.append(b) or means_pass(b)
        )
        batch, frame = collapsed_batch()
        nc_report(batch, frame.columns)
        assert len(calls) == 1
