"""Neural-collapse statistics.

Given a labeled feature batch and a classifier matrix, ``nc_report``
computes the classic collapse indicators from one pass over the class
statistics: the within-class covariance trace (variability collapse),
the averages/stds of centered-class-mean cosines with each other and
with the classifier columns (convergence to the ETF and its alignment),
self-duality, the Frobenius gap between the normalized classifier and
centered-mean matrices, and the agreement between argmax-logit and
nearest-class-mean prediction.

Conventions (pinned here, noted where the sources are ambiguous): the
global mean weights samples, not classes; cosine panels aggregate over
all K(K-1) ordered pairs of distinct classes with population stds; the
duality gap normalizes both matrices to unit Frobenius norm, so it is
scale-free and lies in [0, 4]; nc4 compares against the batch's own
class means, and ties resolve to the lowest class index on both sides.
"""

from dataclasses import dataclass, fields

import numpy as np

from .batches import FeatureBatch


def class_and_global_means(batch: FeatureBatch):
    """Per-class means (K, d) and the sample-weighted global mean (d,)."""
    counts = batch.counts()
    # A stable sort keeps each class's rows in sample order, so each slice is a
    # C-contiguous copy of features[labels == k], row for row: its mean rounds alike.
    rows = batch.features[np.argsort(batch.labels, kind="stable")]
    means = np.array([rows[e - n:e].mean(axis=0) for n, e in zip(counts, np.cumsum(counts))])
    return means, batch.features.mean(axis=0)


@dataclass(frozen=True)
class NcReport:
    """All collapse statistics for one feature snapshot."""

    sigma_w_trace: float
    cos_ff_avg: float
    cos_ff_std: float
    cos_fc_avg: float
    cos_fc_std: float
    self_duality: float
    duality_gap: float
    nc4: float

    def as_row(self) -> list:
        return [getattr(self, f) for f in NC_FIELDS]


#: the statistics in report and CSV column order
NC_FIELDS = tuple(f.name for f in fields(NcReport))


def nc_report(batch: FeatureBatch, W: np.ndarray) -> NcReport:
    """Compute the full statistics bundle for one snapshot.

    With class means h_k, global mean h_G and columns w_k of W:
    sigma_w_trace is tr(Sigma_W), Sigma_W = Avg_{i,k} (h_{k,i} - h_k)(h_{k,i} - h_k)^T;
    the cos_ff/cos_fc panels are (avg, std) of cos(h_c - h_G, h_k - h_G)
    and of cos(h_c - h_G, w_k) over c != k; self_duality averages
    cos(h_c - h_G, w_c) over classes; duality_gap is the squared
    Frobenius distance between W and the centered-mean matrix, each
    divided by its Frobenius norm; nc4 is the fraction of samples where
    argmax_k h . w_k == argmin_k |h - h_k|.
    """
    means, h_g = class_and_global_means(batch)
    centered = means - h_g
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms < 1e-300):
        raise ValueError(f"centered mean of class {int(np.argmin(norms))} has zero norm")
    W = np.asarray(W, dtype=float)
    wnorms = np.linalg.norm(W, axis=0)
    if np.any(wnorms < 1e-300):
        raise ValueError("classifier has a zero-norm column")
    feats = batch.features

    dev = feats - means[batch.labels]
    sigma_w = dev.T @ dev / batch.size

    m_hat = centered / norms[:, None]
    off = ~np.eye(batch.num_classes, dtype=bool)
    ff = (m_hat @ m_hat.T)[off]
    fc = (m_hat @ (W / wnorms))[off]

    self_cos = np.einsum("kd,dk->k", centered, W) / (norms * wnorms)

    diff = W / np.linalg.norm(W) - centered.T / np.linalg.norm(centered)

    pred_logit = np.argmax(feats @ W, axis=1)
    d2 = (
        np.sum(feats**2, axis=1, keepdims=True)
        - 2.0 * feats @ means.T
        + np.sum(means**2, axis=1)
    )
    pred_center = np.argmin(d2, axis=1)

    return NcReport(
        sigma_w_trace=float(np.trace(sigma_w)),
        cos_ff_avg=float(ff.mean()),
        cos_ff_std=float(ff.std()),
        cos_fc_avg=float(fc.mean()),
        cos_fc_std=float(fc.std()),
        self_duality=float(self_cos.mean()),
        duality_gap=float(np.sum(diff * diff)),
        nc4=float(np.mean(pred_logit == pred_center)),
    )
