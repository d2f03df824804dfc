"""Per-sample reference forms that the library no longer needs, kept as test oracles.

The library computes losses and gradients through the batch kernels
``ce_terms`` and ``dr_terms``; these functions restate the paper's
per-sample forms (eqs. (3)-(7)) for the tests to compare against, along
with the CSV writers and readers the tests use to round-trip data.
"""

import numpy as np

from etfnc.batches import FeatureBatch
from etfnc.etf import EtfFrame
from etfnc.losses import ce_terms, decompose_pull_push_classifier, decompose_pull_push_feature
from etfnc.serialize import write_csv


def ce_loss(h, label, W) -> float:
    """-log p_label(h), evaluated through log-sum-exp."""
    return float(ce_terms(h, label, W)[0])


def dr_loss(h, classifier, c, e_h) -> float:
    """(w_c . h - sqrt(E_{w_c} E_H))^2 / (2 sqrt(E_{w_c} E_H))."""
    t = float(classifier.lengths[c] * np.sqrt(e_h))
    dot = float(np.asarray(h, dtype=float) @ classifier.scaled_columns[:, c])
    return (dot - t) ** 2 / (2.0 * t)


def ce_feature_grad(h, label, W) -> np.ndarray:
    """dL_CE/dh = -(1-p_c) w_c + sum_{k!=c} p_k w_k, minus the pull/push split."""
    return -decompose_pull_push_feature(h, label, W).neg_gradient()


def ce_grad_classifier(batch, W, k) -> np.ndarray:
    """dL_CE/dw_k over a batch (sum over samples, no 1/N)."""
    return -decompose_pull_push_classifier(batch, W, k).neg_gradient()


def feature_normalize(h, e_h) -> np.ndarray:
    """Rescale h onto the sphere |h|^2 = e_h."""
    h = np.asarray(h, dtype=float)
    n = np.linalg.norm(h)
    if n <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero feature vector")
    return h * (np.sqrt(e_h) / n)


def save_dataset_csv(path, dataset: FeatureBatch):
    """Write a dataset as the ``label,x0,...`` CSV that ``load_dataset_csv`` reads."""
    header = ["label"] + [f"x{i}" for i in range(dataset.dim)]
    rows = [[int(y), *x] for y, x in zip(dataset.labels, dataset.features)]
    write_csv(path, header, rows)


def frame_from_csv_text(text: str, rotation_seed: int = 0) -> EtfFrame:
    """Read back the ``frame.csv`` text that ``etfnc etf`` writes: one frame column per line."""
    cols = [
        [float(x) for x in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    columns = np.asarray(cols, dtype=float).T
    return EtfFrame(
        dim=columns.shape[0],
        num_classes=columns.shape[1],
        columns=columns,
        rotation_seed=rotation_seed,
    )
