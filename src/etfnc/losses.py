"""Cross-entropy and dot-regression losses with exact gradients.

Both losses act on a feature h in R^d and a classifier matrix W in
R^{d x K} whose k-th column scores class k. The negative CE gradient
splits into a "pull" term toward the own-class column and a "push" term
away from the other columns, which the decompositions return as a plain
``(pull, push)`` pair; the DR loss keeps only an (exact) pull.

Batches go through two kernels, ``ce_terms(h, labels, W)`` and
``dr_terms(features, cols, targets)``, which takes cols = W[:, labels]
and per-sample targets. Each returns the per-sample loss and dL/dlogits:
CE returns the probabilities P, with dL/dlogits = P - onehot; DR returns
the residual r = dL/d(w_y . h). Callers apply the chain rule to h or W
and any 1/N averaging themselves.
The per-sample functions are the paper-form reference (eqs. (3)-(7));
their gradients carry no 1/N.
"""

import numpy as np

from .batches import FeatureBatch
from .etf import FixedClassifier


class NumericDivergence(FloatingPointError):
    """A loss or an update produced non-finite values."""


def _softmax(h: np.ndarray, W: np.ndarray):
    """Logits, their max m, the sum s of exp(logits - m), and the probabilities.

    Shifting by the max keeps large logits from overflowing.
    """
    with np.errstate(invalid="ignore"):
        logits = np.asarray(h, dtype=float) @ np.asarray(W, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise NumericDivergence("non-finite logits in softmax")
    # a single sample reduces to scalars, which keeps the per-sample calls cheap
    batch = logits.ndim > 1
    m = logits.max(axis=-1, keepdims=batch)
    e = np.exp(logits - m)
    s = e.sum(axis=-1, keepdims=batch)
    return logits, m, s, e / s


def ce_terms(h: np.ndarray, labels, W: np.ndarray):
    """(per-sample CE loss, softmax probabilities P) for h of shape (d,) or (B, d).

    dL/dlogits = P - onehot(labels).
    """
    logits, m, s, P = _softmax(h, W)
    if logits.ndim == 1:
        return np.log(s) + m - logits[labels], P
    return np.log(s[:, 0]) + m[:, 0] - logits[np.arange(len(logits)), labels], P


def dr_terms(features: np.ndarray, cols: np.ndarray, targets: np.ndarray):
    """(per-sample DR loss, residual r) for a (B, d) batch, its columns cols = W[:, labels].

    t_i = targets[i] = sqrt(E_{w_{y_i}} E_H), r_i = (w_{y_i} . h_i - t_i) / t_i,
    so dL_i/dh_i = r_i w_{y_i}.
    """
    dots = np.einsum("ij,ji->i", features, cols)
    return (dots - targets) ** 2 / (2.0 * targets), (dots - targets) / targets


def softmax_probs(h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Class probabilities p_k proportional to exp(h . w_k)."""
    return _softmax(h, W)[3]


def _pull_push(p: np.ndarray, label: int, W: np.ndarray):
    """(pull, push) of -dL_CE/dh from the softmax probabilities p = softmax_probs(h, W)."""
    pull = (1.0 - p[label]) * W[:, label]
    others = np.arange(W.shape[1]) != label
    return pull, -(W[:, others] @ p[others])


def decompose_pull_push_feature(h: np.ndarray, label: int, W: np.ndarray):
    """(pull, push) of -dL_CE/dh: pull = (1-p_c) w_c, push = -sum_{k!=c} p_k w_k."""
    W = np.asarray(W, dtype=float)
    return _pull_push(softmax_probs(h, W), label, W)


def decompose_pull_push_classifier(batch: FeatureBatch, W: np.ndarray, k: int):
    """(pull, push) of -dL_CE/dw_k: pull from own-class features, push from the others."""
    if batch.size == 0:
        raise ValueError("empty batch")
    if not 0 <= k < batch.num_classes:
        raise ValueError(f"class index {k} out of range")
    P = ce_terms(batch.features, batch.labels, W)[1]
    own = batch.labels == k
    pull = (1.0 - P[own, k]) @ batch.features[own]
    push = -(P[~own, k] @ batch.features[~own])
    return pull, push


def dr_grad(h: np.ndarray, classifier: FixedClassifier, c: int, e_h: float) -> np.ndarray:
    """Exact gradient of the DR loss (w_c . h - t)^2 / (2t): ((w_c . h)/t - 1) w_c,
    with t = sqrt(E_{w_c} E_H).

    On the sphere |h|^2 = E_H with uniform lengths this equals the cosine
    form -(1 - cos(h, w_c)) w_c; off the sphere the quadratic form is the
    true gradient and is what we return.
    """
    # per-class length in both target and normalizer (class-weighted variant)
    t = float(classifier.lengths[c] * np.sqrt(e_h))
    w = classifier.scaled_columns[:, c]
    dot = float(np.asarray(h, dtype=float) @ w)
    return (dot / t - 1.0) * w
