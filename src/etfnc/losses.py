"""Cross-entropy and dot-regression losses with exact gradients.

Both losses act on a feature h in R^d and a classifier matrix W in
R^{d x K} whose k-th column scores class k. The negative CE gradient
splits into a "pull" term toward the own-class column and a "push" term
away from the other columns; the DR loss keeps only an (exact) pull.

Batches go through two kernels, ``ce_terms`` and ``dr_terms``. Each
returns the per-sample loss and dL/dlogits: CE returns the probabilities
P, with dL/dlogits = P - onehot; DR returns the residual r = dL/d(w_y . h).
Callers apply the chain rule to h or W and any 1/N averaging themselves.
The per-sample functions are the paper-form reference (eqs. (3)-(7));
their gradients carry no 1/N.
"""

from dataclasses import dataclass

import numpy as np

from .batches import FeatureBatch
from .etf import FixedClassifier


class NumericDivergence(FloatingPointError):
    """A loss or an update produced non-finite values."""


@dataclass(frozen=True)
class PullPush:
    """Additive split of a negative gradient: pull + push == -gradient."""

    pull: np.ndarray
    push: np.ndarray

    def neg_gradient(self) -> np.ndarray:
        return self.pull + self.push


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


def dr_terms(features: np.ndarray, labels, W: np.ndarray, targets: np.ndarray):
    """(per-sample DR loss, residual r) for a (B, d) batch; targets[k] = sqrt(E_{w_k} E_H).

    r_i = (w_{y_i} . h_i - t_{y_i}) / t_{y_i}, so dL_i/dh_i = r_i w_{y_i}.
    """
    dots = np.einsum("ij,ji->i", features, W[:, labels])
    t = targets[labels]
    return (dots - t) ** 2 / (2.0 * t), (dots - t) / t


def softmax_probs(h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Class probabilities p_k proportional to exp(h . w_k)."""
    return _softmax(h, W)[3]


def ce_loss(h: np.ndarray, label: int, W: np.ndarray) -> float:
    """-log p_label(h), evaluated through log-sum-exp."""
    return float(ce_terms(h, label, W)[0])


def decompose_pull_push_feature(h: np.ndarray, label: int, W: np.ndarray) -> PullPush:
    """Split -dL_CE/dh into pull = (1-p_c) w_c and push = -sum_{k!=c} p_k w_k."""
    W = np.asarray(W, dtype=float)
    p = softmax_probs(h, W)
    pull = (1.0 - p[label]) * W[:, label]
    others = np.arange(W.shape[1]) != label
    push = -(W[:, others] @ p[others])
    return PullPush(pull=pull, push=push)


def ce_grad_feature(h: np.ndarray, label: int, W: np.ndarray) -> np.ndarray:
    """dL_CE/dh = -(1-p_c) w_c + sum_{k!=c} p_k w_k."""
    return -decompose_pull_push_feature(h, label, W).neg_gradient()


def decompose_pull_push_classifier(batch: FeatureBatch, W: np.ndarray, k: int) -> PullPush:
    """Pull from own-class features, push from all other-class features."""
    if batch.size == 0:
        raise ValueError("empty batch")
    if not 0 <= k < batch.num_classes:
        raise ValueError(f"class index {k} out of range")
    P = ce_terms(batch.features, batch.labels, W)[1]
    own = batch.labels == k
    pull = (1.0 - P[own, k]) @ batch.features[own]
    push = -(P[~own, k] @ batch.features[~own])
    return PullPush(pull=pull, push=push)


def ce_grad_classifier(batch: FeatureBatch, W: np.ndarray, k: int) -> np.ndarray:
    """dL_CE/dw_k over a batch (sum over samples, no 1/N)."""
    return -decompose_pull_push_classifier(batch, W, k).neg_gradient()


def _dr_target(classifier: FixedClassifier, c: int, e_h: float) -> float:
    # per-class length in both target and normalizer (class-weighted variant)
    return float(classifier.lengths[c] * np.sqrt(e_h))


def dr_loss(h: np.ndarray, classifier: FixedClassifier, c: int, e_h: float) -> float:
    """(w_c . h - sqrt(E_{w_c} E_H))^2 / (2 sqrt(E_{w_c} E_H))."""
    t = _dr_target(classifier, c, e_h)
    dot = float(np.asarray(h, dtype=float) @ classifier.scaled_columns[:, c])
    return (dot - t) ** 2 / (2.0 * t)


def dr_grad(h: np.ndarray, classifier: FixedClassifier, c: int, e_h: float) -> np.ndarray:
    """Exact gradient of dr_loss: ((w_c . h)/t - 1) w_c with t = sqrt(E_{w_c} E_H).

    On the sphere |h|^2 = E_H with uniform lengths this equals the cosine
    form -(1 - cos(h, w_c)) w_c; off the sphere the quadratic form is the
    true gradient and is what we return.
    """
    t = _dr_target(classifier, c, e_h)
    w = classifier.scaled_columns[:, c]
    dot = float(np.asarray(h, dtype=float) @ w)
    return (dot / t - 1.0) * w
