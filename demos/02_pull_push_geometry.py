"""The pull/push anatomy of the cross-entropy gradient, and why DR drops push.

The negative CE gradient w.r.t. a feature splits into a pull toward the
own-class classifier column and a push away from the others. With a
frozen ETF classifier the pull always points at the right answer, but
the push can deflect the step badly when the feature sits close to a
WRONG class's column. The dot-regression loss keeps only an exact pull.

The classifier-side split explains minority collapse: for a class with
few samples the pull (from its own features) is tiny while the push
(from everyone else's features) is large, so minor-class columns are
steered by other classes' geometry.
"""

import numpy as np

from etfnc.batches import FeatureBatch
from etfnc.etf import generate_etf, uniform_classifier
from etfnc.losses import decompose_pull_push_classifier, decompose_pull_push_feature, dr_grad

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(0)

K, d = 4, 8
clf = uniform_classifier(generate_etf(d, K, seed=2), 1.0)
W = clf.scaled_columns


def angle_to(v, k):
    return np.degrees(
        np.arccos(np.clip(v @ W[:, k] / (np.linalg.norm(v) * np.linalg.norm(W[:, k])), -1, 1))
    )


print("=== Feature-side: a sample of class 2 sitting near class 0's column ===")
h = 0.9 * W[:, 0] + 0.2 * W[:, 2]
h /= np.linalg.norm(h)
label = 2
pull, push = decompose_pull_push_feature(h, label, W)
step_ce = pull + push  # the negative CE gradient
step_dr = -dr_grad(h, clf, label, 1.0)
print(f"feature is {angle_to(h, 0):5.1f} deg from w_0 (wrong) and {angle_to(h, 2):5.1f} deg from w_2 (own)")
print(f"CE  step direction: {angle_to(step_ce, 2):5.1f} deg away from the target w_2")
print(f"  pull alone      : {angle_to(pull, 2):5.1f} deg (always exact)")
print(f"  push alone      : {angle_to(push, 2):5.1f} deg (deflected by nearby w_0)")
print(f"DR  step direction: {angle_to(step_dr, 2):5.1f} deg (pull only)")
print()

print("=== Classifier-side: pull/push magnitudes under extreme imbalance ===")
counts = [200, 200, 200, 2]
feats, labels = [], []
for k, n in enumerate(counts):
    pts = 0.8 * W[:, k] + 0.3 * rng.standard_normal((n, d))
    feats.append(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    labels.append(np.full(n, k))
batch = FeatureBatch(np.vstack(feats), np.concatenate(labels), K)
print(f"class counts: {counts}")
for k in range(K):
    pull, push = decompose_pull_push_classifier(batch, W, k)
    ratio = np.linalg.norm(push) / np.linalg.norm(pull)
    tag = " <- push dominates: the minor class is steered by the others" if ratio > 1 else ""
    print(
        f"class {k}: ||pull|| = {np.linalg.norm(pull):8.2f}, "
        f"||push|| = {np.linalg.norm(push):7.2f}, push/pull = {ratio:6.2f}{tag}"
    )
print()
print("A frozen ETF classifier never takes these imbalanced classifier steps;")
print("only the (always-accurate) feature pull remains when DR replaces CE.")
