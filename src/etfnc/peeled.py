"""Layer-peeled models solved by projected gradient descent.

The layer-peeled model (LPM) optimizes last-layer features and the
classifier jointly under ball constraints |h|^2 <= E_H, |w_k|^2 <= E_W.
Fixing the classifier to a scaled ETF decouples the problem (DLPM),
makes it convex, and gives a closed-form global optimum

    h*_{k,i} = sqrt(E_H / E_W) * w*_k,

which serves as the oracle for every convergence test: the optimality
gap measures the worst deviation of any h . w*_k' from its target
sqrt(E_H E_W) (K/(K-1) delta - 1/(K-1)).

Update scheme: every feature takes a projected step against its own
per-sample loss (the objective is separable in the features); in LPM
mode the classifier additionally takes a projected step against the
1/N-averaged objective gradient. Both blocks share one step size.
The loop runs in fixed buffers: no (N, d) temporaries per DLPM step.

A problem is built whole: ``dlpm_problem`` and ``lpm_problem`` draw its
features uniformly on the sphere |h|^2 = E_H from a feature seed. To
start elsewhere, assign ``problem.features`` after building.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, ce_terms, dr_terms


def _project_rows(X: np.ndarray, E: float) -> bool:
    """Project the rows of X onto the ball |x|^2 <= E in place; True if any row moved."""
    nsq = np.einsum("ij,ij->i", X, X)
    over = nsq > E
    scale = np.sqrt(np.divide(E, nsq, out=np.ones_like(nsq), where=over))  # x * 1.0 == x
    if not scale.all() and np.isfinite(X).all():  # a row with an inf entry turns NaN instead
        raise NumericDivergence("a squared row norm is out of range: no finite projection")
    X *= scale[:, None]
    return bool(over.any())


@dataclass
class PeeledProblem:
    """One layer-peeled instance.

    ``classifier`` is a FixedClassifier for the decoupled model (DLPM) or
    a learnable (d, K) matrix for the full LPM. Features are stored
    class-major as an (N, d) array: class k owns the rows of ``labels``
    equal to k, one contiguous slice.
    """

    features: np.ndarray
    class_counts: np.ndarray
    classifier: object
    e_h: float
    e_w: float

    @property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_classes), self.class_counts)

    @property
    def is_fixed_classifier(self) -> bool:
        return isinstance(self.classifier, FixedClassifier)

    @property
    def classifier_matrix(self) -> np.ndarray:
        return self.classifier.scaled_columns if self.is_fixed_classifier else self.classifier

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)


def _class_counts(class_counts, K: int) -> np.ndarray:
    counts = np.asarray(class_counts)  # an object array if an int is past int64
    if len(counts) != K or not np.all((counts >= 1) & (counts < 2**63)):
        raise ValueError(f"class_counts must be K={K} integers >= 1 and < 2**63, got {counts.tolist()}")
    if sum(counts.tolist()) >= 2**63:  # in Python ints: an int64 sum would wrap
        raise ValueError(f"class_counts must total < 2**63, got {counts.tolist()}")
    return counts.astype(int)


def _sphere_rows(n: int, d: int, e_h: float, seed: int) -> np.ndarray:
    """n features drawn uniformly on the sphere |h|^2 = e_h, one draw per row in row order."""
    if not 0 < e_h < math.inf:
        raise ValueError(f"e_h must be finite and > 0, got {e_h}")
    rng = np.random.default_rng(seed)
    features = np.empty((n, d))
    for h in features:
        rng.standard_normal(out=h)
        h *= np.sqrt(e_h) / np.linalg.norm(h)
    return features


def dlpm_problem(classifier: FixedClassifier, class_counts, e_h: float,
                 feature_seed: int) -> PeeledProblem:
    """Decoupled LPM: fixed classifier, features drawn on the sphere with ``feature_seed``."""
    class_counts = _class_counts(class_counts, classifier.num_classes)
    features = _sphere_rows(int(class_counts.sum()), classifier.dim, e_h, feature_seed)
    e_w = float(classifier.lengths[0] ** 2) if classifier.is_uniform() else float("nan")
    return PeeledProblem(features, class_counts, classifier, float(e_h), e_w)


def lpm_problem(d: int, K: int, class_counts, e_h: float, e_w: float, seed: int,
                feature_seed: int) -> PeeledProblem:
    """Full LPM: a learnable classifier drawn uniformly on the sphere |w|^2 = E_W with ``seed``."""
    if K < 2:
        raise ValueError(f"need at least K=2 classes, got K={K}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got d={d}")
    if not 0 < e_w < math.inf:
        raise ValueError(f"e_w must be finite and > 0, got {e_w}")
    class_counts = _class_counts(class_counts, K)
    features = _sphere_rows(int(class_counts.sum()), d, e_h, feature_seed)
    W = np.random.default_rng(seed).standard_normal((d, K))
    W *= np.sqrt(e_w) / np.linalg.norm(W, axis=0, keepdims=True)
    return PeeledProblem(features, class_counts, W, float(e_h), float(e_w))


def analytic_optimum(classifier: FixedClassifier, e_h: float) -> np.ndarray:
    """Closed-form optimum h*_k = sqrt(E_H/E_W) w*_k, one column per class.

    Only valid for uniform-length classifiers; the closed form is not
    proven for class-weighted lengths and is refused there.
    """
    if not classifier.is_uniform():
        raise ValueError("analytic optimum is only known for uniform-length classifiers")
    return np.sqrt(e_h) * classifier.frame.columns


def _gap_targets(classifier: FixedClassifier, e_h: float) -> np.ndarray:
    return np.sqrt(e_h * classifier.e_w) * classifier.frame.gram_target()


@dataclass
class StepRecord:
    step: int
    loss: float
    gap: float  # NaN when no oracle (LPM / non-uniform classifier)
    grad_norm: float  # max displacement / step size; NaN before the first step
    mean_dist: np.ndarray  # per-class mean |h - h*|; NaN entries without oracle


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    final: PeeledProblem = None
    stop_reason: str = ""


@np.errstate(over="ignore", invalid="ignore")  # each overflow ends as a NumericDivergence
def optimize(problem: PeeledProblem, loss_kind: str, step_size: float, max_steps: int,
             stop_tol: float = 0.0) -> Trajectory:
    """Projected gradient descent on a peeled problem.

    Every step maps each feature h <- Proj(h - step_size dL/dh, E_H); in
    LPM mode the classifier columns take the analogous projected step
    against the averaged objective. Stops at max_steps, or when the
    optimality gap (DLPM with oracle) or the displacement norm
    (otherwise) falls below stop_tol. A step that leaves the features or
    the classifier non-finite, or a record whose loss, gap or class mean
    distance to the optimum is not finite, raises NumericDivergence.
    """
    if loss_kind not in ("ce", "dr"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if not 0 <= stop_tol < math.inf:
        raise ValueError(f"stop_tol must be finite and >= 0, got {stop_tol}")

    X = problem.features.astype(float, order="C")
    labels = problem.labels
    N = X.shape[0]
    fixed = problem.is_fixed_classifier
    Wmat = problem.classifier_matrix.copy()

    lengths = (problem.classifier.lengths if fixed
               else np.full(problem.num_classes, np.sqrt(problem.e_w)))
    dr_targets = (lengths * np.sqrt(problem.e_h))[labels]
    cols = Wmat[:, labels]  # gathered once for a fixed classifier, per step in LPM

    has_oracle = fixed and problem.classifier.is_uniform()
    if has_oracle:
        h_rows = analytic_optimum(problem.classifier, problem.e_h)[:, labels].T
        gap_rows = _gap_targets(problem.classifier, problem.e_h)[labels]
        dots = np.empty((N, problem.num_classes))
        ends = np.cumsum(problem.class_counts).tolist()
        spans = list(zip([0] + ends[:-1], ends))  # class k owns rows a:b (class-major)

    onehot = np.eye(problem.num_classes)[labels] if not fixed else None
    X_new, D, rows = np.empty_like(X), np.empty_like(X), np.empty(N)

    def loss_terms():
        return ce_terms(X, labels, Wmat) if loss_kind == "ce" else dr_terms(X, cols, dr_targets)

    def row_norms(A):  # np.linalg.norm(A, axis=1) in numpy's arithmetic, squaring A in place
        return np.sqrt(np.add.reduce(np.multiply(A, A, out=A), axis=1, out=rows), out=rows)

    def snapshot(step, grad_norm, per_sample):
        loss = float(np.add.reduce(per_sample) / N)  # np.mean's arithmetic
        if has_oracle:
            np.subtract(np.matmul(X, Wmat, out=dots), gap_rows, out=dots)
            gap = float(np.abs(dots, out=dots).max())
            dists = row_norms(np.subtract(X, h_rows, out=D))
            mean_d = np.array([np.add.reduce(dists[a:b]) / (b - a) for a, b in spans])
            finite = math.isfinite(gap) and np.isfinite(mean_d).all()
        else:
            gap, mean_d, finite = float("nan"), np.full(problem.num_classes, np.nan), True
        if not (finite and math.isfinite(loss)):
            raise NumericDivergence(f"loss or distance to the optimum out of range at step {step}")
        return StepRecord(step, loss, gap, grad_norm, mean_d)

    # the terms of X_t give the record of step t and the gradient of step t+1
    per_sample, aux = loss_terms()
    traj = Trajectory(stop_reason="max_steps")
    traj.records.append(snapshot(0, float("nan"), per_sample))
    stop_by = "gap" if has_oracle else "grad_norm"

    for t in range(1, max_steps + 1):
        if loss_kind == "ce":
            np.subtract(np.matmul(aux, Wmat.T, out=D), cols.T, out=D)
        else:
            np.multiply(aux[:, None], cols.T, out=D)
        np.subtract(X, np.multiply(step_size, D, out=D), out=X_new)
        _project_rows(X_new, problem.e_h)
        W_new = Wmat  # a fixed classifier: a non-finite entry already fails the step-0 loss
        if not fixed:
            dlogits = aux - onehot if loss_kind == "ce" else aux[:, None] * onehot
            Gw = X.T @ dlogits / N
            W_new = Wmat - step_size * Gw
            if _project_rows(W_new.T, problem.e_w):
                # keep a projected W column-major, the layout the LPM payloads
                # were recorded with: matmul and axis-0 sums round by layout
                W_new = np.asfortranarray(W_new)
            cols = W_new[:, labels]

        if not (np.all(np.isfinite(X_new)) and (fixed or np.all(np.isfinite(W_new)))):
            raise NumericDivergence(f"non-finite values encountered at step {t}")

        disp = row_norms(np.subtract(X_new, X, out=D)).max()
        if not fixed:
            disp = max(disp, np.linalg.norm(W_new - Wmat, axis=0).max())
        grad_norm = float(disp / step_size)
        X, X_new, Wmat = X_new, X, W_new

        per_sample, aux = loss_terms()
        traj.records.append(snapshot(t, grad_norm, per_sample))
        if stop_tol > 0 and getattr(traj.records[-1], stop_by) < stop_tol:
            traj.stop_reason = stop_by
            break

    traj.final = replace(problem, features=X, classifier=problem.classifier if fixed else Wmat)
    return traj


@dataclass(frozen=True)
class MinorityProbe:
    """Pairwise cosines among a set of classifier columns."""

    min_cosine: float
    mean_cosine: float
    pairs: list  # (i, j, cosine)


def minority_collapse_probe(W: np.ndarray, minor_classes) -> MinorityProbe:
    """Measure how merged the listed classifier columns are.

    Under imbalanced CE training the minor-class columns drift toward a
    common direction; cosines near 1 mean collapsed, the balanced-ETF
    reference is -1/(K-1).
    """
    minor = list(minor_classes)
    if len(minor) < 2:
        raise ValueError("need at least two minor classes to compare")
    W = np.asarray(W, dtype=float)
    norms = np.linalg.norm(W[:, minor], axis=0)
    if not np.all(W[:, minor].any(axis=0)):
        raise ValueError("degenerate zero-norm classifier column among minor classes")
    if np.any(norms < 1e-300):
        raise NumericDivergence("the squared entries of a minor-class column underflow to zero")
    cols = W[:, minor] / norms
    pairs = [(minor[a], minor[b], float(cols[:, a] @ cols[:, b]))
             for a, b in combinations(range(len(minor)), 2)]
    cosines = [c for _, _, c in pairs]
    return MinorityProbe(float(min(cosines)), float(np.mean(cosines)), pairs)
