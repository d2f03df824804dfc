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
"""

from dataclasses import dataclass, field

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, ce_terms, dr_terms


def project_ball(v: np.ndarray, E: float) -> np.ndarray:
    """Orthogonal projection of v onto the ball {x : |x|^2 <= E}.

    Returns v unchanged for interior points, else v * sqrt(E)/|v|. The
    scaled result is nudged down by ulps if rounding left it outside the
    ball, so the projection is exactly idempotent.
    """
    if E <= 0:
        raise ValueError("ball radius squared E must be positive")
    v = np.asarray(v, dtype=float)
    nsq = float(v @ v)
    if nsq <= E:
        return v
    w = v * np.sqrt(E / nsq)
    while float(w @ w) > E:
        w = w * (1.0 - 4.0 * np.finfo(float).eps)
    return w


def _project_rows(X: np.ndarray, E: float) -> np.ndarray:
    """Row-wise ball projection (vectorized; rows end within ulps of the sphere)."""
    nsq = np.einsum("ij,ij->i", X, X)
    over = nsq > E
    if not np.any(over):
        return X
    X = X.copy()
    X[over] *= np.sqrt(E / nsq[over])[:, None]
    return X


@dataclass
class PeeledProblem:
    """One layer-peeled instance.

    ``classifier`` is a FixedClassifier for the decoupled model (DLPM) or
    a learnable (d, K) matrix for the full LPM. Features are stored
    class-major as an (N, d) array with per-sample labels.
    """

    features: np.ndarray | None
    labels: np.ndarray
    class_counts: np.ndarray
    classifier: object
    e_h: float
    e_w: float

    @property
    def is_fixed_classifier(self) -> bool:
        return isinstance(self.classifier, FixedClassifier)

    @property
    def classifier_matrix(self) -> np.ndarray:
        if self.is_fixed_classifier:
            return self.classifier.scaled_columns
        return self.classifier

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    @property
    def dim(self) -> int:
        return self.classifier_matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.class_counts.sum())


def dlpm_problem(classifier: FixedClassifier, class_counts, e_h: float) -> PeeledProblem:
    """Decoupled LPM: fixed classifier, features to be initialized."""
    class_counts = np.asarray(class_counts, dtype=int)
    if np.any(class_counts < 1):
        raise ValueError("every class needs at least one sample")
    e_w = float(classifier.lengths[0] ** 2) if classifier.is_uniform() else float("nan")
    labels = np.repeat(np.arange(len(class_counts)), class_counts)
    return PeeledProblem(None, labels, class_counts, classifier, float(e_h), e_w)


def lpm_problem(d: int, K: int, class_counts, e_h: float, e_w: float, seed: int) -> PeeledProblem:
    """Full LPM: learnable classifier initialized uniformly on the sphere |w|^2 = E_W."""
    class_counts = np.asarray(class_counts, dtype=int)
    if len(class_counts) != K:
        raise ValueError("class_counts must have K entries")
    if np.any(class_counts < 1):
        raise ValueError("every class needs at least one sample")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((d, K))
    W *= np.sqrt(e_w) / np.linalg.norm(W, axis=0, keepdims=True)
    labels = np.repeat(np.arange(K), class_counts)
    return PeeledProblem(None, labels, class_counts, W, float(e_h), float(e_w))


def init_features(problem: PeeledProblem, seed: int, nonneg_cos: bool = False) -> PeeledProblem:
    """Sample every feature uniformly on the sphere |h|^2 = E_H.

    With ``nonneg_cos`` each feature is resampled until
    cos(h, w*_c) >= 0, the regime in which the one-step contraction
    analysis holds; requires a fixed classifier.
    """
    if nonneg_cos and not problem.is_fixed_classifier:
        raise ValueError("nonneg_cos initialization needs a fixed classifier")
    rng = np.random.default_rng(seed)
    d = problem.dim
    rows = []
    for k, n_k in enumerate(problem.class_counts):
        for _ in range(int(n_k)):
            while True:
                h = rng.standard_normal(d)
                h *= np.sqrt(problem.e_h) / np.linalg.norm(h)
                if not nonneg_cos:
                    break
                if h @ problem.classifier_matrix[:, k] >= 0.0:
                    break
            rows.append(h)
    return PeeledProblem(
        np.vstack(rows),
        problem.labels,
        problem.class_counts,
        problem.classifier,
        problem.e_h,
        problem.e_w,
    )


def analytic_optimum(classifier: FixedClassifier, e_h: float) -> np.ndarray:
    """Closed-form optimum h*_k = sqrt(E_H/E_W) w*_k, one column per class.

    Only valid for uniform-length classifiers; the closed form is not
    proven for class-weighted lengths and is refused there.
    """
    if not classifier.is_uniform():
        raise ValueError("analytic optimum is only known for uniform-length classifiers")
    return np.sqrt(e_h) * classifier.frame.columns


def _gap_targets(classifier: FixedClassifier, e_h: float) -> np.ndarray:
    K = classifier.num_classes
    scale = np.sqrt(e_h * classifier.e_w)
    return scale * (K / (K - 1) * np.eye(K) - 1.0 / (K - 1))


def optimality_gap(problem: PeeledProblem) -> float:
    """max over samples i and classes k' of |h_i . w*_k' - target(label_i, k')|."""
    if not problem.is_fixed_classifier:
        raise ValueError("optimality gap needs a fixed classifier (DLPM)")
    targets = _gap_targets(problem.classifier, problem.e_h)  # raises if non-uniform
    dots = problem.features @ problem.classifier_matrix
    return float(np.abs(dots - targets[problem.labels]).max())


@dataclass
class OptimizerConfig:
    step_size: float
    max_steps: int
    stop_tol: float = 0.0
    seed: int = 0
    mode: str = "full-batch"  # or "per-sample" (cyclic; DLPM only)

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.mode not in ("full-batch", "per-sample"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class StepRecord:
    step: int
    loss: float
    gap: float  # NaN when no oracle (LPM / non-uniform classifier)
    grad_norm: float  # max displacement / step size; NaN before the first step
    class_mean_dist: np.ndarray  # per-class mean |h - h*|; NaN entries without oracle


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    final: PeeledProblem = None
    stop_reason: str = ""

    def csv_rows(self):
        header = ["step", "loss", "gap", "grad_norm"] + [
            f"mean_dist_{k}" for k in range(len(self.records[0].class_mean_dist))
        ]
        rows = [
            [r.step, r.loss, r.gap, r.grad_norm, *r.class_mean_dist] for r in self.records
        ]
        return header, rows


def optimize(problem: PeeledProblem, loss_kind: str, config: OptimizerConfig) -> Trajectory:
    """Projected gradient descent on a peeled problem.

    Every step maps each feature h <- Proj(h - gamma dL/dh, E_H); in LPM
    mode the classifier columns take the analogous projected step against
    the averaged objective. Stops at max_steps, or when the optimality
    gap (DLPM with oracle) or the displacement norm (otherwise) falls
    below stop_tol.
    """
    if loss_kind not in ("ce", "dr"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if problem.features is None:
        raise ValueError("problem has no features; call init_features first")
    if config.mode == "per-sample" and not problem.is_fixed_classifier:
        raise ValueError("per-sample cyclic mode is only defined for the decoupled model")

    X = problem.features.copy()
    labels = problem.labels
    N = X.shape[0]
    fixed = problem.is_fixed_classifier
    Wmat = problem.classifier_matrix.copy()
    gamma = config.step_size

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
        return dr_terms(rows, y, Wmat, dr_targets)

    def feature_grads(aux, y):
        if loss_kind == "ce":
            return aux @ Wmat.T - Wmat[:, y].T
        return aux[:, None] * Wmat[:, y].T

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
        return StepRecord(step, loss, gap, grad_norm, mean_d)

    # the terms of X_t give the record of step t and the gradient of step t+1
    per_sample, aux = loss_terms(X, labels)
    traj = Trajectory()
    traj.records.append(snapshot(0, float("nan"), per_sample))
    stop_reason = "max_steps"

    for t in range(1, config.max_steps + 1):
        if config.mode == "full-batch":
            G = feature_grads(aux, labels)
            # overflow here surfaces as the divergence error below
            with np.errstate(over="ignore", invalid="ignore"):
                X_new = _project_rows(X - gamma * G, problem.e_h)
            if not fixed:
                dlogits = aux - onehot if loss_kind == "ce" else aux[:, None] * onehot
                Gw = X.T @ dlogits / N
                W_new = _project_rows((Wmat - gamma * Gw).T, problem.e_w).T
            else:
                W_new = Wmat
        else:
            # cyclic sweep in class-major, index-major order
            X_new = X.copy()
            for i in range(N):
                y = labels[i : i + 1]
                g = feature_grads(loss_terms(X_new[i : i + 1], y)[1], y)
                X_new[i] = project_ball(X_new[i] - gamma * g[0], problem.e_h)
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
        if config.stop_tol > 0:
            if has_oracle and traj.records[-1].gap < config.stop_tol:
                stop_reason = "gap"
                break
            if not has_oracle and grad_norm < config.stop_tol:
                stop_reason = "grad_norm"
                break

    final_classifier = problem.classifier if fixed else Wmat
    traj.final = PeeledProblem(
        X, labels, problem.class_counts, final_classifier, problem.e_h, problem.e_w
    )
    traj.stop_reason = stop_reason
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
    if np.any(norms < 1e-300):
        raise ValueError("degenerate zero-norm classifier column among minor classes")
    cols = W[:, minor] / norms
    pairs = []
    for a in range(len(minor)):
        for b in range(a + 1, len(minor)):
            pairs.append((minor[a], minor[b], float(cols[:, a] @ cols[:, b])))
    cosines = [c for _, _, c in pairs]
    return MinorityProbe(float(min(cosines)), float(np.mean(cosines)), pairs)
