"""Small MLP trained on synthetic imbalanced data, four classifier/loss regimes.

The backbone is a plain affine+ReLU stack with hand-written forward and
backward passes (exact chain rule, finite-difference checked in the
tests). Datasets are Gaussian blobs around class centers placed on a
scaled ETF in input space, with per-class counts decaying exponentially
to an imbalance ratio tau = n_min/n_max; test sets are balanced. A dataset
is a ``FeatureBatch`` of inputs, the type that also carries the features
the NC metrics read.

Training regimes:
    learnable-ce    learnable classifier, plain CE
    learnable-wce   learnable classifier, CE weighted by N/(K n_k) per sample
    etf-ce          frozen ETF classifier (uniform lengths), CE
    etf-dr          frozen ETF classifier (lengths N/(K n_k)), DR loss

Each epoch logs the train loss, balanced test accuracy, and the full NC
statistics bundle on both train and test features.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .batches import FeatureBatch
from .etf import generate_etf, scale_classifier, uniform_classifier
from .losses import NumericDivergence, ce_terms, dr_terms
from .metrics import NcReport, nc_report

REGIMES = ("learnable-ce", "learnable-wce", "etf-ce", "etf-dr")


# --- backbone ---------------------------------------------------------------


@dataclass
class MlpBackbone:
    """Affine+ReLU stack; the last layer is linear so features are unconstrained."""

    weights: list  # layer l: (n_out, n_in)
    biases: list

    @classmethod
    def init(cls, layer_sizes, seed: int) -> "MlpBackbone":
        """He-initialized weights, zero biases; layer_sizes = [d_in, ..., d]."""
        rng = np.random.default_rng([seed, 11])
        ws, bs = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            ws.append(rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in))
            bs.append(np.zeros(n_out))
        return cls(ws, bs)

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray, out: np.ndarray = None):
        """Features for a (B, d_in) batch, and the cache backward needs.

        The cache lists the layer inputs: ``x``, then each hidden ReLU output.
        Each layer is rectified in place in its fresh product array, never in ``x``.
        The features are written into ``out`` when given, a (B, d) float array.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.weights[0].shape[1]:
            raise ValueError(
                f"input dim {x.shape[1]} != layer dim {self.weights[0].shape[1]}"
            )
        inputs, a = [], x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if l:  # rectify the hidden layer below; the last layer stays linear
                np.multiply(a, a > 0, out=a)
            inputs.append(a)
            a = np.matmul(a, w.T, out=out if l == last else None)
            a += b
        return a, inputs

    def backward(self, inputs, grad_feature: np.ndarray):
        """Exact parameter gradients for the forward pass that cached the layer ``inputs``."""
        if len(inputs) != len(self.weights):
            raise ValueError("cache does not match this model")
        g = np.atleast_2d(np.asarray(grad_feature, dtype=float))
        d_ws = [None] * len(self.weights)
        d_bs = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            d_ws[l] = g.T @ inputs[l]
            d_bs[l] = g.sum(axis=0)
            if l > 0:
                g = (g @ self.weights[l]) * (inputs[l] > 0)  # relu(z) > 0 exactly where z > 0
        return d_ws, d_bs


def _normalize_rows(F: np.ndarray, e_h: float, out: np.ndarray = None):
    """Row-wise sphere normalization, (normalized rows, row norms).

    (Near-)zero rows map to zero instead of raising: samples whose every
    hidden unit is dead produce an exactly-zero feature at init, and such
    rows simply contribute nothing until the parameters move. The rows
    are written into ``out`` when given, which may be ``F`` itself.
    """
    norms = np.linalg.norm(F, axis=1, keepdims=True)
    dead = norms <= 1e-12
    if np.any(dead):
        # infinite norm zeroes both the normalized row and its pulled-back
        # gradient, so dead rows drop out of the step entirely
        norms = np.where(dead, np.inf, norms)
    return np.multiply(F, np.sqrt(e_h) / norms, out=out), norms


def _normalize_rows_vjp(F: np.ndarray, norms: np.ndarray, G: np.ndarray, e_h: float):
    h_hat = F / norms
    return (np.sqrt(e_h) / norms) * (G - np.sum(h_hat * G, axis=1, keepdims=True) * h_hat)


def class_weights(counts) -> np.ndarray:
    """Per-class lengths/weights N / (K n_k) of K classes with N samples in all."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ValueError("class counts must be positive")
    return counts.sum() / (len(counts) * counts)


# --- synthetic data ---------------------------------------------------------


def _check_int(config, name, low, high=2**63):
    """Refuse field ``name`` unless it is an int (no bool) in [low, high); numpy sizes are int64."""
    value = getattr(config, name)
    if type(value) is not int or value < low:  # the type test first: no comparison can raise
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if value >= high:
        raise ValueError(f"{name}={value} is too large: it must be < 2**{high.bit_length() - 1}")


def _check_float(config, name, ok=lambda v: True, rule=""):
    """Store field ``name`` as a float: a number (no bool) in float range for which ``ok`` holds."""
    value = getattr(config, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # NaN fails; an int compares exactly
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    object.__setattr__(config, name, float(value))


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Gaussian blobs on ETF-placed centers with exponentially decayed counts."""

    num_classes: int
    input_dim: int
    n_max: int
    imbalance_ratio: float  # tau = n_min / n_max, in (0, 1]
    separation: float = 3.0
    noise_scale: float = 1.0
    seed: int = 0
    test_per_class: int = 0  # 0 -> n_max

    def __post_init__(self):
        _check_int(self, "num_classes", 2)
        _check_int(self, "input_dim", self.num_classes - 1)  # an ETF of K classes spans K-1 dims
        _check_int(self, "n_max", 1, 2**53)  # n_k is rounded in float64: exact below 2**53
        _check_float(self, "imbalance_ratio", lambda v: 0 < v <= 1, "in (0, 1]")
        _check_float(self, "separation")
        _check_float(self, "noise_scale")
        _check_int(self, "seed", 0)
        _check_int(self, "test_per_class", 0)

    def counts(self) -> np.ndarray:
        """n_k = round(n_max * tau^(k / (K-1)))."""
        exponents = np.arange(self.num_classes) / (self.num_classes - 1)
        n = np.rint(self.n_max * self.imbalance_ratio**exponents).astype(int)
        if np.any(n < 1):
            raise ValueError(f"n_max={self.n_max} and imbalance_ratio={self.imbalance_ratio} "
                             "round a class count to zero")
        return n


def make_imbalanced_dataset(spec: SyntheticDatasetSpec):
    """(imbalanced train set, balanced test set), deterministic per seed."""
    counts = spec.counts()
    K = spec.num_classes
    centers = spec.separation * generate_etf(spec.input_dim, K, spec.seed).columns.T
    rng_train = np.random.default_rng([spec.seed, 1])
    rng_test = np.random.default_rng([spec.seed, 2])
    per_test = spec.test_per_class or spec.n_max

    def draw(rng, per_class):  # in place, each class's rows round as center + scale * normal
        xs = np.empty((per_class.sum(), spec.input_dim))
        for k, rows in enumerate(np.split(xs, np.cumsum(per_class)[:-1])):
            rng.standard_normal(out=rows)
            rows *= spec.noise_scale
            rows += centers[k]
        return FeatureBatch(xs, np.repeat(np.arange(K), per_class), K)

    with np.errstate(over="ignore"):  # an overflow draws inf, which FeatureBatch refuses
        return draw(rng_train, counts), draw(rng_test, np.full(K, per_test))


# --- training ---------------------------------------------------------------


#: default step size per regime, from a stability/quality grid at desk
#: scale: the weighted-CE baseline needs a small rate (per-sample weights
#: reach N/(K n_min)), while the sphere-normalized ETF regimes tolerate and
#: need a large one (the normalization Jacobian divides gradients by the raw
#: feature norm)
_STEP_SIZES = {"learnable-ce": 0.05, "learnable-wce": 0.02, "etf-ce": 1.0, "etf-dr": 1.0}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    step_size: float = None  # default: _STEP_SIZES[regime]
    milestones: tuple = ()  # default: 80% and 90% of epochs
    momentum: float = 0.9
    regime: str = "learnable-ce"  # one of REGIMES
    e_h: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; choose from {REGIMES}")
        if self.step_size is None:
            object.__setattr__(self, "step_size", _STEP_SIZES[self.regime])
        _check_int(self, "epochs", 1)
        _check_int(self, "batch_size", 1)
        _check_int(self, "seed", 0)
        _check_float(self, "e_h", lambda v: v > 0, "> 0")
        _check_float(self, "step_size", lambda v: v > 0, "> 0")
        _check_float(self, "momentum", lambda v: 0 <= v < 1, "in [0, 1)")
        ms = self.milestones
        if not isinstance(ms, (list, tuple)) or any(type(m) is not int for m in ms):
            raise ValueError(f"milestones must be a list of integers, got {ms!r}")
        ends = (0, *ms, self.epochs)  # 0 < ms[0] < ... < ms[-1] < epochs
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("milestones must be strictly increasing and in [1, epochs), "
                             f"got {list(ms)}")
        if not ms:  # decay at 80% and 90% of the epochs, deduped for tiny epoch counts
            ms = tuple(sorted({m for m in (int(0.8 * self.epochs), int(0.9 * self.epochs))
                               if 0 < m < self.epochs}))
        object.__setattr__(self, "milestones", tuple(ms))

    @property
    def fixed_etf(self) -> bool:
        """Frozen ETF classifier and sphere-normalized features (etf-ce, etf-dr)."""
        return self.regime.startswith("etf-")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    bal_acc: float
    train: NcReport
    test: NcReport


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    classifier: np.ndarray = None
    per_class_acc: np.ndarray = None

    @property
    def final_bal_acc(self) -> float:
        return self.records[-1].bal_acc


def _build_classifier(config: TrainConfig, feature_dim: int, counts: np.ndarray, rng):
    K = len(counts)
    if not config.fixed_etf:
        return rng.standard_normal((feature_dim, K)) / np.sqrt(feature_dim), None
    frame = generate_etf(feature_dim, K, config.seed)
    if config.regime == "etf-dr":
        clf = scale_classifier(frame, class_weights(counts))
    else:
        clf = uniform_classifier(frame, 1.0)
    return clf.scaled_columns, clf


def _features_for_metrics(model, x, config, out=None):
    """The features the metrics read for inputs ``x``, written into ``out`` when given.

    The hidden layers are let go before the fixed-ETF regimes normalize the rows in place.
    """
    f = model.forward(x, out)[0]
    if config.fixed_etf:
        _normalize_rows(f, config.e_h, out=f)
    return f


def train(model: MlpBackbone, train_set: FeatureBatch, test_set: FeatureBatch,
          config: TrainConfig) -> TrainLog:
    """Minibatch SGD with momentum; fixed-ETF classifiers receive no updates."""
    counts = train_set.counts()
    K = train_set.num_classes
    rng = np.random.default_rng([config.seed, 12])
    W, fixed_clf = _build_classifier(
        config, model.feature_dim, counts, np.random.default_rng([config.seed, 13])
    )
    fixed, dr = config.fixed_etf, config.regime == "etf-dr"
    sample_weights = (
        class_weights(counts)[train_set.labels] if config.regime == "learnable-wce" else None
    )
    dr_targets = fixed_clf.lengths * np.sqrt(config.e_h) if dr else None
    # fixed lengths weight the loss, not the decision rule (see balanced_accuracy)
    W_unit = W / np.linalg.norm(W, axis=0, keepdims=True) if fixed else None

    params = [*model.weights, *model.biases] + ([] if fixed else [W])  # updated in place
    velocities = [np.zeros_like(p) for p in params]
    N = train_set.size
    log = TrainLog()
    # each epoch writes its features over the last epoch's arrays; freeing them between
    # epochs would have the allocator hand the pages back and fault them in again
    train_feats = test_feats = None

    for epoch in range(config.epochs):
        # overflow here surfaces as the divergence errors below
        with np.errstate(over="ignore", invalid="ignore"):
            lr = config.step_size * 0.1 ** sum(epoch >= m for m in config.milestones)
            perm = rng.permutation(N)
            loss_sum = 0.0
            for start in range(0, N, config.batch_size):
                idx = perm[start : start + config.batch_size]
                xb, yb = train_set.features[idx], train_set.labels[idx]
                B = len(idx)
                feats, cache = model.forward(xb)
                used, norms = _normalize_rows(feats, config.e_h) if fixed else (feats, None)

                if dr:
                    per_sample, r = dr_terms(used, W[:, yb], dr_targets[yb])
                    grad_used = (r / B)[:, None] * W[:, yb].T
                else:
                    per_sample, coef = ce_terms(used, yb, W)
                    coef[np.arange(B), yb] -= 1.0
                    if sample_weights is not None:
                        wts = sample_weights[idx]
                        per_sample = per_sample * wts
                        coef = coef * wts[:, None]
                    grad_used = coef @ W.T / B
                    grad_clf = None if fixed else used.T @ coef / B
                loss_sum += float(per_sample.sum())
                if fixed:
                    grad_feats = _normalize_rows_vjp(feats, norms, grad_used, config.e_h)
                else:
                    grad_feats = grad_used

                if not np.isfinite(loss_sum):
                    raise NumericDivergence(f"training diverged at epoch {epoch}")

                d_ws, d_bs = model.backward(cache, grad_feats)
                grads = d_ws + d_bs if fixed else d_ws + d_bs + [grad_clf]
                for p, v, g in zip(params, velocities, grads):
                    v *= config.momentum
                    v += g
                    p -= lr * v

            train_feats = _features_for_metrics(model, train_set.features, config, train_feats)
            test_feats = _features_for_metrics(model, test_set.features, config, test_feats)
        if not all(np.all(np.isfinite(a)) for a in (W, train_feats, test_feats)):
            raise NumericDivergence(f"parameters diverged at epoch {epoch}")
        # one point up to rounding, or a spread too small to square (1e-154**2 is subnormal)
        if np.ptp(train_feats, axis=0).max() <= max(1e-12 * np.abs(train_feats).max(), 1e-154):
            raise NumericDivergence(f"train features collapsed to one point after epoch {epoch}")
        per_class_acc, bal_acc = balanced_accuracy(test_feats, test_set, W_unit if fixed else W)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                loss=loss_sum / N,
                bal_acc=bal_acc,
                train=nc_report(FeatureBatch(train_feats, train_set.labels, K), W),
                test=nc_report(FeatureBatch(test_feats, test_set.labels, K), W),
            )
        )
        log.per_class_acc = per_class_acc

    log.classifier = W
    return log


def balanced_accuracy(feats, test_set: FeatureBatch, W: np.ndarray):
    """(per-class accuracy vector, balanced accuracy) of test features by argmax logit.

    ``feats`` are the features train scores for the rows of ``test_set``, and
    ``W`` the classifier it scores them with: in the fixed-ETF regimes the
    unit frame directions, since the per-class lengths are a training-loss
    weighting, not a decision rule.
    """
    counts = test_set.counts()
    pred = np.argmax(feats @ W, axis=1)
    labels = test_set.labels
    per_class = np.bincount(labels[pred == labels], minlength=test_set.num_classes) / counts
    return per_class, float(per_class.mean())
