"""Small MLP trained on synthetic imbalanced data, four classifier/loss regimes.

The backbone is a plain affine+ReLU stack with hand-written forward and
backward passes (exact chain rule, finite-difference checked in the
tests). Datasets are Gaussian blobs around class centers placed on a
scaled ETF in input space, with per-class counts decaying exponentially
to an imbalance ratio tau = n_min/n_max; test sets are balanced.

Training regimes:
    learnable-ce    learnable classifier, plain CE
    learnable-wce   learnable classifier, CE weighted by N/(K n_k) per sample
    etf-ce          frozen ETF classifier (uniform lengths), CE
    etf-dr          frozen ETF classifier (lengths N/(K n_k)), DR loss

Each epoch logs the train loss, balanced test accuracy, and the full NC
statistics bundle on both train and test features.
"""

from dataclasses import dataclass, field

import numpy as np

from .batches import FeatureBatch
from .etf import generate_etf, scale_classifier, uniform_classifier
from .losses import NumericDivergence, ce_terms, dr_terms
from .metrics import NC_FIELDS, NcReport, nc_report

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

    def forward(self, x: np.ndarray):
        """Features for a (B, d_in) batch, plus the cache backward needs."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.weights[0].shape[1]:
            raise ValueError(
                f"input dim {x.shape[1]} != layer dim {self.weights[0].shape[1]}"
            )
        inputs, masks = [], []
        a = x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            z = a @ w.T + b
            if l < last:
                mask = z > 0
                masks.append(mask)
                a = z * mask
            else:
                a = z
        return a, (inputs, masks)

    def backward(self, cache, grad_feature: np.ndarray):
        """Exact parameter gradients for the cached forward pass."""
        inputs, masks = cache
        if len(inputs) != len(self.weights):
            raise ValueError("cache does not match this model")
        g = np.atleast_2d(np.asarray(grad_feature, dtype=float))
        d_ws = [None] * len(self.weights)
        d_bs = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            d_ws[l] = g.T @ inputs[l]
            d_bs[l] = g.sum(axis=0)
            if l > 0:
                g = (g @ self.weights[l]) * masks[l - 1]
        return d_ws, d_bs


def feature_normalize(h: np.ndarray, e_h: float) -> np.ndarray:
    """Rescale h onto the sphere |h|^2 = e_h."""
    h = np.asarray(h, dtype=float)
    n = np.linalg.norm(h)
    if n <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero feature vector")
    return h * (np.sqrt(e_h) / n)


def feature_normalize_vjp(h: np.ndarray, grad_out: np.ndarray, e_h: float) -> np.ndarray:
    """Pull a gradient back through feature_normalize (exact Jacobian)."""
    h = np.asarray(h, dtype=float)
    g = np.asarray(grad_out, dtype=float)
    n = np.linalg.norm(h)
    if n <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero feature vector")
    h_hat = h / n
    return (np.sqrt(e_h) / n) * (g - (h_hat @ g) * h_hat)


def _normalize_rows(F: np.ndarray, e_h: float, strict: bool = True):
    """Row-wise sphere normalization.

    Non-strict mode maps (near-)zero rows to zero instead of raising;
    samples whose every hidden unit is dead produce an exactly-zero
    feature at init, and such rows simply contribute nothing until the
    parameters move.
    """
    norms = np.linalg.norm(F, axis=1, keepdims=True)
    dead = norms <= 1e-12
    if np.any(dead):
        if strict:
            raise ValueError("cannot normalize a (near-)zero feature vector")
        # infinite norm zeroes both the normalized row and its pulled-back
        # gradient, so dead rows drop out of the step entirely
        norms = np.where(dead, np.inf, norms)
    return F * (np.sqrt(e_h) / norms), norms


def _normalize_rows_vjp(F: np.ndarray, norms: np.ndarray, G: np.ndarray, e_h: float):
    h_hat = F / norms
    return (np.sqrt(e_h) / norms) * (G - np.sum(h_hat * G, axis=1, keepdims=True) * h_hat)


def class_weights(counts, total: int = None, num_classes: int = None) -> np.ndarray:
    """Per-class lengths/weights N / (K n_k); N and K default to the counts'."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ValueError("class counts must be positive")
    N = counts.sum() if total is None else float(total)
    K = len(counts) if num_classes is None else int(num_classes)
    return N / (K * counts)


# --- synthetic data ---------------------------------------------------------


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

    def counts(self) -> np.ndarray:
        """n_k = round(n_max * tau^(k / (K-1)))."""
        if not 0.0 < self.imbalance_ratio <= 1.0:
            raise ValueError("imbalance_ratio must lie in (0, 1]")
        K = self.num_classes
        exponents = np.arange(K) / (K - 1) if K > 1 else np.zeros(1)
        n = np.rint(self.n_max * self.imbalance_ratio**exponents).astype(int)
        if np.any(n < 1):
            raise ValueError("imbalance profile rounds a class count to zero")
        return n


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray  # (N, d_in)
    y: np.ndarray  # (N,)
    num_classes: int

    @property
    def size(self) -> int:
        return self.x.shape[0]


def make_imbalanced_dataset(spec: SyntheticDatasetSpec):
    """(imbalanced train set, balanced test set), deterministic per seed."""
    counts = spec.counts()
    K = spec.num_classes
    centers = spec.separation * generate_etf(spec.input_dim, K, spec.seed).columns.T
    rng_train = np.random.default_rng([spec.seed, 1])
    rng_test = np.random.default_rng([spec.seed, 2])
    per_test = spec.test_per_class or spec.n_max

    def draw(rng, per_class):
        xs, ys = [], []
        for k in range(K):
            xs.append(centers[k] + spec.noise_scale * rng.standard_normal((per_class[k], spec.input_dim)))
            ys.append(np.full(per_class[k], k, dtype=int))
        return Dataset(np.vstack(xs), np.concatenate(ys), K)

    return draw(rng_train, counts), draw(rng_test, np.full(K, per_test))


def save_dataset_csv(path, dataset: Dataset):
    from .serialize import write_csv

    header = ["label"] + [f"x{i}" for i in range(dataset.x.shape[1])]
    rows = [[int(y), *x] for y, x in zip(dataset.y, dataset.x)]
    write_csv(path, header, rows)


def load_dataset_csv(path, num_classes: int = 0) -> Dataset:
    """Read a ``label,x0,...`` CSV; a bad row raises ValueError naming file and line."""
    import csv as _csv

    with open(path, newline="") as f:
        reader = _csv.reader(f)
        next(reader, None)
        ys, xs = [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            try:
                label, x = int(row[0]), [float(v) for v in row[1:]]
            except (IndexError, ValueError):
                raise ValueError(f"{where}: expected an integer label followed by numbers") from None
            if not 0 <= label < (num_classes or float("inf")):
                raise ValueError(f"{where}: label {label} outside [0, {num_classes or 'inf'})")
            if xs and len(x) != len(xs[0]):
                raise ValueError(f"{where}: {len(x)} features, the first row has {len(xs[0])}")
            ys.append(label)
            xs.append(x)
    if not ys:
        raise ValueError(f"{path}: no data rows")
    y = np.asarray(ys, dtype=int)
    return Dataset(np.asarray(xs, dtype=float), y, num_classes or int(y.max()) + 1)


# --- training ---------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    step_size: float = 0.1
    milestones: tuple = ()  # default: 80% and 90% of epochs
    momentum: float = 0.9
    classifier_mode: str = "learnable"  # "learnable" | "fixed-etf"
    loss_kind: str = "ce"  # "ce" | "weighted-ce" | "dr"
    feature_norm: str = "none"  # "sphere" | "length-reg" | "none"
    norm_lambda: float = 0.01  # length-reg strength; no canonical value
    e_h: float = 1.0
    classifier_lengths: str = "auto"  # "auto" | "uniform" | "class-weighted"
    seed: int = 0

    def resolved_milestones(self):
        if self.milestones:
            ms = tuple(int(m) for m in self.milestones)
            if any(b <= a for a, b in zip(ms, ms[1:])) or ms[-1] >= self.epochs:
                raise ValueError("milestones must be strictly increasing and < epochs")
            return ms
        # default decay points at 80% and 90%, deduped for tiny epoch counts
        ms = {int(0.8 * self.epochs), int(0.9 * self.epochs)}
        return tuple(sorted(m for m in ms if 0 < m < self.epochs))


def regime_config(regime: str, epochs: int, seed: int, **overrides) -> TrainConfig:
    """Canonical config for one of the four comparison regimes.

    Default step sizes come from a per-regime stability/quality grid at
    desk scale: the weighted-CE baseline needs a small rate (per-sample
    weights reach N/(K n_min)), while the sphere-normalized ETF regimes
    tolerate and need a large one (the normalization Jacobian divides
    gradients by the raw feature norm).
    """
    base = dict(epochs=epochs, seed=seed)
    table = {
        "learnable-ce": dict(
            classifier_mode="learnable", loss_kind="ce", feature_norm="none", step_size=0.05
        ),
        "learnable-wce": dict(
            classifier_mode="learnable", loss_kind="weighted-ce", feature_norm="none",
            step_size=0.02,
        ),
        "etf-ce": dict(
            classifier_mode="fixed-etf", loss_kind="ce", feature_norm="sphere", step_size=1.0
        ),
        "etf-dr": dict(
            classifier_mode="fixed-etf", loss_kind="dr", feature_norm="sphere", step_size=1.0
        ),
    }
    if regime not in table:
        raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")
    base.update(table[regime])
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    bal_acc: float
    nc_train: NcReport
    nc_test: NcReport


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    classifier: np.ndarray = None
    per_class_acc: np.ndarray = None

    def csv_rows(self):
        header = (
            ["epoch", "loss", "bal_acc"]
            + [f"train_{f}" for f in NC_FIELDS]
            + [f"test_{f}" for f in NC_FIELDS]
        )
        rows = [
            [r.epoch, r.loss, r.bal_acc, *r.nc_train.as_row(), *r.nc_test.as_row()]
            for r in self.records
        ]
        return header, rows

    @property
    def final_bal_acc(self) -> float:
        return self.records[-1].bal_acc


def _build_classifier(config: TrainConfig, feature_dim: int, counts: np.ndarray, rng):
    K = len(counts)
    if config.classifier_mode == "learnable":
        return rng.standard_normal((feature_dim, K)) / np.sqrt(feature_dim), None
    if config.classifier_mode != "fixed-etf":
        raise ValueError(f"unknown classifier mode {config.classifier_mode!r}")
    frame = generate_etf(feature_dim, K, config.seed)
    mode = config.classifier_lengths
    if mode == "auto":
        mode = "class-weighted" if config.loss_kind == "dr" else "uniform"
    if mode == "uniform":
        clf = uniform_classifier(frame, 1.0)
    elif mode == "class-weighted":
        clf = scale_classifier(frame, class_weights(counts))
    else:
        raise ValueError(f"unknown classifier_lengths {config.classifier_lengths!r}")
    return clf.scaled_columns, clf


def _features_for_metrics(model, x, config):
    f, _ = model.forward(x)
    if config.feature_norm == "sphere":
        f, _ = _normalize_rows(f, config.e_h, strict=False)
    return f


def train(model: MlpBackbone, train_set: Dataset, test_set: Dataset, config: TrainConfig) -> TrainLog:
    """Minibatch SGD with momentum; fixed-ETF classifiers receive no updates."""
    if config.loss_kind not in ("ce", "weighted-ce", "dr"):
        raise ValueError(f"unknown loss kind {config.loss_kind!r}")
    if config.loss_kind == "dr" and config.classifier_mode != "fixed-etf":
        raise ValueError("the DR loss needs the fixed ETF classifier")
    counts = np.bincount(train_set.y, minlength=train_set.num_classes)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one training sample")
    milestones = config.resolved_milestones()
    K = train_set.num_classes
    rng = np.random.default_rng([config.seed, 12])
    W, fixed_clf = _build_classifier(
        config, model.feature_dim, counts, np.random.default_rng([config.seed, 13])
    )
    learnable = config.classifier_mode == "learnable"
    sample_weights = (
        class_weights(counts)[train_set.y] if config.loss_kind == "weighted-ce" else None
    )
    dr_targets = fixed_clf.lengths * np.sqrt(config.e_h) if fixed_clf is not None else None

    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_clf = np.zeros_like(W)
    N = train_set.size
    log = TrainLog()

    for epoch in range(config.epochs):
        lr = config.step_size * 0.1 ** sum(epoch >= m for m in milestones)
        perm = rng.permutation(N)
        loss_sum = 0.0
        for start in range(0, N, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb, yb = train_set.x[idx], train_set.y[idx]
            B = len(idx)
            feats, cache = model.forward(xb)
            if config.feature_norm == "sphere":
                used, norms = _normalize_rows(feats, config.e_h, strict=False)
            else:
                used = feats

            if config.loss_kind in ("ce", "weighted-ce"):
                per_sample, coef = ce_terms(used, yb, W)
                coef[np.arange(B), yb] -= 1.0
                if sample_weights is not None:
                    wts = sample_weights[idx]
                    per_sample = per_sample * wts
                    coef = coef * wts[:, None]
                grad_used = coef @ W.T / B
                grad_clf = used.T @ coef / B if learnable else None
            else:  # dr
                per_sample, r = dr_terms(used, yb, W, dr_targets)
                grad_used = (r / B)[:, None] * W[:, yb].T
                grad_clf = None
            loss_sum += float(per_sample.sum())

            if config.feature_norm == "sphere":
                grad_feats = _normalize_rows_vjp(feats, norms, grad_used, config.e_h)
            else:
                grad_feats = grad_used
            if config.feature_norm == "length-reg":
                nsq = np.sum(feats * feats, axis=1, keepdims=True)
                loss_sum += float(config.norm_lambda * np.sum((nsq - config.e_h) ** 2))
                grad_feats = grad_feats + 4.0 * config.norm_lambda * (nsq - config.e_h) * feats / B

            if not np.isfinite(loss_sum):
                raise NumericDivergence(f"training diverged at epoch {epoch}")

            d_ws, d_bs = model.backward(cache, grad_feats)
            for l in range(len(model.weights)):
                vel_w[l] = config.momentum * vel_w[l] + d_ws[l]
                vel_b[l] = config.momentum * vel_b[l] + d_bs[l]
                model.weights[l] -= lr * vel_w[l]
                model.biases[l] -= lr * vel_b[l]
            if learnable:
                vel_clf = config.momentum * vel_clf + grad_clf
                W = W - lr * vel_clf

        train_feats = _features_for_metrics(model, train_set.x, config)
        test_feats = _features_for_metrics(model, test_set.x, config)
        if not all(np.all(np.isfinite(a)) for a in (W, train_feats, test_feats)):
            raise NumericDivergence(f"parameters diverged at epoch {epoch}")
        per_class_acc, bal_acc = evaluate(model, test_set, W, config)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                loss=loss_sum / N,
                bal_acc=bal_acc,
                nc_train=nc_report(FeatureBatch(train_feats, train_set.y, K), W),
                nc_test=nc_report(FeatureBatch(test_feats, test_set.y, K), W),
            )
        )
        log.per_class_acc = per_class_acc

    log.classifier = W
    return log


def evaluate(model: MlpBackbone, test_set: Dataset, W: np.ndarray, config: TrainConfig = None):
    """(per-class accuracy vector, balanced accuracy) by argmax logit.

    With a fixed ETF classifier the per-class lengths are a training-loss
    weighting, not a decision rule, so prediction scores against the
    unit frame directions; learnable classifiers predict with W as
    learned.
    """
    counts = np.bincount(test_set.y, minlength=test_set.num_classes)
    if np.any(counts == 0):
        raise ValueError("test set is missing a class")
    if config is not None:
        feats = _features_for_metrics(model, test_set.x, config)
        if config.classifier_mode == "fixed-etf":
            W = W / np.linalg.norm(W, axis=0, keepdims=True)
    else:
        feats, _ = model.forward(test_set.x)
    pred = np.argmax(feats @ W, axis=1)
    per_class = np.array(
        [float(np.mean(pred[test_set.y == k] == k)) for k in range(test_set.num_classes)]
    )
    return per_class, float(per_class.mean())
