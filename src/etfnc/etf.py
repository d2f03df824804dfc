"""Simplex equiangular tight frames used as fixed classifiers.

A simplex ETF is a set of K unit vectors in R^d (d >= K-1) whose Gram
matrix is

    G[i, j] = K/(K-1) * delta_ij - 1/(K-1),

i.e. every pair of distinct vectors meets at the maximal equiangular
separation cos = -1/(K-1). Frames are generated from a seeded random
rotation, optionally rescaled per class, verified against the Gram
target, and serialized to JSON.
"""

from dataclasses import dataclass

import numpy as np

#: default tolerance for structural (Gram/norm) checks
STRUCT_TOL = 1e-9
#: relative spread within which FixedClassifier.is_uniform takes column lengths as equal
UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class EtfFrame:
    """A d x K simplex ETF with unit-norm columns.

    Attributes:
        dim: ambient dimension d (>= num_classes - 1).
        num_classes: number of vectors K.
        columns: (d, K) array, one frame vector per column.
        rotation_seed: seed that produced the random rotation.
    """

    dim: int
    num_classes: int
    columns: np.ndarray
    rotation_seed: int

    def gram(self) -> np.ndarray:
        return self.columns.T @ self.columns

    def gram_target(self) -> np.ndarray:
        K = self.num_classes
        return K / (K - 1) * np.eye(K) - 1.0 / (K - 1)


@dataclass(frozen=True)
class GramReport:
    """Result of checking a frame's Gram matrix against the ETF target."""

    max_deviation: float
    worst_row: int
    worst_col: int
    passed: bool
    tol: float


@dataclass(frozen=True)
class FixedClassifier:
    """An ETF frame with per-class column lengths, used as a frozen classifier.

    ``scaled_columns[:, k] = lengths[k] * frame.columns[:, k]``. Uniform
    lengths sqrt(E_W) give pairwise dot products
    E_W * (K/(K-1) delta - 1/(K-1)); per-class lengths N/(K n_k) realize
    the class-weighted variant.
    """

    frame: EtfFrame
    lengths: np.ndarray
    scaled_columns: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def num_classes(self) -> int:
        return self.frame.num_classes

    def is_uniform(self) -> bool:
        ref = self.lengths[0]
        return bool(np.all(np.abs(self.lengths - ref) <= UNIFORM_RTOL * abs(ref)))

    @property
    def e_w(self) -> float:
        """Common squared length E_W; only meaningful for uniform classifiers."""
        if not self.is_uniform():
            raise ValueError("classifier has non-uniform column lengths; E_W undefined")
        return float(self.lengths[0] ** 2)


def random_semi_orthogonal(d: int, K: int, seed: int) -> np.ndarray:
    """Seeded random (d, K) matrix P with P^T P = I_K.

    K independent standard-Gaussian columns are orthonormalized; each
    column's sign is then fixed so its first nonzero entry is positive,
    which removes the sign ambiguity of orthonormalization and makes the
    result deterministic per seed.
    """
    if d < K:
        raise ValueError(f"need d >= K for a semi-orthogonal d x K matrix, got d={d}, K={K}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, K))
    q, _ = np.linalg.qr(a)
    q = q[:, :K].copy()
    for j in range(K):
        col = q[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            q[:, j] = -col
    return q


def _ones_complement_basis(K: int) -> np.ndarray:
    """(K-1, K) matrix with orthonormal rows spanning the complement of 1_K.

    Rows 2..K of the Householder reflector that maps 1_K/sqrt(K) to e_1.
    Closed form, so the basis is identical on every platform.
    """
    u = np.full(K, 1.0 / np.sqrt(K))
    v = u - np.eye(K)[0]
    H = np.eye(K) - 2.0 * np.outer(v, v) / (v @ v)
    return H[1:, :]


def generate_etf(d: int, K: int, seed: int) -> EtfFrame:
    """Generate a random simplex ETF of K unit vectors in R^d.

    For d >= K the frame is sqrt(K/(K-1)) * U (I_K - 1/K 11^T) with U a
    seeded random semi-orthogonal matrix. For d = K-1 (where no such U
    exists) the canonical centered simplex is expressed in an orthonormal
    basis of the all-ones complement and rotated by a seeded random
    orthogonal map of R^{K-1}.
    """
    if K < 2:
        raise ValueError(f"need at least K=2 classes, got K={K}")
    if d < K - 1:
        raise ValueError(
            f"equiangular separation -1/(K-1) needs d >= K-1, got d={d}, K={K}"
        )
    scale = np.sqrt(K / (K - 1.0))
    if d >= K:
        u = random_semi_orthogonal(d, K, seed)
        center = np.eye(K) - np.ones((K, K)) / K
        columns = scale * (u @ center)
    else:
        basis = _ones_complement_basis(K)
        rot = random_semi_orthogonal(K - 1, K - 1, seed)
        columns = scale * (rot @ basis)
    return EtfFrame(dim=d, num_classes=K, columns=columns, rotation_seed=seed)


def verify_etf(frame: EtfFrame, tol: float = STRUCT_TOL) -> GramReport:
    """Check the frame's Gram matrix against K/(K-1) delta - 1/(K-1)."""
    dev = np.abs(frame.gram() - frame.gram_target())
    idx = np.unravel_index(np.argmax(dev), dev.shape)
    worst = float(dev[idx])
    return GramReport(
        max_deviation=worst,
        worst_row=int(idx[0]),
        worst_col=int(idx[1]),
        passed=worst <= tol,
        tol=tol,
    )


def scale_classifier(frame: EtfFrame, lengths) -> FixedClassifier:
    """Attach per-class column lengths sqrt(E_{w_k}) to an ETF frame."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (frame.num_classes,):
        raise ValueError(
            f"need one length per class, got shape {lengths.shape} for K={frame.num_classes}"
        )
    if np.any(lengths <= 0):
        raise ValueError("classifier lengths must be positive")
    return FixedClassifier(
        frame=frame,
        lengths=lengths,
        scaled_columns=frame.columns * lengths[None, :],
    )


def uniform_classifier(frame: EtfFrame, e_w: float = 1.0) -> FixedClassifier:
    """Classifier with every column at length sqrt(e_w)."""
    if e_w <= 0:
        raise ValueError("e_w must be positive")
    return scale_classifier(frame, np.full(frame.num_classes, np.sqrt(e_w)))


# --- serialization ---------------------------------------------------------


def frame_to_json_dict(frame: EtfFrame) -> dict:
    return {
        "dim": frame.dim,
        "num_classes": frame.num_classes,
        "rotation_seed": frame.rotation_seed,
        "columns": np.asarray(frame.columns, dtype=float).tolist(),
    }


def frame_from_json_dict(obj: dict) -> EtfFrame:
    columns = np.asarray(obj["columns"], dtype=float)
    return EtfFrame(
        dim=int(obj["dim"]),
        num_classes=int(obj["num_classes"]),
        columns=columns,
        rotation_seed=int(obj["rotation_seed"]),
    )
