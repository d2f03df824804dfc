"""Labeled rows, one type for datasets, the NC metrics and the classifier pull/push split.

``FeatureBatch.counts`` is the one home of the rule that every class has a row.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureBatch:
    """Feature vectors with class labels.

    Attributes:
        features: (N, d) array, one sample per row.
        labels: (N,) integer class indices in [0, num_classes).
        num_classes: K.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2:
            raise ValueError(f"features must be (N, d), got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be one integer per sample")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("label out of range [0, num_classes)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def counts(self) -> np.ndarray:
        """Rows per class, (K,); a class with no row raises ValueError naming it."""
        counts = np.bincount(self.labels, minlength=self.num_classes)
        if not counts.all():
            raise ValueError(f"class {int(np.argmin(counts))} has no samples")
        return counts
