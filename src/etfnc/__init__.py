"""Fixed simplex-ETF classifiers for imbalanced learning.

A numpy library around one idea: freeze the last-layer classifier as a
random simplex equiangular tight frame and train only the features. This
package root imports nothing; each name is imported from its module:
``etf`` (frames, fixed classifiers), ``losses`` (CE and DR losses, exact
gradients, pull/push splits), ``batches`` (``FeatureBatch``, the labeled
feature type), ``peeled`` (layer-peeled models, projected gradient descent,
the closed-form optimum as oracle, the minority-collapse probe),
``regularity`` (one-step contraction experiments), ``metrics`` (the
neural-collapse metrics), ``trainer`` (an MLP harness on synthetic
imbalanced data), ``serialize`` (payload writers, seed derivation) and
``cli`` (the ``etfnc`` CLI for manifest-tracked runs). See demos/ for
narrative walkthroughs.
"""

__version__ = "0.1.0"
