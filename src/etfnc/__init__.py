"""Fixed simplex-ETF classifiers for imbalanced learning.

A numpy library around one idea: freeze the last-layer classifier as a
random simplex equiangular tight frame and train only the features. The
package provides the frame construction, the cross-entropy and
dot-regression losses with exact gradients and pull/push splits, the
(decoupled) layer-peeled models with projected gradient descent and the
closed-form optimum as oracle, one-step contraction experiments, the
neural-collapse metrics suite, and a small MLP training harness on
synthetic imbalanced data. See demos/ for narrative walkthroughs and the
``etfnc`` CLI for reproducible, manifest-tracked runs.
"""

from .batches import FeatureBatch
from .etf import (
    EtfFrame,
    FixedClassifier,
    GramReport,
    generate_etf,
    random_semi_orthogonal,
    scale_classifier,
    uniform_classifier,
    verify_etf,
)
from .losses import (
    NumericDivergence,
    PullPush,
    ce_terms,
    decompose_pull_push_classifier,
    decompose_pull_push_feature,
    dr_grad,
    dr_terms,
    softmax_probs,
)
from .metrics import NcReport, class_and_global_means, nc_report
from .peeled import (
    MinorityProbe,
    PeeledProblem,
    Trajectory,
    analytic_optimum,
    dlpm_problem,
    init_features,
    lpm_problem,
    minority_collapse_probe,
    optimality_gap,
    optimize,
    project_ball,
)
from .regularity import (
    RegularityRecord,
    dr_eta_bound,
    offclass_deviation,
)
from .trainer import (
    MlpBackbone,
    SyntheticDatasetSpec,
    TrainConfig,
    TrainLog,
    balanced_accuracy,
    class_weights,
    make_imbalanced_dataset,
    train,
)

__version__ = "0.1.0"
