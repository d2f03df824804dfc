"""One-step contraction measurements for projected gradient steps.

Near the optimum h* = sqrt(E_H/E_W) w*_c, a projected step from h with
step size gamma contracts the squared distance to h* by some factor; the
best guaranteed factor is the regularity number of the loss. For the DR
loss at gamma = sqrt(E_H/E_W) the pre-projection step satisfies

    |h - gamma dL/dh - h*|^2 = (1 + cos(h, w*_c)) / 2 * |h - h*|^2

exactly on the sphere, and projection can only shrink it further. For CE
the same pre-projection quantity is >= that bound for every fixed gamma
(equality only at a per-instance rate), provided the off-class softmax
probabilities are uniform; this module measures both losses on seeded
trials and checks the ordering.

Each trial records two ratios: ``ratio`` compares the projected iterate
(what the optimizer actually produces) and ``raw_ratio`` compares the
pre-projection point (the quantity the bound constrains). Projection can
shrink an overshooting CE step below DR's bound, so the CE >= DR
dominance is a statement about ``raw_ratio``; the DR <= bound check
holds for both.
"""

from dataclasses import dataclass

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, ce_grad_feature, dr_grad, softmax_probs
from .peeled import project_ball

#: trials closer to the optimum than this are flagged at-optimum, not ratios
DIST_GUARD = 1e-12


class AtOptimumError(ValueError):
    """The start point coincides with h*; a contraction ratio is undefined."""


def contraction_ratio(h_t: np.ndarray, h_next: np.ndarray, h_star: np.ndarray) -> float:
    """|h_next - h*|^2 / |h_t - h*|^2, guarding the at-optimum case."""
    d0 = float(np.linalg.norm(np.asarray(h_t, float) - np.asarray(h_star, float)))
    if d0 < DIST_GUARD:
        raise AtOptimumError("start point is at the optimum")
    d1 = float(np.linalg.norm(np.asarray(h_next, float) - np.asarray(h_star, float)))
    return d1**2 / d0**2


def dr_eta_bound(cos_angle: float) -> float:
    """The DR regularity number (1 + cos) / 2."""
    if not -1.0 <= cos_angle <= 1.0:
        raise ValueError(f"cosine must lie in [-1, 1], got {cos_angle}")
    return (1.0 + cos_angle) / 2.0


def check_offclass_uniformity(h: np.ndarray, classifier: FixedClassifier, c: int) -> float:
    """max over k != c of |p_k(h) - (1 - p_c(h)) / (K - 1)|.

    Zero exactly when h is aligned with w*_c (ETF symmetry); the
    contraction comparison for CE assumes this holds approximately.
    """
    p = softmax_probs(h, classifier.scaled_columns)
    K = classifier.num_classes
    resid = (1.0 - p[c]) / (K - 1)
    others = np.arange(K) != c
    return float(np.abs(p[others] - resid).max())


@dataclass(frozen=True)
class RegularityRecord:
    trial: int
    loss_kind: str
    gamma: float
    delta: float
    class_index: int
    cos_before: float
    ratio: float       # projected-iterate distance ratio
    raw_ratio: float   # pre-projection distance ratio (the bounded quantity)
    bound: float       # (1 + cos_before) / 2
    uniformity_dev: float
    sphere_dev: float  # | |h1|^2 - E_H |
    cos_after: float


def _sample_start(classifier: FixedClassifier, delta: float, e_h: float, rng):
    """Start point h* + delta * u (u tangent, unit), rescaled to the sphere."""
    K = classifier.num_classes
    c = int(rng.integers(K))
    h_star = np.sqrt(e_h) * classifier.frame.columns[:, c]
    u = rng.standard_normal(classifier.dim)
    u -= (u @ h_star) / e_h * h_star
    u /= np.linalg.norm(u)
    h0 = h_star + delta * u
    h0 *= np.sqrt(e_h) / np.linalg.norm(h0)
    return c, h_star, h0


def ce_instance_rate(classifier: FixedClassifier, h: np.ndarray, c: int, e_h: float) -> float:
    """The per-instance CE rate that would match DR's bound.

    gamma* = (K-1)/K * sqrt(E_H/E_W) * (1 - cos(h, w*_c)) / (1 - p_c); it
    depends on h, so it is not an admissible fixed learning rate.
    """
    K = classifier.num_classes
    e_w = classifier.e_w
    w = classifier.scaled_columns[:, c]
    cos = float(h @ w / (np.linalg.norm(h) * np.linalg.norm(w)))
    p = softmax_probs(h, classifier.scaled_columns)
    return (K - 1) / K * np.sqrt(e_h / e_w) * (1.0 - cos) / (1.0 - p[c])


def run_regularity_experiment(
    classifier: FixedClassifier,
    loss_kind: str,
    gamma,
    delta: float,
    trials: int,
    seed: int,
    e_h: float = 1.0,
) -> list:
    """One projected step per trial; returns the surviving RegularityRecords.

    Starts are sampled on the sphere within distance ~delta of h* for a
    trial-dependent class; trial i uses rng seed (seed, i), so records
    are deterministic and order-independent. Trials starting within
    DIST_GUARD of h* are excluded. ``gamma`` may be a float or
    "instance-optimal" (CE only), which applies the per-trial
    bound-matching rate and is reported for illustration.
    """
    if loss_kind not in ("ce", "dr"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if not classifier.is_uniform():
        raise ValueError("regularity experiment needs a uniform-length classifier")
    instance_opt = gamma == "instance-optimal"
    if instance_opt and loss_kind != "ce":
        raise ValueError("instance-optimal rate is defined for the CE loss")

    records = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        c, h_star, h0 = _sample_start(classifier, delta, e_h, rng)
        dist0 = np.linalg.norm(h0 - h_star)
        if dist0 < DIST_GUARD:
            continue
        w = classifier.scaled_columns[:, c]
        cos0 = float(h0 @ w / (np.linalg.norm(h0) * np.linalg.norm(w)))
        g = ce_instance_rate(classifier, h0, c, e_h) if instance_opt else float(gamma)
        if loss_kind == "ce":
            grad = ce_grad_feature(h0, c, classifier.scaled_columns)
        else:
            grad = dr_grad(h0, classifier, c, e_h)
        pre = h0 - g * grad
        if not np.all(np.isfinite(pre)):
            raise NumericDivergence(f"non-finite step in trial {t}")
        h1 = project_ball(pre, e_h)
        records.append(
            RegularityRecord(
                trial=t,
                loss_kind=loss_kind + ("-opt" if instance_opt else ""),
                gamma=g,
                delta=delta,
                class_index=c,
                cos_before=cos0,
                ratio=float(np.linalg.norm(h1 - h_star) ** 2 / dist0**2),
                raw_ratio=float(np.linalg.norm(pre - h_star) ** 2 / dist0**2),
                bound=dr_eta_bound(cos0),
                uniformity_dev=check_offclass_uniformity(h0, classifier, c),
                sphere_dev=float(abs(h1 @ h1 - e_h)),
                cos_after=float(h1 @ w / (np.linalg.norm(h1) * np.linalg.norm(w))),
            )
        )
    return records


#: gate on check_offclass_uniformity for the CE-vs-DR dominance assertion
UNIFORMITY_GATE = 1e-3


def paired_dominance_summary(
    classifier: FixedClassifier,
    gammas,
    deltas,
    trials: int,
    seed: int,
    e_h: float = 1.0,
) -> dict:
    """Run CE over a gamma sweep against DR at gamma = sqrt(E_H/E_W).

    Starts are matched per trial (the sampling rng ignores the loss), so
    per-trial comparisons are paired. Per (delta, gamma) configuration
    the summary reports, over trials passing the uniformity gate, the
    fraction with raw CE ratio >= raw DR ratio - 1e-9, the means of both
    readings, and the post-projection comparison for reference.
    """
    e_w = classifier.e_w
    gamma_dr = float(np.sqrt(e_h / e_w))
    out = {"gamma_dr": gamma_dr, "uniformity_gate": UNIFORMITY_GATE, "configs": []}
    for delta in deltas:
        dr = run_regularity_experiment(classifier, "dr", gamma_dr, delta, trials, seed, e_h)
        dr_by_trial = {r.trial: r for r in dr}
        bound_gap = max((r.ratio - r.bound) for r in dr) if dr else float("nan")
        for gamma in gammas:
            ce = run_regularity_experiment(classifier, "ce", gamma, delta, trials, seed, e_h)
            paired = [
                (r, dr_by_trial[r.trial])
                for r in ce
                if r.trial in dr_by_trial and r.uniformity_dev < UNIFORMITY_GATE
            ]
            cfg = {
                "delta": delta,
                "gamma_ce": float(gamma),
                "trials": trials,
                "gated_trials": len(paired),
                "dr_max_ratio_minus_bound": float(bound_gap),
            }
            if paired:
                raw_ok = [c.raw_ratio >= d.raw_ratio - 1e-9 for c, d in paired]
                cfg.update(
                    raw_dominance_frac=float(np.mean(raw_ok)),
                    mean_ce_raw=float(np.mean([c.raw_ratio for c, _ in paired])),
                    mean_dr_raw=float(np.mean([d.raw_ratio for _, d in paired])),
                    mean_ce_ratio=float(np.mean([c.ratio for c, _ in paired])),
                    mean_dr_ratio=float(np.mean([d.ratio for _, d in paired])),
                )
            else:
                cfg.update(raw_dominance_frac=None, note="no trials passed the gate")
            out["configs"].append(cfg)
    return out


def records_csv(records) -> tuple:
    header = [
        "trial", "loss_kind", "gamma", "delta", "class_index", "cos_before",
        "ratio", "raw_ratio", "bound", "uniformity_dev", "sphere_dev", "cos_after",
    ]
    rows = [
        [r.trial, r.loss_kind, r.gamma, r.delta, r.class_index, r.cos_before,
         r.ratio, r.raw_ratio, r.bound, r.uniformity_dev, r.sphere_dev, r.cos_after]
        for r in records
    ]
    return header, rows
