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

One pass over the trials per delta draws each start once and takes
every (loss, gamma) step from it; the dominance summary pairs the
records of that same pass.
"""

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, ce_grad_feature, dr_grad, softmax_probs
from .peeled import project_ball

#: trials closer to the optimum than this are flagged at-optimum, not ratios
DIST_GUARD = 1e-12


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


def run_regularity_sweep(
    classifier: FixedClassifier,
    steps,
    delta: float,
    trials: int,
    seed: int,
    e_h: float = 1.0,
) -> list:
    """One projected step per trial for each ``(loss_kind, gamma)`` in ``steps``.

    Returns one list of RegularityRecords per step. Trial t draws its
    start once, with rng seed (seed, t), and every step starts from it,
    so the lists are paired by trial. Trials starting within DIST_GUARD
    of h* are excluded. ``gamma`` may be a float or "instance-optimal"
    (CE only), which applies the per-trial bound-matching rate and is
    reported for illustration.
    """
    for loss_kind, gamma in steps:
        if loss_kind not in ("ce", "dr"):
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        if gamma == "instance-optimal" and loss_kind != "ce":
            raise ValueError("instance-optimal rate is defined for the CE loss")
    if not classifier.is_uniform():
        raise ValueError("regularity experiment needs a uniform-length classifier")

    per_step = [[] for _ in steps]
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        c, h_star, h0 = _sample_start(classifier, delta, e_h, rng)
        if not 0 < np.linalg.norm(h0) < np.inf:  # rescaling |h* + delta u| over- or underflowed
            raise NumericDivergence(f"start of trial {t} at delta={delta:g} left the sphere")
        dist0 = np.linalg.norm(h0 - h_star)
        if dist0 < DIST_GUARD:
            continue
        w = classifier.scaled_columns[:, c]
        # within ~1e-8 of h* the cosine can round to 1 + ulp
        cos0 = min(float(h0 @ w / (np.linalg.norm(h0) * np.linalg.norm(w))), 1.0)
        bound = dr_eta_bound(cos0)
        uniformity_dev = check_offclass_uniformity(h0, classifier, c)
        grads = {}
        for records, (loss_kind, gamma) in zip(per_step, steps):
            if loss_kind not in grads:
                grads[loss_kind] = (ce_grad_feature(h0, c, classifier.scaled_columns)
                                    if loss_kind == "ce" else dr_grad(h0, classifier, c, e_h))
            instance_opt = gamma == "instance-optimal"
            g = ce_instance_rate(classifier, h0, c, e_h) if instance_opt else float(gamma)
            pre = h0 - g * grads[loss_kind]
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
                    bound=bound,
                    uniformity_dev=uniformity_dev,
                    sphere_dev=float(abs(h1 @ h1 - e_h)),
                    cos_after=float(h1 @ w / (np.linalg.norm(h1) * np.linalg.norm(w))),
                )
            )
    return per_step


#: gate on check_offclass_uniformity for the CE-vs-DR dominance assertion
UNIFORMITY_GATE = 1e-3


def pair_dominance(steps, deltas, runs):
    """Pair the fixed-rate CE steps of a sweep with its first DR step.

    ``runs[i]`` is ``run_regularity_sweep(classifier, steps, deltas[i], ...)``
    as returned, so every step lists the same trials. Returns None when
    ``steps`` has no DR step or no CE step at a fixed rate. Otherwise, per
    (delta, CE step) in order, the summary reports the trials that
    produced records (trials excluded at the optimum produce none) and,
    over those passing the uniformity gate, the fraction with raw CE ratio
    >= raw DR ratio - 1e-9, the means of both readings, and the
    post-projection comparison.
    """
    dr_at = next((i for i, (loss, _) in enumerate(steps) if loss == "dr"), None)
    ce_at = [i for i, (loss, g) in enumerate(steps) if loss == "ce" and g != "instance-optimal"]
    if dr_at is None or not ce_at:
        return None
    out = {"gamma_dr": float(steps[dr_at][1]), "uniformity_gate": UNIFORMITY_GATE, "configs": []}
    for delta, run in zip(deltas, runs):
        dr = run[dr_at]
        bound_gap = max((r.ratio - r.bound) for r in dr) if dr else None
        for j in ce_at:
            gamma, ce = steps[j][1], run[j]
            paired = [(c, d) for c, d in zip(ce, dr) if c.uniformity_dev < UNIFORMITY_GATE]
            cfg = {
                "delta": delta,
                "gamma_ce": float(gamma),
                "trials": len(dr),
                "gated_trials": len(paired),
                "dr_max_ratio_minus_bound": bound_gap,
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
            elif dr:
                cfg.update(raw_dominance_frac=None, note="no trials passed the gate")
            else:
                cfg.update(raw_dominance_frac=None,
                           note="no trials: every start was excluded at the optimum")
            out["configs"].append(cfg)
    return out


def records_csv(records) -> tuple:
    """(header, rows) for records.csv: one column per RegularityRecord field."""
    header = [f.name for f in fields(RegularityRecord)]
    row = attrgetter(*header)
    return header, [row(r) for r in records]
