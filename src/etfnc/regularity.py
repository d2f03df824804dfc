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

One pass over the trials draws each trial's class and tangent once,
builds its start at every delta and takes every (kind, gamma) step from
that start; ``check_sweep`` builds the dominance summary from the records
of that same pass and judges both claims on it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, _pull_push, dr_grad, softmax_probs
from .peeled import project_ball

#: trials closer to the optimum than this times |h*| = sqrt(E_H) are excluded, not ratios
DIST_GUARD = 1e-12
_TINY = np.finfo(float).tiny


def dr_eta_bound(cos_angle: float) -> float:
    """The DR regularity number (1 + cos) / 2."""
    if not -1.0 <= cos_angle <= 1.0:
        raise ValueError(f"cosine must lie in [-1, 1], got {cos_angle}")
    return (1.0 + cos_angle) / 2.0


def offclass_deviation(p: np.ndarray, c: int) -> float:
    """max over k != c of |p_k - (1 - p_c) / (K - 1)| for the class probabilities p of h.

    Zero exactly when h is aligned with w*_c (ETF symmetry); the
    contraction comparison for CE assumes this holds approximately.
    """
    K = len(p)
    resid = (1.0 - p[c]) / (K - 1)
    others = np.arange(K) != c
    return float(np.abs(p[others] - resid).max())


@dataclass(slots=True)
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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a contiguous 1-D float vector, in its arithmetic (dot, sqrt).

    It skips the checks that cost np.linalg.norm ~1.5 us a call. A strided
    view may sum in another order in the dot, so never pass one.
    """
    return math.sqrt(v.dot(v))


def _squared(x: float) -> np.float64:
    """x ** 2 as numpy computes it: past ~1.3e154 it is inf, where float ** 2 raises OverflowError."""
    return np.float64(x) ** 2


def _draw_trial(classifier: FixedClassifier, h_stars, e_h: float, rng):
    """A trial's class c and unit tangent u at h*_c, drawn once and shared by every delta."""
    c = int(rng.integers(classifier.num_classes))
    u = rng.standard_normal(classifier.dim)
    u -= (u @ h_stars[c]) / e_h * h_stars[c]
    u /= _norm(u)
    return c, u


def _start(h_star, u, delta: float, root_e_h):
    """Start point h* + delta |h*| u, rescaled to the sphere |h*| = sqrt(E_H)."""
    h0 = h_star + (delta * root_e_h) * u
    h0 *= root_e_h / _norm(h0)
    return h0


def ce_instance_rate(K: int, e_h: float, e_w: float, cos: float, p_c: float) -> float:
    """The per-instance CE rate that would match DR's bound.

    gamma* = (K-1)/K * sqrt(E_H/E_W) * (1 - cos(h, w*_c)) / (1 - p_c(h)); it
    depends on h, so it is not an admissible fixed learning rate.
    """
    return (K - 1) / K * math.sqrt(e_h / e_w) * (1.0 - cos) / (1.0 - p_c)


def check_classifier(classifier: FixedClassifier) -> None:
    """Refuse, with a ValueError, a classifier the sweep cannot measure."""
    if not classifier.is_uniform():
        raise ValueError("regularity experiment needs a uniform-length classifier")
    if classifier.dim < 2:  # the sphere of d = 1 is two points: no tangent start direction
        raise ValueError(f"regularity experiment needs d >= 2, got d={classifier.dim}")


def run_regularity_sweep(
    classifier: FixedClassifier,
    steps,
    deltas,
    trials: int,
    seed: int,
    e_h: float = 1.0,
) -> list:
    """One projected step per trial, delta and ``(kind, gamma)`` in ``steps``.

    ``kind`` is the record's ``loss_kind``: ``ce`` or ``dr`` at the fixed
    rate ``gamma``, or ``ce-opt`` (``gamma`` None), CE at the per-trial
    bound-matching rate, reported for illustration. Returns one run per
    delta, a list of RegularityRecords per step: ``runs[i][j]`` is delta i,
    step j. Trial t draws its class and unit tangent once, with rng seed
    (seed, t), builds its start at each delta from them, and takes every
    step from that start, so the lists are paired by trial. A delta is a
    fraction of |h*| = sqrt(e_h), so a start lies at about the same angle
    to h* at every e_h. Trials starting within DIST_GUARD sqrt(e_h) of h*
    are excluded. A divergence names the first (trial, delta) in trial order.
    """
    for kind, _ in steps:
        if kind not in ("ce", "dr", "ce-opt"):
            raise ValueError(f"unknown step kind {kind!r}")
    check_classifier(classifier)

    K, W, e_w = classifier.num_classes, classifier.scaled_columns, classifier.e_w
    # an over- or underflow surfaces as a NumericDivergence: at the start, the step or the
    # projection (a start whose norm underflows to 0 divides by it)
    with np.errstate(over="ignore", divide="ignore"):
        w_norms = [np.linalg.norm(W[:, k]) for k in range(K)]  # |w_c|: the columns are strided
        if not all(0 < n < np.inf for n in w_norms):  # cos(h, w_c) would divide by |w_c|
            raise NumericDivergence(f"classifier column norms under- or overflow at e_w={e_w:g}")
        root_e_h = np.sqrt(e_h)
        h_stars = [root_e_h * classifier.frame.columns[:, k] for k in range(K)]
        runs = [[[] for _ in steps] for _ in deltas]
        guard = DIST_GUARD * math.sqrt(e_h)
        for t in range(trials):
            c, u = _draw_trial(classifier, h_stars, e_h, np.random.default_rng([seed, t]))
            h_star, w, w_norm = h_stars[c], W[:, c], w_norms[c]
            for delta, per_step in zip(deltas, runs):
                h0 = _start(h_star, u, delta, root_e_h)
                # rescaling |h* + delta u| over- or underflowed, or |h0|^2 = E_H is subnormal:
                # too few bits for the ratios, and project_ball's ulp nudges would not shrink it
                n0_sq = h0.dot(h0)
                if not _TINY <= n0_sq < np.inf:
                    raise NumericDivergence(f"start of trial {t} at delta={delta:g} left the sphere")
                n0 = math.sqrt(n0_sq)
                dist0 = _norm(h0 - h_star)
                if dist0 < guard:
                    continue
                dist0_sq = _squared(dist0)
                cos_raw = float(h0.dot(w) / (n0 * w_norm))
                # within ~1e-8 of h* the cosine can round to 1 + ulp
                cos0 = min(cos_raw, 1.0)
                bound = dr_eta_bound(cos0)
                p = softmax_probs(h0, W)  # one softmax per start: uniformity, CE gradient, rate
                uniformity_dev = offclass_deviation(p, c)
                # ce and ce-opt share CE's gradient, -(pull + push)
                grad_ce, grad_dr = -np.add(*_pull_push(p, c, W)), dr_grad(h0, classifier, c, e_h)
                for records, (kind, gamma) in zip(per_step, steps):
                    if kind == "ce-opt" and p[c] == 1.0:  # the rate divides by 1 - p_c
                        raise NumericDivergence(
                            f"instance-optimal rate undefined in trial {t}: p_c rounds to 1")
                    g = (ce_instance_rate(K, e_h, e_w, cos_raw, p[c]) if kind == "ce-opt"
                         else float(gamma))
                    pre = h0 - g * (grad_dr if kind == "dr" else grad_ce)
                    if not np.isfinite(pre).all():
                        raise NumericDivergence(f"non-finite step in trial {t}")
                    h1 = project_ball(pre, e_h)
                    h1_sq = h1.dot(h1)
                    raw_ratio = float(_squared(_norm(pre - h_star)) / dist0_sq)
                    if not math.isfinite(raw_ratio):  # |pre - h*|^2 overflows, or dist0^2 underflows
                        raise NumericDivergence(
                            f"raw ratio not finite in trial {t} at delta={delta:g}")
                    records.append(
                        RegularityRecord(
                            trial=t,
                            loss_kind=kind,
                            gamma=g,
                            delta=delta,
                            class_index=c,
                            cos_before=cos0,
                            ratio=float(_squared(_norm(h1 - h_star)) / dist0_sq),
                            raw_ratio=raw_ratio,
                            bound=bound,
                            uniformity_dev=uniformity_dev,
                            sphere_dev=float(abs(h1_sq - e_h)),
                            cos_after=float(h1.dot(w) / (math.sqrt(h1_sq) * w_norm)),
                        )
                    )
    return runs


#: gate on offclass_deviation for the CE-vs-DR dominance assertion
UNIFORMITY_GATE = 1e-3
#: slack on DR's projected ratio - (1 + cos) / 2
BOUND_TOL = 1e-9
#: least fraction of gated trials on which CE's raw ratio must reach DR's
DOMINANCE_FRAC = 0.99
#: slack on CE's raw ratio against DR's, per trial and in the mean
DOMINANCE_SLACK = 1e-9


def check_sweep(steps, deltas, runs):
    """``(summary fields, passed)`` of a sweep.

    ``runs`` is ``run_regularity_sweep(classifier, steps, deltas, ...)`` as
    returned, so ``runs[i]`` holds deltas[i] and its steps list the same trials. ``dr_bound`` holds the
    worst ratio - bound, sphere deviation and cos_after over all DR records;
    it is absent when there are none. ``paired_dominance``
    pairs each fixed-rate CE step with the first DR step; it is absent when
    ``steps`` has no ``dr`` step or no ``ce`` step. Per (delta, CE step) in
    order it reports the trials that produced records (trials excluded at the
    optimum produce none) and, over those passing the uniformity gate, the
    fraction with raw CE ratio >= raw DR ratio - DOMINANCE_SLACK, the means of both
    readings, and the post-projection comparison.

    It passes if it has DR records (else it checks nothing), every DR ratio - bound
    <= BOUND_TOL, and on every gated config raw CE >= raw DR - DOMINANCE_SLACK on
    >= DOMINANCE_FRAC of trials and in the mean.
    """
    all_dr = [r for run in runs for records in run for r in records if r.loss_kind == "dr"]
    summary, passed = {}, bool(all_dr)
    if all_dr:
        worst = max(r.ratio - r.bound for r in all_dr)
        summary["dr_bound"] = {"max_ratio_minus_bound": worst, "passed": worst <= BOUND_TOL,
                              "max_sphere_dev": max(r.sphere_dev for r in all_dr),
                              "min_cos_after": min(r.cos_after for r in all_dr)}
        passed &= worst <= BOUND_TOL
    dr_at = next((i for i, (kind, _) in enumerate(steps) if kind == "dr"), None)
    ce_at = [i for i, (kind, _) in enumerate(steps) if kind == "ce"]
    if dr_at is None or not ce_at:
        return summary, passed
    dom = {"gamma_dr": float(steps[dr_at][1]), "uniformity_gate": UNIFORMITY_GATE, "configs": []}
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
                raw_ok = [c.raw_ratio >= d.raw_ratio - DOMINANCE_SLACK for c, d in paired]
                with np.errstate(over="ignore"):  # a sum past float range is refused below
                    cfg.update(
                        raw_dominance_frac=float(np.mean(raw_ok)),
                        mean_ce_raw=float(np.mean([c.raw_ratio for c, _ in paired])),
                        mean_dr_raw=float(np.mean([d.raw_ratio for _, d in paired])),
                        mean_ce_ratio=float(np.mean([c.ratio for c, _ in paired])),
                        mean_dr_ratio=float(np.mean([d.ratio for _, d in paired])),
                    )
                if not all(math.isfinite(v) for k, v in cfg.items() if k.startswith("mean_")):
                    raise NumericDivergence(
                        f"mean ratio overflows at delta={delta:g}, gamma_ce={gamma:g}")
                passed &= (cfg["raw_dominance_frac"] >= DOMINANCE_FRAC
                           and cfg["mean_ce_raw"] >= cfg["mean_dr_raw"] - DOMINANCE_SLACK)
            elif dr:
                cfg.update(raw_dominance_frac=None, note="no trials passed the gate")
            else:
                cfg.update(raw_dominance_frac=None,
                           note="no trials: every start was excluded at the optimum")
            dom["configs"].append(cfg)
    summary["paired_dominance"] = dom
    return summary, passed
