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
every (kind, gamma) step from it; the dominance summary pairs the
records of that same pass, and ``check_sweep`` judges both claims on it.
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, _pull_push, dr_grad, softmax_probs
from .peeled import project_ball

#: trials closer to the optimum than this are flagged at-optimum, not ratios
DIST_GUARD = 1e-12


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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a contiguous 1-D float vector, in its arithmetic (dot, sqrt).

    It skips the checks that cost np.linalg.norm ~1.5 us a call. A strided
    view may sum in another order in the dot, so never pass one.
    """
    return math.sqrt(v.dot(v))


def _squared(x: float) -> np.float64:
    """x ** 2 as numpy computes it: past ~1.3e154 it is inf, where float ** 2 raises OverflowError."""
    return np.float64(x) ** 2


def _sample_start(classifier: FixedClassifier, delta: float, e_h: float, rng):
    """Start point h* + delta * u (u tangent, unit), rescaled to the sphere."""
    K = classifier.num_classes
    c = int(rng.integers(K))
    root_e_h = np.sqrt(e_h)
    h_star = root_e_h * classifier.frame.columns[:, c]
    u = rng.standard_normal(classifier.dim)
    u -= (u @ h_star) / e_h * h_star
    u /= _norm(u)
    h0 = h_star + delta * u
    h0 *= root_e_h / _norm(h0)
    return c, h_star, h0


def ce_instance_rate(K: int, e_h: float, e_w: float, cos: float, p_c: float) -> float:
    """The per-instance CE rate that would match DR's bound.

    gamma* = (K-1)/K * sqrt(E_H/E_W) * (1 - cos(h, w*_c)) / (1 - p_c(h)); it
    depends on h, so it is not an admissible fixed learning rate.
    """
    return (K - 1) / K * math.sqrt(e_h / e_w) * (1.0 - cos) / (1.0 - p_c)


def run_regularity_sweep(
    classifier: FixedClassifier,
    steps,
    delta: float,
    trials: int,
    seed: int,
    e_h: float = 1.0,
) -> list:
    """One projected step per trial for each ``(kind, gamma)`` in ``steps``.

    ``kind`` is the record's ``loss_kind``: ``ce`` or ``dr`` at the fixed
    rate ``gamma``, or ``ce-opt`` (``gamma`` None), CE at the per-trial
    bound-matching rate, reported for illustration. Returns one list of
    RegularityRecords per step. Trial t draws its start once, with rng
    seed (seed, t), and every step starts from it, so the lists are
    paired by trial. Trials starting within DIST_GUARD of h* are excluded.
    """
    for kind, _ in steps:
        if kind not in ("ce", "dr", "ce-opt"):
            raise ValueError(f"unknown step kind {kind!r}")
    if not classifier.is_uniform():
        raise ValueError("regularity experiment needs a uniform-length classifier")

    K, W, e_w = classifier.num_classes, classifier.scaled_columns, classifier.e_w
    w_norms = [np.linalg.norm(W[:, k]) for k in range(K)]  # |w_c|: the columns are strided
    per_step = [[] for _ in steps]
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        c, h_star, h0 = _sample_start(classifier, delta, e_h, rng)
        n0 = _norm(h0)
        if not 0 < n0 < np.inf:  # rescaling |h* + delta u| over- or underflowed
            raise NumericDivergence(f"start of trial {t} at delta={delta:g} left the sphere")
        dist0 = _norm(h0 - h_star)
        if dist0 < DIST_GUARD:
            continue
        dist0_sq = _squared(dist0)
        w, w_norm = W[:, c], w_norms[c]
        cos_raw = float(h0.dot(w) / (n0 * w_norm))
        # within ~1e-8 of h* the cosine can round to 1 + ulp
        cos0 = min(cos_raw, 1.0)
        bound = dr_eta_bound(cos0)
        p = softmax_probs(h0, W)  # one softmax per trial: uniformity, CE gradient and rate
        uniformity_dev = offclass_deviation(p, c)
        grads = {}  # by loss: ce and ce-opt share CE's gradient
        for records, (kind, gamma) in zip(per_step, steps):
            loss = "dr" if kind == "dr" else "ce"
            if loss not in grads:  # CE's gradient is -(pull + push)
                grads[loss] = (dr_grad(h0, classifier, c, e_h) if loss == "dr"
                               else -np.add(*_pull_push(p, c, W)))
            if kind == "ce-opt" and p[c] == 1.0:  # the rate divides by 1 - p_c
                raise NumericDivergence(
                    f"instance-optimal rate undefined in trial {t}: p_c rounds to 1")
            g = ce_instance_rate(K, e_h, e_w, cos_raw, p[c]) if kind == "ce-opt" else float(gamma)
            pre = h0 - g * grads[loss]
            if not np.isfinite(pre).all():
                raise NumericDivergence(f"non-finite step in trial {t}")
            h1 = project_ball(pre, e_h)
            h1_sq = h1.dot(h1)
            records.append(
                RegularityRecord(
                    trial=t,
                    loss_kind=kind,
                    gamma=g,
                    delta=delta,
                    class_index=c,
                    cos_before=cos0,
                    ratio=float(_squared(_norm(h1 - h_star)) / dist0_sq),
                    raw_ratio=float(_squared(_norm(pre - h_star)) / dist0_sq),
                    bound=bound,
                    uniformity_dev=uniformity_dev,
                    sphere_dev=float(abs(h1_sq - e_h)),
                    cos_after=float(h1.dot(w) / (math.sqrt(h1_sq) * w_norm)),
                )
            )
    return per_step


#: gate on offclass_deviation for the CE-vs-DR dominance assertion
UNIFORMITY_GATE = 1e-3
#: slack on DR's projected ratio - (1 + cos) / 2
BOUND_TOL = 1e-9
#: least fraction of gated trials on which CE's raw ratio must reach DR's
DOMINANCE_FRAC = 0.99


def pair_dominance(steps, deltas, runs):
    """Pair the fixed-rate CE steps of a sweep with its first DR step.

    ``runs[i]`` is ``run_regularity_sweep(classifier, steps, deltas[i], ...)``
    as returned, so every step lists the same trials. Returns None when
    ``steps`` has no ``dr`` step or no ``ce`` step. Otherwise, per
    (delta, CE step) in order, the summary reports the trials that
    produced records (trials excluded at the optimum produce none) and,
    over those passing the uniformity gate, the fraction with raw CE ratio
    >= raw DR ratio - 1e-9, the means of both readings, and the
    post-projection comparison.
    """
    dr_at = next((i for i, (kind, _) in enumerate(steps) if kind == "dr"), None)
    ce_at = [i for i, (kind, _) in enumerate(steps) if kind == "ce"]
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


def check_sweep(steps, deltas, runs):
    """``(summary fields, passed)`` of a sweep; ``runs`` as for ``pair_dominance``.

    It passes if it has DR records (else it checks nothing), every DR ratio - bound
    <= BOUND_TOL, and on every gated config raw CE >= raw DR on >= DOMINANCE_FRAC
    of trials and in the mean.
    """
    dr = [r for run in runs for step_records in run for r in step_records if r.loss_kind == "dr"]
    summary, passed = {}, bool(dr)
    if dr:
        worst = max(r.ratio - r.bound for r in dr)
        summary["dr_bound"] = {"max_ratio_minus_bound": worst, "passed": worst <= BOUND_TOL,
                              "max_sphere_dev": max(r.sphere_dev for r in dr),
                              "min_cos_after": min(r.cos_after for r in dr)}
        passed &= worst <= BOUND_TOL
    dom = pair_dominance(steps, deltas, runs)
    if dom is not None:
        summary["paired_dominance"] = dom
        passed &= all(cfg["raw_dominance_frac"] >= DOMINANCE_FRAC
                      and cfg["mean_ce_raw"] >= cfg["mean_dr_raw"]
                      for cfg in dom["configs"] if cfg["raw_dominance_frac"] is not None)
    return summary, passed


def records_csv(records) -> tuple:
    """(header, rows) for records.csv: one column per RegularityRecord field."""
    header = [f.name for f in fields(RegularityRecord)]
    row = attrgetter(*header)
    return header, [row(r) for r in records]
