"""Per-sample reference forms that the library no longer needs, kept as test oracles.

The library computes losses and gradients through the batch kernels
``ce_terms`` and ``dr_terms``; these functions restate the paper's
per-sample forms (eqs. (3)-(7)) for the tests to compare against, along
with the reader of the ``frame.csv`` text that the tests round-trip and
the one-vector-at-a-time regularity sweep that the batched sweep must
reproduce bit for bit, with its one-vector ball projection, off-class
uniformity and DR bound (1 + cos) / 2, which the batched sweep computes
row by row; that sweep's records, one ``RegularityRecord`` each, and the
per-record ``check_sweep`` over them, whose fields and verdict the
library's column reductions must reproduce exactly; and the per-class
stacked draw of the synthetic dataset, which the in-place draw must
reproduce bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from etfnc.etf import EtfFrame, generate_etf
from etfnc.losses import (
    NumericDivergence,
    _pull_push,
    ce_terms,
    decompose_pull_push_classifier,
    decompose_pull_push_feature,
    dr_grad,
    softmax_probs,
)
from etfnc.regularity import (
    _NUDGE,
    _TINY,
    BOUND_TOL,
    DIST_GUARD,
    DOMINANCE_FRAC,
    DOMINANCE_SLACK,
    UNIFORMITY_GATE,
    _draw_trial,
    _norm,
    _squared,
    ce_instance_rate,
    check_classifier,
)


def ce_loss(h, label, W) -> float:
    """-log p_label(h), evaluated through log-sum-exp."""
    return float(ce_terms(h, label, W)[0])


def dr_loss(h, classifier, c, e_h) -> float:
    """(w_c . h - sqrt(E_{w_c} E_H))^2 / (2 sqrt(E_{w_c} E_H))."""
    t = float(classifier.lengths[c] * np.sqrt(e_h))
    dot = float(np.asarray(h, dtype=float) @ classifier.scaled_columns[:, c])
    return (dot - t) ** 2 / (2.0 * t)


def ce_feature_grad(h, label, W) -> np.ndarray:
    """dL_CE/dh = -(1-p_c) w_c + sum_{k!=c} p_k w_k, minus the pull/push split."""
    pull, push = decompose_pull_push_feature(h, label, W)
    return -(pull + push)


def ce_grad_classifier(batch, W, k) -> np.ndarray:
    """dL_CE/dw_k over a batch (sum over samples, no 1/N)."""
    pull, push = decompose_pull_push_classifier(batch, W, k)
    return -(pull + push)


def feature_normalize(h, e_h) -> np.ndarray:
    """Rescale h onto the sphere |h|^2 = e_h."""
    h = np.asarray(h, dtype=float)
    n = np.linalg.norm(h)
    if n <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero feature vector")
    return h * (np.sqrt(e_h) / n)


def frame_from_csv_text(text: str, rotation_seed: int = 0) -> EtfFrame:
    """Read back the ``frame.csv`` text that ``etfnc etf`` writes: one frame column per line."""
    cols = [
        [float(x) for x in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    columns = np.asarray(cols, dtype=float).T
    return EtfFrame(
        dim=columns.shape[0],
        num_classes=columns.shape[1],
        columns=columns,
        rotation_seed=rotation_seed,
    )


def imbalanced_dataset_stacked(spec):
    """[(features, labels)] of the train and test sets, each class drawn apart and stacked."""
    K = spec.num_classes
    centers = spec.separation * generate_etf(spec.input_dim, K, spec.seed).columns.T
    per_test = np.full(K, spec.test_per_class or spec.n_max)
    sets = []
    for stream, per_class in ((1, spec.counts()), (2, per_test)):
        rng = np.random.default_rng([spec.seed, stream])
        xs, ys = [], []
        for k in range(K):
            xs.append(centers[k] + spec.noise_scale * rng.standard_normal((per_class[k], spec.input_dim)))
            ys.append(np.full(per_class[k], k, dtype=int))
        sets.append((np.vstack(xs), np.concatenate(ys)))
    return sets


def project_ball(v: np.ndarray, E: float) -> np.ndarray:
    """Orthogonal projection of v onto the ball {x : |x|^2 <= E}.

    Returns v unchanged for interior points, else v * sqrt(E)/|v|. The
    scaled result is nudged down by ulps if rounding left it outside the
    ball, so the projection is exactly idempotent.
    """
    if E <= 0:
        raise ValueError("ball radius squared E must be positive")
    v = np.asarray(v, dtype=float)
    nsq = float(v.dot(v))
    if nsq <= E:
        return v
    ratio = E / nsq
    # |v|^2 overflowed or is NaN, or E / |v|^2 is subnormal: too few bits for the nudges to end
    if not ratio >= _TINY:
        raise NumericDivergence(f"squared norm {nsq} has no finite projection onto |x|^2 <= {E}")
    w = v * math.sqrt(ratio)
    while float(w.dot(w)) > E:
        w = w * _NUDGE
    return w


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
    """One record of the one-vector sweep: the fields of ``regularity.RECORD``, in its order."""

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


def _start(h_star, u, delta, root_e_h):
    """Start point h* + delta |h*| u, rescaled to the sphere |h*| = sqrt(E_H)."""
    h0 = h_star + (delta * root_e_h) * u
    h0 *= root_e_h / _norm(h0)
    return h0


def regularity_sweep_loop(classifier, steps, deltas, trials, seed, e_h=1.0):
    """``run_regularity_sweep`` one trial, delta and step at a time, with its messages.

    It returns lists of ``RegularityRecord``s where the library returns ``RECORD`` arrays.

    The loop the library ran before it batched the trials: for trial t, for
    each delta, one start, one softmax and both gradients as vectors, then
    every ``(kind, gamma)`` step with ``project_ball``. The first failure in
    that order is raised. numpy's warnings are off: every failure is
    checked explicitly.
    """
    for kind, _ in steps:
        if kind not in ("ce", "dr", "ce-opt"):
            raise ValueError(f"unknown step kind {kind!r}")
    check_classifier(classifier)

    K, W, e_w = classifier.num_classes, classifier.scaled_columns, classifier.e_w
    with np.errstate(all="ignore"):
        w_norms = [np.linalg.norm(W[:, k]) for k in range(K)]
        if not all(0 < n < np.inf for n in w_norms):
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
                n0_sq = h0.dot(h0)
                if not _TINY <= n0_sq < np.inf:
                    raise NumericDivergence(
                        f"start of trial {t} at delta={delta:g} left the sphere")
                n0 = math.sqrt(n0_sq)
                dist0 = _norm(h0 - h_star)
                if dist0 < guard:
                    continue
                dist0_sq = _squared(dist0)
                cos_raw = float(h0.dot(w) / (n0 * w_norm))
                cos0 = min(cos_raw, 1.0)
                bound = dr_eta_bound(cos0)
                p = softmax_probs(h0, W)
                uniformity_dev = offclass_deviation(p, c)
                grad_ce, grad_dr = -np.add(*_pull_push(p, c, W)), dr_grad(h0, classifier, c, e_h)
                for records, (kind, gamma) in zip(per_step, steps):
                    at = (f"trial {t} at delta={delta:g}, step "
                          f"({kind}, {'None' if gamma is None else format(gamma, 'g')})")
                    if kind == "ce-opt" and p[c] == 1.0:
                        raise NumericDivergence(
                            f"instance-optimal rate undefined in trial {t}: p_c rounds to 1 "
                            f"at delta={delta:g}, step (ce-opt, None)")
                    g = (ce_instance_rate(K, e_h, e_w, cos_raw, p[c]) if kind == "ce-opt"
                         else float(gamma))
                    pre = h0 - g * (grad_dr if kind == "dr" else grad_ce)
                    if not np.isfinite(pre).all():
                        raise NumericDivergence(f"non-finite step in {at}")
                    try:
                        h1 = project_ball(pre, e_h)
                    except NumericDivergence as err:
                        raise NumericDivergence(f"{err}: {at}") from None
                    h1_sq = h1.dot(h1)
                    raw_ratio = float(_squared(_norm(pre - h_star)) / dist0_sq)
                    if not math.isfinite(raw_ratio):
                        raise NumericDivergence(f"raw ratio not finite in {at}")
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


def check_sweep_records(steps, deltas, runs):
    """``regularity.check_sweep`` over lists of ``RegularityRecord``s, one record at a time.

    The per-record form the library ran before it reduced record columns;
    its ``(summary fields, passed)`` and messages are the reference.
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
