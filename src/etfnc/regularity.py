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
that start, into one ``RECORD`` structured array per (delta, step) whose
fields are the columns of records.csv; ``check_sweep`` reduces their
columns to the dominance summary and judges both claims on it.

The pass is array code over blocks of trials, and its records equal those
of the one-vector loop bit for bit. Every dot and norm is a stacked
np.matmul, whose items are the BLAS calls that ``v.dot(w)`` and ``h @ W``
make, and a row standing for a strided classifier column W[:, c] keeps a
non-unit stride, since the BLAS dot sums a contiguous pair in another order.
"""

import math

import numpy as np

from .etf import FixedClassifier
from .losses import NumericDivergence, softmax_probs

#: trials closer to the optimum than this times |h*| = sqrt(E_H) are excluded, not ratios
DIST_GUARD = 1e-12
#: trials per block of the sweep's array code. Its (n, d) temporaries stay small: at d = 20
#: one block of 500 trials left the process 1 MB larger than the one-vector loop, 128 did not
BLOCK_TRIALS = 128
_TINY = np.finfo(float).tiny
#: shrink factor of the ball projection's ulp nudge, here and in the one-vector
#: ``project_ball`` of tests/oracles.py
_NUDGE = 1.0 - 4.0 * np.finfo(float).eps


#: one record of the sweep, its fields in the order of records.csv's columns: ``ratio`` is the
#: projected iterate's distance ratio, ``raw_ratio`` the pre-projection one (the bounded
#: quantity), ``bound`` (1 + cos_before) / 2 and ``sphere_dev`` | |h1|^2 - E_H |
RECORD = np.dtype([("trial", np.int64), ("loss_kind", "U6"), ("gamma", float), ("delta", float),
                   ("class_index", np.int64)] + [(name, float) for name in (
                       "cos_before", "ratio", "raw_ratio", "bound", "uniformity_dev",
                       "sphere_dev", "cos_after")])


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


def ce_instance_rate(K: int, e_h: float, e_w: float, cos: float, p_c: float) -> float:
    """The per-instance CE rate that would match DR's bound.

    gamma* = (K-1)/K * sqrt(E_H/E_W) * (1 - cos(h, w*_c)) / (1 - p_c(h)); it
    depends on h, so it is not an admissible fixed learning rate. ``cos`` and
    ``p_c`` may be arrays, one entry per start.
    """
    return (K - 1) / K * math.sqrt(e_h / e_w) * (1.0 - cos) / (1.0 - p_c)


def check_classifier(classifier: FixedClassifier) -> None:
    """Refuse, with a ValueError, a classifier the sweep cannot measure."""
    if not classifier.is_uniform():
        raise ValueError("regularity experiment needs a uniform-length classifier")
    if classifier.dim < 2:  # the sphere of d = 1 is two points: no tangent start direction
        raise ValueError(f"regularity experiment needs d >= 2, got d={classifier.dim}")


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[i] . B[i] for every row i, each summed as ``A[i].dot(B[i])`` sums it.

    A stacked np.matmul of (n, 1, d) by (n, d, 1) calls, per row, the BLAS
    dot that ``v.dot(w)`` calls; einsum sums in another order. The BLAS dot
    sums a non-unit-stride operand in another order than a contiguous one,
    so a row of B must keep the stride of the vector it stands for.
    """
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _class_columns(W: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Rows W[:, c] for c in cls, each with a non-unit stride like the column it copies.

    A spare column keeps the stride above one element when cls has one
    entry; a contiguous row would take the BLAS dot's other summation order.
    """
    cols = np.empty((W.shape[0], len(cls) + 1))
    cols[:, :-1] = W[:, cls]
    return cols[:, :-1].T


def _squares(x: np.ndarray) -> np.ndarray:
    """``_squared`` of each entry, one scalar pow each: array x ** 2 differs in ~1 of 1000.

    A float's ** 2 calls the C pow of np.float64 ** 2, but raises OverflowError past ~1.3e154."""
    try:
        return np.array([v ** 2 for v in x.tolist()])
    except OverflowError:
        return np.array([_squared(v) for v in x])


def _ce_grads(P: np.ndarray, p_c: np.ndarray, cls: np.ndarray, W: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """CE's gradient -(pull + push) of ``losses._pull_push`` at each row of probabilities P.

    Row i has class cls[i], own probability p_c[i] and column cols[i] =
    W[:, cls[i]]. A class's push is the one gemv of ``_pull_push``,
    W[:, others] @ p[others], broadcast over the rows of that class: no
    (n, d, K-1) gather of off-class columns.
    """
    push = np.empty(cols.shape)
    for k in range(W.shape[1]):
        of_k = cls == k
        if not of_k.any():
            continue
        others = np.arange(W.shape[1]) != k
        p_others = np.ascontiguousarray(P[of_k][:, others])
        push[of_k] = -np.matmul(W[:, others], p_others[:, :, None])[:, :, 0]
    pull = (1.0 - p_c)[:, None] * cols
    return -(pull + push)


def _project_ball_rows(pre: np.ndarray, e_h: float):
    """The one-vector ``project_ball`` of tests/oracles.py on every row of pre, in place.

    Returns (squared row norms, failed rows). A row fails where
    project_ball raises: its squared norm overflows or is NaN, or the
    ratio e_h / |v|^2 is not a normal float: a subnormal ratio keeps so few
    bits that the scaled row can lie ~1e-5 outside the ball, ~1e9 ulp
    nudges away. Failed rows are left as they were.
    ``peeled._project_rows`` takes its norms with einsum, in another order.
    """
    nsq = _row_dots(pre, pre)
    over = np.flatnonzero(~(nsq <= e_h))
    ratio = e_h / nsq[over]
    fit = ratio >= _TINY
    failed = np.zeros(len(pre), dtype=bool)
    failed[over] = ~fit
    over, scale = over[fit], np.sqrt(ratio[fit])
    h1 = pre[over] * scale[:, None]
    while True:  # the scaled row may round outside the ball: nudge it down by ulps
        grown = _row_dots(h1, h1) > e_h
        if not grown.any():
            break
        h1[grown] *= _NUDGE
    pre[over] = h1
    return nsq, failed


def _sweep_block(classifier, steps, deltas, e_h, h_stars, w_norms, drawn, first, runs, filled):
    """Every delta and step of the trials first, first + 1, ... drawn as ``drawn``.

    Writes their records into ``runs[i][j]`` from row ``filled[i]`` on, which it advances, and
    returns the divergences met, as ``(trial, delta index, stage, message)``: stage -1 is the
    start, 4j to 4j + 3 are step j's rate, step, projection and ratio, so the least is the one
    the one-vector loop meets first.
    """
    K, W, e_w = classifier.num_classes, classifier.scaled_columns, classifier.e_w
    root_e_h, guard = np.sqrt(e_h), DIST_GUARD * math.sqrt(e_h)
    trials = np.arange(first, first + len(drawn))
    classes = np.array([c for c, _ in drawn])
    tangents = np.array([u for _, u in drawn])
    failures = []

    def fail(mask, trial_of, i, stage, message):
        """Note the first row r of ``mask``, trial trial_of[r], as a divergence at (delta i, stage).

        ``message(t, r)`` words it.
        """
        bad = np.flatnonzero(mask)
        if bad.size:
            t = int(trial_of[bad[0]])
            failures.append((t, i, stage, message(t, bad[0])))

    for i, (delta, per_step) in enumerate(zip(deltas, runs)):
        h0 = h_stars[classes] + (delta * root_e_h) * tangents
        h0 *= (root_e_h / np.sqrt(_row_dots(h0, h0)))[:, None]
        # rescaling |h* + delta u| over- or underflowed, or |h0|^2 = E_H is subnormal:
        # too few bits for the ratios, and the projection's ulp nudges would not shrink it
        n0_sq = _row_dots(h0, h0)
        off = ~((_TINY <= n0_sq) & (n0_sq < np.inf))
        fail(off, trials, i, -1,
             lambda t, _: f"start of trial {t} at delta={delta:g} left the sphere")
        diff = h0 - h_stars[classes]
        dist0 = np.sqrt(_row_dots(diff, diff))
        rows = np.flatnonzero(~off & ~(dist0 < guard))
        if not rows.size:
            continue
        live, cls, h0, dist0 = trials[rows], classes[rows], h0[rows], dist0[rows]
        h_star = h_stars[cls]
        cols = _class_columns(W, cls)
        col_norms = w_norms[cls]
        dist0_sq = _squares(dist0)
        # |h0|^2 and |w_c|^2 are finite, so the cosine is too
        h0_dot_w = _row_dots(h0, cols)
        cos_raw = h0_dot_w / (np.sqrt(n0_sq[rows]) * col_norms)
        # within ~1e-8 of h* the cosine can round to 1 + ulp
        cos0 = np.where(1.0 < cos_raw, 1.0, cos_raw)
        bound = (1.0 + cos0) / 2.0
        # one softmax per start: uniformity, CE gradient, rate; a (n, 1, d) stack of
        # starts makes its h @ W one gemv per start
        P = softmax_probs(h0[:, None, :], W)[:, 0, :]
        own = np.arange(len(cls)), cls
        p_c = P[own]
        spread = np.abs(P - ((1.0 - p_c) / (K - 1))[:, None])  # oracles.offclass_deviation
        spread[own] = 0.0
        uniformity_dev = spread.max(axis=1)
        grad_ce = _ce_grads(P, p_c, cls, W, cols)
        lengths = classifier.lengths[cls] * root_e_h  # dr_grad's targets t
        grad_dr = (h0_dot_w / lengths - 1.0)[:, None] * cols
        span = slice(filled[i], filled[i] + len(live))
        for j, (records, (kind, gamma)) in enumerate(zip(per_step, steps)):
            rate = "None" if gamma is None else format(gamma, "g")
            at = f"at delta={delta:g}, step ({kind}, {rate})"
            if kind == "ce-opt":
                fail(p_c == 1.0, live, i, 4 * j, lambda t, _: (  # the rate divides by 1 - p_c
                    f"instance-optimal rate undefined in trial {t}: p_c rounds to 1 {at}"))
                g = ce_instance_rate(K, e_h, e_w, cos_raw, p_c)
                pre = h0 - g[:, None] * grad_ce
            else:
                g = float(gamma)
                pre = h0 - g * (grad_dr if kind == "dr" else grad_ce)
            pre = np.ascontiguousarray(pre)  # its dots sum contiguous rows, as pre.dot(pre) does
            fail(~np.isfinite(pre).all(axis=1), live, i, 4 * j + 1,
                 lambda t, _: f"non-finite step in trial {t} {at}")
            diff = pre - h_star
            raw_ratio = _squares(np.sqrt(_row_dots(diff, diff))) / dist0_sq
            nsq, failed = _project_ball_rows(pre, e_h)
            h1 = pre
            fail(failed, live, i, 4 * j + 2, lambda t, r: (
                f"squared norm {float(nsq[r])} has no finite projection onto "
                f"|x|^2 <= {e_h}: trial {t} {at}"))
            # |pre - h*|^2 overflows, or dist0^2 underflows
            fail(~np.isfinite(raw_ratio), live, i, 4 * j + 3,
                 lambda t, _: f"raw ratio not finite in trial {t} {at}")
            if failures:  # the sweep raises: no records needed
                continue
            h1_sq = _row_dots(h1, h1)
            diff = h1 - h_star
            ratio = _squares(np.sqrt(_row_dots(diff, diff))) / dist0_sq
            cos_after = _row_dots(h1, cols) / (np.sqrt(h1_sq) * col_norms)
            block = records[span]
            for name, value in zip(RECORD.names, (
                    live, kind, g, delta, cls, cos0, ratio, raw_ratio, bound, uniformity_dev,
                    np.abs(h1_sq - e_h), cos_after)):
                block[name] = value
        filled[i] = span.stop
    return failures


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
    delta, a ``RECORD`` array per step: ``runs[i][j]`` is delta i, step j.
    Trial t draws its class and unit tangent once, with rng seed (seed, t),
    builds its start at each delta from them, and takes every step from
    that start, so the arrays are paired by trial. A delta is a
    fraction of |h*| = sqrt(e_h), so a start lies at about the same angle
    to h* at every e_h. Trials starting within DIST_GUARD sqrt(e_h) of h*
    are excluded.

    Each block of BLOCK_TRIALS trials runs as array code, delta by delta,
    in place in arrays of ``trials`` rows, whose filled rows are returned.
    Every dot and norm is a stacked np.matmul (``_row_dots``), and the rows
    that stand for the strided class columns W[:, c] keep a non-unit
    stride, so each record holds the bits of the one-vector form. A
    divergence raises the first failing (trial, delta, step) in trial
    order, each trial over every delta and every step, and names all three.
    """
    for kind, _ in steps:
        if kind not in ("ce", "dr", "ce-opt"):
            raise ValueError(f"unknown step kind {kind!r}")
    check_classifier(classifier)

    K, W, e_w = classifier.num_classes, classifier.scaled_columns, classifier.e_w
    # an over- or underflow, or a NaN, is found by explicit checks and raised as a
    # NumericDivergence: at the start, the step, the projection or the ratio
    with np.errstate(all="ignore"):
        w_norms = np.array([np.linalg.norm(W[:, k]) for k in range(K)])  # strided columns
        if not all(0 < n < np.inf for n in w_norms):  # cos(h, w_c) would divide by |w_c|
            raise NumericDivergence(f"classifier column norms under- or overflow at e_w={e_w:g}")
        root_e_h = np.sqrt(e_h)
        h_stars = np.array([root_e_h * classifier.frame.columns[:, k] for k in range(K)])
        runs = [[np.empty(trials, RECORD) for _ in steps] for _ in deltas]
        filled = [0] * len(deltas)
        for first in range(0, trials, BLOCK_TRIALS):
            drawn = [_draw_trial(classifier, h_stars, e_h, np.random.default_rng([seed, t]))
                     for t in range(first, min(first + BLOCK_TRIALS, trials))]
            failures = _sweep_block(classifier, steps, deltas, e_h, h_stars, w_norms, drawn,
                                    first, runs, filled)
            if failures:
                raise NumericDivergence(min(failures)[3])
    return [[records[:n] for records in run] for run, n in zip(runs, filled)]


#: gate on a record's uniformity_dev for the CE-vs-DR dominance assertion
UNIFORMITY_GATE = 1e-3
#: slack on DR's projected ratio - (1 + cos) / 2
BOUND_TOL = 1e-9
#: least fraction of gated trials on which CE's raw ratio must reach DR's
DOMINANCE_FRAC = 0.99
#: slack on CE's raw ratio against DR's, per trial and in the mean
DOMINANCE_SLACK = 1e-9


def _first(fold, columns):
    """Python's ``fold`` (max or min) over NaN-free ``columns`` in order: a tie keeps the first."""
    arg = np.argmax if fold is max else np.argmin
    return fold(float(c[arg(c)]) for c in columns)


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
    all_dr = [r for run in runs for r, (kind, _) in zip(run, steps) if kind == "dr" and len(r)]
    summary, passed = {}, bool(all_dr)
    if all_dr:
        worst = _first(max, (r["ratio"] - r["bound"] for r in all_dr))
        summary["dr_bound"] = {"max_ratio_minus_bound": worst, "passed": worst <= BOUND_TOL,
                              "max_sphere_dev": _first(max, (r["sphere_dev"] for r in all_dr)),
                              "min_cos_after": _first(min, (r["cos_after"] for r in all_dr))}
        passed &= worst <= BOUND_TOL
    dr_at = next((i for i, (kind, _) in enumerate(steps) if kind == "dr"), None)
    ce_at = [i for i, (kind, _) in enumerate(steps) if kind == "ce"]
    if dr_at is None or not ce_at:
        return summary, passed
    dom = {"gamma_dr": float(steps[dr_at][1]), "uniformity_gate": UNIFORMITY_GATE, "configs": []}
    for delta, run in zip(deltas, runs):
        dr = run[dr_at]
        bound_gap = _first(max, [dr["ratio"] - dr["bound"]]) if len(dr) else None
        for j in ce_at:
            gamma, ce = steps[j][1], run[j]
            gated = ce["uniformity_dev"] < UNIFORMITY_GATE
            ce_raw, dr_raw = ce["raw_ratio"][gated], dr["raw_ratio"][gated]
            cfg = {
                "delta": delta,
                "gamma_ce": float(gamma),
                "trials": len(dr),
                "gated_trials": len(ce_raw),
                "dr_max_ratio_minus_bound": bound_gap,
            }
            if cfg["gated_trials"]:
                with np.errstate(over="ignore"):  # a sum past float range is refused below
                    cfg.update(
                        raw_dominance_frac=float(np.mean(ce_raw >= dr_raw - DOMINANCE_SLACK)),
                        mean_ce_raw=float(np.mean(ce_raw)),
                        mean_dr_raw=float(np.mean(dr_raw)),
                        mean_ce_ratio=float(np.mean(ce["ratio"][gated])),
                        mean_dr_ratio=float(np.mean(dr["ratio"][gated])),
                    )
                if not all(math.isfinite(v) for k, v in cfg.items() if k.startswith("mean_")):
                    raise NumericDivergence(
                        f"mean ratio overflows at delta={delta:g}, gamma_ce={gamma:g}")
                passed &= (cfg["raw_dominance_frac"] >= DOMINANCE_FRAC
                           and cfg["mean_ce_raw"] >= cfg["mean_dr_raw"] - DOMINANCE_SLACK)
            elif len(dr):
                cfg.update(raw_dominance_frac=None, note="no trials passed the gate")
            else:
                cfg.update(raw_dominance_frac=None,
                           note="no trials: every start was excluded at the optimum")
            dom["configs"].append(cfg)
    summary["paired_dominance"] = dom
    return summary, passed
