"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

``test_claim_3_*`` pins claim 3 of README's claims ledger on criterion 3's instance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import central_diff, rel_error
from etfnc.batches import FeatureBatch
from etfnc.cli import main as cli_main
from etfnc.etf import generate_etf, uniform_classifier
from etfnc.losses import (ce_terms, decompose_pull_push_classifier, decompose_pull_push_feature,
                          dr_grad)
from etfnc.metrics import nc_report
from etfnc.peeled import dlpm_problem, lpm_problem, minority_collapse_probe, optimize
from etfnc.regularity import check_sweep, run_regularity_sweep
from etfnc.serialize import derive_seed
from etfnc.trainer import MlpBackbone, SyntheticDatasetSpec, TrainConfig, make_imbalanced_dataset, train
from oracles import ce_feature_grad, ce_grad_classifier, ce_loss, dr_loss


def _check(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_etf_structure():
    """Gram matches K/(K-1) delta - 1/(K-1) within 1e-10; columns sum to ~0."""
    worst_gram, worst_sum = 0.0, 0.0
    for K in (2, 4, 10, 64):
        for d in (K - 1, K, 2 * K):
            for seed in range(20):
                frame = generate_etf(d, K, seed)
                worst_gram = max(worst_gram, np.abs(frame.gram() - frame.gram_target()).max())
                worst_sum = max(worst_sum, np.abs(frame.columns.sum(axis=1)).max())
    _check(
        1, "ETF structure over K in {2,4,10,64}, d in {K-1,K,2K}, 20 seeds",
        worst_gram <= 1e-10 and worst_sum <= 1e-9,
        f"max gram dev {worst_gram:.2e}, max column sum {worst_sum:.2e}",
    )


def test_criterion_2_gradient_oracles():
    """Analytic gradients vs central differences; exact pull/push splits."""
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    dims = [(2, 2), (8, 5), (64, 10)]

    for i in range(200):  # CE feature gradient and DR gradient
        d, K = dims[i % 3]
        W = rng.standard_normal((d, K))
        h = rng.standard_normal(d)
        c = int(rng.integers(K))
        fd = central_diff(lambda x: ce_loss(x, c, W), h)
        worst_fd = max(worst_fd, rel_error(ce_feature_grad(h, c, W), fd))

        clf = uniform_classifier(generate_etf(d, K, i), e_w=2.0)
        fd = central_diff(lambda x: dr_loss(x, clf, c, 1.5), h)
        worst_fd = max(worst_fd, rel_error(dr_grad(h, clf, c, 1.5), fd))

    for i in range(200):  # CE classifier gradient on batches
        d, K, N = 4, 3, 12
        feats = rng.standard_normal((N, d))
        labels = rng.integers(K, size=N)
        batch = FeatureBatch(feats, labels, K)
        W = rng.standard_normal((d, K))
        k = int(rng.integers(K))

        def batch_loss(col):
            Wp = W.copy()
            Wp[:, k] = col
            return sum(ce_loss(feats[j], labels[j], Wp) for j in range(N))

        fd = central_diff(batch_loss, W[:, k])
        worst_fd = max(worst_fd, rel_error(ce_grad_classifier(batch, W, k), fd))

    worst_split = 0.0
    for i in range(200):  # pull + push == -gradient, both sides
        d, K, N = 6, 4, 10
        W = rng.standard_normal((d, K))
        h = rng.standard_normal(d)
        c = int(rng.integers(K))
        pull, push = decompose_pull_push_feature(h, c, W)
        grad = W @ (ce_terms(h, c, W)[1] - np.eye(K)[c])  # W dL/dlogits, the batch kernel's form
        worst_split = max(worst_split, rel_error(pull + push, -grad))
        batch = FeatureBatch(rng.standard_normal((N, d)), rng.integers(K, size=N), K)
        pull, push = decompose_pull_push_classifier(batch, W, c)
        worst_split = max(worst_split, rel_error(pull + push, -ce_grad_classifier(batch, W, c)))
    _check(
        2, "analytic gradients vs finite differences; exact pull/push splits",
        worst_fd < 1e-6 and worst_split < 1e-12,
        f"max FD rel err {worst_fd:.2e}, max split rel err {worst_split:.2e}",
    )


COUNTS_C3 = [1000, 333, 111, 37, 12, 4, 1, 1, 1, 1]


def test_criterion_3_dlpm_oracle_equivalence():
    """Projected GD reaches the closed-form optimum under heavy imbalance.

    CE runs at gamma 0.5 (the tuned-grid default). DR's pull gradient
    vanishes like (1 - cos) near the optimum, so a fixed rate this small
    has a harmonic tail; the bound-optimal rate sqrt(E_H/E_W) needs ~4e5
    steps for a 1e-3 gap here. DR therefore runs at fixed gamma 512,
    which clears the gap within ~1.1e3 steps (projection makes the
    pull-only step stable at any fixed rate).
    """
    clf = uniform_classifier(generate_etf(16, 10, 0), 1.0)
    results = {}
    for loss_kind, gamma in (("ce", 0.5), ("dr", 512.0)):
        worst_gap, worst_steps = 0.0, 0
        for seed in range(5):
            prob = dlpm_problem(clf, COUNTS_C3, 1.0, seed)
            traj = optimize(prob, loss_kind, step_size=gamma, max_steps=5000, stop_tol=1e-3)
            worst_gap = max(worst_gap, traj.records[-1].gap)
            worst_steps = max(worst_steps, traj.records[-1].step)
        results[loss_kind] = (worst_gap, worst_steps)
    ok = all(gap < 1e-3 and steps <= 5000 for gap, steps in results.values())
    _check(
        3, "DLPM gap < 1e-3 within 5000 steps, 5 inits, CE and DR, n=(1000,...,1)",
        ok,
        "; ".join(f"{k}: gap {g:.2e} in <= {s} steps" for k, (g, s) in results.items()),
    )


def test_claim_3_dr_steps_do_not_grow_with_scale():
    """Paper claim 3 on criterion 3's instance: DR needs as many steps at E_H = E_W = 16 as
    at 1, while CE at a fixed rate stops in 3 steps at 1 and stalls within 5000 at 16.

    The gap is compared with 1e-3 sqrt(E_H E_W), its size relative to the optimum.
    Measured: DR stops at step 1095 at both scales; CE at 16 ends at gap 0.354 sqrt(E_H E_W).
    """
    frame = generate_etf(16, 10, 0)

    def run(loss_kind, gamma, scale):
        prob = dlpm_problem(uniform_classifier(frame, scale), COUNTS_C3, scale, 0)
        return optimize(prob, loss_kind, gamma, max_steps=5000, stop_tol=1e-3 * scale)

    dr = [run("dr", 512.0, scale) for scale in (1.0, 16.0)]
    assert [t.stop_reason for t in dr] == ["gap", "gap"]
    assert dr[0].records[-1].step == dr[1].records[-1].step
    ce = [run("ce", 32.0, scale) for scale in (1.0, 16.0)]
    assert ce[0].stop_reason == "gap"
    assert ce[1].stop_reason == "max_steps" and ce[1].records[-1].gap >= 1e-3 * 16.0


def test_criterion_4_contraction_bound_and_dominance():
    """DR one-step bound (projected iterate) and CE >= DR pre-projection ordering."""
    deltas = (0.01, 0.05, 0.1)
    worst_bound, worst_sphere, worst_cos = -np.inf, 0.0, np.inf
    for K in (4, 10):
        for d in (K - 1, 2 * K):
            clf = uniform_classifier(generate_etf(d, K, K + d), 1.0)
            for delta in deltas:
                records = run_regularity_sweep(clf, [("dr", 1.0)], [delta], 500, 41)[0][0]
                assert records
                worst_bound = max(worst_bound, max(r.ratio - r.bound for r in records))
                worst_sphere = max(worst_sphere, max(r.sphere_dev for r in records))
                worst_cos = min(worst_cos, min(r.cos_after for r in records))
    bound_ok = worst_bound <= 1e-9 and worst_sphere <= 1e-9 and worst_cos >= 0.0

    gammas = [0.05, 0.1, 0.5, 1.0]  # sqrt(E_H/E_W) = 1.0 coincides with the sweep
    steps = [("dr", 1.0)] + [("ce", g) for g in gammas]
    dom_ok, gated_configs, total_configs = True, 0, 0
    details = []
    for K in (4, 10):
        clf = uniform_classifier(generate_etf(2 * K, K, 3 * K), 1.0)
        runs = run_regularity_sweep(clf, steps, deltas, 500, 42)
        out = check_sweep(steps, deltas, runs)[0]["paired_dominance"]
        for cfg in out["configs"]:
            total_configs += 1
            frac = cfg.get("raw_dominance_frac")
            if frac is None:
                continue  # no trials passed the uniformity gate at this delta
            gated_configs += 1
            if frac < 0.99 or cfg["mean_ce_raw"] < cfg["mean_dr_raw"]:
                dom_ok = False
                details.append(f"K={K} delta={cfg['delta']} gamma={cfg['gamma_ce']}: frac {frac}")
    _check(
        4, "DR ratio <= (1+cos)/2 + 1e-9; gated CE >= DR pre-projection dominance",
        bound_ok and dom_ok and gated_configs > 0,
        f"max(ratio-bound) {worst_bound:.2e}, sphere dev {worst_sphere:.2e}, "
        f"min cos_after {worst_cos:.2e}, {gated_configs}/{total_configs} configs gated"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_5_minority_collapse_probe():
    """LPM merges minor-class columns; DLPM on the same data does not."""
    counts = [1000] * 5 + [2] * 5
    prob = lpm_problem(16, 10, counts, 1.0, 1.0, seed=50, feature_seed=51)
    traj = optimize(prob, "ce", step_size=0.5, max_steps=20000, stop_tol=1e-5)
    assert traj.stop_reason == "grad_norm", "LPM did not reach gradient norm < 1e-5"
    probe = minority_collapse_probe(traj.final.classifier, [5, 6, 7, 8, 9])
    balanced = -1.0 / 9.0
    lpm_ok = probe.mean_cosine >= balanced + 0.3  # calibrated runs reach ~1.0

    clf = uniform_classifier(generate_etf(16, 10, 50), 1.0)
    dprob = dlpm_problem(clf, counts, 1.0, feature_seed=51)
    dtraj = optimize(dprob, "ce", step_size=0.5, max_steps=5000, stop_tol=1e-4)
    means = np.stack(
        [dtraj.final.features[dtraj.final.labels == k].mean(axis=0) for k in range(10)]
    )
    mn = means / np.linalg.norm(means, axis=1, keepdims=True)
    cosines = (mn @ mn.T)[~np.eye(10, dtype=bool)]
    dlpm_ok = np.abs(cosines - balanced).max() <= 0.05
    _check(
        5, "minority collapse in LPM vs none in DLPM",
        lpm_ok and dlpm_ok,
        f"LPM minor mean cos {probe.mean_cosine:.4f} (needs >= {balanced + 0.3:.4f}); "
        f"DLPM worst |cos + 1/9| {np.abs(cosines - balanced).max():.4f}",
    )


def test_criterion_6_metrics_at_collapse():
    """Exact ETF placement: all collapse statistics at their ideal values."""
    frame = generate_etf(12, 10, 6)
    feats = np.repeat(frame.columns.T, 2, axis=0)  # power-of-two count: exact means
    batch = FeatureBatch(feats, np.repeat(np.arange(10), 2), 10)
    rep = nc_report(batch, frame.columns)
    target = -1.0 / 9.0
    ok = (
        rep.sigma_w_trace == 0.0
        and abs(rep.cos_ff_avg - target) <= 1e-12
        and abs(rep.cos_fc_avg - target) <= 1e-12
        and rep.cos_ff_std <= 1e-12
        and rep.cos_fc_std <= 1e-12
        and abs(rep.self_duality - 1.0) <= 1e-12
        and rep.duality_gap < 1e-12
        and rep.nc4 == 1.0
    )
    _check(
        6, "NC metrics at exact collapse",
        ok,
        f"trace {rep.sigma_w_trace:.1e}, ff {rep.cos_ff_avg:.15f}+-{rep.cos_ff_std:.1e}, "
        f"duality gap {rep.duality_gap:.1e}, nc4 {rep.nc4}",
    )


def test_criterion_7_desk_scale_regime_comparison():
    """5 seeds: ETF+DR beats learnable+CE on balanced accuracy and tracks
    neural collapse more tightly (smaller cosine-panel stds). Each regime
    trains from its own seeds, so only the two compared regimes run."""
    regimes = ("learnable-ce", "etf-dr")
    results = {r: [] for r in regimes}
    for seed in range(5):
        spec = SyntheticDatasetSpec(
            num_classes=10, input_dim=32, n_max=500, imbalance_ratio=0.01,
            separation=3.0, noise_scale=1.0, seed=derive_seed(seed, "dataset"),
        )
        train_set, test_set = make_imbalanced_dataset(spec)
        for regime in regimes:
            model = MlpBackbone.init([32, 64, 32], seed=derive_seed(seed, f"model:{regime}"))
            log = train(model, train_set, test_set, TrainConfig(epochs=48, regime=regime, seed=seed))
            quarter = max(1, len(log.records) // 4)
            tail = log.records[-quarter:]
            results[regime].append(
                (
                    log.final_bal_acc,
                    float(np.mean([r.train.cos_ff_std for r in tail])),
                    float(np.mean([r.train.cos_fc_std for r in tail])),
                )
            )
    dr, ce = results["etf-dr"], results["learnable-ce"]
    mean_dr = float(np.mean([v[0] for v in dr]))
    mean_ce = float(np.mean([v[0] for v in ce]))
    acc_ok = mean_dr >= mean_ce
    std_ok = all(d[1] <= c[1] and d[2] <= c[2] for d, c in zip(dr, ce))
    _check(
        7, "desk-scale regimes: mean bal acc ETF+DR >= learnable+CE; panel stds <=",
        acc_ok and std_ok,
        f"bal acc {mean_dr:.4f} vs {mean_ce:.4f}; per-seed std ordering "
        f"{['ok' if d[1] <= c[1] and d[2] <= c[2] else 'VIOLATED' for d, c in zip(dr, ce)]}",
    )


def _payload(run_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(run_dir).iterdir())
        if p.name != "manifest.json"
    }


def test_criterion_8_cli_determinism(tmp_path):
    """Rerunning every command with identical inputs reproduces the bytes."""
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "dataset": {"num_classes": 3, "input_dim": 6, "n_max": 16,
                    "imbalance_ratio": 0.25, "test_per_class": 8},
        "model": {"hidden_sizes": [8], "feature_dim": 5},
        "train": {"epochs": 2},
        "regimes": ["learnable-ce", "etf-dr"],
        "seeds": [0],
    }))
    commands = {
        "etf": ["etf", "--d", "3", "--K", "4", "--seed", "1"],
        "peeled": ["peeled", "--mode", "dlpm", "--loss", "dr", "--K", "4", "--d", "6",
                   "--counts", "8,6,5,4", "--gamma", "1.0", "--steps", "40",
                   "--seed", "2"],
        "regularity": ["regularity", "--gammas", "0.5", "--deltas", "0.05", "--trials", "40",
                       "--K", "4", "--d", "8", "--seed", "3"],
        "train": ["train", "--config", str(cfg)],
    }
    mismatches = []
    for name, argv in commands.items():
        payloads = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            payloads.append(_payload(out))
        if payloads[0] != payloads[1]:
            mismatches.append(name)
    _check(8, "CLI reruns are byte-identical", not mismatches, f"mismatches: {mismatches or 'none'}")
