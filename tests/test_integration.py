"""Cross-module checks: metrics evaluated on optimizer output."""

import numpy as np

from etfnc.batches import FeatureBatch
from etfnc.etf import generate_etf, uniform_classifier
from etfnc.metrics import nc_report
from etfnc.peeled import analytic_optimum, dlpm_problem, optimize
from oracles import dr_loss


def run_dlpm(counts, seed=1, stop=1e-3):
    clf = uniform_classifier(generate_etf(16, 10, 0), 1.0)
    prob = dlpm_problem(clf, counts, 1.0, seed)
    traj = optimize(prob, "ce", step_size=0.5, max_steps=4000, stop_tol=stop)
    assert traj.records[-1].gap < stop
    return traj.final, clf


class TestMetricsAtDlpmOptimum:
    def test_balanced_run_hits_ideal_bundle(self):
        """Driven to gap < 1e-3 on balanced counts, every statistic is ideal."""
        final, clf = run_dlpm([20] * 10)
        rep = nc_report(FeatureBatch(final.features, final.labels, 10), clf.scaled_columns)
        assert rep.sigma_w_trace < 1e-4 * final.e_h
        assert abs(rep.cos_ff_avg + 1 / 9) < 1e-2 and rep.cos_ff_std < 1e-2
        assert abs(rep.cos_fc_avg + 1 / 9) < 1e-2 and rep.cos_fc_std < 1e-2
        assert rep.self_duality > 0.999
        assert rep.duality_gap < 1e-3
        assert rep.nc4 == 1.0

    def test_imbalanced_run_keeps_collapse_but_skews_global_mean(self):
        """Per-class collapse and NC4 survive any imbalance; the cosine panels
        do not, because the global mean is sample-weighted and drifts toward
        the majority classes even though every class mean sits exactly on
        its ETF vertex."""
        final, clf = run_dlpm([1000, 333, 111, 37, 12, 4, 1, 1, 1, 1])
        rep = nc_report(FeatureBatch(final.features, final.labels, 10), clf.scaled_columns)
        assert rep.sigma_w_trace < 1e-4 * final.e_h
        assert rep.nc4 == 1.0
        # the class means themselves are still the vertices
        means = np.stack(
            [final.features[final.labels == k].mean(axis=0) for k in range(10)]
        )
        dots = means @ clf.scaled_columns
        target = 10 / 9 * np.eye(10) - 1 / 9
        assert np.abs(dots - target).max() < 2e-3
        # but the sample-weighted centering visibly skews the panels
        assert rep.self_duality < 0.999


class TestDrAtAnalyticOptimum:
    def test_every_sample_loss_zero(self):
        clf = uniform_classifier(generate_etf(12, 6, 3), 2.0)
        e_h = 3.0
        h_star = analytic_optimum(clf, e_h)
        for k in range(6):
            assert dr_loss(h_star[:, k], clf, k, e_h) < 1e-24
