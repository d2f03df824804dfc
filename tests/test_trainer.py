"""Backbone, synthetic data, normalization, and the training loop."""

import numpy as np
import pytest

from conftest import central_diff, rel_error
from etfnc.losses import ce_loss, ce_terms, dr_loss, dr_terms
from etfnc.trainer import (
    REGIMES,
    Dataset,
    MlpBackbone,
    SyntheticDatasetSpec,
    class_weights,
    evaluate,
    feature_normalize,
    feature_normalize_vjp,
    load_dataset_csv,
    make_imbalanced_dataset,
    regime_config,
    save_dataset_csv,
    train,
)
from etfnc.trainer import _build_classifier


class TestDatasetSpec:
    def test_balanced_limit(self):
        spec = SyntheticDatasetSpec(num_classes=4, input_dim=5, n_max=100, imbalance_ratio=1.0)
        np.testing.assert_array_equal(spec.counts(), [100, 100, 100, 100])

    def test_geometric_decay(self):
        spec = SyntheticDatasetSpec(num_classes=10, input_dim=5, n_max=500, imbalance_ratio=0.01)
        counts = spec.counts()
        assert counts[0] == 500 and counts[-1] == 5
        ratios = counts[:-1] / counts[1:]
        assert np.all(ratios > 1.0)

    def test_min_over_max_is_tau(self):
        spec = SyntheticDatasetSpec(num_classes=6, input_dim=5, n_max=200, imbalance_ratio=0.1)
        counts = spec.counts()
        np.testing.assert_allclose(counts.min() / counts.max(), 0.1, atol=0.5 / 200)

    def test_zero_count_rejected(self):
        spec = SyntheticDatasetSpec(num_classes=4, input_dim=5, n_max=10, imbalance_ratio=0.01)
        with pytest.raises(ValueError):
            spec.counts()

    def test_dataset_deterministic_and_balanced_test(self):
        spec = SyntheticDatasetSpec(
            num_classes=3, input_dim=6, n_max=20, imbalance_ratio=0.5, seed=4, test_per_class=7
        )
        tr1, te1 = make_imbalanced_dataset(spec)
        tr2, te2 = make_imbalanced_dataset(spec)
        assert np.array_equal(tr1.x, tr2.x) and np.array_equal(te1.x, te2.x)
        np.testing.assert_array_equal(np.bincount(te1.y), [7, 7, 7])

    def test_csv_roundtrip(self, tmp_path):
        spec = SyntheticDatasetSpec(num_classes=3, input_dim=4, n_max=8, imbalance_ratio=0.5, seed=0)
        train_set, _ = make_imbalanced_dataset(spec)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, train_set)
        back = load_dataset_csv(path, num_classes=3)
        assert np.array_equal(back.y, train_set.y)
        assert np.abs(back.x - train_set.x).max() < 1e-15

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("3,0.5,0.5", "line 3: label 3 outside [0, 3)"),
            ("-1,0.5,0.5", "line 3: label -1 outside [0, 3)"),
            ("1,0.5", "line 3: 1 features, the first row has 2"),
            ("1,0.5,abc", "line 3: expected an integer label followed by numbers"),
        ],
    )
    def test_csv_bad_row_named(self, tmp_path, bad_row, message):
        path = tmp_path / "data.csv"
        path.write_text(f"label,x0,x1\n0,1.0,2.0\n{bad_row}\n2,0.0,0.0\n")
        with pytest.raises(ValueError) as err:
            load_dataset_csv(path, num_classes=3)
        assert str(err.value) == f"{path} {message}"

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x0\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset_csv(path)


class TestForward:
    def test_zero_model_zero_feature(self):
        model = MlpBackbone([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        f, _ = model.forward(np.ones((5, 3)))
        assert np.all(f == 0)

    def test_identity_single_layer(self):
        model = MlpBackbone([np.eye(3)], [np.zeros(3)])
        x = np.array([[1.0, -2.0, 0.5]])
        f, _ = model.forward(x)
        np.testing.assert_allclose(f, x)  # last layer is linear, no rectifier

    def test_hidden_rectifier(self):
        model = MlpBackbone([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
        f, _ = model.forward(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(f, [[1.0, 0.0, 0.5]])

    def test_purity(self, rng):
        model = MlpBackbone.init([4, 8, 3], seed=0)
        x = rng.standard_normal((6, 4))
        f1, _ = model.forward(x)
        f2, _ = model.forward(x)
        assert np.array_equal(f1, f2)

    def test_shape_mismatch(self):
        model = MlpBackbone.init([4, 8, 3], seed=0)
        with pytest.raises(ValueError):
            model.forward(np.ones((2, 5)))


class TestBackward:
    def test_zero_grad_zero_params(self, rng):
        model = MlpBackbone.init([3, 5, 2], seed=1)
        _, cache = model.forward(rng.standard_normal((4, 3)))
        d_ws, d_bs = model.backward(cache, np.zeros((4, 2)))
        assert all(np.all(g == 0) for g in d_ws + d_bs)

    def test_finite_difference_full_model(self, rng):
        model = MlpBackbone.init([3, 4, 2], seed=2)
        x = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 2))

        def loss_with(params_flat):
            m = MlpBackbone.init([3, 4, 2], seed=2)
            offset = 0
            for arrs in (m.weights, m.biases):
                for a in arrs:
                    a[...] = params_flat[offset : offset + a.size].reshape(a.shape)
                    offset += a.size
            f, _ = m.forward(x)
            return 0.5 * float(np.sum((f - target) ** 2))

        flat = np.concatenate([a.ravel() for a in model.weights + model.biases])
        fd = central_diff(loss_with, flat, step=1e-5)
        f, cache = model.forward(x)
        d_ws, d_bs = model.backward(cache, f - target)
        analytic = np.concatenate([a.ravel() for a in d_ws + d_bs])
        assert rel_error(analytic, fd) < 1e-5

    def test_linearity_in_upstream_grad(self, rng):
        model = MlpBackbone.init([3, 6, 2], seed=3)
        _, cache = model.forward(rng.standard_normal((4, 3)))
        g = rng.standard_normal((4, 2))
        d1_w, d1_b = model.backward(cache, g)
        d2_w, d2_b = model.backward(cache, 2.0 * g)
        for a, b in zip(d1_w + d1_b, d2_w + d2_b):
            np.testing.assert_allclose(2.0 * a, b, atol=1e-12)


class TestFeatureNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            feature_normalize(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15
        )

    def test_already_unit(self):
        h = np.array([0.6, 0.8])
        np.testing.assert_allclose(feature_normalize(h, 1.0), h, atol=1e-15)

    def test_jacobian_vs_finite_differences(self, rng):
        h = rng.standard_normal(5) * 2
        u = rng.standard_normal(5)

        def scalar(x):
            return float(feature_normalize(x, 2.0) @ u)

        fd = central_diff(scalar, h)
        assert rel_error(feature_normalize_vjp(h, u, 2.0), fd) < 1e-6

    def test_near_zero_rejected(self):
        with pytest.raises(ValueError):
            feature_normalize(np.zeros(3), 1.0)


class TestClassWeights:
    def test_balanced_all_ones(self):
        np.testing.assert_allclose(class_weights([25, 25, 25, 25]), 1.0)

    def test_ninety_ten(self):
        np.testing.assert_allclose(class_weights([90, 10]), [0.55555555555555558, 5.0])

    def test_inverse_scaling(self):
        # with N and K held fixed, doubling n_k halves weight k
        w1 = class_weights([10, 30], total=40, num_classes=2)
        w2 = class_weights([20, 30], total=40, num_classes=2)
        np.testing.assert_allclose(w1[0] / w2[0], 2.0)
        np.testing.assert_allclose(w1[1], w2[1])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_weights([5, 0])


def tiny_problem(seed=0):
    spec = SyntheticDatasetSpec(
        num_classes=3, input_dim=6, n_max=24, imbalance_ratio=0.25, seed=seed, test_per_class=16
    )
    return make_imbalanced_dataset(spec)


class TestTrain:
    def test_fixed_classifier_never_mutated(self):
        train_set, test_set = tiny_problem()
        model = MlpBackbone.init([6, 10, 5], seed=1)
        cfg = regime_config("etf-dr", epochs=3, seed=0)
        log = train(model, train_set, test_set, cfg)
        from etfnc.etf import generate_etf, scale_classifier
        from etfnc.trainer import class_weights as cw

        counts = np.bincount(train_set.y)
        expected = scale_classifier(generate_etf(5, 3, cfg.seed), cw(counts)).scaled_columns
        assert np.array_equal(log.classifier, expected)

    def test_deterministic_per_seed(self):
        train_set, test_set = tiny_problem()
        logs = []
        for _ in range(2):
            model = MlpBackbone.init([6, 10, 5], seed=1)
            logs.append(train(model, train_set, test_set, regime_config("learnable-ce", epochs=3, seed=5)))
        a, b = logs
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert [r.bal_acc for r in a.records] == [r.bal_acc for r in b.records]
        assert np.array_equal(a.classifier, b.classifier)

    def test_all_regimes_run_and_log(self):
        train_set, test_set = tiny_problem()
        for regime in ("learnable-ce", "learnable-wce", "etf-ce", "etf-dr"):
            model = MlpBackbone.init([6, 10, 5], seed=2)
            log = train(model, train_set, test_set, regime_config(regime, epochs=2, seed=0))
            assert len(log.records) == 2
            header, rows = log.csv_rows()
            assert len(header) == 3 + 16 and len(rows) == 2

    def test_dr_needs_fixed_classifier(self):
        train_set, test_set = tiny_problem()
        model = MlpBackbone.init([6, 10, 5], seed=1)
        with pytest.raises(ValueError):
            train(model, train_set, test_set,
                  regime_config("etf-dr", epochs=2, seed=0, classifier_mode="learnable"))

    def test_balanced_regimes_comparable(self):
        """At tau = 1 the two headline regimes land within 2 points of each
        other on mean balanced accuracy over 3 seeds (the table protocol)."""
        from etfnc.serialize import derive_seed

        means = {}
        for regime in ("learnable-ce", "etf-dr"):
            accs = []
            for seed in range(3):
                spec = SyntheticDatasetSpec(
                    num_classes=10, input_dim=32, n_max=200, imbalance_ratio=1.0,
                    separation=3.0, noise_scale=1.0, seed=derive_seed(seed, "dataset"),
                    test_per_class=200,
                )
                train_set, test_set = make_imbalanced_dataset(spec)
                model = MlpBackbone.init([32, 64, 32], seed=derive_seed(seed, f"model:{regime}"))
                log = train(model, train_set, test_set, regime_config(regime, epochs=48, seed=seed))
                accs.append(log.final_bal_acc)
            means[regime] = float(np.mean(accs))
        assert abs(means["learnable-ce"] - means["etf-dr"]) <= 0.02, means

    def test_length_regularized_variant_runs(self):
        train_set, test_set = tiny_problem()
        model = MlpBackbone.init([6, 10, 5], seed=3)
        cfg = regime_config("etf-dr", epochs=2, seed=0, feature_norm="length-reg", norm_lambda=0.05)
        log = train(model, train_set, test_set, cfg)
        assert np.isfinite(log.records[-1].loss)


class TestEndToEndGradients:
    """Full-chain gradient checks: backbone -> (normalize) -> loss."""

    def _flatten(self, model):
        return np.concatenate([a.ravel() for a in model.weights + model.biases])

    def _model_from_flat(self, flat, sizes, seed):
        m = MlpBackbone.init(sizes, seed=seed)
        offset = 0
        for arrs in (m.weights, m.biases):
            for a in arrs:
                a[...] = flat[offset : offset + a.size].reshape(a.shape)
                offset += a.size
        return m

    def test_normalize_dr_chain(self, rng):
        from etfnc.etf import generate_etf, uniform_classifier
        from etfnc.trainer import _normalize_rows, _normalize_rows_vjp

        sizes = [3, 4, 2]
        clf = uniform_classifier(generate_etf(2, 2, 0), 1.0)
        W = clf.scaled_columns
        x = rng.standard_normal((4, 3))
        y = rng.integers(2, size=4)

        def loss_fn(flat):
            m = self._model_from_flat(flat, sizes, seed=4)
            f, _ = m.forward(x)
            fn, _ = _normalize_rows(f, 1.0)
            dots = np.einsum("ij,ji->i", fn, W[:, y])
            return float(np.mean((dots - 1.0) ** 2 / 2.0))

        model = MlpBackbone.init(sizes, seed=4)
        flat = self._flatten(model)
        fd = central_diff(loss_fn, flat, step=1e-5)

        f, cache = model.forward(x)
        fn, norms = _normalize_rows(f, 1.0)
        _, r = dr_terms(fn, y, W, clf.lengths)
        grad_fn = (r / len(y))[:, None] * W[:, y].T
        grad_f = _normalize_rows_vjp(f, norms, grad_fn, 1.0)
        d_ws, d_bs = model.backward(cache, grad_f)
        analytic = np.concatenate([a.ravel() for a in d_ws + d_bs])
        assert rel_error(analytic, fd) < 1e-5

    def test_softmax_ce_chain(self, rng):
        sizes = [3, 5, 4]
        W = rng.standard_normal((4, 3))
        x = rng.standard_normal((5, 3))
        y = rng.integers(3, size=5)

        def loss_fn(flat):
            m = self._model_from_flat(flat, sizes, seed=6)
            f, _ = m.forward(x)
            return float(np.mean([ce_loss(f[i], y[i], W) for i in range(len(y))]))

        model = MlpBackbone.init(sizes, seed=6)
        fd = central_diff(loss_fn, self._flatten(model), step=1e-5)

        f, cache = model.forward(x)
        _, coef = ce_terms(f, y, W)
        coef[np.arange(len(y)), y] -= 1.0
        d_ws, d_bs = model.backward(cache, coef @ W.T / len(y))
        analytic = np.concatenate([a.ravel() for a in d_ws + d_bs])
        assert rel_error(analytic, fd) < 1e-5

    @pytest.mark.parametrize("regime", REGIMES)
    def test_train_step_is_objective_gradient(self, regime):
        """One full-batch step of train() without momentum moves the backbone
        and the learnable classifier by -step_size times the FD gradient of
        the regime's objective, whose value is the logged loss."""
        spec = SyntheticDatasetSpec(
            num_classes=3, input_dim=4, n_max=8, imbalance_ratio=0.25, seed=1, test_per_class=2
        )
        train_set, test_set = make_imbalanced_dataset(spec)
        x, y, N = train_set.x, train_set.y, train_set.size
        sizes = [4, 6, 3]
        config = regime_config(
            regime, epochs=1, seed=2, batch_size=N, momentum=0.0, step_size=0.5
        )
        counts = np.bincount(y, minlength=3)
        W0, clf = _build_classifier(config, 3, counts, np.random.default_rng([2, 13]))
        weights = class_weights(counts)[y] if regime == "learnable-wce" else np.ones(N)
        n_model = self._flatten(MlpBackbone.init(sizes, seed=5)).size

        def objective(theta):
            f, _ = self._model_from_flat(theta[:n_model], sizes, seed=5).forward(x)
            W = theta[n_model:].reshape(W0.shape) if clf is None else W0
            if config.feature_norm == "sphere":
                f = np.array([feature_normalize(row, config.e_h) for row in f])
            if config.loss_kind == "dr":
                per = [dr_loss(f[i], clf, y[i], config.e_h) for i in range(N)]
            else:
                per = [ce_loss(f[i], y[i], W) for i in range(N)]
            return float(np.mean(weights * np.array(per)))

        model = MlpBackbone.init(sizes, seed=5)
        before = np.concatenate([self._flatten(model), W0.ravel() if clf is None else []])
        log = train(model, train_set, test_set, config)
        after = np.concatenate(
            [self._flatten(model), log.classifier.ravel() if clf is None else []]
        )
        if clf is not None:
            assert np.array_equal(log.classifier, W0)
        np.testing.assert_allclose(log.records[0].loss, objective(before), rtol=1e-12)
        fd = central_diff(objective, before, step=1e-6)
        assert rel_error((before - after) / config.step_size, fd) < 1e-6


class TestEvaluate:
    def test_perfect_classifier(self):
        # features == one-hot of the label, identity classifier
        model = MlpBackbone([np.eye(3)], [np.zeros(3)])
        x = np.vstack([np.eye(3)] * 4)
        test = Dataset(x, np.tile(np.arange(3), 4), 3)
        per_class, bal = evaluate(model, test, np.eye(3))
        np.testing.assert_allclose(per_class, 1.0)
        assert bal == 1.0

    def test_constant_predictor(self, rng):
        model = MlpBackbone([np.zeros((2, 3))], [np.array([1.0, 0.0])])
        x = rng.standard_normal((30, 3))
        test = Dataset(x, np.tile(np.arange(3), 10), 3)
        _, bal = evaluate(model, test, np.eye(2, 3))
        np.testing.assert_allclose(bal, 1.0 / 3.0)

    def test_balanced_equals_plain_on_equal_counts(self, rng):
        model = MlpBackbone.init([4, 6, 3], seed=0)
        x = rng.standard_normal((30, 4))
        y = np.tile(np.arange(3), 10)
        test = Dataset(x, y, 3)
        W = rng.standard_normal((3, 3))
        per_class, bal = evaluate(model, test, W)
        feats, _ = model.forward(x)
        plain = float(np.mean(np.argmax(feats @ W, axis=1) == y))
        np.testing.assert_allclose(bal, plain, atol=1e-12)

    def test_missing_test_class_rejected(self, rng):
        model = MlpBackbone.init([4, 6, 3], seed=0)
        test = Dataset(rng.standard_normal((4, 4)), np.array([0, 0, 1, 1]), 3)
        with pytest.raises(ValueError):
            evaluate(model, test, rng.standard_normal((3, 3)))
