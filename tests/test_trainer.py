"""Backbone, synthetic data, normalization, and the training loop."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff, rel_error
from etfnc.batches import FeatureBatch
from etfnc.losses import ce_terms, dr_terms
from etfnc.serialize import table
from etfnc.trainer import (
    REGIMES,
    EpochRecord,
    MlpBackbone,
    SyntheticDatasetSpec,
    TrainConfig,
    balanced_accuracy,
    class_weights,
    make_imbalanced_dataset,
    train,
)
from etfnc.trainer import (
    _STEP_SIZES,
    _build_classifier,
    _features_for_metrics,
    _normalize_rows,
    _normalize_rows_vjp,
)
from oracles import ce_loss, dr_loss, feature_normalize


class TestDatasetSpec:
    def test_balanced_limit(self):
        spec = SyntheticDatasetSpec(num_classes=4, input_dim=5, n_max=100, imbalance_ratio=1.0)
        np.testing.assert_array_equal(spec.counts(), [100, 100, 100, 100])

    def test_geometric_decay(self):
        spec = SyntheticDatasetSpec(num_classes=10, input_dim=9, n_max=500, imbalance_ratio=0.01)
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

    @pytest.mark.filterwarnings("error")  # numpy warns when a cast to int64 wraps
    @pytest.mark.parametrize("n_max", [2**53, 2**63, 10**20])
    def test_n_max_too_large(self, n_max):
        with pytest.raises(ValueError, match=f"n_max={n_max} is too large"):
            SyntheticDatasetSpec(num_classes=3, input_dim=5, n_max=n_max, imbalance_ratio=1.0)

    @pytest.mark.parametrize("test_per_class", [2**63, 10**20])
    def test_test_per_class_too_large(self, test_per_class):
        with pytest.raises(ValueError, match=f"test_per_class={test_per_class} is too large"):
            SyntheticDatasetSpec(num_classes=3, input_dim=5, n_max=10, imbalance_ratio=1.0,
                                 test_per_class=test_per_class)

    @pytest.mark.parametrize("field,value,rule", [
        ("num_classes", 1, "an integer >= 2"), ("input_dim", 1, "an integer >= 2"),
        ("n_max", 10.5, "an integer >= 1"), ("test_per_class", -1, "an integer >= 0"),
        ("separation", math.nan, "a finite number"), ("imbalance_ratio", 0.0, r"in \(0, 1\]"),
    ])
    def test_bad_values_rejected_at_construction(self, field, value, rule):
        """Each field is checked when the spec is built; the message names field, rule and value."""
        base = dict(num_classes=3, input_dim=5, n_max=10, imbalance_ratio=0.5)
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {re.escape(repr(value))}$"):
            SyntheticDatasetSpec(**{**base, field: value})

    def test_n_max_below_2_53_exact(self):
        spec = SyntheticDatasetSpec(num_classes=3, input_dim=5, n_max=2**53 - 1, imbalance_ratio=1.0)
        assert spec.counts().tolist() == [2**53 - 1] * 3

    def test_dataset_deterministic_and_balanced_test(self):
        spec = SyntheticDatasetSpec(
            num_classes=3, input_dim=6, n_max=20, imbalance_ratio=0.5, seed=4, test_per_class=7
        )
        tr1, te1 = make_imbalanced_dataset(spec)
        tr2, te2 = make_imbalanced_dataset(spec)
        assert np.array_equal(tr1.features, tr2.features)
        assert np.array_equal(te1.features, te2.features)
        np.testing.assert_array_equal(np.bincount(te1.labels), [7, 7, 7])


def reference_forward(model, x):
    """MlpBackbone.forward with a fresh array per step: (features, layer inputs)."""
    a, inputs = np.atleast_2d(np.asarray(x, dtype=float)), []
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T + b
        a = z * (z > 0) if l < last else z
    return a, inputs


def fd_and_analytic(model, x, target):
    """Central differences and backward's gradient of 0.5 |forward(x) - target|^2."""
    params = model.weights + model.biases

    def loss_with(params_flat):
        m = MlpBackbone([w.copy() for w in model.weights], [b.copy() for b in model.biases])
        offset = 0
        for a in m.weights + m.biases:
            a[...] = params_flat[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        f, _ = m.forward(x)
        return 0.5 * float(np.sum((f - target) ** 2))

    fd = central_diff(loss_with, np.concatenate([a.ravel() for a in params]), step=1e-5)
    f, cache = model.forward(x)
    d_ws, d_bs = model.backward(cache, f - target)
    return np.concatenate([a.ravel() for a in d_ws + d_bs]), fd


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

    @pytest.mark.parametrize("sizes", [[4, 3], [4, 8, 3], [5, 16, 7, 3]])
    def test_bits_equal_fresh_array_forward(self, rng, sizes):
        model = MlpBackbone.init(sizes, seed=4)
        for b in model.biases:
            b[...] = rng.standard_normal(b.shape)
        x = rng.standard_normal((50, sizes[0]))
        f, inputs = model.forward(x)
        ref_f, ref_inputs = reference_forward(model, x)
        assert np.array_equal(f.view(np.int64), ref_f.view(np.int64))
        assert len(inputs) == len(ref_inputs)
        for a, ref in zip(inputs, ref_inputs):
            assert np.array_equal(a.view(np.int64), ref.view(np.int64))
        for hidden in inputs[1:]:
            assert np.any((hidden == 0) & np.signbit(hidden))  # z < 0 rectifies to -0.0

    @pytest.mark.parametrize("sizes", [[4, 3], [4, 4, 3], [4, 8, 3]])
    def test_input_never_written(self, rng, sizes):
        model = MlpBackbone.init(sizes, seed=5)
        x = rng.standard_normal((6, 4))
        for batch in (x, x[0], x[:, ::-1], np.asfortranarray(x)):
            before = batch.copy()
            model.forward(batch)
            assert np.array_equal(batch.view(np.int64), before.view(np.int64))


class TestBackward:
    def test_zero_grad_zero_params(self, rng):
        model = MlpBackbone.init([3, 5, 2], seed=1)
        _, cache = model.forward(rng.standard_normal((4, 3)))
        d_ws, d_bs = model.backward(cache, np.zeros((4, 2)))
        assert all(np.all(g == 0) for g in d_ws + d_bs)

    def test_finite_difference_full_model(self, rng):
        model = MlpBackbone.init([3, 4, 2], seed=2)
        analytic, fd = fd_and_analytic(
            model, rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        )
        assert rel_error(analytic, fd) < 1e-5

    def test_dead_unit_gets_exactly_zero_gradient(self, rng):
        model = MlpBackbone.init([3, 4, 2], seed=2)
        model.weights[0][1] = 0.0
        model.biases[0][1] = -1.0  # unit 1's pre-activation is -1 on every row
        x, target = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        analytic, fd = fd_and_analytic(model, x, target)
        assert rel_error(analytic, fd) < 1e-5
        f, cache = model.forward(x)
        d_ws, d_bs = model.backward(cache, f - target)
        assert np.all(d_ws[0][1] == 0) and d_bs[0][1] == 0
        assert np.all(d_ws[1][:, 1] == 0)
        assert np.any(d_ws[0] != 0)

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
        _, norms = _normalize_rows(h[None], 2.0)
        assert rel_error(_normalize_rows_vjp(h[None], norms, u[None], 2.0)[0], fd) < 1e-6

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
        w1 = class_weights([10, 30, 20])
        w2 = class_weights([20, 20, 20])
        np.testing.assert_allclose(w1[0] / w2[0], 2.0)
        np.testing.assert_allclose(w1[2], w2[2])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_weights([5, 0])


#: what a JSON config can hold in one field (json.load reads NaN and +-Infinity too)
json_values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(-2, 4) | st.floats(), max_size=3))


def check_built(cls, kwargs):
    """Build ``cls``: it either refuses with ValueError or holds only well-typed values."""
    try:
        config = cls(**kwargs)
    except ValueError:
        return
    for f in fields(cls):
        value = getattr(config, f.name)
        if f.type is int:
            assert type(value) is int and 0 <= value < 2**63, f.name
        elif f.type is float:
            assert type(value) is float and math.isfinite(value), f.name
    if cls is TrainConfig:
        assert all(type(m) is int for m in config.milestones)


class TestConfigValues:
    """Any value in any field is stored well-typed or refused with ValueError, never a TypeError."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from([f.name for f in fields(SyntheticDatasetSpec)]),
                           json_values, max_size=3))
    def test_dataset_spec(self, changes):
        base = dict(num_classes=3, input_dim=4, n_max=6, imbalance_ratio=0.5)
        check_built(SyntheticDatasetSpec, {**base, **changes})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(REGIMES),
           st.dictionaries(st.sampled_from([f.name for f in fields(TrainConfig) if f.name != "regime"]),
                           json_values, max_size=3))
    def test_train_config(self, regime, changes):
        check_built(TrainConfig, {"epochs": 3, "regime": regime, **changes})


def tiny_problem(seed=0):
    spec = SyntheticDatasetSpec(
        num_classes=3, input_dim=6, n_max=24, imbalance_ratio=0.25, seed=seed, test_per_class=16
    )
    return make_imbalanced_dataset(spec)


class TestTrain:
    def test_missing_train_class_named(self):
        train_set, test_set = tiny_problem()
        keep = train_set.labels != 1
        short = FeatureBatch(train_set.features[keep], train_set.labels[keep], 3)
        model = MlpBackbone.init([6, 10, 5], seed=1)
        with pytest.raises(ValueError, match="class 1 has no samples"):
            train(model, short, test_set, TrainConfig(epochs=1, regime="etf-dr", seed=0))

    def test_fixed_classifier_never_mutated(self):
        train_set, test_set = tiny_problem()
        model = MlpBackbone.init([6, 10, 5], seed=1)
        cfg = TrainConfig(epochs=3, regime="etf-dr", seed=0)
        log = train(model, train_set, test_set, cfg)
        from etfnc.etf import generate_etf, scale_classifier
        from etfnc.trainer import class_weights as cw

        counts = np.bincount(train_set.labels)
        expected = scale_classifier(generate_etf(5, 3, cfg.seed), cw(counts)).scaled_columns
        assert np.array_equal(log.classifier, expected)

    def test_deterministic_per_seed(self):
        train_set, test_set = tiny_problem()
        logs = []
        for _ in range(2):
            model = MlpBackbone.init([6, 10, 5], seed=1)
            logs.append(train(model, train_set, test_set, TrainConfig(epochs=3, regime="learnable-ce", seed=5)))
        a, b = logs
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert [r.bal_acc for r in a.records] == [r.bal_acc for r in b.records]
        assert np.array_equal(a.classifier, b.classifier)

    def test_all_regimes_run_and_log(self):
        train_set, test_set = tiny_problem()
        for regime in ("learnable-ce", "learnable-wce", "etf-ce", "etf-dr"):
            model = MlpBackbone.init([6, 10, 5], seed=2)
            log = train(model, train_set, test_set, TrainConfig(epochs=2, regime=regime, seed=0))
            assert len(log.records) == 2
            header, rows = table(EpochRecord, log.records)
            assert len(header) == 3 + 16 and len(rows) == 2

    @pytest.mark.parametrize("regime", ["learnable-dr", "etf", ""])
    def test_unknown_regime_rejected(self, regime):
        with pytest.raises(ValueError, match=f"unknown regime '{regime}'"):
            TrainConfig(epochs=2, regime=regime)

    @pytest.mark.parametrize("kwargs,milestones", [
        (dict(epochs=10), (8, 9)), (dict(epochs=3), (2,)), (dict(epochs=1), ()),
        (dict(epochs=10, milestones=(3, 7)), (3, 7)), (dict(epochs=10, milestones=[5]), (5,)),
    ])
    def test_milestones_resolved_at_construction(self, kwargs, milestones):
        """An unset ``milestones`` becomes 80% and 90% of the epochs; explicit ones are kept."""
        assert TrainConfig(**kwargs).milestones == milestones

    @pytest.mark.parametrize("milestones", [(5,), (3,), (2, 1), (1, 1), (0,), (-5,), (0, 2)])
    def test_bad_milestones_rejected_at_construction(self, milestones):
        with pytest.raises(ValueError, match=r"milestones must be strictly increasing and in \[1, epochs\)"):
            TrainConfig(epochs=3, milestones=milestones)

    @pytest.mark.parametrize("field,value,rule", [
        ("e_h", -1.0, "> 0"), ("e_h", 0.0, "> 0"),
        ("step_size", -0.1, "> 0"), ("step_size", 0.0, "> 0"),
        ("momentum", -0.5, r"in \[0, 1\)"), ("momentum", 1, r"in \[0, 1\)"),
        ("momentum", 1.5, r"in \[0, 1\)"),
        ("epochs", 0, "an integer >= 1"), ("epochs", 2.5, "an integer >= 1"),
        ("epochs", True, "an integer >= 1"), ("batch_size", 0, "an integer >= 1"),
        ("step_size", math.inf, "a finite number"), ("e_h", math.inf, "a finite number"),
        ("milestones", (1.7,), "a list of integers"),
    ])
    def test_bad_ranges_rejected_at_construction(self, field, value, rule):
        message = f"{field} must be {rule}, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{"epochs": 3, field: value})
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{"epochs": 3, "regime": "etf-dr", field: value})

    @pytest.mark.parametrize("regime", REGIMES)
    def test_step_size_defaults_per_regime(self, regime):
        assert TrainConfig(epochs=3, regime=regime).step_size == _STEP_SIZES[regime]
        assert TrainConfig(epochs=3, regime=regime, step_size=0.3).step_size == 0.3

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
                log = train(model, train_set, test_set, TrainConfig(epochs=48, regime=regime, seed=seed))
                accs.append(log.final_bal_acc)
            means[regime] = float(np.mean(accs))
        assert abs(means["learnable-ce"] - means["etf-dr"]) <= 0.02, means

    @pytest.mark.parametrize("regime", REGIMES)
    def test_test_set_forwarded_once_per_epoch(self, monkeypatch, regime):
        train_set, test_set = tiny_problem()
        rows = []
        forward = MlpBackbone.forward
        monkeypatch.setattr(
            MlpBackbone, "forward", lambda self, x: rows.append(len(x)) or forward(self, x)
        )
        model = MlpBackbone.init([6, 10, 5], seed=1)
        cfg = TrainConfig(epochs=3, regime=regime, seed=0)
        log = train(model, train_set, test_set, cfg)
        assert sum(rows) == 3 * (2 * train_set.size + test_set.size)
        # the epoch's balanced accuracy scores the features the metrics use
        feats = _features_for_metrics(model, test_set.features, cfg)
        W = log.classifier  # fixed ETF regimes score against the unit frame directions
        if cfg.fixed_etf:
            W = W / np.linalg.norm(W, axis=0, keepdims=True)
        assert log.final_bal_acc == balanced_accuracy(feats, test_set, W)[1]


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
        _, r = dr_terms(fn, W[:, y], clf.lengths[y])
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
        x, y, N = train_set.features, train_set.labels, train_set.size
        sizes = [4, 6, 3]
        config = TrainConfig(
            epochs=1, regime=regime, seed=2, batch_size=N, momentum=0.0, step_size=0.5
        )
        counts = np.bincount(y, minlength=3)
        W0, clf = _build_classifier(config, 3, counts, np.random.default_rng([2, 13]))
        weights = class_weights(counts)[y] if regime == "learnable-wce" else np.ones(N)
        n_model = self._flatten(MlpBackbone.init(sizes, seed=5)).size

        def objective(theta):
            f, _ = self._model_from_flat(theta[:n_model], sizes, seed=5).forward(x)
            W = theta[n_model:].reshape(W0.shape) if clf is None else W0
            if regime in ("etf-ce", "etf-dr"):
                f = np.array([feature_normalize(row, config.e_h) for row in f])
            if regime == "etf-dr":
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


def reference_balanced_accuracy(feats, test_set, W):
    """balanced_accuracy as the mean of each class's boolean hit array."""
    pred = np.argmax(feats @ W, axis=1)
    per_class = np.array(
        [float(np.mean(pred[test_set.labels == k] == k)) for k in range(test_set.num_classes)]
    )
    return per_class, float(per_class.mean())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.lists(st.integers(1, 40), min_size=6, max_size=6),
       st.integers(0, 2**16))
def test_balanced_accuracy_equals_per_class_oracle(K, d, counts, seed):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat(np.arange(K), counts[:K]))
    W = rng.standard_normal((d, K))
    feats = rng.uniform(0, 3) * W[:, y].T + rng.standard_normal((y.size, d))
    test = FeatureBatch(feats, y, K)
    per_class, bal = balanced_accuracy(feats, test, W)
    ref_per_class, ref_bal = reference_balanced_accuracy(feats, test, W)
    assert np.array_equal(per_class, ref_per_class)
    assert bal == ref_bal


class TestEvaluate:
    """balanced_accuracy scores test features by argmax logit."""

    def test_perfect_classifier(self):
        # features == one-hot of the label, identity classifier
        model = MlpBackbone([np.eye(3)], [np.zeros(3)])
        x = np.vstack([np.eye(3)] * 4)
        test = FeatureBatch(x, np.tile(np.arange(3), 4), 3)
        per_class, bal = balanced_accuracy(model.forward(x)[0], test, np.eye(3))
        np.testing.assert_allclose(per_class, 1.0)
        assert bal == 1.0

    def test_constant_predictor(self, rng):
        model = MlpBackbone([np.zeros((2, 3))], [np.array([1.0, 0.0])])
        x = rng.standard_normal((30, 3))
        test = FeatureBatch(x, np.tile(np.arange(3), 10), 3)
        _, bal = balanced_accuracy(model.forward(x)[0], test, np.eye(2, 3))
        np.testing.assert_allclose(bal, 1.0 / 3.0)

    def test_balanced_equals_plain_on_equal_counts(self, rng):
        model = MlpBackbone.init([4, 6, 3], seed=0)
        x = rng.standard_normal((30, 4))
        y = np.tile(np.arange(3), 10)
        test = FeatureBatch(x, y, 3)
        W = rng.standard_normal((3, 3))
        feats, _ = model.forward(x)
        per_class, bal = balanced_accuracy(feats, test, W)
        plain = float(np.mean(np.argmax(feats @ W, axis=1) == y))
        np.testing.assert_allclose(bal, plain, atol=1e-12)

    def test_missing_test_class_rejected(self, rng):
        model = MlpBackbone.init([4, 6, 3], seed=0)
        test = FeatureBatch(rng.standard_normal((4, 4)), np.array([0, 0, 1, 1]), 3)
        with pytest.raises(ValueError, match="class 2 has no samples"):
            balanced_accuracy(model.forward(test.features)[0], test, rng.standard_normal((3, 3)))
