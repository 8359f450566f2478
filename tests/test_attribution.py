"""Attribution layer: Jacobians, sampled and exact Shapley values, tensors."""

import io
import warnings
from dataclasses import replace

import numpy as np
import pytest

from epxai.attribution import (
    AttributionTensor,
    BackgroundSet,
    _walk_estimates,
    attribution_to_csv,
    explain_dataset,
    jacobian_batch,
    sample_background,
    shap_exact,
    shap_mc,
)
from epxai.data import ScalerParams, fit_scaler, inverse_transform, transform
from epxai.errors import DataError, EpxaiError
from epxai.markets import FeatureId, ModelSpec, TrainingHyperparams, benchmark_spec
from epxai.mlp import (
    SELU_LAMBDA,
    TrainedModel,
    forward_blocks,
    predict_prices,
    train,
)

HOURS = np.arange(1.0, 25.0)  # per-hour multipliers for toy predictors


def product_model(states):
    """All 24 outputs are (h+1) * x1 * x2; Shapley values known in closed form."""
    return states[:, 0:1] * states[:, 1:2] * HOURS[None, :]


def make_linear(coef, intercept=0.0):
    coef = np.asarray(coef, dtype=np.float64)

    def fn(states):
        return (states @ coef)[:, None] * HOURS[None, :] + intercept

    return fn


def small_trained(build_matrix, n_groups=2, activation="softplus",
                  out_kind="std", seed=0):
    features = build_matrix(n_instances=60, n_groups=n_groups, seed=seed)
    spec = ModelSpec(
        layer_sizes=(features.n_features, 20, 14, 24),
        activation=activation,
        dropout_rate=0.1,
        l1_factor=0.0,
        init_scheme="glorot_uniform",
        input_scaler_kind="std",
        output_scaler_kind=out_kind,
        seed=seed,
    )
    hp = TrainingHyperparams(batch_size=16, max_epochs=8, seed=seed)
    return train(spec, features, hp), features


class TestExactShapley:
    def test_two_feature_product_model_frozen_values(self):
        # Background {(0,0), (1,1)}, instance (2,3):
        #   v(empty)=0.5, v({1})=1, v({2})=1.5, v(full)=6
        #   phi_1 = .5*(1-.5) + .5*(6-1.5) = 2.5 ; phi_2 = 3.0  (per unit hour)
        background = BackgroundSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
        values = shap_exact(product_model, np.array([2.0, 3.0]), background)
        np.testing.assert_allclose(values[:, 0], 2.5 * HOURS, rtol=1e-12)
        np.testing.assert_allclose(values[:, 1], 3.0 * HOURS, rtol=1e-12)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(4)
        coef = rng.normal(0.0, 2.0, 7)
        background = BackgroundSet(rng.normal(5.0, 3.0, (40, 7)))
        x = rng.normal(5.0, 3.0, 7)
        values = shap_exact(make_linear(coef, 3.0), x, background)
        expected = coef * (x - background.rows.mean(axis=0))
        np.testing.assert_allclose(values, np.outer(HOURS, expected), rtol=1e-9)

    def test_symmetry_axiom(self):
        # Model and background symmetric in features 0 and 1.
        def fn(states):
            return (3.0 * (states[:, 0] + states[:, 1]) + states[:, 2])[
                :, None
            ] * HOURS[None, :]

        rows = np.array([[1.0, 1.0, 2.0], [4.0, 4.0, -1.0], [0.5, 0.5, 0.0]])
        values = shap_exact(fn, np.array([2.0, 2.0, 7.0]), BackgroundSet(rows))
        np.testing.assert_array_equal(values[:, 0], values[:, 1])

    def test_dummy_feature_gets_exact_zero(self):
        def fn(states):
            return states[:, 0:1] ** 2 * HOURS[None, :]  # ignores feature 1

        rng = np.random.default_rng(1)
        background = BackgroundSet(rng.normal(0.0, 1.0, (12, 2)))
        values = shap_exact(fn, np.array([3.0, -2.0]), background)
        np.testing.assert_array_equal(values[:, 1], 0.0)

    def test_efficiency_identity(self):
        rng = np.random.default_rng(9)
        background = BackgroundSet(rng.normal(0.0, 1.0, (15, 5)))
        x = rng.normal(0.0, 1.0, 5)
        mixing = rng.standard_normal((5, 24))

        def fn(states):
            return np.tanh(states @ mixing * 0.3) * 10.0

        values = shap_exact(fn, x, background)
        v_full = fn(x[None, :])[0]
        v_empty = fn(background.rows).mean(axis=0)
        np.testing.assert_allclose(values.sum(axis=1), v_full - v_empty, rtol=1e-10)

    def test_feature_cap(self):
        background = BackgroundSet(np.zeros((3, 13)))
        with pytest.raises(EpxaiError, match="13 features exceeds cap 12"):
            shap_exact(product_model, np.zeros(13), background)


class TestMonteCarloShapley:
    def test_linear_model_single_pair_is_closed_form(self):
        # Every permutation walk of a linear model yields coef*(x - z).
        rng = np.random.default_rng(3)
        coef = rng.normal(0.0, 1.0, 6)
        rows = rng.normal(0.0, 2.0, (9, 6))
        x = rng.normal(0.0, 2.0, 6)
        fn = make_linear(coef, -2.0)
        result = shap_mc(fn, x, BackgroundSet(rows), n_pairs=1, seed=5)
        draw = np.random.default_rng(5).integers(0, 9, size=1)[0]
        expected = coef * (x - rows[draw])
        np.testing.assert_allclose(result.values, np.outer(HOURS, expected), rtol=1e-9)
        assert np.isnan(result.stderr).all()

    def test_linear_model_stderr_is_zero_only_with_antithetic_pairs(self):
        # Antithetic halves cancel walk order for linear models, leaving
        # variance from the background draw only.
        rng = np.random.default_rng(8)
        coef = rng.normal(0.0, 1.0, 4)
        rows = np.tile(rng.normal(0.0, 1.0, 4), (6, 1))  # constant background
        x = rng.normal(0.0, 1.0, 4)
        result = shap_mc(make_linear(coef), x, BackgroundSet(rows), n_pairs=16, seed=0)
        np.testing.assert_allclose(result.stderr, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n_pairs", [1, 4, 64])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_efficiency_holds_for_any_budget(self, build_matrix, n_pairs, antithetic):
        model, features = small_trained(build_matrix)
        background = sample_background(features, size=20, seed=2)
        x = features.values[31]
        result = shap_mc(
            model, x, background, n_pairs=n_pairs, seed=7, antithetic=antithetic
        )
        prediction = predict_prices(model, x)
        lhs = result.values.sum(axis=1)
        rhs = prediction - result.baseline
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_efficiency_across_prediction_blocks(self, build_matrix):
        # NP shape, 64 antithetic pairs: each walk batch is 64 * 145 = 9280
        # rows, which predict_prices evaluates in 19 blocks.
        features = build_matrix(n_instances=40, n_groups=6, seed=4)
        model = train(
            replace(benchmark_spec("NP"), seed=1),
            features,
            TrainingHyperparams(batch_size=16, max_epochs=2, seed=1),
        )
        background = sample_background(features, size=20, seed=3)
        x = features.values[17]
        result = shap_mc(model, x, background, n_pairs=64, seed=5)
        gap = result.values.sum(axis=1) - (predict_prices(model, x) - result.baseline)
        assert np.max(np.abs(gap)) <= 1e-9

    @pytest.mark.parametrize("market, n_groups", [("NP", 6), ("PJM", 5)])
    def test_mixed_precision_walk_matches_float64(self, build_matrix, market, n_groups):
        # A trained model walks its interior rows in float32; the callable
        # path stays float64 throughout and serves as the reference. PJM
        # covers selu with arcsinh scalers, NP softplus.
        features = build_matrix(n_instances=40, n_groups=n_groups, seed=4)
        model = train(
            replace(benchmark_spec(market), seed=1),
            features,
            TrainingHyperparams(batch_size=16, max_epochs=2, seed=1),
        )
        background = sample_background(features, size=20, seed=3)
        x = features.values[17]
        mixed = shap_mc(model, x, background, n_pairs=64, seed=5)
        reference = shap_mc(
            lambda b: predict_prices(model, b), x, background, n_pairs=64, seed=5
        )
        assert np.max(np.abs(mixed.values - reference.values) / reference.stderr) < 1e-2
        np.testing.assert_array_equal(mixed.baseline, reference.baseline)
        gap = mixed.values.sum(axis=1) - (predict_prices(model, x) - mixed.baseline)
        assert np.max(np.abs(gap)) <= 1e-9
        again = shap_mc(model, x, background, n_pairs=64, seed=5)
        np.testing.assert_array_equal(again.values, mixed.values)

    def test_non_finite_instance_is_refused(self, build_matrix):
        model, features = small_trained(build_matrix)
        background = sample_background(features, size=10, seed=2)
        x = features.values[3].copy()
        x[5] = np.nan
        with pytest.raises(DataError, match="model input contains non-finite"):
            shap_mc(model, x, background, n_pairs=2)

    def test_non_finite_trained_model_output(self, build_matrix):
        model, features = small_trained(build_matrix)
        model.biases[2][0] = np.nan
        background = sample_background(features, size=10, seed=2)
        with pytest.raises(EpxaiError, match="model produced non-finite outputs"):
            shap_mc(model, features.values[3], background, n_pairs=2)

    def test_float32_overflow_is_non_finite_output(self, build_matrix):
        # finite in float64, beyond the float32 range in the walk interior
        model, features = small_trained(build_matrix)
        model.weights[0] *= 1e20
        model.weights[1] *= 1e20
        x = features.values[3]
        assert np.all(np.isfinite(predict_prices(model, x)))
        background = sample_background(features, size=10, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EpxaiError, match="model produced non-finite outputs"):
                shap_mc(model, x, background, n_pairs=2)

    def test_converges_to_exact(self, fresh_model):
        rng = np.random.default_rng(12)
        spec = ModelSpec(
            layer_sizes=(6, 10, 8, 24),
            activation="softplus",
            dropout_rate=0.0,
            l1_factor=0.0,
            init_scheme="he_normal",
            input_scaler_kind="std",
            output_scaler_kind="std",
            seed=12,
        )
        model = fresh_model(spec)
        background = BackgroundSet(rng.normal(0.0, 1.0, (25, 6)))
        x = rng.normal(0.0, 1.0, 6)
        exact = shap_exact(model, x, background)
        approx = shap_mc(model, x, background, n_pairs=3000, seed=3)
        bound = np.maximum(3.0 * approx.stderr, 1e-6)
        assert np.all(np.abs(approx.values - exact) <= bound)

    def test_seed_determinism_and_shared_draws(self):
        rng = np.random.default_rng(2)
        coef = rng.normal(0.0, 1.0, 5)
        fn = make_linear(coef)
        background = BackgroundSet(rng.normal(0.0, 1.0, (30, 5)))
        x = rng.normal(0.0, 1.0, 5)
        a = shap_mc(fn, x, background, n_pairs=8, seed=11)
        b = shap_mc(fn, x, background, n_pairs=8, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        draws = np.arange(8) % background.size
        c = shap_mc(fn, x, background, n_pairs=8, seed=11, background_draws=draws)
        expected_baseline = fn(background.rows[draws]).mean(axis=0)
        np.testing.assert_allclose(c.baseline, expected_baseline, rtol=1e-12)

    def test_bad_inputs(self):
        fn = make_linear(np.ones(3))
        background = BackgroundSet(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            shap_mc(fn, np.zeros(3), background, n_pairs=0)
        with pytest.raises(ValueError):
            shap_mc(fn, np.zeros(3), background, n_pairs=4,
                    background_draws=np.array([0, 1]))
        with pytest.raises(EpxaiError, match="background needs at least one row"):
            BackgroundSet(np.zeros((0, 3)))

    def test_non_finite_model_output(self):
        def bad(states):
            out = np.ones((states.shape[0], 24))
            out[0, 0] = np.nan
            return out

        with pytest.raises(EpxaiError, match="model produced non-finite outputs"):
            shap_mc(bad, np.zeros(3), BackgroundSet(np.zeros((4, 3))), n_pairs=2)


def interaction_model(states):
    """Linear terms plus two cross-feature products, so walk order matters."""
    linear = states @ np.array([0.5, -1.0, 2.0, 0.25, -0.75])
    cross = states[:, 0] * states[:, 2] - 0.5 * states[:, 1] * states[:, 3] * states[:, 4]
    return (linear + cross)[:, None] * HOURS[None, :]


class TestWalkEstimates:
    """The per-pair contract of the walk core that ``shap_mc`` reduces."""

    @staticmethod
    def walk(fn, antithetic, n_pairs=9, seed=3, reverse=False):
        rng = np.random.default_rng(seed)
        zs = rng.normal(0.0, 1.0, (n_pairs, 5))
        x = rng.normal(0.0, 1.0, 5)
        perms = np.stack([rng.permutation(5) for _ in range(n_pairs)])
        if reverse:
            perms = perms[:, ::-1]
        ends = (fn(zs), fn(x[None, :])[0])
        return _walk_estimates(fn, ends, x, zs, perms, antithetic), x, zs

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_each_pair_sums_to_its_prediction_gap(self, antithetic):
        estimates, x, zs = self.walk(interaction_model, antithetic)
        assert estimates.shape == (9, 5, 24) and estimates.dtype == np.float64
        gaps = interaction_model(x[None, :]) - interaction_model(zs)
        np.testing.assert_allclose(estimates.sum(axis=1), gaps, rtol=0, atol=1e-12)

    def test_antithetic_is_mean_of_both_walk_directions(self):
        both, _, _ = self.walk(interaction_model, True)
        forward, _, _ = self.walk(interaction_model, False)
        reverse, _, _ = self.walk(interaction_model, False, reverse=True)
        assert not np.array_equal(forward, reverse)
        np.testing.assert_array_equal(both, 0.5 * (forward + reverse))

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_linear_model_pairs_are_closed_form(self, antithetic):
        coef = np.array([1.5, -0.5, 0.25, 2.0, -1.0])
        estimates, x, zs = self.walk(make_linear(coef, 3.0), antithetic)
        expected = (coef * (x - zs))[:, :, None] * HOURS[None, None, :]
        np.testing.assert_allclose(estimates, expected, rtol=1e-12, atol=1e-12)


class TestJacobian:
    def test_linear_selu_network_closed_form(self, fresh_model):
        # Positive weights and inputs keep selu in its linear region, so the
        # network is exactly scale * lambda^2 * W1 W2 W3.
        spec = ModelSpec(
            layer_sizes=(5, 8, 6, 24),
            activation="selu",
            dropout_rate=0.0,
            l1_factor=0.0,
            init_scheme="lecun_uniform",
            input_scaler_kind="std",
            output_scaler_kind="std",
            seed=6,
        )
        out_scale = np.linspace(1.0, 3.0, 24)
        model = fresh_model(spec, output_scaler=ScalerParams("std", np.zeros(24), out_scale))
        model.weights = [np.abs(w) + 0.05 for w in model.weights]
        x = np.abs(np.random.default_rng(0).normal(1.0, 0.2, 5)) + 0.5
        w1, w2, w3 = model.weights
        expected = (SELU_LAMBDA**2 * (w1 @ w2 @ w3)).T * out_scale[:, None]
        np.testing.assert_allclose(jacobian_batch(model, x), expected, rtol=1e-12)

    @pytest.mark.parametrize("out_kind", ["std", "median", "arcsinh"])
    @pytest.mark.parametrize("activation", ["softplus", "selu"])
    def test_matches_finite_differences(self, build_matrix, out_kind, activation):
        model, features = small_trained(
            build_matrix, activation=activation, out_kind=out_kind, seed=5
        )
        x = features.values[17]
        analytic = jacobian_batch(model, x)

        xn = transform(model.input_scaler, x)
        h = 1e-5

        def price_at(xn_row):
            return inverse_transform(model.output_scaler, forward_blocks(model, xn_row[None, :])[0])

        fd = np.empty_like(analytic)
        for i in range(len(xn)):
            up, down = xn.copy(), xn.copy()
            up[i] += h
            down[i] -= h
            fd[:, i] = (price_at(up) - price_at(down)) / (2 * h)
        scale = max(np.max(np.abs(analytic)), 1e-12)
        assert np.max(np.abs(fd - analytic)) / scale < 1e-6

    def test_batch_matches_single(self, build_matrix):
        model, features = small_trained(build_matrix)
        rows = features.values[:7]
        batch = jacobian_batch(model, rows)
        for i in range(7):
            np.testing.assert_allclose(
                batch[i], jacobian_batch(model, rows[i]), rtol=1e-12, atol=1e-13
            )


class TestExplainDataset:
    def test_tensor_invariants(self, build_matrix):
        model, features = small_trained(build_matrix)
        background = sample_background(features, size=15, seed=1)
        idx = np.arange(6)
        shap_t, grad_t = explain_dataset(
            model, features, background, n_pairs=12, seed=4, instance_indices=idx,
        )
        assert shap_t.values.shape == (6, 24, features.n_features)
        assert grad_t.values.shape == (6, 24, features.n_features)
        assert shap_t.baseline is not None and grad_t.baseline is None
        assert shap_t.instance_ids == [str(d) for d in features.instances[:6]]

        predictions = predict_prices(model, features.values[idx])
        for k in range(6):
            np.testing.assert_allclose(
                shap_t.values[k].sum(axis=1),
                predictions[k] - shap_t.baseline,
                rtol=1e-9,
                atol=1e-9,
            )
        np.testing.assert_allclose(
            grad_t.values, jacobian_batch(model, features.values[idx]), rtol=1e-12
        )

    def test_deterministic_and_seed_sensitive(self, build_matrix):
        model, features = small_trained(build_matrix)
        background = sample_background(features, size=10, seed=0)
        idx = np.arange(3)
        a, _ = explain_dataset(model, features, background, 8, 5, True, idx)
        b, _ = explain_dataset(model, features, background, 8, 5, True, idx)
        c, _ = explain_dataset(model, features, background, 8, 6, True, idx)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.baseline, b.baseline)
        assert (a.values != c.values).any()

    def test_empty_instance_selection(self, build_matrix):
        model, features = small_trained(build_matrix)
        background = sample_background(features, size=5, seed=0)
        shap_t, grad_t = explain_dataset(
            model, features, background, 4, 0, instance_indices=np.array([], dtype=int)
        )
        assert shap_t.values.shape == (0, 24, features.n_features)
        assert grad_t.values.shape == (0, 24, features.n_features)


class TestBackgroundSampling:
    def test_rows_come_from_matrix_without_replacement(self, build_matrix):
        features = build_matrix(n_instances=30)
        bg = sample_background(features, size=12, seed=3)
        assert bg.size == 12
        # Every drawn row matches a distinct source instance.
        matches = (bg.rows[:, None, :] == features.values[None, :, :]).all(axis=2)
        assert matches.any(axis=1).all()
        assert len(np.unique(matches.argmax(axis=1))) == 12

    def test_cap_at_population(self, build_matrix):
        features = build_matrix(n_instances=8)
        assert sample_background(features, size=100, seed=0).size == 8

    def test_seed_determinism(self, build_matrix):
        features = build_matrix(n_instances=30)
        a = sample_background(features, size=10, seed=4)
        b = sample_background(features, size=10, seed=4)
        np.testing.assert_array_equal(a.rows, b.rows)


class TestCsvExport:
    def test_golden_small_tensor(self):
        tensor = AttributionTensor(
            instance_ids=["2013-01-08"],
            columns=(FeatureId("Price D-1", 0), FeatureId("Day of week", None)),
            values=np.arange(48.0).reshape(1, 24, 2) / 16.0,
            baseline=np.zeros(24),
        )
        out = io.StringIO()
        attribution_to_csv(tensor, out)
        text = out.getvalue()
        lines = text.strip().split("\n")
        assert lines[0] == "instance_id,output_hour,group,input_hour,value"
        assert lines[1] == "2013-01-08,0,Price D-1,0,0.0"
        assert lines[2] == "2013-01-08,0,Day of week,,0.0625"
        assert lines[-1] == "2013-01-08,23,Day of week,,2.9375"
        assert len(lines) == 1 + 48
        # Byte determinism and exact float round-trip.
        again = io.StringIO()
        attribution_to_csv(tensor, again)
        assert again.getvalue() == text
        assert float(lines[2].rsplit(",", 1)[1]) == tensor.values[0, 0, 1]
