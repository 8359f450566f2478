"""Network layer: activations, init schemes, training loop, persistence."""

import base64
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from epxai.data import NonFiniteInput, ScalerParams, transform
from epxai.markets import ModelSpec, TrainingHyperparams, benchmark_spec
from epxai.mlp import (
    MODEL_SCHEMA_VERSION,
    SELU_ALPHA,
    SELU_LAMBDA,
    CorruptPayload,
    DivergedLoss,
    ModelError,
    SchemaVersionMismatch,
    TooFewInstances,
    _BLOCK_ROWS,
    _activation,
    _activation_grad,
    _batch_gradients,
    _sigmoid,
    count_parameters,
    forward,
    forward_trace,
    init_model,
    load_model,
    predict_prices,
    save_model,
    train,
)


def small_spec(n_in=48, activation="softplus", dropout=0.0, l1=0.0, seed=3):
    return ModelSpec(
        layer_sizes=(n_in, 24, 16, 24),
        activation=activation,
        dropout_rate=dropout,
        l1_factor=l1,
        init_scheme="glorot_uniform",
        input_scaler_kind="std",
        output_scaler_kind="std",
        seed=seed,
    )


def kernel_grid():
    """Extremes, signed zeros and 10^5 normal draws for the activation kernels."""
    rng = np.random.default_rng(21)
    fixed = np.array([800.0, -800.0, -50.0, 0.0, -0.0])
    return np.concatenate([fixed, rng.normal(0.0, 5.0, 100_000)])


def select_kernels(z):
    """The two-branch np.where forms of the kernels, as the oracle for their bits."""
    e = np.exp(-np.abs(z))
    neg = np.minimum(z, 0.0)
    return {
        "sigmoid": np.where(z >= 0, 1.0, e) / (1.0 + e),
        "selu": np.where(z > 0.0, SELU_LAMBDA * z, SELU_LAMBDA * SELU_ALPHA * np.expm1(neg)),
        "selu_grad": np.where(z > 0.0, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(neg)),
    }


def reference_sigmoid(x):
    """Two-branch logistic function: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestActivations:
    def test_softplus_matches_logaddexp(self):
        z = kernel_grid()
        np.testing.assert_allclose(
            _activation("softplus", z), np.logaddexp(0.0, z), rtol=1e-15, atol=0.0
        )

    def test_softplus_leaves_input_unchanged(self):
        z = kernel_grid()
        before = z.copy()
        _activation("softplus", z)
        np.testing.assert_array_equal(z, before)

    def test_sigmoid_equals_two_branch_reference(self):
        z = kernel_grid()
        np.testing.assert_array_equal(_sigmoid(z), reference_sigmoid(z))

    def test_softplus_frozen_points(self):
        z = np.array([0.0, -50.0, 800.0])
        out = _activation("softplus", z)
        np.testing.assert_allclose(out[0], math.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(out[1], math.exp(-50.0), rtol=1e-12)
        assert out[2] == 800.0  # no overflow, asymptotically identity

    def test_softplus_gradient_is_logistic(self):
        z = np.array([0.0, 2.0, -2.0])
        g = _activation_grad("softplus", z)
        np.testing.assert_allclose(g[0], 0.5, rtol=1e-15)
        np.testing.assert_allclose(g[1] + g[2], 1.0, rtol=1e-12)

    def test_selu_frozen_points(self):
        z = np.array([1.0, -1.0, 0.0])
        out = _activation("selu", z)
        np.testing.assert_allclose(out[0], SELU_LAMBDA, rtol=1e-15)
        np.testing.assert_allclose(
            out[1], SELU_LAMBDA * SELU_ALPHA * (math.exp(-1.0) - 1.0), rtol=1e-12
        )
        assert out[2] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selu_large_input_does_not_overflow(self, dtype):
        # exp(1e3) overflows both dtypes; the positive branch must not compute it
        z = np.array([1e3, -1e3], dtype=dtype)
        with np.errstate(over="raise"):
            out = _activation("selu", z)
            grad = _activation_grad("selu", z)
        assert out.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(out[0], SELU_LAMBDA * z[0])
        np.testing.assert_array_equal(grad[0], dtype(SELU_LAMBDA))
        np.testing.assert_array_equal(out[1], dtype(-SELU_LAMBDA * SELU_ALPHA))
        assert grad[1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selu_equals_unclamped_formula(self, dtype):
        # on a range where exp(z) is finite, clamping the exponent to z <= 0
        # changes no bit
        z = np.linspace(-50.0, 50.0, 100_001).astype(dtype)
        np.testing.assert_array_equal(
            _activation("selu", z),
            np.where(z > 0.0, SELU_LAMBDA * z, SELU_LAMBDA * SELU_ALPHA * np.expm1(z)),
        )
        np.testing.assert_array_equal(
            _activation_grad("selu", z),
            np.where(z > 0.0, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(z)),
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernels_have_the_bits_of_the_select_formulas(self, dtype):
        edges = [0.0, 1e-40, 88.7, 90.0, 710.0, np.inf]
        fixed = np.array(edges + [-v for v in edges], dtype=dtype)
        assert np.signbit(fixed[len(edges)])  # -0.0 is in the grid
        z = np.concatenate([fixed, kernel_grid().astype(dtype)])
        expected = select_kernels(z)
        got = {
            "sigmoid": _sigmoid(z),
            "selu": _activation("selu", z),
            "selu_grad": _activation_grad("selu", z),
        }
        for name, want in expected.items():
            assert got[name].dtype == want.dtype == dtype, name
            np.testing.assert_array_equal(got[name].view(np.uint8), want.view(np.uint8), name)

    def test_activation_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, 2.0, 200)
        h = 1e-6
        for name in ("softplus", "selu"):
            fd = (_activation(name, z + h) - _activation(name, z - h)) / (2 * h)
            np.testing.assert_allclose(
                _activation_grad(name, z), fd, rtol=1e-6, atol=1e-9
            )


class TestInit:
    def test_glorot_uniform_bound(self):
        # First benchmark layer for the 120-input market: sqrt(6/353)
        spec = benchmark_spec("FR")
        model = init_model(spec)
        bound = math.sqrt(6.0 / (120 + 233))
        np.testing.assert_allclose(bound, 0.130373, atol=1e-6)
        w1 = model.weights[0]
        assert np.max(np.abs(w1)) <= bound
        assert np.max(np.abs(w1)) > 0.95 * bound  # 27960 draws fill the range
        assert all(not b.any() for b in model.biases)

    def test_he_normal_std(self):
        model = init_model(benchmark_spec("BE"))
        w1 = model.weights[0]
        np.testing.assert_allclose(
            w1.std(), math.sqrt(2.0 / 121), rtol=0.05
        )

    def test_lecun_uniform_bound(self):
        model = init_model(benchmark_spec("NP"))
        bound = math.sqrt(3.0 / 144)
        assert np.max(np.abs(model.weights[0])) <= bound

    def test_seed_determinism(self):
        a = init_model(small_spec(seed=9))
        b = init_model(small_spec(seed=9))
        c = init_model(small_spec(seed=10))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))

    def test_parameter_count_frozen(self):
        # 120*233+233 + 233*206+206 + 206*24+24 = 81365
        assert count_parameters(init_model(benchmark_spec("FR"))) == 81365


class TestBenchmarkSpecs:
    def test_table_values(self):
        rows = {
            "DE": ((217, 329, 379, 24), "softplus", 0.455, 0.0,
                   "glorot_uniform", "std", "median"),
            "FR": ((120, 233, 206, 24), "softplus", 0.193, 0.0,
                   "glorot_uniform", "arcsinh", "std"),
            "BE": ((121, 205, 308, 24), "softplus", 0.253, 0.0,
                   "he_normal", "arcsinh", "arcsinh"),
            "NP": ((144, 274, 308, 24), "softplus", 0.154, 0.0,
                   "lecun_uniform", "median", "std"),
            "PJM": ((120, 299, 376, 24), "selu", 0.0079, 0.000306,
                    "lecun_uniform", "arcsinh", "arcsinh"),
        }
        for market_id, row in rows.items():
            spec = benchmark_spec(market_id)
            got = (
                spec.layer_sizes,
                spec.activation,
                spec.dropout_rate,
                spec.l1_factor,
                spec.init_scheme,
                spec.input_scaler_kind,
                spec.output_scaler_kind,
            )
            assert got == row, market_id


class TestForward:
    def test_selu_positive_domain_is_linear(self):
        # With positive weights and inputs, selu reduces to lambda * identity,
        # so the whole network is a linear map computable independently.
        spec = ModelSpec(
            layer_sizes=(3, 4, 5, 24),
            activation="selu",
            dropout_rate=0.0,
            l1_factor=0.0,
            init_scheme="lecun_uniform",
            input_scaler_kind="std",
            output_scaler_kind="std",
            seed=0,
        )
        model = init_model(spec)
        rng = np.random.default_rng(1)
        model.weights = [np.abs(w) + 0.1 for w in model.weights]
        x = np.abs(rng.normal(1.0, 0.3, (6, 3))) + 0.5
        w1, w2, w3 = model.weights
        expected = SELU_LAMBDA**2 * (x @ w1) @ w2 @ w3
        np.testing.assert_allclose(forward(model, x), expected, rtol=1e-12)

    def test_single_row_matches_batch(self):
        model = init_model(small_spec())
        x = np.random.default_rng(2).normal(0.0, 1.0, (5, 48))
        batch = forward(model, x)
        for i in range(5):
            np.testing.assert_allclose(forward(model, x[i]), batch[i], rtol=1e-12)

    def test_non_finite_input_rejected(self):
        model = init_model(small_spec())
        x = np.zeros(48)
        x[7] = np.nan
        with pytest.raises(NonFiniteInput):
            forward(model, x)

    def test_masks_drop_out_activations(self):
        model = init_model(small_spec())
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, (6, 48))
        masks = [(rng.random((6, h)) >= 0.3) / 0.7 for h in (24, 16)]
        z1, a1, z2, a2, y = forward_trace(model, x, masks)
        w1, w2, w3 = model.weights
        b1, b2, b3 = model.biases
        np.testing.assert_array_equal(a1, _activation("softplus", z1) * masks[0])
        np.testing.assert_array_equal(z2, a1 @ w2 + b2)
        np.testing.assert_array_equal(a2, _activation("softplus", z2) * masks[1])
        np.testing.assert_array_equal(y, a2 @ w3 + b3)

    def test_predict_prices_blocks_are_independent(self, build_matrix):
        features = build_matrix(n_instances=30, seed=5)
        hp = TrainingHyperparams(batch_size=8, max_epochs=2, seed=2)
        model = train(init_model(small_spec()), features, hp)
        n = 3 * _BLOCK_ROWS + 7
        x = np.random.default_rng(6).normal(40.0, 8.0, (n, 48))
        whole = predict_prices(model, x)
        by_block = np.concatenate(
            [predict_prices(model, x[lo : lo + _BLOCK_ROWS])
             for lo in range(0, n, _BLOCK_ROWS)]
        )
        assert whole.shape == (n, 24)
        np.testing.assert_array_equal(whole, by_block)
        np.testing.assert_array_equal(predict_prices(model, x), whole)

    def test_untrained_predict_rejected(self):
        with pytest.raises(ModelError):
            predict_prices(init_model(small_spec()), np.zeros(48))

    def test_forward_blocks_have_the_bits_of_one_pass(self):
        # forward runs in blocks of rows; over three full blocks and a short
        # one it must equal a single pass over the whole batch
        model = init_model(small_spec())
        x = np.random.default_rng(7).normal(0.0, 1.0, (3 * _BLOCK_ROWS + 7, 48))
        np.testing.assert_array_equal(forward(model, x), forward_trace(model, x)[-1])


class TestAstype:
    def test_casts_every_array_and_keeps_the_rest(self, build_matrix):
        features = build_matrix(n_instances=30, seed=5)
        hp = TrainingHyperparams(batch_size=8, max_epochs=2, seed=2)
        model = train(init_model(small_spec()), features, hp)
        model32 = model.astype(np.float32)
        for p in model32.weights + model32.biases:
            assert p.dtype == np.float32
        assert model32.spec == model.spec
        assert model32.input_scaler is model.input_scaler
        assert model32.output_scaler is model.output_scaler
        assert model32.history == model.history
        # float32 -> float64 is exact, so the round trip keeps every value
        back = model32.astype(np.float64).astype(np.float32)
        for a, b in zip(model32.weights + model32.biases, back.weights + back.biases):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a, b)


class TestGradients:
    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        spec = small_spec(n_in=5, l1=0.01)
        spec = ModelSpec(
            layer_sizes=(5, 7, 6, 24),
            activation="softplus",
            dropout_rate=0.0,
            l1_factor=0.01,
            init_scheme="glorot_uniform",
            input_scaler_kind="std",
            output_scaler_kind="std",
            seed=4,
        )
        model = init_model(spec)
        xb = rng.normal(0.0, 1.0, (4, 5))
        yb = rng.normal(0.0, 1.0, (4, 24))
        _, dws, dbs = _batch_gradients(model, xb, yb, None)

        def loss_at():
            loss, _, _ = _batch_gradients(model, xb, yb, None)
            return loss

        h = 1e-6
        for li in range(3):
            w = model.weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (0, w.shape[1] // 2)]:
                keep = w[idx]
                w[idx] = keep + h
                up = loss_at()
                w[idx] = keep - h
                down = loss_at()
                w[idx] = keep
                np.testing.assert_allclose(
                    dws[li][idx], (up - down) / (2 * h), rtol=2e-4, atol=1e-10
                )
            b = model.biases[li]
            keep = b[0]
            b[0] = keep + h
            up = loss_at()
            b[0] = keep - h
            down = loss_at()
            b[0] = keep
            np.testing.assert_allclose(
                dbs[li][0], (up - down) / (2 * h), rtol=2e-4, atol=1e-10
            )

    def test_first_adam_step_is_signed_learning_rate(self, build_matrix):
        # After one batch, m-hat/sqrt(v-hat) collapses to g/|g|.
        features = build_matrix(n_instances=8, n_groups=2, seed=12)
        spec = small_spec(n_in=48)
        model = init_model(spec)
        hp = TrainingHyperparams(
            learning_rate=1e-3,
            batch_size=8,
            max_epochs=1,
            validation_fraction=0.0,
            seed=5,
        )
        fitted = train(model, features, hp)
        xb = transform(fitted.input_scaler, features.values)
        yb = transform(fitted.output_scaler, features.targets)
        _, dws, _ = _batch_gradients(model, xb, yb, None)
        delta = fitted.weights[0] - model.weights[0]
        big = np.abs(dws[0]) > 1e-6
        np.testing.assert_allclose(
            np.abs(delta[big]), hp.learning_rate, rtol=1e-2
        )
        np.testing.assert_array_equal(np.sign(delta[big]), -np.sign(dws[0][big]))


class TestTraining:
    def test_loss_decreases_on_learnable_problem(self, build_matrix):
        features = build_matrix(n_instances=120, seed=3)
        hp = TrainingHyperparams(
            learning_rate=5e-3, batch_size=16, max_epochs=60,
            validation_fraction=0.15, seed=1,
        )
        fitted = train(init_model(small_spec()), features, hp)
        losses = [h["train_loss"] for h in fitted.history]
        assert losses[-1] < 0.5 * losses[0]
        assert fitted.is_trained

    def test_early_stop_restores_best_weights(self, build_matrix):
        features = build_matrix(n_instances=100, seed=6, noise=2.0)
        hp = TrainingHyperparams(
            batch_size=16, max_epochs=200, early_stop_patience=5,
            validation_fraction=0.2, seed=2,
        )
        fitted = train(init_model(small_spec(seed=8)), features, hp)
        vals = [h["val_mae"] for h in fitted.history]
        n_val = int(round(0.2 * features.n_instances))
        x_val = transform(fitted.input_scaler, features.values[-n_val:])
        y_val = transform(fitted.output_scaler, features.targets[-n_val:])
        recomputed = float(np.mean(np.abs(forward(fitted, x_val) - y_val)))
        # the saved weights hold exactly the values validation read
        assert recomputed == min(vals)
        if len(vals) < hp.max_epochs:  # stopped early: patience exhausted
            assert len(vals) == int(np.argmin(vals)) + hp.early_stop_patience + 2

    def test_training_is_deterministic(self, build_matrix):
        features = build_matrix(n_instances=40, seed=9)
        hp = TrainingHyperparams(batch_size=8, max_epochs=5, seed=7)
        spec = small_spec(dropout=0.3)
        a = train(init_model(spec), features, hp)
        b = train(init_model(spec), features, hp)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.history == b.history
        assert save_model(a) == save_model(b)
        c = train(init_model(spec), features, TrainingHyperparams(
            batch_size=8, max_epochs=5, seed=8))
        assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.2])
    def test_weights_are_float64_holding_float32_values(
        self, build_matrix, validation_fraction
    ):
        # the steps run in float32; the returned model is float64
        features = build_matrix(n_instances=40, seed=9)
        hp = TrainingHyperparams(
            batch_size=8, max_epochs=3, validation_fraction=validation_fraction, seed=7
        )
        fitted = train(init_model(small_spec(dropout=0.3)), features, hp)
        for p in fitted.weights + fitted.biases:
            assert p.dtype == np.float64
            np.testing.assert_array_equal(p.astype(np.float32).astype(np.float64), p)

    def test_selu_l1_dropout_recipe_learns(self, build_matrix):
        # the PJM recipe (selu, lecun_uniform, arcsinh scalers, L1, dropout)
        # at a small shape
        features = build_matrix(n_instances=120, seed=4)
        spec = ModelSpec(
            layer_sizes=(48, 30, 38, 24),
            activation="selu",
            dropout_rate=0.0079,
            l1_factor=0.000306,
            init_scheme="lecun_uniform",
            input_scaler_kind="arcsinh",
            output_scaler_kind="arcsinh",
            seed=5,
        )
        hp = TrainingHyperparams(batch_size=16, max_epochs=30, seed=3)
        fitted = train(init_model(spec), features, hp)
        losses = [h["train_loss"] for h in fitted.history]
        assert all(math.isfinite(v) for v in losses)
        assert losses[-1] < 0.7 * losses[0]
        assert all(math.isfinite(h["val_mae"]) for h in fitted.history)

    def test_dropout_training_still_learns(self, build_matrix):
        features = build_matrix(n_instances=120, seed=4)
        hp = TrainingHyperparams(batch_size=16, max_epochs=30, seed=3)
        fitted = train(init_model(small_spec(dropout=0.25)), features, hp)
        losses = [h["train_loss"] for h in fitted.history]
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_loss_raises(self, build_matrix):
        features = build_matrix(n_instances=30, seed=2)
        hp = TrainingHyperparams(
            learning_rate=1e300, batch_size=8, max_epochs=5,
            validation_fraction=0.0, seed=1,
        )
        with pytest.raises(DivergedLoss):
            train(init_model(small_spec()), features, hp)

    def test_too_few_instances(self, build_matrix):
        features = build_matrix(n_instances=2, seed=1)
        hp = TrainingHyperparams(validation_fraction=0.5)
        with pytest.raises(TooFewInstances):
            train(init_model(small_spec()), features, hp)

    def test_predictions_in_raw_units(self, build_matrix):
        features = build_matrix(n_instances=120, seed=3)
        hp = TrainingHyperparams(batch_size=16, max_epochs=60, seed=1)
        fitted = train(init_model(small_spec()), features, hp)
        pred = predict_prices(fitted, features.values)
        assert pred.shape == (120, 24)
        # Raw targets sit around 20; normalized outputs do not.
        assert abs(float(np.mean(pred)) - float(np.mean(features.targets))) < 2.0


class TestPersistence:
    def make_trained(self, build_matrix):
        features = build_matrix(n_instances=30, seed=5)
        hp = TrainingHyperparams(batch_size=8, max_epochs=3, seed=2)
        return train(init_model(small_spec(dropout=0.1)), features, hp), features

    def test_roundtrip_bit_exact(self, build_matrix):
        model, features = self.make_trained(build_matrix)
        text = save_model(model)
        again = load_model(text)
        for wa, wb in zip(model.weights, again.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(model.biases, again.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(
            model.input_scaler.location, again.input_scaler.location
        )
        assert again.spec == model.spec
        assert again.history == model.history
        np.testing.assert_array_equal(
            predict_prices(model, features.values),
            predict_prices(again, features.values),
        )
        assert save_model(again) == text

    def test_schema_version_checked(self, build_matrix):
        model, _ = self.make_trained(build_matrix)
        text = save_model(model).replace(
            f'"schema_version": {MODEL_SCHEMA_VERSION}', '"schema_version": 99'
        )
        with pytest.raises(SchemaVersionMismatch):
            load_model(text)

    def test_corrupt_payloads(self, build_matrix):
        model, _ = self.make_trained(build_matrix)
        text = save_model(model)
        with pytest.raises(CorruptPayload):
            load_model(text[: len(text) // 2])
        with pytest.raises(CorruptPayload):
            load_model("[1, 2, 3]")
        with pytest.raises(CorruptPayload):
            load_model(text.replace('"rows": 48', '"rows": 47'))

    def test_init_weights_roundtrip_bit_exact(self):
        model = init_model(small_spec())
        model.weights[0][0, 0] = -0.0
        model.weights[1][1, 2] = 5e-324  # subnormal
        model.biases[2][3] = -2.5e-310
        text = save_model(model)
        again = load_model(text)
        for a, b in zip(model.weights + model.biases, again.weights + again.biases):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))
        assert save_model(again) == text

    def test_layers_are_base64_little_endian_float64(self):
        model = init_model(small_spec())
        layer = json.loads(save_model(model))["layers"][1]
        raw = base64.b64decode(layer["weights_row_major"])
        np.testing.assert_array_equal(
            np.frombuffer(raw, dtype="<f8").reshape(24, 16), model.weights[1]
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda enc: "!" + enc[1:],  # not a base64 character
            lambda enc: base64.b64encode(base64.b64decode(enc)[:-4]).decode(),  # 8k + 4 bytes
        ],
        ids=["junk-character", "partial-float"],
    )
    def test_bad_weight_bytes_are_corrupt(self, mutate):
        payload = json.loads(save_model(init_model(small_spec())))
        layer = payload["layers"][0]
        layer["weights_row_major"] = mutate(layer["weights_row_major"])
        with pytest.raises(CorruptPayload):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: [p["input_scaler"][k].pop() for k in ("location", "scale")],
            lambda p: [p["output_scaler"][k].pop() for k in ("location", "scale")],
            lambda p: p["input_scaler"]["scale"].__setitem__(3, 0.0),
            lambda p: p["output_scaler"]["scale"].__setitem__(0, -1.0),
            lambda p: p["output_scaler"]["location"].__setitem__(0, math.nan),
            lambda p: p["input_scaler"]["scale"].__setitem__(0, math.inf),
            lambda p: p["output_scaler"].update(kind="median"),
        ],
        ids=[
            "input-scaler-short", "output-scaler-short", "zero-scale",
            "negative-scale", "nan-location", "infinite-scale", "other-kind",
        ],
    )
    def test_scalers_that_do_not_fit_are_corrupt(self, mutate):
        model = replace(
            init_model(small_spec()),
            input_scaler=ScalerParams("std", np.zeros(48), np.ones(48)),
            output_scaler=ScalerParams("std", np.zeros(24), np.ones(24)),
        )
        payload = json.loads(save_model(model))
        load_model(json.dumps(payload))
        mutate(payload)
        with pytest.raises(CorruptPayload, match="scaler"):
            load_model(json.dumps(payload))

    def test_schema_1_file_is_refused(self):
        model = init_model(small_spec())
        payload = json.loads(save_model(model))
        payload["schema_version"] = 1
        for layer, w, b in zip(payload["layers"], model.weights, model.biases):
            layer.update(weights_row_major=w.reshape(-1).tolist(), bias=b.tolist())
        with pytest.raises(SchemaVersionMismatch, match="schema_version 1"):
            load_model(json.dumps(payload))
