"""Feed-forward forecaster: two hidden layers mapping lagged inputs to 24 prices.

The network is plain numpy end to end and runs in the dtype of the weights it
is given; :meth:`TrainedModel.astype` makes every copy in another dtype. One
block loop, :func:`forward_blocks`, serves every inference batch: prediction,
validation during training and the Monte Carlo walks.
:func:`forward_trace` keeps the pre-activations, and serves only the training
step and the analytic input gradients. Everything is reproducible bit for
bit under a fixed seed. Inputs and targets are normalized with the scalers
from :mod:`epxai.data`; prediction undoes the output scaling, so callers only
ever see raw price units.

Training follows the benchmark recipe: Adam on mean absolute error with
optional L1 weight penalty, inverted dropout on both hidden layers, a
chronological validation split, and early stopping that restores the best
validation weights. The minibatch steps and the Adam moments are float32, as
in the Keras original; the validation MAE behind early stopping and the
returned model are float64, holding float32-exact weights.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import FeatureMatrix, ScalerParams, fit_scaler, inverse_transform, transform
from .errors import DataError, DivergedLoss, EpxaiError, ModelError
from .markets import ModelSpec, TrainingHyperparams

__all__ = [
    "SELU_LAMBDA",
    "SELU_ALPHA",
    "MODEL_SCHEMA_VERSION",
    "TrainedModel",
    "n_train_instances",
    "init_weights",
    "forward_trace",
    "forward_blocks",
    "train",
    "predict_prices",
    "save_model",
    "load_model",
    "count_parameters",
]


SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

MODEL_SCHEMA_VERSION = 3

# Adam's moment decay rates and denominator guard, the defaults of the Adam paper.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8

# Rows per block in forward_blocks: a block's hidden activations stay
# in cache, and peak memory no longer scales with Monte Carlo walk batches.
_BLOCK_ROWS = 512


@dataclass
class TrainedModel:
    """Network weights plus the scalers they were trained with."""

    spec: ModelSpec
    weights: list  # three (fan_in, fan_out) float64 matrices
    biases: list  # three (fan_out,) float64 vectors
    input_scaler: ScalerParams
    output_scaler: ScalerParams
    history: list = field(default_factory=list)

    def astype(self, dtype) -> TrainedModel:
        """The same model with every weight and bias cast to ``dtype``."""
        return replace(
            self,
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)): neither exponent is positive, so
    # nothing overflows, and the numerator is 1 for x >= 0 and exp(x) below
    # without a select, which would mispredict a branch on mixed signs.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= e
    return out


def _activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "softplus":
        # max(z, 0) + log1p(exp(-|z|)): no overflow for any finite z, one
        # output buffer, and within 1e-15 relative of logaddexp(0, z) at a
        # third of its cost.
        out = np.abs(z)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += np.maximum(z, 0.0)
        return out
    # both terms are computed everywhere and one of them is zero: the
    # exponential only sees z <= 0, so it cannot overflow, and the sum has
    # the bits of the two-branch select without its mispredicted branches
    out = np.minimum(z, 0.0)
    np.expm1(out, out=out)
    out *= SELU_LAMBDA * SELU_ALPHA
    out += SELU_LAMBDA * np.maximum(z, 0.0)
    return out


def _activation_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "softplus":
        return _sigmoid(z)
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    out *= SELU_LAMBDA * SELU_ALPHA
    out *= z <= 0.0
    out += z.dtype.type(SELU_LAMBDA) * (z > 0.0)
    return out


def init_weights(spec: ModelSpec) -> tuple[list, list]:
    """Scheme-appropriate random weights drawn from ``spec.seed``, and zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        shape = (fan_in, fan_out)
        if spec.init_scheme == "glorot_uniform":
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, shape)
        elif spec.init_scheme == "he_normal":
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), shape)
        elif spec.init_scheme == "lecun_uniform":
            bound = math.sqrt(3.0 / fan_in)
            w = rng.uniform(-bound, bound, shape)
        else:  # lecun_normal
            w = rng.normal(0.0, math.sqrt(1.0 / fan_in), shape)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward_trace(model: TrainedModel, x_norm: np.ndarray, masks=None):
    """Forward pass in normalized units, keeping pre-activations.

    Returns ``(z1, a1, z2, a2, y_norm)`` for a 2-D batch; used by the
    training step and by the analytic gradient path. ``masks``, a pair of
    dropout masks for the two hidden layers, multiplies each activation as
    soon as it is computed, so ``a1``/``a2`` are returned dropped out.
    """
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    act = model.spec.activation
    z1 = x_norm @ w1 + b1
    a1 = _activation(act, z1)
    if masks is not None:
        a1 *= masks[0]
    z2 = a1 @ w2 + b2
    a2 = _activation(act, z2)
    if masks is not None:
        a2 *= masks[1]
    y = a2 @ w3 + b3
    return z1, a1, z2, a2, y


def predict_prices(model: TrainedModel, x_raw: np.ndarray) -> np.ndarray:
    """Raw feature rows to 24 hourly prices in raw units.

    Rows go through :func:`forward_blocks`, so the hidden-layer
    intermediates never exceed one block. Each row's arithmetic is
    independent of its block. A price that overflows the float64 range, in
    the network or in undoing the output scaling, raises :class:`EpxaiError`.
    """
    batch = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    if batch.ndim != 2 or batch.shape[1] != model.spec.n_inputs:
        raise ValueError(f"expected {model.spec.n_inputs} input features, got shape {batch.shape}")
    if not np.all(np.isfinite(batch)):
        raise DataError("model input contains non-finite values")
    # an overflow ends as a non-finite price, refused below as one
    with np.errstate(over="ignore", invalid="ignore"):
        y = forward_blocks(model, transform(model.input_scaler, batch))
        prices = inverse_transform(model.output_scaler, y)
    if not np.isfinite(prices).all():
        raise EpxaiError("model produced non-finite outputs")
    return prices[0] if np.ndim(x_raw) == 1 else prices


def forward_blocks(model: TrainedModel, x_norm: np.ndarray) -> np.ndarray:
    """Normalized outputs of a 2-D batch in float64, in blocks of rows.

    Each block of :data:`_BLOCK_ROWS` rows goes through :func:`forward_trace`
    on its own, so a block's hidden activations stay in cache and memory does
    not grow with the batch. The forward pass runs in the dtype of the
    weights and inputs; its outputs are stored in float64.
    """
    y = np.empty((x_norm.shape[0], 24))
    for lo in range(0, x_norm.shape[0], _BLOCK_ROWS):
        y[lo : lo + _BLOCK_ROWS] = forward_trace(model, x_norm[lo : lo + _BLOCK_ROWS])[-1]
    return y


def _batch_gradients(model, xb, yb, masks):
    """Loss and parameter gradients for one dropped-out minibatch.

    Runs in the dtype of the weights and the batch; the loss is a float64 mean.
    """
    w1, w2, w3 = model.weights
    act = model.spec.activation
    l1 = model.spec.l1_factor

    z1, a1, z2, a2, y = forward_trace(model, xb, masks)

    resid = y - yb
    loss = float(np.mean(np.abs(resid), dtype=np.float64))
    if l1 > 0.0:
        loss += l1 * float(sum(np.sum(np.abs(w)) for w in model.weights))

    dy = np.sign(resid) / resid.size
    dw3 = a2.T @ dy
    db3 = dy.sum(axis=0)
    da2 = dy @ w3.T
    if masks is not None:
        da2 = da2 * masks[1]
    dz2 = da2 * _activation_grad(act, z2)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2.T
    if masks is not None:
        da1 = da1 * masks[0]
    dz1 = da1 * _activation_grad(act, z1)
    dw1 = xb.T @ dz1
    db1 = dz1.sum(axis=0)

    if l1 > 0.0:
        dw1 = dw1 + l1 * np.sign(w1)
        dw2 = dw2 + l1 * np.sign(w2)
        dw3 = dw3 + l1 * np.sign(w3)
    return loss, [dw1, dw2, dw3], [db1, db2, db3]


def n_train_instances(n: int, validation_fraction: float) -> int:
    """How many of ``n`` chronological instances train; the trailing rest validate."""
    return n - round(validation_fraction * n)


def train(
    spec: ModelSpec,
    features: FeatureMatrix,
    hp: TrainingHyperparams | None = None,
) -> TrainedModel:
    """Fit a network of ``spec`` on a feature matrix; returns the trained model.

    Scalers are fit on the chronological training slice only, the weights
    start from :func:`init_weights`, the trailing ``validation_fraction`` of
    days is held out for early stopping, and the weights that achieved the
    best validation MAE are restored at the end.
    With ``validation_fraction`` 0 the model simply runs all epochs.
    Minibatch steps and Adam run in float32; each epoch's validation MAE is
    computed in float64 on the float32 weights, and the returned weights are
    those float64 values.
    Raises :class:`DivergedLoss` if any loss turns non-finite and
    :class:`DataError` when the split leaves fewer than 2 training days.
    """
    hp = hp or TrainingHyperparams()
    if features.n_features != spec.n_inputs:
        raise ValueError(
            f"model expects {spec.n_inputs} features, matrix has {features.n_features}"
        )
    n = features.n_instances
    n_train = n_train_instances(n, hp.validation_fraction)
    n_val = n - n_train
    if n_train < 2:
        raise DataError(f"{n} instances leave {n_train} for training after the split")

    input_scaler = fit_scaler(spec.input_scaler_kind, features.values[:n_train])
    output_scaler = fit_scaler(spec.output_scaler_kind, features.targets[:n_train])
    x_all = transform(input_scaler, features.values)
    y_all = transform(output_scaler, features.targets)
    x_train = x_all[:n_train].astype(np.float32)
    y_train = y_all[:n_train].astype(np.float32)
    x_val, y_val = x_all[n_train:], y_all[n_train:]

    rng = np.random.default_rng(hp.seed)
    work = TrainedModel(spec, *init_weights(spec), input_scaler, output_scaler).astype(np.float32)
    params = work.weights + work.biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    t = 0
    dropout = spec.dropout_rate
    keep = np.float32(1.0 / (1.0 - dropout))
    hidden_sizes = (spec.layer_sizes[1], spec.layer_sizes[2])

    best_val = math.inf
    best = None  # float64 copy of the best epoch's weights
    stall = 0
    history: list[dict] = []

    for epoch in range(hp.max_epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, hp.batch_size):
            idx = order[lo : lo + hp.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            masks = None
            if dropout > 0.0:
                masks = [(rng.random((len(idx), h)) >= dropout) * keep for h in hidden_sizes]
            loss, dws, dbs = _batch_gradients(work, xb, yb, masks)
            epoch_loss += loss * len(idx)
            t += 1
            c1 = 1.0 - _ADAM_BETA1**t
            c2 = 1.0 - _ADAM_BETA2**t
            for p, m, v, g in zip(params, m_state, v_state, dws + dbs):
                m *= _ADAM_BETA1
                m += (1.0 - _ADAM_BETA1) * g
                v *= _ADAM_BETA2
                v += (1.0 - _ADAM_BETA2) * g * g
                p -= hp.learning_rate * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPSILON)
        epoch_loss /= n_train

        if not math.isfinite(epoch_loss):
            raise DivergedLoss(
                f"training diverged: training loss became {epoch_loss} at epoch {epoch}"
            )
        record = {"epoch": epoch, "train_loss": epoch_loss, "val_mae": None}
        history.append(record)
        if not n_val:
            continue
        # the float64 inputs promote the float32 weights exactly, so validation
        # reads the very values of the float64 copy that a new best epoch saves
        val_pred = forward_blocks(work, x_val)
        val_mae = float(np.mean(np.abs(val_pred - y_val)))
        if not math.isfinite(val_mae):
            raise DivergedLoss(
                f"training diverged: validation MAE became {val_mae} at epoch {epoch}"
            )
        record["val_mae"] = val_mae
        if val_mae < best_val:
            best_val, best, stall = val_mae, work.astype(np.float64), 0
        else:
            stall += 1
            if stall > hp.early_stop_patience:
                break

    # without a validation slice the last epoch's weights are kept
    final = best if n_val else work.astype(np.float64)
    return replace(final, history=history)


def _scaler_to_dict(params: ScalerParams):
    return {
        "kind": params.kind,
        "location": params.location.tolist(),
        "scale": params.scale.tolist(),
    }


def _scaler_from_dict(payload: dict, name: str) -> ScalerParams:
    entry = payload.get(f"{name}_scaler")
    if entry is None:
        raise ModelError(f"model carries no fitted {name}_scaler")
    return ScalerParams(
        kind=entry["kind"],
        location=np.asarray(entry["location"], dtype=np.float64),
        scale=np.asarray(entry["scale"], dtype=np.float64),
    )


def _encode_floats(values: np.ndarray, dtype: str) -> str:
    # little-endian bytes of ``dtype`` as base64 text: exact for every value
    # the dtype holds, and far cheaper to write and read than a decimal repr
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


def _decode_floats(text: str, dtype: str) -> np.ndarray:
    # a junk character or a byte count that is not a multiple of the item size
    # raises ValueError, which load_model reports as a ModelError
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype=dtype).astype(np.float64)


def save_model(model: TrainedModel) -> str:
    """Serialize a model to versioned JSON text; exact float round-trip.

    Each layer's weights and bias are base64 text of their little-endian
    bytes in ``weights_dtype``: ``"<f4"`` when every value equals its float32
    rounding, as every value :func:`train` returns does, else ``"<f8"``. The
    spec, scalers and history are plain JSON.
    """
    # a value past the float32 range casts to inf, which differs from it
    with np.errstate(over="ignore"):
        exact = all(
            np.array_equal(p, p.astype(np.float32)) for p in model.weights + model.biases
        )
    dtype = "<f4" if exact else "<f8"
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "weights_dtype": dtype,
        "spec": asdict(model.spec),
        "input_scaler": _scaler_to_dict(model.input_scaler),
        "output_scaler": _scaler_to_dict(model.output_scaler),
        "layers": [
            {
                "rows": w.shape[0],
                "cols": w.shape[1],
                "weights_row_major": _encode_floats(w, dtype),
                "bias": _encode_floats(b, dtype),
            }
            for w, b in zip(model.weights, model.biases)
        ],
        "history": model.history,
    }
    return json.dumps(payload)


def load_model(text: str) -> TrainedModel:
    """Inverse of :func:`save_model`.

    Raises :class:`ModelError` for a foreign schema version or weights dtype,
    a missing scaler, a non-finite weight or bias and anything that does not
    decode into a consistent network.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelError("top-level JSON value is not an object")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelError(f"schema_version {version!r}, supported {MODEL_SCHEMA_VERSION}")
    dtype = payload.get("weights_dtype")
    if dtype not in ("<f4", "<f8"):
        raise ModelError(f"weights_dtype {dtype!r}, supported '<f4' and '<f8'")
    try:
        sp = payload["spec"]
        # every field is required: a missing seed must not fall back to its default
        names = [f.name for f in fields(ModelSpec)]
        if sorted(sp) != sorted(names):
            raise ModelError(f"spec keys {sorted(sp)} are not the ModelSpec fields {names}")
        spec = ModelSpec(**{**sp, "layer_sizes": tuple(sp["layer_sizes"])})
        weights, biases = [], []
        for i, layer in enumerate(payload["layers"], 1):
            rows, cols = int(layer["rows"]), int(layer["cols"])
            flat = _decode_floats(layer["weights_row_major"], dtype)
            if flat.size != rows * cols:
                raise ModelError(f"layer holds {flat.size} weights, expected {rows * cols}")
            bias = _decode_floats(layer["bias"], dtype)
            if not (np.isfinite(flat).all() and np.isfinite(bias).all()):
                raise ModelError(f"layer {i} holds a non-finite weight or bias")
            weights.append(flat.reshape(rows, cols))
            biases.append(bias)
        model = TrainedModel(
            spec=spec,
            weights=weights,
            biases=biases,
            input_scaler=_scaler_from_dict(payload, "input"),
            output_scaler=_scaler_from_dict(payload, "output"),
            history=payload.get("history", []),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"bad model payload: {exc}") from exc

    shapes = [w.shape for w in model.weights]
    expected = list(zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]))
    if shapes != expected or len(model.biases) != 3:
        raise ModelError(f"layer shapes {shapes} do not match spec {expected}")
    for b, (_, fan_out) in zip(model.biases, expected):
        if b.shape != (fan_out,):
            raise ModelError(f"bias shape {b.shape} does not match {fan_out}")
    for name, scaler, n in (("input", model.input_scaler, spec.n_inputs),
                            ("output", model.output_scaler, spec.layer_sizes[-1])):
        if scaler.n_columns != n:
            raise ModelError(
                f"{name} scaler holds {scaler.n_columns} columns, the network has {n} {name}s"
            )
        kind = getattr(spec, f"{name}_scaler_kind")
        if scaler.kind != kind:
            raise ModelError(f"{name} scaler is {scaler.kind!r}, the spec says {kind!r}")
    return model


def count_parameters(model: TrainedModel) -> int:
    return sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
