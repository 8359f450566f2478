"""Per-instance model explanations: gradients and Shapley values.

Two complementary views of a trained forecaster:

* :func:`jacobian_batch` gives the analytic derivative of every
  denormalised output price with respect to every normalized input, for one
  row or a batch, computed by reverse accumulation through the network and
  the output scaler. No sampling, no truncation error.

* :func:`shap_mc` estimates Shapley values by sampling (permutation,
  background row) pairs and walking the permutation, switching one feature
  at a time from the background value to the instance value. Each walk
  telescopes, so the summed values reproduce the prediction minus the
  sampled baseline regardless of how few pairs are drawn. The value
  function marginalises removed features over an empirical background set
  (full rows, so feature dependence within the background is preserved;
  conditional value functions are a possible extension, not implemented).
  :func:`shap_exact` enumerates all coalitions for small feature counts and
  serves as the ground truth the sampler is checked against.

Shapley values are computed on denormalised outputs, so gradient and
Shapley artefacts share the unit of the target price.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .data import FeatureMatrix, inverse_transform, transform
from .errors import EpxaiError
from .mlp import (
    TrainedModel,
    _activation_grad,
    forward_blocks,
    forward_trace,
    predict_prices,
)

__all__ = [
    "BackgroundSet",
    "ShapExplanation",
    "AttributionTensor",
    "sample_background",
    "jacobian_batch",
    "shap_mc",
    "shap_exact",
    "explain_dataset",
    "attribution_to_csv",
]


EXACT_FEATURE_CAP = 12

# Rows per model evaluation chunk; bounds peak memory during enumeration.
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class BackgroundSet:
    """Raw-unit feature rows that removed features are averaged over."""

    rows: np.ndarray

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise EpxaiError("background needs at least one row")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("background rows must be finite")

    @property
    def size(self) -> int:
        return self.rows.shape[0]


@dataclass
class ShapExplanation:
    """Sampled Shapley values for one instance.

    ``values[h, i]`` is the contribution of feature i to the hour-h price;
    ``baseline`` is the mean prediction over the sampled background rows, so
    ``values.sum(axis=1) == prediction - baseline`` up to rounding.
    ``stderr`` is the per-value standard error over pair estimates (NaN when
    only one pair was drawn).
    """

    values: np.ndarray  # (24, n_features)
    baseline: np.ndarray  # (24,)
    stderr: np.ndarray  # (24, n_features)


@dataclass
class AttributionTensor:
    """Stacked per-instance attributions: (n_instances, 24, n_columns).

    ``columns`` labels the last axis: feature ids for per-feature Shapley
    values and gradients, group labels for grouped (SSHAP) values. Shapley
    values carry their ``baseline``, one vector shared by every instance;
    gradients have none.
    """

    instance_ids: list
    columns: tuple
    values: np.ndarray
    baseline: np.ndarray | None = None

    def __post_init__(self):
        n_inst, n_hours, n_cols = self.values.shape
        if n_inst != len(self.instance_ids) or n_hours != 24:
            raise ValueError("values must be (n_instances, 24, n_columns)")
        if n_cols != len(self.columns):
            raise ValueError("last axis does not match columns")

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]


def sample_background(
    features: FeatureMatrix, size: int = 100, seed: int = 0
) -> BackgroundSet:
    """Draw background rows uniformly without replacement (capped at n)."""
    n = features.n_instances
    if n == 0:
        raise EpxaiError("feature matrix has no instances")
    take = min(size, n)
    idx = np.sort(np.random.default_rng(seed).choice(n, size=take, replace=False))
    return BackgroundSet(rows=features.values[idx].copy())


def _predict_fn(model):
    """Batch prediction callable for a trained model or a bare function.

    Shapley machinery only needs rows-in, 24-prices-out, so any callable
    with that contract can be explained (handy for closed-form checks).
    """
    if isinstance(model, TrainedModel):
        return lambda batch: predict_prices(model, batch)
    if callable(model):
        return model
    raise TypeError(f"cannot explain object of type {type(model).__name__}")


def _predict_checked(fn, states: np.ndarray) -> np.ndarray:
    preds = np.asarray(fn(states), dtype=np.float64)
    if preds.shape != (states.shape[0], 24):
        raise ValueError(f"predictor returned shape {preds.shape}, expected (n, 24)")
    if not np.all(np.isfinite(preds)):
        raise EpxaiError("model produced non-finite outputs")
    return preds


def _output_derivative(model: TrainedModel, y_norm: np.ndarray) -> np.ndarray:
    """d(denormalised output)/d(normalized output), per output unit."""
    scaler = model.output_scaler
    if scaler.kind == "arcsinh":
        # an overflow ends as inf, which jacobian_batch refuses
        with np.errstate(over="ignore"):
            return scaler.scale * np.cosh(y_norm)
    return np.broadcast_to(scaler.scale, y_norm.shape).copy()


def jacobian_batch(model: TrainedModel, x_raw: np.ndarray) -> np.ndarray:
    """Analytic Jacobians of raw rows: (n, 24, n_features) for a batch,
    (24, n_features) for a single 1-D row.

    Entry (h, i) is the derivative of the hour-h price (raw units) with
    respect to normalized input i, accumulated right to left through both
    hidden layers and the output scaler.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    single = x_raw.ndim == 1
    if single:
        x_raw = x_raw[None, :]
    xn = transform(model.input_scaler, x_raw)
    z1, _, z2, _, yn = forward_trace(model, xn)
    if not np.all(np.isfinite(yn)):
        raise EpxaiError("forward pass produced non-finite outputs")

    act = model.spec.activation
    s1 = _activation_grad(act, z1)  # (n, h1)
    s2 = _activation_grad(act, z2)  # (n, h2)
    w1, w2, w3 = model.weights
    d_out = _output_derivative(model, yn)  # (n, 24)

    # stacked matmuls run one BLAS product per row
    back = s2[:, :, None] * w3  # (n, h2, 24)
    back = w2 @ back  # (n, h1, 24)
    back *= s1[:, :, None]
    back = w1 @ back  # (n, n_in, 24)
    jac = np.transpose(back, (0, 2, 1)) * d_out[:, :, None]
    if not np.all(np.isfinite(jac)):
        raise EpxaiError("gradient accumulation produced non-finite values")
    return jac[0] if single else jac


def _walk_estimates(interior, ends, x, zs, perms, antithetic):
    """Per-pair Shapley estimates along permutation walks: (n_pairs, n_features, 24).

    Row k of a walk has the first k features (in permutation order) switched
    from the background row to the instance values. Rows 0 and n_features
    are the endpoints ``ends = (p(zs), p(x))``, which every walk of an
    instance shares; only rows 1..n_features-1 are built, from ``x`` and
    ``zs``, and passed to ``interior``. Each step's prediction delta is
    credited to the feature it switches, so a pair's estimate sums over
    features to ``p(x) - p(z_k)``. With ``antithetic`` each permutation is
    also walked in reverse and the pair's estimate is the mean of the two.
    """
    n_pairs, n_f = perms.shape
    preds = np.empty((n_pairs, n_f + 1, 24))
    preds[:, 0], preds[:, n_f] = ends
    pair_index = np.arange(n_pairs)[:, None]
    estimates = []
    for order in (perms, perms[:, ::-1]) if antithetic else (perms,):
        if n_f > 1:
            positions = np.argsort(order, axis=1)  # positions[p, j]: step feature j switches
            mask = positions[:, None, :] < np.arange(1, n_f)[None, :, None]
            states = np.where(mask, x[None, None, :], zs[:, None, :])
            interior_preds = _predict_checked(interior, states.reshape(-1, n_f))
            preds[:, 1:n_f] = interior_preds.reshape(n_pairs, n_f - 1, 24)
        contrib = np.empty((n_pairs, n_f, 24))
        contrib[pair_index, order, :] = preds[:, 1:, :] - preds[:, :-1, :]
        estimates.append(contrib)
    return 0.5 * (estimates[0] + estimates[1]) if antithetic else estimates[0]


def _mixed_interior(model: TrainedModel, x_raw: np.ndarray, zs: np.ndarray):
    """Float32 walk inputs and interior predictor for a trained model.

    Returns ``(interior, x, zs)`` with ``x`` and ``zs`` in normalized units
    as float32. ``transform`` acts on each element of a column on its own,
    so a walk state built from the normalized rows is the normalized walk
    state, bit for bit, and the rows are normalized once rather than once
    per state. ``interior`` runs the states through a float32 copy of the
    network and denormalizes the outputs in float64.
    """
    x32 = transform(model.input_scaler, x_raw).astype(np.float32)
    zs32 = transform(model.input_scaler, zs).astype(np.float32)
    model32 = model.astype(np.float32)

    def interior(states):
        # an overflow, in the float32 network or in the float64
        # denormalization, ends as a non-finite output, which the caller
        # refuses as one
        with np.errstate(over="ignore", invalid="ignore"):
            y = forward_blocks(model32, states)
            return inverse_transform(model.output_scaler, y)

    return interior, x32, zs32


def shap_mc(
    model: TrainedModel,
    x_raw: np.ndarray,
    background: BackgroundSet,
    n_pairs: int = 64,
    seed=0,
    antithetic: bool = True,
    background_draws: np.ndarray | None = None,
) -> ShapExplanation:
    """Monte-Carlo permutation Shapley values for one instance.

    Draws ``n_pairs`` (background row, permutation) pairs; with
    ``antithetic`` each permutation is also walked in reverse on the same
    row, which cancels first-order walk noise at no extra sampling budget.
    ``background_draws`` (an index array into the background set) can be
    supplied to share one background sample across many instances; the
    permutations still come from ``seed``. Draw order is fixed: background
    indices first, then permutations, so a given seed always produces the
    same walks.

    With a :class:`TrainedModel` the interior rows of each walk are
    evaluated in float32 and the two endpoints in float64 through
    :func:`predict_prices`; the differences are taken in float64, so the
    values still sum to the float64 prediction minus the baseline. A bare
    callable is evaluated on float64 raw rows throughout.
    """
    fn = _predict_fn(model)
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if x_raw.ndim != 1:
        raise ValueError("shap_mc takes a single 1-D feature row")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    n_f = x_raw.shape[0]
    rng = np.random.default_rng(seed)
    if background_draws is None:
        draws = rng.integers(0, background.size, size=n_pairs)
    else:
        draws = np.asarray(background_draws, dtype=np.intp)
        if draws.shape != (n_pairs,):
            raise ValueError("background_draws must have shape (n_pairs,)")
        if draws.size and (draws.min() < 0 or draws.max() >= background.size):
            raise ValueError("background_draws index out of range")
    zs = background.rows[draws]
    perms = np.stack([rng.permutation(n_f) for _ in range(n_pairs)])

    # float64 endpoints; with a trained model the interior rows run in
    # float32, which leaves the telescoped sum p(x) - p(z) untouched
    ends = (_predict_checked(fn, zs), _predict_checked(fn, x_raw[None, :])[0])
    if isinstance(model, TrainedModel):
        interior, x_walk, zs_walk = _mixed_interior(model, x_raw, zs)
    else:
        interior, x_walk, zs_walk = fn, x_raw, zs
    estimates = _walk_estimates(interior, ends, x_walk, zs_walk, perms, antithetic)

    values = estimates.mean(axis=0).T  # (24, n_f)
    baseline = ends[0].mean(axis=0)
    if n_pairs > 1:
        stderr = (estimates.std(axis=0, ddof=1) / np.sqrt(n_pairs)).T
    else:
        stderr = np.full((24, n_f), np.nan)
    return ShapExplanation(values=values, baseline=baseline, stderr=stderr)


def shap_exact(
    model: TrainedModel, x_raw: np.ndarray, background: BackgroundSet
) -> np.ndarray:
    """Exact Shapley values by coalition enumeration: (24, n_features).

    The value of a coalition is the mean prediction over the background set
    with coalition features fixed to the instance. Cost grows as
    2^n_features * background size, so the feature count is capped at
    :data:`EXACT_FEATURE_CAP`.
    """
    fn = _predict_fn(model)
    x_raw = np.asarray(x_raw, dtype=np.float64)
    n_f = x_raw.shape[0]
    if n_f > EXACT_FEATURE_CAP:
        raise EpxaiError(f"{n_f} features exceeds cap {EXACT_FEATURE_CAP}")
    n_masks = 1 << n_f
    bits = (np.arange(n_masks)[:, None] >> np.arange(n_f)[None, :]) & 1  # (2^n, n_f)

    b = background.size
    coalition_values = np.empty((n_masks, 24))
    masks_per_chunk = max(1, _CHUNK_ROWS // b)
    for lo in range(0, n_masks, masks_per_chunk):
        hi = min(lo + masks_per_chunk, n_masks)
        chunk_bits = bits[lo:hi, None, :].astype(bool)  # (c, 1, n_f)
        states = np.where(chunk_bits, x_raw[None, None, :], background.rows[None, :, :])
        preds = _predict_checked(fn, states.reshape(-1, n_f))
        coalition_values[lo:hi] = preds.reshape(hi - lo, b, 24).mean(axis=1)

    sizes = bits.sum(axis=1)
    weight_by_size = np.array(
        [
            factorial(s) * factorial(n_f - 1 - s) / factorial(n_f)
            for s in range(n_f)
        ]
    )
    values = np.empty((24, n_f))
    all_masks = np.arange(n_masks)
    for i in range(n_f):
        without = all_masks[(all_masks >> i) & 1 == 0]
        w = weight_by_size[sizes[without]]
        gaps = coalition_values[without | (1 << i)] - coalition_values[without]
        values[:, i] = w @ gaps
    return values


def explain_dataset(
    model: TrainedModel,
    features: FeatureMatrix,
    background: BackgroundSet,
    n_pairs: int = 64,
    seed: int = 0,
    antithetic: bool = True,
    instance_indices: np.ndarray | None = None,
) -> tuple[AttributionTensor, AttributionTensor]:
    """Shapley and gradient tensors for a whole feature matrix.

    One background draw sequence (derived from ``seed``) is shared by every
    instance, so the tensor's single baseline vector is the exact baseline
    of each instance and summing an instance's values reproduces its
    prediction minus that shared baseline. Permutations use per-instance
    child seeds, also derived from ``seed``.
    """
    if instance_indices is None:
        instance_indices = np.arange(features.n_instances)
    else:
        instance_indices = np.asarray(instance_indices, dtype=np.intp)
    rows = features.values[instance_indices]
    all_ids = features.instance_ids()
    ids = [all_ids[i] for i in instance_indices]

    draw_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    draws = draw_rng.integers(0, background.size, size=n_pairs)
    baseline = predict_prices(model, background.rows[draws]).mean(axis=0)

    shap_values = np.empty((len(rows), 24, features.n_features))
    for k, row in enumerate(rows):
        result = shap_mc(
            model,
            row,
            background,
            n_pairs=n_pairs,
            seed=np.random.SeedSequence([seed, 1, int(instance_indices[k])]),
            antithetic=antithetic,
            background_draws=draws,
        )
        shap_values[k] = result.values

    grad_values = jacobian_batch(model, rows)

    shap_tensor = AttributionTensor(
        instance_ids=ids,
        columns=features.columns,
        values=shap_values,
        baseline=baseline,
    )
    grad_tensor = AttributionTensor(
        instance_ids=ids,
        columns=features.columns,
        values=grad_values,
    )
    return shap_tensor, grad_tensor


def tensor_csv(tensor: AttributionTensor, header: str, prefixes, out) -> None:
    """Write the CSV of a tensor into text stream ``out``.

    Row ``(k, h, j)`` reads ``instance_ids[k],h,`` then ``prefixes[j]`` then
    the value in shortest round-trip form, so equal tensors always serialize
    to byte-identical text. The text is formatted and written one instance
    at a time, so the memory it takes is one instance's rows, whatever the
    size of the file.
    """
    out.write(header + "\n")
    for instance_id, block in zip(tensor.instance_ids, tensor.values):
        out.write("".join([
            f"{instance_id},{h},{prefix}{value!r}\n"
            for h, row in enumerate(block.tolist())
            for prefix, value in zip(prefixes, row)
        ]))


def attribution_to_csv(tensor: AttributionTensor, out) -> None:
    """Write a tensor's flat CSV into text stream ``out``: instance, output
    hour, feature, value."""
    prefixes = [
        f"{fid.group},{'' if fid.hour is None else fid.hour}," for fid in tensor.columns
    ]
    header = "instance_id,output_hour,group,input_hour,value"
    tensor_csv(tensor, header, prefixes, out)
