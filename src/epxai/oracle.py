"""Reference batteries that check the estimators against exact values.

Each battery builds its own independent reference (closed form, coalition
enumeration, finite differences, or a self-consistent synthetic setup),
runs the production code path against it, and reports one pass or fail
line with the measured worst case. The CLI exposes the set under the
``oracle`` subcommand and the acceptance tests call the functions directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .analytics import complexity_metrics, heatmap
from .attribution import (
    AttributionTensor,
    BackgroundSet,
    jacobian_batch,
    shap_exact,
    shap_mc,
)
from .data import ScalerParams, inverse_transform, transform
from .markets import ACTIVATIONS, SCALER_KINDS, FeatureId, ModelSpec, Partition
from .mlp import TrainedModel, forward_blocks, init_weights, predict_prices
from .sshap import aggregate, slope_check, sshap_line

__all__ = [
    "BatteryResult",
    "run_efficiency",
    "run_exact_equivalence",
    "run_jacobian_fd",
    "run_linear_complexity",
    "run_slope_identity",
    "run_all",
]


@dataclass
class BatteryResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    metrics: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.1f}s]"


def _random_model(
    rng,
    n_features: int,
    hidden1: int = 8,
    hidden2: int = 8,
    activation: str = "softplus",
    in_kind: str = "std",
    out_kind: str = "std",
) -> TrainedModel:
    """Randomly initialised network dressed with plausible fitted scalers."""
    spec = ModelSpec(
        layer_sizes=(n_features, hidden1, hidden2, 24),
        activation=activation,
        dropout_rate=0.0,
        l1_factor=0.0,
        init_scheme="glorot_uniform",
        input_scaler_kind=in_kind,
        output_scaler_kind=out_kind,
        seed=int(rng.integers(0, 2**31)),
    )
    # arguments evaluate left to right, so the input scaler draws first
    return TrainedModel(
        spec, *init_weights(spec),
        ScalerParams(in_kind, rng.normal(size=n_features),
                     rng.uniform(0.5, 2.0, size=n_features)),
        ScalerParams(out_kind, rng.normal(scale=5.0, size=24), rng.uniform(2.0, 10.0, size=24)),
    )


def _chunk_partition(n_features: int, rng):
    """Random contiguous grouping of synthetic hourly feature ids."""
    fids: list = []
    groups: list = []
    left = n_features
    g = 0
    while left:
        size = int(rng.integers(1, min(left, 24) + 1))
        members = tuple(FeatureId(f"G{g}", h) for h in range(size))
        groups.append((f"G{g}", members))
        fids.extend(members)
        left -= size
        g += 1
    return tuple(fids), Partition(groups=tuple(groups))


def run_efficiency(seed: int = 0) -> BatteryResult:
    """Attribution sums must reproduce prediction minus baseline.

    Random (model, instance, seed) triples with pair counts cycling through
    1, 4, and 64. Checks both the per-feature sum and the grouped sums,
    with error measured relative to max(|prediction - baseline|, 1) so a
    near-zero output cannot inflate the ratio.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_triples = 1000
    pair_counts = (1, 4, 64)
    worst_feature = 0.0
    worst_group = 0.0
    for k in range(n_triples):
        n_f = int(rng.integers(2, 25))
        model = _random_model(
            rng, n_f, activation=ACTIVATIONS[k % 2], out_kind=SCALER_KINDS[k % 3],
        )
        background = BackgroundSet(
            rows=rng.normal(size=(int(rng.integers(1, 9)), n_f))
        )
        x = rng.normal(size=n_f)
        result = shap_mc(
            model,
            x,
            background,
            n_pairs=pair_counts[k % 3],
            seed=int(rng.integers(0, 2**31)),
            antithetic=bool(k % 2),
        )
        target = predict_prices(model, x) - result.baseline
        scale = np.maximum(np.abs(target), 1.0)
        feature_sum = result.values.sum(axis=1)
        worst_feature = max(
            worst_feature, float(np.max(np.abs(feature_sum - target) / scale))
        )
        fids, partition = _chunk_partition(n_f, rng)
        tensor = AttributionTensor(
            instance_ids=["0"],
            columns=fids,
            values=result.values[None],
            baseline=result.baseline,
        )
        grouped = aggregate(tensor, partition)
        group_sum = grouped.values[0].sum(axis=1)
        worst_group = max(
            worst_group, float(np.max(np.abs(group_sum - feature_sum) / scale))
        )
    worst = max(worst_feature, worst_group)
    return BatteryResult(
        name="efficiency",
        passed=worst <= 1e-9,
        detail=(
            f"max relative gap {worst:.3g} over {n_triples} triples "
            f"(tolerance 1e-9)"
        ),
        seconds=time.perf_counter() - t0,
        metrics={
            "n_triples": n_triples,
            "max_feature_sum_gap": worst_feature,
            "max_group_sum_gap": worst_group,
            "tolerance": 1e-9,
        },
    )


def _chi2_upper_quantile(dof: int, z: float = 3.090) -> float:
    """Wilson-Hilferty approximation of a chi^2 quantile; z = 3.090 is 0.999."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * c**0.5) ** 3


def run_exact_equivalence(seed: int = 13) -> BatteryResult:
    """Sampled values must agree with enumeration and the linear closed form.

    The sampled estimate is a mean of ``n_pairs`` independent pair
    estimates, so each value is checked against the enumerated value within
    max(t standard errors, 1e-6). The m values are checked at once, so t is
    the Bonferroni threshold of a two-sided family-wise level of 0.001,
    Phi^-1(1 - 0.0005 / m), about 5.1 for m near 3,000: a calibrated
    estimator passes at nearly any seed, where a 3-sigma bound over m values
    fails at most. Exact values on linear predictors must match
    coefficient * (x - background mean) to 1e-9 relative to the largest
    closed-form value.

    The seed-independent check is the mean of z^2, z = (sampled - exact) /
    stderr, over every value whose 3 standard errors exceed 1e-6. With a
    calibrated standard error it is near 1 at any seed. It must stay below
    the 0.999 quantile of chi^2_k / k, with k the number of (model, feature)
    pairs scored: the 24 hours of one feature share their walks, so they
    count as one degree of freedom, which can only widen the quantile.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_models, n_pairs = 20, 2000
    gaps, stderrs = [], []
    z2_sum, n_scored, dof = 0.0, 0, 0
    for k in range(n_models):
        n_f = int(rng.integers(2, 11))
        model = _random_model(
            rng, n_f, activation=ACTIVATIONS[k % 2], out_kind=SCALER_KINDS[k % 3],
        )
        background = BackgroundSet(rows=rng.normal(size=(16, n_f)))
        x = rng.normal(size=n_f)
        exact = shap_exact(model, x, background)
        sampled = shap_mc(
            model,
            x,
            background,
            n_pairs=n_pairs,
            seed=int(rng.integers(0, 2**31)),
            antithetic=True,
        )
        gaps.append(np.abs(sampled.values - exact).ravel())
        stderrs.append(sampled.stderr.ravel())
        scored = 3.0 * sampled.stderr > 1e-6
        z = (sampled.values - exact)[scored] / sampled.stderr[scored]
        z2_sum += float(np.sum(z * z))
        n_scored += int(scored.sum())
        dof += int(scored.any(axis=0).sum())

    worst_linear = 0.0
    for _ in range(5):
        n_f = int(rng.integers(2, 11))
        coef = rng.normal(size=(24, n_f))
        offset = rng.normal(size=24)

        def linear(rows, coef=coef, offset=offset):
            return rows @ coef.T + offset

        background = BackgroundSet(rows=rng.normal(size=(10, n_f)))
        x = rng.normal(size=n_f)
        phi = shap_exact(linear, x, background)
        closed = coef * (x - background.rows.mean(axis=0))[None, :]
        scale = max(float(np.max(np.abs(closed))), 1.0)
        worst_linear = max(
            worst_linear, float(np.max(np.abs(phi - closed))) / scale
        )
    gap, stderr = np.concatenate(gaps), np.concatenate(stderrs)
    threshold = NormalDist().inv_cdf(1.0 - 0.0005 / gap.size)
    worst_ratio = float(np.max(gap / np.maximum(threshold * stderr, 1e-6)))
    mean_z2 = z2_sum / n_scored
    z2_bound = _chi2_upper_quantile(dof) / dof
    passed = worst_ratio <= 1.0 and mean_z2 <= z2_bound and worst_linear <= 1e-9
    return BatteryResult(
        name="exact-equivalence",
        passed=passed,
        detail=(
            f"worst |sampled-exact| at {worst_ratio:.3f} of tolerance ({threshold:.2f} sigma, "
            f"{gap.size} values, {n_models} models); mean z^2 {mean_z2:.3f} over {n_scored} values "
            f"(bound {z2_bound:.3f}); linear closed-form gap {worst_linear:.3g} "
            f"(tolerance 1e-9)"
        ),
        seconds=time.perf_counter() - t0,
        metrics={
            "n_models": n_models,
            "n_pairs": n_pairs,
            "worst_tolerance_ratio": worst_ratio,
            "mean_z2": mean_z2,
            "mean_z2_bound": z2_bound,
            "n_z2_values": n_scored,
            "worst_linear_gap": worst_linear,
        },
    )


def run_jacobian_fd(seed: int = 0) -> BatteryResult:
    """Analytic Jacobians must match central finite differences.

    Uses a randomly initialised network of the FR benchmark's shape
    (120-233-206-24, softplus, arcsinh input scaling, std output scaling).
    Differences are taken in normalised input units on denormalised
    outputs, matching what the analytic path computes. Error is the worst
    entry gap relative to the largest analytic entry.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_instances, step = 100, 1e-4
    model = _random_model(
        rng, 120, hidden1=233, hidden2=206,
        activation="softplus", in_kind="arcsinh", out_kind="std",
    )
    x_norm = rng.normal(size=(n_instances, 120))
    x_raw = inverse_transform(model.input_scaler, x_norm)
    x_norm = transform(model.input_scaler, x_raw)
    analytic = jacobian_batch(model, x_raw)

    def prices(xn):
        return inverse_transform(model.output_scaler, forward_blocks(model, xn))

    fd = np.empty_like(analytic)
    for j in range(120):
        up = x_norm.copy()
        down = x_norm.copy()
        up[:, j] += step
        down[:, j] -= step
        fd[:, :, j] = (prices(up) - prices(down)) / (2.0 * step)
    scale = float(np.max(np.abs(analytic)))
    worst = float(np.max(np.abs(fd - analytic))) / scale
    return BatteryResult(
        name="jacobian-fd",
        passed=worst <= 1e-5,
        detail=(
            f"max relative gap {worst:.3g} over {n_instances} instances "
            f"(tolerance 1e-5, step {step:g})"
        ),
        seconds=time.perf_counter() - t0,
        metrics={
            "n_instances": n_instances,
            "step": step,
            "max_relative_gap": worst,
            "tolerance": 1e-5,
        },
    )


def run_linear_complexity(seed: int = 0) -> BatteryResult:
    """A linear surrogate must report exactly zero non-linearity.

    selu is the identity times a constant on the positive half-line, so a
    network with positive weights and large positive biases is exactly
    linear over a bounded input region; its Jacobian is the same matrix at
    every instance and the across-instance spread must be exactly zero,
    not merely small.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_f, n_instances = 24, 30
    model = _random_model(rng, n_f, hidden1=5, hidden2=4, activation="selu")
    # Positive weights + large biases keep every unit on selu's linear arm.
    model.weights = [np.abs(w) * 0.2 + 0.01 for w in model.weights]
    model.biases = [np.full_like(b, 10.0) for b in model.biases]
    fids = tuple(FeatureId("G", h) for h in range(24))
    x = rng.normal(size=(n_instances, n_f))
    grads = jacobian_batch(model, x)
    grad_tensor = AttributionTensor(
        instance_ids=[str(i) for i in range(n_instances)],
        columns=fids,
        values=grads,
    )
    shap_tensor = AttributionTensor(
        instance_ids=[str(i) for i in range(n_instances)],
        columns=fids,
        values=rng.normal(scale=0.4, size=(n_instances, 24, n_f)),
        baseline=np.zeros(24),
    )
    grid = heatmap(shap_tensor, "mean_abs")
    report = complexity_metrics(grad_tensor, grid, threshold=0.5)
    looser = complexity_metrics(grad_tensor, grid, threshold=0.25)
    passed = (
        report.non_linearity == 0.0
        and report.non_homogeneity >= 0.0
        and np.isfinite(report.important_vars_per_hour)
        and looser.important_vars_per_hour >= report.important_vars_per_hour
    )
    return BatteryResult(
        name="linear-complexity",
        passed=passed,
        detail=(
            f"non_linearity {report.non_linearity!r} (must be exactly 0.0), "
            f"non_homogeneity {report.non_homogeneity:.3g}"
        ),
        seconds=time.perf_counter() - t0,
        metrics={
            "non_linearity": report.non_linearity,
            "non_homogeneity": report.non_homogeneity,
            "important_vars_per_hour": report.important_vars_per_hour,
        },
    )


def run_slope_identity() -> BatteryResult:
    """Summed smoothed curves plus the smoothed baseline must sit on the
    identity line exactly.

    Group values y = price - b_h on a uniform price lattice with step
    bandwidth/2, once with a baseline that is the same every hour and once
    with one that rises through the day. At any on-lattice grid point far
    from the lattice edges the kernel weights are symmetric around the
    point, so the smoothed prices reproduce the grid; the smoothed baseline
    cancels whatever its shape, and the fitted slope is 1 to rounding.
    """
    t0 = time.perf_counter()
    bandwidth = 5.0
    step = bandwidth / 2.0
    prices = np.arange(0.0, 300.0, step).reshape(5, 24)  # 120 observations
    grid = np.arange(60.0, 240.0 + 1e-9, step)
    checks = []
    for baseline in (np.full(24, 37.0), 34.0 + 0.5 * np.arange(24)):
        tensor = AttributionTensor(
            instance_ids=[str(i) for i in range(5)],
            columns=("G",),
            values=(prices - baseline)[:, :, None],
            baseline=baseline,
        )
        checks.append(slope_check(sshap_line(tensor, prices, bandwidth=bandwidth, grid=grid)))
    slope_gap = max(abs(check.slope - 1.0) for check in checks)
    deviation = max(check.max_deviation for check in checks)
    passed = slope_gap <= 1e-9 and deviation <= 1e-9
    return BatteryResult(
        name="slope-identity",
        passed=passed,
        detail=(
            f"worst of a flat and an hourly baseline: slope gap {slope_gap:.3g}, "
            f"max deviation {deviation:.3g} (tolerances 1e-9)"
        ),
        seconds=time.perf_counter() - t0,
        metrics={"slope_gap": slope_gap, "max_deviation": deviation},
    )


def run_all(seed: int | None = None) -> list:
    """Run every battery; None keeps each battery's own pinned default seed."""
    seeded = (run_efficiency, run_exact_equivalence, run_jacobian_fd, run_linear_complexity)
    kwargs = {} if seed is None else {"seed": seed}
    return [run(**kwargs) for run in seeded] + [run_slope_identity()]
