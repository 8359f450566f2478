"""Grouped Shapley values over super-variable partitions.

A trained forecaster sees hundreds of hourly inputs, but analysts reason
about a handful of named series (yesterday's price curve, today's load
forecast, ...). Summing the per-feature Shapley values of each group in a
partition yields one value per group that keeps the additivity property:
group values still sum to the prediction minus the baseline, because the
regrouping only re-brackets the same sum.

Partitions, with hour-range splitting of a group (e.g. early-morning vs
rest-of-day load) and merging of groups, live in the numpy-free
:mod:`epxai.markets`. On top of the grouped values this module provides
kernel-smoothed curves of group value against the realised price, and a
consistency check that the summed curves follow the identity line implied
by additivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import AttributionTensor
from .errors import EpxaiError
from .markets import Partition

__all__ = [
    "SshapTensor",
    "SshapLines",
    "SlopeCheck",
    "aggregate",
    "sshap_line",
    "slope_check",
]


# exp(-x) underflows to zero in float64 near x = 745; past this squared
# half-distance even the closest observation carries no weight.
_UNDERFLOW = 709.0


@dataclass
class SshapTensor:
    """Grouped Shapley values: (n_instances, 24, n_groups) plus baseline."""

    instance_ids: list
    partition: Partition
    values: np.ndarray
    baseline: np.ndarray

    def __post_init__(self):
        n, h, g = self.values.shape
        if n != len(self.instance_ids) or h != 24 or g != self.partition.n_groups:
            raise ValueError("values must be (n_instances, 24, n_groups)")

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]


@dataclass
class SshapLines:
    """Kernel-smoothed curves of every group's value against realised price.

    The groups of one partition share one ``grid``, one ``bandwidth`` and
    one ``baseline``, the mean hourly baseline their sum is compared with.
    ``values`` is (n_groups, grid size), NaN wherever no observation kept
    nonzero kernel weight.
    """

    labels: tuple
    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    baseline: float


@dataclass
class SlopeCheck:
    """Least-squares fit of summed curves against the identity line."""

    slope: float
    intercept: float
    max_deviation: float
    n_points: int


def aggregate(tensor: AttributionTensor, partition: Partition) -> SshapTensor:
    """Sum per-feature Shapley values into per-group values.

    The partition must cover the tensor's features exactly; within a group,
    features are summed in tensor column order so results do not depend on
    how the partition was written down.
    """
    if tensor.kind != "shap":
        raise ValueError(f"can only aggregate shap tensors, got {tensor.kind!r}")
    tensor_features = set(tensor.feature_ids)
    partition_features = partition.all_features()
    if tensor_features != partition_features:
        missing = tensor_features - partition_features
        extra = partition_features - tensor_features
        raise EpxaiError(
            f"partition misses {len(missing)} tensor features, "
            f"adds {len(extra)} unknown ones"
        )
    column_of = {fid: j for j, fid in enumerate(tensor.feature_ids)}
    values = np.empty((tensor.values.shape[0], 24, partition.n_groups))
    for g, (_, members) in enumerate(partition.groups):
        cols = sorted(column_of[fid] for fid in members)
        values[:, :, g] = tensor.values[:, :, cols].sum(axis=2)
    return SshapTensor(
        instance_ids=list(tensor.instance_ids),
        partition=partition,
        values=values,
        baseline=tensor.baseline.copy(),
    )


def sshap_line(
    sshap: SshapTensor,
    actual_prices: np.ndarray,
    bandwidth: float = 5.0,
    grid: np.ndarray | None = None,
    grid_size: int = 200,
) -> SshapLines:
    """Gaussian-kernel regression of every group's values on realised prices.

    Observations are (price, group value) pairs pooled over every instance
    and output hour, so ``actual_prices`` is (n_instances, 24). The default
    grid spans the 1st to 99th percentile of the observed prices with
    ``grid_size`` points. Grid points where every observation's kernel
    weight underflows to zero are returned as NaN.
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    prices = np.asarray(actual_prices, dtype=np.float64)
    if prices.shape != (sshap.n_instances, 24):
        raise ValueError(
            f"actual_prices must be ({sshap.n_instances}, 24), got {prices.shape}"
        )
    x = prices.ravel()
    if x.size == 0:
        raise EpxaiError("no observations to smooth")
    if grid is None:
        lo, hi = np.percentile(x, [1.0, 99.0])
        grid = np.linspace(lo, hi, grid_size)
    else:
        grid = np.asarray(grid, dtype=np.float64)

    # a bandwidth so small that the squares overflow leaves NaN weights at
    # points the underflow test below marks absent anyway
    with np.errstate(over="ignore", invalid="ignore"):
        half_sq = 0.5 * ((grid[:, None] - x[None, :]) / bandwidth) ** 2
        nearest = half_sq.min(axis=1)
        # Shift by the per-point minimum so the close observations keep full
        # precision; the shift cancels in the weighted mean.
        weights = np.exp(-(half_sq - nearest[:, None]))
        total = weights.sum(axis=1)
        # one product per group: a single weights @ (n_obs, n_groups) product
        # rounds differently and would change every line's bits
        values = np.stack([
            (weights @ sshap.values[:, :, g].ravel()) / total
            for g in range(sshap.partition.n_groups)
        ])
    values[:, nearest >= _UNDERFLOW] = np.nan
    return SshapLines(
        labels=sshap.partition.labels,
        grid=grid,
        values=values,
        bandwidth=float(bandwidth),
        baseline=float(sshap.baseline.mean()),
    )


def slope_check(lines: SshapLines, band=None) -> SlopeCheck:
    """Fit the vertical sum of the lines against price and measure deviation.

    When every configured group is present, additivity predicts the summed
    curve equals ``price - lines.baseline``: slope one, intercept minus
    baseline. Returns the least-squares slope/intercept over the finite
    grid points inside ``band`` (a (low, high) price window; None keeps the
    whole grid) and the maximum absolute deviation from that identity line.
    Fewer than two distinct grid prices there, as on the grid of prices
    that never change, leave no line to fit and raise :class:`EpxaiError`.
    """
    grid = lines.grid
    total = lines.values.sum(axis=0)
    mask = np.isfinite(total)
    if band is not None:
        lo, hi = band
        mask &= (grid >= lo) & (grid <= hi)
    g = grid[mask]
    if np.unique(g).size < 2:
        raise EpxaiError("fewer than 2 usable grid points in the band")
    s = total[mask]
    g_centred = g - g.mean()
    slope = float(g_centred @ (s - s.mean()) / (g_centred @ g_centred))
    intercept = float(s.mean() - slope * g.mean())
    deviation = float(np.max(np.abs(s - (g - lines.baseline))))
    return SlopeCheck(
        slope=slope,
        intercept=intercept,
        max_deviation=deviation,
        n_points=g.size,
    )
