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
consistency check of the summed curves with the slope that additivity
implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import AttributionTensor
from .errors import EpxaiError
from .markets import Partition

__all__ = [
    "SshapLines",
    "SlopeCheck",
    "aggregate",
    "sshap_line",
    "slope_check",
    "expected_slope",
]


@dataclass
class SshapLines:
    """Kernel-smoothed curves of every group's value against realised price.

    The groups of one partition share one ``grid`` and one ``bandwidth``.
    ``values`` is (n_groups, grid size); ``baseline`` is the hourly
    baseline smoothed with the same weights, one value per grid price, so
    additivity puts the summed curve at ``grid - baseline``.
    """

    labels: tuple
    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    baseline: np.ndarray


@dataclass
class SlopeCheck:
    """Least-squares fit of summed curves against the identity line."""

    slope: float
    intercept: float
    max_deviation: float
    n_points: int


def aggregate(tensor: AttributionTensor, partition: Partition) -> AttributionTensor:
    """Sum per-feature Shapley values into per-group values.

    Returns a tensor over the partition's labels with the same instances and
    baseline. The partition must cover the tensor's features exactly; within
    a group, features are summed in tensor column order so results do not
    depend on how the partition was written down. Gradients, which carry no
    baseline, do not add up to a prediction and are refused.
    """
    if tensor.baseline is None:
        raise ValueError("can only aggregate Shapley values: the tensor has no baseline")
    tensor_features = set(tensor.columns)
    partition_features = partition.all_features()
    if tensor_features != partition_features:
        missing = tensor_features - partition_features
        extra = partition_features - tensor_features
        raise EpxaiError(
            f"partition misses {len(missing)} tensor features, "
            f"adds {len(extra)} unknown ones"
        )
    column_of = {fid: j for j, fid in enumerate(tensor.columns)}
    values = np.empty((tensor.n_instances, 24, partition.n_groups))
    for g, (_, members) in enumerate(partition.groups):
        cols = sorted(column_of[fid] for fid in members)
        values[:, :, g] = tensor.values[:, :, cols].sum(axis=2)
    return AttributionTensor(
        instance_ids=list(tensor.instance_ids),
        columns=partition.labels,
        values=values,
        baseline=tensor.baseline.copy(),
    )


def sshap_line(
    sshap: AttributionTensor,
    actual_prices: np.ndarray,
    bandwidth: float | None = None,
    grid: np.ndarray | None = None,
    grid_size: int = 200,
) -> SshapLines:
    """Gaussian-kernel regression of every group's values on realised prices.

    Observations are (price, group value) pairs pooled over every instance
    and output hour, so ``actual_prices`` is (n_instances, 24). Each
    observation's hourly baseline is smoothed with the same weights into
    ``SshapLines.baseline``. The default ``bandwidth`` is Silverman's rule
    of thumb over the prices, 0.9 min(sd, IQR / 1.34) n^(-1/5), with the sd
    alone when the IQR is 0. The default grid spans the 1st to 99th
    percentile of the prices with ``grid_size`` points. Every grid point
    gets a value, however far it lies from the observations; a bandwidth so
    small that the squared distances overflow raises :class:`EpxaiError`.
    """
    prices = np.asarray(actual_prices, dtype=np.float64)
    if prices.shape != (sshap.n_instances, 24):
        raise ValueError(
            f"actual_prices must be ({sshap.n_instances}, 24), got {prices.shape}"
        )
    x = prices.ravel()
    if x.size == 0:
        raise EpxaiError("no observations to smooth")
    if bandwidth is None:
        q1, q3 = np.percentile(x, [25.0, 75.0])
        sd = float(np.std(x, ddof=1))
        spread = min(sd, (q3 - q1) / 1.34) if q3 > q1 else sd
        # prices that never change give the same curve at any bandwidth
        bandwidth = 0.9 * spread * x.size ** -0.2 or 1.0
    elif bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if grid is None:
        lo, hi = np.percentile(x, [1.0, 99.0])
        grid = np.linspace(lo, hi, grid_size)
    else:
        grid = np.asarray(grid, dtype=np.float64)

    with np.errstate(over="ignore"):
        half_sq = 0.5 * ((grid[:, None] - x[None, :]) / bandwidth) ** 2
    nearest = half_sq.min(axis=1)
    if not np.isfinite(nearest).all():
        raise EpxaiError(
            f"bandwidth {bandwidth!r} is too small: the squared price distances overflow"
        )
    # Shift by the per-point minimum so the nearest observation weighs 1 and
    # the close ones keep full precision; the shift cancels in the weighted mean.
    weights = np.exp(-(half_sq - nearest[:, None]))
    columns = np.column_stack([
        sshap.values.reshape(x.size, -1),
        np.tile(sshap.baseline, sshap.n_instances),
    ])
    smoothed = (weights @ columns) / weights.sum(axis=1)[:, None]
    return SshapLines(
        labels=sshap.columns,
        grid=grid,
        values=smoothed[:, :-1].T,
        bandwidth=float(bandwidth),
        baseline=smoothed[:, -1],
    )


def slope_check(lines: SshapLines, band=None) -> SlopeCheck:
    """Fit the summed curves plus the baseline against price, and measure
    their deviation from the identity line.

    An observation's group values sum to its predicted price minus its
    baseline. Smoothed against the predicted price, the summed curve is
    therefore ``grid - lines.baseline`` up to smoothing, and the sum plus
    the baseline lies on the identity: slope one, intercept zero. Against
    the realised price y, as ``explain`` smooths them, the slope to expect
    is :func:`expected_slope`. Returns the least-squares slope/intercept
    over the grid points inside ``band`` (a (low, high) price window; None
    keeps the whole grid) and the maximum absolute deviation from the
    identity. Fewer than two distinct grid prices there, as on the grid of
    prices that never change, leave no line to fit and raise
    :class:`EpxaiError`.
    """
    grid = lines.grid
    lo, hi = (-np.inf, np.inf) if band is None else band
    mask = (grid >= lo) & (grid <= hi)
    g = grid[mask]
    if np.unique(g).size < 2:
        raise EpxaiError("fewer than 2 usable grid points in the band")
    s = (lines.values.sum(axis=0) + lines.baseline)[mask]
    g_centred = g - g.mean()
    slope = float(g_centred @ (s - s.mean()) / (g_centred @ g_centred))
    intercept = float(s.mean() - slope * g.mean())
    deviation = float(np.max(np.abs(s - g)))
    return SlopeCheck(
        slope=slope,
        intercept=intercept,
        max_deviation=deviation,
        n_points=g.size,
    )


def expected_slope(sshap: AttributionTensor, actual_prices: np.ndarray, band=None) -> float:
    """cov(p, y) / var(y), the slope :func:`slope_check` should find against
    realised prices y, over the (instance, hour) observations with y inside
    ``band`` (None keeps all); p, the baseline plus the summed group values,
    is the prediction by additivity. Raises :class:`EpxaiError` unless y varies."""
    y = np.asarray(actual_prices, dtype=np.float64).ravel()
    p = (sshap.values.sum(axis=2) + sshap.baseline).ravel()
    lo, hi = (-np.inf, np.inf) if band is None else band
    inside = (y >= lo) & (y <= hi)
    if np.unique(y[inside]).size < 2:
        raise EpxaiError("fewer than 2 distinct realised prices in the band")
    y_centred = y[inside] - y[inside].mean()
    return float(y_centred @ p[inside] / (y_centred @ y_centred))
