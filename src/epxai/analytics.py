"""Aggregated views of attributions plus forecast quality and model metrics.

Heatmaps condense an attribution tensor into 24x24 blocks (output hour by
input hour, one block per hourly super-variable); rankings order features
or groups by mean absolute contribution; performance metrics take the
previous-day naive forecast (each delivery day's previous-day prices on
every weekday, laid out by :func:`epxai.data.build_feature_matrix`
as ``FeatureMatrix.naive``) as the scale for the relative MAE; complexity
metrics summarise how non-linear and how hour-inhomogeneous a trained
forecaster is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, EpxaiError

if TYPE_CHECKING:  # annotations only; train runs analytics without this layer
    from .attribution import AttributionTensor

__all__ = [
    "HeatmapGrid",
    "ImportanceTable",
    "BeeswarmRow",
    "BeeswarmTable",
    "PerformanceReport",
    "ComplexityReport",
    "heatmap",
    "hourly_importance",
    "beeswarm_table",
    "performance_metrics",
    "complexity_metrics",
]

HEATMAP_AGGREGATIONS = ("mean_abs", "mean")


@dataclass
class HeatmapGrid:
    """Per-group 24x24 maps; ``values[b, output_hour, input_hour]``."""

    aggregation: str
    blocks: tuple  # group labels, one per block
    values: np.ndarray  # (n_blocks, 24, 24)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class ImportanceTable:
    """Mean absolute group value per output hour: ``values[hour, group]``."""

    groups: tuple
    values: np.ndarray  # (24, n_groups)


@dataclass
class BeeswarmRow:
    """One ranked feature with its per-instance points.

    ``shap_values[i, h]`` pairs with ``feature_values[i]`` repeated over
    the 24 output hours.
    """

    feature: object  # FeatureId
    score: float
    feature_values: np.ndarray  # (n_instances,)
    shap_values: np.ndarray  # (n_instances, 24)


@dataclass
class BeeswarmTable:
    rows: list
    instance_ids: list


@dataclass
class PerformanceReport:
    mae: float
    rmae: float
    smape: float
    rmse: float
    n_observations: int


@dataclass
class ComplexityReport:
    non_linearity: float
    non_homogeneity: float
    important_vars_per_hour: float
    threshold: float


def _hourly_blocks(tensor: AttributionTensor):
    """Ordered (label, column index array) for groups holding hours 0-23."""
    by_group: dict = {}
    for j, fid in enumerate(tensor.columns):
        hour = getattr(fid, "hour", None)  # the group labels of grouped values have none
        if hour is not None:
            by_group.setdefault(fid.group, {})[hour] = j
    blocks = []
    for label, hours in by_group.items():
        if sorted(hours) == list(range(24)):
            blocks.append((label, np.array([hours[h] for h in range(24)])))
    return blocks


def heatmap(tensor: AttributionTensor, aggregation: str = "mean_abs") -> HeatmapGrid:
    """24x24 blocks per hourly group, aggregated across instances.

    ``mean_abs`` averages magnitudes, ``mean`` keeps signs. Features without
    an hour (day-of-week) have no place on an hour-by-hour map and are
    skipped.
    """
    if aggregation not in HEATMAP_AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    blocks = _hourly_blocks(tensor)
    if not blocks:
        raise EpxaiError("tensor has no full hourly groups to map")
    if tensor.n_instances == 0:
        raise EpxaiError(f"cannot take {aggregation} over zero instances")
    if aggregation == "mean_abs":
        source = np.abs(tensor.values).mean(axis=0)
    else:
        source = tensor.values.mean(axis=0)

    values = np.stack([source[:, cols] for _, cols in blocks])
    return HeatmapGrid(
        aggregation=aggregation,
        blocks=tuple(label for label, _ in blocks),
        values=values,
    )


def hourly_importance(sshap: AttributionTensor) -> ImportanceTable:
    """Mean absolute grouped value per output hour, across instances."""
    if sshap.n_instances == 0:
        raise EpxaiError("no instances to average")
    return ImportanceTable(
        groups=sshap.columns,
        values=np.abs(sshap.values).mean(axis=0),
    )


def beeswarm_table(
    tensor: AttributionTensor, feature_values: np.ndarray, top_k: int = 20
) -> BeeswarmTable:
    """Top features by mean |value| over instances and output hours.

    Ties rank by feature position, so equal scores never reshuffle between
    runs. Each retained row carries every instance's feature value and its
    24 per-hour attribution values.
    """
    if tensor.n_instances == 0:
        raise EpxaiError("no instances to rank")
    feature_values = np.asarray(feature_values, dtype=np.float64)
    if feature_values.shape != (tensor.n_instances, len(tensor.columns)):
        raise EpxaiError(f"feature_values shape {feature_values.shape} does not match tensor")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    scores = np.abs(tensor.values).mean(axis=(0, 1))
    order = np.lexsort((np.arange(len(scores)), -scores))[:top_k]
    rows = [
        BeeswarmRow(
            feature=tensor.columns[j],
            score=float(scores[j]),
            feature_values=feature_values[:, j].copy(),
            shap_values=tensor.values[:, :, j].copy(),
        )
        for j in order
    ]
    return BeeswarmTable(rows=rows, instance_ids=list(tensor.instance_ids))


def performance_metrics(
    predicted: np.ndarray, actual: np.ndarray, naive_predicted: np.ndarray
) -> PerformanceReport:
    """MAE, relative MAE, symmetric MAPE, and RMSE over flattened hours.

    The relative MAE divides by the naive forecast's MAE on the same rows;
    symmetric MAPE terms with both values zero count as zero error.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    naive_predicted = np.asarray(naive_predicted, dtype=np.float64)
    if predicted.shape != actual.shape or naive_predicted.shape != actual.shape:
        raise EpxaiError(
            f"shapes differ: predicted {predicted.shape}, actual {actual.shape}, "
            f"naive {naive_predicted.shape}"
        )
    if predicted.size == 0:
        raise EpxaiError("no observations")
    for name, arr in (("predicted", predicted), ("actual", actual),
                      ("naive", naive_predicted)):
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{name} contains non-finite values")

    err = np.abs(predicted - actual)
    mae = float(err.mean())
    rmse = float(np.sqrt(np.mean((predicted - actual) ** 2)))
    denom = np.abs(predicted) + np.abs(actual)
    terms = np.where(denom > 0.0, 2.0 * err / np.where(denom > 0.0, denom, 1.0), 0.0)
    smape = float(terms.mean())
    naive_mae = float(np.abs(naive_predicted - actual).mean())
    if naive_mae == 0.0:
        raise EpxaiError("naive forecast is perfect; relative MAE undefined")
    return PerformanceReport(
        mae=mae,
        rmae=mae / naive_mae,
        smape=smape,
        rmse=rmse,
        n_observations=int(predicted.size),
    )


def _population_std_exact_zero(values: np.ndarray) -> np.ndarray:
    """Across-instance std per entry; exactly 0.0 for constant entries.

    Centring on the first instance makes identical entries subtract to
    bitwise zero before any averaging, so a linear model (whose Jacobian
    does not depend on the instance) reports exactly zero spread instead
    of accumulated rounding noise.
    """
    centred = values - values[0]
    mean = centred.mean(axis=0)
    return np.sqrt(((centred - mean) ** 2).mean(axis=0))


def complexity_metrics(
    grad_tensor: AttributionTensor, shap_grid: HeatmapGrid, threshold: float = 0.5
) -> ComplexityReport:
    """Model complexity summary.

    Non-linearity: mean across-instance standard deviation of the Jacobian
    entries (zero exactly for a linear model). Non-homogeneity: mean
    absolute difference between horizontally and vertically neighbouring
    cells inside each heatmap block. Important variables per hour: heatmap
    cells above ``threshold``, divided by 24.
    """
    if grad_tensor.baseline is not None:
        raise ValueError("need a gradient tensor, got Shapley values with a baseline")
    if grad_tensor.n_instances < 2:
        raise DataError("non-linearity needs at least 2 instances")
    non_linearity = float(_population_std_exact_zero(grad_tensor.values).mean())

    blocks = shap_grid.values
    horizontal = np.abs(blocks[:, :, 1:] - blocks[:, :, :-1])
    vertical = np.abs(blocks[:, 1:, :] - blocks[:, :-1, :])
    non_homogeneity = float(
        (horizontal.sum() + vertical.sum()) / (horizontal.size + vertical.size)
    )
    important = float(np.count_nonzero(blocks > threshold) / 24.0)
    return ComplexityReport(
        non_linearity=non_linearity,
        non_homogeneity=non_homogeneity,
        important_vars_per_hour=important,
        threshold=float(threshold),
    )
