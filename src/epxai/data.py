"""Hourly market series as arrays, feature construction, and scaling.

The market CSV is parsed, repaired and written by :mod:`epxai.marketcsv`;
:func:`parse_market_csv` turns its columns into :class:`HourlySeries`
arrays. Model inputs are built per delivery day: for each super-variable
(a series at a fixed day lag) the 24 hourly values of the lagged day, plus
optionally a day-of-week integer. Targets are the 24 prices of the
delivery day itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marketcsv import DataError, EmptyInput, NonHourlyCadence, parse_hours
from .markets import SCALER_KINDS, FeatureId, MarketConfig

__all__ = [
    "InsufficientHistory",
    "TooFewRows",
    "DimensionMismatch",
    "NonFiniteInput",
    "HourlySeries",
    "FeatureMatrix",
    "ScalerParams",
    "parse_market_csv",
    "build_feature_matrix",
    "fit_scaler",
    "transform",
    "inverse_transform",
]


class InsufficientHistory(DataError):
    """Not enough leading days to satisfy the largest configured day lag."""


class TooFewRows(DataError):
    """Scaler fitting needs at least two rows."""


class DimensionMismatch(DataError):
    """Transform called with a different column count than the fit."""


class NonFiniteInput(DataError):
    """NaN or infinity where a finite value is required."""


# 1970-01-01 (day zero of the epoch) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3


@dataclass(frozen=True)
class HourlySeries:
    """Contiguous hourly market data: price plus two exogenous series."""

    market_id: str
    timestamps: np.ndarray  # datetime64[h], strictly contiguous
    price: np.ndarray
    exog1: np.ndarray
    exog2: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        if n == 0:
            raise EmptyInput("series has no rows")
        for name in ("price", "exog1", "exog2"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != {n} timestamps")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteInput(f"{name} contains non-finite values")
        hours = self.timestamps.astype("datetime64[h]").astype(np.int64)
        if n > 1 and not np.all(np.diff(hours) == 1):
            raise NonHourlyCadence("timestamps are not contiguous hourly")

    @property
    def n_hours(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-day model inputs and targets in raw (unscaled) units."""

    market_id: str
    instances: np.ndarray  # datetime64[D], one delivery day per row
    columns: tuple[FeatureId, ...]
    values: np.ndarray  # (n_instances, n_features)
    targets: np.ndarray  # (n_instances, 24) delivery-day prices

    def __post_init__(self):
        if self.values.shape != (len(self.instances), len(self.columns)):
            raise ValueError("values shape does not match instances/columns")
        if self.targets.shape != (len(self.instances), 24):
            raise ValueError("targets must be (n_instances, 24)")

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def instance_ids(self) -> list[str]:
        return [str(d) for d in self.instances]


@dataclass(frozen=True)
class ScalerParams:
    """Fitted per-column location/scale, tied to one scaler kind."""

    kind: str
    location: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ValueError(f"unknown scaler kind {self.kind!r}")
        if self.location.shape != self.scale.shape or self.location.ndim != 1:
            raise ValueError("location and scale must be 1-D and equally long")
        # fit_scaler writes nothing else, and transform divides by the scale
        if not (np.isfinite(self.location).all() and np.isfinite(self.scale).all()
                and (self.scale > 0.0).all()):
            raise ValueError("scaler locations must be finite and its scales finite and positive")

    @property
    def n_columns(self) -> int:
        return len(self.location)


def parse_market_csv(raw_text: str, market_id: str) -> HourlySeries:
    """Parse and repair a market CSV (see :func:`epxai.marketcsv.parse_hours`)."""
    start, *columns = parse_hours(raw_text)
    stamps = np.arange(start, start + len(columns[0])).astype("datetime64[h]")
    return HourlySeries(market_id, stamps, *(np.array(column) for column in columns))


def _delivery_days(series: HourlySeries):
    """The series' midnight-aligned full days.

    Returns their dates (datetime64[D]) and, by column name, a (n_days, 24)
    view of the price and the two exogenous series on those days.
    """
    start = int(-series.timestamps[0].astype(np.int64)) % 24
    n_days = max((series.n_hours - start) // 24, 0)
    stop = start + n_days * 24
    blocks = {
        name: getattr(series, name)[start:stop].reshape(n_days, 24)
        for name in ("price", "exog1", "exog2")
    }
    return series.timestamps[start:stop:24].astype("datetime64[D]"), blocks


def build_feature_matrix(series: HourlySeries, config: MarketConfig) -> FeatureMatrix:
    """Lay out per-day inputs (lagged 24-hour blocks) and 24-hour targets.

    The first usable delivery day is the first midnight-aligned day with
    ``max(config.max_day_lag, 1)`` full days of history before it: a market
    whose inputs are all same-day still skips its first day, so every
    delivery day has the previous day's prices behind the naive forecast.
    Raises :class:`InsufficientHistory` when no delivery day qualifies.
    """
    day_stamps, day_blocks = _delivery_days(series)
    max_lag = max(config.max_day_lag, 1)
    n_inst = len(day_stamps) - max_lag
    if n_inst <= 0:
        raise InsufficientHistory(
            f"need more than {max_lag} full days (max day_lag, at least 1), have {len(day_stamps)}"
        )

    parts: list[np.ndarray] = []
    for sv in config.super_variables:
        offset = max_lag - sv.day_lag
        parts.append(day_blocks[sv.source][offset : offset + n_inst])
    if config.include_day_of_week:
        day_index = day_stamps[max_lag:].astype(np.int64)
        weekday = ((day_index + _EPOCH_WEEKDAY) % 7).astype(np.float64)
        parts.append(weekday[:, None])

    return FeatureMatrix(
        market_id=config.market_id,
        instances=day_stamps[max_lag:],
        columns=tuple(fid for _, members in config.groups for fid in members),
        values=np.hstack(parts),
        targets=day_blocks["price"][max_lag:].copy(),
    )


def fit_scaler(kind: str, values: np.ndarray) -> ScalerParams:
    """Fit per-column location/scale statistics.

    ``std`` uses mean and population standard deviation; ``median`` and
    ``arcsinh`` use median and median absolute deviation. Columns with zero
    spread get scale 1 so transforms stay defined.
    """
    if kind not in SCALER_KINDS:
        raise ValueError(f"unknown scaler kind {kind!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a 2-D array of rows x columns")
    if values.shape[0] < 2:
        raise TooFewRows(f"scaler fit needs >= 2 rows, got {values.shape[0]}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteInput("scaler fit input contains non-finite values")
    if kind == "std":
        location = values.mean(axis=0)
        scale = values.std(axis=0)
    else:
        location = np.median(values, axis=0)
        scale = np.median(np.abs(values - location), axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return ScalerParams(kind=kind, location=location, scale=scale)


def _check_columns(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    n_cols = values.shape[-1] if values.ndim else 0
    if values.ndim not in (1, 2) or n_cols != params.n_columns:
        raise DimensionMismatch(
            f"expected {params.n_columns} columns, got shape {values.shape}"
        )
    return values


def transform(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    """Map raw values to normalized units (rows or a single row)."""
    values = _check_columns(params, values)
    centred = (values - params.location) / params.scale
    if params.kind == "arcsinh":
        return np.arcsinh(centred)
    return centred


def inverse_transform(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`transform`."""
    values = _check_columns(params, values)
    if params.kind == "arcsinh":
        values = np.sinh(values)
    return values * params.scale + params.location
