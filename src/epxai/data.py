"""Hourly market series as arrays, feature construction, and scaling.

The market CSV is parsed, repaired and written by :mod:`epxai.marketcsv`;
:func:`parse_market_csv` turns its first hour and columns into an
:class:`HourlySeries`. :func:`build_feature_matrix` is the one place that
cuts the hours into delivery days (midnight-aligned blocks of 24 hours).
Model inputs are built per delivery day: for each super-variable (a series
at a fixed day lag) the 24 hourly values of the lagged day, plus optionally
a day-of-week integer. Targets are the 24 prices of the delivery day
itself, and the naive forecast behind the relative MAE is the 24 prices of
the day before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .marketcsv import parse_hours
from .markets import SCALER_KINDS, SOURCES, FeatureId, MarketConfig

__all__ = [
    "HourlySeries",
    "FeatureMatrix",
    "ScalerParams",
    "parse_market_csv",
    "build_feature_matrix",
    "fit_scaler",
    "transform",
    "inverse_transform",
]


# 1970-01-01 (day zero of the epoch) was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3


@dataclass(frozen=True)
class HourlySeries:
    """Price plus two exogenous series, one value per hour from ``start`` on."""

    market_id: str
    start: int  # first hour, in hours since 1970-01-01 00:00
    price: np.ndarray
    exog1: np.ndarray
    exog2: np.ndarray

    def __post_init__(self):
        n = len(self.price)
        if n == 0:
            raise DataError("series has no rows")
        for name in SOURCES:
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name} has {len(arr)} values, price has {n}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{name} contains non-finite values")

    @property
    def n_hours(self) -> int:
        return len(self.price)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-day model inputs, targets and naive forecast in raw (unscaled) units."""

    instances: np.ndarray  # datetime64[D], one delivery day per row
    columns: tuple[FeatureId, ...]
    values: np.ndarray  # (n_instances, n_features)
    targets: np.ndarray  # (n_instances, 24) delivery-day prices
    naive: np.ndarray  # (n_instances, 24) prices of the day before

    def __post_init__(self):
        if self.values.shape != (len(self.instances), len(self.columns)):
            raise ValueError("values shape does not match instances/columns")
        if not self.targets.shape == self.naive.shape == (len(self.instances), 24):
            raise ValueError("targets and naive must be (n_instances, 24)")

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
    return HourlySeries(market_id, start, *(np.array(column) for column in columns))


def build_feature_matrix(series: HourlySeries, config: MarketConfig) -> FeatureMatrix:
    """Lay out per-day inputs (lagged 24-hour blocks), targets and naive forecast.

    Delivery days are the series' midnight-aligned full days; leading and
    trailing partial days are dropped. The first usable delivery day has
    ``max(config.max_day_lag, 1)`` full days of history before it: a market
    whose inputs are all same-day still skips its first day, so every
    delivery day has the previous day's prices as its naive forecast.
    Raises :class:`DataError` when no delivery day qualifies.
    """
    first = -series.start % 24  # hours before the first midnight
    n_days = max((series.n_hours - first) // 24, 0)
    max_lag = max(config.max_day_lag, 1)
    if n_days <= max_lag:
        raise DataError(
            f"need more than {max_lag} full days (max day_lag, at least 1), have {n_days}"
        )
    days = (series.start + first) // 24 + np.arange(max_lag, n_days)

    def lagged(source: str, day_lag: int) -> np.ndarray:
        """(n_instances, 24) hours of ``source`` on the day ``day_lag`` days before each row."""
        full_days = getattr(series, source)[first : first + n_days * 24].reshape(n_days, 24)
        return full_days[max_lag - day_lag : n_days - day_lag]

    parts = [lagged(sv.source, sv.day_lag) for sv in config.super_variables]
    if config.include_day_of_week:
        parts.append(((days + _EPOCH_WEEKDAY) % 7).astype(np.float64)[:, None])

    return FeatureMatrix(
        instances=days.astype("datetime64[D]"),
        columns=tuple(fid for _, members in config.groups for fid in members),
        values=np.hstack(parts),
        targets=lagged("price", 0).copy(),
        naive=lagged("price", 1).copy(),
    )


def fit_scaler(kind: str, values: np.ndarray) -> ScalerParams:
    """Fit per-column location/scale statistics.

    ``std`` uses mean and population standard deviation; ``median`` and
    ``arcsinh`` use median and median absolute deviation. Columns with zero
    spread get scale 1 so transforms stay defined. Values whose statistics
    overflow the float64 range raise :class:`DataError`.
    """
    if kind not in SCALER_KINDS:
        raise ValueError(f"unknown scaler kind {kind!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a 2-D array of rows x columns")
    if values.shape[0] < 2:
        raise DataError(f"scaler fit needs >= 2 rows, got {values.shape[0]}")
    if not np.all(np.isfinite(values)):
        raise DataError("scaler fit input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        if kind == "std":
            location = values.mean(axis=0)
            scale = values.std(axis=0)
        else:
            location = np.median(values, axis=0)
            scale = np.median(np.abs(values - location), axis=0)
    if not (np.isfinite(location).all() and np.isfinite(scale).all()):
        raise DataError(f"{kind} scaler fit overflows: a column's location or scale is not finite")
    scale = np.where(scale == 0.0, 1.0, scale)
    return ScalerParams(kind=kind, location=location, scale=scale)


def _check_columns(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    n_cols = values.shape[-1] if values.ndim else 0
    if values.ndim not in (1, 2) or n_cols != params.n_columns:
        raise DataError(f"expected {params.n_columns} columns, got shape {values.shape}")
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
