"""Market data loading, repair, feature construction, and scaling.

A market CSV holds one row per hour with four columns: timestamp, price,
and two exogenous series (day-ahead forecasts of load, generation, wind,
or a neighbouring zone's load, depending on the market). Timestamps are
naive local clock readings, so daylight-saving transitions show up as a
duplicated hour (fall) or a missing hour (spring). :func:`parse_market_csv`
repairs both so every day has exactly 24 rows.

Model inputs are built per delivery day: for each configured super-variable
(a named series at a fixed day lag) the 24 hourly values of the lagged day,
plus optionally a single day-of-week integer. Targets are the 24 prices of
the delivery day itself.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import EpxaiError
from .markets import SCALER_KINDS, SOURCES, FeatureId, MarketConfig

__all__ = [
    "DataError",
    "MalformedRow",
    "EmptyInput",
    "NonHourlyCadence",
    "InsufficientHistory",
    "TooFewRows",
    "DimensionMismatch",
    "NonFiniteInput",
    "HourlySeries",
    "FeatureMatrix",
    "ScalerParams",
    "parse_market_csv",
    "build_feature_matrix",
    "daily_price_matrix",
    "fit_scaler",
    "transform",
    "inverse_transform",
    "series_to_csv",
]


class DataError(EpxaiError):
    """Base class for data-layer errors."""

    exit_code = 3


class MalformedRow(DataError):
    """A CSV row that cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


class EmptyInput(DataError):
    """No data rows at all."""


class NonHourlyCadence(DataError):
    """Timestamps that do not sit on an hourly grid even after repair."""


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
_EPOCH_ORDINAL = 719163  # datetime(1970, 1, 1).toordinal()


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
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.shape != (len(self.instances), len(self.columns)):
            raise ValueError("values shape does not match instances/columns")
        if self.targets.shape != (len(self.instances), 24):
            raise ValueError("targets must be (n_instances, 24)")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.columns)})

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def column_index(self, feature: FeatureId) -> int:
        try:
            return self._index[feature]
        except KeyError:
            raise KeyError(f"no column {feature}") from None

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

    @property
    def n_columns(self) -> int:
        return len(self.location)


_NA_TOKENS = {"", "na", "nan", "null", "none"}


def _parse_float(token: str, line_number: int, col: str) -> float:
    token = token.strip()
    if token.lower() in _NA_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise MalformedRow(line_number, f"bad {col} value {token!r}") from None


def parse_market_csv(raw_text: str, market_id: str) -> HourlySeries:
    """Parse a market CSV into a repaired, strictly hourly series.

    Expects four columns per row (timestamp, price, exog1, exog2) with an
    optional header. Duplicate timestamps are averaged, gaps and missing
    cells are filled by linear interpolation, so daylight-saving artefacts
    disappear. Raises :class:`MalformedRow` (with line number) on rows that
    cannot be parsed, :class:`EmptyInput` when no data rows exist, and
    :class:`NonHourlyCadence` when a timestamp is off the hourly grid.
    """
    hours: list[int] = []
    cells: list[float] = []
    reader = csv.reader(io.StringIO(raw_text))
    for line_number, fields in enumerate(reader, start=1):
        if not "".join(fields).strip():
            continue
        if len(fields) != 4:
            raise MalformedRow(line_number, f"expected 4 columns, got {len(fields)}")
        stamp, price, exog1, exog2 = fields
        try:
            ts = datetime.fromisoformat(stamp.strip())
        except ValueError:
            if line_number == 1:
                continue  # header row
            raise MalformedRow(line_number, f"bad timestamp {stamp.strip()!r}") from None
        if ts.minute or ts.second or ts.microsecond:
            raise NonHourlyCadence(
                f"line {line_number}: {ts.replace(tzinfo=None)} is not on the hour"
            )
        # Hours since the epoch from the clock fields alone: an offset is
        # dropped, so the series is treated as local clock time.
        hours.append((ts.toordinal() - _EPOCH_ORDINAL) * 24 + ts.hour)
        try:
            cells += (float(price), float(exog1), float(exog2))
        except ValueError:
            cells += (
                _parse_float(price, line_number, "price"),
                _parse_float(exog1, line_number, "exog1"),
                _parse_float(exog2, line_number, "exog2"),
            )
    if not hours:
        raise EmptyInput("no data rows in CSV")

    raw = np.array(cells, dtype=np.float64).reshape(-1, 3)

    # Average duplicated hours (fall transition repeats one local hour); each
    # hour's values are summed in input order.
    uniq, inverse = np.unique(np.array(hours, dtype=np.int64), return_inverse=True)
    summed = np.zeros((len(uniq), 3))
    mask = np.zeros((len(uniq), 3))
    finite = np.isfinite(raw)
    np.add.at(summed, inverse, np.where(finite, raw, 0.0))
    np.add.at(mask, inverse, finite.astype(np.float64))
    with np.errstate(invalid="ignore"):
        values = np.where(mask > 0, summed / np.where(mask > 0, mask, 1.0), np.nan)

    # Reindex onto the full hourly grid and interpolate the holes.
    full = np.arange(uniq[0], uniq[-1] + 1)
    grid = np.full((len(full), 3), np.nan)
    grid[uniq - uniq[0]] = values
    for c in range(3):
        col = grid[:, c]
        known = np.isfinite(col)
        if not np.any(known):
            raise EmptyInput(f"column {SOURCES[c]} has no usable values")
        grid[:, c] = np.interp(np.arange(len(full)), np.flatnonzero(known), col[known])

    return HourlySeries(
        market_id=market_id,
        timestamps=full.astype("datetime64[h]"),
        price=grid[:, 0],
        exog1=grid[:, 1],
        exog2=grid[:, 2],
    )


def series_to_csv(series: HourlySeries) -> str:
    """Render a repaired series back to canonical CSV text."""
    stamps = np.datetime_as_string(series.timestamps.astype("datetime64[s]"))
    rows = zip(
        stamps.tolist(), series.price.tolist(), series.exog1.tolist(), series.exog2.tolist()
    )
    return "timestamp,price,exog1,exog2\n" + "".join(
        f"{stamp.replace('T', ' ')},{price!r},{exog1!r},{exog2!r}\n"
        for stamp, price, exog1, exog2 in rows
    )


def build_feature_matrix(series: HourlySeries, config: MarketConfig) -> FeatureMatrix:
    """Lay out per-day inputs (lagged 24-hour blocks) and 24-hour targets.

    The first usable delivery day is the first midnight-aligned day with
    ``config.max_day_lag`` full days of history before it. Raises
    :class:`InsufficientHistory` when no delivery day qualifies.
    """
    hours = series.timestamps.astype(np.int64)
    start = int((-hours[0]) % 24)  # first midnight-aligned index
    n_days = (series.n_hours - start) // 24
    max_lag = config.max_day_lag
    n_inst = n_days - max_lag
    if n_inst <= 0:
        raise InsufficientHistory(
            f"need more than {max_lag} full days, have {max(n_days, 0)}"
        )

    by_source = {
        "price": series.price,
        "exog1": series.exog1,
        "exog2": series.exog2,
    }
    day_blocks = {
        name: arr[start : start + n_days * 24].reshape(n_days, 24)
        for name, arr in by_source.items()
    }
    day_stamps = series.timestamps[start : start + n_days * 24 : 24].astype(
        "datetime64[D]"
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


def daily_price_matrix(series: HourlySeries) -> tuple[np.ndarray, np.ndarray]:
    """Midnight-aligned full days as (dates, (n_days, 24) price matrix)."""
    hours = series.timestamps.astype(np.int64)
    start = int((-hours[0]) % 24)
    n_days = (series.n_hours - start) // 24
    if n_days < 1:
        raise InsufficientHistory("series holds no full midnight-aligned day")
    dates = series.timestamps[start : start + n_days * 24 : 24].astype("datetime64[D]")
    return dates, series.price[start : start + n_days * 24].reshape(n_days, 24).copy()


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
