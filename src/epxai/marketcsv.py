"""Market CSV parsing and repair, and the canonical ``dataset.csv`` text, without numpy.

A market CSV holds one row per hour: timestamp, price and two exogenous
series. Timestamps are naive local clock readings, so daylight-saving
transitions show up as a duplicated hour (fall) or a missing hour (spring);
:func:`parse_hours` repairs both so every day has exactly 24 rows.
"""

from __future__ import annotations

import array
import csv
import datetime
import io
import math
import re

from .errors import EpxaiError
from .markets import SOURCES

__all__ = ["DataError", "MalformedRow", "EmptyInput", "NonHourlyCadence", "parse_hours",
           "hour_stamp", "hours_csv"]


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


_EPOCH_ORDINAL = 719163  # datetime(1970, 1, 1).toordinal()
_NA_TOKENS = {"", "na", "nan", "null", "none"}
_CLOCKS = [f" {clock:02d}:00:00" for clock in range(24)]
# The timestamps read alike on every supported Python: YYYY-MM-DD, optionally
# a space or T, HH[:MM[:SS[.fff[fff]]]] and an offset (+HH:MM[:SS[.ffffff]] or
# Z). From 3.11 on fromisoformat also reads basic, week and basic-time forms
# (20130101, 2013-W01-2, T000000), which the pattern refuses, and Z, which
# 3.10 reads once written +00:00.
_STAMP = re.compile(r"(?a)\d{4}-\d\d-\d\d(?:[ T]\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
                    r"(?:Z|[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?")


def _parse_float(token: str, line_number: int, col: str) -> float:
    token = token.strip()
    if token.lower() in _NA_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise MalformedRow(line_number, f"bad {col} value {token!r}") from None


def _checked(stamp: str) -> str:
    # a stamp of the accepted form, its Z written as Python 3.10 reads it
    stamp = stamp.strip()
    if not _STAMP.fullmatch(stamp):
        raise ValueError(stamp)
    return stamp.replace("Z", "+00:00")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_hours(text: str) -> tuple:
    """The first hour since the epoch of a market CSV, and its repaired columns.

    The price, exog1 and exog2 columns come as ``array("d")`` float lists,
    one value per hour. Rows hold timestamp, price, exog1 and exog2 under an
    optional header: line 1 is a header when its timestamp does not parse and
    none of its three value cells is a number. A leading byte-order mark is
    dropped. Repeated hours are averaged, and gaps and missing cells
    filled by linear interpolation. Raises :class:`MalformedRow` (with line
    number) on rows that cannot be parsed, :class:`EmptyInput` when no data
    rows exist, and :class:`NonHourlyCadence` on a timestamp off the hour.
    """
    hours, cells = [], []
    # newline=None reads \r\n and \r line ends as \n, as text-mode files do
    # a byte-order mark would hide the first timestamp of a header-less file
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=None))
    line_number = 0
    # bound once, as the loop below runs once per hour of data
    fromisoformat, add_hour = datetime.datetime.fromisoformat, hours.append
    try:
        for fields in reader:
            line_number = reader.line_num
            # most rows pass this one test; others may be blank or not 4 columns wide
            if len(fields) != 4 or not fields[0].strip():
                if not "".join(fields).strip():
                    continue
                if len(fields) != 4:
                    raise MalformedRow(line_number, f"expected 4 columns, got {len(fields)}")
            stamp, price, exog1, exog2 = fields
            try:
                # a stamp with these at 4, 7, 10, 13 and 16 parses only as
                # YYYY-MM-DD HH:MM:SS or YYYY-MM-DDTHH:MM:SS: most skip the pattern
                ts = fromisoformat(stamp if stamp[4::3] in {"-- ::", "--T::"} else _checked(stamp))
            except ValueError:
                if line_number == 1 and not any(map(_is_number, (price, exog1, exog2))):
                    continue  # header row
                raise MalformedRow(line_number, f"bad timestamp {stamp.strip()!r}") from None
            if ts.minute or ts.second or ts.microsecond:
                raise NonHourlyCadence(
                    f"line {line_number}: {ts.replace(tzinfo=None)} is not on the hour"
                )
            # Hours since the epoch from the clock fields alone: an offset is
            # dropped, so the series is treated as local clock time.
            add_hour((ts.toordinal() - _EPOCH_ORDINAL) * 24 + ts.hour)
            try:
                cells += (float(price), float(exog1), float(exog2))
            except ValueError:
                cells += (
                    _parse_float(price, line_number, "price"),
                    _parse_float(exog1, line_number, "exog1"),
                    _parse_float(exog2, line_number, "exog2"),
                )
    except csv.Error as exc:
        # an unclosed quote reads on until the field outgrows csv's size
        # limit: name the line the record starts on and the one it reached
        reason = f"unreadable record: {exc}, read on to line {reader.line_num}"
        raise MalformedRow(line_number + 1, reason) from None
    if not hours:
        raise EmptyInput("no data rows in CSV")

    # arrays hold no number objects: the parse's floats and ints are all
    # freed here at once, so none outlives the parse scattered over the heap
    cells = array.array("d", cells)
    n_rows, start = len(hours), min(hours)
    # each slot's last row, n_rows for a missing hour; the slots that several
    # rows carry (a fall transition repeats one hour), with their rows in order
    row_of = [n_rows] * (max(hours) - start + 1)
    repeated = {}
    for row, hour in enumerate(hours):
        slot = hour - start
        if row_of[slot] < n_rows:
            repeated.setdefault(slot, [row_of[slot]]).append(row)
        row_of[slot] = row
    del hours
    columns = []
    for c, source in enumerate(SOURCES):
        values = cells[c::3]
        values.append(math.nan)  # what row n_rows, a missing hour, reads
        # a non-finite cell is a hole, and -0.0 reads 0.0: the mean of a
        # repeated hour sums its finite cells in input order from +0.0
        grid = [v if v - v == 0.0 and v else 0.0 if v == 0.0 else math.nan
                for v in map(values.__getitem__, row_of)]
        for slot, rows in repeated.items():
            total, count = 0.0, 0
            for row in rows:
                if math.isfinite(values[row]):
                    total += values[row]
                    count += 1
            grid[slot] = total / count if count else math.nan
        columns.append(array.array("d", _interpolate(grid, source)))
    return start, *columns


def _interpolate(grid: list, source: str) -> list:
    """Fill the NaN holes of ``grid`` from its known slots as ``np.interp`` does.

    Every known value is finite, so np.interp's NaN fallbacks never apply;
    an interpolation that overflows is refused.
    """
    n = len(grid)
    holes = [x for x, v in enumerate(grid) if v != v]
    if len(holes) == n:
        raise EmptyInput(f"column {source} has no usable values")
    a = b = -1
    for x in holes:
        if x > b:  # x opens a run of holes, from known slot a to known slot b
            a, b = x - 1, x + 1
            while b < n and grid[b] != grid[b]:
                b += 1
        if a < 0 or b == n:  # before the first or after the last known slot
            grid[x] = grid[a if a >= 0 else b]
        else:
            slope = (grid[b] - grid[a]) / (b - a)
            grid[x] = slope * (x - a) + grid[a]
            if not math.isfinite(grid[x]):
                raise DataError(f"column {source} interpolates to a non-finite value")
    return grid


def hour_stamp(hour: int) -> str:
    """The ``YYYY-MM-DD HH:00:00`` clock reading of ``hour`` hours since the epoch."""
    day, clock = divmod(hour, 24)
    return f"{datetime.date.fromordinal(_EPOCH_ORDINAL + day)} {clock:02d}:00:00"


def hours_csv(start: int, price, exog1, exog2) -> str:
    """Canonical CSV text of an hourly series that begins at hour ``start``."""
    days = range(start // 24, (start + len(price) - 1) // 24 + 1)
    dates = [datetime.date.fromordinal(_EPOCH_ORDINAL + day).isoformat() for day in days]
    stamps = [date + clock for date in dates for clock in _CLOCKS][start % 24:]
    return "timestamp,price,exog1,exog2\n" + "".join(
        map("{},{!r},{!r},{!r}\n".format, stamps, price, exog1, exog2)
    )
