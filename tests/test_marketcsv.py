"""Market CSV layer: the stdlib repair equals the numpy repair it replaced, bit for bit."""

import csv
import io
import math
from datetime import datetime

import numpy as np
import pytest

from epxai.data import HourlySeries, parse_market_csv
from epxai.marketcsv import EmptyInput, MalformedRow, hours_csv, parse_hours
from epxai.markets import SOURCES

HEADER = "timestamp,price,exog1,exog2"


def _reference_series(text: str) -> HourlySeries:
    """The numpy parse and repair that parse_market_csv ran before the stdlib one.

    Reads only well-formed rows: a header, timestamps on the hour, and
    numbers or ``NA`` in the cells.
    """
    hours, cells = [], []
    for fields in csv.reader(io.StringIO(text)):
        if fields == HEADER.split(","):
            continue
        ts = datetime.fromisoformat(fields[0])
        hours.append((ts.toordinal() - 719163) * 24 + ts.hour)
        cells += (math.nan if v == "NA" else float(v) for v in fields[1:])
    raw = np.array(cells, dtype=np.float64).reshape(-1, 3)
    uniq, inverse = np.unique(np.array(hours, dtype=np.int64), return_inverse=True)
    summed = np.zeros((len(uniq), 3))
    mask = np.zeros((len(uniq), 3))
    finite = np.isfinite(raw)
    np.add.at(summed, inverse, np.where(finite, raw, 0.0))
    np.add.at(mask, inverse, finite.astype(np.float64))
    with np.errstate(invalid="ignore"):
        values = np.where(mask > 0, summed / np.where(mask > 0, mask, 1.0), np.nan)
    full = np.arange(uniq[0], uniq[-1] + 1)
    grid = np.full((len(full), 3), np.nan)
    grid[uniq - uniq[0]] = values
    for c in range(3):
        col = grid[:, c]
        known = np.isfinite(col)
        if not np.any(known):
            raise EmptyInput(f"column {SOURCES[c]} has no usable values")
        grid[:, c] = np.interp(np.arange(len(full)), np.flatnonzero(known), col[known])
    return HourlySeries("DE", int(full[0]), grid[:, 0], grid[:, 1], grid[:, 2])


def _reference_csv(series: HourlySeries) -> str:
    """The numpy ``dataset.csv`` writer that ran before the stdlib one."""
    hours = np.datetime64(series.start, "h") + np.arange(series.n_hours)
    stamps = np.datetime_as_string(hours.astype("datetime64[s]"))
    rows = zip(
        stamps.tolist(), series.price.tolist(), series.exog1.tolist(), series.exog2.tolist()
    )
    return HEADER + "\n" + "".join(
        f"{stamp.replace('T', ' ')},{price!r},{exog1!r},{exog2!r}\n"
        for stamp, price, exog1, exog2 in rows
    )


def _rows(n_hours: int, seed: int = 0, start: str = "2013-03-30 20:00") -> list:
    """``n_hours`` hourly rows of full-precision random cells."""
    rng = np.random.default_rng(seed)
    t0 = np.datetime64(start.replace(" ", "T"), "h")
    return [
        [str((t0 + i).astype("datetime64[s]")).replace("T", " "),
         *map(repr, rng.normal(50.0, 40.0, 3).tolist())]
        for i in range(n_hours)
    ]


def _text(rows: list) -> str:
    return "\n".join([HEADER, *(",".join(row) for row in rows)]) + "\n"


def _unsorted():
    rows = _rows(72, seed=1)
    np.random.default_rng(2).shuffle(rows)
    return rows


def _repeated_hour_with_na():
    rows = _rows(48, seed=3)
    twin = [rows[26][0], "NA", "17.25", "-3.0000000000000004"]
    return rows[:27] + [twin] + rows[27:]


def _leading_and_trailing_na():
    rows = _rows(48, seed=4)
    for row in rows[:5]:
        row[1] = "NA"
    for row in rows[-7:]:
        row[3] = "NA"
    return rows


def _gap():
    rows = _rows(48, seed=5)
    return rows[:10] + rows[16:]


def _negative_zero():
    rows = _rows(30, seed=6)
    rows[0][1] = rows[4][2] = rows[9][3] = "-0.0"
    rows[12][1:] = ["-0.0", "-0.0", "NA"]
    rows[13][1] = "0.0"
    return rows[:14] + [[rows[4][0], "NA", "-0.0", "-0.0"]] + rows[14:20] + rows[23:]


def _mixed():
    rng = np.random.default_rng(7)
    rows = _rows(24 * 6, seed=8)
    for i, c in zip(rng.integers(0, len(rows), 40), rng.integers(1, 4, 40)):
        rows[i][c] = "NA"
    rows[20][2] = "inf"
    rows += [[rows[i][0], *map(repr, rng.normal(0.0, 1e3, 3).tolist())] for i in (3, 3, 50)]
    del rows[70:75]
    rng.shuffle(rows)
    return rows


CASES = {
    "unsorted": _unsorted,
    "repeated hour with NA in one copy": _repeated_hour_with_na,
    "leading and trailing NA runs": _leading_and_trailing_na,
    "gap of several hours": _gap,
    "negative zero": _negative_zero,
    "single row": lambda: _rows(1, seed=9),
    "mixed": _mixed,
}


@pytest.mark.parametrize("case", list(CASES))
def test_repair_matches_numpy_reference(case):
    text = _text(CASES[case]())
    series = parse_market_csv(text, "DE")
    reference = _reference_series(text)
    assert series.start == reference.start
    for name in SOURCES:
        assert getattr(series, name).tobytes() == getattr(reference, name).tobytes(), name
    assert hours_csv(*parse_hours(text)) == _reference_csv(reference)


def test_all_na_column_is_refused_like_the_reference():
    rows = _rows(6, seed=10)
    for row in rows:
        row[2] = "NA"
    text = _text(rows)
    with pytest.raises(EmptyInput) as reference:
        _reference_series(text)
    with pytest.raises(EmptyInput) as got:
        parse_hours(text)
    assert str(got.value) == str(reference.value) == "column exog1 has no usable values"


def test_crlf_parses_like_lf():
    text = _text(_negative_zero())
    crlf = text.replace("\n", "\r\n")
    start, *columns = parse_hours(crlf)
    lf_start, *lf_columns = parse_hours(text)
    assert start == lf_start
    assert [c.tobytes() for c in columns] == [c.tobytes() for c in lf_columns]


@pytest.mark.parametrize("prefix", ["", "\ufeff"], ids=["plain", "byte-order mark"])
def test_headerless_text_parses_every_row(prefix):
    text = _text(_negative_zero())
    start, *columns = parse_hours(prefix + text.split("\n", 1)[1])
    header_start, *header_columns = parse_hours(prefix + text)
    assert start == header_start
    assert [c.tobytes() for c in columns] == [c.tobytes() for c in header_columns]


def test_unclosed_quote_is_malformed_row():
    # The open quote reads on past csv's 131072-character field limit.
    rows = [",".join(row) for row in _rows(24 * 200, seed=11)]
    rows[59] = '"' + rows[59]
    with pytest.raises(MalformedRow) as exc:
        parse_hours("\n".join([HEADER, *rows]) + "\n")
    assert exc.value.line_number == 61
    assert "field larger than field limit" in str(exc.value)


# Each stamp reads as 2013-01-01 00:00 on every supported Python; an offset is dropped.
ACCEPTED_STAMPS = [
    "2013-01-01 00:00:00", "2013-01-01T00:00:00", "2013-01-01", "2013-01-01T00",
    "2013-01-01 00:00", "2013-01-01 00:00:00.000", "2013-01-01T00:00:00.000000",
    "2013-01-01T00:00:00Z", "2013-01-01T00Z", "2013-01-01T00:00:00.000Z",
    "2013-01-01T00:00:00+01:00", "2013-01-01T00+01:00", "2013-01-01T00:00:00-05:00:00.000000",
]
# From Python 3.11 on datetime.fromisoformat reads most of these; no version may.
# Each is quoted in the CSV, so the comma of one stays in its field.
REFUSED_STAMPS = [
    "20130101T000000", "20130101", "2013-W01-2 00:00", "2013-W01-2", "2013-001",
    "2013-01-01T000000", "2013-01-01T0000", "2013-01-01 00:00:00,000", "2013-01-01 00:00:00.0",
    "2013-01-01T00:00:00+0100", "2013-01-01T00:00:00-01", "2013-01-01x00:00:00",
    "2013-01-01+00:00", "2013-01-01Z", "2013-01-01 00:00:0", "２013-01-01 00:00:00",
]


@pytest.mark.parametrize("stamp", ACCEPTED_STAMPS)
def test_accepted_timestamp_forms(stamp):
    start, *_ = parse_hours(f'{HEADER}\n"{stamp}",1,2,3\n2013-01-01 01:00:00,4,5,6\n')
    assert start == (datetime(2013, 1, 1) - datetime(1970, 1, 1)).days * 24


@pytest.mark.parametrize("stamp", REFUSED_STAMPS)
def test_refused_timestamp_forms(stamp):
    with pytest.raises(MalformedRow) as exc:
        parse_hours(f'{HEADER}\n"{stamp}",1,2,3\n2013-01-01 01:00:00,4,5,6\n')
    assert exc.value.line_number == 2
    assert str(exc.value) == f"line 2: bad timestamp {stamp!r}"
