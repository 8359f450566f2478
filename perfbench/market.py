"""Seeded synthetic market CSV in the four-column layout ``epxai`` ingests.

The benchmark owns this generator so that edits to the test fixtures never
shift its numbers. Price is driven by load, wind and a daily shape, like the
test fixture's market. Each year also gets the clock artefacts real market
files carry, so the repair paths of ``parse_market_csv`` run: a repeated
02:00 hour on the last Sunday of October, a missing 02:00 hour on the last
Sunday of March, and a few ``NA`` cells.
"""

from __future__ import annotations

import datetime

import numpy as np

START = datetime.date(2013, 1, 1)
NA_CELLS = 8


def _last_sunday(year: int, month: int) -> datetime.date:
    day = datetime.date(year, month + 1, 1) - datetime.timedelta(days=1)
    return day - datetime.timedelta(days=(day.weekday() + 1) % 7)


def market_csv(n_days: int, seed: int) -> str:
    """CSV text of ``n_days`` local-clock days of hourly data from ``seed``."""
    rng = np.random.default_rng([seed, 20130101])
    n = n_days * 24
    hours = np.arange(n)
    hod = hours % 24
    day = hours // 24
    weekday = (day + START.weekday()) % 7

    load = (
        100.0
        + 20.0 * np.sin(2 * np.pi * (hod - 8) / 24)
        + 6.0 * (weekday < 5)
        + 8.0 * np.cos(2 * np.pi * day / 365.25)
        + np.repeat(rng.normal(0.0, 3.0, n_days), 24)
        + rng.normal(0.0, 1.0, n)
    )
    wind = (
        50.0
        + 15.0 * np.sin(2 * np.pi * day / 14)
        + np.repeat(rng.normal(0.0, 5.0, n_days), 24)
        + rng.normal(0.0, 4.0, n)
    )
    price = (
        5.0
        + 0.45 * load
        - 0.25 * wind
        + 4.0 * np.sin(2 * np.pi * (hod - 18) / 24)
        + np.repeat(rng.normal(0.0, 2.0, n_days), 24)
        + rng.normal(0.0, 1.0, n)
    )
    cells = np.column_stack([price, load, wind])
    text = np.char.mod("%.6f", cells)
    na_rows = rng.choice(np.arange(48, n - 48), size=NA_CELLS, replace=False)
    text[na_rows, rng.integers(0, 3, NA_CELLS)] = "NA"

    last = START + datetime.timedelta(days=n_days - 1)
    spring = {_last_sunday(y, 3) for y in range(START.year, last.year + 1)}
    fall = {_last_sunday(y, 10) for y in range(START.year, last.year + 1)}
    lines = ["timestamp,price,exog1,exog2"]
    for d in range(n_days):
        date = START + datetime.timedelta(days=d)
        for h in range(24):
            if h == 2 and date in spring:
                continue
            i = d * 24 + h
            row = f"{date} {h:02d}:00:00,{text[i, 0]},{text[i, 1]},{text[i, 2]}"
            lines.append(row)
            if h == 2 and date in fall:
                repeat = np.char.mod("%.6f", cells[i] + rng.normal(0.0, 0.5, 3))
                lines.append(f"{date} 02:00:00,{repeat[0]},{repeat[1]},{repeat[2]}")
    return "\n".join(lines) + "\n"
