"""The package's exception families and its config value checkers.

Each family is one row of the README's exit-code table: a failure raises
the family whose exit code it ends with, and its message names the
condition. The CLI prints ``error: <exit_code>: <message>`` for any of
them.

The ``check_*`` functions validate one value read from a JSON config and
return it; a bad value raises ``ValueError`` naming the key, which the
config layer reports as a configuration error.
"""

import math

# The reference series of the figures, written in the group column of
# tables/lines.csv and the instance-stack CSVs; no group label may take them.
REFERENCE_SERIES = ("price_minus_baseline", "forecast_minus_baseline")


class EpxaiError(Exception):
    """Base of every family; raised itself for failures that exit 1."""

    exit_code = 1


class ConfigError(EpxaiError):
    """Bad usage or run configuration."""

    exit_code = 2


class DataError(EpxaiError):
    """Input data that is missing, malformed or unusable for the operation."""

    exit_code = 3


class DivergedLoss(EpxaiError):
    """Training or validation loss became non-finite."""

    exit_code = 4


class ModelError(EpxaiError):
    """A model that is missing, unreadable, incomplete or not the configured one."""

    exit_code = 5


class IncompleteRun(EpxaiError):
    """A run file that is missing, unreadable or not the one the run recorded."""

    exit_code = 6


def check_object(value, where: str, allowed) -> dict:
    """``value`` itself, if it is a mapping with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    return value


def check_int(value, name: str, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"'{name}' must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"'{name}' must be <= {hi}, got {value}")
    return value


def check_float(value, name: str, lo=None, lo_open=False, below=None) -> float:
    """A finite number >= ``lo`` (> with ``lo_open``) and < ``below``, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    # JSON reads NaN, Infinity and -Infinity, and NaN fails every comparison
    if not math.isfinite(value):
        raise ValueError(f"'{name}' must be a finite number, got {value}")
    if lo is not None and (value <= lo if lo_open else value < lo):
        op = ">" if lo_open else ">="
        raise ValueError(f"'{name}' must be {op} {lo}, got {value}")
    if below is not None and value >= below:
        raise ValueError(f"'{name}' must be < {below}, got {value}")
    return value


def check_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"'{name}' must be true or false, got {value!r}")
    return value


def check_str(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"'{name}' must be a non-empty string, got {value!r}")
    return value


def check_label(value, name: str) -> str:
    """A group label: a non-empty string that fits one unquoted CSV field and
    one double-quoted XML attribute, so no comma, double quote or line break,
    and is not one of the :data:`REFERENCE_SERIES`."""
    value = check_str(value, name)
    if any(c in value for c in ',"\r\n'):
        raise ValueError(
            f"'{name}' must not contain a comma, a double quote or a line break, got {value!r}"
        )
    if value in REFERENCE_SERIES:
        raise ValueError(f"'{name}' must not be a reference series name, got {value!r}")
    return value


def check_choice(value, name: str, choices) -> str:
    if value not in choices:
        raise ValueError(f"'{name}' must be one of {sorted(choices)}, got {value!r}")
    return value
