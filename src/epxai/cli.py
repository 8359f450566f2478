"""Command-line entry point.

This module stays free of numpy so thread caps can be applied to the
process environment before any numerical library starts its thread pool.
The heavy imports happen inside :func:`main` once the caps are set.

Every failure prints one ``error: <code>: <message>`` line on stderr; the
README's "Exit codes" section lists the codes.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures match the CLI's error-line format."""

    def error(self, message):
        print(f"error: 2: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_common(sub, config_required: bool = True) -> None:
    sub.add_argument(
        "--config", metavar="PATH", required=config_required,
        help="JSON run config file",
    )
    sub.add_argument(
        "--out", metavar="DIR", default=None,
        help="run output directory (default: the config's out)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="epxai",
        description=(
            "Train day-ahead electricity price forecasters and explain them "
            "with Shapley values and gradients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a config file and echo its resolved form")
    _add_common(p)

    p = sub.add_parser("ingest", help="parse the dataset and write the cleaned hourly table")
    _add_common(p)

    p = sub.add_parser("train", help="train the forecaster and write model + metrics")
    _add_common(p)

    p = sub.add_parser("explain", help="attribute forecasts and write figures + tables")
    _add_common(p)
    p.add_argument(
        "--model", metavar="PATH", default=None,
        help="model file to explain (default: <out>/model.json)",
    )

    p = sub.add_parser("report", help="assemble summary.md from a finished run directory")
    _add_common(p, config_required=False)

    p = sub.add_parser("oracle", help="run the exact-value reference batteries")
    p.add_argument(
        "--seed", metavar="N", type=int, default=None,
        help="common seed for all batteries (default: per-battery pinned seeds)",
    )
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="also write oracle.json into this directory",
    )
    for p in sub.choices.values():
        p.add_argument(
            "--threads", metavar="N", type=int, default=1,
            help="thread count of every numerical pool (default: 1, whatever the shell exports)",
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads < 1:
        print(f"error: 2: thread count must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    # before numpy loads: every pool gets the one count, and a cap the shell
    # exported does not change the bits of a run
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)

    from .pipeline import dispatch

    return dispatch(args)


if __name__ == "__main__":
    raise SystemExit(main())
