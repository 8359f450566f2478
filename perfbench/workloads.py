"""Workload definitions, set-up, the CLI runner and the correctness checks.

Every workload runs the real ``epxai`` command line as child processes with
``--threads 1``, one command at a time (a closed loop with one client).
Shapes follow the benchmark markets; instance and epoch counts are scaled
so that one pass of the pipeline takes a few seconds on a 2-core machine.
Training always sets ``early_stop_patience`` above ``max_epochs``, so the
epoch count does not depend on the data.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from market import START, market_csv

STAGES = ("validate", "ingest", "train", "explain", "report")
COMMAND_TIMEOUT_S = 120.0
EFFICIENCY_TOLERANCE = 1e-9
FOUR_YEARS = 1461


def _epochs(n: int) -> dict:
    return {"max_epochs": n, "early_stop_patience": n + 1}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a market shape and the run config laid over it."""

    market_id: str
    config: dict


WORKLOADS = {
    # The paper's hot path: Monte Carlo walks through the NP network.
    "np-explain": Workload(
        market_id="NP",
        config={
            "training": _epochs(10),
            "attribution": {"max_instances": 4, "n_pairs": 64},
        },
    ),
    # selu and arcsinh scalers, L1 and dropout: no softplus anywhere. Many
    # cheap instances with extra partitions and an instance figure, so
    # explain is bound by tables and figures, not by the model.
    "pjm-tables": Workload(
        market_id="PJM",
        config={
            "training": _epochs(12),
            "attribution": {"max_instances": 48, "n_pairs": 1, "antithetic": False},
            "partition": {
                "splits": [{"group": "Price D-1", "hour": 12}],
                "merges": [
                    {"label": "PJM Load", "members": ["PJM Load Forecast D", "PJM Load Forecast D-1"]}
                ],
            },
            "instance_dates": [str(START + datetime.timedelta(days=400))],
        },
    ),
}


@dataclass
class Checks:
    """Correctness operations; each counts once toward attempted/failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class CommandResult:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Bench:
    """Paths, environment and child-process runner for one workload run."""

    def __init__(self, root: Path, name: str, seed: int):
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.work = root / ".bench_work" / name
        self.config_path = self.work / "config.json"
        self.run_dir = self.work / "run"
        self.checks = Checks()
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("EPXAI_") and k != "PYTHONPATH"
        }
        self.env["PYTHONPATH"] = str(root / "src")

    # -- set-up -------------------------------------------------------------

    def config(self) -> dict:
        return {
            "market_id": self.workload.market_id,
            "dataset": "market.csv",
            "out": "run",
            "seed": self.seed,
            **self.workload.config,
        }

    def setup(self) -> float:
        """Write the market CSV and config; returns the seconds it took.

        Every call writes the same bytes, so a run can repeat set-up to time it
        more than once.
        """
        t0 = time.perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        text = market_csv(FOUR_YEARS, self.seed)
        (self.work / "market.csv").write_text(text, encoding="utf-8")
        self.config_path.write_text(json.dumps(self.config(), indent=1), encoding="utf-8")
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        """Import the package once so byte-code compilation is not timed."""
        result = self.command(["-c", "import epxai.pipeline, epxai.oracle"])
        if result.returncode != 0:
            raise RuntimeError(f"cannot import epxai from src/: {result.stderr.strip()}")

    # -- child processes ----------------------------------------------------

    def command(self, args: list) -> CommandResult:
        """Run ``python <args>`` to completion; wall time and ``ru_maxrss`` via wait4."""
        argv = [sys.executable, *args]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandResult(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, stage: str) -> CommandResult:
        args = ["-m", "epxai.cli", stage, "--config", str(self.config_path), "--threads", "1"]
        result = self.command(args)
        ok = result.returncode == 0 and result.stderr == ""
        self.checks.record(ok, f"epxai {stage} exit {result.returncode}: {result.stderr.strip()[:300]}")
        return result

    def pipeline(self) -> dict:
        """One pass of every command the workload issues, in a fresh run directory."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        results = {}
        for stage in STAGES:
            result = results[stage] = self.cli(stage)
            if result.returncode != 0:
                raise RuntimeError(f"epxai {stage} failed: {result.stderr.strip()}")
        return results

    def manifest(self) -> dict:
        return json.loads((self.run_dir / "manifest.json").read_text(encoding="utf-8"))

    def report(self) -> dict:
        return json.loads((self.run_dir / "report.json").read_text(encoding="utf-8"))


def output_hashes(manifest: dict) -> dict:
    """Per-stage output hashes; the manifest's only fields that must repeat."""
    return {stage: rec.get("outputs", {}) for stage, rec in manifest["stages"].items()}


def tree_bytes(path: Path, pattern: str = "**/*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def efficiency_gap(bench: Bench):
    """Max relative |sum(phi) - (prediction - baseline)| over explained cells.

    Recomputed from the written artefacts through the public API only:
    ``tables/shap.csv``, ``model.json`` and the baseline in ``report.json``.
    Returns ``(gap, features, model)`` so callers can reuse the parse.
    """
    from epxai import build_feature_matrix, load_model, market_config, parse_market_csv, predict_prices
    import numpy as np

    model = load_model((bench.run_dir / "model.json").read_text(encoding="utf-8"))
    baseline = np.asarray(bench.report()["explain"]["baseline"], dtype=np.float64)
    text = (bench.work / "market.csv").read_text(encoding="utf-8")
    features = build_feature_matrix(
        parse_market_csv(text, bench.workload.market_id),
        market_config(bench.workload.market_id),
    )
    sums: dict = {}
    with open(bench.run_dir / "tables" / "shap.csv", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            instance, hour, _, _, value = line.rsplit(",", 4)
            key = (instance, int(hour))
            sums[key] = sums.get(key, 0.0) + float(value)
    ids = sorted({instance for instance, _ in sums})
    row_of = {d: i for i, d in enumerate(features.instance_ids())}
    phi = np.array([[sums[(d, h)] for h in range(24)] for d in ids])
    target = predict_prices(model, features.values[[row_of[d] for d in ids]]) - baseline
    gap = float(np.max(np.abs(phi - target) / np.maximum(np.abs(target), 1.0)))
    return gap, features, model


def op_counts(bench: Bench, model, report: dict) -> dict:
    """Deterministic work counts of one pass; they repeat exactly for a seed."""
    n_f, h1, h2, n_out = model.spec.layer_sizes
    explain = report["explain"]
    rows = explain["n_pairs"] * (n_f + 1) * (2 if explain["antithetic"] else 1)
    observations = explain["n_instances_explained"] * 24
    return {
        "instances": explain["n_instances_explained"],
        "forward_rows_per_instance": rows,
        "forward_flop_per_instance": 2 * rows * (n_f * h1 + h1 * h2 + h2 * n_out),
        "kernel_line_cells": report["config"]["lines"]["grid_size"]
        * observations * len(explain["partitions"]["default"]),
        "csv_bytes": tree_bytes(bench.run_dir / "tables", "*.csv"),
        "svg_bytes": tree_bytes(bench.run_dir / "figures", "*.svg"),
    }


def median(values) -> float:
    return float(statistics.median(values))
