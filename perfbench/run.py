"""Benchmark for the epxai pipeline: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload np-explain --seed 1 --seconds 58 --trace 0

``--trace 0`` times the real CLI as child processes and prints the
end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` makes one CLI pass
for start-up cost and reference output hashes, then repeats the pipeline and
the oracle batteries in this process with every layer function wrapped in a
span (see ``tracing.py``), and prints the per-layer metrics. Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details: environment, load average, every command's run times and
deterministic operation counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
PROBE_REPEATS = 3
MIN_PASSES = 3
PROBE_INSTANCES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cli_threads": 1,
    }


def measure(bench, seconds: float, t_start: float):
    """End-to-end metrics from repeated set-up and CLI passes of one seed.

    Passes run back to back until one more pass as long as the longest so far
    would end after ``seconds`` from ``t_start``. Each pass writes the inputs
    afresh (timed as set-up; ``setup_s`` is the median) and then runs every
    command in a fresh run directory. Each stage's time is its slowest run
    over the whole measurement, and ``pipeline_s`` is the slowest pass's
    total over every command the workload issues.

    The slowest run, not a median or mean: on a shared 2-core virtual
    machine each core switches every few seconds between a fast and a ~1.4x
    slower mode, as its neighbours load the host. How much of a minute is
    fast varies from minute to minute, and the median or mean of one run's
    samples slides with it (over ten runs their spread reached 25% of the
    median), while nearly every minute holds slow stretches, so the slowest
    run reads the same contended time run after run.
    """
    from workloads import EFFICIENCY_TOLERANCE, efficiency_gap, median, op_counts, output_hashes, tree_bytes

    bench.setup()
    bench.warm_up()
    setup, samples, cpu, totals, peak_rss, first_hashes, counts = [], {}, {}, [], 0.0, None, None
    passes, longest_pass = 0, 0.0
    while True:
        t_pass = time.perf_counter()
        setup.append(bench.setup())
        results = bench.pipeline()
        longest_pass = max(longest_pass, time.perf_counter() - t_pass)
        passes += 1
        totals.append(sum(result.wall_s for result in results.values()))
        for stage, result in results.items():
            samples.setdefault(stage, []).append(result.wall_s)
            cpu.setdefault(stage, []).append(result.cpu_s)
            peak_rss = max(peak_rss, result.max_rss_mb)
        hashes = output_hashes(bench.manifest())
        if first_hashes is None:
            first_hashes = hashes
            gap, _, model = efficiency_gap(bench)
            bench.checks.record(gap <= EFFICIENCY_TOLERANCE, f"efficiency gap {gap!r}")
            counts = op_counts(bench, model, bench.report()) | {"efficiency_gap": gap}
        else:
            bench.checks.record(hashes == first_hashes, "rerun changed manifest output hashes")
        if passes >= MIN_PASSES and time.perf_counter() - t_start + longest_pass > seconds:
            break
    stage_s = {stage: max(times) for stage, times in samples.items()}
    metrics = {
        "pipeline_s": max(totals),
        "setup_s": median(setup),
        "ingest_s": stage_s["ingest"],
        "train_s": stage_s["train"],
        "explain_s": stage_s["explain"],
        "explain_inst_per_s": counts["instances"] / stage_s["explain"],
        "peak_rss_mb": peak_rss,
        "run_dir_mb": tree_bytes(bench.run_dir) / 1e6,
    }
    details = {"setup_s": setup, "passes": passes, "commands_s": samples, "commands_cpu_s": cpu, "counts": counts}
    return metrics, details


def probes(bench, features, model, report, counts) -> dict:
    """Timed calls on one instance's walk batch, and the estimator's noise."""
    import numpy as np
    from epxai import predict_prices, sample_background, shap_mc, transform

    explain = report["explain"]
    rows = counts["forward_rows_per_instance"]
    rng = np.random.default_rng(bench.seed)
    batch = features.values[rng.integers(0, features.n_instances, rows)]

    def median_time(fn):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    transform_s = median_time(lambda: transform(model.input_scaler, batch))
    predict_s = median_time(lambda: predict_prices(model, batch))

    # The callable path of shap_mc times the predictor from outside; at least
    # two pairs so a standard error exists.
    background = sample_background(features, size=explain["background_size"], seed=bench.seed)
    inside, total, stderr = [], 0.0, []

    def timed_predict(states):
        t0 = time.perf_counter()
        out = predict_prices(model, states)
        inside.append(time.perf_counter() - t0)
        return out

    for k in range(PROBE_INSTANCES):
        t0 = time.perf_counter()
        result = shap_mc(
            timed_predict,
            features.values[(k + 1) * features.n_instances // (PROBE_INSTANCES + 1)],
            background,
            n_pairs=max(explain["n_pairs"], 2),
            seed=k,
            antithetic=explain["antithetic"],
        )
        total += time.perf_counter() - t0
        stderr.append(result.stderr.ravel())
    gflop = counts["forward_flop_per_instance"] / 1e9
    return {
        "data.transform_s": transform_s,
        "mlp.predict_s": predict_s,
        "mlp.forward_rows": rows,
        "mlp.forward_gflop": gflop,
        "mlp.forward_gflops_rate": gflop / predict_s,
        "attribution.walk_rows": rows,
        "attribution.predict_share": sum(inside) / total,
        "attribution.stderr_median": float(np.median(np.concatenate(stderr))),
    }


def measure_traced(bench):
    """Per-layer metrics from one CLI pass plus one traced in-process pass."""
    from epxai import cli, oracle
    from tracing import SpanTable, Tracer, span_cost_s
    from workloads import (
        EFFICIENCY_TOLERANCE, STAGES, efficiency_gap, median, op_counts, output_hashes,
    )

    setup = bench.setup()
    bench.warm_up()
    results = bench.pipeline()
    manifest = bench.manifest()
    startup = median(
        results[s].wall_s - manifest["stages"][s]["seconds"] for s in ("ingest", "train", "explain")
    )
    reference = output_hashes(manifest)

    shutil.rmtree(bench.run_dir)
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    starts = {}
    tracer.install()
    try:
        for stage in STAGES:
            starts[stage] = len(tracer.spans)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([stage, "--config", str(bench.config_path), "--threads", "1"])
            bench.checks.record(code == 0 and not err.getvalue(), f"in-process {stage} exit {code}")
        starts["oracle"] = len(tracer.spans)
        batteries = oracle.run_all()
    finally:
        tracer.uninstall()
    for battery in batteries:
        bench.checks.record(battery.passed, f"oracle: {battery.line}")
    bench.checks.record(
        output_hashes(bench.manifest()) == reference, "traced pass changed output hashes"
    )
    gap, features, model = efficiency_gap(bench)
    bench.checks.record(gap <= EFFICIENCY_TOLERANCE, f"efficiency gap {gap!r}")
    report = bench.report()
    tracer.write(bench.work / "trace.json")

    table = SpanTable(tracer.spans)
    ex_lo, ex_hi = starts["explain"], starts["report"]
    dispatch = next(
        i for i in range(ex_lo, ex_hi) if tracer.spans[i][0] == "pipeline.dispatch"
    )
    explain_total = table.duration(dispatch)
    shap_ms = [1000.0 * d for d in table.durations("attribution.shap_mc", ex_lo, ex_hi)]
    deciles = statistics.quantiles(shap_ms, n=10)
    by_name = {b.name: b for b in batteries}
    efficiency = by_name["efficiency"]
    epochs = len(model.history)
    train_s = table.total("mlp.train", starts["train"], starts["explain"])
    tables_dir = bench.run_dir / "tables"
    counts = op_counts(bench, model, report)

    metrics = {
        "cli.startup_s": startup,
        "data.parse_s": median(table.durations("data.parse_market_csv")),
        "data.rows": (tables_dir / "dataset.csv").read_text(encoding="utf-8").count("\n") - 1,
        "data.features_s": median(table.durations("data.build_feature_matrix")),
        "mlp.train_s": train_s,
        "mlp.epochs": epochs,
        "mlp.epoch_s": train_s / epochs,
        "attribution.shap_mc_ms.p50": statistics.median(shap_ms),
        "attribution.shap_mc_ms.p90": deciles[8],
        "attribution.jacobian_s": table.total("attribution.jacobian_batch", ex_lo, ex_hi),
        "attribution.csv_s": table.total("attribution.attribution_to_csv", ex_lo, ex_hi),
        "attribution.csv_mb": (
            (tables_dir / "shap.csv").stat().st_size + (tables_dir / "gradient.csv").stat().st_size
        ) / 1e6,
        "attribution.efficiency_gap": gap,
        "sshap.aggregate_s": table.total("sshap.aggregate", ex_lo, ex_hi),
        "sshap.lines_s": table.total("sshap.sshap_line", ex_lo, ex_hi),
        "sshap.kernel_cells": counts["kernel_line_cells"],
        "sshap.slope_check_s": table.total("sshap.slope_check", ex_lo, ex_hi),
        "analytics.heatmap_s": table.total("analytics.heatmap", ex_lo, ex_hi),
        "analytics.beeswarm_s": table.total("analytics.beeswarm_table", ex_lo, ex_hi),
        "analytics.complexity_s": table.total("analytics.complexity_metrics", ex_lo, ex_hi),
        "analytics.performance_s": table.total("analytics.performance_metrics"),
        "figures.render_s": table.total("figures.render_figure", ex_lo, ex_hi),
        "figures.svg_mb": counts["svg_bytes"] / 1e6,
        "pipeline.self_s": table.self_s[dispatch],
        "oracle.efficiency_us_per_triple": 1e6 * efficiency.seconds / efficiency.metrics["n_triples"],
        "oracle.worst_tolerance_ratio": by_name["exact-equivalence"].metrics["worst_tolerance_ratio"],
        "trace.coverage": 1.0 - table.self_s[dispatch] / explain_total,
        # Spans times the calibrated cost of one: the difference of a traced
        # and an untraced explain is swamped by host noise and heap warmth.
        "trace.overhead_s": (ex_hi - ex_lo) * span_cost_s(),
    }
    metrics.update({f"oracle.{b.name}_s": b.seconds for b in batteries})
    metrics.update({f"self_s.{layer}": s for layer, s in table.layer_self().items()})
    metrics.update(probes(bench, features, model, report, counts))
    details = {
        "setup_s": setup,
        "counts": counts | {"spans": len(tracer.spans)},
        "explain_in_process_s": explain_total,
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "epxai" / "__init__.py").is_file():
        print(f"error: no epxai sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # Thread caps must be set before numpy loads, so every module that imports
    # numpy (the benchmark's own included) is imported after this point.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bench = Bench(ROOT, args.workload, args.seed)
    load_start = os.getloadavg()
    t0 = time.perf_counter()
    try:
        if args.trace:
            metrics, details = measure_traced(bench)
            metrics["failed_ratio"] = bench.checks.failed / bench.checks.attempted
        else:
            metrics, details = measure(bench, args.seconds, t0)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": max(bench.checks.attempted, 1),
            "failed": max(bench.checks.failed, 1), "metrics": {},
        }))
        return 1
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"error: measured and declared metrics differ: {sorted(missing)}", file=sys.stderr)
        return 3
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "oracle_seed": "pinned per battery; the workload seed is ignored" if args.trace else None,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "environment": environment(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "check_failures": bench.checks.notes,
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
