"""Acceptance suite: one check per shipping requirement, one verdict line each.

Checks c1-c4 and the synthetic half of c6 call the exact-value batteries
and always run. Checks c5, the trained half of c6, c7, and c8 need the
real benchmark market files; they look for ``<ID>.csv`` under
``EPXAI_DATA_DIR`` (default: ``<repo>/data``) and skip with a reason when
the files are absent. The c7 pattern checks depend on training
stochasticity, so they report WARN instead of failing.

Run with ``-v`` to see one line per check; captured prints carry the
measured numbers.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import _synthetic_market_csv
from epxai import oracle
from epxai.cli import main as cli_main
from epxai.marketcsv import hours_csv, parse_hours

DATA_DIR = Path(
    os.environ.get("EPXAI_DATA_DIR", Path(__file__).resolve().parent.parent / "data")
)

HOURS_IN_FOUR_YEARS = 1461 * 24  # one leap day in any 4-year window


def announce(tag: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {tag}: {detail}")
    return passed


def warn(tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'WARN'} {tag}: {detail}")


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dataset_path(market_id: str) -> Path:
    path = DATA_DIR / f"{market_id}.csv"
    if not path.is_file():
        pytest.skip(
            f"{market_id} benchmark file not present; place {market_id}.csv "
            f"under {DATA_DIR} or set EPXAI_DATA_DIR"
        )
    return path


def four_year_slice(market_id: str, out_path: Path) -> None:
    """First four years of a benchmark file, the span the models train on."""
    start, *columns = parse_hours(dataset_path(market_id).read_text())
    out_path.write_text(hours_csv(start, *(c[:HOURS_IN_FOUR_YEARS] for c in columns)))


_RUNS: dict = {}


def market_run(market_id: str, root: Path, attribution: dict, band=None) -> Path:
    """Train and explain one real market through the CLI, cached per market."""
    if market_id in _RUNS:
        return _RUNS[market_id]
    dataset = root / f"{market_id}_train_span.csv"
    four_year_slice(market_id, dataset)
    run_dir = root / f"run_{market_id}"
    config = {
        "market_id": market_id,
        "dataset": str(dataset),
        "out": str(run_dir),
        "seed": 0,
        "attribution": attribution,
    }
    if band is not None:
        config["lines"] = {"band": list(band)}
    config_path = root / f"{market_id}.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(config_path)]) == 0
    assert cli_main(["explain", "--config", str(config_path)]) == 0
    _RUNS[market_id] = run_dir
    return run_dir


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def np_run(work_root):
    # 200 sampled instances for the slope fit; sums telescope exactly, so
    # few permutation pairs suffice there, and c7's margin absorbs the noise
    return market_run(
        "NP", work_root,
        {"n_pairs": 4, "background_size": 50, "max_instances": 200},
        band=(5.0, 95.0),
    )


@pytest.fixture(scope="module")
def de_run(work_root):
    return market_run(
        "DE", work_root,
        {"n_pairs": 8, "background_size": 50, "max_instances": 150},
    )


@pytest.fixture(scope="module")
def fr_run(work_root):
    return market_run(
        "FR", work_root,
        {"n_pairs": 4, "background_size": 50, "max_instances": 150},
    )


def train_row(run_dir: Path) -> dict:
    rows = (run_dir / "tables/performance.csv").read_text().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        cells = line.split(",")
        if cells[0] == "train":
            return dict(zip(header, cells))
    raise AssertionError("no train row in performance.csv")


class TestExactProperties:
    """Estimator-level requirements, checked against exact references."""

    def test_c1_attributions_sum_to_prediction_delta(self):
        r = oracle.run_efficiency()
        ok = announce("c1 efficiency", r.passed, r.detail)
        assert ok
        assert r.seconds < 60.0, f"battery took {r.seconds:.1f}s, budget 60s"

    def test_c2_sampled_attributions_match_exact_enumeration(self):
        r = oracle.run_exact_equivalence()
        ok = announce("c2 oracle equivalence", r.passed, r.detail)
        assert ok
        assert r.seconds < 300.0, f"battery took {r.seconds:.1f}s, budget 300s"

    @pytest.mark.parametrize("seed", range(4))
    def test_c2_verdict_holds_at_other_seeds(self, seed):
        # the family-wise threshold leaves a calibrated estimator passing at
        # any seed, not only at the pinned one
        r = oracle.run_exact_equivalence(seed=seed)
        assert announce(f"c2 oracle equivalence, seed {seed}", r.passed, r.detail)

    def test_c3_analytic_jacobian_matches_finite_differences(self):
        r = oracle.run_jacobian_fd()
        ok = announce("c3 jacobian", r.passed, r.detail)
        assert ok
        assert r.seconds < 60.0, f"battery took {r.seconds:.1f}s, budget 60s"

    def test_c4_linear_model_scores_zero_non_linearity(self):
        r = oracle.run_linear_complexity()
        ok = announce("c4 linear complexity", r.passed, r.detail)
        assert ok
        assert r.metrics["non_linearity"] == 0.0

    def test_c6_summed_curves_recover_unit_slope_exactly(self):
        r = oracle.run_slope_identity()
        ok = announce("c6 slope identity (synthetic)", r.passed, r.detail)
        assert ok


class TestSyntheticMarket:
    """Pipeline-level analogues that run without the benchmark files."""

    def _config(self, root: Path, out: Path) -> Path:
        dataset = root / "syn.csv"
        if not dataset.is_file():
            dataset.write_text(_synthetic_market_csv())
        config = {
            "market_id": "FR",
            "dataset": str(dataset),
            "out": str(out),
            "seed": 3,
            "market": {
                "currency": "EUR",
                "include_day_of_week": False,
                "super_variables": [
                    {"label": "Price D-1", "source": "price", "day_lag": 1},
                    {"label": "Load Forecast D", "source": "exog1", "day_lag": 0},
                    {"label": "Wind Forecast D", "source": "exog2", "day_lag": 0},
                ],
            },
            "model": {"hidden1": 24, "hidden2": 16},
            "training": {"max_epochs": 40, "early_stop_patience": 12},
            "attribution": {"n_pairs": 4, "background_size": 32, "max_instances": 24},
        }
        path = root / f"{out.name}.json"
        path.write_text(json.dumps(config))
        return path

    def test_c5_synthetic_model_beats_naive(self, work_root):
        config = self._config(work_root, work_root / "syn_run")
        assert cli_main(["train", "--config", str(config)]) == 0
        row = train_row(work_root / "syn_run")
        rmae = float(row["rmae"])
        ok = announce(
            "c5 training (synthetic)", rmae < 1.0,
            f"train rMAE {rmae:.3f} (must be < 1), MAE {float(row['mae']):.3f}",
        )
        assert ok

    def test_c8_synthetic_rerun_is_byte_identical(self, work_root):
        digests = []
        for name in ("det_a", "det_b"):
            config = self._config(work_root, work_root / name)
            assert cli_main(["train", "--config", str(config)]) == 0
            assert cli_main(["explain", "--config", str(config)]) == 0
            digests.append(
                [
                    sha(work_root / name / rel)
                    for rel in ("model.json", "tables/shap.csv", "tables/gradient.csv")
                ]
            )
        ok = announce(
            "c8 determinism (synthetic)", digests[0] == digests[1],
            "model file and attribution tables hash identically across reruns",
        )
        assert ok


class TestTrainedMarkets:
    """Requirements on models trained on the real benchmark files."""

    def test_c5_np_training_error(self, np_run):
        row = train_row(np_run)
        mae, rmae = float(row["mae"]), float(row["rmae"])
        ok = announce(
            "c5 NP training", mae <= 2.5 and rmae < 1.0,
            f"train MAE {mae:.3f} EUR/MWh (budget 2.5), rMAE {rmae:.3f} (must be < 1)",
        )
        assert ok

    def test_c5_de_training_error(self, de_run):
        row = train_row(de_run)
        mae, rmae = float(row["mae"]), float(row["rmae"])
        ok = announce(
            "c5 DE training", mae <= 5.0 and rmae < 1.0,
            f"train MAE {mae:.3f} EUR/MWh (budget 5.0), rMAE {rmae:.3f} (must be < 1)",
        )
        assert ok

    def test_c6_np_trained_slope_near_one(self, np_run):
        report = json.loads((np_run / "report.json").read_text())
        check = report["explain"]["slope_check"]
        slope = check["slope"]
        ok = announce(
            "c6 NP trained slope", 0.9 <= slope <= 1.1,
            f"slope {slope:.4f} over the 5th-95th percentile price band "
            f"(allowed 0.9..1.1, {check['n_points']} grid points)",
        )
        assert ok

    def test_c7a_de_top_feature(self, de_run):
        rows = (de_run / "tables/beeswarm.csv").read_text().splitlines()[1:]
        top = rows[0].split(",")[0]
        values = [
            abs(float(line.split(",")[4])) for line in rows
            if line.split(",")[0] == top
        ]
        mean_abs = float(np.mean(values))
        warn(
            "c7a DE top feature",
            top == "Price D-1 H23" and 0.505 <= mean_abs <= 1.515,
            f"top beeswarm feature {top!r} with mean |contribution| "
            f"{mean_abs:.3f} EUR/MWh (expected 'Price D-1 H23' in 0.505..1.515)",
        )
        assert rows, "beeswarm table is empty"

    def test_c7b_np_load_day_coupling(self, np_run):
        rows = (np_run / "tables/sshap_default.csv").read_text().splitlines()[1:]
        series: dict = {"Load Forecast D": [], "Load Forecast D-1": []}
        for line in rows:
            instance_id, hour, group, value = line.split(",")
            if group in series:
                series[group].append(float(value))
        r = float(np.corrcoef(series["Load Forecast D"], series["Load Forecast D-1"])[0, 1])
        warn(
            "c7b NP load coupling", r <= -0.5,
            f"correlation of the two load groups' values {r:.3f} (expected <= -0.5)",
        )
        assert len(series["Load Forecast D"]) == len(series["Load Forecast D-1"]) > 0

    def test_c7c_fr_morning_load_gradients(self, fr_run):
        rows = (fr_run / "tables/heatmap_gradient.csv").read_text().splitlines()[1:]
        cells = []
        for line in rows:
            block, out_h, in_h, value = line.split(",")[:4]
            if block == "Load Forecast D" and int(in_h) < 5 and int(out_h) >= 5:
                cells.append(float(value))
        frac = float(np.mean([v < 0 for v in cells]))
        warn(
            "c7c FR morning gradients", frac >= 0.8,
            f"{frac:.0%} of night-input day-output load gradients negative "
            f"(expected >= 80% of {len(cells)} cells)",
        )
        assert len(cells) == 5 * 19

    def test_c8_np_rerun_is_byte_identical(self, np_run, work_root):
        rerun_dir = work_root / "run_NP_again"
        config = {
            "market_id": "NP",
            "dataset": str(work_root / "NP_train_span.csv"),
            "out": str(rerun_dir),
            "seed": 0,
            "attribution": {"n_pairs": 4, "background_size": 50, "max_instances": 200},
            "lines": {"band": [5.0, 95.0]},
        }
        config_path = work_root / "NP_again.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(config_path)]) == 0
        assert cli_main(["explain", "--config", str(config_path)]) == 0
        same = all(
            sha(np_run / rel) == sha(rerun_dir / rel)
            for rel in ("model.json", "tables/shap.csv", "tables/gradient.csv")
        )
        ok = announce(
            "c8 NP determinism", same,
            "model file and attribution tables hash identically across reruns",
        )
        assert ok
