"""Command-line pipeline: config handling, exit codes, artifacts, determinism."""

import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import _synthetic_market_csv
from epxai import errors, pipeline
from epxai.cli import THREAD_VARS, main
from epxai.data import build_feature_matrix, parse_market_csv
from epxai.errors import ConfigError, DataError, DivergedLoss, EpxaiError, IncompleteRun, ModelError
from epxai.mlp import load_model, predict_prices, save_model
from epxai.pipeline import load_config, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def base_config(dataset: Path, out: Path) -> dict:
    """Small two-group market riding on the FR preset id, quick to train."""
    return {
        "market_id": "FR",
        "dataset": str(dataset),
        "out": str(out),
        "seed": 7,
        "market": {
            "currency": "EUR",
            "include_day_of_week": False,
            "super_variables": [
                {"label": "Price D-1", "source": "price", "day_lag": 1},
                {"label": "Load Forecast D", "source": "exog1", "day_lag": 0},
            ],
        },
        "model": {"hidden1": 12, "hidden2": 8},
        "training": {"max_epochs": 25, "early_stop_patience": 8},
        "attribution": {"n_pairs": 4, "background_size": 32, "max_instances": 24},
        "partition": {
            "splits": [{"group": "Price D-1", "hour": 12}],
            "merges": [{"label": "All", "members": ["Price D-1", "Load Forecast D"]}],
        },
        "lines": {"band": [25, 75]},
        "instance_dates": ["2013-04-01"],
        "beeswarm_top_k": 8,
    }


def run_cli(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot(directory: Path) -> dict:
    """Every file under ``directory`` with its bytes and inode: os.replace gives
    a file a new inode, so even a rewrite with the same bytes shows."""
    return {p: (p.read_bytes(), p.stat().st_ino) for p in directory.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "syn.csv"
    dataset.write_text(_synthetic_market_csv())
    return root, dataset


@pytest.fixture(scope="module")
def completed(workspace):
    """One config driven through every stage; tests inspect the results."""
    root, dataset = workspace
    run_dir = root / "run"
    config_path = root / "run.json"
    config_path.write_text(json.dumps(base_config(dataset, run_dir)))
    codes = {
        stage: run_cli(stage, "--config", str(config_path))[0]
        for stage in ("validate", "ingest", "train", "explain", "report")
    }
    return {"root": root, "dataset": dataset, "config": config_path,
            "run": run_dir, "codes": codes}


@pytest.fixture(scope="module")
def other_model(completed) -> Path:
    """model.json of the completed run's settings, trained with training seed 99."""
    config = base_config(completed["dataset"], completed["root"] / "other")
    config["training"]["seed"] = 99
    path = completed["root"] / "other.json"
    path.write_text(json.dumps(config))
    assert run_cli("train", "--config", str(path))[0] == 0
    model = completed["root"] / "other" / "model.json"
    assert sha(model) != sha(completed["run"] / "model.json")
    return model


def _reseeded(completed, tmp_path) -> Path:
    """A copy of the completed run's config file with another master seed."""
    config = json.loads(completed["config"].read_text())
    config["seed"] = 8
    path = tmp_path / "reseeded.json"
    path.write_text(json.dumps(config))
    return path


class TestArgumentHandling:
    def test_no_command_exits_2(self):
        code, _, err = run_cli()
        assert code == 2
        assert err.startswith("error: 2:")

    def test_unknown_command_exits_2(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2
        assert err.startswith("error: 2:")

    def test_help_exits_0(self):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert "train" in out and "oracle" in out

    def test_thread_count_below_one_rejected(self):
        code, _, err = run_cli("validate", "--config", "x.json", "--threads", "0")
        assert code == 2
        assert "thread count" in err

    def test_explicit_threads_exported(self, workspace, monkeypatch):
        root, dataset = workspace
        config = root / "threads.json"
        config.write_text(json.dumps(base_config(dataset, root / "tout")))
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "8")  # undone after the test
        code, _, _ = run_cli("validate", "--config", str(config), "--threads", "2")
        assert code == 0
        assert {var: os.environ[var] for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "2")

    def test_manifest_records_thread_caps(self, workspace, monkeypatch):
        root, dataset = workspace
        config = root / "caps.json"
        config.write_text(json.dumps(base_config(dataset, root / "caps")))
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "1")  # undone after the test
        for threads in (3, 2):
            code, _, _ = run_cli("ingest", "--config", str(config), "--threads", str(threads))
            assert code == 0
            manifest = json.loads((root / "caps" / "manifest.json").read_text())
            assert manifest["stages"]["ingest"]["threads"] == threads

    def test_default_run_ignores_exported_thread_caps(self, workspace, tmp_path):
        # each check runs in a fresh interpreter whose shell exported caps of
        # 2; without --threads every pool still runs single-threaded
        root, dataset = workspace
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        exported = dict.fromkeys(THREAD_VARS, "2")
        run = "import sys\nfrom epxai.cli import main\nassert main(sys.argv[1:]) == 0"
        _fresh_run(run, "ingest", "--config", str(config), env=exported)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["stages"]["ingest"]["threads"] == 1
        show = (
            "import json, os, sys\nfrom epxai.cli import THREAD_VARS, main\n"
            "assert main(['validate', '--config', sys.argv[1]]) == 0\n"
            "print(json.dumps({var: os.environ[var] for var in THREAD_VARS}))"
        )
        stdout = _fresh_run(show, str(config), env=exported)
        assert json.loads(stdout.splitlines()[-1]) == dict.fromkeys(THREAD_VARS, "1")


class TestValidate:
    def test_echo_round_trips(self, workspace):
        root, dataset = workspace
        config = root / "rt.json"
        config.write_text(json.dumps(base_config(dataset, root / "rt_out")))
        code, out, _ = run_cli("validate", "--config", str(config))
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("config ok:")
        echo = json.loads("\n".join(lines[:-1]))
        again = resolve_config(echo, base_dir=root)
        assert again.echo == echo
        # defaults are materialized in the echo
        assert echo["attribution"]["antithetic"] is True
        assert echo["lines"]["grid_size"] == 200

    def test_byte_order_mark_config_reads_like_the_plain_file(self, workspace):
        root, dataset = workspace
        text = json.dumps(base_config(dataset, root / "bom_out"))
        (root / "plain.json").write_text(text, encoding="utf-8")
        (root / "bom.json").write_text("\ufeff" + text, encoding="utf-8")
        echoes, digests = [], []
        for name in ("plain", "bom"):
            config = str(root / f"{name}.json")
            code, out, err = run_cli("validate", "--config", config)
            assert (code, err) == (0, ""), name
            echoes.append(out)
            run = root / f"{name}_run"
            assert run_cli("ingest", "--config", config, "--out", str(run))[0] == 0, name
            digests.append(json.loads((run / "manifest.json").read_text())["config_digest"])
        assert echoes[0] == echoes[1]
        assert digests[0] == digests[1]

    def test_partitions_resolve_with_config(self, workspace):
        root, dataset = workspace
        raw = base_config(dataset, root / "parts")
        # a member may name a group that an earlier merge made
        raw["partition"]["merges"] = [
            {"label": "P", "members": ["Price D-1", "Load Forecast D"]},
            {"label": "All", "members": ["P"]},
        ]
        with pytest.raises(ConfigError, match=r"partition.merges\[1\]: merging needs"):
            resolve_config(raw, base_dir=root)
        raw["market"]["include_day_of_week"] = True
        raw["partition"]["merges"][1]["members"].append("Day of week")
        partitions = resolve_config(raw, base_dir=root).partitions
        labels = {name: part.labels for name, part in partitions.items()}
        assert labels == {
            "default": ("Price D-1", "Load Forecast D", "Day of week"),
            "split": ("Price D-1 H0-H11", "Price D-1 H12-H23", "Load Forecast D", "Day of week"),
            "merged": ("All",),
        }

    def test_minimal_config_echo_is_pinned(self, tmp_path):
        """Every default, the NP benchmark model and the seed fan-out, byte for byte."""
        dataset = tmp_path / "np.csv"
        dataset.write_text("placeholder\n")
        path = tmp_path / "np.json"
        path.write_text(json.dumps({"market_id": "NP", "dataset": "np.csv", "seed": 11}))
        code, out, err = run_cli("validate", "--config", str(path))
        assert (code, err) == (0, "")

        def sv(label, source, day_lag):
            return {"label": label, "source": source, "day_lag": day_lag}

        expected = {
            "market_id": "NP",
            "dataset": str(dataset),
            "out": None,
            "seed": 11,
            "market": {
                "currency": "EUR",
                "include_day_of_week": False,
                "super_variables": [
                    sv("Price D-1", "price", 1),
                    sv("Price D-2", "price", 2),
                    sv("Load Forecast D", "exog1", 0),
                    sv("Load Forecast D-1", "exog1", 1),
                    sv("Wind Forecast D", "exog2", 0),
                    sv("Wind Forecast D-1", "exog2", 1),
                ],
            },
            "model": {
                "hidden1": 274, "hidden2": 308, "activation": "softplus",
                "init_scheme": "lecun_uniform", "input_scaler": "median",
                "output_scaler": "std", "dropout": 0.154, "l1": 0.0, "seed": 11,
            },
            "training": {
                "learning_rate": 0.001, "batch_size": 64, "max_epochs": 300,
                "early_stop_patience": 20, "validation_fraction": 0.15, "seed": 11,
            },
            "attribution": {
                "n_pairs": 64, "background_size": 500, "antithetic": True,
                "max_instances": 256, "seed": 11,
            },
            "partition": {"splits": [], "merges": []},
            "lines": {"grid_size": 200, "band": None},
            "instance_dates": [],
            "beeswarm_top_k": 20,
        }
        assert out == (
            json.dumps(expected, indent=1, sort_keys=True)
            + "\nconfig ok: NP, 144 features\n"
        )

    def test_readme_config_reference_names_every_key(self):
        # the README's jsonc block reads as JSON once its comments are cut;
        # the keys of an entry list's objects count as keys of the list
        block = README.read_text(encoding="utf-8").split("```jsonc\n")[1].split("```")[0]
        reference = json.loads(re.sub(r"//[^\n]*", "", block))

        def paths(obj, prefix=""):
            for key, value in obj.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from paths(value, f"{prefix}{key}.")
                elif isinstance(value, list):
                    for entry in value:
                        if isinstance(entry, dict):
                            yield from paths(entry, f"{prefix}{key}[].")

        expected = {"market_id", "dataset", "out"}
        for section, key, checker, _ in pipeline._KEYS:
            name = key if section is None else f"{section}.{key}"
            expected |= {section or key, name}
            fields = inspect.getclosurevars(checker).nonlocals.get("fields", ())
            expected |= {f"{name}[].{field}" for field, _ in fields}
        assert set(paths(reference)) == expected

    @pytest.mark.parametrize("market_id", ["DE", "FR", "BE", "NP", "PJM"])
    def test_preset_echo_validates_to_itself(self, tmp_path, market_id):
        (tmp_path / "data.csv").write_text("placeholder\n")
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"market_id": market_id, "dataset": "data.csv"}))
        code, out, err = run_cli("validate", "--config", str(path))
        assert (code, err) == (0, "")
        echo = json.loads(out[:out.rindex("config ok:")])
        again = tmp_path / "echo.json"
        again.write_text(json.dumps(echo))
        assert run_cli("validate", "--config", str(again)) == (0, out, "")
        digests = [
            pipeline._sha256_text(pipeline._canonical_json(load_config(p).settings))
            for p in (path, again)
        ]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "market_id, key, value",
        [("PJM", "currency", "USD"), ("DE", "include_day_of_week", True),
         ("BE", "include_day_of_week", True)],
    )
    def test_partial_market_section_takes_preset_defaults(self, tmp_path, market_id, key, value):
        svs = [{"label": "Price D-1", "source": "price", "day_lag": 1}]
        raw = {"market_id": market_id, "dataset": "data.csv", "market": {"super_variables": svs}}
        config = resolve_config(raw, base_dir=tmp_path)
        assert config.echo["market"][key] == value
        assert getattr(config.market, key) == value
        assert config.echo["market"]["super_variables"] == svs

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: c.update(surprise=1), "surprise"),
            # keys of earlier versions: the market id is set once, at the top
            # level, and the lines choose their own bandwidth
            (lambda c: c["market"].update(market_id="FR"), "unknown market keys: market_id"),
            (lambda c: c["lines"].update(bandwidth=5.0), "unknown lines keys: bandwidth"),
            (lambda c: c["market"]["super_variables"][0].update(source="prices"),
             "market.super_variables[0].source"),
            (lambda c: c["market"]["super_variables"][1].update(day_lag=-1),
             "market.super_variables[1].day_lag"),
            (lambda c: c["market"]["super_variables"][1].pop("label"),
             "market.super_variables[1].label"),
            (lambda c: c["market"].update(super_variables=5), "market.super_variables"),
            (lambda c: c["market"].update(super_variables=[]), "at least one super-variable"),
            (lambda c: c["partition"].update(splits=5), "partition.splits"),
            (lambda c: c.update(market_id="XX"), "market_id"),
            (lambda c: c["partition"]["splits"].append({"group": "Price D-1", "hour": 24}), "hour"),
            (lambda c: c["lines"].update(band=[80, 20]), "band"),
            (lambda c: c["model"].update(activation="tanh"), "activation"),
            (lambda c: c["training"].update(learning_rate=0), "learning_rate"),
            (lambda c: c["partition"]["merges"].append({"label": "M", "members": ["Nope", "Price D-1"]}), "Nope"),
            (lambda c: c["market"].update(include_day_of_week="false"), "include_day_of_week"),
            (lambda c: c["market"]["super_variables"][0].update(day_lag=1.9), "day_lag"),
            (lambda c: c["market"].update(currency=None), "currency"),
            (lambda c: c["model"].update(hidden1=None), "hidden1"),
            (lambda c: c["training"].update(validation_fraction=1.0), "validation_fraction"),
            (lambda c: c["market"].update(curency="USD"), "curency"),
            (lambda c: c["market"]["super_variables"][0].update(lagg=2), "lagg"),
            (lambda c: c.update(market=[]), "market must be an object"),
            # json.dumps writes these as the NaN and Infinity tokens json reads
            (lambda c: c["model"].update(dropout=float("nan")), "model.dropout"),
            (lambda c: c["training"].update(validation_fraction=float("nan")),
             "training.validation_fraction"),
            (lambda c: c["training"].update(learning_rate=float("nan")), "training.learning_rate"),
            (lambda c: c["model"].update(l1=float("nan")), "model.l1"),
            (lambda c: c["model"].update(l1=10**400), "model.l1"),  # beyond the float range
            # Python 3.11's fromisoformat reads the basic form; delivery days are YYYY-MM-DD
            (lambda c: c.update(instance_dates=["20130401"]), "20130401"),
            # a repeated day would render the same instance figure twice
            (lambda c: c.update(instance_dates=["2013-04-01", "2013-04-01"]),
             "'instance_dates' lists 2013-04-01 more than once"),
            # partitions resolve with the config: splits and merges apply in order
            (lambda c: c["partition"]["splits"].append({"group": "Price D-1", "hour": 6}),
             "partition.splits[1]: no group labelled 'Price D-1'"),
            (lambda c: (c.pop("market"), c["partition"]["merges"][0].update(label="Price D-3")),
             "partition.merges[0]: duplicate group label 'Price D-3'"),
            (lambda c: c["partition"]["merges"].append(
                {"label": "M", "members": ["Load Forecast D", "Price D-1"]}),
             "partition.merges[1]: no group labelled 'Load Forecast D'"),
            (lambda c: (c["market"].update(include_day_of_week=True),
                        c["market"]["super_variables"][1].update(label="Day of week")),
             "duplicate group label 'Day of week'"),
            # the figure CSVs write these in the group column for their
            # reference series
            (lambda c: c["market"]["super_variables"][1].update(label="price_minus_baseline"),
             "'market.super_variables[1].label' must not be a reference series name"),
            (lambda c: c["partition"]["merges"][0].update(label="forecast_minus_baseline"),
             "'partition.merges[0].label' must not be a reference series name"),
        ],
    )
    def test_bad_settings_exit_2(self, workspace, tmp_path, mutate, fragment):
        root, dataset = workspace
        config = base_config(dataset, tmp_path / "out")
        mutate(config)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("validate", "--config", str(path))
        assert code == 2
        assert err.startswith("error: 2:")
        assert err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    @pytest.mark.parametrize(
        "key", ["market.super_variables[1].label", "partition.merges[0].label"]
    )
    def test_label_that_breaks_artifacts_exits_2(self, workspace, tmp_path, key, char):
        # a group label is one unquoted CSV field and one quoted SVG attribute
        root, dataset = workspace
        config = base_config(dataset, tmp_path / "run")
        label = f"Load{char} D"
        if key.startswith("market"):
            config["market"]["super_variables"][1]["label"] = label
            config["partition"]["merges"][0]["members"][1] = label
        else:
            config["partition"]["merges"][0]["label"] = label
        path = tmp_path / "label.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("ingest", "--config", str(path))
        assert code == 2
        assert err.startswith("error: 2: ") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        config = base_config(tmp_path / "nope.csv", tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("validate", "--config", str(path))
        assert code == 2
        assert "nope.csv" in err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("validate", "--config", str(path))
        assert code == 2


class TestRunPipeline:
    def test_every_stage_succeeds(self, completed):
        assert completed["codes"] == {
            "validate": 0, "ingest": 0, "train": 0, "explain": 0, "report": 0,
        }

    def test_expected_artifacts_exist(self, completed):
        run = completed["run"]
        for rel in [
            "model.json", "report.json", "manifest.json", "summary.md",
            "tables/dataset.csv", "tables/performance.csv", "tables/shap.csv",
            "tables/gradient.csv", "tables/sshap_default.csv",
            "tables/sshap_split.csv", "tables/sshap_merged.csv",
            "tables/complexity.csv", "tables/heatmap_shap.csv",
            "figures/heatmap_shap.svg", "figures/heatmap_gradient.svg",
            "figures/importance.svg", "figures/beeswarm.svg", "figures/lines.svg",
            "figures/instance_2013-04-01.svg", "tables/instance_2013-04-01.csv",
        ]:
            assert (run / rel).is_file(), rel

    def test_manifest_hashes_match_files(self, completed):
        run = completed["run"]
        manifest = json.loads((run / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"ingest", "train", "explain"}
        for stage, record in manifest["stages"].items():
            for rel, digest in record["outputs"].items():
                assert (run / rel).is_file(), f"{stage}: {rel}"
                assert sha(run / rel) == digest, f"{stage}: {rel}"

    def test_config_digest_is_canonical_echo_hash(self, completed):
        # the absolute dataset and run paths are left out of the digest
        manifest = json.loads((completed["run"] / "manifest.json").read_text())
        settings = {k: v for k, v in manifest["config"].items() if k not in ("dataset", "out")}
        text = json.dumps(settings, indent=1, sort_keys=True) + "\n"
        assert manifest["config_digest"] == hashlib.sha256(text.encode()).hexdigest()

    def test_manifest_records_each_setting_once(self, tmp_path, workspace):
        # the seeds live in the config echo alone; summary.md reads them from
        # report.json's settings
        config = base_config(workspace[1], tmp_path / "run")
        config["model"]["seed"] = 3
        config["training"].update(seed=5, max_epochs=2)
        config["attribution"]["seed"] = 9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        for stage in ("train", "report"):
            assert run_cli(stage, "--config", str(path))[0] == 0, stage
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest) == {"version", "config", "config_digest", "inputs", "stages"}
        assert set(manifest["inputs"]["dataset"]) == {"sha256"}
        summary = (tmp_path / "run" / "summary.md").read_text()
        assert "\n- seeds: attribution 9, master 7, model 3, training 5\n" in summary

    def test_report_sections(self, completed):
        report = json.loads((completed["run"] / "report.json").read_text())
        for scope in ("train", "validation"):
            metrics = report["performance"][scope]
            assert set(metrics) == {"mae", "rmae", "smape", "rmse", "n_observations"}
            assert metrics["mae"] > 0
        assert report["explain"]["partitions"] == {
            "default": ["Price D-1", "Load Forecast D"],
            "split": ["Price D-1 H0-H11", "Price D-1 H12-H23", "Load Forecast D"],
            "merged": ["All"],
        }
        assert len(report["explain"]["baseline"]) == 24

    def test_model_beats_naive_on_synthetic_market(self, completed):
        report = json.loads((completed["run"] / "report.json").read_text())
        assert report["performance"]["train"]["rmae"] < 1.0

    def test_rmae_scales_by_the_previous_days_prices(self, completed):
        # each delivery day's naive forecast is the 24 prices of the day
        # before, recomputed here from the ingested hours
        run = completed["run"]
        prices: dict = {}
        for row in (run / "tables/dataset.csv").read_text().splitlines()[1:]:
            stamp, price = row.split(",")[:2]
            prices.setdefault(date.fromisoformat(stamp[:10]), []).append(float(price))
        data = json.loads((run / "report.json").read_text())["data"]
        first = date.fromisoformat(data["first_day"])
        days = [first + timedelta(i) for i in range(data["n_instances"])]
        assert str(days[-1]) == data["last_day"]
        lines = (run / "tables/performance.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["scope"] for row in rows] == ["train", "validation"]
        start = 0
        for row in rows:
            scope_days = days[start : start + int(row["n_observations"]) // 24]
            start += len(scope_days)
            errors = []
            for day in scope_days:
                actual, naive = prices[day], prices[day - timedelta(1)]
                assert len(actual) == len(naive) == 24
                errors += [abs(a - b) for a, b in zip(actual, naive)]
            naive_mae = sum(errors) / len(errors)
            assert abs(float(row["rmae"]) - float(row["mae"]) / naive_mae) <= 1e-12, row
        assert start == len(days)

    def test_sshap_table_shapes(self, completed):
        run = completed["run"]
        n = json.loads((run / "report.json").read_text())["explain"][
            "n_instances_explained"
        ]
        for name, groups in (("default", 2), ("split", 3), ("merged", 1)):
            rows = (run / f"tables/sshap_{name}.csv").read_text().splitlines()
            assert rows[0] == "instance_id,output_hour,group,value"
            assert len(rows) == 1 + n * 24 * groups

    def test_summary_embeds_every_figure(self, completed):
        run = completed["run"]
        summary = (run / "summary.md").read_text()
        figures = sorted(p.name for p in (run / "figures").glob("*.svg"))
        assert summary.count("![") == len(figures)
        for name in figures:
            assert f"figures/{name}" in summary
        assert "## Performance" in summary
        assert "## Complexity" in summary

    def test_rerun_reproduces_artifact_bytes(self, completed):
        run2 = completed["root"] / "run_again"
        config = str(completed["config"])
        assert run_cli("train", "--config", config, "--out", str(run2))[0] == 0
        assert run_cli("explain", "--config", config, "--out", str(run2))[0] == 0
        compare = [
            "model.json", "tables/shap.csv", "tables/gradient.csv",
            "tables/sshap_default.csv", "tables/performance.csv",
            "figures/heatmap_shap.svg", "figures/lines.svg", "figures/beeswarm.svg",
        ]
        for rel in compare:
            assert sha(completed["run"] / rel) == sha(run2 / rel), rel

    @pytest.mark.parametrize("day_of_week", [False, True], ids=["hourly", "day-of-week"])
    def test_relative_config_hashes_alike_in_two_directories(
        self, workspace, tmp_path, day_of_week
    ):
        # report.json and summary.md carry neither absolute paths nor times,
        # so the same relative config gives the same bytes wherever it runs
        config = base_config(Path("syn.csv"), Path("run"))
        config["market"]["include_day_of_week"] = day_of_week
        runs = []
        for name in ("a", "deeper/b"):
            where = tmp_path / name
            where.mkdir(parents=True)
            shutil.copy(workspace[1], where / "syn.csv")
            (where / "run.json").write_text(json.dumps(config))
            for stage in ("validate", "ingest", "train", "explain", "report"):
                assert run_cli(stage, "--config", str(where / "run.json"))[0] == 0, stage
            runs.append(where / "run")
        self._check_day_of_week_tables(runs[0], day_of_week)
        manifests = [json.loads((run / "manifest.json").read_text()) for run in runs]
        outputs = [
            {stage: record["outputs"] for stage, record in m["stages"].items()}
            for m in manifests
        ]
        assert outputs[0] == outputs[1]
        assert (runs[0] / "summary.md").read_bytes() == (runs[1] / "summary.md").read_bytes()
        assert manifests[0]["config"]["dataset"] != manifests[1]["config"]["dataset"]

    @staticmethod
    def _check_day_of_week_tables(run, day_of_week):
        """The day-of-week group has grouped values but no heatmap block, and
        the Shapley values of each explained cell sum to prediction - baseline."""
        def rows(name):
            return [row.split(",") for row in (run / name).read_text().splitlines()[1:]]

        groups = {row[2] for row in rows("tables/sshap_default.csv")}
        assert ("Day of week" in groups) is day_of_week
        blocks = {row[0] for row in rows("tables/heatmap_shap.csv")}
        assert "Price D-1" in blocks and "Day of week" not in blocks
        sums: dict = {}
        for instance, hour, _, _, value in rows("tables/shap.csv"):
            sums.setdefault(instance, np.zeros(24))[int(hour)] += float(value)
        config = load_config(run.parent / "run.json")
        features = build_feature_matrix(
            parse_market_csv(config.dataset.read_text(), "FR"), config.market
        )
        positions = [features.instance_ids().index(instance) for instance in sums]
        model = load_model((run / "model.json").read_text())
        baseline = json.loads((run / "report.json").read_text())["explain"]["baseline"]
        target = predict_prices(model, features.values[positions]) - np.array(baseline)
        assert np.max(np.abs(np.array(list(sums.values())) - target)) <= 1e-9

    def test_same_day_market_runs_from_its_second_day(self, tmp_path):
        # with only lag-0 inputs the first day still has no previous-day
        # prices for the naive forecast behind rMAE, so it is left out
        dataset = tmp_path / "syn.csv"
        dataset.write_text(_synthetic_market_csv(n_days=60))
        config = base_config(dataset, tmp_path / "run")
        config["market"]["super_variables"] = [
            {"label": "Load Forecast D", "source": "exog1", "day_lag": 0},
            {"label": "Wind Forecast D", "source": "exog2", "day_lag": 0},
        ]
        del config["partition"], config["instance_dates"]
        (tmp_path / "run.json").write_text(json.dumps(config))
        for stage in ("validate", "ingest", "train", "explain", "report"):
            code, _, err = run_cli(stage, "--config", str(tmp_path / "run.json"))
            assert (code, err) == (0, ""), stage
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["data"]["first_day"] == "2013-01-02"
        shap_rows = (tmp_path / "run" / "tables" / "shap.csv").read_text().splitlines()
        assert shap_rows[1].startswith("2013-01-02,")
        for scope in ("train", "validation"):
            assert math.isfinite(report["performance"][scope]["rmae"])

    def test_explain_only_run_reports(self, completed, tmp_path):
        # explain --model needs no train in the run directory; its report.json
        # still names the market and the currency that summary.md shows
        run = tmp_path / "run"
        config = str(completed["config"])
        model = str(completed["run"] / "model.json")
        code, _, err = run_cli("explain", "--config", config, "--out", str(run), "--model", model)
        assert (code, err) == (0, "")
        # the record names the model explained, which lives outside this run
        explain = json.loads((run / "manifest.json").read_text())["stages"]["explain"]
        assert explain["model_sha256"] == sha(Path(model))
        code, _, err = run_cli("report", "--out", str(run))
        assert (code, err) == (0, "")
        summary = (run / "summary.md").read_text()
        assert summary.startswith("# FR run summary\n")
        assert "Not produced yet (run train)." in summary
        assert "[EUR/MWh]" in summary

    def test_explain_takes_a_copy_of_the_recorded_model(self, completed, tmp_path):
        # the recorded hash decides, not the path: a byte-identical copy of
        # the run's model.json passed with --model is the recorded model
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        model = tmp_path / "elsewhere.json"
        shutil.copy(completed["run"] / "model.json", model)
        code, _, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy),
            "--model", str(model),
        )
        assert (code, err) == (0, "")
        assert run_cli("report", "--out", str(copy))[0] == 0
        assert sha(copy / "summary.md") == sha(completed["run"] / "summary.md")

    def test_report_finds_run_dir_like_the_stages(self, completed, tmp_path, monkeypatch):
        # with --config, a relative --out resolves against the config file's
        # directory for report as for the stage commands
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs/run.json").write_text(completed["config"].read_text())
        monkeypatch.chdir(tmp_path)
        for command in ("train", "report"):
            code, _, err = run_cli(command, "--config", "configs/run.json", "--out", "rel")
            assert (code, err) == (0, ""), command
        assert (tmp_path / "configs/rel/summary.md").is_file()

    def test_explain_records_model_sha256(self, completed):
        explain = json.loads((completed["run"] / "manifest.json").read_text())["stages"]["explain"]
        assert explain["model_sha256"] == sha(completed["run"] / "model.json")

    def test_manifest_records_numpy_build(self, completed):
        stages = json.loads((completed["run"] / "manifest.json").read_text())["stages"]
        for name in ("train", "explain"):
            assert stages[name]["numpy"] == np.__version__
            blas = stages[name]["blas"]
            assert blas is None or sorted(blas) == ["name", "version"]
        # ingest loads no numpy, so it records no build
        assert "numpy" not in stages["ingest"] and "blas" not in stages["ingest"]


class TestFailureExitCodes:
    def test_missing_dataset_is_data_error(self, completed, tmp_path):
        config = base_config(tmp_path / "gone.csv", tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 3
        assert err.startswith("error: 3:")
        assert "gone.csv" in err

    def test_divergence_is_single_error_line(self, completed, tmp_path):
        config = base_config(completed["dataset"], tmp_path / "out")
        config["training"] = {"max_epochs": 3, "learning_rate": 1e200}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 4
        assert err.startswith("error: 4: training diverged: ")
        assert len(err.rstrip("\n").splitlines()) == 1

    def test_overflowing_scaler_fit_is_single_error_line(self, tmp_path):
        # every price is finite, but squaring them for the std scaler overflows
        header, *rows = _synthetic_market_csv(n_days=40).splitlines()
        dataset = tmp_path / "huge.csv"
        dataset.write_text("\n".join([header] + [
            f"{stamp},{float(price) * 1e160!r},{load},{wind}"
            for stamp, price, load, wind in (row.split(",") for row in rows)
        ]) + "\n")
        config = base_config(dataset, tmp_path / "out")
        config["model"].update(input_scaler="median", output_scaler="std")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli("ingest", "--config", str(path))[0] == 0
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 3
        assert err.startswith("error: 3: std scaler fit overflows")
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (tmp_path / "out" / "model.json").exists()

    def test_overflowing_model_is_single_error_line(self, workspace, tmp_path):
        # sinh, which undoes the arcsinh output scaler, overflows on a model
        # scaled far past its training; numpy's warnings must not reach stderr
        config = base_config(workspace[1], tmp_path / "run")
        config["model"]["output_scaler"] = "arcsinh"
        config["training"]["max_epochs"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli("train", "--config", str(path))[0] == 0
        model = load_model((tmp_path / "run" / "model.json").read_text())
        model.weights[2] = model.weights[2] * 1e5
        big = tmp_path / "big.json"
        big.write_text(save_model(model))
        fresh = tmp_path / "fresh"
        code, _, err = run_cli(
            "explain", "--config", str(path), "--model", str(big), "--out", str(fresh)
        )
        assert code == 1
        assert err == "error: 1: model produced non-finite outputs\n"
        assert not fresh.exists()

    def test_constant_prices_explain_is_single_error_line(self, completed, tmp_path):
        # every explained price is 40.0, so the lines' grid holds one price
        # and no slope can be fitted; NaN must not reach report.json
        header, *rows = completed["dataset"].read_text().splitlines()
        dataset = tmp_path / "flat.csv"
        dataset.write_text("\n".join([header] + [
            f"{stamp},40.0,{load},{wind}"
            for stamp, _, load, wind in (row.split(",") for row in rows)
        ]) + "\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        code, _, err = run_cli(
            "explain", "--config", str(path), "--model", str(completed["run"] / "model.json")
        )
        assert code == 1
        assert err == "error: 1: fewer than 2 usable grid points in the band\n"
        assert not (tmp_path / "run").exists()

    def test_explain_before_train_exits_5(self, completed, tmp_path):
        config = base_config(completed["dataset"], tmp_path / "empty")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli("explain", "--config", str(path))
        assert code == 5
        assert "train first" in err

    @pytest.mark.parametrize("drop", [
        lambda payload: payload.update(input_scaler=None),
        lambda payload: payload.pop("input_scaler"),
    ], ids=["null", "missing"])
    def test_model_file_without_scaler_exits_5(self, completed, tmp_path, drop):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(base_config(completed["dataset"], tmp_path / "out"))
        )
        payload = json.loads((completed["run"] / "model.json").read_text())
        drop(payload)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            "explain", "--config", str(config_path), "--model", str(model_path)
        )
        assert code == 5
        assert err == f"error: 5: model file {model_path}: model carries no fitted input_scaler\n"
        assert not (tmp_path / "out").exists()

    def test_architecture_mismatch_exits_5(self, completed, tmp_path):
        config = base_config(completed["dataset"], tmp_path / "out")
        config["model"]["hidden1"] = 13
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(
            "explain", "--config", str(path),
            "--model", str(completed["run"] / "model.json"),
        )
        assert code == 5
        assert "different settings" in err

    def test_report_on_empty_dir_exits_6(self, tmp_path):
        code, _, err = run_cli("report", "--out", str(tmp_path / "void"))
        assert code == 6
        assert err.startswith("error: 6:")
        assert len(err.rstrip("\n").splitlines()) == 1

    def test_report_with_missing_outputs_exits_6(self, completed, tmp_path):
        stale = tmp_path / "stale"
        stale.mkdir()
        manifest = (completed["run"] / "manifest.json").read_text()
        (stale / "manifest.json").write_text(manifest)
        code, _, err = run_cli("report", "--out", str(stale))
        assert code == 6

    @pytest.mark.parametrize(
        "error, code",
        [
            (EpxaiError, 1), (ConfigError, 2), (DataError, 3), (DivergedLoss, 4),
            (ModelError, 5), (IncompleteRun, 6),
        ],
    )
    def test_error_family_sets_exit_code(self, monkeypatch, error, code):
        # the six families are every exception class of epxai.errors, and
        # with 0 their codes are the rows of the README's exit-code table,
        # each row naming its family
        families = {
            value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        }
        assert len(families) == 6 and error in families
        table = README.read_text(encoding="utf-8").split("\n## Exit codes\n")[1].split("\n## ")[0]
        rows = dict(re.findall(r"^\| (\d+) +\|(.*)\|$", table, re.M))
        assert set(rows) == {"0"} | {str(family.exit_code) for family in families}
        assert f"`{error.__name__}`" in rows[str(code)]

        def fail(args):
            raise error("boom")

        monkeypatch.setitem(pipeline._COMMANDS, "validate", fail)
        assert run_cli("validate", "--config", "x.json") == (code, "", f"error: {code}: boom\n")

    def test_report_with_corrupt_report_json_exits_6(self, completed, tmp_path):
        corrupt = tmp_path / "corrupt"
        shutil.copytree(completed["run"], corrupt)
        text = (corrupt / "report.json").read_text()
        (corrupt / "report.json").write_text(text[: len(text) // 2])
        code, out, err = run_cli("report", "--out", str(corrupt))
        assert code == 6
        assert err.startswith("error: 6:")
        assert "report.json" in err
        assert len(err.rstrip("\n").splitlines()) == 1

    @pytest.mark.parametrize("name", ["report.json", "manifest.json"])
    def test_report_with_non_object_run_file_exits_6(self, completed, tmp_path, name):
        corrupt = tmp_path / "corrupt"
        shutil.copytree(completed["run"], corrupt)
        (corrupt / name).write_text("[]\n")
        code, _, err = run_cli("report", "--out", str(corrupt))
        assert code == 6
        assert err.startswith("error: 6: unreadable run file ")
        assert err.rstrip("\n").endswith(f"{name}: not a JSON object")

    @pytest.mark.parametrize(
        "name, command, code",
        [
            ("run.json", "validate", 2), ("syn.csv", "ingest", 3),
            ("model.json", "explain", 5), ("manifest.json", "report", 6),
            ("report.json", "report", 6),
        ],
    )
    def test_file_not_utf8_is_one_error_line(self, completed, tmp_path, name, command, code):
        self._damaged_input(
            completed, tmp_path, name, command, code, lambda path: path.write_bytes(b"\xff\xfe{")
        )

    @pytest.mark.parametrize(
        "name, command, code",
        [
            ("run.json", "validate", 2), ("syn.csv", "ingest", 3), ("model.json", "explain", 5),
            ("report.json", "explain", 6), ("report.json", "report", 6),
        ],
    )
    def test_missing_file_is_one_error_line(self, completed, tmp_path, name, command, code):
        err = self._damaged_input(completed, tmp_path, name, command, code, Path.unlink)
        assert "not found" in err
        assert ("train first" in err) == (name == "model.json")

    @staticmethod
    def _damaged_input(completed, tmp_path, name, command, code, damage):
        """Run ``command`` on a copy of the completed run after ``damage(path)``
        of its file ``name``; it must exit ``code`` with one error line naming
        the file. Returns that line."""
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        shutil.copy(completed["dataset"], tmp_path / "syn.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(tmp_path / "syn.csv", copy)))
        damage(tmp_path / name if name in ("run.json", "syn.csv") else copy / name)
        got, _, err = run_cli(command, "--config", str(config))
        assert got == code
        assert err.startswith(f"error: {code}: ") and name in err
        assert len(err.rstrip("\n").splitlines()) == 1
        return err

    def test_explain_with_corrupt_report_json_exits_6(self, workspace, tmp_path):
        # explain merges its section into report.json; a truncated file must
        # not be replaced by a report that has lost the train section.
        root, dataset = workspace
        run = tmp_path / "run"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, run)))
        for stage in ("ingest", "train"):
            assert run_cli(stage, "--config", str(config))[0] == 0
        text = (run / "report.json").read_text()
        (run / "report.json").write_text(text[: len(text) // 2])
        code, _, err = run_cli("explain", "--config", str(config))
        assert code == 6
        assert err.startswith("error: 6: unreadable run file ")
        assert "report.json" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert (run / "report.json").read_text() == text[: len(text) // 2]
        assert not (run / "tables/shap.csv").exists()

    @pytest.mark.parametrize("stage", ["ingest", "train", "explain"])
    def test_run_files_without_manifest_exit_6(self, completed, tmp_path, stage):
        # a new manifest would not list the old run's figures and tables,
        # yet they would stay on disk beside the new run's files
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        (copy / "manifest.json").unlink()
        before = _snapshot(copy)
        code, out, err = run_cli(stage, "--config", str(completed["config"]), "--out", str(copy))
        assert (code, out) == (6, "")
        assert err == (
            f"error: 6: run directory {copy} holds model.json but no manifest.json; "
            f"use a fresh directory\n"
        )
        assert _snapshot(copy) == before
        shutil.rmtree(copy / "tables")
        for rel in ("model.json", "report.json", "summary.md"):
            (copy / rel).unlink()
        code, _, err = run_cli(stage, "--config", str(completed["config"]), "--out", str(copy))
        assert code == 6 and "holds figures but no manifest.json" in err

    def test_stage_refuses_edited_report_json(self, completed, tmp_path):
        # report refuses an edited report.json; a later stage must not merge
        # into it and record a fresh hash that makes the edit pass report
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        report = json.loads((copy / "report.json").read_text())
        report["performance"]["train"]["mae"] = 0.001
        (copy / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

        before = _snapshot(copy)
        code, out, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy)
        )
        assert (code, out) == (6, "")
        assert err.startswith("error: 6: ") and "report.json" in err and "hash" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(copy) == before
        assert run_cli("report", "--out", str(copy))[0] == 6

    def test_explain_refuses_swapped_model_json(self, completed, other_model, tmp_path):
        # a model of the same spec, trained with another training seed
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        shutil.copy(other_model, copy / "model.json")
        before = _snapshot(copy)
        code, out, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy)
        )
        assert (code, out) == (6, "")
        assert err.startswith("error: 6: ") and "model.json" in err and "hash" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(copy) == before

    def test_explain_refuses_other_model_by_path(self, completed, other_model, tmp_path):
        # --model names a file outside the run: it is still held to the
        # model.json that train recorded
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        before = _snapshot(copy)
        code, out, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy),
            "--model", str(other_model),
        )
        assert (code, out) == (6, "")
        assert err.startswith(
            f"error: 6: model file {other_model} is not the model.json this run directory recorded"
        )
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(copy) == before

    def test_report_refuses_explanations_of_other_model(self, completed, other_model, tmp_path):
        # an explain-only run, then train in the same directory: summary.md
        # would show one model's accuracy beside another model's explanations
        run = tmp_path / "run"
        config = str(completed["config"])
        model = str(other_model)
        assert run_cli("explain", "--config", config, "--out", str(run), "--model", model)[0] == 0
        assert run_cli("train", "--config", config, "--out", str(run))[0] == 0
        code, out, err = run_cli("report", "--out", str(run))
        assert (code, out) == (6, "")
        assert err.startswith("error: 6: explain's model is not the model.json this run")
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (run / "summary.md").exists()

    def test_explain_schema_1_model_exits_5(self, completed, tmp_path):
        payload = json.loads((completed["run"] / "model.json").read_text())
        payload["schema_version"] = 1
        for layer in payload["layers"]:
            layer["weights_row_major"] = [0.0] * (layer["rows"] * layer["cols"])
            layer["bias"] = [0.0] * layer["cols"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code, _, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(tmp_path / "run"),
            "--model", str(model),
        )
        assert code == 5
        assert err.startswith("error: 5: ") and "schema_version 1" in err
        assert len(err.rstrip("\n").splitlines()) == 1

    def test_explain_schema_2_model_exits_5(self, completed, tmp_path):
        # schema 2 held the same base64 layers as float64 bytes, without a dtype
        payload = json.loads((completed["run"] / "model.json").read_text())
        payload["schema_version"] = 2
        del payload["weights_dtype"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code, out, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(tmp_path / "run"),
            "--model", str(model),
        )
        assert (code, out) == (5, "")
        assert err.startswith("error: 5: ") and "schema_version 2, supported 3" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_undecodable_foreign_model_in_trained_run_exits_6(self, completed, tmp_path):
        # the recorded hash decides before the file is decoded: a model that
        # would not decode is still, first of all, not this run's model
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        model = tmp_path / "old.json"
        model.write_text(json.dumps({"schema_version": 1}))
        before = _snapshot(copy)
        code, out, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy),
            "--model", str(model),
        )
        assert (code, out) == (6, "")
        assert err.startswith(
            f"error: 6: model file {model} is not the model.json this run directory recorded"
        )
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(copy) == before

    def test_refused_run_writes_nothing(self, completed, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        before = _snapshot(copy)
        code, _, err = run_cli(
            "train", "--config", str(_reseeded(completed, tmp_path)), "--out", str(copy)
        )
        assert code == 2
        assert err.startswith("error: 2:") and "different config" in err
        assert _snapshot(copy) == before

    @staticmethod
    def _refused_explain(workspace, tmp_path, mutate, code, fragment):
        """Run ingest and train, then check that explain exits ``code`` with a
        single error line naming ``fragment`` and leaves every file as it was."""
        root, dataset = workspace
        config = base_config(dataset, tmp_path / "run")
        mutate(config)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(config))
        for stage in ("ingest", "train"):
            assert run_cli(stage, "--config", str(path))[0] == 0, stage
        run = tmp_path / "run"

        before = _snapshot(run)
        got, _, err = run_cli("explain", "--config", str(path))
        assert got == code
        assert err.startswith(f"error: {code}: ") and fragment in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(run) == before

    # each array below exceeds the 128 TiB x86-64 user address space, so its
    # allocation fails at once, even on a host that overcommits memory
    def test_unallocatable_grid_is_one_error_line(self, workspace, tmp_path):
        def huge_grid(config):
            config["lines"]["grid_size"] = 10**14

        self._refused_explain(workspace, tmp_path, huge_grid, 1, "out of memory")
        assert not (tmp_path / "run" / "tables" / "shap.csv").exists()

    def test_unallocatable_network_is_one_error_line(self, workspace, tmp_path):
        config = base_config(workspace[1], tmp_path / "run")
        config["model"]["hidden1"] = 10**12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        assert run_cli("ingest", "--config", str(path))[0] == 0
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 1
        assert err.startswith("error: 1: out of memory: ")
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (tmp_path / "run" / "model.json").exists()

    def test_narrow_band_explain_writes_nothing(self, workspace, tmp_path):
        def narrow(config):
            config["lines"]["band"] = [0, 0.5]

        self._refused_explain(workspace, tmp_path, narrow, 1, "band")

    def test_one_instance_explain_writes_nothing(self, workspace, tmp_path):
        def one_instance(config):
            config["attribution"]["max_instances"] = 1
            del config["instance_dates"], config["lines"]

        self._refused_explain(workspace, tmp_path, one_instance, 3, "at least 2 instances")

    def test_copied_run_can_be_continued(self, completed, tmp_path):
        copy = tmp_path / "moved" / "copy"
        shutil.copytree(completed["run"], copy)
        config = str(completed["config"])
        for stage in ("explain", "report"):
            code, _, err = run_cli(stage, "--config", config, "--out", str(copy))
            assert (code, err) == (0, ""), stage
        assert sha(copy / "tables/shap.csv") == sha(completed["run"] / "tables/shap.csv")

    @pytest.mark.parametrize("name", ["tables/shap.csv", "manifest.json"])
    def test_failed_write_keeps_earlier_file(self, completed, tmp_path, monkeypatch, name):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        before = _snapshot(copy)
        half = len(before[copy / name]) // 2
        reached = []

        class HalfThenFull:
            """The temp file's stream: half the file's bytes reach the disk, then ENOSPC."""

            def __init__(self, stream):
                self.stream, self.written = stream, 0

            def write(self, text):
                room = half - self.written
                if len(text) > room:
                    self.stream.write(text[:room])
                    self.stream.flush()
                    reached.append(os.path.getsize(self.stream.name))
                    raise OSError(28, "No space left on device")
                self.written += len(text)
                return self.stream.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.stream.close()

        def open_failing(path, mode="r", **kwargs):
            stream = open(path, mode, **kwargs)
            if "w" in mode and Path(path).name == Path(name).name + ".tmp":
                return HalfThenFull(stream)
            return stream

        # the run directory writer opens its temp files through the module's
        # own name `open`
        monkeypatch.setattr(pipeline, "open", open_failing, raising=False)
        code, _, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy)
        )
        assert reached == [half]
        assert code == 1
        assert err.startswith("error: 1: cannot write ") and name in err
        assert len(err.rstrip("\n").splitlines()) == 1
        # explain swapped the files it wrote before the failure in again with
        # the same bytes, so only those have new inodes; no temp file is left
        after = _snapshot(copy)
        assert {p: b for p, (b, _) in after.items()} == {p: b for p, (b, _) in before.items()}
        for rel in (name, "model.json", "manifest.json", "summary.md"):
            assert after[copy / rel] == before[copy / rel], rel

    def test_renderer_failure_keeps_earlier_figure(self, completed, tmp_path, monkeypatch):
        import epxai.figures

        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        before = _snapshot(copy)

        def render_half(table, svg, csv, title, unit):
            svg.write("<svg>\n<circle/>\n")
            csv.write("feature,instance_id\n")
            raise MemoryError("beeswarm")

        monkeypatch.setattr(epxai.figures, "_render_beeswarm", render_half)
        code, _, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(copy)
        )
        assert code == 1
        assert err.startswith("error: 1: out of memory: beeswarm")
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not list(copy.rglob("*.tmp"))
        # as in test_failed_write_keeps_earlier_file, only the files written
        # before the failure have new inodes
        after = _snapshot(copy)
        assert {p: b for p, (b, _) in after.items()} == {p: b for p, (b, _) in before.items()}
        for rel in ("figures/beeswarm.svg", "tables/beeswarm.csv", "manifest.json", "summary.md"):
            assert after[copy / rel] == before[copy / rel], rel

    def test_failed_summary_write_is_one_error_line(self, completed, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        (copy / "summary.md").unlink()
        (copy / "summary.md").mkdir()
        code, _, err = run_cli("report", "--out", str(copy))
        assert code == 1
        assert err.startswith("error: 1: cannot write ") and "summary.md" in err
        assert len(err.rstrip("\n").splitlines()) == 1

    def test_failed_oracle_write_is_one_error_line(self, tmp_path, monkeypatch):
        import epxai.oracle
        from epxai.oracle import BatteryResult

        monkeypatch.setattr(
            epxai.oracle, "run_all",
            lambda seed: [BatteryResult("alpha", True, "fine", 0.1, {})],
        )
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        code, _, err = run_cli("oracle", "--out", str(taken))
        assert code == 1
        assert err.startswith("error: 1: cannot write ") and "oracle.json" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert taken.read_text() == "a file, not a directory"

    def test_changed_dataset_exits_3(self, workspace, tmp_path):
        dataset = tmp_path / "syn.csv"
        shutil.copy(workspace[1], dataset)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        assert run_cli("ingest", "--config", str(config))[0] == 0
        manifest = (tmp_path / "run" / "manifest.json").read_bytes()
        rows = dataset.read_text().splitlines(keepends=True)
        cells = rows[1].split(",")
        cells[1] = repr(float(cells[1]) + 1.0)
        rows[1] = ",".join(cells)
        dataset.write_text("".join(rows))
        code, _, err = run_cli("train", "--config", str(config))
        assert code == 3
        assert err.startswith("error: 3: dataset ") and "changed" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest
        assert not (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("command", ["ingest", "train", "explain"])
    def test_unclosed_quote_is_one_error_line(self, workspace, tmp_path, command):
        rows = workspace[1].read_text().splitlines(keepends=True)
        rows[60] = '"' + rows[60]
        dataset = tmp_path / "syn.csv"
        dataset.write_text("".join(rows))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        code, _, err = run_cli(command, "--config", str(config))
        assert code == 3
        assert err.startswith("error: 3: line 61: ") and "field limit" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_headerless_bad_first_row_is_one_error_line(self, workspace, tmp_path):
        rows = workspace[1].read_text().splitlines(keepends=True)
        rows[1] = rows[1].replace(" 00:00:00,", " 25:00:00,", 1)
        dataset = tmp_path / "syn.csv"
        dataset.write_text("".join(rows[1:]))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        code, _, err = run_cli("ingest", "--config", str(config))
        assert code == 3
        assert err.startswith("error: 3: line 1: bad timestamp ")
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_headerless_bom_dataset_keeps_first_hour(self, completed, tmp_path):
        # a byte-order mark before the first data row is not a header
        text = completed["dataset"].read_text()
        dataset = tmp_path / "syn.csv"
        dataset.write_text("\ufeff" + text.split("\n", 1)[1])
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        assert run_cli("ingest", "--config", str(config))[0] == 0
        assert sha(tmp_path / "run" / "tables" / "dataset.csv") == sha(
            completed["run"] / "tables" / "dataset.csv"
        )

    def test_crlf_dataset_hash_is_file_sha256(self, completed, tmp_path):
        dataset = tmp_path / "syn.csv"
        dataset.write_bytes(completed["dataset"].read_bytes().replace(b"\n", b"\r\n"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config(dataset, tmp_path / "run")))
        assert run_cli("ingest", "--config", str(config))[0] == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["inputs"]["dataset"]["sha256"] == sha(dataset)
        assert sha(tmp_path / "run" / "tables" / "dataset.csv") == sha(
            completed["run"] / "tables" / "dataset.csv"
        )
        report = json.loads((completed["run"] / "report.json").read_text())
        assert report["data"]["dataset_sha256"] == sha(completed["dataset"])

    def test_report_with_changed_output_exits_6(self, completed, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        data = bytearray((copy / "tables/shap.csv").read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        (copy / "tables/shap.csv").write_bytes(bytes(data))
        code, _, err = run_cli("report", "--out", str(copy))
        assert code == 6
        assert err.startswith("error: 6:") and "tables/shap.csv" in err
        assert len(err.rstrip("\n").splitlines()) == 1

    @pytest.mark.parametrize(
        "command, mutate",
        [
            ("report", lambda m: m.update(stages=[])),
            ("report", lambda m: m["stages"]["explain"].update(outputs=["x"])),
            ("report", lambda m: m.update(inputs={"dataset": {}})),
            ("ingest", lambda m: m.update(stages=[])),
            ("ingest", lambda m: m.update(inputs=[])),
            ("ingest", lambda m: m["inputs"]["dataset"].update(sha256=5)),
        ],
        ids=[
            "report-stages-list", "report-outputs-list", "report-input-without-sha256",
            "ingest-stages-list", "ingest-inputs-list", "ingest-sha256-number",
        ],
    )
    def test_malformed_manifest_exits_6(self, completed, tmp_path, command, mutate):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        mutate(manifest)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        before = _snapshot(copy)
        code, _, err = run_cli(
            command, "--config", str(completed["config"]), "--out", str(copy)
        )
        assert code == 6
        assert err.startswith("error: 6: ") and "manifest.json" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert _snapshot(copy) == before

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p["spec"].update(surprise=1), "spec"),
            (lambda p: p["spec"].pop("seed"), "spec"),
            (lambda p: [p["input_scaler"][k].pop() for k in ("location", "scale")], "scaler"),
            (lambda p: [p["output_scaler"][k].pop() for k in ("location", "scale")], "scaler"),
            (lambda p: p["input_scaler"]["scale"].__setitem__(0, 0.0), "scaler"),
            (lambda p: p["output_scaler"]["location"].__setitem__(0, float("nan")), "scaler"),
            (lambda p: p["input_scaler"].update(kind="median"), "scaler"),
        ],
        ids=[
            "extra-key", "no-seed", "input-scaler-short", "output-scaler-short",
            "zero-scale", "nan-location", "other-kind",
        ],
    )
    def test_model_spec_with_other_keys_exits_5(self, completed, tmp_path, mutate, fragment):
        payload = json.loads((completed["run"] / "model.json").read_text())
        mutate(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match=fragment):
            load_model(model.read_text())
        code, _, err = run_cli(
            "explain", "--config", str(completed["config"]), "--out", str(tmp_path / "run"),
            "--model", str(model),
        )
        assert code == 5
        assert err.startswith("error: 5: ") and fragment in err
        assert len(err.rstrip("\n").splitlines()) == 1

    def test_summary_lists_only_verified_files(self, completed, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(completed["run"], copy)
        (copy / "figures/stray.svg").write_text("<svg/>\n")
        (copy / "tables/stray.csv").write_text("a\n1\n")
        code, out, err = run_cli("report", "--out", str(copy))
        assert (code, err) == (0, "")
        summary = (copy / "summary.md").read_text()
        assert "stray" not in summary
        assert summary == (completed["run"] / "summary.md").read_text()

    def test_report_json_no_stage_recorded_exits_6(self, completed, tmp_path):
        run = tmp_path / "run"
        code, _, _ = run_cli("ingest", "--config", str(completed["config"]), "--out", str(run))
        assert code == 0
        shutil.copy(completed["run"] / "report.json", run / "report.json")
        code, _, err = run_cli("report", "--out", str(run))
        assert code == 6
        assert err.startswith("error: 6: ") and "report.json" in err
        assert len(err.rstrip("\n").splitlines()) == 1
        assert not (run / "summary.md").exists()

    def test_unrecorded_report_json_is_replaced(self, completed, tmp_path):
        # a stage merges its section only into a report.json the manifest records
        run = tmp_path / "run"
        config = str(completed["config"])
        assert run_cli("ingest", "--config", config, "--out", str(run))[0] == 0
        (run / "report.json").write_text('{"stray": 1}\n')
        assert run_cli("train", "--config", config, "--out", str(run))[0] == 0
        report = json.loads((run / "report.json").read_text())
        assert "stray" not in report and "performance" in report

    def test_changed_config_same_dir_exits_2(self, completed, tmp_path):
        # the edited config names the finished run's directory
        code, _, err = run_cli("train", "--config", str(_reseeded(completed, tmp_path)))
        assert code == 2
        assert "different config" in err


def _fresh_run(code: str, *argv, env=None) -> str:
    """Stdout of a fresh interpreter that runs ``code`` with ``argv``; ``env``
    adds to this process's environment."""
    src = Path(pipeline.__file__).parents[1]
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _fresh_modules(code: str, *argv) -> set:
    """Modules a fresh interpreter holds after running ``code`` with ``argv``."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_fresh_run(code, *argv).splitlines()[-1]))


class TestImportGraph:
    """Each command loads only the layers it runs, in a fresh interpreter."""

    NOT_LOADED = {
        "validate": ("numpy",),
        "ingest": (
            "numpy", "epxai.data", "epxai.mlp", "epxai.attribution", "epxai.sshap",
            "epxai.analytics", "epxai.figures",
        ),
        "train": ("epxai.attribution", "epxai.sshap", "epxai.figures"),
        "report": ("numpy",),
    }

    @pytest.fixture(scope="class")
    def loaded(self, workspace):
        root, dataset = workspace
        config = root / "imports.json"
        config.write_text(json.dumps(base_config(dataset, root / "imports_run")))
        run = "import sys\nfrom epxai.cli import main\nassert main(sys.argv[1:]) == 0"
        return {
            command: _fresh_modules(run, command, "--config", str(config))
            for command in self.NOT_LOADED  # in pipeline order: report reads train's run
        }

    @pytest.mark.parametrize("command", list(NOT_LOADED))
    def test_command_skips_unused_layers(self, loaded, command):
        assert "epxai.pipeline" in loaded[command]
        assert not loaded[command] & set(self.NOT_LOADED[command])

    def test_package_settings_leave_numpy_unloaded(self):
        modules = _fresh_modules(
            "import epxai\nepxai.market_config('NP')\nepxai.benchmark_spec('NP')\n"
            "epxai.split_group(\n"
            "    epxai.default_partition(epxai.market_config('NP')), 'Price D-1', 12\n)"
        )
        assert "numpy" not in modules
        assert "epxai.markets" in modules

    def test_settings_names_have_one_import_path(self):
        import epxai.data
        import epxai.markets
        import epxai.mlp
        import epxai.sshap

        settings = set(epxai.markets.__all__)
        for module in (epxai.data, epxai.mlp, epxai.sshap):
            assert not settings & set(module.__all__), module.__name__

    def test_public_names_resolve_from_their_modules(self):
        # epxai serves its names lazily, so a stale entry of its table would
        # fail only on first access
        import importlib

        import epxai

        for name in epxai.__all__:
            assert getattr(epxai, name) is not None, name
        for name, module_name in epxai._EXPORTS.items():
            assert name in importlib.import_module(f"epxai.{module_name}").__all__, name
        library_use = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
        block = library_use.split("from epxai import (")[1].split(")")[0]
        listed = {name.strip() for name in block.split(",")} - {""}
        assert listed and listed <= set(epxai.__all__), listed - set(epxai.__all__)


class TestOracleCommand:
    def _fake_results(self, all_pass):
        from epxai.oracle import BatteryResult

        return [
            BatteryResult("alpha", True, "fine", 0.1, {"x": 1.0}),
            BatteryResult("beta", all_pass, "checked", 0.2, {}),
        ]

    def test_prints_one_line_per_battery(self, monkeypatch, tmp_path):
        import epxai.oracle

        monkeypatch.setattr(
            epxai.oracle, "run_all", lambda seed: self._fake_results(True)
        )
        code, out, _ = run_cli("oracle", "--out", str(tmp_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS alpha:")
        assert lines[1].startswith("PASS beta:")
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert [r["name"] for r in payload["results"]] == ["alpha", "beta"]

    def test_any_failure_exits_1(self, monkeypatch):
        import epxai.oracle

        monkeypatch.setattr(
            epxai.oracle, "run_all", lambda seed: self._fake_results(False)
        )
        code, out, _ = run_cli("oracle")
        assert code == 1
        assert "FAIL beta:" in out

    def test_oracle_json_bytes_are_pinned(self, monkeypatch, tmp_path):
        import epxai.oracle
        from epxai.oracle import BatteryResult

        results = [
            BatteryResult("alpha", True, "fine", 1.23456, {"n": 3, "x": 0.5}),
            BatteryResult("beta", False, "off by 2", 0.0004, {}),
        ]
        monkeypatch.setattr(epxai.oracle, "run_all", lambda seed: results)
        code, _, err = run_cli("oracle", "--seed", "5", "--out", str(tmp_path))
        assert (code, err) == (1, "")
        assert (tmp_path / "oracle.json").read_text(encoding="utf-8") == (
            '{\n "results": [\n'
            '  {\n   "detail": "fine",\n   "metrics": {\n    "n": 3,\n    "x": 0.5\n   },\n'
            '   "name": "alpha",\n   "passed": true,\n   "seconds": 1.235\n  },\n'
            '  {\n   "detail": "off by 2",\n   "metrics": {},\n'
            '   "name": "beta",\n   "passed": false,\n   "seconds": 0.0\n  }\n'
            ' ],\n "seed": 5\n}\n'
        )

    def test_negative_seed_is_one_error_line(self, monkeypatch, tmp_path):
        import epxai.oracle

        def refuse(seed):
            raise AssertionError("a battery ran")

        monkeypatch.setattr(epxai.oracle, "run_all", refuse)
        code, out, err = run_cli("oracle", "--seed", "-1", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 2: ") and "--seed" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "oracle.json").exists()
