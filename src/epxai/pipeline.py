"""Config schema, run-directory layout, and the CLI stage implementations.

A run is driven by one JSON config file and writes into one output
directory: ``model.json``, ``report.json``, ``manifest.json``,
``tables/*.csv``, ``figures/*.svg``, and ``summary.md``. Every artifact is
deterministic for a fixed config, dataset, and thread count; the manifest
records sha256 hashes so two runs can be compared file by file. Wall-clock
timings and absolute paths live only in the manifest, never in hashed outputs.
Each config key but ``market_id``, ``dataset`` and ``out`` is a row of
``_KEYS``; the ``market`` and ``model`` rows default to the market's preset.

Loading this module loads the numpy-free layers (:mod:`epxai.markets`,
:mod:`epxai.marketcsv`); each command imports the numeric layers it runs at
its start, so ``validate``, ``ingest`` and ``report`` never load numpy.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError, DataError, EpxaiError, IncompleteRun, ModelError, check_bool, check_choice,
    check_float, check_int, check_label, check_object, check_str,
)
from .markets import (
    ACTIVATIONS, INIT_SCHEMES, MARKET_IDS, SCALER_KINDS, SOURCES, MarketConfig, ModelSpec,
    SuperVariable, TrainingHyperparams, benchmark_spec, default_partition,
    market_config, merge_groups, split_group,
)

__all__ = [
    "RunConfig",
    "load_config",
    "resolve_config",
    "dispatch",
]


def _path(value, name: str, base_dir: Path) -> str:
    if not isinstance(value, (str, Path)) or not str(value):
        raise ValueError(f"'{name}' must be a non-empty path string")
    path = Path(value)
    return str(path if path.is_absolute() else (base_dir / path).resolve())


def _scalar(check, nullable=False, **bounds):
    """Table checker for one scalar value."""
    def checker(value, name):
        return None if nullable and value is None else check(value, name, **bounds)
    return checker


def _labels(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"'{name}' must be a list of group labels, got {value!r}")
    return [check_str(label, f"{name}[{k}]") for k, label in enumerate(value)]


def _entries(*fields):
    """Table checker for a list of objects with the keys of ``fields``, ``(key, check)`` pairs.

    It checks only the JSON shape. Whether a split or merge is allowed is for
    split_group and merge_groups to decide; resolve_config passes them each
    entry's values in field order.
    """
    def checker(value, name):
        if not isinstance(value, (list, tuple, type(None))):
            raise ValueError(f"'{name}' must be a list of objects, got {value!r}")
        entries = []
        for k, entry in enumerate(value or []):
            where = f"{name}[{k}]"
            check_object(entry, where, [key for key, _ in fields])
            entries.append({key: check(entry.get(key), f"{where}.{key}") for key, check in fields})
        return entries
    return checker


def _band(value, name: str) -> list | None:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must be [low_percentile, high_percentile]")
    lo = check_float(value[0], f"{name}[0]", lo=0.0)
    hi = check_float(value[1], f"{name}[1]", lo=0.0)
    if not 0.0 <= lo < hi <= 100.0:
        raise ValueError(f"{name} must satisfy 0 <= low < high <= 100, got {value}")
    return [lo, hi]


def _dates(value, name: str) -> list:
    value = value or []
    if not isinstance(value, list):
        raise ValueError(f"'{name}' must be a list of YYYY-MM-DD strings")
    for k, date in enumerate(value):
        # fromisoformat accepts more forms from Python 3.11 on (20130301,
        # 2013-W09-5); the round trip keeps YYYY-MM-DD the only one on every
        # version, which is also the form the delivery days are matched in
        try:
            ok = isinstance(date, str) and datetime.date.fromisoformat(date).isoformat() == date
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"bad instance date {date!r}: expected a YYYY-MM-DD string")
        if date in value[:k]:
            raise ValueError(f"'{name}' lists {date} more than once")
    return list(value)


def _master_seed(echo: dict, preset: dict) -> int:
    return echo["seed"]


def _bench(field: str, index: int | None = None):
    """Default read from a market_config or benchmark_spec field of the preset."""
    def default(echo: dict, preset: dict):
        value = preset[field]
        return value if index is None else value[index]
    return default


# Every key of the run config except market_id, dataset and out: (section or
# None for top level, key, checker, default). A checker is called as
# checker(value, dotted_name) and returns the value's echo form; a callable
# default as default(echo_so_far, preset), where preset maps each field of
# market_config(market_id) and benchmark_spec(market_id) to its JSON form.
# Rows resolve in order, so the master seed is known before the seeds it
# fills. The market and model rows default to the market's preset, the
# training rows to the TrainingHyperparams class attributes.
_HP = TrainingHyperparams
_SEED = _scalar(check_int, lo=0, hi=2**64 - 1)
_KEYS = (
    (None, "seed", _SEED, 0),
    ("market", "currency", _scalar(check_str), _bench("currency")),
    ("market", "super_variables", _entries(
        ("label", check_label), ("source", _scalar(check_choice, choices=SOURCES)),
        ("day_lag", _scalar(check_int, lo=0)),
    ), _bench("super_variables")),
    ("market", "include_day_of_week", _scalar(check_bool), _bench("include_day_of_week")),
    ("model", "hidden1", _scalar(check_int, lo=1), _bench("layer_sizes", 1)),
    ("model", "hidden2", _scalar(check_int, lo=1), _bench("layer_sizes", 2)),
    ("model", "activation", _scalar(check_choice, choices=ACTIVATIONS), _bench("activation")),
    ("model", "init_scheme", _scalar(check_choice, choices=INIT_SCHEMES), _bench("init_scheme")),
    ("model", "input_scaler", _scalar(check_choice, choices=SCALER_KINDS),
     _bench("input_scaler_kind")),
    ("model", "output_scaler", _scalar(check_choice, choices=SCALER_KINDS),
     _bench("output_scaler_kind")),
    ("model", "dropout", _scalar(check_float, lo=0.0, below=1.0), _bench("dropout_rate")),
    ("model", "l1", _scalar(check_float, lo=0.0), _bench("l1_factor")),
    ("model", "seed", _scalar(check_int, lo=0), _master_seed),
    ("training", "learning_rate", _scalar(check_float, lo=0.0, lo_open=True), _HP.learning_rate),
    ("training", "batch_size", _scalar(check_int, lo=1), _HP.batch_size),
    ("training", "max_epochs", _scalar(check_int, lo=1), _HP.max_epochs),
    ("training", "early_stop_patience", _scalar(check_int, lo=0), _HP.early_stop_patience),
    ("training", "validation_fraction", _scalar(check_float, lo=0.0, below=1.0),
     _HP.validation_fraction),
    ("training", "seed", _scalar(check_int, lo=0), _master_seed),
    ("attribution", "n_pairs", _scalar(check_int, lo=1), 64),
    ("attribution", "background_size", _scalar(check_int, lo=1), 500),
    ("attribution", "antithetic", _scalar(check_bool), True),
    ("attribution", "max_instances", _scalar(check_int, nullable=True, lo=1), 256),
    ("attribution", "seed", _scalar(check_int, lo=0), _master_seed),
    ("partition", "splits", _entries(("group", check_str), ("hour", check_int)), ()),
    ("partition", "merges", _entries(("label", check_label), ("members", _labels)), ()),
    ("lines", "grid_size", _scalar(check_int, lo=2), 200),
    ("lines", "band", _band, None),
    (None, "instance_dates", _dates, ()),
    (None, "beeswarm_top_k", _scalar(check_int, lo=1), 20),
)

_TOP_KEYS = {"market_id", "dataset", "out"} | {
    section or key for section, key, _, _ in _KEYS
}


@dataclass
class RunConfig:
    """Fully resolved run settings.

    ``echo`` holds every setting in its JSON form and re-resolves to the
    same config; the other fields are the typed objects built from it.
    ``partitions`` holds the ``default`` one, and ``split`` and ``merged``
    when the config has splits or merges.
    """

    dataset: Path
    out: Path | None
    market: MarketConfig
    model_spec: ModelSpec
    training: TrainingHyperparams
    partitions: dict
    echo: dict

    @property
    def settings(self) -> dict:
        """The echo without the absolute ``dataset`` and ``out`` paths.

        These are the settings the artifacts depend on; the dataset itself
        is pinned by its sha256, so a run directory can be copied or moved
        and continued from its new place.
        """
        return {k: v for k, v in self.echo.items() if k not in ("dataset", "out")}


def load_config(
    path: Path, out_override: str | None = None, check_paths: bool = False
) -> RunConfig:
    """Read and resolve a config file; all problems raise :class:`ConfigError`."""
    path = Path(path)
    text, _ = _read_input(path, ConfigError, "config")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return resolve_config(
        raw, base_dir=path.parent, out_override=out_override, check_paths=check_paths
    )


def resolve_config(
    raw, base_dir: Path, out_override: str | None = None, check_paths: bool = False
) -> RunConfig:
    """Validate a raw config mapping and fill every default.

    The returned config's ``echo`` re-resolves to the same settings, which
    is what lets a manifest reproduce its run. Relative paths are taken
    against ``base_dir`` (the config file's directory). Splits and merges
    apply to the default partition in config order; a refused one is a
    ConfigError naming its key.
    """
    try:
        echo = _resolve_echo(raw, Path(base_dir), out_override)
        market = echo["market"]
        svs = tuple(SuperVariable(**sv) for sv in market["super_variables"])
        market = MarketConfig(
            **{**market, "market_id": echo["market_id"], "super_variables": svs}
        )
        partitions = {"default": default_partition(market)}
        model = echo["model"]
        model_spec = ModelSpec(
            layer_sizes=(market.n_features, model["hidden1"], model["hidden2"], 24),
            activation=model["activation"],
            dropout_rate=model["dropout"],
            l1_factor=model["l1"],
            init_scheme=model["init_scheme"],
            input_scaler_kind=model["input_scaler"],
            output_scaler_kind=model["output_scaler"],
            seed=model["seed"],
        )
        training = TrainingHyperparams(**echo["training"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, key, apply in (("split", "splits", split_group), ("merged", "merges", merge_groups)):
        part = partitions["default"]
        for k, entry in enumerate(echo["partition"][key]):
            try:
                part = apply(part, *entry.values())
            except ValueError as exc:
                raise ConfigError(f"partition.{key}[{k}]: {exc}") from exc
        if echo["partition"][key]:
            partitions[name] = part
    dataset = Path(echo["dataset"])
    if check_paths and not dataset.is_file():
        raise ConfigError(f"dataset path does not exist: {dataset}")
    return RunConfig(
        dataset=dataset,
        out=None if echo["out"] is None else Path(echo["out"]),
        market=market,
        model_spec=model_spec,
        training=training,
        partitions=partitions,
        echo=echo,
    )


def _resolve_echo(raw, base_dir: Path, out_override) -> dict:
    """The echo of a raw config; a bad value raises ValueError."""
    given = {None: check_object(raw, "config", _TOP_KEYS)}
    market_id = raw.get("market_id")
    if market_id not in MARKET_IDS:
        raise ValueError(f"'market_id' must be one of {list(MARKET_IDS)}, got {market_id!r}")
    out = out_override if out_override is not None else raw.get("out")
    echo = {
        "market_id": market_id,
        "dataset": _path(raw.get("dataset"), "dataset", base_dir),
        "out": None if out is None else _path(out, "out", base_dir),
    }
    for section in dict.fromkeys(s for s, _, _, _ in _KEYS if s):
        value = raw.get(section)
        keys = [k for s, k, _, _ in _KEYS if s == section]
        given[section] = check_object({} if value is None else value, section, keys)
        echo[section] = {}
    preset = {**asdict(market_config(market_id)), **asdict(benchmark_spec(market_id))}
    for section, key, checker, default in _KEYS:
        name = key if section is None else f"{section}.{key}"
        if key in given[section]:
            value = given[section][key]
        else:
            value = default(echo, preset) if callable(default) else default
        value = checker(value, name)
        (echo if section is None else echo[section])[key] = value
    return echo


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> str:
    """sha256 of a file's bytes, read in 64 KiB blocks so no file is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def _write_atomic(path: Path, content) -> str:
    """Stream ``content`` to a temp file beside ``path``, swap it in, return its sha256.

    ``content`` is the text, or a function that writes the text into the
    buffered text stream it is handed as it formats it, so no whole copy of
    a large table or figure is held. The sha256 is read back from the temp
    file's bytes; ``os.replace`` then swaps the complete file in at once, so
    a write that fails or a writer that raises leaves the earlier file whole
    and no partial file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            if callable(content):
                content(stream)
            else:
                stream.write(content)
        digest = _file_sha256(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise EpxaiError(f"cannot write {path}: {exc}") from exc
    finally:
        # the temp path itself is unusable when the parent is not a directory
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
    return digest


def _csv(rows: list) -> str:
    """CSV of dicts that share their keys: a header line, then one line per dict."""
    lines = [rows[0].keys(), *(row.values() for row in rows)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def _read_input(path: Path, error, what: str, missing: str = "") -> tuple:
    """The UTF-8 text (byte-order mark optional) of a file a command takes in,
    and the sha256 of its bytes. A missing, unreadable or non-UTF-8 file raises
    the caller's ``error`` family naming ``what``; ``missing`` ends the message
    of a file that does not exist."""
    try:
        data = path.read_bytes()
        return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}{missing}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc


def _read_run_json(out: Path, rel: str, manifest: dict | None = None) -> dict:
    """The JSON object file ``rel`` of run directory ``out``, checked against the
    hash ``manifest`` records when that is given; any failure is an IncompleteRun."""
    path = out / rel
    text, digest = _read_input(path, IncompleteRun, "run file")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IncompleteRun(f"unreadable run file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IncompleteRun(f"unreadable run file {path}: not a JSON object")
    if manifest is not None:
        _check_recorded(manifest, rel, digest, f"run file {path}")
    return payload


def _read_manifest(out: Path) -> dict | None:
    """The ``manifest.json`` of run directory ``out``, or None when there is none.

    The fields commands index into are checked here, so a manifest of
    another shape is an :class:`IncompleteRun` raised before anything is
    written.
    """
    path = out / "manifest.json"
    if not path.is_file():
        return None
    manifest = _read_run_json(out, "manifest.json")
    stages, inputs = manifest.get("stages"), manifest.get("inputs")
    if not (
        isinstance(stages, dict) and isinstance(inputs, dict)
        and all(
            isinstance(record, dict) and isinstance(record.get("outputs"), dict)
            and all(isinstance(digest, str) for digest in record["outputs"].values())
            for record in stages.values()
        )
        and all(
            isinstance(record, dict) and isinstance(record.get("sha256"), str)
            for record in inputs.values()
        )
    ):
        raise IncompleteRun(
            f"malformed run file {path}: 'stages' must map each stage to its output hashes "
            f"and 'inputs' each input to its sha256"
        )
    return manifest


def _is_recorded(manifest: dict, rel: str) -> bool:
    """Whether a stage of the checked manifest records ``rel``."""
    return any(rel in record["outputs"] for record in manifest["stages"].values())


def _check_recorded(manifest: dict, rel: str, digest, what: str) -> None:
    """The one rule for run files: ``what``, of sha256 ``digest``, serves as ``rel``
    only if the checked manifest records no hash for ``rel`` or records ``digest``."""
    if any(record["outputs"].get(rel, digest) != digest for record in manifest["stages"].values()):
        raise IncompleteRun(f"{what} is not the {rel} this run directory recorded (hash differs)")


def _verified_outputs(out: Path, manifest: dict) -> list:
    """The sorted output paths a checked manifest records; a file that is
    missing, unreadable or changed is an IncompleteRun."""
    for stage, record in sorted(manifest["stages"].items()):
        for rel in record["outputs"]:
            try:
                actual = _file_sha256(out / rel)
            except OSError as exc:
                raise IncompleteRun(f"stage {stage} output {rel} is unreadable: {exc}") from exc
            _check_recorded(manifest, rel, actual, f"stage {stage} output {out / rel}")
    return sorted(rel for record in manifest["stages"].values() for rel in record["outputs"])


class _Stage:
    """The run-directory side of one ``ingest``, ``train`` or ``explain`` command.

    Construction resolves the config and the run directory, reads and hashes
    the dataset and parses it once into ``series`` with ``parse(text,
    market_id)``. It refuses a directory made by another config or from
    another dataset, one with an unreadable or malformed run file, and one
    that holds run files but no manifest, before anything is written. The
    config check leaves out the ``dataset`` and ``out`` paths, so a copied
    or moved run directory can be continued.
    ``write`` and ``figure`` stream each artifact to disk as soon as it exists
    and record its hash; ``finish`` merges the report section, records the
    stage in ``manifest.json`` and prints the stage line. Every file goes
    through :func:`_write_atomic`.
    """

    def __init__(self, args, name: str, parse):
        self.config = config = _config_from_args(args)
        self.name, self.out, self.outputs = name, _run_dir(args, config), {}
        self.threads = args.threads
        self.t0 = time.perf_counter()
        digest = _sha256_text(_canonical_json(config.settings))
        self.manifest = {
            "version": __version__,
            "config": config.echo,
            "config_digest": digest,
            "inputs": {},
            "stages": {},
        }
        existing = _read_manifest(self.out)
        if existing is None:
            # run files without a manifest belong to no recorded run; a new
            # manifest would not list them, yet they would stay beside its files
            for rel in ("model.json", "report.json", "summary.md", "tables", "figures"):
                if (self.out / rel).exists():
                    raise IncompleteRun(
                        f"run directory {self.out} holds {rel} but no manifest.json; "
                        f"use a fresh directory"
                    )
        else:
            if existing.get("config_digest") != digest:
                raise ConfigError(
                    f"run directory {self.out} was produced by a different config "
                    f"(manifest digest {existing.get('config_digest')!r}); "
                    f"use a fresh directory"
                )
            self.manifest["inputs"] = existing["inputs"]
            self.manifest["stages"] = existing["stages"]
        # a report.json that no stage recorded is not this run's: start afresh;
        # a recorded one must still match its hash, or this stage would merge
        # into an edited report and record a fresh hash for the result
        recorded = _is_recorded(self.manifest, "report.json")
        self.report = _read_run_json(self.out, "report.json", self.manifest) if recorded else {}

        # the bytes are dropped before the parse, which is the peak of `ingest`
        text, self.dataset_sha256 = _read_input(config.dataset, DataError, "dataset")
        recorded = self.manifest["inputs"].get("dataset", {}).get("sha256")
        if recorded not in (None, self.dataset_sha256):
            raise DataError(
                f"dataset {config.dataset} changed since this run directory recorded "
                f"it (sha256 {recorded[:16]}..., now {self.dataset_sha256[:16]}...); "
                f"use a fresh directory"
            )
        self.manifest["inputs"]["dataset"] = {"sha256": self.dataset_sha256}
        self.series = parse(text, config.market.market_id)

    def write(self, rel: str, content) -> None:
        """Write one artifact (text, or a writer of the stream) and record its hash."""
        self.outputs[rel] = _write_atomic(self.out / rel, content)

    def figure(self, stem: str, artifact, title: str, unit: str) -> None:
        from .figures import render_figure

        title = f"{self.config.market.market_id} {title}"
        # the SVG and its CSV stream side by side; the CSV is swapped in first
        self.write(f"figures/{stem}.svg", lambda svg: self.write(
            f"tables/{stem}.csv", lambda csv: render_figure(artifact, svg, csv, title, unit)
        ))

    def finish(self, section: dict | None, message: str, **build) -> int:
        if section:
            # every report names its market and settings, so report reads
            # both from it; the absolute dataset and run paths stay in
            # manifest.json, so the report hashes the same wherever it lives
            self.report.update(
                market_id=self.config.market.market_id, config=self.config.settings, **section
            )
            self.write("report.json", _canonical_json(self.report))
        stages = self.manifest["stages"]
        # a file is listed only by the stage that wrote it last, so every
        # recorded hash matches the file on disk
        for record in stages.values():
            for rel in self.outputs:
                record["outputs"].pop(rel, None)
        stages[self.name] = {
            "seconds": round(time.perf_counter() - self.t0, 3),
            # the count every pool ran with: explain's sums, and so its
            # output bytes, depend on it
            "threads": self.threads,
            **build,
            "outputs": dict(sorted(self.outputs.items())),
        }
        _write_atomic(self.out / "manifest.json", _canonical_json(self.manifest))
        print(f"{self.name}: {message}")
        return 0


def _numpy_build() -> dict:
    """numpy's version and its BLAS build, which with the thread count set the
    bits of a run; ``blas`` is None on a numpy whose show_config has no ``mode``."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def cmd_validate(args) -> int:
    config = _config_from_args(args, check_paths=True)
    sys.stdout.write(_canonical_json(config.echo))
    print(f"config ok: {config.market.market_id}, {config.market.n_features} features")
    return 0


def cmd_ingest(args) -> int:
    from .marketcsv import hour_stamp, hours_csv, parse_hours

    stage = _Stage(args, "ingest", lambda text, market_id: parse_hours(text))
    start, *columns = stage.series
    end = start + len(columns[0]) - 1
    stage.write("tables/dataset.csv", hours_csv(start, *columns))
    return stage.finish(None, (
        f"{end - start + 1} hourly rows ({hour_stamp(start)} .. {hour_stamp(end)}) "
        f"-> {stage.out / 'tables/dataset.csv'}"
    ))


def cmd_train(args) -> int:
    import numpy as np

    from .analytics import performance_metrics
    from .data import build_feature_matrix, parse_market_csv
    from .mlp import count_parameters, n_train_instances, predict_prices, save_model, train

    stage = _Stage(args, "train", parse_market_csv)
    config, series = stage.config, stage.series
    features = build_feature_matrix(series, config.market)
    # overflow on a diverging run ends as a non-finite loss, which train
    # reports itself; keep the CLI's stderr to the single error line
    with np.errstate(over="ignore", invalid="ignore"):
        trained = train(config.model_spec, features, config.training)

    predictions = predict_prices(trained, features.values)
    n = features.n_instances
    n_train = n_train_instances(n, config.training.validation_fraction)
    ranges = {"train": slice(0, n_train), "validation": slice(n_train, n)}
    scopes = {
        scope: asdict(performance_metrics(predictions[r], features.targets[r], features.naive[r]))
        for scope, r in ranges.items()
        if r.start < r.stop
    }

    stage.write("model.json", save_model(trained))
    stage.write("tables/performance.csv", _csv([{"scope": s, **m} for s, m in scopes.items()]))
    val_maes = [h["val_mae"] for h in trained.history if h["val_mae"] is not None]
    fit = scopes["train"]
    return stage.finish({
        "data": {
            "dataset_sha256": stage.dataset_sha256,
            "n_hours": series.n_hours,
            "n_instances": n,
            "first_day": str(features.instances[0]),
            "last_day": str(features.instances[-1]),
        },
        "performance": scopes,
        "training": {
            "epochs_run": len(trained.history),
            "best_val_mae": min(val_maes) if val_maes else None,
            "n_parameters": count_parameters(trained),
        },
    }, (
        f"{len(trained.history)} epochs, train MAE {fit['mae']:.3f} "
        f"{config.market.currency}/MWh (rMAE {fit['rmae']:.3f}) -> {stage.out / 'model.json'}"
    ), **_numpy_build())


def _instance_subset(features, config: RunConfig) -> np.ndarray:
    import numpy as np

    n = features.n_instances
    max_instances = config.echo["attribution"]["max_instances"]
    if max_instances is None or max_instances >= n:
        indices = np.arange(n)
    else:
        indices = np.unique(
            np.round(np.linspace(0, n - 1, max_instances)).astype(np.intp)
        )
    if config.echo["instance_dates"]:
        ids = features.instance_ids()
        extra = []
        for date in config.echo["instance_dates"]:
            try:
                extra.append(ids.index(date))
            except ValueError:
                raise DataError(
                    f"instance date {date} is not a delivery day of this run "
                    f"({ids[0]} .. {ids[-1]})"
                ) from None
        indices = np.unique(np.concatenate([indices, np.asarray(extra, dtype=np.intp)]))
    return indices


def _sshap_csv(tensor, out) -> None:
    from .attribution import tensor_csv

    prefixes = [f"{label}," for label in tensor.columns]
    header = "instance_id,output_hour,group,value"
    tensor_csv(tensor, header, prefixes, out)


def cmd_explain(args) -> int:
    import numpy as np

    from .analytics import beeswarm_table, complexity_metrics, heatmap, hourly_importance
    from .attribution import attribution_to_csv, explain_dataset, sample_background
    from .data import build_feature_matrix, parse_market_csv
    from .figures import instance_stack
    from .mlp import load_model, predict_prices
    from .sshap import aggregate, expected_slope, slope_check, sshap_line

    stage = _Stage(args, "explain", parse_market_csv)
    config = stage.config
    attribution = config.echo["attribution"]
    smoothing = config.echo["lines"]
    model_path = Path(args.model) if getattr(args, "model", None) else stage.out / "model.json"
    text, model_sha256 = _read_input(model_path, ModelError, "model file", "; run train first")
    try:
        trained = load_model(text)
    except ModelError as exc:
        raise ModelError(f"model file {model_path}: {exc}") from exc
    del text  # the model's base64 text is not held through the walks
    # whatever its path, the model must be the model.json a stage recorded
    _check_recorded(stage.manifest, "model.json", model_sha256, f"model file {model_path}")
    if trained.spec != config.model_spec:
        raise ModelError(
            f"model file {model_path} was trained with different settings than "
            f"the config describes (architecture, scalers, or seed differ)"
        )

    features = build_feature_matrix(stage.series, config.market)
    indices = _instance_subset(features, config)
    background = sample_background(
        features, size=attribution["background_size"], seed=attribution["seed"]
    )
    shap_tensor, grad_tensor = explain_dataset(
        trained,
        features,
        background,
        n_pairs=attribution["n_pairs"],
        seed=attribution["seed"],
        antithetic=attribution["antithetic"],
        instance_indices=indices,
    )
    grouped = {
        name: aggregate(shap_tensor, part) for name, part in config.partitions.items()
    }
    sshap_default = grouped["default"]
    # the lines with their slope check (too few grid points in the band) and
    # the complexity metrics (fewer than two instances) can refuse the data,
    # so they run before any write
    prices = features.targets[indices]
    lines = sshap_line(sshap_default, prices, grid_size=smoothing["grid_size"])
    band_abs = None
    if smoothing["band"] is not None:
        band_abs = tuple(float(v) for v in np.percentile(prices, smoothing["band"]))
    check = slope_check(lines, band=band_abs)
    expected = expected_slope(sshap_default, prices, band=band_abs)
    shap_grid = heatmap(shap_tensor, "mean_abs")
    complexity = complexity_metrics(grad_tensor, shap_grid, threshold=0.5)

    stage.write("tables/shap.csv", partial(attribution_to_csv, shap_tensor))
    stage.write("tables/gradient.csv", partial(attribution_to_csv, grad_tensor))
    for name, tensor in grouped.items():
        stage.write(f"tables/sshap_{name}.csv", partial(_sshap_csv, tensor))

    unit = f"{config.market.currency}/MWh"
    stage.figure("heatmap_shap", shap_grid, "mean |contribution|", unit)
    stage.figure(
        "heatmap_gradient", heatmap(grad_tensor, "mean"), "mean gradient",
        f"{unit} per normalised input",
    )
    stage.figure("importance", hourly_importance(sshap_default), "hourly importance", unit)
    stage.figure(
        "beeswarm",
        beeswarm_table(
            shap_tensor, features.values[indices], top_k=config.echo["beeswarm_top_k"]
        ),
        "top features", unit,
    )
    stage.figure("lines", lines, "group value vs price", unit)

    stage.write("tables/complexity.csv", _csv([asdict(complexity)]))

    for date in config.echo["instance_dates"]:
        row_index = indices[sshap_default.instance_ids.index(date)]
        forecast = predict_prices(trained, features.values[row_index])
        stage.figure(
            f"instance_{date}", instance_stack(sshap_default, date, forecast),
            f"contributions {date}", unit,
        )

    return stage.finish({
        "explain": {
            "n_instances_explained": int(len(indices)),
            "n_pairs": attribution["n_pairs"],
            "background_size": background.size,
            "antithetic": attribution["antithetic"],
            "seed": attribution["seed"],
            "baseline": [float(v) for v in sshap_default.baseline],
            "partitions": {
                name: list(part.labels) for name, part in config.partitions.items()
            },
            "slope_check": {
                **asdict(check),
                "expected_slope": expected,
                "bandwidth": lines.bandwidth,
                "band_percentiles": smoothing["band"],
                "band_prices": list(band_abs) if band_abs else None,
            },
            "complexity": asdict(complexity),
        },
    }, (
        f"{len(indices)} instances, slope {check.slope:.3f}, "
        f"non-linearity {complexity.non_linearity:.3f} -> {stage.out}"
    ), model_sha256=model_sha256, **_numpy_build())


def _markdown_table(header: list, rows: list) -> list:
    cells = ["| " + " | ".join(map(str, row)) + " |" for row in (header, *rows)]
    return [cells[0], "|" + "|".join(" --- " for _ in header) + "|", *cells[1:]]


def cmd_report(args) -> int:
    out = _run_dir(args, _config_from_args(args) if args.config else None)
    manifest = _read_manifest(out)
    if manifest is None:
        raise IncompleteRun(f"missing manifest: {out / 'manifest.json'}")
    if not _is_recorded(manifest, "report.json"):
        raise IncompleteRun(f"no stage of {out} recorded report.json; run train and explain first")
    report = _read_run_json(out, "report.json")
    # the explanations must come from the model whose accuracy the report shows
    explained = manifest["stages"].get("explain")
    if explained:
        _check_recorded(manifest, "model.json", explained.get("model_sha256"), "explain's model")
    # summary.md lists and embeds only files whose recorded hashes match
    verified = _verified_outputs(out, manifest)
    figures = [rel for rel in verified if rel.startswith("figures/")]
    tables = [rel for rel in verified if rel.startswith("tables/")]

    config = report["config"]
    unit = f"{config['market']['currency']}/MWh"
    lines = [
        f"# {report['market_id']} run summary",
        "",
        f"Produced by epxai {manifest.get('version', '?')}.",
        "",
    ]

    data = report.get("data")
    if data:
        lines += [
            "## Data",
            "",
            f"- dataset sha256: `{data['dataset_sha256'][:16]}...`",
            f"- hourly rows: {data['n_hours']}, delivery days modelled: {data['n_instances']}",
            f"- span: {data['first_day']} to {data['last_day']}",
            "",
        ]

    lines += ["## Performance", ""]
    performance = report.get("performance")
    if performance:
        lines += _markdown_table(
            ["scope", f"MAE [{unit}]", "rMAE", "sMAPE", f"RMSE [{unit}]", "hours"],
            [
                [scope, *(f"{m[k]:.4f}" for k in ("mae", "rmae", "smape", "rmse")),
                 m["n_observations"]]
                for scope, m in performance.items()
            ],
        )
    else:
        lines.append("Not produced yet (run train).")
    lines.append("")

    lines += ["## Complexity", ""]
    explain = report.get("explain")
    if explain:
        c = explain["complexity"]
        lines += _markdown_table(
            [
                f"non-linearity [{unit}]", f"non-homogeneity [{unit}]",
                "important variables per hour", f"threshold [{unit}]",
            ],
            [[
                f"{c['non_linearity']:.4f}", f"{c['non_homogeneity']:.4f}",
                f"{c['important_vars_per_hour']:.2f}", c["threshold"],
            ]],
        )
        lines.append("")
        s = explain["slope_check"]
        band = s.get("band_percentiles")
        lines += [
            "## Additivity check",
            "",
            f"Summed group curves plus the smoothed baseline against the realised "
            f"price: slope {s['slope']:.4f} (expected cov(p, y)/var(y) "
            f"{s['expected_slope']:.4f}), intercept {s['intercept']:.2f}, max deviation "
            f"{s['max_deviation']:.4g} over {s['n_points']} grid points"
            + (f" inside the {band[0]:g}-{band[1]:g} percentile band" if band else "") + ".",
            "",
            f"Explained instances: {explain['n_instances_explained']} "
            f"({explain['n_pairs']} permutation pairs, background "
            f"{explain['background_size']}, seed {explain['seed']}).",
        ]
    else:
        lines.append("Not produced yet (run explain).")
    lines.append("")

    lines += ["## Figures", ""]
    for rel in figures:
        stem = Path(rel).stem
        lines += [f"### {stem}", "", f"![{stem}]({rel})", ""]
    if not figures:
        lines += ["No figures produced yet.", ""]
    if tables:
        lines += ["## Tables", "", *(f"- `{rel}`" for rel in tables), ""]

    # from the settings of report.json, whose hash _verified_outputs checked
    seeds = {k: config[k]["seed"] for k in ("model", "training", "attribution")}
    seeds["master"] = config["seed"]
    lines += [
        "## Reproducibility",
        "",
        "- seeds: " + ", ".join(f"{k} {v}" for k, v in sorted(seeds.items())),
    ]
    for name, record in sorted(manifest["inputs"].items()):
        lines.append(f"- input {name}: sha256 `{record['sha256'][:16]}...`")
    for stage, record in sorted(manifest["stages"].items()):
        lines.append(f"- stage {stage}: {len(record['outputs'])} files")
    lines.append("")

    _write_atomic(out / "summary.md", "\n".join(lines))
    print(f"report: {len(figures)} figures, {len(tables)} tables -> {out / 'summary.md'}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    if args.seed is not None:
        try:
            _SEED(args.seed, "--seed")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    results = oracle.run_all(args.seed)
    for result in results:
        print(result.line)
    if args.out:
        out = Path(args.out)
        payload = {
            "seed": args.seed,
            "results": [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results],
        }
        _write_atomic(out / "oracle.json", _canonical_json(payload))
        print(f"wrote {out / 'oracle.json'}")
    return 0 if all(r.passed for r in results) else 1


def _run_dir(args, config: RunConfig | None) -> Path:
    """The run directory: ``--out``, else the config's ``out``."""
    out = config.out if config is not None else args.out
    if not out:
        raise ConfigError('no run directory: pass --out or give the config "out"')
    return Path(out)


def _config_from_args(args, check_paths: bool = False) -> RunConfig:
    if not getattr(args, "config", None):
        raise ConfigError("a --config file is required")
    return load_config(Path(args.config), out_override=args.out, check_paths=check_paths)


_COMMANDS = {
    "validate": cmd_validate,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "explain": cmd_explain,
    "report": cmd_report,
    "oracle": cmd_oracle,
}


def dispatch(args) -> int:
    """Run one subcommand; a package error exits with its family's exit code."""
    try:
        return _COMMANDS[args.command](args)
    except EpxaiError as exc:
        print(f"error: {exc.exit_code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a size the config allows but the host cannot allocate: model.hidden1,
        # lines.grid_size and attribution.n_pairs are allocated before the
        # command's first write, so nothing is left half-written
        print(f"error: 1: out of memory: {exc}", file=sys.stderr)
        return 1
