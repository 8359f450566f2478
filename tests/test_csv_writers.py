"""CSV writers: byte-for-byte equal to plain per-cell reference loops.

The writers format whole rows at once from ``tolist()`` values; each
reference below writes one cell at a time from numpy scalars, the simplest
form of the same contract (shortest round-trip ``repr`` for every value).
"""

import csv
import hashlib
import io
import tracemalloc
from functools import partial

import numpy as np

from epxai.attribution import AttributionTensor, attribution_to_csv
from epxai.data import HourlySeries
from epxai.marketcsv import hours_csv
from epxai.markets import FeatureId, Partition
from epxai.pipeline import _sshap_csv, _write_atomic
from epxai.sshap import SshapTensor

# Signed zero, the smallest subnormal and a value repr writes in exponent form.
SPECIAL = np.array([-0.0, 5e-324, 1e16, 0.1, -2.5, 1e-7, 123456.789])


def _written(writer, *args):
    """The text a stream writer writes into a string stream."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def _values(shape, seed=0):
    values = np.random.default_rng(seed).normal(scale=40.0, size=shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL
    flat[-len(SPECIAL):] = SPECIAL[::-1]
    return values


def _series_csv_reference(series):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["timestamp", "price", "exog1", "exog2"])
    stamps = (np.datetime64(series.start, "h") + np.arange(series.n_hours)).astype("datetime64[s]")
    for i in range(series.n_hours):
        writer.writerow(
            [
                str(stamps[i]).replace("T", " "),
                repr(float(series.price[i])),
                repr(float(series.exog1[i])),
                repr(float(series.exog2[i])),
            ]
        )
    return out.getvalue()


def _attribution_csv_reference(tensor):
    lines = ["instance_id,output_hour,group,input_hour,value"]
    for k, instance_id in enumerate(tensor.instance_ids):
        for h in range(24):
            for j, fid in enumerate(tensor.feature_ids):
                hour = "" if fid.hour is None else str(fid.hour)
                value = float(tensor.values[k, h, j])
                lines.append(f"{instance_id},{h},{fid.group},{hour},{value!r}")
    return "\n".join(lines) + "\n"


def _sshap_csv_reference(tensor):
    lines = ["instance_id,output_hour,group,value"]
    for i, instance_id in enumerate(tensor.instance_ids):
        for h in range(24):
            for g, label in enumerate(tensor.partition.labels):
                value = float(tensor.values[i, h, g])
                lines.append(f"{instance_id},{h},{label},{value!r}")
    return "\n".join(lines) + "\n"


FEATURES = (
    *(FeatureId("Price D-1", h) for h in range(24)),
    FeatureId("Load Forecast D", 7),
    FeatureId("Day of week", None),
)
INSTANCES = ["1969-12-31", "2013-04-01", "2013-04-02"]


def test_hours_csv_matches_reference():
    # Starts before 1970 and crosses midnight into the epoch.
    values = _values((3, 30), seed=1)
    series = HourlySeries(
        market_id="DE",
        start=-6,
        price=values[0],
        exog1=values[1],
        exog2=values[2],
    )
    text = hours_csv(-6, *values.tolist())
    assert text == _series_csv_reference(series)
    assert text.startswith("timestamp,price,exog1,exog2\n1969-12-31 18:00:00,-0.0,")
    assert "\n1969-12-31 19:00:00,5e-324," in text
    assert "\n1969-12-31 20:00:00,1e+16," in text


def test_attribution_to_csv_matches_reference():
    tensor = AttributionTensor(
        kind="shap",
        instance_ids=INSTANCES,
        feature_ids=FEATURES,
        values=_values((len(INSTANCES), 24, len(FEATURES)), seed=2),
        baseline=np.zeros(24),
    )
    text = _written(attribution_to_csv, tensor)
    assert text == _attribution_csv_reference(tensor)
    assert "\n1969-12-31,0,Price D-1,0,-0.0\n" in text
    assert "\n2013-04-02,23,Day of week,,-0.0\n" in text


def test_attribution_to_csv_with_no_instances():
    tensor = AttributionTensor(
        kind="gradient", instance_ids=[], feature_ids=FEATURES,
        values=np.zeros((0, 24, len(FEATURES))),
    )
    assert _written(attribution_to_csv, tensor) == _attribution_csv_reference(tensor)


def test_sshap_csv_matches_reference():
    partition = Partition(
        groups=(
            ("Price D-1", FEATURES[:24]),
            ("Load & <rest>", FEATURES[24:]),
        )
    )
    tensor = SshapTensor(
        instance_ids=INSTANCES,
        partition=partition,
        values=_values((len(INSTANCES), 24, 2), seed=3),
        baseline=np.zeros(24),
    )
    text = _written(_sshap_csv, tensor)
    assert text == _sshap_csv_reference(tensor)
    assert "\n1969-12-31,0,Price D-1,-0.0\n" in text
    assert ",Load & <rest>,5e-324\n" in text


def test_tensor_csv_streams_in_bounded_memory(tmp_path):
    # Written one instance at a time, a (64, 24, 144) tensor (the NP shape)
    # makes an 8.4 MB CSV with a traced peak of 0.48 MB, 0.057 of the file,
    # measured on CPython 3.11. Formatting the whole text before one write
    # peaked at 17.2 MB, 2.04 times the file. A bound of an eighth of the file
    # leaves room for other Python versions and fails any path that holds
    # the whole text.
    features = tuple(FeatureId(f"Group {j // 24}", j % 24) for j in range(144))
    tensor = AttributionTensor(
        kind="shap",
        instance_ids=[f"2013-01-{1 + k % 28:02d}" for k in range(64)],
        feature_ids=features,
        values=_values((64, 24, len(features)), seed=4),
        baseline=np.zeros(24),
    )
    path = tmp_path / "shap.csv"
    tracemalloc.start()
    try:
        digest = _write_atomic(path, partial(attribution_to_csv, tensor))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 8_000_000
    assert peak < size / 8
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
