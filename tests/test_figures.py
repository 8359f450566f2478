"""SVG/CSV rendering checks: determinism, value mirroring, SVG hygiene."""

import hashlib
import io
import re
from types import SimpleNamespace

import numpy as np
import pytest

from epxai.analytics import (
    BeeswarmRow,
    BeeswarmTable,
    HeatmapGrid,
    ImportanceTable,
    heatmap,
)
from epxai.attribution import AttributionTensor
from epxai.figures import InstanceStack, _ramp, instance_stack, render_figure
from epxai.markets import FeatureId
from epxai.sshap import SshapLines

_DATA_VALUE = re.compile(r'data-value="([^"]+)"')
_DATA_ATTR = re.compile(r'\sdata-([\w-]+)=')


def _data_values(svg):
    return [float(m) for m in _DATA_VALUE.findall(svg)]


def _render(artifact, title="figure", unit="EUR/MWh"):
    """The SVG and CSV text render_figure writes into two string streams."""
    svg, csv = io.StringIO(), io.StringIO()
    assert render_figure(artifact, svg, csv, title, unit) is None
    return SimpleNamespace(svg=svg.getvalue(), csv=csv.getvalue())


def _csv_rows(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _heatmap(rng, n_blocks=2, signed=True):
    values = rng.normal(size=(n_blocks, 24, 24))
    if not signed:
        values = np.abs(values)
    return HeatmapGrid(
        aggregation="mean" if signed else "mean_abs",
        blocks=tuple(f"Group {b}" for b in range(n_blocks)),
        values=values,
    )


def _lines(rng, n_lines=2, baseline=12.5):
    grid = np.linspace(10.0, 90.0, 40)
    values = np.array([
        np.sin(grid / (8.0 + k)) * 5.0 + rng.normal(scale=0.1, size=40)
        for k in range(n_lines)
    ])
    return SshapLines(
        labels=tuple(f"Series {k}" for k in range(n_lines)),
        grid=grid,
        values=values,
        bandwidth=5.0,
        baseline=baseline + np.cos(grid / 10.0),
    )


def _beeswarm(rng, n_rows=3, n_instances=4, group="Price D-1"):
    rows = []
    for k in range(n_rows):
        rows.append(
            BeeswarmRow(
                feature=FeatureId(group=group, hour=k),
                score=float(n_rows - k),
                feature_values=rng.normal(size=n_instances),
                shap_values=rng.normal(size=(n_instances, 24)),
            )
        )
    ids = [f"2020-01-{d + 1:02d}" for d in range(n_instances)]
    return BeeswarmTable(rows=rows, instance_ids=ids)


def _stack(rng):
    contributions = rng.normal(size=(3, 24, 2))
    baseline = rng.normal(size=24)
    tensor = AttributionTensor(
        instance_ids=["2020-02-01", "2020-02-02", "2020-02-03"],
        columns=("Price D-1", "Load Forecast D"),
        values=contributions,
        baseline=baseline,
    )
    forecast = baseline + contributions[1].sum(axis=1)
    return tensor, forecast


class TestDeterminism:
    def test_identical_bytes_per_artifact(self):
        rng = np.random.default_rng(3)
        grid = _heatmap(rng)
        lines = _lines(np.random.default_rng(4))
        table = ImportanceTable(
            groups=("A", "B"), values=np.abs(rng.normal(size=(24, 2)))
        )
        swarm = _beeswarm(np.random.default_rng(5))
        tensor, forecast = _stack(np.random.default_rng(6))
        stack = instance_stack(tensor, "2020-02-02", forecast)
        for artifact in (grid, lines, table, swarm, stack):
            first = _render(artifact)
            second = _render(artifact)
            assert first.svg == second.svg
            assert first.csv == second.csv

    def test_writes_one_svg_document(self):
        fig = _render(_heatmap(np.random.default_rng(0)))
        assert fig.svg.startswith("<svg ")
        assert fig.svg.endswith("</svg>\n") and fig.svg.count("</svg>") == 1
        assert fig.csv.endswith("\n")

    def test_unknown_artifact_rejected(self):
        for artifact in ({"not": "renderable"}, []):
            svg, csv = io.StringIO(), io.StringIO()
            with pytest.raises(TypeError):
                render_figure(artifact, svg, csv, "figure", "EUR/MWh")
            assert svg.getvalue() == csv.getvalue() == ""


class TestHeatmapFigure:
    def test_csv_mirrors_svg_data_values(self):
        grid = _heatmap(np.random.default_rng(7), n_blocks=3)
        fig = _render(grid)
        header, rows = _csv_rows(fig.csv)
        assert header == [
            "block", "output_hour", "input_hour", "value", "scale_min", "scale_max",
        ]
        assert len(rows) == 3 * 24 * 24
        csv_values = [float(r[3]) for r in rows]
        assert csv_values == _data_values(fig.svg)

    def test_csv_rows_match_grid_entries(self):
        grid = _heatmap(np.random.default_rng(8), n_blocks=1)
        _, rows = _csv_rows(_render(grid).csv)
        for block, out_h, in_h, value, _, _ in rows:
            assert block == "Group 0"
            assert float(value) == grid.values[0, int(out_h), int(in_h)]

    def test_scale_columns_are_constant_and_symmetric_when_signed(self):
        grid = _heatmap(np.random.default_rng(9), signed=True)
        _, rows = _csv_rows(_render(grid).csv)
        lo = {r[4] for r in rows}
        hi = {r[5] for r in rows}
        assert len(lo) == 1 and len(hi) == 1
        vmax = float(np.max(np.abs(grid.values)))
        assert float(hi.pop()) == vmax
        assert float(lo.pop()) == -vmax

    def test_magnitude_grid_scale_starts_at_zero(self):
        grid = _heatmap(np.random.default_rng(10), signed=False)
        _, rows = _csv_rows(_render(grid).csv)
        assert float(rows[0][4]) == 0.0
        assert float(rows[0][5]) == float(grid.values.max())

    def test_gradient_magnitudes_use_the_sequential_ramp(self):
        # a map of magnitudes is unsigned, whatever tensor it was taken from
        gradients = AttributionTensor(
            instance_ids=["a", "b", "c"],
            columns=tuple(FeatureId("A", h) for h in range(24)),
            values=np.random.default_rng(12).normal(size=(3, 24, 24)),
        )
        grid = heatmap(gradients, "mean_abs")
        fig = _render(grid)
        _, rows = _csv_rows(fig.csv)
        assert float(rows[0][4]) == 0.0
        cells = re.findall(r'<rect [^>]*/>', fig.svg)[1:-24]
        fills = [re.search(r'fill="([^"]+)"', cell).group(1) for cell in cells]
        expected = _ramp(grid.values[0] / grid.values.max(), False)
        assert fills == [fill for row in expected for fill in row]

    def test_one_rect_per_cell(self):
        grid = _heatmap(np.random.default_rng(11), n_blocks=2)
        svg = _render(grid).svg
        # the white background comes first and the 24 legend steps last
        cells = re.findall(r'<rect [^>]*/>', svg)[1:-24]
        assert len(cells) == 2 * 24 * 24
        assert all("data-value=" in cell for cell in cells)
        corners = {re.search(r'x="([^"]+)" y="([^"]+)"', cell).groups() for cell in cells}
        assert len(corners) == len(cells)


class TestLineFigure:
    def test_finite_points_mirror_csv(self):
        lines = _lines(np.random.default_rng(14))
        fig = _render(lines)
        _, rows = _csv_rows(fig.csv)
        values = [float(r[2]) for r in rows]
        assert all(np.isfinite(values))
        assert values == _data_values(fig.svg)

    def test_one_polyline_per_series(self):
        svg = _render(_lines(np.random.default_rng(13), n_lines=3)).svg
        assert len(re.findall(r'<polyline[^>]*stroke-width="1.5"', svg)) == 3
        assert len(re.findall(r'<polyline[^>]*stroke-dasharray="5,4"', svg)) == 1

    def test_baseline_draws_identity_reference(self):
        lines = _lines(np.random.default_rng(15), baseline=30.0)
        fig = _render(lines)
        _, rows = _csv_rows(fig.csv)
        reference = [float(r[2]) for r in rows if r[0] == "price_minus_baseline"]
        assert reference == list(lines.grid - lines.baseline)
        # the reference series is drawn first, in grey under the group lines
        circles = re.findall(r'<circle [^>]*/>', fig.svg)
        assert [c for c in circles if 'fill="#888"' in c] == circles[:40]
        assert _data_values("".join(circles[:40])) == reference
        assert ">price - baseline</text>" in fig.svg

    def test_csv_carries_group_price_value(self):
        lines = _lines(np.random.default_rng(16))
        header, rows = _csv_rows(_render(lines).csv)
        assert header == ["group", "grid_price", "value"]
        assert [r[0] for r in rows[::40]] == ["price_minus_baseline", "Series 0", "Series 1"]
        assert [float(r[1]) for r in rows[:40]] == list(lines.grid)
        assert len(rows) == 3 * 40


class TestImportanceFigure:
    def test_values_round_trip(self):
        rng = np.random.default_rng(17)
        table = ImportanceTable(
            groups=("Price D-1", "Load Forecast D", "Day of week"),
            values=np.abs(rng.normal(size=(24, 3))),
        )
        fig = _render(table)
        header, rows = _csv_rows(fig.csv)
        assert header == ["group", "output_hour", "value"]
        assert len(rows) == 24 * 3
        for group, hour, value in rows:
            k = table.groups.index(group)
            assert float(value) == table.values[int(hour), k]
        assert _data_values(fig.svg) == [float(r[2]) for r in rows]

    def test_label_escaping(self):
        table = ImportanceTable(
            groups=("A<B&C",), values=np.ones((24, 1))
        )
        svg = _render(table).svg
        assert "A&lt;B&amp;C" in svg
        assert "A<B&C" not in svg


class TestBeeswarmFigure:
    def test_point_count_and_mirroring(self):
        table = _beeswarm(np.random.default_rng(18), n_rows=2, n_instances=3)
        fig = _render(table)
        header, rows = _csv_rows(fig.csv)
        assert header == [
            "feature", "instance_id", "output_hour", "feature_value", "shap_value",
        ]
        assert len(rows) == 2 * 3 * 24
        assert [float(r[4]) for r in rows] == _data_values(fig.svg)

    def test_rows_keep_ranking_order(self):
        table = _beeswarm(np.random.default_rng(19), n_rows=3, n_instances=2)
        _, rows = _csv_rows(_render(table).csv)
        order = []
        for r in rows:
            if r[0] not in order:
                order.append(r[0])
        assert order == [str(row.feature) for row in table.rows]

    def test_csv_values_match_table(self):
        table = _beeswarm(np.random.default_rng(20), n_rows=1, n_instances=2)
        _, rows = _csv_rows(_render(table).csv)
        row = table.rows[0]
        for i, instance_id in enumerate(table.instance_ids):
            for h in range(24):
                cells = rows[i * 24 + h]
                assert cells[1] == instance_id
                assert int(cells[2]) == h
                assert float(cells[3]) == row.feature_values[i]
                assert float(cells[4]) == row.shap_values[i, h]

    def test_coordinates_match_per_point_layout(self):
        # the renderer lays out whole rows with numpy; this is the per-point
        # arithmetic it must reproduce, jitter index included, text for text
        table = _beeswarm(np.random.default_rng(31), n_rows=20, n_instances=40)
        vmax = max(float(np.max(np.abs(row.shap_values))) for row in table.rows)
        x0, x1 = -vmax, vmax
        expected, point = [], 0
        for r, row in enumerate(table.rows):
            cy = 48.0 + 30.0 * (r + 0.5)
            for v in row.shap_values.ravel().tolist():
                jitter = ((point * 0.6180339887498949) % 1.0 - 0.5) * 30.0 * 0.7
                point += 1
                cx = 230.0 + (v - x0) / (x1 - x0) * 430.0
                expected.append((f"{cx:.2f}", f"{cy + jitter:.2f}"))
        svg = _render(table).svg
        assert re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg) == expected


class TestStackFigure:
    def test_builder_by_day(self):
        tensor, forecast = _stack(np.random.default_rng(21))
        stack = instance_stack(tensor, "2020-02-02", forecast)
        assert stack.groups == tensor.columns
        np.testing.assert_array_equal(stack.contributions, tensor.values[1])
        np.testing.assert_array_equal(stack.baseline, tensor.baseline)

    def test_builder_rejects_unknown_instance(self):
        tensor, forecast = _stack(np.random.default_rng(22))
        with pytest.raises(KeyError):
            instance_stack(tensor, "2031-01-01", forecast)
        with pytest.raises(KeyError):
            instance_stack(tensor, 99, forecast)
        with pytest.raises(ValueError):
            instance_stack(tensor, "2020-02-01", forecast[:12])

    def test_csv_holds_groups_plus_net_line(self):
        tensor, forecast = _stack(np.random.default_rng(23))
        stack = instance_stack(tensor, "2020-02-01", forecast)
        fig = _render(stack)
        header, rows = _csv_rows(fig.csv)
        assert header == ["series", "output_hour", "value"]
        series = {r[0] for r in rows}
        assert series == {"Price D-1", "Load Forecast D", "forecast_minus_baseline"}
        assert len(rows) == 24 * 3
        net = {int(r[1]): float(r[2]) for r in rows if r[0] == "forecast_minus_baseline"}
        expected = stack.forecast - stack.baseline
        for h in range(24):
            assert net[h] == expected[h]

    def test_bar_heights_are_nonnegative(self):
        tensor, forecast = _stack(np.random.default_rng(24))
        svg = _render(instance_stack(tensor, "2020-02-03", forecast)).svg
        # background and frame first; last, a legend swatch per group and
        # one for the forecast line
        bars = re.findall(r'<rect [^>]*/>', svg)[2:-3]
        assert len(bars) == 24 * 2
        heights = [float(re.search(r' height="([^"]+)"', bar).group(1)) for bar in bars]
        assert all(h >= 0.0 for h in heights)


class TestSvgHygiene:
    def test_no_nan_or_scientific_coordinates(self):
        rng = np.random.default_rng(25)
        artifacts = [
            _heatmap(rng),
            _lines(np.random.default_rng(26)),
            _beeswarm(np.random.default_rng(27)),
        ]
        tensor, forecast = _stack(np.random.default_rng(28))
        artifacts.append(instance_stack(tensor, "2020-02-01", forecast))
        for artifact in artifacts:
            svg = _render(artifact).svg
            for attr in ("cx", "cy", "x1", "y1", "x2", "y2"):
                for text in re.findall(rf'{attr}="([^"]+)"', svg):
                    assert "nan" not in text.lower()
                    assert "e" not in text.lower()
            for pts in re.findall(r'points="([^"]+)"', svg):
                assert "nan" not in pts.lower()

    def test_figures_set_viewbox_and_font(self):
        fig = _render(_heatmap(np.random.default_rng(29)))
        assert 'viewBox="0 0 ' in fig.svg
        assert 'font-family="sans-serif"' in fig.svg


def _mix_reference(c1, c2, t):
    """One fill mixed per value in Python, as the renderers did before _ramp."""
    a, b = (tuple(int(c[i : i + 2], 16) for i in (1, 3, 5)) for c in (c1, c2))
    return "#{:02x}{:02x}{:02x}".format(*(round(x + (y - x) * t) for x, y in zip(a, b)))


def _ramp_reference(t, diverging):
    t = min(max(t, 0.0), 1.0)
    if not diverging:
        return _mix_reference("#f7fbff", "#08306b", t)
    if t < 0.5:
        return _mix_reference("#2166ac", "#f7f7f7", t * 2.0)
    return _mix_reference("#f7f7f7", "#b2182b", (t - 0.5) * 2.0)


@pytest.mark.parametrize("diverging", [False, True])
def test_ramp_matches_per_value_mixing(diverging):
    # k / 478 and k / 956 put channels exactly halfway between two integers,
    # where round and np.rint both round to even; the ends test the clipping
    t = np.concatenate([
        np.arange(479) / 478, np.arange(957) / 956,
        np.random.default_rng(30).uniform(-0.2, 1.2, 2001), [-0.0, 0.5, np.nextafter(0.5, 0)],
    ]).reshape(2, -1)
    expected = [[_ramp_reference(v, diverging) for v in row] for row in t.tolist()]
    assert _ramp(t, diverging) == expected


def _pinned_artifacts():
    """Fixed artefacts for the byte pins, one per renderer path, each with the
    title it is rendered under."""
    swarm = _beeswarm(
        np.random.default_rng(105), n_rows=2, n_instances=3,
        group="Load <MW> & Price",
    )
    tensor, forecast = _stack(np.random.default_rng(106))
    return {
        "heatmap-signed": (_heatmap(np.random.default_rng(101)), "attribution heatmap"),
        "heatmap-magnitude": (
            _heatmap(np.random.default_rng(102), n_blocks=1, signed=False), "attribution heatmap",
        ),
        "lines-baseline-curve": (
            _lines(np.random.default_rng(103)), "group value vs price",
        ),
        "importance": (ImportanceTable(
            groups=("Price D-1", "Load Forecast D", "Day of week"),
            values=np.abs(np.random.default_rng(104).normal(size=(24, 3))),
        ), "hourly importance"),
        "beeswarm-escaped": (swarm, "top features"),
        "stack-negative": (
            instance_stack(tensor, "2020-02-02", forecast), "contributions 2020-02-02",
        ),
    }


# sha256 of (svg, csv) per renderer path. A change here changes the bytes of
# every figure in every run directory, so it must be deliberate.
_PINNED = {
    "beeswarm-escaped": (
        "d2016d225bd6a2f77c13ddc0a4429b25b18252960cb910d32646cec0f38072c4",
        "9858a84921e4d630ae38b3bfb6750536c072fb49bc5af7df493eec19148f0d1f",
    ),
    "heatmap-magnitude": (
        "48c89322a6548a40f468dba491aca7407c4e2b56f59e00ff93cff7354de5f2b9",
        "2ada41c8f351e5d5a7f8bd8711a97a4008ceb26089c62ee014b5850a1fd888c5",
    ),
    "heatmap-signed": (
        "99785854301aea6eee2f8ae869f7615df03b92a127ce484c25c174c9977bcb58",
        "537a6ba79af0d5bc9b062f641520942d8c9003d5622d64b37d8813a2c3434a23",
    ),
    "importance": (
        "326261916003bb47d65f8345b2148920c13c8c45263da4f18497ca3baaacf062",
        "87a81f3b60bb5fcc329f90f8cb554cab79bd5af773c6b5fe23c30a733b302ac6",
    ),
    "lines-baseline-curve": (
        "95ca4a3a219af7ba8069a208bdf6d809ae05a83ec30868e78805cd82145b6913",
        "8b0069657ad5961dc1f80ebd7b49b63f4410bc1eb965b84c723c404473c5855e",
    ),
    "stack-negative": (
        "2309d2f3501104346cec60f6bde02ab74c901e2c9dbe0121151046f26a96eabd",
        "07332006bf93deb4a09df9f8bd9411fc1d79e4b7708f21c6bfad7607d14c3fe1",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_marks_follow_csv_rows(case):
    """Mark i carries CSV row i's value, and the SVG repeats none of the keys."""
    fig = _render(*_pinned_artifacts()[case])
    header, rows = _csv_rows(fig.csv)
    column = header.index("shap_value" if "shap_value" in header else "value")
    assert _DATA_VALUE.findall(fig.svg) == [r[column] for r in rows]
    assert set(_DATA_ATTR.findall(fig.svg)) == {"value"}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_rendered_bytes_are_pinned(case):
    artifact, title = _pinned_artifacts()[case]
    fig = _render(artifact, title)
    if case == "stack-negative":
        assert (artifact.contributions < 0).any()
    if case == "beeswarm-escaped":
        assert "&lt;MW&gt; &amp; Price" in fig.svg
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (fig.svg, fig.csv)
    )
    assert digests == _PINNED[case]
