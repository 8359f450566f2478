"""Deterministic SVG rendering of analytics artefacts, with companion CSVs.

Every figure is written element by element into the text stream it is
handed, with its companion CSV row by row into a second stream: fixed
coordinate formatting, no randomness (beeswarm jitter comes from a
golden-ratio sequence), no external assets. Each plotted datum carries a
``data-value`` attribute with the exact shortest round-trip float text, and
the companion CSV holds the same numbers, so the CSV is the machine-readable
source of truth and the SVG can always be checked against it byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import BeeswarmTable, HeatmapGrid, ImportanceTable
from .sshap import SshapLines, SshapTensor

__all__ = [
    "InstanceStack",
    "instance_stack",
    "render_figure",
]

_CATEGORICAL = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_GOLDEN = 0.6180339887498949


@dataclass
class InstanceStack:
    """One instance's grouped contributions, ready for a stacked-bar view."""

    instance_id: str
    groups: tuple
    contributions: np.ndarray  # (24, n_groups)
    baseline: np.ndarray  # (24,)
    forecast: np.ndarray  # (24,)


def _instance_index(tensor, instance) -> int:
    """Position of one instance of a tensor, given by instance id or position."""
    if isinstance(instance, str):
        try:
            return tensor.instance_ids.index(instance)
        except ValueError:
            raise KeyError(f"no instance {instance!r}") from None
    idx = int(instance)
    if not -tensor.n_instances <= idx < tensor.n_instances:
        raise KeyError(f"instance index {idx} out of range")
    return idx


def instance_stack(sshap: SshapTensor, instance, forecast: np.ndarray) -> InstanceStack:
    """Slice one instance out of a grouped tensor for rendering."""
    idx = _instance_index(sshap, instance)
    forecast = np.asarray(forecast, dtype=np.float64)
    if forecast.shape != (24,):
        raise ValueError("forecast must be 24 hourly prices")
    return InstanceStack(
        instance_id=sshap.instance_ids[idx],
        groups=sshap.partition.labels,
        contributions=sshap.values[idx].copy(),
        baseline=sshap.baseline.copy(),
        forecast=forecast.copy(),
    )


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _f(x: float) -> str:
    """Fixed two-decimal coordinate text."""
    return f"{x:.2f}"


def _val(x: float) -> str:
    """Exact value text for data attributes and CSV cells."""
    return repr(float(x))


def _color(k: int) -> str:
    return _CATEGORICAL[k % len(_CATEGORICAL)]


def _rgb(color: str) -> np.ndarray:
    return np.array([int(color[i : i + 2], 16) for i in (1, 3, 5)], dtype=np.float64)


def _ramp(t, diverging: bool) -> list:
    """``#rrggbb`` fills of ramp positions ``t``, clipped to [0, 1], nested as ``t``.

    Sequential runs light to dark blue; diverging runs blue to white below
    0.5 and white to red above. Each channel is ``low + (high - low) * u``
    rounded half to even, which np.rint does as ``round`` does.
    """
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)[..., None]
    if diverging:
        low = t < 0.5
        u = np.where(low, t * 2.0, (t - 0.5) * 2.0)
        a = np.where(low, _rgb("#2166ac"), _rgb("#f7f7f7"))
        b = np.where(low, _rgb("#f7f7f7"), _rgb("#b2182b"))
    else:
        u, a, b = t, _rgb("#f7fbff"), _rgb("#08306b")
    rgb = np.rint(a + (b - a) * u).astype(np.int64)
    codes = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    return np.vectorize("#{:06x}".format, otypes=[object])(codes).tolist()


def _ticks(lo: float, hi: float, n: int = 5):
    return np.linspace(lo, hi, n)


def _tick_text(v: float) -> str:
    return f"{v:.4g}"


_MIDDLE, _END = ' text-anchor="middle"', ' text-anchor="end"'


# Each element and CSV row is one line of its file; the helpers below return
# one element with its line end.
def _text(x, y, body, size: int, fill: str, extra: str = "") -> str:
    """One escaped ``<text>``; int coordinates print as written, floats via ``_f``."""
    x, y = (str(v) if isinstance(v, int) else _f(v) for v in (x, y))
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{extra}>'
        f"{_esc(body)}</text>\n"
    )


def _line(x1, y1, x2, y2, stroke: str = "#999") -> str:
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{stroke}"/>\n'
    )


def _polyline(points: str, stroke: str, style: str = 'stroke-width="1.5"',
              data: str = "") -> str:
    return f'<polyline fill="none" stroke="{stroke}" {style} points="{points}"{data}/>\n'


def _svg_open(svg, width: float, height: float, title: str) -> None:
    svg.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}" '
        f'font-family="sans-serif">\n'
        f"<title>{_esc(title)}</title>\n"
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="white"/>\n'
        + _text(12, 20, title, 14, "#222")
    )


def _render_heatmap(grid: HeatmapGrid, svg, csv, title: str, unit: str) -> None:
    cell = 8.0
    gap = 16.0
    left, top = 64.0, 56.0
    block_w = cell * 24
    legend_w = 86.0
    width = left + grid.n_blocks * (block_w + gap) - gap + legend_w + 24
    height = top + block_w + 56.0

    signed = grid.aggregation == "mean" or grid.kind == "gradient"
    if signed:
        vmax = float(np.max(np.abs(grid.values))) or 1.0
        vmin = -vmax
    else:
        vmin = 0.0
        vmax = float(np.max(grid.values)) or 1.0
    # vmax is never 0, so the scale never has zero width
    fills = _ramp((grid.values - vmin) / (vmax - vmin), signed)

    write_svg, write_csv = svg.write, csv.write
    _svg_open(svg, width, height, title)
    write_svg(f'<g data-scale-min="{_val(vmin)}" data-scale-max="{_val(vmax)}">\n')
    write_csv("block,output_hour,input_hour,value,scale_min,scale_max\n")
    scale_text = f"{_val(vmin)},{_val(vmax)}"
    for b, (label, block) in enumerate(zip(grid.blocks, grid.values.tolist())):
        x0 = left + b * (block_w + gap)
        label_text = _esc(label)
        write_svg(_text(x0, top - 8, label, 10, "#222"))
        xs = [_f(x0 + in_h * cell) for in_h in range(24)]
        for out_h, (row, row_fills) in enumerate(zip(block, fills[b])):
            y_text = _f(top + out_h * cell)
            for in_h, (v, fill) in enumerate(zip(row, row_fills)):
                v_text = repr(v)
                write_svg(
                    f'<rect x="{xs[in_h]}" y="{y_text}" '
                    f'width="{_f(cell)}" height="{_f(cell)}" fill="{fill}" '
                    f'data-block="{label_text}" data-output-hour="{out_h}" '
                    f'data-input-hour="{in_h}" data-value="{v_text}"/>\n'
                )
                write_csv(f"{label},{out_h},{in_h},{v_text},{scale_text}\n")
        for h in (0, 6, 12, 18, 23):
            write_svg(_text(x0 + h * cell + 1, top + block_w + 12, h, 8, "#555"))
        write_svg(_text(x0, top + block_w + 26, "input hour", 9, "#555"))
    for h in (0, 6, 12, 18, 23):
        write_svg(_text(left - 18, top + h * cell + 7, h, 8, "#555"))
    mid = top + block_w / 2
    write_svg(_text(
        12.0, mid, "output hour", 9, "#555",
        f' transform="rotate(-90 12 {_f(mid)})"{_MIDDLE}',
    ))

    # Legend: vertical colour ramp with end labels.
    lx = width - legend_w
    steps = 24
    ramp = _ramp([1.0 - s / (steps - 1) for s in range(steps)], signed)
    for s, fill in enumerate(ramp):
        write_svg(
            f'<rect x="{_f(lx)}" y="{_f(top + s * block_w / steps)}" width="12" '
            f'height="{_f(block_w / steps + 0.5)}" fill="{fill}"/>\n'
        )
    for frac, v in ((0.0, vmax), (0.5, (vmin + vmax) / 2.0), (1.0, vmin)):
        write_svg(_text(lx + 16, top + frac * block_w + 4, _tick_text(v), 9, "#222"))
    write_svg(_text(lx, top - 8, unit, 9, "#222"))
    write_svg("</g>\n")


def _split_finite_runs(xs, ys):
    run_x: list = []
    run_y: list = []
    for x, y in zip(xs, ys):
        if math.isfinite(y):
            run_x.append(x)
            run_y.append(y)
        elif run_x:
            yield run_x, run_y
            run_x, run_y = [], []
    if run_x:
        yield run_x, run_y


class _Axes:
    """Shared linear axes mapping data space onto a pixel box."""

    def __init__(self, x_range, y_range, box):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.left, self.top, self.width, self.height = box
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def x(self, v: float) -> float:
        return self.left + (v - self.x0) / (self.x1 - self.x0) * self.width

    def y(self, v: float) -> float:
        return self.top + self.height - (v - self.y0) / (self.y1 - self.y0) * self.height

    def points(self, xs, ys) -> str:
        """Pixel ``x,y`` pairs for a polyline."""
        return " ".join(f"{_f(self.x(x))},{_f(self.y(y))}" for x, y in zip(xs, ys))

    def x_ticks(self, svg) -> None:
        """Tick marks and labels along the bottom edge of the box."""
        base = self.top + self.height
        for v in _ticks(self.x0, self.x1):
            px = self.x(v)
            svg.write(_line(px, base, px, base + 4))
            svg.write(_text(px, base + 16, _tick_text(v), 9, "#555", _MIDDLE))

    def frame(self, svg, x_label: str, y_label: str) -> None:
        svg.write(
            f'<rect x="{_f(self.left)}" y="{_f(self.top)}" width="{_f(self.width)}" '
            f'height="{_f(self.height)}" fill="none" stroke="#999"/>\n'
        )
        self.x_ticks(svg)
        for v in _ticks(self.y0, self.y1):
            py = self.y(v)
            svg.write(_line(self.left - 4, py, self.left, py))
            svg.write(_text(self.left - 7, py + 3, _tick_text(v), 9, "#555", _END))
        mid = self.top + self.height / 2
        svg.write(_text(
            self.left + self.width / 2, self.top + self.height + 32, x_label, 10,
            "#222", _MIDDLE,
        ))
        svg.write(_text(
            14, mid, y_label, 10, "#222", f'{_MIDDLE} transform="rotate(-90 14 {_f(mid)})"'
        ))


def _plot(svg, width: float, height: float, right: float, title: str,
          x_range, y_range, x_label: str, y_label: str) -> _Axes:
    """Open a figure with one framed plot box, ``right`` pixels clear of the edge."""
    axes = _Axes(x_range, y_range, (64.0, 40.0, width - 64 - right, height - 40 - 56))
    _svg_open(svg, width, height, title)
    axes.frame(svg, x_label, y_label)
    return axes


def _legend(svg, entries, x, y) -> None:
    for k, (label, color) in enumerate(entries):
        ly = y + k * 14
        svg.write(
            f'<rect x="{_f(x)}" y="{_f(ly - 8)}" width="10" height="10" '
            f'fill="{color}"/>\n'
        )
        svg.write(_text(x + 14, ly, label, 9, "#222"))


def _render_lines(lines: SshapLines, svg, csv, title: str, unit: str) -> None:
    grid, baseline = lines.grid, lines.baseline
    finite = [values[np.isfinite(values)] for values in lines.values]
    lo = min((v.min() for v in finite if v.size), default=0.0)
    hi = max((v.max() for v in finite if v.size), default=1.0)
    identity = grid - baseline
    lo = min(lo, identity.min())
    hi = max(hi, identity.max())
    pad = 0.05 * (hi - lo or 1.0)
    axes = _plot(
        svg, 760.0, 420.0, 190, title, (float(grid.min()), float(grid.max())),
        (lo - pad, hi + pad), f"actual price [{unit}]", f"group value [{unit}]",
    )
    # every line pools all instances and hours; the mode column keeps the
    # file's layout
    csv.write("group,mode,grid_price,value\n")
    ends = grid[[0, -1]]
    svg.write(_polyline(
        axes.points(ends, ends - baseline), "#888", 'stroke-dasharray="5,4"',
        f' data-series="identity" data-baseline="{_val(baseline)}"',
    ))
    entries = []
    for k, (group, values) in enumerate(zip(lines.labels, lines.values)):
        color = _color(k)
        entries.append((group, color))
        for xs, ys in _split_finite_runs(grid, values):
            svg.write(_polyline(axes.points(xs, ys), color))
        for x, y in zip(grid, values):
            csv.write(
                f"{group},pooled,{_val(x)},"
                f"{'' if not math.isfinite(y) else _val(y)}\n"
            )
            if math.isfinite(y):
                svg.write(
                    f'<circle cx="{_f(axes.x(x))}" cy="{_f(axes.y(y))}" r="1.4" '
                    f'fill="{color}" data-group="{_esc(group)}" '
                    f'data-price="{_val(x)}" data-value="{_val(y)}"/>\n'
                )
    entries.append(("price - baseline", "#888"))
    _legend(svg, entries, 760.0 - 180, 56.0)


def _render_importance(table: ImportanceTable, svg, csv, title: str, unit: str) -> None:
    vmax = float(table.values.max()) if table.values.size else 1.0
    axes = _plot(
        svg, 720.0, 400.0, 210, title, (0.0, 23.0), (0.0, vmax * 1.05 or 1.0),
        "output hour", f"mean |value| [{unit}]",
    )
    csv.write("group,output_hour,value\n")
    entries = []
    hours = np.arange(24)
    for k, group in enumerate(table.groups):
        color = _color(k)
        entries.append((group, color))
        ys = table.values[:, k]
        svg.write(_polyline(axes.points(hours, ys), color))
        for h, v in zip(hours, ys):
            svg.write(
                f'<circle cx="{_f(axes.x(h))}" cy="{_f(axes.y(v))}" r="1.8" '
                f'fill="{color}" data-group="{_esc(group)}" data-output-hour="{h}" '
                f'data-value="{_val(v)}"/>\n'
            )
            csv.write(f"{group},{h},{_val(v)}\n")
    _legend(svg, entries, 720.0 - 200, 56.0)


def _render_beeswarm(table: BeeswarmTable, svg, csv, title: str, unit: str) -> None:
    row_h = 30.0
    left, top = 230.0, 48.0
    plot_w = 430.0
    plot_h = row_h * len(table.rows)
    height = top + plot_h + 60.0
    width = left + plot_w + 120.0

    vmax = max(
        (float(np.max(np.abs(r.shap_values))) for r in table.rows), default=1.0
    ) or 1.0
    axes = _Axes((-vmax, vmax), (0.0, 1.0), (left, top, plot_w, plot_h))
    write_svg, write_csv = svg.write, csv.write
    _svg_open(svg, width, height, title)
    write_svg(_line(axes.x(0.0), top, axes.x(0.0), top + plot_h, "#bbb"))
    write_csv("feature,instance_id,output_hour,feature_value,shap_value\n")
    point = 0
    for r, row in enumerate(table.rows):
        cy = top + row_h * (r + 0.5)
        write_svg(_text(left - 8, cy + 3, row.feature, 9, "#222", _END))
        write_svg(_text(left + plot_w + 8, cy + 3, _tick_text(row.score), 9, "#555"))
        fv = row.feature_values
        flo, fhi = float(fv.min()), float(fv.max())
        span = fhi - flo or 1.0
        fills = _ramp((fv - flo) / span, diverging=True)
        feature = str(row.feature)
        for i, (instance_id, values) in enumerate(
            zip(table.instance_ids, row.shap_values.tolist())
        ):
            fv_text = _val(fv[i])
            attrs = (
                f'r="1.6" fill="{fills[i]}" fill-opacity="0.75" '
                f'data-feature="{_esc(feature)}" data-instance="{_esc(instance_id)}"'
            )
            for h, v in enumerate(values):
                jitter = ((point * _GOLDEN) % 1.0 - 0.5) * row_h * 0.7
                point += 1
                v_text = repr(v)
                write_svg(
                    f'<circle cx="{_f(axes.x(v))}" cy="{_f(cy + jitter)}" {attrs} '
                    f'data-output-hour="{h}" '
                    f'data-feature-value="{fv_text}" data-value="{v_text}"/>\n'
                )
                write_csv(f"{feature},{instance_id},{h},{fv_text},{v_text}\n")
    axes.x_ticks(svg)
    write_svg(_text(
        left + plot_w / 2, top + plot_h + 34,
        f"contribution [{unit}] (colour: feature value low to high)", 10, "#222",
        _MIDDLE,
    ))


def _render_stack(stack: InstanceStack, svg, csv, title: str, unit: str) -> None:
    pos = np.clip(stack.contributions, 0.0, None).sum(axis=1)
    neg = np.clip(stack.contributions, None, 0.0).sum(axis=1)
    net = stack.forecast - stack.baseline
    lo = min(float(neg.min()), float(net.min()), 0.0)
    hi = max(float(pos.max()), float(net.max()), 0.0)
    pad = 0.05 * (hi - lo or 1.0)
    axes = _plot(
        svg, 820.0, 440.0, 230, title, (-0.5, 23.5), (lo - pad, hi + pad),
        "output hour", f"contribution [{unit}]",
    )
    zero_y = axes.y(0.0)
    svg.write(_line(axes.left, zero_y, axes.left + axes.width, zero_y, "#bbb"))
    bar_w = axes.width / 24.0 * 0.72
    for h in range(24):
        cx = axes.x(float(h))
        up = 0.0
        down = 0.0
        for g, group in enumerate(stack.groups):
            v = float(stack.contributions[h, g])
            if v >= 0.0:
                y_top, y_bot = axes.y(up + v), axes.y(up)
                up += v
            else:
                y_top, y_bot = axes.y(down), axes.y(down + v)
                down += v
            svg.write(
                f'<rect x="{_f(cx - bar_w / 2)}" y="{_f(y_top)}" '
                f'width="{_f(bar_w)}" height="{_f(max(y_bot - y_top, 0.0))}" '
                f'fill="{_color(g)}" fill-opacity="0.85" '
                f'data-series="{_esc(group)}" data-output-hour="{h}" '
                f'data-value="{_val(v)}"/>\n'
            )
    csv.write("series,output_hour,value\n")
    for g, group in enumerate(stack.groups):
        for h in range(24):
            csv.write(f"{group},{h},{_val(stack.contributions[h, g])}\n")
    svg.write(_polyline(axes.points(range(24), net), "#222"))
    for h in range(24):
        svg.write(
            f'<circle cx="{_f(axes.x(float(h)))}" cy="{_f(axes.y(float(net[h])))}" '
            f'r="2.2" fill="#222" data-series="forecast_minus_baseline" '
            f'data-output-hour="{h}" data-value="{_val(net[h])}"/>\n'
        )
        csv.write(f"forecast_minus_baseline,{h},{_val(net[h])}\n")
    entries = [(group, _color(g)) for g, group in enumerate(stack.groups)]
    entries.append(("forecast - baseline", "#222"))
    _legend(svg, entries, 820.0 - 218, 56.0)


def render_figure(artifact, svg, csv, title: str = "", unit: str = "EUR/MWh") -> None:
    """Render an analytics artefact as an SVG into text stream ``svg`` and its
    companion CSV into text stream ``csv``.

    Accepts a :class:`HeatmapGrid`, an :class:`ImportanceTable`, a
    :class:`BeeswarmTable`, an :class:`InstanceStack`, or :class:`SshapLines`,
    drawn with the dashed identity line ``price - baseline``. Each SVG
    element and CSV row is written as it is formatted, so no whole figure is
    held. Rendering is pure: the same artefact always yields the same bytes.
    """
    if isinstance(artifact, HeatmapGrid):
        _render_heatmap(artifact, svg, csv, title or "attribution heatmap", unit)
    elif isinstance(artifact, ImportanceTable):
        _render_importance(artifact, svg, csv, title or "hourly importance", unit)
    elif isinstance(artifact, BeeswarmTable):
        _render_beeswarm(artifact, svg, csv, title or "top features", unit)
    elif isinstance(artifact, InstanceStack):
        _render_stack(artifact, svg, csv, title or f"contributions {artifact.instance_id}", unit)
    elif isinstance(artifact, SshapLines):
        _render_lines(artifact, svg, csv, title or "group value vs price", unit)
    else:
        raise TypeError(f"cannot render object of type {type(artifact).__name__}")
    svg.write("</svg>\n")
