"""Deterministic SVG rendering of analytics artefacts, with companion CSVs.

Every figure is built by plain string assembly: fixed coordinate formatting,
no randomness (beeswarm jitter comes from a golden-ratio sequence), no
external assets. Each plotted datum carries a ``data-value`` attribute with
the exact shortest round-trip float text, and the companion CSV holds the
same numbers, so the CSV is the machine-readable source of truth and the
SVG can always be checked against it byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import BeeswarmTable, HeatmapGrid, ImportanceTable
from .sshap import SshapLine, SshapTensor

__all__ = [
    "RenderedFigure",
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
class RenderedFigure:
    svg: str
    csv: str


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


def _hex_to_rgb(color: str):
    return tuple(int(color[i : i + 2], 16) for i in (1, 3, 5))


def _mix(c1: str, c2: str, t: float) -> str:
    a, b = _hex_to_rgb(c1), _hex_to_rgb(c2)
    return "#{:02x}{:02x}{:02x}".format(
        *(round(x + (y - x) * t) for x, y in zip(a, b))
    )


def _sequential(t: float) -> str:
    return _mix("#f7fbff", "#08306b", min(max(t, 0.0), 1.0))


def _diverging(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        return _mix("#2166ac", "#f7f7f7", t * 2.0)
    return _mix("#f7f7f7", "#b2182b", (t - 0.5) * 2.0)


def _ticks(lo: float, hi: float, n: int = 5):
    return np.linspace(lo, hi, n)


def _tick_text(v: float) -> str:
    return f"{v:.4g}"


_MIDDLE, _END = ' text-anchor="middle"', ' text-anchor="end"'


def _text(x, y, body, size: int, fill: str, extra: str = "") -> str:
    """One escaped ``<text>``; int coordinates print as written, floats via ``_f``."""
    x, y = (str(v) if isinstance(v, int) else _f(v) for v in (x, y))
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{extra}>'
        f"{_esc(body)}</text>"
    )


def _line(x1, y1, x2, y2, stroke: str = "#999") -> str:
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{stroke}"/>'
    )


def _polyline(points: str, stroke: str, style: str = 'stroke-width="1.5"',
              data: str = "") -> str:
    return f'<polyline fill="none" stroke="{stroke}" {style} points="{points}"{data}/>'


def _svg_open(width: float, height: float, title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}" '
        f'font-family="sans-serif">',
        f"<title>{_esc(title)}</title>",
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="white"/>',
        _text(12, 20, title, 14, "#222"),
    ]


def _done(parts: list, csv_lines: list) -> RenderedFigure:
    parts.append("</svg>")
    return RenderedFigure(svg="\n".join(parts) + "\n", csv="\n".join(csv_lines) + "\n")


def _render_heatmap(grid: HeatmapGrid, title: str, unit: str) -> RenderedFigure:
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
        color = _diverging
    else:
        vmin = 0.0
        vmax = float(np.max(grid.values)) or 1.0
        color = _sequential

    parts = _svg_open(width, height, title)
    parts.append(
        f'<g data-scale-min="{_val(vmin)}" data-scale-max="{_val(vmax)}">'
    )
    csv_lines = ["block,output_hour,input_hour,value,scale_min,scale_max"]
    scale_text = f"{_val(vmin)},{_val(vmax)}"
    for b, (label, block) in enumerate(zip(grid.blocks, grid.values.tolist())):
        x0 = left + b * (block_w + gap)
        label_text = _esc(label)
        parts.append(_text(x0, top - 8, label, 10, "#222"))
        xs = [_f(x0 + in_h * cell) for in_h in range(24)]
        for out_h, row in enumerate(block):
            y_text = _f(top + out_h * cell)
            for in_h, v in enumerate(row):
                t = 0.5 if vmax == vmin else (v - vmin) / (vmax - vmin)
                v_text = repr(v)
                parts.append(
                    f'<rect x="{xs[in_h]}" y="{y_text}" '
                    f'width="{_f(cell)}" height="{_f(cell)}" fill="{color(t)}" '
                    f'data-block="{label_text}" data-output-hour="{out_h}" '
                    f'data-input-hour="{in_h}" data-value="{v_text}"/>'
                )
                csv_lines.append(f"{label},{out_h},{in_h},{v_text},{scale_text}")
        parts.extend(
            _text(x0 + h * cell + 1, top + block_w + 12, h, 8, "#555")
            for h in (0, 6, 12, 18, 23)
        )
        parts.append(_text(x0, top + block_w + 26, "input hour", 9, "#555"))
    parts.extend(
        _text(left - 18, top + h * cell + 7, h, 8, "#555") for h in (0, 6, 12, 18, 23)
    )
    mid = top + block_w / 2
    parts.append(_text(
        12.0, mid, "output hour", 9, "#555",
        f' transform="rotate(-90 12 {_f(mid)})"{_MIDDLE}',
    ))

    # Legend: vertical colour ramp with end labels.
    lx = width - legend_w
    steps = 24
    for s in range(steps):
        t = 1.0 - s / (steps - 1)
        parts.append(
            f'<rect x="{_f(lx)}" y="{_f(top + s * block_w / steps)}" width="12" '
            f'height="{_f(block_w / steps + 0.5)}" fill="{color(t)}"/>'
        )
    for frac, v in ((0.0, vmax), (0.5, (vmin + vmax) / 2.0), (1.0, vmin)):
        parts.append(_text(lx + 16, top + frac * block_w + 4, _tick_text(v), 9, "#222"))
    parts.append(_text(lx, top - 8, unit, 9, "#222"))
    parts.append("</g>")
    return _done(parts, csv_lines)


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

    def x_ticks(self) -> list:
        """Tick marks and labels along the bottom edge of the box."""
        base = self.top + self.height
        parts = []
        for v in _ticks(self.x0, self.x1):
            px = self.x(v)
            parts.append(_line(px, base, px, base + 4))
            parts.append(_text(px, base + 16, _tick_text(v), 9, "#555", _MIDDLE))
        return parts

    def frame(self, x_label: str, y_label: str) -> list:
        parts = [
            f'<rect x="{_f(self.left)}" y="{_f(self.top)}" width="{_f(self.width)}" '
            f'height="{_f(self.height)}" fill="none" stroke="#999"/>',
            *self.x_ticks(),
        ]
        for v in _ticks(self.y0, self.y1):
            py = self.y(v)
            parts.append(_line(self.left - 4, py, self.left, py))
            parts.append(_text(self.left - 7, py + 3, _tick_text(v), 9, "#555", _END))
        mid = self.top + self.height / 2
        parts.append(_text(
            self.left + self.width / 2, self.top + self.height + 32, x_label, 10,
            "#222", _MIDDLE,
        ))
        parts.append(_text(
            14, mid, y_label, 10, "#222", f'{_MIDDLE} transform="rotate(-90 14 {_f(mid)})"'
        ))
        return parts


def _plot(width: float, height: float, right: float, title: str,
          x_range, y_range, x_label: str, y_label: str):
    """Open a figure with one framed plot box, ``right`` pixels clear of the edge."""
    axes = _Axes(x_range, y_range, (64.0, 40.0, width - 64 - right, height - 40 - 56))
    return _svg_open(width, height, title) + axes.frame(x_label, y_label), axes


def _legend(parts, entries, x, y):
    for k, (label, color) in enumerate(entries):
        ly = y + k * 14
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(ly - 8)}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(_text(x + 14, ly, label, 9, "#222"))


def _render_lines(lines, title: str, unit: str, baseline) -> RenderedFigure:
    lines = list(lines)
    grid = lines[0].grid
    finite = [line.values[np.isfinite(line.values)] for line in lines]
    lo = min((v.min() for v in finite if v.size), default=0.0)
    hi = max((v.max() for v in finite if v.size), default=1.0)
    if baseline is not None:
        identity = grid - baseline
        lo = min(lo, identity.min())
        hi = max(hi, identity.max())
    pad = 0.05 * (hi - lo or 1.0)
    parts, axes = _plot(
        760.0, 420.0, 190, title, (float(grid.min()), float(grid.max())),
        (lo - pad, hi + pad), f"actual price [{unit}]", f"group value [{unit}]",
    )
    # every line pools all instances and hours; the mode column keeps the
    # file's layout
    csv_lines = ["group,mode,grid_price,value"]
    if baseline is not None:
        ends = grid[[0, -1]]
        parts.append(_polyline(
            axes.points(ends, ends - baseline), "#888", 'stroke-dasharray="5,4"',
            f' data-series="identity" data-baseline="{_val(baseline)}"',
        ))
    entries = []
    for k, line in enumerate(lines):
        color = _color(k)
        entries.append((line.group, color))
        for xs, ys in _split_finite_runs(line.grid, line.values):
            parts.append(_polyline(axes.points(xs, ys), color))
        for x, y in zip(line.grid, line.values):
            csv_lines.append(
                f"{line.group},pooled,{_val(x)},"
                f"{'' if not math.isfinite(y) else _val(y)}"
            )
            if math.isfinite(y):
                parts.append(
                    f'<circle cx="{_f(axes.x(x))}" cy="{_f(axes.y(y))}" r="1.4" '
                    f'fill="{color}" data-group="{_esc(line.group)}" '
                    f'data-price="{_val(x)}" data-value="{_val(y)}"/>'
                )
    if baseline is not None:
        entries.append(("price - baseline", "#888"))
    _legend(parts, entries, 760.0 - 180, 56.0)
    return _done(parts, csv_lines)


def _render_importance(table: ImportanceTable, title: str, unit: str) -> RenderedFigure:
    vmax = float(table.values.max()) if table.values.size else 1.0
    parts, axes = _plot(
        720.0, 400.0, 210, title, (0.0, 23.0), (0.0, vmax * 1.05 or 1.0),
        "output hour", f"mean |value| [{unit}]",
    )
    csv_lines = ["group,output_hour,value"]
    entries = []
    hours = np.arange(24)
    for k, group in enumerate(table.groups):
        color = _color(k)
        entries.append((group, color))
        ys = table.values[:, k]
        parts.append(_polyline(axes.points(hours, ys), color))
        for h, v in zip(hours, ys):
            parts.append(
                f'<circle cx="{_f(axes.x(h))}" cy="{_f(axes.y(v))}" r="1.8" '
                f'fill="{color}" data-group="{_esc(group)}" data-output-hour="{h}" '
                f'data-value="{_val(v)}"/>'
            )
            csv_lines.append(f"{group},{h},{_val(v)}")
    _legend(parts, entries, 720.0 - 200, 56.0)
    return _done(parts, csv_lines)


def _render_beeswarm(table: BeeswarmTable, title: str, unit: str) -> RenderedFigure:
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
    parts = _svg_open(width, height, title)
    parts.append(_line(axes.x(0.0), top, axes.x(0.0), top + plot_h, "#bbb"))
    csv_lines = ["feature,instance_id,output_hour,feature_value,shap_value"]
    point = 0
    for r, row in enumerate(table.rows):
        cy = top + row_h * (r + 0.5)
        parts.append(_text(left - 8, cy + 3, row.feature, 9, "#222", _END))
        parts.append(_text(left + plot_w + 8, cy + 3, _tick_text(row.score), 9, "#555"))
        fv = row.feature_values
        flo, fhi = float(fv.min()), float(fv.max())
        span = fhi - flo or 1.0
        feature = str(row.feature)
        for i, (instance_id, values) in enumerate(
            zip(table.instance_ids, row.shap_values.tolist())
        ):
            fv_text = _val(fv[i])
            attrs = (
                f'r="1.6" fill="{_diverging((fv[i] - flo) / span)}" fill-opacity="0.75" '
                f'data-feature="{_esc(feature)}" data-instance="{_esc(instance_id)}"'
            )
            for h, v in enumerate(values):
                jitter = ((point * _GOLDEN) % 1.0 - 0.5) * row_h * 0.7
                point += 1
                v_text = repr(v)
                parts.append(
                    f'<circle cx="{_f(axes.x(v))}" cy="{_f(cy + jitter)}" {attrs} '
                    f'data-output-hour="{h}" '
                    f'data-feature-value="{fv_text}" data-value="{v_text}"/>'
                )
                csv_lines.append(f"{feature},{instance_id},{h},{fv_text},{v_text}")
    parts.extend(axes.x_ticks())
    parts.append(_text(
        left + plot_w / 2, top + plot_h + 34,
        f"contribution [{unit}] (colour: feature value low to high)", 10, "#222",
        _MIDDLE,
    ))
    return _done(parts, csv_lines)


def _render_stack(stack: InstanceStack, title: str, unit: str) -> RenderedFigure:
    pos = np.clip(stack.contributions, 0.0, None).sum(axis=1)
    neg = np.clip(stack.contributions, None, 0.0).sum(axis=1)
    net = stack.forecast - stack.baseline
    lo = min(float(neg.min()), float(net.min()), 0.0)
    hi = max(float(pos.max()), float(net.max()), 0.0)
    pad = 0.05 * (hi - lo or 1.0)
    parts, axes = _plot(
        820.0, 440.0, 230, title, (-0.5, 23.5), (lo - pad, hi + pad),
        "output hour", f"contribution [{unit}]",
    )
    zero_y = axes.y(0.0)
    parts.append(_line(axes.left, zero_y, axes.left + axes.width, zero_y, "#bbb"))
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
            parts.append(
                f'<rect x="{_f(cx - bar_w / 2)}" y="{_f(y_top)}" '
                f'width="{_f(bar_w)}" height="{_f(max(y_bot - y_top, 0.0))}" '
                f'fill="{_color(g)}" fill-opacity="0.85" '
                f'data-series="{_esc(group)}" data-output-hour="{h}" '
                f'data-value="{_val(v)}"/>'
            )
    csv_lines = ["series,output_hour,value"] + [
        f"{group},{h},{_val(stack.contributions[h, g])}"
        for g, group in enumerate(stack.groups)
        for h in range(24)
    ]
    parts.append(_polyline(axes.points(range(24), net), "#222"))
    for h in range(24):
        parts.append(
            f'<circle cx="{_f(axes.x(float(h)))}" cy="{_f(axes.y(float(net[h])))}" '
            f'r="2.2" fill="#222" data-series="forecast_minus_baseline" '
            f'data-output-hour="{h}" data-value="{_val(net[h])}"/>'
        )
        csv_lines.append(f"forecast_minus_baseline,{h},{_val(net[h])}")
    entries = [(group, _color(g)) for g, group in enumerate(stack.groups)]
    entries.append(("forecast - baseline", "#222"))
    _legend(parts, entries, 820.0 - 218, 56.0)
    return _done(parts, csv_lines)


def render_figure(artifact, title: str = "", unit: str = "EUR/MWh",
                  baseline=None) -> RenderedFigure:
    """Render an analytics artefact to an SVG and its companion CSV.

    Accepts a :class:`HeatmapGrid`, an :class:`ImportanceTable`, a
    :class:`BeeswarmTable`, an :class:`InstanceStack`, or a sequence of
    :class:`SshapLine`. ``baseline`` adds the dashed identity reference to
    line figures. Rendering is pure: the same artefact always yields the
    same bytes.
    """
    if isinstance(artifact, HeatmapGrid):
        return _render_heatmap(artifact, title or "attribution heatmap", unit)
    if isinstance(artifact, ImportanceTable):
        return _render_importance(artifact, title or "hourly importance", unit)
    if isinstance(artifact, BeeswarmTable):
        return _render_beeswarm(artifact, title or "top features", unit)
    if isinstance(artifact, InstanceStack):
        return _render_stack(
            artifact, title or f"contributions {artifact.instance_id}", unit
        )
    if isinstance(artifact, (list, tuple)) and artifact and all(
        isinstance(line, SshapLine) for line in artifact
    ):
        return _render_lines(artifact, title or "group value vs price", unit, baseline)
    raise TypeError(f"cannot render object of type {type(artifact).__name__}")
