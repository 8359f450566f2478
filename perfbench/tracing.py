"""Outside-in layer trace: spans around every public function of each module.

The benchmark does not edit the program. It wraps each public function of
the layer modules (``data``, ``mlp``, ``attribution``, ``sshap``,
``analytics``, ``figures``, ``oracle`` and ``pipeline``) and rebinds every
reference to it inside the ``epxai`` package, so calls between modules go
through the wrapper whatever import style the caller uses. Each wrapper
records a span: name, start, end and the span that was open when it was
called. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "pipeline", "data", "mlp", "attribution", "sshap", "analytics", "figures", "oracle")


class Tracer:
    """Span recorder; the caller wraps ``cli.main`` itself as each command's root."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._open: list = []
        self._rebound: list = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def install(self) -> None:
        """Rebind every public layer function in every loaded ``epxai`` module."""
        wrapped = {}
        for layer in LAYERS[1:]:
            module = importlib.import_module(f"epxai.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{fn.__name__}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "epxai" and not mod_name.startswith("epxai."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(records), encoding="utf-8")


def span_cost_s(calls: int = 50_000) -> float:
    """Seconds one wrapped call adds over a bare call."""
    bare = lambda: None  # noqa: E731
    wrapped = Tracer().wrap("calibration", bare)
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class SpanTable:
    """Durations and self times of recorded spans."""

    def __init__(self, spans: list):
        self.spans = spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s = [(s[2] - s[1]) - covered[i] for i, s in enumerate(spans)]

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def durations(self, name: str, lo: int = 0, hi: int | None = None) -> list:
        """Durations of spans called ``name`` among spans ``lo``..``hi``."""
        return [e - s for n, s, e, _ in self.spans[lo:hi] if n == name]

    def total(self, name: str, lo: int = 0, hi: int | None = None) -> float:
        return sum(self.durations(name, lo, hi))

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_s):
            out[name.split(".", 1)[0]] += own
        return out
