"""Every span the benchmark reads names a public function of its layer.

``perfbench/tracing.py`` wraps only the functions that a layer module lists
in ``__all__`` and defines itself, and records each call as a span named
``<layer>.<function>``. A span that ``perfbench/run.py`` totals but that no
wrapped function records reads 0, or ends the traced pass with an error.
The test reads ``run.py`` as text, so a rename or an ``__all__`` edit in
``epxai`` fails here rather than in a benchmark run.
"""

import importlib
import inspect
import re
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# table.durations("data.parse_market_csv"), table.total("mlp.train", ...) and
# spans[i][0] == "pipeline.dispatch"
_SPAN = re.compile(r'(?:\b(?:durations|total)\(\s*|==\s*)"([a-z]+)\.(\w+)"')


def test_run_py_reads_the_known_spans():
    spans = set(_SPAN.findall(RUN_PY.read_text(encoding="utf-8")))
    assert {("attribution", "attribution_to_csv"), ("pipeline", "dispatch")} <= spans


def test_every_span_names_a_traced_function():
    missing = []
    for layer, function in sorted(set(_SPAN.findall(RUN_PY.read_text(encoding="utf-8")))):
        module = importlib.import_module(f"epxai.{layer}")
        fn = getattr(module, function, None)
        if not (
            function in getattr(module, "__all__", ())
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        ):
            missing.append(f"{layer}.{function}")
    assert not missing, f"perfbench/run.py reads spans no traced function records: {missing}"
