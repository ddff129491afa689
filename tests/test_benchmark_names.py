"""Every per-layer function metric in BENCHMARK.json names a live function.

perfbench/run.py reads `<layer>.<func>.s` and `<layer>.<func>.calls` from
the functions its tracer wrapped and raises KeyError on a name it did not
wrap, so a renamed or deleted function would crash every traced run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

_SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
_FUNCTION_METRICS = sorted(
    m["name"] for m in _SPEC["per_layer"]
    if m["name"].count(".") == 2 and m["name"].rsplit(".", 1)[1] in ("s", "calls")
)


def test_function_metrics_declared():
    assert "construction.sign_vectors.calls" in _FUNCTION_METRICS
    assert "algebra.rank_mod_p.s" in _FUNCTION_METRICS


@pytest.mark.parametrize("metric", _FUNCTION_METRICS)
def test_function_metric_resolves(metric):
    layer, func, _ = metric.split(".")
    assert not func.startswith("_")
    module = importlib.import_module("borsuk." + layer)
    fn = getattr(module, func, None)
    assert inspect.isfunction(fn), "%s is not a function of borsuk.%s" % (func, layer)
    # the tracer wraps only functions defined in the layer itself
    assert fn.__module__ == module.__name__
