"""The benchmark's tracer names program functions by dotted strings; a
rename in extline must not silently turn one of its metrics into 0.

perfbench/tracer.py is loaded read-only from its file, and the names its
probes and metrics use are checked against the spans it would install.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import extline
from extline import yoneda

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _metric_arguments(method):
    """The string constants passed to ``self.<method>(...)`` in ``metrics``."""
    tree = ast.parse(TRACER_PATH.read_text(encoding="utf-8"))
    metrics = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "metrics")
    return [
        const.value
        for call in ast.walk(metrics)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == method
        for arg in call.args
        for const in ast.walk(arg)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]


def _span_names():
    """The span name of every callable the tracer wraps."""
    return {
        name
        for layer in TRACER.LAYERS
        for *_, name in TRACER._public_callables(importlib.import_module(f"extline.{layer}"))
    }


def hook_names():
    return (set(TRACER.PROBES) | set(TRACER.GENERATORS)
            | set(_metric_arguments("calls")) | set(_metric_arguments("inclusive")))


def test_every_hook_names_a_traced_callable():
    names = hook_names()
    assert len(names) > len(TRACER.PROBES)  # the metric names were found
    missing = sorted(names - _span_names())
    assert not missing, missing


def test_every_counted_prefix_matches_a_traced_callable():
    prefixes = _metric_arguments("layer_calls")
    assert prefixes
    spans = _span_names()
    assert all(any(s.startswith(p) for s in spans) for p in prefixes), prefixes


def test_probe_attributes_exist():
    # the null-homotopy probe reads the certificate's period under this name
    assert hasattr(yoneda.ChainMap, "period_len")


def test_every_module_is_a_traced_layer_but_certify():
    # certify, the bridge to the oracle, is the one module the tracer does
    # not wrap: its own time shows in its caller's span, and a module added
    # later must be named here or in LAYERS, not go untraced unseen
    modules = {path.stem for path in Path(extline.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(modules - set(TRACER.LAYERS)) == ["certify"]
    assert set(TRACER.LAYERS) <= modules
