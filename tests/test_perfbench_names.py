"""The benchmark's tracer wraps parea functions by name, and `Tracer.install`
raises AttributeError for a name that no longer resolves. These tests move
that failure of the traced benchmark into the Tier-1 suite when a refactor
renames or moves a traced function. They do not catch a caller that reaches a
traced function through a binding the tracer does not rebind. Only reads the
benchmark's table of names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()


@pytest.mark.parametrize("module, func",
                         [(module, func) for module, func, _ in layers.SPANNED]
                         + [("grids", func) for func in layers.STENCILS])
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"parea.{module}"), func))


@pytest.mark.parametrize("method", [method for method, _ in layers.SCENARIO_METHODS])
def test_traced_scenario_method_resolves(method):
    from parea.scenarios import Scenario
    assert callable(getattr(Scenario, method))
