"""The benchmark tracer wraps functions by name; a renamed or deleted
function would otherwise drop out of the traced figures without an error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module, function, span", _boundaries())
def test_boundary_resolves(module, function, span):
    target = getattr(importlib.import_module(f"dctapprox.{module}"), function)
    assert callable(target), span
