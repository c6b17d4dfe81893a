"""The benchmark's tracer wraps photonmol functions by (module, attribute)
name. Each name must resolve, or the traced benchmark run fails on start."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # the standard library only
    return spans.WRAP_POINTS


@pytest.mark.parametrize("module, attribute, span", wrap_points())
def test_traced_name_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute))
