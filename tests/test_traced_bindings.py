"""The benchmark's traced run wraps gcb functions by (module, attribute).

``perfbench/spans.py`` lists them in ``TRACED`` and wraps
``gcb.covers.PreimageCensus`` besides.  A function renamed or moved out of
its module would make its per-layer metric read 0 without an error, so
every listed binding must resolve here.  The list is read from the file,
which is left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_bindings())
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_census_class_resolves():
    assert callable(importlib.import_module("gcb.covers").PreimageCensus.__init__)
