"""The traced benchmark finds the package functions it wraps by name.

``perfbench/spans.py`` looks up every ``SPANNED`` and ``COUNTED`` name and
``fplm.geometry.Fraction`` when its tracer is installed, so deleting or
renaming one of them breaks the benchmark's ``--trace`` run. These tests
load that file as it is and fail first.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("qualname", [*spans.SPANNED, *spans.COUNTED])
def test_traced_name_resolves(qualname):
    importlib.import_module("fplm." + qualname.split(".")[0])
    assert callable(spans._lookup(qualname))


def test_rational_counter_target_resolves():
    assert importlib.import_module("fplm.geometry").Fraction is Fraction

