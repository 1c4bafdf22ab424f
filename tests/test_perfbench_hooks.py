"""The benchmark's tracer wraps module attributes by name; a renamed or
deleted one crashes every traced benchmark run. The benchmark's own tests
run outside this suite, so the names are checked here."""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import WRAPPED  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in WRAPPED])
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"surfslide.{module}"), attr, None))
