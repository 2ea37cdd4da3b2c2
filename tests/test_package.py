"""Package surface: exported names and the names the benchmark tracer patches."""

import importlib
from pathlib import Path

import pytest

import permlp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_patches():
    # Executed from its source text, so nothing is imported from or written
    # under the benchmark's directory.
    namespace = {"__name__": "_perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["PATCHES"]


@pytest.mark.parametrize("modname,attr,span", _tracing_patches(), ids=str)
def test_traced_names_resolve(modname, attr, span):
    # The tracer replaces these attributes by name; a refactor that drops or
    # renames one must fail here rather than in a benchmark run.
    assert callable(getattr(importlib.import_module(modname), attr))
    layer, name = span.split(".")
    assert callable(getattr(importlib.import_module(f"permlp.{layer}"), name))


def test_all_names_resolve_once():
    assert len(permlp.__all__) == len(set(permlp.__all__))
    missing = [name for name in permlp.__all__ if not hasattr(permlp, name)]
    assert missing == []
