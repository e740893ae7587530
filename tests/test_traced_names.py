"""The benchmark's traced names must exist in the package.

``perfbench/tracing.py`` wraps every function named in its ``TRACED`` map
at the binding sites in ``cyclolab``, and a traced pass
(``perfbench/run.py --trace 1``) stops on a name that no longer resolves.
This test reads that map, without importing the harness as a package and
without writing anything under ``perfbench/``, so that deleting or
renaming a traced function fails here first.
"""
import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.TRACED_NAMES


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    layer, fn = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"cyclolab.{layer}"), fn, None)), name
