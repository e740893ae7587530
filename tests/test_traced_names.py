"""The benchmark's traced names must exist in the package.

``perfbench/tracing.py`` wraps every function named in its ``TRACED`` map
at the binding sites in ``cyclolab``, and a traced pass
(``perfbench/run.py --trace 1``) stops on a name that no longer resolves.
This test reads that map, without importing the harness as a package and
without writing anything under ``perfbench/``, so that deleting or
renaming a traced function fails here first.  A traced name must also
stay on the path of the work it is meant to count, which the limit items'
``refine_root`` count checks.
"""
import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _read(path):
    # a harness module run from its source, so nothing is written under perfbench/
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def traced_names():
    return _read(TRACING).TRACED_NAMES


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    layer, fn = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"cyclolab.{layer}"), fn, None)), name


def test_limit_items_reach_the_traced_refine_root(monkeypatch):
    # the limit-family and limit-constant items of the benchmark's
    # real-roots workload refine through roots.refine_root, the name the
    # harness traces, so its counter counts their work: 35 family members
    # and the two constants
    from cyclolab import nearmiss, roots

    workloads = _read(TRACING.with_name("workloads.py"))
    calls = []
    refine = roots.refine_root

    def counted(*args):
        calls.append(1)
        return refine(*args)

    for mod in (roots, nearmiss):  # a missing binding shows as a short count
        monkeypatch.setattr(mod, "refine_root", counted, raising=False)
    items = [(fn, args) for key, fn, args in workloads._real_roots_items() if key.startswith("limit")]
    assert len(items) == 36
    for fn, args in items:
        fn(*args)
    assert len(calls) == 37
