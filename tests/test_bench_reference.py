"""A sample of the benchmark's items must give their reference outputs.

``perfbench/workloads.py`` makes each benchmark item a call into
cyclolab, and ``perfbench/reference/<workload>.json`` holds the
fingerprint of its output.  This test runs a fixed sample of those items
(the ``real m n`` pairs with n <= 20, the ten ``table1`` rows, every
``complex m n`` pair, and the ``values`` items of ``rationalcheck``: the
primitive-prime ``bang`` items and the two coincidence checks) and
compares each with its reference, so that a byte of drift fails here
before any benchmark run.  It takes every
complex pair: a change to the Aberth sweeps shows first as a reordering
of the roots of about one pair in ten, which a one-in-ten sample can
miss.  It reads the workloads the way ``test_traced_names`` reads the
tracer, with no import of the harness as a package, so nothing is
written under ``perfbench/``.
"""
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = load_workloads()


def sample():
    real = WORKLOADS.WORKLOADS["real-roots"][0]()
    out = [("real-roots", item) for item in real if item[0].startswith("real ") and item[2][1] <= 20]
    out += [("real-roots", item) for item in real if item[0].startswith("table1 ")]
    out += [("complex-roots", item) for item in WORKLOADS.WORKLOADS["complex-roots"][0]()]
    out += [("values", item) for item in WORKLOADS.WORKLOADS["values"][0]()
            if item[0].startswith(("integer-coincidences", "rational-coincidences", "bang"))]
    return out


SAMPLE = sample()
REFERENCE = {name: json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
             for name in {name for name, _ in SAMPLE}}


def test_sample_size():
    keys = [item[0] for _, item in SAMPLE]
    assert len(keys) == len(set(keys)) == 190 + 10 + 100 + 209


@pytest.mark.parametrize("workload, item", SAMPLE, ids=[item[0] for _, item in SAMPLE])
def test_matches_reference(workload, item):
    key, fn, args = item
    assert WORKLOADS.fingerprint(fn(*args)) == REFERENCE[workload][key]
