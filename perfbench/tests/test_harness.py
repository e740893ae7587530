"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import cyclolab
import one_pass
import workloads
from tracing import LAYERS, TRACED_NAMES, Tracer, cyclolab_modules

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer():
    importlib.import_module("cyclolab.cli")  # one more namespace holding by-name imports
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _binding_sites(originals):
    return [
        (mod.__name__, attr)
        for mod in cyclolab_modules()
        for attr, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    ]


def test_no_listed_function_left_unwrapped(tracer):
    originals = tracer.originals()
    assert sorted(originals) == sorted(TRACED_NAMES)
    assert _binding_sites(originals) == []
    for name, fn in originals.items():
        mod, attr = name.rsplit(".", 1)
        wrapper = getattr(importlib.import_module(f"cyclolab.{mod}"), attr)
        assert wrapper.__wrapped__ is fn, name
    # the by-name imports the trace must see, spot-checked
    assert cyclolab.roots.cyclotomic.__wrapped__ is originals["polycore.cyclotomic"]
    assert cyclolab.nearmiss.isolate_real_roots.__wrapped__ is originals["roots.isolate_real_roots"]
    assert cyclolab.bounds.eval_gaussian.__wrapped__ is originals["polycore.eval_gaussian"]
    assert cyclolab.complex_roots.__wrapped__ is originals["roots.complex_roots"]


def test_uninstall_restores_every_binding_site():
    t = Tracer()
    t.install()
    originals = t.originals()
    t.uninstall()
    sites = _binding_sites(originals)
    assert ("cyclolab", "cyclotomic") in sites and ("cyclolab.roots", "cyclotomic") in sites
    for mod in cyclolab_modules():
        for value in vars(mod).values():
            assert not hasattr(value, "__wrapped__") or value.__wrapped__ not in originals.values()


def _sample(workload, keys):
    return [item for item in workloads.WORKLOADS[workload][0]() if item[0] in keys]


SAMPLE = [
    ("window", {"window 2 6", "window 5 7", "window 12 30"}),
    ("real-roots", {"real 2 6", "real 3 5", "near-miss 2 139", "table1 3 5", "limit three_p 7", "limit-constants"}),
    ("complex-roots", {"complex 1 6", "complex 5 8"}),
    ("values", {"real-bounds 1 2", "complex-bounds 1 106 2026263/1000000 -110319/200000", "g 2 3 1/2",
                "tail-gap 2 3", "gap 12", "prefix 8", "consecutive 18 9", "bang 2 1 6"}),
]


def _run(items, span=None):
    out = {}
    for key, fn, args in items:
        if span is None:
            out[key] = workloads.fingerprint(fn(*args))
        else:
            with span("bench.item"):
                out[key] = workloads.fingerprint(fn(*args))
    return out


@pytest.fixture
def sample_items():
    # built before the tracer is installed: building calls cyclolab too
    items = [it for workload, keys in SAMPLE for it in _sample(workload, keys)]
    assert len(items) == sum(len(keys) for _, keys in SAMPLE)
    return items


def test_spans_nest_self_times_add_up_and_outputs_match(sample_items, tracer):
    items = sample_items
    with tracer.span("bench.pass"):
        traced = _run(items, tracer.span)
    tracer.uninstall()
    untraced = _run(items)
    assert traced == untraced

    names = set(tracer.names)
    for name in ("roots.window_counts", "roots.refine_root", "roots.complex_roots", "polycore.eval_gaussian",
                 "certified.log_interval", "arith.factorize"):
        assert name in names
    for idx, par in enumerate(tracer.parent):
        assert tracer.start[idx] <= tracer.end[idx]
        if par >= 0:
            assert tracer.start[par] <= tracer.start[idx] and tracer.end[idx] <= tracer.end[par]
    assert tracer.parent.count(-1) == 1
    assert sum(tracer.self_ns()) == tracer.root_ns()
    assert all(s >= 0 for s in tracer.self_ns())


def test_outputs_match_the_reference():
    for workload, keys in SAMPLE:
        reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
        assert _run(_sample(workload, keys)) == {k: reference[k] for k in keys}


def test_reference_covers_exactly_the_items():
    for workload in workloads.WORKLOADS:
        reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
        keys = [key for key, _, _ in workloads.WORKLOADS[workload][0]()]
        assert len(keys) == len(set(keys)) and set(keys) == set(reference), workload
        assert len(keys) >= 100, workload


def test_seed_fixes_the_order_and_only_the_order():
    for workload in workloads.WORKLOADS:
        first = workloads.items(workload, 1)
        assert first == workloads.items(workload, 1)
        other = workloads.items(workload, 2)
        assert other != first
        assert Counter(map(repr, other)) == Counter(map(repr, first))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_pass_reports_every_listed_layer_metric(tracer):
    with tracer.span("bench.pass"):
        _run(_sample("window", {"window 2 6", "window 5 7"}) + _sample("real-roots", {"near-miss 2 139"}))
    tracer.uninstall()
    metrics = one_pass._layer_metrics(tracer)
    listed = {m["name"] for m in SPEC["per_layer"]} - {"trace_overhead_frac"}
    assert listed <= set(metrics)
    assert set(f"layer.{layer}.self_frac" for layer in LAYERS) <= listed
    assert metrics["roots.window_counts.calls"] == 2
    # near_miss_root isolates, counts and squarefrees the same polynomial
    assert metrics["roots.prs_calls_per_poly"] > 1
    assert abs(sum(metrics[f"layer.{layer}.self_frac"] for layer in LAYERS + ("bench",)) - 1) < 1e-9

