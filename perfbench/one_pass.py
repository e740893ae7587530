"""One timed pass over a workload, in a fresh interpreter.

Run by run.py, never by hand.  Imports cyclolab from the checkout's
``src``, builds the workload's items, runs the set-up, then times every
item and checks its output against the checked-in reference.  Prints one
JSON object on stdout:

  setup_s   interpreter start (the parent's clock reading at spawn,
            passed as --t0) to the end of the set-up
  wall_s    first timed item to the end of the last, less the
            calibration slices
  slice_s   mean time of a calibration slice (untraced passes; run.py
            scales times by it)
  item_ms   per-item latency, in item order
  rss_mb    peak resident set size of this process
  attempted, failed, failures (the first few), digest (of every output)
  layers    per-layer metrics, with --trace 1 only

With --setup-only it stops after the set-up and prints setup_s alone.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SLICE_EVERY_S = 0.05  # machine-speed samples, spread over the pass
SETUP_ONLY_SLICES = 25  # machine-speed samples after a set-up-only pass


def _import_cyclolab():
    sys.path.insert(0, str(SRC))
    import cyclolab

    if not Path(cyclolab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cyclolab imported from {cyclolab.__file__}, not from {SRC}")


def _calibration_slice() -> None:
    # a fixed piece of pure-Python work: interpreter dispatch plus
    # big-integer arithmetic, the two costs cyclolab's work is made of.  It
    # touches no cyclolab code, so only the machine's speed moves its time.
    s = 0
    for i in range(10_000):
        s += i * i
    v, m = 3, (1 << 1279) - 1
    for i in range(500):
        v = (v * v + i) % m


def _timed_slice() -> float:
    t = time.perf_counter()
    _calibration_slice()
    return time.perf_counter() - t


def _layer_metrics(tracer) -> dict[str, float]:
    from cyclolab import polycore
    from tracing import LAYERS, PRS_CALLS, TRACED_NAMES

    agg = tracer.aggregate()
    wall = tracer.root_ns() / 1e9
    out: dict[str, float] = {}
    for name in TRACED_NAMES:
        row = agg.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in ("calls", "self_s", "total_s"):
            out[f"{name}.{key}"] = row[key]
    for layer in LAYERS + ("bench",):
        own = sum(row["self_s"] for name, row in agg.items() if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_frac"] = own / wall

    notes = tracer.notes
    out["roots.complex_roots.degree_sum"] = sum(notes["roots.complex_roots"])
    # window_counts takes indices; its polynomial is their difference
    diffs = {mn: polycore.difference(*mn).coeffs for mn in set(notes["roots.window_counts"])}
    out["roots.window_counts.degree_sum"] = sum(len(diffs[mn]) - 1 for mn in notes["roots.window_counts"])
    keys = [diffs[k] if name == "roots.window_counts" else k for name in PRS_CALLS for k in notes[name]]
    out["roots.prs_calls_per_poly"] = len(keys) / len(set(keys)) if keys else 0.0
    idx = notes["polycore.cyclotomic"]
    out["polycore.cyclotomic.calls_per_index"] = len(idx) / len(set(idx)) if idx else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", default=None, help="file to write the spans to (with --trace 1)")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up; report setup_s only")
    args = ap.parse_args()

    _import_cyclolab()
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    with span("bench.setup"):
        work = workloads.items(args.workload, args.seed)
        workloads.WORKLOADS[args.workload][1]()

    t_setup = time.monotonic()
    if args.setup_only:
        slices = [_timed_slice() for _ in range(SETUP_ONLY_SLICES)]
        print(json.dumps({"setup_s": t_setup - args.t0, "slice_s": sum(slices) / len(slices)}))
        return 0
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    outputs: dict[str, str] = {}
    failures: list[str] = []
    item_ms: list[float] = []
    slices: list[float] = []  # calibration slice times, untraced passes only
    next_slice = 0.0
    t_first = time.monotonic()
    with span("bench.pass") as pass_span:
        for key, fn, fargs in work:
            if tracer is None and time.perf_counter() >= next_slice:
                slices.append(_timed_slice())
                next_slice = time.perf_counter() + SLICE_EVERY_S
            with span("bench.item"):
                a = time.perf_counter_ns()
                try:
                    out = fn(*fargs)
                except Exception as exc:  # a raising item is a failed item, not a failed run
                    out = f"raised {type(exc).__name__}: {exc}"
                b = time.perf_counter_ns()
            item_ms.append((b - a) / 1e6)
            outputs[key] = workloads.fingerprint(out)
            if reference.get(key) != outputs[key]:
                failures.append(f"{key}: got {outputs[key]!r}, reference {reference.get(key)!r}")
    t_end = time.monotonic()

    result = {
        "setup_s": t_setup - args.t0,
        "wall_s": t_end - t_first - sum(slices),
        "slice_s": sum(slices) / len(slices) if slices else None,
        "item_ms": item_ms,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(work),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256(json.dumps(sorted(outputs.items())).encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["wall_s"] = (tracer.end[pass_span.idx] - tracer.start[pass_span.idx]) / 1e9
        result["layers"] = _layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
