"""cyclolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and metrics are the ones
BENCHMARK.json names; perfbench/README.md says why each was chosen.

A run is a series of passes.  Each pass runs one_pass.py in a fresh
interpreter, so every pass pays the imports, the prime sieve and the
cyclotomic warm-up and starts with cold caches, as a CLI process does.
Passes follow each other until the next one would end after --seconds
(at least MIN_PASSES of each kind).  Every item of every pass is checked
against perfbench/reference/.

--trace 0 reports the end-to-end metrics: medians over the passes, and
item latency percentiles over the items of all passes.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics (medians over the traced passes) and the
tracing overhead; it also checks that traced and untraced outputs agree.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 whenever that line is printed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # per kind of pass; medians need at least three
SETUP_SAMPLES = 9  # set-up time varies most from pass to pass
RUN_LIMIT_S = 170  # a run must end well inside the 180 s it is allowed
# The machine this benchmark was made on is shared, and its speed drifts by
# tens of percent within minutes.  Each untraced pass therefore times a
# fixed calibration slice (one_pass.py) every 50 ms, and its times are
# scaled to the speed at which a slice takes SLICE_REF_S, about its typical
# time there.  This halved the pass-to-pass spread of wall_s.
SLICE_REF_S = 0.004

# one worker thread everywhere: the pool path (_parallel_map) reads
# CYCLOLAB_JOBS, and numpy's eigenvalue seeding would otherwise use a BLAS
# thread pool on a machine shared with other work
PASS_ENV = {
    "CYCLOLAB_JOBS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class PassFailed(RuntimeError):
    """A pass did not run to the end: the program or the checkout is broken."""


def _percentile(values: list[float], q: float) -> float:
    # nearest rank: the smallest value with at least q of the sample at or below it
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _one_pass(workload: str, seed: int, trace: int, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *extra]
    env = {**os.environ, **PASS_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[dict], list[dict], list[dict]]:
    """Untraced and traced passes, until the next one would overrun ``seconds``;
    then set-up-only passes until SETUP_SAMPLES passes have timed a set-up."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = (0, 1) if trace else (0,)
    spans = []
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans = ["--spans", str(HERE / "out" / f"spans-{workload}.tsv")]
    done: dict[int, list[dict]] = {0: [], 1: []}
    while True:
        for kind in kinds:
            done[kind].append(_one_pass(workload, seed, kind, deadline, spans if kind else []))
        elapsed = time.monotonic() - start
        if len(done[0]) >= MIN_PASSES and elapsed * (len(done[0]) + 1) / len(done[0]) > seconds:
            break
    setups = list(done[0])
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_one_pass(workload, seed, 0, deadline, ["--setup-only"]))
    return done[0], done[1], setups


def end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, float]:
    """Pass figures are medians over the passes; item latencies are
    percentiles over every item of every pass.  Every time is scaled to the
    machine speed at which one calibration slice takes SLICE_REF_S, using
    the slices timed in the same process; memory is as measured."""
    speed = [SLICE_REF_S / p["slice_s"] for p in passes]
    item_ms = [ms * k for p, k in zip(passes, speed) for ms in p["item_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(passes, speed)),
        "item_p50_ms": _percentile(item_ms, 0.5),
        "item_p90_ms": _percentile(item_ms, 0.9),
        "setup_s": statistics.median(p["setup_s"] * SLICE_REF_S / p["slice_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced) - 1
    )
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="cyclolab benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        untraced, traced, setups = run(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # every pass runs the same items, so every output digest must agree,
    # traced or not
    consistent = len({p["digest"] for p in passes}) == 1
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    if not consistent:
        print("FAILED outputs differ between passes (traced against untraced?)", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{attempted} items, error_rate {failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
