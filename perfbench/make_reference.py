"""Write the reference output of every item of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.json, mapping each item key to the
fingerprint of its canonical output.  The checked-in files were made at
the commit that introduced the benchmark; regenerate them only when a
workload's item list changes, never to absorb a changed result.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on sys.path)


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        build, warm = workloads.WORKLOADS[name]
        warm()
        ref = {key: workloads.fingerprint(fn(*args)) for key, fn, args in build()}
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(ref)} items -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
