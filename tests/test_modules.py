"""Module layout: import order and the cost of compiling each module.

``roots`` re-exports the public functions of ``window`` and
``complexroots``, which import the real-root core from ``roots``; each of
the three must import cleanly as a process's first import.  Every module
is compiled from source whenever no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE``), and the largest compile sets the peak
memory of a short run, so each module's compile peak is bounded.
"""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cyclolab

PACKAGE = Path(cyclolab.__file__).resolve().parent

REEXPORTED = {
    "window": ("window_counts", "verify_root_window"),
    "complexroots": ("complex_roots", "scan_complex", "quarter_lift_check"),
}

COMPILE_PEAK_LIMIT = 2_500_000  # bytes


@pytest.mark.parametrize("first", ["window", "complexroots", "roots"])
def test_imports_first_without_cycle(first):
    checks = "".join(
        f"assert roots.{name} is {mod}.{name}, {name!r}\n" for mod, names in REEXPORTED.items() for name in names
    )
    code = f"import cyclolab.{first}\nfrom cyclolab import complexroots, roots, window\n{checks}"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_compile_peak_below_limit(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPILE_PEAK_LIMIT, f"{path.name}: {peak} bytes"
