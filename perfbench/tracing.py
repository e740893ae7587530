"""Span tracing of cyclolab's layers, installed from outside the package.

A Tracer replaces each function named in TRACED with a wrapper at every
binding site in the loaded ``cyclolab`` modules: the defining module, the
modules that imported it by name (``from .roots import ...``) and the
package re-exports.  Each call records a span (function, start, end,
parent) in memory; ``write`` dumps them when the run ends.  ``uninstall``
puts the original objects back.

A span's self time is its duration minus the durations of its children.
The process is single-threaded, so children never overlap and the self
times of all spans under a root add up to the root's duration exactly.
"""
from __future__ import annotations

import sys
from time import perf_counter_ns

LAYERS = ("arith", "polycore", "certified", "roots", "nearmiss", "bounds", "ordering", "rationalcheck")

# the public functions of each layer that the benchmark times
TRACED = {
    "arith": ("factorize",),
    "polycore": ("cyclotomic", "difference", "eval_rational", "eval_gaussian", "eval_homogeneous_cyclotomic"),
    "certified": ("log_interval", "sqrt_interval"),
    "roots": (
        "window_counts",
        "real_coincidence_roots",
        "yun_decomposition",
        "squarefree_part",
        "sturm_count",
        "isolate_real_roots",
        "refine_root",
        "complex_roots",
    ),
    "nearmiss": ("table1", "near_miss_root", "limit_constants", "limit_family_root"),
    "bounds": ("check_real_bounds", "check_complex_bounds", "g_value", "lemma_tail_gap"),
    "ordering": ("gap", "ordered_prefix", "certify_consecutive"),
    "rationalcheck": ("primitive_prime_divisor", "verify_integer_coincidences", "verify_rational_coincidences"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# public calls that each run a pseudo-remainder sequence on their input
PRS_CALLS = (
    "roots.yun_decomposition",
    "roots.squarefree_part",
    "roots.sturm_count",
    "roots.isolate_real_roots",
    "roots.window_counts",
)

# what a call leaves behind for the work counters, taken from its arguments
_NOTES = {
    "polycore.cyclotomic": lambda n: n,
    "roots.window_counts": lambda m, n: (m, n),
    "roots.complex_roots": lambda p, *a, **k: p.degree,
    "roots.yun_decomposition": lambda p: p.coeffs,
    "roots.squarefree_part": lambda p: p.coeffs,
    "roots.sturm_count": lambda p, *a, **k: p.coeffs,
    "roots.isolate_real_roots": lambda p: p.coeffs,
}


def cyclolab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "cyclolab" or name.startswith("cyclolab.")]


class Tracer:
    """Wrappers plus the spans they record, as parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []  # span name per id
        self.parent: list[int] = []  # parent span id, -1 for a root
        self.start: list[int] = []  # perf_counter_ns
        self.end: list[int] = []
        self.notes: dict[str, list] = {name: [] for name in _NOTES}
        self._stack = [-1]
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span around the body of a with block."""
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        notes = self.notes.get(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            if note is not None:
                notes.append(note(*args, **kwargs))
            idx = opened(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from importlib import import_module

        for layer in LAYERS:
            import_module(f"cyclolab.{layer}")
        self._originals = {
            name: getattr(sys.modules[f"cyclolab.{name.rsplit('.', 1)[0]}"], name.rsplit(".", 1)[1])
            for name in TRACED_NAMES
        }
        by_id = {id(fn): (name, self._wrap(name, fn)) for name, fn in self._originals.items()}
        for mod in cyclolab_modules():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and value is self._originals[hit[0]]:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    def originals(self) -> dict[str, object]:
        return dict(self._originals)

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name.

        total_s counts only outermost calls, so a function that reaches
        itself through another traced function is not counted twice.
        """
        selfs = self.self_ns()
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[idx] / 1e9
            par = self.parent[idx]
            while par >= 0 and self.names[par] != name:
                par = self.parent[par]
            if par < 0:
                row["total_s"] += (self.end[idx] - self.start[idx]) / 1e9
        return out

    def root_ns(self) -> int:
        """Summed duration of the root spans: the traced wall time."""
        return sum(self.end[i] - self.start[i] for i, par in enumerate(self.parent) if par < 0)

    def write(self, path) -> None:
        """Dump every span as one tab-separated line: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for idx, name in enumerate(self.names):
                fh.write(f"{idx}\t{name}\t{self.start[idx]}\t{self.end[idx]}\t{self.parent[idx]}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
