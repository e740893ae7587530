"""Module layout: import order, the cost of compiling each module, and
no dead top-level code.

``roots`` re-exports the public functions of ``window`` and
``complexroots``, which import the real-root core from ``roots``; each of
the three must import cleanly as a process's first import.  Every module
is compiled from source whenever no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE``), and the largest compile sets the peak
memory of a short run, so each module's compile peak is bounded.  Every
top-level function and class of the package is used somewhere in
``src/``, ``tests/`` or ``perfbench/``.
"""
import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cyclolab

PACKAGE = Path(cyclolab.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

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


def _source_module(node: ast.ImportFrom) -> str | None:
    # the cyclolab module a from-import reads, "" for the package itself;
    # relative imports occur only inside the package
    if node.level:
        return node.module or ""
    if node.module == "cyclolab":
        return ""
    if node.module and node.module.startswith("cyclolab."):
        return node.module.split(".", 1)[1]
    return None


def _uses_elsewhere(tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) for each name imported from a cyclolab module or read
    as an attribute of one, through whatever alias the file binds it to."""
    aliases: dict[str, str] = {}  # local name -> module, "" for the package
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _source_module(node)) is not None:
            for a in node.names:
                if source == "" and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                else:
                    used.add((source, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "cyclolab" or a.name.startswith("cyclolab."):
                    if a.asname:
                        aliases[a.asname] = a.name.partition(".")[2]
                    else:
                        aliases["cyclolab"] = ""

    def module_of(expr) -> str | None:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == "" and expr.attr in modules:
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (source := module_of(node.value)) is not None:
            used.add((source, node.attr))
    return used


def _top_level_definitions(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _used_in_own_module(tree: ast.Module, definition) -> bool:
    # a read of the name anywhere but inside its own definition
    inner = {id(node) for node in ast.walk(definition)}
    return any(
        isinstance(node, ast.Name) and node.id == definition.name and id(node) not in inner for node in ast.walk(tree)
    )


def test_no_unused_top_level_definition():
    package = {("" if p.stem == "__init__" else p.stem): ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    used = set()
    for root in ("src", "tests", "perfbench"):
        for path in sorted((REPO / root).rglob("*.py")):
            used |= _uses_elsewhere(ast.parse(path.read_text()), set(package) - {""})
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(package.items())
        for node in _top_level_definitions(tree)
        if (module, node.name) not in used and not _used_in_own_module(tree, node)
    ]
    assert not unused, f"defined but never used: {unused}"
