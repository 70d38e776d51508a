"""The package re-exports cover every planeprof name the benchmark imports."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def planeprof_imports(source: str):
    """(module, name) for each planeprof import in ``source``, including the
    code held in its string constants; name is None for a plain import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planeprof"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.startswith("planeprof"))
        elif isinstance(node, ast.Constant) and "planeprof" in str(node.value):
            try:
                yield from planeprof_imports(node.value)
            except SyntaxError:
                pass


def test_bench_imports_resolve():
    used = {
        pair
        for path in sorted(BENCH.glob("*.py"))
        for pair in planeprof_imports(path.read_text(encoding="utf-8"))
    }
    assert ("planeprof.reporting", "render") in used
    missing = []
    for module, name in sorted(used, key=str):
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{module}.{name}")
    assert missing == []
