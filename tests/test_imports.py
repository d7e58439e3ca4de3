"""Every name a fedal module imports is used, and every private helper is called.

No linter ships with the project's toolchain, so this walks the syntax tree:
an imported name counts as used when it appears as a ``Name`` node, which
includes the base of an attribute chain such as ``np.asarray``.  The package
``__init__`` re-exports names and is skipped.

A private (``_``-prefixed) top-level name counts as referenced when some
other top-level statement of the package names it, as a ``Name`` (``_loss``)
or as an attribute (``nn._loss``); a helper that only calls itself is dead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "import numpy as np\nfrom .orchestrator import ALConfig, run_strategy\nrun_strategy(np.e)\n"
    assert _unused_imports(source) == ["line 2: ALConfig"]


def _top_level_names(stmt) -> set[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    defined, referenced = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {n for n in _top_level_names(stmt) if n.startswith("_") and not n.startswith("__")}
            defined.update((name, f"{module}: {name}") for name in names)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name not in names:
                    referenced.add(name)
                if isinstance(node, ast.alias):
                    referenced.add(node.name)
    return sorted(label for name, label in defined.items() if name not in referenced)


def test_every_private_top_level_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


def test_the_scan_finds_a_dead_private_helper():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from . import a\nfrom .a import _LIMIT\n\ndef run():\n    return a._used()\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py: _dead"]
