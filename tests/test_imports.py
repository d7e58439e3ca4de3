"""Every name a fedal module imports is used, and every private helper is called.

No linter ships with the project's toolchain, so this walks the syntax tree:
an imported name counts as used when it appears as a ``Name`` node, which
includes the base of an attribute chain such as ``np.asarray``.  The package
``__init__`` re-exports names and is skipped.

A private (``_``-prefixed) top-level name counts as referenced when some
other top-level statement of the package names it, as a ``Name`` (``_loss``)
or as an attribute (``nn._loss``); a helper that only calls itself is dead.

A public top-level function or class must be referenced the same way from
the package (its ``__init__`` export aside), from ``scripts/`` or from
``perfbench/``, where a ``"fedal.<module>:<name>"`` binding string also
counts.  Tests do not count: public API that only tests call is dead.

The third-party modules the package imports are exactly the runtime
dependencies in ``pyproject.toml``, and ``import fedal`` loads no test-only
dependency such as scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
API = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BINDING = re.compile(r"fedal\.\w+:(\w+)")


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
    if isinstance(stmt, API):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced_names(node, skip=frozenset()) -> set[str]:
    """Names that ``node`` mentions as a ``Name``, an attribute, an import or a binding string."""
    referenced = set()
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name is not None and name not in skip:
            referenced.add(name)
        if isinstance(sub, ast.alias):
            referenced.add(sub.name)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            referenced.update(BINDING.findall(sub.value))
    return referenced


def _unreferenced_names(sources: dict[str, str], public: bool = False, callers=()) -> list[str]:
    """Top-level names of ``sources`` that no other statement there or in ``callers`` references.

    Private names by default; with ``public``, the public functions and
    classes, and the package ``__init__`` neither defines nor references any.
    """
    defined, referenced = {}, set()
    for module, source in sources.items():
        if public and module == "__init__.py":
            continue
        for stmt in ast.parse(source).body:
            names = {n for n in _top_level_names(stmt) if n.startswith("_") != public and not n.startswith("__")}
            if public and not isinstance(stmt, API):
                names = set()
            defined.update((name, f"{module}: {name}") for name in names)
            referenced |= _referenced_names(stmt, skip=names)
    for source in callers:
        referenced |= _referenced_names(ast.parse(source))
    return sorted(label for name, label in defined.items() if name not in referenced)


def test_every_private_top_level_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _unreferenced_names(sources) == []


def test_the_scan_finds_a_dead_private_helper():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from . import a\nfrom .a import _LIMIT\n\ndef run():\n    return a._used()\n",
    }
    assert _unreferenced_names(sources) == ["a.py: _dead"]


def test_every_public_function_and_class_is_referenced_outside_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8")
               for directory in ("scripts", "perfbench") for p in (ROOT / directory).glob("*.py")]
    assert _unreferenced_names(sources, public=True, callers=callers) == []


def test_the_scan_finds_an_unused_public_name():
    sources = {
        "__init__.py": "from .a import LIMIT, TABLE, run, export_only\n",
        "a.py": "LIMIT = 3\nTABLE = (1, 2)\n\ndef run():\n    return LIMIT\n\ndef traced():\n    pass\n\n"
                "def export_only(n):\n    return export_only(n - 1)\n",
    }
    callers = ["from fedal.a import run\nTARGET = 'fedal.a:traced'\n"]
    assert _unreferenced_names(sources, public=True, callers=callers) == ["a.py: export_only"]


# Import names of runtime distributions whose name differs from the module's.
MODULE_OF_DISTRIBUTION = {"pyyaml": "yaml"}


def _third_party_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source`` that are neither stdlib nor fedal."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"fedal"}


def test_the_scan_finds_third_party_imports():
    source = "import os.path\nimport numpy as np\nfrom scipy.special import entr\nfrom . import nn\nfrom fedal import data\n"
    assert _third_party_modules(source) == {"numpy", "scipy"}


def test_the_package_imports_exactly_its_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower()
        declared.add(MODULE_OF_DISTRIBUTION.get(name, name))
    imported = set().union(*(_third_party_modules(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    assert imported == declared


def test_importing_fedal_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import fedal, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
