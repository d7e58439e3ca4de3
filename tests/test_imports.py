"""Every name a fedal module imports is used, and every private helper is called.

No linter ships with the project's toolchain, so this walks the syntax tree:
an imported name counts as used when it appears as a ``Name`` node, which
includes the base of an attribute chain such as ``np.asarray``.  The package
``__init__`` re-exports names and is skipped.

A private (``_``-prefixed) top-level name counts as referenced when some
other top-level statement of the package names it, as a ``Name`` (``_loss``)
that no enclosing scope binds, or as an attribute of a fedal module
(``nn._loss``); a helper that only calls itself is dead.  A local ``loss``
or an attribute ``ws.grad`` does not reference ``nn.loss`` or ``nn.grad``.

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


# Nodes that open a scope of their own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _module_names(tree) -> set[str]:
    """The names that a source binds to fedal modules: ``from . import nn``, ``import fedal.nn as fnn``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "fedal" or (node.level and node.module is None)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fedal":
                    names.add(alias.asname or "fedal")
    return names


def _bound_in(scope) -> set[str]:
    """The names that a function, lambda, class body or comprehension binds for its own body."""
    bound, declared_global = set(), set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared_global


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    base = _dotted(node.value) if isinstance(node, ast.Attribute) else None
    return None if base is None else f"{base}.{node.attr}"


def _referenced_names(node, modules=frozenset(), skip=frozenset()) -> set[str]:
    """Names that ``node`` mentions as a global name, an attribute of a fedal module, an import or a binding string.

    A bare name counts only where no enclosing function, lambda or
    comprehension, nor the class body it sits in, binds it; an attribute
    counts only on a name in ``modules`` (see :func:`_module_names`) or on a
    ``fedal.`` chain.
    """
    referenced = set()

    def visit(sub, local, class_local):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in local | class_local:
            referenced.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            base = _dotted(sub.value)
            if base is not None and (base in modules or base.startswith("fedal.")):
                referenced.add(sub.attr)
        elif isinstance(sub, ast.alias):
            referenced.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            referenced.update(BINDING.findall(sub.value))
        if isinstance(sub, ast.ClassDef):
            class_local = _bound_in(sub)
        elif isinstance(sub, SCOPES):
            local, class_local = local | _bound_in(sub), frozenset()
        for child in ast.iter_child_nodes(sub):
            visit(child, local, class_local)

    visit(node, frozenset(), frozenset())
    return referenced - skip


def _unreferenced_names(sources: dict[str, str], public: bool = False, callers=()) -> list[str]:
    """Top-level names of ``sources`` that no other statement there or in ``callers`` references.

    Private names by default; with ``public``, the public functions and
    classes, and the package ``__init__`` neither defines nor references any.
    """
    defined, referenced = {}, set()
    for module, source in sources.items():
        if public and module == "__init__.py":
            continue
        tree = ast.parse(source)
        modules = _module_names(tree)
        for stmt in tree.body:
            names = {n for n in _top_level_names(stmt) if n.startswith("_") != public and not n.startswith("__")}
            if public and not isinstance(stmt, API):
                names = set()
            defined.update((name, f"{module}: {name}") for name in names)
            referenced |= _referenced_names(stmt, modules, skip=names)
    for source in callers:
        tree = ast.parse(source)
        referenced |= _referenced_names(tree, _module_names(tree))
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


def test_the_scan_is_not_fooled_by_same_named_locals_and_attributes():
    sources = {
        "__init__.py": "from .nn import grad, loss, forward, Model\n",
        "nn.py": "def loss(x):\n    return x\n\ndef grad(x):\n    return x\n\ndef forward(x):\n    return x\n\n"
                 "class Model:\n    loss = 0.0\n",
        "fed.py": "from . import nn\n\ndef _train(ws, grad=None):\n    loss = 0.0\n    return ws.grad, loss, grad\n\n"
                  "def _step(ws):\n    return [nn.forward for loss in ws], nn.Model.loss, ws.forward\n",
    }
    assert _unreferenced_names(sources, public=True) == ["nn.py: grad", "nn.py: loss"]
    # A bare name that nothing binds locally, and an attribute on a fedal module, do count.
    sources["fed.py"] += "\ndef _uses(ws):\n    return loss(ws)\n"
    callers = ["import fedal.nn\n\ndef run(ws):\n    grad = fedal.nn.grad\n    return grad(ws)\n"]
    assert _unreferenced_names(sources, public=True, callers=callers) == []


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
