"""Static checks over the package and test sources."""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
# __init__.py re-exports its imports through __all__
MODULES = sorted(p for d in ("src/cavitydd", "tests")
                 for p in (REPO_ROOT / d).glob("*.py")
                 if p.name != "__init__.py")
PACKAGE_MODULES = sorted((REPO_ROOT / "src/cavitydd").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_scanner_finds_unused_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
           "def f():\n    return np.pi + d\n")
    assert unused_imports(src) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_defs(source: str) -> list[str]:
    """Private module-level functions and classes the module never names
    again: helpers left behind once their last caller is gone."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name not in used]


def test_scanner_finds_orphaned_private_defs():
    src = ("def _used():\n    return 1\n"
           "def _orphan():\n    return 2\n"
           "class _Orphan:\n    def _method(self):\n        pass\n"
           "def __getattr__(name):\n    pass\n"
           "def public():\n    return _used()\n")
    assert orphaned_private_defs(src) == ["line 3: _orphan", "line 5: _Orphan"]


@pytest.mark.parametrize("path", PACKAGE_MODULES,
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_orphaned_private_defs(path):
    assert orphaned_private_defs(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters that their function's body never reads: an argument left
    in a signature once the code that used it is gone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"line {node.lineno}: {node.name}({name})"
                  for name in params if name not in read]
    return found


def test_scanner_finds_unread_parameters():
    src = ("def f(a, b, *args, c=1, **kw):\n    b = a\n    return c\n"
           "def outer(y, z=lambda z: z):\n"
           "    def inner():\n        return y\n    return inner\n"
           "class K:\n    def m(self, x):\n        return self\n")
    assert unread_parameters(src) == [
        "line 1: f(b)", "line 1: f(args)", "line 1: f(kw)",
        "line 4: outer(z)", "line 9: m(x)"]


@pytest.mark.parametrize("path", PACKAGE_MODULES,
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []
