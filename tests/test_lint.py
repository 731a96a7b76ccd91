"""Static checks over the package and test sources."""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
# __init__.py re-exports its imports through __all__
MODULES = sorted(p for d in ("src/cavitydd", "tests")
                 for p in (REPO_ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


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
