"""Source hygiene: no module of the package imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import curvehedge

PACKAGE = Path(curvehedge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, as a bare name or the base of an attribute."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n")
    assert sorted(set(_imported(tree)) - _read(tree)) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _imported(tree)
    unused = sorted(set(imported) - _read(tree))
    assert not unused, [f"{path.name}:{imported[name]}: {name}" for name in unused]
