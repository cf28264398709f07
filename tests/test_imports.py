"""Source hygiene: no module of the package imports a name it never reads,
and the private names each module takes from its siblings are pinned."""

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


# each module's private names (_x) imported from its sibling modules: a module
# that comes to know another's internals, or stops, changes this table
SIBLING_PRIVATES = {
    "backtest.py": {"bonds": ["_roll_table"], "curve": ["_history"],
                    "hedging": ["_check_legs", "_ratios"]},
    "bonds.py": {"curve": ["_SPAN_TOL"]},
    "cli.py": {"io": ["_iso_date", "_write"]},
    "hedging.py": {"bonds": ["_check_marks"], "curve": ["_condition_number"]},
    "io.py": {"curve": ["_bad_rows", "_check_grid", "_history"]},
    "scenario.py": {"bonds": ["_bond_flows", "_interp_rows", "_pv"],
                    "curve": ["_SPAN_TOL", "_shock_block"]},
}


def _sibling_privates(tree: ast.Module) -> dict[str, list[str]]:
    """The private names each relative import, at any depth, takes by module."""
    found: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names if alias.name.startswith("_")]
            if names:
                found.setdefault(node.module or "", []).extend(names)
    return {module: sorted(names) for module, names in found.items()}


def test_the_guard_sees_a_private_import():
    tree = ast.parse("from .a import _x, y\nfrom .b import z\ndef f():\n    from .a import _w\n")
    assert _sibling_privates(tree) == {"a": ["_w", "_x"]}


def test_sibling_private_imports_are_pinned():
    got = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
           if (found := _sibling_privates(ast.parse(p.read_text(), filename=str(p))))}
    assert got == SIBLING_PRIVATES
