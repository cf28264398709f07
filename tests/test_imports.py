"""Source hygiene: no module of the package imports a name it never reads,
the private names each module takes from its siblings are pinned, every
process-wide cache is bounded, and the pricing modules sum a flow table only
through the one fold."""

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
    "scenario.py": {"bonds": ["_bond_flows", "_fold", "_interp_rows", "_pv"],
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


# every process-wide cache by module: a function under functools.cache or
# lru_cache, or a module-level container that a function fills; a cache added
# or dropped changes this table
CACHES = {"cli.py": ["build_parser"], "curve.py": ["_normal_equations"],
          "io.py": ["_kernel_tables", "_memo"]}

_FILLS = {"append", "extend", "insert", "update", "setdefault", "add"}


def _cache_kind(decorator: ast.expr) -> str | None:
    """"cache" or "lru_cache" for a functools cache decorator, however imported."""
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name if name in ("cache", "lru_cache") else None


def _caches(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The module's caches by name, and each one that can grow without
    bound: functools.cache on a function that takes parameters, or an
    lru_cache whose maxsize is not given as an int."""
    found, unbounded = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for d in node.decorator_list:
            kind = _cache_kind(d)
            if kind is None:
                continue
            found.add(node.name)
            a = node.args
            if kind == "cache" and (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                unbounded.append(f"{node.lineno}: {node.name}: functools.cache on a function with parameters")
            elif kind == "lru_cache":
                sizes = [*d.args[:1], *(k.value for k in d.keywords if k.arg == "maxsize")] \
                    if isinstance(d, ast.Call) else []
                if not any(isinstance(s, ast.Constant) and type(s.value) is int for s in sizes):
                    unbounded.append(f"{node.lineno}: {node.name}: lru_cache without an int maxsize")
    containers = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (ast.List, ast.Dict, ast.Set)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FILLS and isinstance(node.func.value, ast.Name)
                and node.func.value.id in containers):
            found.add(node.func.value.id)
    return sorted(found), unbounded


def test_the_guard_sees_an_unbounded_cache():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n_memo = []\n_table = {}\n"
        "@functools.cache\ndef a(x): ...\n@cache\ndef b(): ...\n"
        "@functools.lru_cache\ndef c(x): ...\n@lru_cache(maxsize=None)\ndef d(x): ...\n"
        "@functools.lru_cache(maxsize=16)\ndef e(x): ...\n@lru_cache(8)\ndef f(x): ...\n"
        "def g(): _memo.append(1)\n")
    assert _caches(tree) == (["_memo", "a", "b", "c", "d", "e", "f"], [
        "6: a: functools.cache on a function with parameters",
        "10: c: lru_cache without an int maxsize",
        "12: d: lru_cache without an int maxsize"])


def test_every_process_wide_cache_is_bounded_and_pinned():
    got, unbounded = {}, []
    for p in MODULES:
        names, faults = _caches(ast.parse(p.read_text(), filename=str(p)))
        if names:
            got[p.name] = names
        unbounded += [f"{p.name}:{fault}" for fault in faults]
    assert not unbounded, unbounded
    assert got == CACHES


# the pricing modules sum a flow table one way, bonds._fold; the only other
# sum is estimate_order's slope, a sum of Python floats, not of a flow table
PRICING = {"bonds.py": {"_fold"}, "scenario.py": {"estimate_order"}}

_SUMS = {"sum", "nansum", "cumsum", "fsum"}


def _sums(tree: ast.Module) -> list[str]:
    """Each call that sums, with its line and the function it sits in (the
    innermost; a lambda counts as its function's): builtin sum, np.sum,
    x.sum, math.fsum, cumsum and np.add.reduce, accumulate or reduceat."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                adds = (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute)
                        and f.value.attr == "add" and name in ("reduce", "accumulate", "reduceat"))
                if name in _SUMS or adds:
                    found.append(f"{child.lineno}: {where}: {ast.unparse(f)}")
            visit(child, where)

    visit(tree, "<module>")
    return found


def _stray_sums(path: Path, source: str) -> list[str]:
    """The sums of a pricing module outside the functions allowed one."""
    return [f"{path.name}:{s}" for s in _sums(ast.parse(source, filename=str(path)))
            if s.split(": ")[1] not in PRICING[path.name]]


def test_the_guard_sees_a_sum_outside_the_fold():
    tree = ast.parse("import numpy as np\ndef _fold(x):\n    return np.add.reduce(x, axis=0)\n"
                     "def f(pv):\n    g = lambda v: v.cumsum()\n"
                     "    return pv.sum(axis=-1) + np.sum(pv) + sum(pv.tolist()) + g(pv)\n")
    assert _sums(tree) == ["3: _fold: np.add.reduce", "5: f: v.cumsum", "6: f: pv.sum",
                           "6: f: np.sum", "6: f: sum"]
    bonds = PACKAGE / "bonds.py"
    planted = bonds.read_text() + "\n\ndef _marks(pv):\n    return pv.sum(axis=-1)\n"
    assert [s.split(": ", 1)[1] for s in _stray_sums(bonds, planted)] == ["_marks: pv.sum"]


@pytest.mark.parametrize("name", sorted(PRICING))
def test_pricing_sums_a_flow_table_only_through_the_fold(name):
    path = PACKAGE / name
    assert not _stray_sums(path, path.read_text())
