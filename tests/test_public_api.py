"""Every name the package exports has a caller outside its own definition,
and ``netgame`` hands out the very object its home module defines.

A caller is a reference in another ``netgame`` module, in the acceptance suite
or in the benchmark (``perfbench``).  The files are parsed, not imported, and
only uses count: a ``def``/``class`` line, a use inside that same definition,
an import and a docstring mention do not.  A helper that only unit tests call
belongs in those tests as a reference, not in the public API.
"""

import ast
import importlib
from pathlib import Path

import pytest

import netgame

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netgame"
CALLERS = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _exported() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["_EXPORTS"]]
    return [name for names in ast.literal_eval(table).values() for name in names]


def _used() -> set:
    used = set()
    for path in CALLERS:
        for top in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            names.discard(getattr(top, "name", None))   # a def or class using itself
            used |= names
    return used


def test_every_export_has_a_caller():
    exported = _exported()
    assert "build_pi" in exported and "solve_direct" in exported
    used = _used()
    assert [name for name in exported if name not in used] == []


def test_each_export_is_its_home_modules_object():
    assert netgame.__all__ == sorted(_exported())
    assert [name for module, names in netgame._EXPORTS.items() for name in names
            if getattr(netgame, name)
            is not getattr(importlib.import_module(f"netgame.{module}"), name)] == []
    assert netgame.build_pi is netgame.typespace.build_pi


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from netgame import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == netgame.__all__
    assert set(netgame.__all__) <= set(dir(netgame))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'netgame' has no attribute 'solve'"):
        netgame.solve


def test_convergence_error_is_one_class():
    import netgame.equilibrium
    assert netgame.ConvergenceError is netgame.equilibrium.ConvergenceError
