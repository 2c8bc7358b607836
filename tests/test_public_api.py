"""Every name the package exports has a caller outside its own definition.

A caller is a reference in another ``netgame`` module, in the acceptance suite
or in the benchmark (``perfbench``).  The files are parsed, not imported, and
only uses count: a ``def``/``class`` line, a use inside that same definition,
an import and a docstring mention do not.  A helper that only unit tests call
belongs in those tests as a reference, not in the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netgame"
CALLERS = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _exported() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


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
