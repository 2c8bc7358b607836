"""No ``netgame`` module imports a name it never uses, or a slow module early.

The files are parsed, not imported.  A name counts as used when it appears as
a bare name anywhere in the module, including as the root of an attribute
(``np`` in ``np.ndarray``).  ``__init__.py`` is left out: its imports are the
public API, which ``test_public_api`` checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netgame"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"analysis", "cli", "netsim", "typespace"}


def test_cli_import_leaves_the_executor_out():
    # ``concurrent.futures`` pulls in ``logging``; only multigraph simulate
    # runs of two or more trials import it, so no other command pays for it
    code = ("import sys, netgame.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
