"""No ``netgame`` module imports a name it never uses, or a slow module early.

The files are parsed, not imported.  A name counts as used when it appears as
a bare name anywhere in the module, including as the root of an attribute
(``np`` in ``np.ndarray``).  Which modules a command loads is checked in a
fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netgame"
MODULES = sorted(PACKAGE.glob("*.py"))


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


def _fresh(*args, **kwargs):
    """A fresh interpreter's run with ``src`` first on its path and no $NETGAME_OUT."""
    env = {key: value for key, value in os.environ.items() if key != "NETGAME_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, **kwargs)


def test_cli_import_leaves_the_executor_out():
    # ``concurrent.futures`` pulls in ``logging``, which no command needs
    code = ("import sys, netgame.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert _fresh("-c", code).stdout == "[]\n"


def test_a_run_of_trials_leaves_the_executor_out():
    # its second thread is a plain ``threading.Thread``
    code = ("import sys\n"
            "from netgame import DegreeModel, netsim\n"
            "netsim.monte_carlo_estimator_check(DegreeModel((4, 6), (0.6, 0.4)), 500, trials=3)\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert _fresh("-c", code).stdout == "[]\n"


@pytest.mark.parametrize("argv, loaded", [
    ([], "cli population"),
    (["solve", "--out", "."], "cli equilibrium estimators population typespace"),
    (["sweep", "precision", "--d1", "2,inf", "--grid", "5", "--out", "."],
     "analysis cli equilibrium estimators population typespace"),
    (["simulate", "--n", "200", "--trials", "1", "--tol", "0.5"],
     "cli estimators netsim population"),
], ids=["import", "solve", "sweep-precision", "simulate"])
def test_each_command_loads_only_its_modules(argv, loaded, tmp_path):
    code = ("import contextlib, io, sys, netgame.cli\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert netgame.cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(name[8:] for name in sys.modules if name.startswith('netgame.')))")
    assert _fresh("-c", code, *argv, cwd=tmp_path).stdout == loaded + "\n"


def test_cli_runs_as_a_module_without_warnings():
    # runpy warns when ``import netgame`` has already loaded ``netgame.cli``
    assert _fresh("-W", "error", "-m", "netgame.cli", "example").stderr == ""
