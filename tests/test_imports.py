"""No ``netgame`` module imports a name it never uses, or a slow module early.

The files are parsed, not imported.  A name counts as used when it appears as
a bare name anywhere in the module, including as the root of an attribute
(``np`` in ``np.ndarray``).  Which modules a command loads is checked in a
fresh interpreter, and so is the program entry: how its process ends.
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


def _fresh(*args, check=True, **kwargs):
    """A fresh interpreter's run with ``src`` first on its path and no $NETGAME_OUT."""
    env = {key: value for key, value in os.environ.items() if key != "NETGAME_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check, **kwargs)


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


# runs the module as ``-m`` does; an atexit hook runs after the entry has exited
# and before the interpreter's shutdown collections
HOOKED_ENTRY = ("import atexit, gc, runpy\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                "runpy.run_module('netgame.cli', run_name='__main__', alter_sys=True)")


@pytest.mark.parametrize("argv, status", [
    (["example"], 0),
    (["--help"], 0),
    (["simulate", "--n", "200", "--trials", "1", "--tol", "0"], 1),
    (["solve", "--model", "oops"], 2),
    (["--no-such-flag"], 2),
], ids=["example", "help", "simulate-over-tol", "bad-model", "unknown-flag"])
def test_the_module_entry_freezes_the_heap_and_keeps_the_exit_status(argv, status, tmp_path):
    hooked = _fresh("-c", HOOKED_ENTRY, *argv, cwd=tmp_path, check=False)
    assert (hooked.returncode, hooked.stdout.splitlines()[-1]) == (status, "frozen True")
    assert _fresh("-m", "netgame.cli", *argv, cwd=tmp_path, check=False).returncode == status


def test_the_frozen_entry_writes_what_main_writes(tmp_path):
    # both processes share one BLAS thread count, at which the solve's bytes hold
    argv = ["solve", "--model", "8,16,24:0.5,0.3,0.2", "--out"]
    code = ("import contextlib, io, sys, netgame.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sys.exit(netgame.cli.main(sys.argv[1:]))")
    _fresh("-c", code, *argv, str(tmp_path / "main"))
    assert _fresh("-c", HOOKED_ENTRY, *argv, str(tmp_path / "entry")).stdout.endswith(
        "\nfrozen True\n")
    names = sorted(path.name for path in (tmp_path / "main").iterdir())
    assert names == ["solution.csv", "solution.json"]
    assert [(tmp_path / "entry" / name).read_bytes() for name in names] == [
        (tmp_path / "main" / name).read_bytes() for name in names]
