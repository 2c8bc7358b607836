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


def _env(unbuffered=None):
    """The environment of a fresh interpreter: ``src`` first on its path, no
    $NETGAME_OUT, and $PYTHONUNBUFFERED as it is here unless a bool is given."""
    env = {key: value for key, value in os.environ.items() if key != "NETGAME_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def _fresh(*args, check=True, **kwargs):
    """A fresh interpreter's run in :func:`_env`, its output captured as text."""
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True,
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


@pytest.mark.parametrize("argv, loaded, slow", [
    ([], "cli population", []),
    (["solve", "--out", "."], "cli equilibrium estimators population typespace", []),
    (["sweep", "precision", "--d1", "2,inf", "--grid", "5", "--out", "."],
     "analysis cli equilibrium estimators population typespace", []),
    (["simulate", "--n", "200", "--trials", "1", "--tol", "0.5"],
     "cli estimators netsim population", []),
    (["example", "--exact"], "behavior cli equilibrium estimators population typespace",
     ["decimal", "fractions"]),
], ids=["import", "solve", "sweep-precision", "simulate", "example-exact"])
def test_each_command_loads_only_its_modules(argv, loaded, slow, tmp_path):
    # fractions (which loads decimal) and csv cost about 3 ms to import; only
    # exact arithmetic needs fractions, and no command needs csv
    code = ("import contextlib, io, sys, netgame.cli\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert netgame.cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(name[8:] for name in sys.modules if name.startswith('netgame.')))\n"
            "print(sorted({'csv', 'decimal', 'fractions'} & set(sys.modules)))")
    assert _fresh("-c", code, *argv, cwd=tmp_path).stdout == f"{loaded}\n{slow}\n"


def test_cli_runs_as_a_module_without_warnings():
    # runpy warns when ``import netgame`` has already loaded ``netgame.cli``
    assert _fresh("-W", "error", "-m", "netgame.cli", "example").stderr == ""


# runs the module as ``-m`` does, with an atexit hook that only the
# interpreter's shutdown runs
HOOKED_ENTRY = ("import atexit, runpy\n"
                "atexit.register(print, 'shut down')\n"
                "runpy.run_module('netgame.cli', run_name='__main__', alter_sys=True)")


@pytest.mark.parametrize("argv, status", [
    (["example"], 0),
    (["--help"], 0),
    (["simulate", "--n", "200", "--trials", "1", "--tol", "0"], 1),
    (["solve", "--model", "oops"], 2),
    (["--no-such-flag"], 2),
], ids=["example", "help", "simulate-over-tol", "bad-model", "unknown-flag"])
def test_the_module_entry_keeps_the_status_and_skips_the_shutdown(argv, status, tmp_path):
    hooked = _fresh("-c", HOOKED_ENTRY, *argv, cwd=tmp_path, check=False)
    assert hooked.returncode == status
    assert "shut down" not in hooked.stdout
    assert _fresh("-m", "netgame.cli", *argv, cwd=tmp_path, check=False).returncode == status


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_the_entry_writes_what_main_writes(unbuffered, tmp_path):
    # both processes share one BLAS thread count, at which the solve's bytes hold;
    # the entry's stdout is complete although the process ends without a shutdown
    argv = ["solve", "--model", "8,16,24:0.5,0.3,0.2", "--out"]
    code = ("import contextlib, io, sys, netgame.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sys.exit(netgame.cli.main(sys.argv[1:]))")
    _fresh("-c", code, *argv, str(tmp_path / "main"))
    entry = subprocess.run([sys.executable, "-c", HOOKED_ENTRY, *argv, str(tmp_path / "entry")],
                           env=_env(unbuffered), capture_output=True, text=True, check=True)
    solution = tmp_path / "entry" / "solution.csv"
    assert entry.stdout == f"wrote 1046 per-type expectations to {solution}\n"
    names = sorted(path.name for path in (tmp_path / "main").iterdir())
    assert names == ["solution.csv", "solution.json"]
    assert [(tmp_path / "entry" / name).read_bytes() for name in names] == [
        (tmp_path / "main" / name).read_bytes() for name in names]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_ends_the_entry_quietly(unbuffered, tmp_path):
    # status 141, as a shell reports a writer that SIGPIPE ended, and no
    # traceback; pi writes about 1.5 MB, far more than a pipe holds
    argv = ["-m", "netgame.cli", "pi", "--model", "4,8,12:0.5,0.3,0.2"]
    with subprocess.Popen([sys.executable, *argv], env=_env(unbuffered), cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"observer,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_failed_write_to_stdout_is_an_error(unbuffered, tmp_path):
    # a buffered run writes stdout only in the entry's final flush
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "netgame.cli", "example"],
                                env=_env(unbuffered), cwd=tmp_path, stdout=full,
                                stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write stdout: No space left on device\n")
