"""The benchmark's tracer wraps library functions by name; keep those names.

``perfbench/traced_cli.py`` replaces each ``(module, name)`` of its ``TRACED``
list with a timing wrapper and reads ``netsim.generate``'s ``simple`` flag as
the fourth positional argument.  A renamed or deleted function would only
fail halfway through a traced benchmark run; these tests fail first.
"""

import importlib.util
import inspect
from pathlib import Path

from netgame import netsim

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    traced = _load_traced_cli().TRACED
    assert traced
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in traced
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_generate_takes_simple_fourth():
    assert list(inspect.signature(netsim.generate).parameters)[3] == "simple"
