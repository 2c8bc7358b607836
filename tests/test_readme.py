"""Every fenced ``python`` block of README.md runs without error, and every
``netgame`` line of its Command line block exits 0.

A README example that still uses a removed name or flag fails here first.
"""

import re
import shlex
from pathlib import Path

import pytest

from netgame.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
CLI_BLOCK = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", TEXT, re.M | re.S).group(1)
COMMANDS = [shlex.split(line, comments=True)[1:] for line in CLI_BLOCK.splitlines()
            if line.startswith("netgame ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NETGAME_OUT", str(tmp_path / "netgame-out"))
    assert main(argv) == 0
