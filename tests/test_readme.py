"""The README's Python tour and command-line examples run as written."""

import math
import re
import shlex
from pathlib import Path

from fadenet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_tour_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["kappa"] == 2
    assert math.isfinite(namespace["slope"])


def test_command_line_examples_run(tmp_path, monkeypatch):
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no command-line block"
    commands = block.group(1).replace("\\\n", " ").splitlines()
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "fadenet"
        assert main(argv) == 0, command
    assert (tmp_path / "sweep.csv").read_text().startswith("E,kappa_star,")
