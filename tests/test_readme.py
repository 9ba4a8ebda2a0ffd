"""README's examples run as written: each `stratdef` command of its sh
blocks through the CLI entry point, and the Python quick tour, so that a
removed command or flag cannot stay documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from stratdef.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.M | re.S)


def _commands() -> list:
    """The stratdef command lines of README's sh blocks, continuation lines
    joined and comments dropped."""
    cmds = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["stratdef"]:
                cmds.append(argv[1:])
    return cmds


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cmds = _commands()
    assert len(cmds) >= 5
    for argv in cmds:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_quick_tour_runs(capsys):
    (tour,) = _blocks("python")
    exec(compile(tour, str(README), "exec"), {})
    assert "exists" in capsys.readouterr().out
