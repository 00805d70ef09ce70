"""README's examples, run as written there: every ``triwalk`` line of the
"Command line" block through ``cli.main``, and the "Library quick start"."""

import contextlib
import io
import shlex
from pathlib import Path

from triwalk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    lines = code_block("## Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("triwalk ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("## Library quick start", "python"), {})
    assert len(out.getvalue().splitlines()) == 3
