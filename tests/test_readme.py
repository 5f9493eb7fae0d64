"""The README's library example runs as printed, and help prints its
command-line grammar."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from helpers import algebra_of
from ilalg import enumerate_filters
from ilalg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library surface"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(enumerate_filters(algebra_of("chain6lo")))
    assert all("TheoremCheck(premise=" in line for line in lines)


def test_help_prints_the_command_line_grammar(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    grammar = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    assert main(["--help"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("usage: ilalg ")
    assert [line[len("usage: "):] for line in printed] == grammar
