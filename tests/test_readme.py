"""The README's library example runs as printed."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from helpers import algebra_of
from ilalg import enumerate_filters

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
