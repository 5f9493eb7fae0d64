"""Test-session set-up shared by every module under tests/."""
from __future__ import annotations

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # `pythonpath` in pyproject.toml reaches only this process; the CLI
    # tests start `python -m ilalg` subprocesses, which need it too.
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
