"""Smoke test: every demo script runs to completion."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
