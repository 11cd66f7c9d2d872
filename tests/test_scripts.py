"""The README's maintenance scripts run cleanly on a small corpus."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["random_selfcheck.py", "closure_growth.py"])
def test_script_exits_zero(script):
    # Run from the repo root, as the README documents: the scripts find the
    # package through the relative path "src".
    result = subprocess.run(
        [sys.executable, f"scripts/{script}", "--count", "30"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    if script == "random_selfcheck.py":
        # The summary times the UNSAT cross-check on its own.
        assert re.search(r"cross-check \d+ searches in \d+\.\d\ds", result.stdout)
