"""The README's maintenance scripts run cleanly on a small corpus."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["random_selfcheck.py", "closure_growth.py"])
def test_script_exits_zero(script):
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


def test_script_runs_from_another_directory(tmp_path):
    # The scripts locate src/ from their own path, not from the cwd or the
    # environment.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "random_selfcheck.py"),
         "--count", "10"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 discrepancies" in result.stdout
