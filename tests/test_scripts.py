"""Smoke test of the calibration script: it runs on the package as it is
and prints both of its tables."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_calibrate_defaults_runs_one_seed():
    # the script puts `src` on its path relative to the working directory
    result = subprocess.run(
        [sys.executable, os.path.join("scripts", "calibrate_defaults.py"), "seeds=1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "=== trial measures over 1 seeds (mean [min, max]) ===" in result.stdout
    assert "=== coarse tipping measures over 1 seeds ===" in result.stdout
