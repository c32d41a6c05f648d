"""Smoke tests of the calibration script: it runs on the package as it is
and prints both of its tables, from the repository root and from elsewhere."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_one_seed(cwd, env=None):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "calibrate_defaults.py"), "seeds=1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "=== trial measures over 1 seeds (mean [min, max]) ===" in result.stdout
    assert "=== coarse tipping measures over 1 seeds ===" in result.stdout


def test_calibrate_defaults_runs_one_seed():
    _run_one_seed(ROOT)


def test_calibrate_defaults_runs_from_another_directory(tmp_path):
    # without PYTHONPATH, only the script's own path to `src` finds phasetip
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    _run_one_seed(tmp_path, env)
