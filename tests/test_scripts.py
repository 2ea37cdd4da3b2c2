"""The experiment scripts run to completion at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pure_involution_trend_script():
    out = _run_script("run_pure_involution_trend.py", "--max-n", "4", "--vertex-max-n", "4")
    assert "min_hamming" in out and "message 5" in out


def test_ensemble_average_script():
    out = _run_script(
        "run_ensemble_average.py", "--n", "3", "--m", "1", "--samples", "2",
        "--weight-n", "3", "--weight-m", "1", "--weight-samples", "2",
    )
    assert "weight spectrum, n=3" in out


@pytest.mark.slow  # about 12 s: the fixed-pair polytope's vertex enumeration
def test_snr_comparison_script():
    # Calls both union bounds for each code at the one SNR point.
    out = _run_script("run_snr_comparison.py", "--snr", "4:4:1", "--trials", "2")
    assert out.count("lp_bound") == 2
