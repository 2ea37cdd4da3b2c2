"""The experiment scripts run to completion at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, status=0):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == status, proc.stderr
    return proc


def test_pure_involution_trend_script():
    out = _run_script("run_pure_involution_trend.py", "--max-n", "4", "--vertex-max-n", "4").stdout
    assert "min_hamming" in out and "message 5" in out


def test_ensemble_average_script():
    out = _run_script(
        "run_ensemble_average.py", "--n", "3", "--m", "1", "--samples", "2",
        "--weight-n", "3", "--weight-m", "1", "--weight-samples", "2",
    ).stdout
    assert "weight spectrum, n=3" in out


def test_snr_comparison_script():
    # Calls both union bounds for each code at the one SNR point.
    out = _run_script("run_snr_comparison.py", "--snr", "4:4:1", "--trials", "2").stdout
    assert out.count("lp_bound") == 2


def test_snr_comparison_script_rejects_a_zero_step():
    # The grid is the CLI's: a zero step is refused, not looped over forever.
    proc = _run_script("run_snr_comparison.py", "--snr", "0:8:0", status=2)
    assert "step > 0" in proc.stderr and "Traceback" not in proc.stderr
