"""The scripts in scripts/ run, and tune_profiles.py reproduces the constants
frozen in semperf/profiles.py."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semperf import profiles

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name",
    [
        "interconnect_fit.py",
        "strong_scaling_report.py",
        "usage_histogram_demo.py",
    ],
)
def test_script_runs(name):
    assert run_script(name)


def test_tune_profiles_reproduces_frozen_constants():
    out = run_script("tune_profiles.py")
    fitted = re.search(
        r"iteration budget: (\d+) .*"
        r"bandwidth = (\S+) MB/s, latency = (\S+) s.*"
        r"peak = (\S+) MFlop/s, curvature = (\S+)\n",
        out,
        re.DOTALL,
    ).groups()
    assert fitted == (
        str(profiles.REFERENCE_ITERS_PER_STEP),
        f"{profiles._SIM_BANDWIDTH_MBS:.6f}",
        f"{profiles._SIM_LATENCY_S:.6e}",
        f"{profiles._XT3_PEAK_MFLOPS:.4f}",
        f"{profiles._XT3_RATE_CURVATURE:.6f}",
    )
