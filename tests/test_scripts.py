"""model_validation.py prints a table per measured table, including the
tables of the one-table scripts it replaced, tune_profiles.py reproduces
the constants frozen in semperf/profiles.py, and exec_digest.py's digest
is repeatable."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semperf import profiles, refdata

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


def report_rows():
    """Rows per section title of model_validation.py's report, which is
    paragraphs of a title line, a header line and one line per row."""
    rows = {}
    for paragraph in run_script("model_validation.py").split("\n\n"):
        title, *lines = paragraph.strip().splitlines()
        rows[title.split(":")[0]] = len(lines) - 1
    return rows


# The report sections that took the place of the one-table scripts once in
# scripts/, by the name of the script each replaces.
FORMER_SCRIPTS = {
    "interconnect_fit.py": {"Interconnect": len(refdata.INTERCONNECT_ROWS)},
    "strong_scaling_report.py": {
        "Strong scaling": len(refdata.STRONG_SCALING_ROWS)
    },
    "usage_histogram_demo.py": {
        "Usage": len(refdata.USAGE_GAMMA_PAIRS),
        "Simulated 10 h monitored run, P=8": -1,
    },
}


@pytest.mark.parametrize("name", sorted(FORMER_SCRIPTS))
def test_script_runs(name):
    rows = report_rows()
    expected = FORMER_SCRIPTS[name]
    assert {title: rows.get(title) for title in expected} == expected


def test_model_validation_prints_every_table():
    rows = report_rows()
    expected = {
        "Strong scaling": len(refdata.STRONG_SCALING_ROWS),
        "Weak scaling, 4 ranks per node": len(refdata.WEAK_SCALING_4_PER_NODE),
        "Weak scaling, 2 ranks per node": len(refdata.WEAK_SCALING_2_PER_NODE),
        "Degree sweep": len(refdata.DEGREE_SWEEP_ROWS),
        "Interconnect": len(refdata.INTERCONNECT_ROWS),
        "Usage": len(refdata.USAGE_GAMMA_PAIRS),
    }
    assert {title: rows.get(title) for title in expected} == expected


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


def test_exec_digest_is_repeatable():
    # no pinned value: the executed bits depend on the numpy build
    path = ROOT / "scripts" / "exec_digest.py"
    spec = importlib.util.spec_from_file_location("exec_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    config, rank_counts = min(
        script.CASES,
        key=lambda case: case[0].n_elements * case[0].points_per_element,
    )
    smallest = [(config, rank_counts[:1])]
    first = script.exec_digest(smallest)
    assert first == script.exec_digest(smallest)
    assert first != script.exec_digest([(config, rank_counts[1:2])])
