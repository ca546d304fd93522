"""The benchmark tracer still finds every hook point it patches.

``perfbench/spans.py`` wraps named functions of the package from outside;
a refactor that drops or moves one of those names breaks the traced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_traced_predict_hits_the_model_hooks(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    prefix = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "spans.py"), str(prefix),
         "predict", "--machine", "pleiades2", "--json", "-P", "4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sums = json.loads(Path(f"{prefix}.sums.json").read_text())["sums"]
    assert sums["gamma.predict_time|calls"] == 1
    assert sums["partition.partition_elements|calls"] == 1
