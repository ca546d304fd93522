"""The benchmark tracer still finds every hook point it patches.

``perfbench/spans.py`` wraps named functions of the package from outside;
a refactor that drops or moves one of those names breaks the traced run.
The benchmark also imports package names inside functions that no test
runs, so those names are checked here too, and its step checks run
against an executed unit, so the attributes it reads are checked as well.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from semperf.counts import CaseConfig, laplacian_flops
from semperf.profiles import example_config_dict

REPO = Path(__file__).resolve().parents[1]


def test_every_name_the_benchmark_imports_exists():
    imported = [
        (node.module, alias.name)
        for path in sorted((REPO / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "semperf"
        for alias in node.names
    ]
    assert ("semperf.solver", "step_flops") in imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        # "from semperf import solver" names a submodule
        assert hasattr(module, name) or importlib.util.find_spec(
            f"{module_name}.{name}"
        ), f"{module_name}.{name}"


def test_benchmark_step_checks_pass_on_an_executed_unit(monkeypatch):
    # the benchmark also reads attributes that no import names, such as
    # plan.messages_per_exchange and report.steps[i].halo_messages
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import child
    from semperf.solver import run_work_unit

    case = CaseConfig(
        elements=(2, 2, 2), degrees=(4, 4, 4), steps=2, cg_iters_per_step=5
    )
    oracle = child.step_oracle(case, 2)
    reference = run_work_unit(case, n_ranks=1).steps[0].rel_residual
    report = run_work_unit(case, n_ranks=2)
    for step in report.steps:
        results = child.check_step(step, oracle, reference)
        assert "step.residual_vs_p1" in results
        assert all(results.values()), results


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


def test_traced_bench_hits_the_harness_hooks(tmp_path):
    # bench writes through cli's names, so every file it writes is traced
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    config = tmp_path / "semperf.json"
    config.write_text(json.dumps(example_config_dict()), encoding="utf-8")
    prefix = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "spans.py"), str(prefix),
         "bench", "strong8", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sums = json.loads(Path(f"{prefix}.sums.json").read_text())["sums"]
    assert sums["harness.serialize|calls"] == 3
    assert sums["harness.run_campaign|calls"] == 1


# Traces one executed work unit (2^3 elements, N=4, 3 iterations, P=2).
EXEC_TRACE_SCRIPT = """
import json, sys
from spans import Tracer, install
from semperf.kernel import CaseConfig
from semperf.solver import run_work_unit

tracer = Tracer()
install(tracer)
case = CaseConfig(elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=3)
run_work_unit(case, n_ranks=2)
tracer.dump(sys.argv[1])
json.dump(tracer.sums(), sys.stdout)
"""


def run_traced_script(script, *args):
    """Run script with the package and the tracer importable; its sums."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), str(REPO / "perfbench")]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_work_unit_hits_the_executed_hooks(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    sums = run_traced_script(EXEC_TRACE_SCRIPT, str(spans_path))
    # RankWorker.__init__ and RankWorker.setup, once per rank
    assert sums["solver.setup|calls"] == 4
    assert sums["solver.run_step|calls"] == 2
    for name in ("solver.dssum", "solver.matvec", "kernel.apply_grid",
                 "transport.send", "transport.receive", "transport.barrier",
                 "transport.allreduce_sum"):
        assert sums[f"{name}|calls"] > 0, name
    with spans_path.open() as fh:
        header, *rows = (json.loads(line) for line in fh)
    spans = [dict(zip(header, row)) for row in rows]
    setup_ranks = {s["rank"] for s in spans if s["name"] == "solver.setup"}
    assert setup_ranks == {0, 1}


# Traces one P=1 work unit (2^3 elements, N=4, 3 iterations).
KERNEL_TRACE_SCRIPT = """
import json, sys
from spans import Tracer, install
from semperf.kernel import CaseConfig
from semperf.solver import run_work_unit

tracer = Tracer()
install(tracer)
case = CaseConfig(elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=3)
run_work_unit(case, n_ranks=1)
json.dump(tracer.sums(), sys.stdout)
"""


def test_traced_kernel_reports_operator_flops_and_bytes():
    # the tracer reads the counter passed by keyword, grid as argument 1
    # and the returned array, whatever buffer the operator writes into
    case = CaseConfig(
        elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=3
    )
    sums = run_traced_script(KERNEL_TRACE_SCRIPT)
    calls = sums["kernel.apply_grid|step_calls"]
    assert calls == case.cg_iters_per_step
    array_size = case.n_elements * case.points_per_element
    assert sums["kernel.apply_grid|step_flops"] == (
        calls * case.n_elements * laplacian_flops((5, 5, 5))
    )
    # 8 bytes per point read from grid and 8 per point of the result
    assert sums["kernel.apply_grid|step_bytes"] == calls * 16 * array_size
