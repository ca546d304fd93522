"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py exec|cli|probe --workload NAME --seed N
        --spawned T --deadline T --run-dir DIR [--traced] [--reference]
        [--reference-residual R]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so the wall-clock setup runs from interpreter start to the
first timed operation; ``setup_s`` is the CPU time of the same stretch.
Work repeats until ``--deadline`` (same clock), at least once.  The sample prints one JSON object as its last line of output.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, make_forcing, predict_params

HERE = Path(__file__).resolve().parent

# The P=2 residual equals the P=1 one up to reduction order.
RESIDUAL_RTOL = 1e-9
STRONG_EFFICIENCY_TOL = 0.03
CALIBRATION_T_L = (1.0, 0.05)
CALIBRATION_ALPHA = (8.4, 0.2)
CLI_TIMEOUT_S = 60.0
PREDICT_ELEMENTS = (8, 8, 8)


def run_process(cmd, timeout, new_group=False, **kwargs):
    """Run cmd to completion; on timeout kill it (and its group) and wait.

    Returns (returncode or None on timeout, stdout, stderr).
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=new_group, **kwargs,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        if new_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        out, err = proc.communicate()
        return None, out, err


class Checks:
    """Tally of output checks: how often each ran and failed."""

    def __init__(self):
        self.ran = {}
        self.failed = {}

    def record(self, results):
        """Record one operation's check results; True when all passed."""
        for name, ok in results.items():
            self.ran[name] = self.ran.get(name, 0) + 1
            if not ok:
                self.failed[name] = self.failed.get(name, 0) + 1
        return all(results.values())


def check_step(step, oracle, reference_residual):
    """Output checks of one executed work step against the exact counters."""
    finite = math.isfinite(step.rel_residual)
    results = {
        "step.flops": step.flops == oracle["flops"],
        "step.halo_words": step.halo_words_sent == oracle["halo_words"],
        "step.halo_messages": step.halo_messages == oracle["halo_messages"],
        "step.iterations": step.iterations == oracle["iterations"],
        "step.residual_finite": finite,
    }
    if reference_residual is not None:
        results["step.residual_vs_p1"] = finite and abs(
            step.rel_residual - reference_residual
        ) <= RESIDUAL_RTOL * abs(reference_residual)
    return results


def step_oracle(case, ranks):
    from semperf.partition import partition_elements, words_per_step
    from semperf.solver import step_flops

    plan = partition_elements(case, ranks)
    iters = case.cg_iters_per_step
    return {
        "flops": step_flops(case, ranks),
        "halo_words": words_per_step(plan, case, iters),
        "halo_messages": plan.messages_per_exchange * iters,
        "iterations": iters,
    }


def provenance(root, args):
    import numpy
    import scipy
    import semperf

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "semperf": semperf.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "commit": git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "case": WORKLOADS[args.workload].describe(),
    }


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving it; or unknown."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_exec(args, root):
    import semperf.solver as solver
    from semperf.kernel import CaseConfig

    w = WORKLOADS[args.workload]
    ranks = 1 if args.reference else w.ranks
    case = CaseConfig(
        elements=w.elements,
        degrees=(w.degree,) * 3,
        cg_iters_per_step=w.iters,
        steps=1 if args.reference else w.steps_per_unit,
    )
    oracle = step_oracle(case, ranks)
    forcing = make_forcing(args.seed)

    # CPU seconds of each run_step call per rank: steal by the hypervisor
    # of a shared box inflates wall time but not the CPU time of a thread.
    run_step = solver.RankWorker.run_step
    step_cpu = []
    first_step = []

    def timed_run_step(self, *a, **k):
        if not first_step:
            first_step.append((time.monotonic(), time.process_time()))
        c0 = time.thread_time()
        try:
            return run_step(self, *a, **k)
        finally:
            step_cpu.append((self.rank, time.thread_time() - c0))

    solver.RankWorker.run_step = timed_run_step
    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        spans.install(tracer)

    checks = Checks()
    cpu_times, walltimes, residuals, errors = [], [], [], []
    attempted = failed = units = 0
    while True:
        units += 1
        step_cpu.clear()
        try:
            report = solver.run_work_unit(case, n_ranks=ranks, forcing=forcing)
        except Exception as exc:  # a failing unit fails all of its steps
            errors.append(repr(exc))
            attempted += case.steps
            failed += case.steps
        else:
            by_rank = {}
            for rank, cpu in step_cpu:
                by_rank.setdefault(rank, []).append(cpu)
            for i, step in enumerate(report.steps):
                attempted += 1
                residuals.append(step.rel_residual)
                if checks.record(
                    check_step(step, oracle, args.reference_residual)
                ):
                    cpu_times.append(sum(c[i] for c in by_rank.values()))
                    walltimes.append(step.walltime)
                else:
                    failed += 1
        if args.reference or time.monotonic() >= args.deadline:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "cpu_s": cpu_times,
        "wall_s": walltimes,
        "setup_s": first_step[0][1] if first_step else None,
        "setup_wall_s": first_step[0][0] - args.spawned if first_step else None,
        "residual": residuals[0] if residuals else None,
        "flops_per_step": oracle["flops"],
        "checks_ran": checks.ran,
        "checks_failed": checks.failed,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "provenance": provenance(root, args),
    }
    if tracer is not None:
        tracer.dump(Path(args.run_dir) / f"spans-{os.getpid()}.jsonl")
        sums = tracer.sums()
        rank_steps = sums.get("solver.run_step|calls", 0)
        sums.update({
            "run.step_ranks": rank_steps,
            "run.steps": rank_steps / ranks,
            "run.units": units,
            "run.unit_ranks": units * ranks,
        })
        result["sums"] = sums
    return result


def _children_cpu():
    """User plus system CPU seconds of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _digest(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _tree_bytes(path):
    """Every file under path, in name order, as (name, contents) bytes."""
    parts = []
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        parts.append(str(f.relative_to(path)).encode())
        parts.append(f.read_bytes())
    return parts


def cli_invocations(run_dir, seed):
    """(label, semperf argv, output dir) of one cycle of CLI calls."""
    rel = Path(run_dir)
    calls = []
    for campaign in ("strong8", "weak64", "degrees", "usage10h"):
        out = rel / f"bench-{campaign}"
        calls.append((
            f"bench-{campaign}",
            ["bench", campaign, "--config", str(rel / "config.json"),
             "--mode", "sim", "--seed", str(seed), "--out", str(out)],
            out,
        ))
    machine, ranks, degree, iters = predict_params(seed)
    calls.append((
        "predict",
        ["predict", "--machine", machine, "-P", str(ranks),
         "-E", *map(str, PREDICT_ELEMENTS), "-N", *[str(degree)] * 3,
         "--iters", str(iters), "--json"],
        rel / "predict",
    ))
    out = rel / "calibrate"
    calls.append((
        "calibrate",
        ["calibrate", str(rel / "calibration.csv"),
         "--out", str(out / "gamma_fit.json")],
        out,
    ))
    out = rel / "analyze"
    calls.append((
        "analyze",
        ["analyze", str(rel / "bench-usage10h" / "usage10h_windows.csv"),
         "--out", str(out / "usage.hist")],
        out,
    ))
    return calls


def check_cli(label, code, stdout, out_dir, seed):
    """Output checks of one CLI call (the rerun check is made by run.py)."""
    results = {"cli.exit0": code == 0}
    if code == 0:
        try:
            results.update(_check_cli_output(label, stdout, out_dir, seed))
        except (OSError, ValueError, KeyError):
            results["cli.output_readable"] = False
    return results


def _check_cli_output(label, stdout, out_dir, seed):
    from semperf.refdata import STRONG_EFFICIENCY_TARGETS

    if label == "bench-strong8":
        records = json.loads((out_dir / "strong8_records.json").read_text())
        eff = {r["n_ranks"]: r["efficiency"] for r in records}
        return {"cli.strong8_efficiency": all(
            abs(eff[p] - target) <= STRONG_EFFICIENCY_TOL
            for p, target in STRONG_EFFICIENCY_TARGETS.items()
        )}
    if label == "calibrate":
        fit = json.loads((out_dir / "gamma_fit.json").read_text())
        return {"cli.calibration": (
            abs(fit["t_l_s"] - CALIBRATION_T_L[0]) <= CALIBRATION_T_L[1]
            and abs(fit["alpha"] - CALIBRATION_ALPHA[0])
            <= CALIBRATION_ALPHA[1]
        )}
    if label == "predict":
        return {"cli.predict_counters": check_predict(json.loads(stdout), seed)}
    if label == "analyze":
        windows = out_dir.parent / "bench-usage10h" / "usage10h_windows.csv"
        n_windows = len(windows.read_text().splitlines()) - 1
        return {"cli.analyze_samples": (
            f"samples  {n_windows}" in stdout.decode()
        )}
    return {}


def check_predict(result, seed):
    """predict reports the exact flop, word and message counters of its case."""
    from semperf.kernel import CaseConfig

    _, ranks, degree, iters = predict_params(seed)
    case = CaseConfig(
        elements=PREDICT_ELEMENTS,
        degrees=(degree,) * 3,
        cg_iters_per_step=iters,
    )
    oracle = step_oracle(case, ranks)
    return (
        result["flops_per_step"] == oracle["flops"]
        and result["words_per_step"] == oracle["halo_words"]
        and result["messages_per_step"] == oracle["halo_messages"]
    )


def write_cli_inputs(run_dir):
    from semperf.profiles import example_config_dict
    from semperf.refdata import calibration_fixture

    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps(example_config_dict()))
    lines = ["name,t_p,gamma,bandwidth_model,sharing"]
    for row in calibration_fixture():
        lines.append(
            f"{row.name},{row.t_p!r},{row.gamma!r},{row.bandwidth_model},"
            f"{row.sharing!r}"
        )
    (run_dir / "calibration.csv").write_text("\n".join(lines) + "\n")


def run_cli(args, root):
    run_dir = Path(args.run_dir)
    write_cli_inputs(run_dir)
    calls = cli_invocations(run_dir.relative_to(root), args.seed)
    checks = Checks()
    cpu_times, walltimes, digests, sums, import_times = [], [], [], {}, []
    attempted = failed = cycles = 0
    setup = None
    while True:
        cycle = {}
        for label, argv, out_dir in calls:
            shutil.rmtree(root / out_dir, ignore_errors=True)
            (root / out_dir).mkdir(parents=True)
            trace_prefix = root / out_dir.parent / label
            trace_out = trace_prefix.with_suffix(".sums.json")
            if args.traced:
                cmd = [sys.executable, str(HERE / "spans.py"), str(trace_prefix)]
            else:
                cmd = [sys.executable, "-m", "semperf"]
            t0 = time.monotonic()
            if setup is None:
                setup = (t0 - args.spawned, time.process_time())
            cpu0 = _children_cpu()
            code, out, err = run_process(
                cmd + argv, CLI_TIMEOUT_S, cwd=root
            )
            elapsed = time.monotonic() - t0
            attempted += 1
            if checks.record(check_cli(label, code, out, root / out_dir,
                                       args.seed)):
                cpu_times.append(_children_cpu() - cpu0)
                walltimes.append(elapsed)
            else:
                failed += 1
                sys.stderr.write(err.decode(errors="replace")[-2000:])
            cycle[label] = _digest(out, err, *_tree_bytes(root / out_dir))
            if args.traced and trace_out.exists():
                traced = json.loads(trace_out.read_text())
                import_times.append(traced["import_s"])
                for key, value in traced["sums"].items():
                    sums[key] = sums.get(key, 0) + value
        digests.append(cycle)
        cycles += 1
        if time.monotonic() >= args.deadline:
            break
    result = {
        "attempted": attempted,
        "failed": failed,
        "cpu_s": cpu_times,
        "wall_s": walltimes,
        "setup_s": setup[1],
        "setup_wall_s": setup[0],
        "digests": digests,
        "checks_ran": checks.ran,
        "checks_failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0,
        "provenance": provenance(root, args),
    }
    if args.traced:
        sums.update({"run.units": cycles, "run.import_s": import_times})
        result["sums"] = sums
    return result


PROBES = (
    # (elements, degree, iterations, ranks): budgets past exact convergence
    ((2, 2, 2), 4, 2000, 2),  # NaN residual
    ((4, 4, 4), 4, 1000, 1),  # early break, flops off the oracle
)


def run_probe(args, root):
    """Run the known over-budget cases; report whether the checks fail them."""
    import semperf.solver as solver
    from semperf.kernel import CaseConfig

    caught = []
    for elements, degree, iters, ranks in PROBES:
        case = CaseConfig(
            elements=elements, degrees=(degree,) * 3, cg_iters_per_step=iters
        )
        step = solver.run_work_unit(case, n_ranks=ranks).steps[0]
        results = check_step(step, step_oracle(case, ranks), None)
        caught.append({
            "case": f"{elements} N={degree} iters={iters} P={ranks}",
            "residual": repr(step.rel_residual),
            "iterations": step.iterations,
            "failed_checks": sorted(k for k, ok in results.items() if not ok),
        })
    return {"probes": caught}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("exec", "cli", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--reference-residual", type=float, default=None)
    args = parser.parse_args()

    root = Path.cwd()
    import semperf

    src = (root / "src").resolve()
    if Path(semperf.__file__).resolve().parent.parent != src:
        sys.exit(f"semperf imported from {semperf.__file__}, not {src}")
    run = {"exec": run_exec, "cli": run_cli, "probe": run_probe}[args.mode]
    print(json.dumps(run(args, root)))


if __name__ == "__main__":
    main()
