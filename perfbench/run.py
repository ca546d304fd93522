"""semperf benchmark: executed CG step time, CLI latency, and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload fixed-p2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Every sample runs in a fresh interpreter (perfbench/child.py), one after
another, never two at a time.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run beside untraced samples
of the same workload.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from child import run_process
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_DIR = ".perfbench_run"
# One invocation ends within this many seconds, whatever the samples do.
HARD_LIMIT_S = 170.0
CHILDREN = {0: 3, 1: 4}  # samples per run; traced runs alternate
SMOKE_CHILDREN = 2
MEGA = 1e6

E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STEP_CHECKS = (
    "step.flops", "step.halo_words", "step.halo_messages", "step.iterations",
    "step.residual_finite", "step.residual_vs_p1",
)
CLI_CHECKS = (
    "cli.exit0", "cli.strong8_efficiency", "cli.calibration",
    "cli.predict_counters", "cli.analyze_samples", "cli.rerun_identical",
)
UNTIMED_NOTE = (
    "P=4 and P=8 of the ROADMAP case are not timed: with more rank threads "
    "than cores a wall-clock point measures the scheduler"
)


class RunFailed(Exception):
    """A sample could not run at all, so no metric can be reported."""


class Runner:
    """Spawns the samples of one invocation within its time limit."""

    def __init__(self, root, seed, limit):
        self.root = root
        self.seed = seed
        self.limit = limit
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, mode, workload, run_dir, deadline, *extra):
        remaining = self.limit - time.monotonic()
        if remaining <= 1.0:
            return None
        spawned = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", workload, "--seed", str(self.seed),
            "--spawned", repr(spawned), "--deadline", repr(deadline),
            "--run-dir", str(run_dir), *extra,
        ]
        code, out, err = run_process(
            cmd, remaining, new_group=True, cwd=self.root, env=self.env
        )
        sys.stderr.write(err.decode(errors="replace"))
        if code != 0:
            why = "timed out" if code is None else f"exited {code}"
            sys.stderr.write(f"sample of {workload} {why}\n")
            return None
        return json.loads(out.decode().splitlines()[-1])


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_frac(before, after):
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def fresh_dir(root, workload):
    path = root / RUN_DIR / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(runner, name, seconds, trace, children):
    """Run one workload; return its result dict (metrics, counts, report)."""
    w = WORKLOADS[name]
    run_dir = fresh_dir(runner.root, name)
    ticks = cpu_ticks()
    mode = w.kind
    extra = []
    failed = attempted = 0
    if mode == "exec":
        ref = runner.spawn("exec", name, run_dir, 0.0, "--reference")
        if ref is None or ref["failed"] or ref["residual"] is None:
            raise RunFailed(f"P=1 reference of {name} failed: {ref}")
        extra = ["--reference-residual", repr(ref["residual"])]
    traced_plan = [trace == 1 and i % 2 == 1 for i in range(children)]
    start = time.monotonic()
    samples = []
    for i, traced in enumerate(traced_plan):
        deadline = start + seconds * (i + 1) / children
        flags = extra + (["--traced"] if traced else [])
        sample = runner.spawn(mode, name, run_dir, deadline, *flags)
        if sample is None:
            attempted += 1
            failed += 1
            continue
        sample["traced"] = traced
        samples.append(sample)
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if not untraced or (trace == 1 and not traced):
        raise RunFailed(f"no sample of {name} completed")

    checks_ran, checks_failed = {}, {}
    for s in samples:
        attempted += s["attempted"]
        failed += s["failed"]
        for key, n in s["checks_ran"].items():
            checks_ran[key] = checks_ran.get(key, 0) + n
        for key, n in s["checks_failed"].items():
            checks_failed[key] = checks_failed.get(key, 0) + n
    if mode == "cli":
        mismatched = rerun_mismatches(samples, checks_ran, checks_failed)
        failed = min(attempted, failed + mismatched)

    cpu_times = [t for s in untraced for t in s["cpu_s"]]
    setup_times = [s["setup_s"] for s in untraced if s["setup_s"] is not None]
    if not cpu_times or not setup_times:
        raise RunFailed(f"no operation of {name} passed its checks")
    result = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "checks_ran": checks_ran,
        "checks_failed": checks_failed,
        "cpu_times": cpu_times,
        "wall_times": [t for s in untraced for t in s["wall_s"]],
        "setup_times": setup_times,
        "setup_wall_times": [
            s["setup_wall_s"] for s in untraced if s["setup_s"] is not None
        ],
        "rss": [s["peak_rss_mb"] for s in untraced],
        "provenance": dict(
            untraced[0]["provenance"], steal_frac=steal_frac(ticks, cpu_ticks())
        ),
        "flops_per_step": untraced[0].get("flops_per_step"),
        "errors": [e for s in samples for e in s.get("errors", ())],
    }
    e2e = {
        "cpu_s": statistics.median(cpu_times),
        "setup_s": statistics.median(result["setup_times"]),
        "peak_rss_mb": statistics.median(result["rss"]),
    }
    if trace == 0:
        result["metrics"] = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    else:
        traced_times = [t for s in traced for t in s["cpu_s"]]
        sums = {}
        for s in traced:
            for key, value in s["sums"].items():
                sums[key] = sums[key] + value if key in sums else value
        result["metrics"] = spans.layer_metrics(
            sums,
            statistics.median(traced_times) if traced_times else 0.0,
            e2e["cpu_s"],
        )
    result["e2e"] = e2e
    return result


def rerun_mismatches(samples, checks_ran, checks_failed):
    """Compare every CLI call's outputs with those of its first run."""
    first, mismatched = {}, 0
    for s in samples:
        for cycle in s["digests"]:
            for label, digest in cycle.items():
                if label not in first:
                    first[label] = digest
                    continue
                checks_ran["cli.rerun_identical"] = (
                    checks_ran.get("cli.rerun_identical", 0) + 1
                )
                if digest != first[label]:
                    mismatched += 1
                    checks_failed["cli.rerun_identical"] = (
                        checks_failed.get("cli.rerun_identical", 0) + 1
                    )
    return mismatched


def tail(values):
    """Highest percentile with at least ten samples beyond it, else max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}", statistics.quantiles(values, n=100)[q - 1]


def report(result, trace, seconds):
    """Human-readable lines of one workload's result."""
    name = result["workload"]
    w = WORKLOADS[name]
    lines = [
        f"== {name}: {w.describe()}",
        f"   why: {w.why}",
    ]
    op = "step" if w.kind == "exec" else "cli"
    timings = (
        (f"{op}_s", result["wall_times"], "wall, ungated"),
        (f"{op}_cpu_s", result["cpu_times"], "CPU, gated as cpu_s"),
        ("setup_wall_s", result["setup_wall_times"], "wall, ungated"),
        ("setup_s", result["setup_times"], "CPU, gated as setup_s"),
    )
    for label, values, note in timings:
        tail_name, tail_value = tail(values)
        lines.append(
            f"   {label:<12} {statistics.median(values):.6g} s  median  "
            f"{tail_name} {tail_value:.6g} s  n={len(values)}  ({note})"
        )
    if w.kind == "exec":
        step_s = statistics.median(result["wall_times"])
        lines.append(
            f"   {'mflops':<12} {result['flops_per_step'] / step_s / MEGA:.6g}"
            f" MFlop/s  ({result['flops_per_step']} counted flops per step"
            " / median step_s; ungated)"
        )
    lines.append(
        f"   {'peak_rss_mb':<12} {result['e2e']['peak_rss_mb']:.6g} MB  "
        f"median  n={len(result['rss'])}"
    )
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0
    lines.append(
        f"   {'failed_frac':<12} {frac:.6g}  "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    checks = ", ".join(
        f"{k} {v - result['checks_failed'].get(k, 0)}/{v}"
        for k, v in sorted(result["checks_ran"].items())
    )
    lines.append(f"   checks       {checks}")
    for err in result["errors"][:3]:
        lines.append(f"   error        {err}")
    if trace == 1:
        for key, (value, unit) in result["metrics"].items():
            lines.append(f"   {key:<36} {value:.6g} {unit}")
    prov = dict(result["provenance"], run_seconds=seconds, trace=trace)
    lines.append(f"   provenance   {json.dumps(prov, sort_keys=True)}")
    if w.kind == "exec":
        lines.append(f"   note         {UNTIMED_NOTE}")
    return lines


def efficiency_line(results):
    """Executed strong-scaling efficiency at P=2 from the two fixed medians."""
    t1 = statistics.median(results["fixed-p1"]["wall_times"])
    t2 = statistics.median(results["fixed-p2"]["wall_times"])
    return (
        f"efficiency_p2 {t1 / (2 * t2):.4f} = fixed-p1 step_s {t1:.6g} s / "
        f"(2 x fixed-p2 step_s {t2:.6g} s); base fixed-p1; ungated"
    )


def result_line(results, prefix):
    metrics = {}
    for r in results:
        for key, (value, unit) in r["metrics"].items():
            name = f"{r['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def selftest(runner):
    """Run every workload briefly, traced and untraced, and check the output."""
    spec = json.loads((runner.root / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    by_trace = {0: spec["end_to_end"], 1: spec["per_layer"]}
    results = {}
    for trace in (0, 1):
        for name, w in WORKLOADS.items():
            r = run_workload(runner, name, 0.0, trace, SMOKE_CHILDREN)
            for line in report(r, trace, 0.0):
                print(line)
            printed = json.loads(result_line([r], prefix=False))["metrics"]
            wanted = {m["name"]: m["unit"] for m in by_trace[trace]}
            got = {k: v["unit"] for k, v in printed.items()}
            if got != wanted:
                problems.append(f"{name} trace {trace}: metrics {got}")
            expected = STEP_CHECKS if w.kind == "exec" else CLI_CHECKS
            missing = [c for c in expected if not r["checks_ran"].get(c)]
            if missing:
                problems.append(f"{name}: checks never ran: {missing}")
            if r["failed"] or r["checks_failed"]:
                problems.append(f"{name}: failures {r['checks_failed']}")
            results[name, trace] = r
    for name, above_one in (("fixed-p2", True), ("latency-p2", False)):
        gamma = results[name, 1]["metrics"]["gamma.measured"][0]
        if (gamma > 1) != above_one:
            problems.append(f"{name}: gamma.measured {gamma}")
    print(efficiency_line({n: results[n, 0] for n in WORKLOADS}))

    probe = runner.spawn("probe", "fixed-p1", fresh_dir(runner.root, "probe"),
                         0.0)
    for case in (probe or {}).get("probes", ()):
        print(f"known defect: {case['case']} -> residual {case['residual']}, "
              f"{case['iterations']} iterations, failed {case['failed_checks']}")
        if not case["failed_checks"]:
            problems.append(f"over-budget case passed the checks: {case}")
    if probe is None:
        problems.append("known-defect probe did not run")
    for p in problems:
        print(f"selftest FAIL: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("give --workload or --selftest")

    root = Path.cwd()
    if not (root / "src" / "semperf" / "__init__.py").is_file():
        sys.exit("error: run from the semperf repository root "
                 "(src/semperf not found)")
    runner = Runner(root, args.seed, time.monotonic() + HARD_LIMIT_S)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        runner.limit = time.monotonic() + len(names) * HARD_LIMIT_S
    results = {}
    try:
        if args.selftest:
            runner.limit = time.monotonic() + 15 * HARD_LIMIT_S
            return selftest(runner)
        for name in names:
            results[name] = run_workload(
                runner, name, args.seconds, args.trace, CHILDREN[args.trace]
            )
            for line in report(results[name], args.trace, args.seconds):
                print(line)
    except RunFailed as exc:
        sys.exit(f"error: {exc}")
    if {"fixed-p1", "fixed-p2"} <= results.keys():
        print(efficiency_line(results))
    print(result_line(list(results.values()), prefix=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
