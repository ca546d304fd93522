"""Outside-in span tracing of the semperf layers, and the per-layer metrics.

``install(tracer)`` wraps the public entry points of ``kernel``, ``solver``,
``transport``, ``basis``, ``partition``, ``gamma``, ``harness`` and ``cli``
from outside: no file of the program changes.  Modules that import a
function by name get the wrapper patched in where the name is looked up
(``semperf.solver.allreduce_sum``, ``semperf.cli.run_campaign``, ...).

Each span records name, start, end, parent, rank and step on a per-thread
stack.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time of its children.

Run as a script, this module is a traced ``python -m semperf``:

    python3 perfbench/spans.py PREFIX semperf-args...
"""

import functools
import itertools
import json
import statistics
import sys
import threading
import time

WORD_BYTES = 8
MEGA = 1e6

# span record fields
_ID, _NAME, _START, _END, _PARENT, _RANK, _STEP, _CHILD, _EXTRA = range(9)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.steps = 0
        return stack

    def wrap(self, name, fn, rank_of=None, before=None, after=None,
             starts_step=False):
        """Return fn wrapped in a span called name.

        ``rank_of(args, kwargs)`` names the rank the call runs for; nested
        spans inherit it.  ``before``/``after`` measure counts across the
        call and return the span's extra fields.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rank = rank_of(args, kwargs) if rank_of else (
                parent[_RANK] if parent else None
            )
            if starts_step:
                step = self._local.steps
                self._local.steps += 1
            else:
                step = parent[_STEP] if parent else None
            state = before(args, kwargs) if before else None
            rec = [next(self._ids), name, 0.0, 0.0,
                   parent[_ID] if parent else None, rank, step, 0.0, None]
            stack.append(rec)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += rec[_END] - rec[_START]
                self.spans.append(rec)
            if after:
                rec[_EXTRA] = after(state, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def dump(self, path):
        """Write every span as one JSON array per line."""
        fields = ("id", "name", "start", "end", "parent", "rank", "step",
                  "extra")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(fields) + "\n")
            for rec in sorted(self.spans, key=lambda r: r[_ID]):
                row = rec[:_CHILD] + [rec[_EXTRA]]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    def sums(self):
        """Per-layer totals: calls, time and self time, in and out of steps.

        Keys are ``<span>|<field>``; ``|step`` fields count only spans
        inside a ``solver.run_step`` call.
        """
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            name = rec[_NAME]
            add(f"{name}|calls", 1)
            add(f"{name}|s", dur)
            add(f"{name}|self_s", dur - rec[_CHILD])
            if rec[_STEP] is not None:
                add(f"{name}|step_calls", 1)
                add(f"{name}|step_s", dur)
                add(f"{name}|step_self_s", dur - rec[_CHILD])
                for key, value in (rec[_EXTRA] or {}).items():
                    add(f"{name}|step_{key}", value)
        return out


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _self_rank(args, kwargs):
    return args[0].rank


def _flops_before(args, kwargs):
    counter = kwargs.get("counter")
    return counter.total if counter is not None else None


def _flops_after(flops0, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    extra = {"bytes": WORD_BYTES * (grid.size + result.size)}
    if flops0 is not None:
        extra["flops"] = kwargs["counter"].total - flops0
    return extra


def _send_words(state, args, kwargs, result):
    tag = kwargs.get("tag", args[3] if len(args) > 3 else "halo")
    return {f"{tag}_words": _arg(args, kwargs, 2, "payload").size}


def install(tracer):
    """Wrap the semperf entry points in spans of tracer."""
    from semperf import basis, cli, gamma, harness, kernel, partition
    from semperf import solver, transport

    tracer.patch(kernel.ElementOperator, "apply_grid", "kernel.apply_grid",
                 before=_flops_before, after=_flops_after)

    worker = solver.RankWorker
    tracer.patch(worker, "__init__", "solver.setup",
                 rank_of=lambda a, k: _arg(a, k, 3, "endpoint").rank)
    tracer.patch(worker, "setup", "solver.setup", rank_of=_self_rank)
    tracer.patch(worker, "run_step", "solver.run_step", rank_of=_self_rank,
                 starts_step=True)
    tracer.patch(worker, "matvec", "solver.matvec")
    tracer.patch(worker, "dssum", "solver.dssum")

    endpoint = transport.LoopbackEndpoint
    tracer.patch(endpoint, "send", "transport.send", after=_send_words)
    tracer.patch(endpoint, "receive", "transport.receive")
    tracer.patch(endpoint, "barrier", "transport.barrier")

    for module in (transport, solver):
        tracer.patch(module, "allreduce_sum", "transport.allreduce_sum",
                     rank_of=lambda a, k: _arg(a, k, 0, "endpoint").rank)
    for module in (basis, solver):
        tracer.patch(module, "build_gll_basis", "basis.build_gll_basis")
    for module in (partition, solver, harness, cli):
        tracer.patch(module, "partition_elements",
                     "partition.partition_elements")
    for module in (gamma, cli):
        tracer.patch(module, "calibrate", "gamma.calibrate")
    for module in (gamma, harness, cli):
        tracer.patch(module, "predict_time", "gamma.predict_time")
    for module in (harness, cli):
        tracer.patch(module, "run_campaign", "harness.run_campaign")
        for fn in ("records_to_json", "records_to_summary_csv",
                   "records_to_steps_csv"):
            tracer.patch(module, fn, "harness.serialize")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(sums, traced_cpu_s, untraced_cpu_s):
    """Per-layer metrics, as name -> (value, unit), from summed span totals.

    Step layers are per rank per step, except the exact traffic counts,
    which are per step over all ranks.  Setup layers are per work unit on
    exec workloads and per cycle of CLI calls on model-cli, as are the CLI
    layers.  ``sums`` also carries ``run.step_ranks`` (rank-steps traced),
    ``run.steps``, ``run.units`` (work units or CLI cycles),
    ``run.unit_ranks`` and ``run.import_s`` (per-invocation import times
    of ``semperf.cli``).
    """
    def get(key):
        return sums.get(key, 0)

    rank_steps = get("run.step_ranks")
    steps = get("run.steps")
    units = get("run.units")

    def per_rank_step(key):
        return _ratio(get(key), rank_steps)

    def per_unit(key):
        return _ratio(get(key), units)

    kernel_flops = get("kernel.apply_grid|step_flops")
    kernel_bytes = get("kernel.apply_grid|step_bytes")
    kernel_s = get("kernel.apply_grid|step_self_s")
    t_p = per_rank_step("kernel.apply_grid|step_self_s") + per_rank_step(
        "solver.run_step|step_self_s"
    )
    t_c = sum(
        per_rank_step(key)
        for key in (
            "solver.dssum|step_self_s",
            "solver.matvec|step_self_s",
            "transport.send|step_s",
            "transport.allreduce_sum|step_self_s",
        )
    )
    t_l = per_rank_step("transport.receive|step_s")
    import_times = sums.get("run.import_s", [])
    return {
        "kernel.apply_grid.calls": (
            per_rank_step("kernel.apply_grid|step_calls"), "count"),
        "kernel.apply_grid.self_s": (
            per_rank_step("kernel.apply_grid|step_self_s"), "s"),
        "kernel.apply_grid.flops": (_ratio(kernel_flops, rank_steps), "flop"),
        "kernel.apply_grid.mflops": (
            _ratio(kernel_flops, kernel_s) / MEGA, "MFlop/s"),
        "kernel.apply_grid.bytes_computed": (
            _ratio(kernel_bytes, rank_steps), "byte"),
        "kernel.apply_grid.flops_per_byte": (
            _ratio(kernel_flops, kernel_bytes), "flop/byte"),
        "solver.run_step.self_s": (
            per_rank_step("solver.run_step|step_self_s"), "s"),
        "solver.dssum.calls": (per_rank_step("solver.dssum|step_calls"), "count"),
        "solver.dssum.self_s": (
            per_rank_step("solver.dssum|step_self_s"), "s"),
        "solver.matvec.self_s": (
            per_rank_step("solver.matvec|step_self_s"), "s"),
        "transport.send.calls": (
            per_rank_step("transport.send|step_calls"), "count"),
        "transport.send.s": (per_rank_step("transport.send|step_s"), "s"),
        "transport.receive.calls": (
            per_rank_step("transport.receive|step_calls"), "count"),
        "transport.receive.wait_s": (
            per_rank_step("transport.receive|step_s"), "s"),
        "transport.allreduce_sum.calls": (
            per_rank_step("transport.allreduce_sum|step_calls"), "count"),
        "transport.allreduce_sum.s": (
            per_rank_step("transport.allreduce_sum|step_s"), "s"),
        "transport.barrier.wait_s": (per_rank_step("transport.barrier|s"), "s"),
        "transport.halo_words": (
            _ratio(get("transport.send|step_halo_words"), steps), "word"),
        "transport.reduce_words": (
            _ratio(get("transport.send|step_reduce_words"), steps), "word"),
        "transport.messages": (
            _ratio(get("transport.send|step_calls"), steps), "count"),
        "solver.setup.s": (
            _ratio(get("solver.setup|s"), get("run.unit_ranks")), "s"),
        "basis.build_gll_basis.calls": (
            per_unit("basis.build_gll_basis|calls"), "count"),
        "basis.build_gll_basis.s": (per_unit("basis.build_gll_basis|s"), "s"),
        "partition.partition_elements.calls": (
            per_unit("partition.partition_elements|calls"), "count"),
        "partition.partition_elements.s": (
            per_unit("partition.partition_elements|s"), "s"),
        "cli.import_s": (
            statistics.median(import_times) if import_times else 0.0, "s"),
        "gamma.calibrate.s": (per_unit("gamma.calibrate|s"), "s"),
        "gamma.predict_time.calls": (
            per_unit("gamma.predict_time|calls"), "count"),
        "harness.run_campaign.s": (per_unit("harness.run_campaign|s"), "s"),
        "harness.serialize.s": (per_unit("harness.serialize|s"), "s"),
        "solver.t_p_s": (t_p, "s"),
        "transport.t_c_s": (t_c, "s"),
        "transport.t_l_s": (t_l, "s"),
        "gamma.measured": (_ratio(t_p, t_c + t_l), "ratio"),
        "trace.overhead_frac": (
            _ratio(traced_cpu_s, untraced_cpu_s) - 1.0 if untraced_cpu_s else 0.0,
            "ratio"),
    }


def main(argv):
    """Run one traced CLI call; write PREFIX.spans.jsonl and PREFIX.sums.json."""
    prefix, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import semperf.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = semperf.cli.main(cli_args)
    finally:
        tracer.dump(prefix + ".spans.jsonl")
        with open(prefix + ".sums.json", "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "sums": tracer.sums()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
