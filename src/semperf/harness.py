"""Benchmark campaigns: strong/weak scaling, degree sweeps, time budgets.

Simulated mode derives every figure from the analytic time model and the
partition-module counters, so records are exactly reproducible; executed
mode actually runs the work unit on the loopback transport and reports
measured wall clocks next to the same exact counters.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .counts import MEGA, CaseConfig, StepRecord, require, step_flops
from .gamma import gamma_from_times, predict_time
from .partition import partition_elements, words_per_step

# the fields each campaign kind reads beside kind, case, machine, seed and
# mode; a kind's spec refuses any other field set off its default
_KIND_FIELDS = {
    "strong": ("p_list",),
    "weak": ("weak_scales",),
    "degree_sweep": ("p_list", "degrees"),
    "time_budget": ("p_list", "budget_s", "window_s", "jitter"),
}
CAMPAIGN_KINDS = tuple(_KIND_FIELDS)
DEFAULT_WINDOW_S = 20.0
DEFAULT_JITTER = 0.02
MAX_WINDOWS = 100_000  # the paper's 10 h run is 1,800 windows


@dataclass(frozen=True)
class CampaignSpec:
    """One benchmark campaign over a case, machine, and scaling axis."""

    kind: str
    case: CaseConfig
    machine: object
    p_list: tuple = ()
    weak_scales: tuple = ()  # ((elements, n_ranks), ...)
    degrees: tuple = ()
    budget_s: float = 0.0
    window_s: float = DEFAULT_WINDOW_S
    jitter: float = DEFAULT_JITTER
    seed: int = 0
    mode: str = "sim"

    def __post_init__(self):
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        reads = ("kind", "case", "machine", "seed", "mode")
        for f in fields(self):
            if (
                f.name not in reads + _KIND_FIELDS[self.kind]
                and getattr(self, f.name) != f.default
            ):
                raise ValueError(f"{self.kind} campaign takes no {f.name}")
        if self.mode not in ("sim", "exec"):
            raise ValueError(f"mode must be sim or exec (got {self.mode!r})")
        for p in self.p_list:
            require("p_list", p, 1, integer=True)
        for _, p in self.weak_scales:
            require("weak_scales", p, 1, integer=True)
        require("seed", self.seed, 0, integer=True)
        require("budget_s", self.budget_s, 0, above=self.kind == "time_budget")
        require("window_s", self.window_s, 0, above=True)
        require("jitter", self.jitter, 0)
        if self.budget_s // self.window_s > MAX_WINDOWS:
            raise ValueError(
                f"budget_s {self.budget_s:g} holds more than "
                f"{MAX_WINDOWS} windows of {self.window_s:g} s"
            )
        if self.kind != "weak" and not self.p_list:
            raise ValueError(f"{self.kind} campaign needs a p_list")
        if len(self.p_list) > 1 and self.kind not in ("strong", "weak"):
            raise ValueError(f"{self.kind} campaign runs at a single P")
        loads = {case.n_elements / p for case, p in self.points()}
        if not loads:
            raise ValueError(
                f"{self.kind} campaign needs "
                + ("scale points" if self.kind == "weak" else "degrees")
            )
        if self.kind == "weak" and len(loads) != 1:
            raise ValueError(
                "weak-scaling points must hold elements per rank "
                f"constant (got loads {sorted(loads)})"
            )
        if self.kind == "time_budget" and self.mode != "sim":
            raise ValueError("time_budget runs in simulated mode only")

    def points(self):
        """(case, n_ranks) of every scaling point, in campaign order.

        Builds, and so validates, the case of every weak scale and degree.
        """
        if self.kind == "weak":
            return [
                (replace(self.case, elements=tuple(elements)), p)
                for elements, p in self.weak_scales
            ]
        if self.kind == "degree_sweep":
            return [
                (replace(self.case, degrees=(n, n, n)), self.p_list[0])
                for n in self.degrees
            ]
        return [(self.case, p) for p in self.p_list]


@dataclass
class RunRecord:
    """One scaling point: configuration, per-step figures, and summaries."""

    kind: str
    mode: str
    machine_name: str
    case: CaseConfig
    n_ranks: int
    rank_grid: tuple
    cut_face_count: int
    steps: tuple
    gamma: float = None
    efficiency: float = None
    speedup: float = None
    steps_completed: int = None
    window_samples: tuple = ()
    warnings: tuple = ()
    seed: int = 0
    setup_halo_words: int = None  # executed points only

    @property
    def step_walltime(self):
        return self.steps[0].walltime

    @property
    def mflops_wall(self):
        """Total rate over wall time, the figure a monitor would report."""
        if self.step_walltime == 0:
            return 0.0
        return self.steps[0].flops / (self.step_walltime * MEGA)

    @property
    def mflops_per_rank_compute(self):
        """Per-rank rate over compute time alone (simulated mode only)."""
        s = self.steps[0]
        if s.t_p is None or s.t_p == 0:
            return None
        return s.flops / (self.n_ranks * s.t_p * MEGA)

    def to_json_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["machine"] = d.pop("machine_name")
        d["case"] = asdict(self.case)
        d["gamma"] = _json_num(self.gamma)
        d["mflops_wall"] = self.mflops_wall
        d["mflops_per_rank_compute"] = self.mflops_per_rank_compute
        d["steps"] = [_step_json_dict(s) for s in self.steps]
        # a modeled point has no setup traffic, and its JSON keeps the
        # bytes it had before the key existed
        if self.setup_halo_words is None:
            del d["setup_halo_words"]
        return d


def _json_num(x):
    if x is None:
        return None
    return "inf" if math.isinf(x) else x


# JSON key (and steps-CSV column) of each StepRecord attribute, in order
_STEP_FIELDS = {
    "walltime_s": "walltime",
    "t_p_s": "t_p",
    "t_c_s": "t_c",
    "t_l_s": "t_l",
    "flops": "flops",
    "words": "halo_words_sent",
    "messages": "halo_messages",
    "iterations": "iterations",
}


def _step_json_dict(step):
    d = {key: getattr(step, attr) for key, attr in _STEP_FIELDS.items()}
    # executed steps only: a modeled step has no residual, reduction
    # count or CPU time, and its JSON keeps the bytes it had before the
    # keys existed
    executed = {
        "reduce_words": step.reduce_words_sent,
        "rel_residual": step.rel_residual,
        "cputime_s": step.cputime,
    }
    return d | {key: v for key, v in executed.items() if v is not None}


def _record(kind, mode, machine, case, plan, steps, seed, **figures):
    """One scaling point's record; the plan gives its P, grid and cut."""
    return RunRecord(
        kind=kind,
        mode=mode,
        machine_name=machine.name,
        case=case,
        n_ranks=plan.n_ranks,
        rank_grid=plan.rank_grid,
        cut_face_count=sum(plan.cut_face_counts),
        steps=steps,
        seed=seed,
        **figures,
    )


def model_point(case, machine, n_ranks, seed=0, kind="point"):
    """Model one scaling point: counts, then T_P/T_C/T_L, then Gamma, E, S."""
    plan = partition_elements(case, n_ranks)
    flops = step_flops(case, n_ranks)
    words = words_per_step(plan, case, case.cg_iters_per_step)
    messages = plan.messages_per_exchange * case.cg_iters_per_step
    td = predict_time(
        machine, max(case.degrees), n_ranks, flops, words, messages
    )
    eff = td.t_p / td.total
    step = StepRecord(
        iterations=case.cg_iters_per_step,
        flops=flops,
        halo_words_sent=words,
        halo_messages=messages,
        walltime=td.total,
        t_p=td.t_p,
        t_c=td.t_c,
        t_l=td.t_l,
    )
    return _record(
        kind, "sim", machine, case, plan, (step,) * case.steps, seed,
        gamma=gamma_from_times(td),
        efficiency=eff,
        speedup=n_ranks * eff,
    )


def _executed_point(case, machine, n_ranks, seed=0, kind="point"):
    from .solver import run_work_unit

    plan = partition_elements(case, n_ranks)
    report = run_work_unit(case, plan=plan)
    budget = case.cg_iters_per_step
    warnings = tuple(
        f"step {i} stopped early: {s.iterations} of {budget} CG iterations"
        for i, s in enumerate(report.steps)
        if s.iterations < budget
    )
    return _record(
        kind, "exec", machine, case, plan, report.steps, seed,
        warnings=warnings,
        setup_halo_words=report.setup_halo_words_sent,
    )


def run_time_budget(spec):
    """Count the steps that fit a wall-clock budget; sample usage windows."""
    import numpy as np

    rec = model_point(
        spec.case, spec.machine, spec.p_list[0], seed=spec.seed, kind=spec.kind
    )
    step_time = rec.step_walltime
    completed = int(spec.budget_s // step_time)
    warnings = ()
    if completed == 0:
        warnings = ("budget smaller than one step: zero steps completed",)
    n_windows = int(spec.budget_s // spec.window_s)
    rng = np.random.default_rng(spec.seed)
    base = rec.efficiency
    noise = rng.uniform(-spec.jitter, spec.jitter, n_windows)
    samples = np.clip(base + noise, 0.0, 1.0)
    rec.steps_completed = completed
    rec.window_samples = tuple(float(s) for s in samples)
    rec.warnings = warnings
    return rec


def run_campaign(spec):
    """Run every point of a campaign; always returns a list of records.

    An executed strong campaign with a P=1 point derives each point's
    efficiency and speedup from that baseline's step time.
    """
    if spec.kind == "time_budget":
        return [run_time_budget(spec)]
    point = model_point if spec.mode == "sim" else _executed_point
    records = [
        point(case, spec.machine, p, seed=spec.seed, kind=spec.kind)
        for case, p in spec.points()
    ]
    t1 = next((r.step_walltime for r in records if r.n_ranks == 1), 0.0)
    if spec.kind == "strong" and spec.mode == "exec" and t1 > 0:
        for rec in records:
            if rec.step_walltime > 0:
                rec.efficiency = t1 / (rec.n_ranks * rec.step_walltime)
                rec.speedup = rec.n_ranks * rec.efficiency
    return records


# the acceptance tests import the campaign runner under these names
run_strong_scaling = run_weak_scaling = run_campaign


# -- serialization ----------------------------------------------------------


def records_to_json(records):
    return json.dumps(
        [r.to_json_dict() for r in records], sort_keys=True, indent=2
    )


# summary column -> its cell of a record, in order
_SUMMARY_CELLS = {
    "P": lambda r: r.n_ranks,
    "elements": lambda r: "x".join(map(str, r.case.elements)),
    "degree": lambda r: max(r.case.degrees),
    "mflops_wall": lambda r: r.mflops_wall,
    "walltime_s": lambda r: r.step_walltime,
    "efficiency": lambda r: r.efficiency,
    "speedup": lambda r: r.speedup,
    "gamma": lambda r: r.gamma,
}
SUMMARY_COLUMNS = tuple(_SUMMARY_CELLS)


def summary_rows(records):
    return [
        {column: _fmt(cell(r)) for column, cell in _SUMMARY_CELLS.items()}
        for r in records
    ]


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.6g}"
    return str(x)


def _csv(columns, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def records_to_summary_csv(records):
    return _csv(SUMMARY_COLUMNS, summary_rows(records))


def records_to_steps_csv(records):
    rows = (
        {"P": rec.n_ranks, "step": i}
        | {key: _fmt(getattr(s, attr)) for key, attr in _STEP_FIELDS.items()}
        for rec in records
        for i, s in enumerate(rec.steps)
    )
    return _csv(("P", "step", *_STEP_FIELDS), rows)


def records_to_windows_csv(records, window_s):
    # repr round-trips each sample exactly
    rows = (
        {"timestamp": f"{i * window_s:.1f}", "usage": repr(s)}
        for rec in records
        for i, s in enumerate(rec.window_samples)
    )
    return _csv(("timestamp", "usage"), rows)
