#!/usr/bin/env python3
"""Fit the frozen constants of the simulated machine profiles.

Run from the repository root after changing the flop/word accounting or the
reference tables; paste the printed constants into semperf/profiles.py.
scripts/model_validation.py prints the fitted profiles against the tables.

Both fits run the model the campaigns run, so a change to a model rule is
one edit in semperf and the next fit follows it:
  1. The strong-scaling twin: pick the CG budget so one step of
     profiles.REFERENCE_STRONG_CASE costs the measured 155.4 GFlop, then
     choose link bandwidth and latency minimizing the worst efficiency
     deviation from the measured strong-scaling curve.  The core rate is
     profiles.strong_sim_rate, which pins the 243.59 s single-rank step,
     and each P's T_C/T_P and T_L/T_P come from harness.model_point.
  2. The degree-sweep twin: least-squares fit of the rate law of
     MachineProfile.rate_at_degree, peak*(1-c/(N+1)), to the measured
     per-rank rates.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np

from semperf.counts import iteration_flops, step_flops, step_setup_flops
from semperf.gamma import MachineProfile
from semperf.harness import model_point
from semperf.profiles import REFERENCE_STRONG_CASE, strong_sim_rate
from semperf.refdata import (
    DEGREE_SWEEP_ROWS,
    STRONG_EFFICIENCY_TARGETS,
    TOTAL_WORK_GFLOP,
)


def pick_iteration_budget():
    base = replace(REFERENCE_STRONG_CASE, cg_iters_per_step=1)
    per_iter = iteration_flops(base)
    setup = step_setup_flops(base)
    iters = round((TOTAL_WORK_GFLOP * 1e9 - setup) / per_iter)
    case = replace(REFERENCE_STRONG_CASE, cg_iters_per_step=iters)
    total = step_flops(case, 1)
    print(f"iteration budget: {iters}  (step = {total / 1e9:.5f} GFlop)")
    return case


def fit_strong_profile(case):
    """Exact minimax fit of (bandwidth, latency) to the efficiency targets.

    With u = 1/bandwidth and v = latency, every P has 1/E - 1 = a*u + b*v,
    where a and b are T_C/T_P and T_L/T_P at unit bandwidth and latency.
    A bound h on every |E - target| so confines (u, v) to a polygon, which
    is nonempty iff one of its vertices meets every bound; bisection on h
    finds the least bound and its vertex.
    """
    unit = MachineProfile("strong-fit", strong_sim_rate(case), 1.0, 1.0)
    coef = []
    for p in STRONG_EFFICIENCY_TARGETS:
        step = model_point(case, unit, p).steps[0]
        coef.append((step.t_c / step.t_p, step.t_l / step.t_p))
    targets = np.array(list(STRONG_EFFICIENCY_TARGETS.values()))
    # half-planes rows @ (u, v) <= bound: the upper and lower bound on
    # 1/E - 1 of every P, then u >= 0 and v >= 0
    rows = np.vstack([coef, np.negative(coef), -np.eye(2)])

    def vertex(h):
        bound = np.concatenate(
            [1 / (targets - h) - 1, 1 - 1 / (targets + h), [0.0, 0.0]]
        )
        for pair in map(list, combinations(range(len(rows)), 2)):
            if abs(np.linalg.det(rows[pair])) > 1e-12:
                x = np.linalg.solve(rows[pair], bound[pair])
                if np.all(rows @ x <= bound + 1e-12):
                    return x
        return None

    # u = v = 0 (E = 1 everywhere) meets the bound 1 - min(targets)
    lo, hi = 0.0, 1.0 - targets.min()
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if vertex(mid) is not None else (mid, hi)
    u, lat = vertex(hi)
    bw = 1 / u
    print(f"strong-scaling fit: bandwidth = {bw:.6f} MB/s, latency = {lat:.6e} s")
    print(f"  worst deviation = {hi:.4f}")
    return bw, lat


def fit_degree_rates():
    degrees = [row[0] for row in DEGREE_SWEEP_ROWS]
    rates = np.array([row[1] for row in DEGREE_SWEEP_ROWS], dtype=float)

    def resid(c):
        # the shape of rate(N) at unit peak, for curvature c
        unit = MachineProfile("degree-fit", 1.0, 1.0, 0.0, rate_curvature=c)
        shape = np.array([unit.rate_at_degree(n) for n in degrees])
        peak = float(shape @ rates / (shape @ shape))
        return peak, float(np.sum((peak * shape - rates) ** 2))

    cs = np.linspace(0.0, 6.9, 20000)
    errs = [resid(c)[1] for c in cs]
    c = float(cs[int(np.argmin(errs))])
    peak, err = resid(c)
    print(f"degree-rate fit: peak = {peak:.4f} MFlop/s, curvature = {c:.6f}")
    return peak, c


if __name__ == "__main__":
    case = pick_iteration_budget()
    fit_strong_profile(case)
    fit_degree_rates()
