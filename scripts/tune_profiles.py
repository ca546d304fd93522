#!/usr/bin/env python3
"""Fit the frozen constants of the simulated machine profiles.

Run from the repository root after changing the flop/word accounting or the
reference tables; paste the printed constants into semperf/profiles.py.

Two fits:
  1. The strong-scaling twin: pick the CG budget so one step of the 8^3,
     N=8 case costs the measured 155.4 GFlop, then choose link bandwidth
     and latency minimizing the worst efficiency deviation from the
     measured strong-scaling curve (the core rate is pinned by the 243.59 s
     single-rank step).  The efficiencies come from gamma.predict_time on
     the per-P counts of harness.point_counts, the model every campaign
     uses.
  2. The degree-sweep twin: least-squares fit of rate(N) = peak*(1-c/(N+1))
     to the measured per-rank rates.
"""

import numpy as np
from scipy.optimize import minimize

from semperf.counts import (
    MEGA,
    CaseConfig,
    iteration_flops,
    step_flops,
    step_setup_flops,
)
from semperf.gamma import MachineProfile, predict_time
from semperf.harness import point_counts
from semperf.refdata import (
    DEGREE_SWEEP_ROWS,
    STRONG_EFFICIENCY_TARGETS,
    STRONG_SCALING_ROWS,
    TOTAL_WORK_GFLOP,
)


def pick_iteration_budget():
    base = CaseConfig(elements=(8, 8, 8), degrees=(8, 8, 8), cg_iters_per_step=1)
    per_iter = iteration_flops(base)
    setup = step_setup_flops(base)
    iters = round((TOTAL_WORK_GFLOP * 1e9 - setup) / per_iter)
    case = CaseConfig(
        elements=(8, 8, 8), degrees=(8, 8, 8), cg_iters_per_step=iters
    )
    total = step_flops(case, 1)
    print(f"iteration budget: {iters}  (step = {total / 1e9:.5f} GFlop)")
    return case


def fit_strong_profile(case):
    # the core rate that puts the single-rank step at the measured time
    rate = step_flops(case, 1) / (STRONG_SCALING_ROWS[0][2] * MEGA)
    points = [
        (p, target, *point_counts(case, p)[1:])
        for p, target in sorted(STRONG_EFFICIENCY_TARGETS.items())
    ]

    def efficiencies(bw_mbs, lat_s):
        machine = MachineProfile("strong-fit", rate, bw_mbs, lat_s)
        effs = {}
        for p, _, app, msgs in points:
            td = predict_time(machine, app, p, msgs)
            effs[p] = td.t_p / td.total
        return effs

    def worst(params):
        bw, lat = np.exp(params)
        effs = efficiencies(bw, lat)
        return max(
            abs(effs[p] - t) for p, t, _, _ in points
        )

    best = None
    for bw0 in (5.0, 20.0, 30.0, 60.0):
        for lat0 in (1e-6, 3e-6, 1e-5):
            res = minimize(
                worst,
                np.log([bw0, lat0]),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
            )
            if best is None or res.fun < best.fun:
                best = res
    bw, lat = np.exp(best.x)
    effs = efficiencies(bw, lat)
    print(f"strong-scaling fit: bandwidth = {bw:.6f} MB/s, latency = {lat:.6e} s")
    print(f"  worst deviation = {best.fun:.4f}")
    for p, target, _, _ in points:
        print(f"  P={p:3d}  model E = {effs[p]:.4f}  target = {target:.2f}")
    return bw, lat


def fit_degree_rates():
    degrees = np.array([row[0] for row in DEGREE_SWEEP_ROWS], dtype=float)
    rates = np.array([row[1] for row in DEGREE_SWEEP_ROWS], dtype=float)

    def resid(c):
        shape = 1.0 - c / (degrees + 1.0)
        peak = float(shape @ rates / (shape @ shape))
        return peak, float(np.sum((peak * shape - rates) ** 2))

    cs = np.linspace(0.0, 6.9, 20000)
    errs = [resid(c)[1] for c in cs]
    c = float(cs[int(np.argmin(errs))])
    peak, err = resid(c)
    print(f"degree-rate fit: peak = {peak:.4f} MFlop/s, curvature = {c:.6f}")
    for n, rate, _ in DEGREE_SWEEP_ROWS:
        print(f"  N={n:2d}  model = {peak * (1 - c / (n + 1)):7.1f}  measured = {rate}")
    return peak, c


if __name__ == "__main__":
    case = pick_iteration_budget()
    fit_strong_profile(case)
    fit_degree_rates()
