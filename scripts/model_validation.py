#!/usr/bin/env python3
"""Print the Gamma model against every measured table in semperf.refdata.

One table per measured campaign: strong scaling, weak scaling with 4 and
with 2 ranks per node sharing a link, the degree sweep, the interconnect
fit and the usage averages.  Each row gives, per quantity, the model
figure, the measured one and the error model / measured - 1.  Every model
figure comes from a public path: run_campaign on a CampaignSpec,
calibrate, gamma_from_efficiency or analyze_usage_histogram.
"""

from dataclasses import replace

from semperf.gamma import (
    analyze_usage_histogram, calibrate, gamma_from_efficiency,
)
from semperf.harness import CampaignSpec, run_campaign
from semperf.profiles import REFERENCE_STRONG_CASE, builtin_profiles
from semperf.refdata import (
    BASE_BANDWIDTH_MBS, DEGREE_SWEEP_ROWS, INTERCONNECT_ROWS,
    STRONG_SCALING_ROWS, USAGE_GAMMA_PAIRS, WEAK_SCALING_2_PER_NODE,
    WEAK_SCALING_4_PER_NODE, calibration_fixture,
)

PROFILES = builtin_profiles()


def campaign(machine, **spec):
    """The records of one campaign of the 8^3, N=8 reference case."""
    return run_campaign(
        CampaignSpec(case=REFERENCE_STRONG_CASE, machine=machine, **spec)
    )


def table(title, key, columns, rows):
    """Print a titled table; each row is a key, then per (name, format)
    column a (model, measured) pair and its error."""
    width = max(len(key), *(len(str(row[0])) for row in rows))
    print(title)
    print(f"{key:>{width}}" + "".join(
        f"{name} model".rjust(len(name) + 8)
        + f"{name} meas".rjust(len(name) + 7) + "err".rjust(8)
        for name, _ in columns
    ))
    for k, *pairs in rows:
        print(f"{k!s:>{width}}" + "".join(
            f"{m:>{len(name) + 8}{fmt}}{x:>{len(name) + 7}{fmt}}"
            f"{m / x - 1:>+8.1%}"
            for (name, fmt), (m, x) in zip(columns, pairs)
        ))
    print()


def main():
    sim = PROFILES["pleiades2-sim"]
    records = campaign(
        sim, kind="strong", p_list=tuple(r[0] for r in STRONG_SCALING_ROWS)
    )
    table(
        "Strong scaling: 8^3 elements, N=8, pleiades2-sim", "P",
        [("GF/s", ".3f"), ("T s", ".2f"), ("E", ".3f")],
        [
            (rec.n_ranks, (rec.mflops_wall / 1000, gf),
             (rec.step_walltime, t), (rec.efficiency, e))
            for rec, (_, gf, t, e) in zip(records, STRONG_SCALING_ROWS)
        ],
    )
    for sharing, rows in (
        (4, WEAK_SCALING_4_PER_NODE), (2, WEAK_SCALING_2_PER_NODE)
    ):
        records = campaign(
            replace(sim, link_sharing=float(sharing)), kind="weak",
            weak_scales=tuple((elements, p) for elements, p, _ in rows),
        )
        table(
            f"Weak scaling, {sharing} ranks per node: 64 elements per "
            "rank, N=8, pleiades2-sim", "P", [("T s", ".2f")],
            [(rec.n_ranks, (rec.step_walltime, t))
             for rec, (_, _, t) in zip(records, rows)],
        )
    records = campaign(
        PROFILES["cray-xt3-sim"], kind="degree_sweep", p_list=(4,),
        degrees=tuple(row[0] for row in DEGREE_SWEEP_ROWS),
    )
    table(
        "Degree sweep: 8^3 elements, P=4, cray-xt3-sim", "N",
        [("MF/s/rank", ".1f"), ("T s", ".2f")],
        [
            (n, (rec.mflops_per_rank_compute, rate), (rec.step_walltime, t))
            for rec, (n, rate, t) in zip(records, DEGREE_SWEEP_ROWS)
        ],
    )
    fit = calibrate(calibration_fixture(), BASE_BANDWIDTH_MBS)
    t_c = {row[0]: row[2] for row in INTERCONNECT_ROWS}
    table(
        f"Interconnect: calibrate gives W = {fit.w_mb:.3f} MB, "
        f"alpha = {fit.alpha:.3f}, T_L = {fit.t_l:.3f} s",
        "cluster", [("T_C s", ".3f")],
        [
            (row.name, (fit.w_mb / row.effective_bandwidth(
                BASE_BANDWIDTH_MBS, fit.alpha), t_c[row.name]))
            for row in calibration_fixture()
        ],
    )
    table(
        "Usage: E / (1 - E) against the reported Gamma", "cluster",
        [("Gamma", ".3f")],
        [(name, (gamma_from_efficiency(e), g))
         for name, e, g in USAGE_GAMMA_PAIRS],
    )
    (rec,) = campaign(
        sim, kind="time_budget", p_list=(8,), budget_s=36000.0,
        jitter=0.03, seed=42,
    )
    usage = analyze_usage_histogram(rec.window_samples)
    print(
        f"Simulated 10 h monitored run, P=8: {rec.steps_completed} steps, "
        f"{len(rec.window_samples)} windows, mean E {usage.mean:.4f}, "
        f"implied Gamma {usage.gamma:.3f} (model {rec.gamma:.3f})"
    )


if __name__ == "__main__":
    main()
