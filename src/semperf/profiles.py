"""Built-in machine profiles and the canonical benchmark cases.

The two ``*-sim`` profiles are simulation twins whose constants were fitted
once by scripts/tune_profiles.py, through harness.model_point and
MachineProfile.rate_at_degree: the strong-scaling twin reproduces the
measured 243.59 s single-rank step (strong_sim_rate) and the measured
efficiency curve of REFERENCE_STRONG_CASE; the degree-sweep twin
reproduces the measured per-rank rate growth over N.  The plain cluster
profiles carry indicative measured interconnect figures for prediction
and calibration demos.
"""

from dataclasses import asdict

from .counts import MEGA, CaseConfig, step_flops
from .gamma import MachineProfile
from .refdata import (
    DEGREE_SWEEP_ROWS, STRONG_SCALING_ROWS, WEAK_SCALING_4_PER_NODE,
)

# CG budget sized so one step of the canonical case costs the measured
# 155.4 GFlop of total work (see scripts/tune_profiles.py).
REFERENCE_ITERS_PER_STEP = 3227

REFERENCE_STRONG_CASE = CaseConfig(
    elements=(8, 8, 8),
    degrees=(8, 8, 8),
    n_fields=1,
    steps=1,
    cg_iters_per_step=REFERENCE_ITERS_PER_STEP,
)

# Frozen fit results (scripts/tune_profiles.py).
_SIM_BANDWIDTH_MBS = 30.596556
_SIM_LATENCY_S = 3.836162e-6
_XT3_PEAK_MFLOPS = 8348.0980
_XT3_RATE_CURVATURE = 5.601355

_REFERENCE_T1_S = STRONG_SCALING_ROWS[0][2]


def strong_sim_rate(case):
    """The core rate that puts the single-rank step of case at the measured
    time of the canonical case."""
    return step_flops(case, 1) / (_REFERENCE_T1_S * MEGA)


def builtin_profiles():
    return {
        "pleiades2-sim": MachineProfile(
            name="pleiades2-sim",
            effective_core_rate=strong_sim_rate(REFERENCE_STRONG_CASE),
            link_bandwidth=_SIM_BANDWIDTH_MBS,
            latency=_SIM_LATENCY_S,
        ),
        "cray-xt3-sim": MachineProfile(
            name="cray-xt3-sim",
            effective_core_rate=_XT3_PEAK_MFLOPS,
            link_bandwidth=1100.0,
            latency=5e-6,
            rate_curvature=_XT3_RATE_CURVATURE,
        ),
        "pleiades": MachineProfile(
            name="pleiades",
            effective_core_rate=500.0,
            link_bandwidth=12.0,
            latency=60e-6,
        ),
        "pleiades2": MachineProfile(
            name="pleiades2",
            effective_core_rate=638.0,
            link_bandwidth=101.0,
            latency=60e-6,
        ),
        "pleiades2plus": MachineProfile(
            name="pleiades2plus",
            effective_core_rate=700.0,
            link_bandwidth=101.0,
            latency=60e-6,
            link_sharing=4.0,
        ),
    }


def example_config_dict():
    """A ready-to-run tool configuration exercising every campaign kind.

    Its bench8 case is REFERENCE_STRONG_CASE, and the weak64 scales and the
    swept degrees are those of the measured tables in refdata.
    """
    return {
        "version": 1,
        "output_dir": "semperf-out",
        "formats": ["json", "csv"],
        "machines": {},
        "cases": {
            "bench8": asdict(REFERENCE_STRONG_CASE),
            "small": asdict(CaseConfig(
                elements=(4, 4, 4), degrees=(4, 4, 4), cg_iters_per_step=20
            )),
        },
        "campaigns": {
            "strong8": {
                "kind": "strong",
                "case": "bench8",
                "machine": "pleiades2-sim",
                "p_list": [1, 2, 4, 8, 16, 32],
            },
            "weak64": {
                "kind": "weak",
                "case": "bench8",
                "machine": "pleiades2-sim",
                "scales": [
                    {"elements": elements, "p": p}
                    for elements, p, _ in WEAK_SCALING_4_PER_NODE
                ],
            },
            "degrees": {
                "kind": "degree_sweep",
                "case": "bench8",
                "machine": "cray-xt3-sim",
                "p_list": [4],
                "degrees": [n for n, _, _ in DEGREE_SWEEP_ROWS],
            },
            "usage10h": {
                "kind": "time_budget",
                "case": "bench8",
                "machine": "pleiades2-sim",
                "p_list": [8],
                "budget_s": 36000,
            },
            "strong-exec-small": {
                "kind": "strong",
                "case": "small",
                "machine": "pleiades2-sim",
                "p_list": [1, 2, 4],
            },
        },
    }
