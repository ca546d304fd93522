"""Workload definitions and seeded inputs of the semperf benchmark.

Exec workloads run the CG work unit of ``semperf.solver`` on the threaded
loopback transport; ``model-cli`` runs fresh ``python -m semperf``
processes in simulated mode.  No exec workload uses more rank threads than
the two cores the benchmark was sized on: with more threads than cores a
wall-clock point measures the scheduler, not the program.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExecWorkload:
    """One executed CG case: element grid, degree, iteration budget, ranks."""

    name: str
    elements: tuple
    degree: int
    iters: int
    ranks: int
    steps_per_unit: int  # steps per run_work_unit call
    why: str

    kind = "exec"

    def describe(self):
        ex, ey, ez = self.elements
        return (
            f"{ex}x{ey}x{ez} elements, N={self.degree}, "
            f"{self.iters} CG iterations per step, P={self.ranks}"
        )


@dataclass(frozen=True)
class CliWorkload:
    name: str
    why: str

    kind = "cli"

    def describe(self):
        return (
            "fresh `python -m semperf` processes, sim mode: bench strong8, "
            "weak64, degrees, usage10h; predict; calibrate; analyze"
        )


WORKLOADS = {
    w.name: w
    for w in (
        ExecWorkload(
            "fixed-p1", (8, 8, 8), 8, 100, 1, 2,
            "single-thread baseline of the fixed 8^3 N=8 case: kernel and "
            "vector updates, transport bypassed",
        ),
        ExecWorkload(
            "fixed-p2", (8, 8, 8), 8, 100, 2, 2,
            "fixed case on 2 ranks: compute-bound, the one strong-scaling "
            "point 2 cores time honestly",
        ),
        ExecWorkload(
            "latency-p2", (2, 2, 2), 4, 20, 2, 50,
            "2^3 N=4 on 2 ranks: latency-bound, tiny operator batches and "
            "messages, fixed per-call costs dominate",
        ),
        CliWorkload(
            "model-cli",
            "fresh CLI processes in sim mode: import, gamma model, harness "
            "campaigns, calibration and analysis",
        ),
    )
}

FORCING_MODES = 4
FORCING_MAX_WAVENUMBER = 4


def make_forcing(seed):
    """A few sine modes with random wavenumbers, phases and amplitudes.

    Random phases break the mirror symmetries of the box, so the load
    excites the whole spectrum and a 100-iteration step ends near a relative
    residual of 1e-2 instead of converging to round-off.
    """
    rng = np.random.default_rng(seed)
    waves = rng.integers(1, FORCING_MAX_WAVENUMBER + 1, size=(FORCING_MODES, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(FORCING_MODES, 3))
    amps = rng.uniform(0.5, 1.5, size=FORCING_MODES)

    def forcing(x, y, z):
        total = 0.0
        for (kx, ky, kz), (px, py, pz), a in zip(waves, phases, amps):
            total = total + a * (
                np.sin(np.pi * kx * x + px)
                * np.sin(np.pi * ky * y + py)
                * np.sin(np.pi * kz * z + pz)
            )
        return total

    return forcing


def predict_params(seed):
    """Seeded (machine, ranks, degree, iterations) of the `semperf predict` call."""
    rng = np.random.default_rng(seed)
    machine = ("pleiades2-sim", "pleiades", "pleiades2", "pleiades2plus")[
        int(rng.integers(4))
    ]
    ranks = int(rng.choice((1, 2, 4, 8, 16, 32)))
    degree = int(rng.integers(4, 12))
    return machine, ranks, degree, int(rng.integers(20, 201))
