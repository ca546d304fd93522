"""The benchmark case, its exact flop counts and the per-step record.

Counted flops are the additions, multiplications and divisions performed by
the numerical kernels themselves (operator applications, vector updates,
dot products and the alpha/beta divisions).  Basis and geometry setup is
excluded, as is the bookkeeping arithmetic of interface summation,
reduction combining and masking, which is attributed to communication.  The
per-step count is therefore an exact linear function of the element count.

This module is plain arithmetic without numpy, so the Gamma model, the
simulated campaigns and the command line can use it without loading the
executed kernel.
"""

import numbers
from dataclasses import dataclass

WORD_BYTES = 8
MEGA = 1_000_000

# Flops per stored value and CG iteration outside the operator:
# dot(p,q) 3, x update 2, r update 2, precondition 1, dot(r,z) 3,
# dot(r,r) 3, p update 2.
VECTOR_FLOPS_PER_ITER = 16
# Per-step start-up on r0 = b: precondition 1, dot(r0,z0) 3, dot(r0,r0) 3.
VECTOR_FLOPS_PER_STEP = 7
# alpha and beta divisions, performed by every rank.
DIVS_PER_ITER_PER_RANK = 2


@dataclass(frozen=True)
class CaseConfig:
    """Benchmark case: element grid, polynomial degrees, work budget."""

    elements: tuple = (8, 8, 8)
    degrees: tuple = (8, 8, 8)
    n_fields: int = 1
    steps: int = 1
    cg_iters_per_step: int = 100

    def __post_init__(self):
        counts = (
            *self.elements,
            *self.degrees,
            self.n_fields,
            self.steps,
            self.cg_iters_per_step,
        )
        if not all(
            isinstance(c, numbers.Integral) and not isinstance(c, bool)
            for c in counts
        ):
            raise ValueError(
                "elements, degrees, n_fields, steps and cg_iters_per_step "
                f"must be integers: {self}"
            )
        if len(self.elements) != 3 or any(e < 1 for e in self.elements):
            raise ValueError(f"element counts must be 3 values >= 1: {self.elements}")
        if len(self.degrees) != 3 or any(n < 2 for n in self.degrees):
            raise ValueError(f"degrees must be 3 values >= 2: {self.degrees}")
        if self.n_fields < 1:
            raise ValueError("n_fields must be >= 1")
        if self.steps < 1 or self.cg_iters_per_step < 1:
            raise ValueError("steps and cg_iters_per_step must be >= 1")

    @property
    def n_elements(self):
        ex, ey, ez = self.elements
        return ex * ey * ez

    @property
    def points_per_element(self):
        nx, ny, nz = self.degrees
        return (nx + 1) * (ny + 1) * (nz + 1)


def laplacian_flops(shape):
    """Counted flops of one weak-Laplacian application on one element."""
    nx, ny, nz = shape
    npts = nx * ny * nz
    total = 0
    for n_axis in shape:
        total += 2 * npts * n_axis  # D
        total += npts  # weight scaling
        total += 2 * npts * n_axis  # D^T
    total += 2 * npts  # sum of the three direction terms
    return total


def iteration_flops(config):
    """Counted flops of one CG iteration summed over all elements."""
    shape = tuple(n + 1 for n in config.degrees)
    npts = config.points_per_element
    per_element = config.n_fields * (
        laplacian_flops(shape) + VECTOR_FLOPS_PER_ITER * npts
    )
    return config.n_elements * per_element


def step_setup_flops(config):
    """Counted flops of the per-step CG start-up."""
    return (
        config.n_elements
        * config.n_fields
        * VECTOR_FLOPS_PER_STEP
        * config.points_per_element
    )


def step_flops(config, n_ranks=1, iters=None):
    """Exact counted flops of one work step on n_ranks."""
    if iters is None:
        iters = config.cg_iters_per_step
    return iters * (
        iteration_flops(config) + DIVS_PER_ITER_PER_RANK * n_ranks
    ) + step_setup_flops(config)


@dataclass(frozen=True, kw_only=True)
class StepRecord:
    """One work step: exact counters, wall time and the modeled time split.

    An executed step carries one rank's figures, or all ranks' combined;
    its ``t_p``/``t_c``/``t_l`` are None.  Its halo counters count the
    exchanges performed, so a step that stops on an underflowing ``p.q``
    counts one exchange more than its iterations.  A modeled step has no
    residual or reduction count, and its wall time is the sum of the
    modeled parts.
    """

    iterations: int
    rel_residual: float = None
    flops: int
    halo_words_sent: int
    halo_messages: int
    reduce_words_sent: int = None
    walltime: float
    t_p: float = None
    t_c: float = None
    t_l: float = None
