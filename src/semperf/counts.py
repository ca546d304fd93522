"""The benchmark case, each kernel's flop tally and the per-step record.

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

import math
import numbers
from dataclasses import dataclass

WORD_BYTES = 8
MEGA = 1_000_000

# (additions, multiplications) per stored value outside the operator, of one
# CG iteration: the p.q, r.z and r.r partials (1, 2) each, the x, r and p
# updates (1, 1) each and z = inv_diag * r (0, 1); and of a step's start-up
# on r0 = b: z0 and the r0.z0 and r0.r0 partials.
VECTOR_FLOPS_PER_ITER = (6, 10)
VECTOR_FLOPS_PER_STEP = (2, 5)
# alpha and beta divisions, performed by every rank.
DIVS_PER_ITER_PER_RANK = 2


def require(name, x, low=-math.inf, *, above=False, integer=False):
    """Raise a ValueError naming the field unless x is a finite number
    (an integer when integer is set) >= low, or > low when above is set.

    Every lower-bounded number a config, profile, table or command line
    supplies passes here.  A bool is refused although Python counts it as
    an int (a JSON true would otherwise be a count of 1), and so is an int
    too large for a float.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(x, bool) or not isinstance(
        x, numbers.Integral if integer else numbers.Real
    ):
        raise ValueError(f"{name} must be {kind} (got {x!r})")
    try:
        finite = math.isfinite(x)
    except OverflowError:
        finite = False
    if not finite:
        got = x if isinstance(x, float) else "a value too large for a float"
        raise ValueError(f"{name} must be finite (got {got})")
    if x < low or (above and x == low):
        op = ">" if above else ">="
        raise ValueError(f"{name} must be {kind} {op} {low:g} (got {x!r})")


@dataclass(frozen=True)
class CaseConfig:
    """Benchmark case: element grid, polynomial degrees, work budget."""

    elements: tuple = (8, 8, 8)
    degrees: tuple = (8, 8, 8)
    n_fields: int = 1
    steps: int = 1
    cg_iters_per_step: int = 100

    def __post_init__(self):
        if len(self.elements) != 3 or len(self.degrees) != 3:
            raise ValueError(f"elements and degrees need 3 values: {self}")
        for e in self.elements:
            require("elements", e, 1, integer=True)
        for n in self.degrees:
            require("degrees", n, 2, integer=True)
        for name in ("n_fields", "steps", "cg_iters_per_step"):
            require(name, getattr(self, name), 1, integer=True)

    @property
    def n_elements(self):
        ex, ey, ez = self.elements
        return ex * ey * ez

    @property
    def points_per_element(self):
        nx, ny, nz = self.degrees
        return (nx + 1) * (ny + 1) * (nz + 1)


def derivative_flops(n_axis):
    """(additions, multiplications) per grid point of a derivative along an
    axis of n_axis points: one of each per term of its row of D."""
    return n_axis, n_axis


def laplacian_point_flops(shape):
    """(additions, multiplications) per grid point of a weak Laplacian: per
    direction D, a weight scaling and D^T, then 2 adds sum the directions."""
    adds, muls = map(sum, zip(*map(derivative_flops, shape)))
    return 2 * adds + 2, 2 * muls + 3


def laplacian_flops(shape):
    """Counted flops of one weak-Laplacian application on one element."""
    return math.prod(shape) * sum(laplacian_point_flops(shape))


def iteration_flops(config):
    """Counted flops of one CG iteration summed over all elements."""
    shape = tuple(n + 1 for n in config.degrees)
    npts = config.points_per_element
    per_element = config.n_fields * (
        laplacian_flops(shape) + sum(VECTOR_FLOPS_PER_ITER) * npts
    )
    return config.n_elements * per_element


def step_setup_flops(config):
    """Counted flops of the per-step CG start-up."""
    return (
        config.n_elements
        * config.n_fields
        * sum(VECTOR_FLOPS_PER_STEP)
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
