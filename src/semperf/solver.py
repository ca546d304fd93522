"""Distributed conjugate-gradient work unit on the partitioned element mesh.

The mesh covers the unit box [0, 1]^3, so an element spans 1 / elements
along each direction, and every boundary is homogeneous Dirichlet.  Each
rank owns a contiguous block of elements and holds the nodal values of its
elements redundantly at interfaces.  One work step runs a budget of
Jacobi-preconditioned CG iterations on the assembled weak Laplacian; every
operator application is followed by a gather-scatter (direct-stiffness
summation), performed as one face exchange sweep per direction so edge and
corner values ride inside the face messages.

The counted flops of a step are the closed forms of ``counts``.
"""

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import counts
from .basis import build_gll_basis
from .counts import StepRecord, step_flops  # step_flops: perfbench/child.py
from .kernel import ElementOperator, FlopCounter
from .partition import partition_elements
from .transport import (
    TransportAborted,
    TransportTimeout,
    allreduce_sum,
    loopback_transport,
)

# a rank's step counters, in the order RankWorker.tally reads them; a
# step's record holds each one's growth over the step
STEP_COUNTERS = (
    "flops", "halo_words_sent", "halo_messages", "reduce_words_sent"
)


def default_forcing(x, y, z):
    """Load whose exact Dirichlet solution is sin(pi x) sin(pi y) sin(pi z)."""
    s = np.pi**2 * 3.0
    return s * np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)


def default_solution(x, y, z):
    return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)


@dataclass
class WorkUnitReport:
    """Result of one executed work unit: each rank's step records, the
    setup's halo words and, on request, the fields."""

    rank_steps: tuple  # per rank: a StepRecord per step
    setup_halo_words_sent: int
    fields: dict = field(default_factory=dict, repr=False)

    @property
    def steps(self):
        """Per step, the ranks' records combined: counts add up, the slowest
        rank sets the wall time, rank 0 gives iterations and residual."""
        return tuple(
            replace(
                per_rank[0],
                walltime=max(s.walltime for s in per_rank),
                **{c: sum(getattr(s, c) for s in per_rank)
                   for c in STEP_COUNTERS},
            )
            for per_rank in zip(*self.rank_steps)
        )

    @property
    def iterations(self):
        return tuple(s.iterations for s in self.rank_steps[0])


# per direction x, y, z: the array axes of the element and the node index
# in a block's (cz, cy, cx, f, nz, ny, nx) layout
_AXES = ((2, 6), (1, 5), (0, 4))


def _planes(arr, el_ax, node_ax):
    """Views of one direction's planes of a block-shaped array: its lo and
    hi end planes and, with more than one element along the direction, the
    left and right sides of its interior interfaces (None otherwise)."""
    a = np.moveaxis(arr, (el_ax, node_ax), (0, 1))
    if len(a) == 1:
        return a[0, 0], a[-1, -1], None, None
    return a[0, 0], a[-1, -1], a[:-1, -1], a[1:, 0]


class RankWorker:
    """State and kernels of one rank's block of elements.

    A block's arrays are laid out (cz, cy, cx, f, nz, ny, nx): per direction
    an element axis and a node axis, with the fields in between.  A rank
    holds five of them: rhs, q (which also holds z), x, r and p, which
    the CG step works on in one form only: the operator's element blocks
    of their element-major (elements, points) views.  The inverse
    multiplicity and inverse Jacobi diagonal are one element's
    (nz, ny, nx) tables, which assume one ElementOperator for the whole
    block; they differ from the assembled tables on the box walls, whose
    nodes no neighbor shares, so they are exact only for vectors that
    vanish there.
    """

    def __init__(self, config, plan, endpoint):
        self.config = config
        self.endpoint = endpoint
        self.rank = endpoint.rank
        self.counter = FlopCounter()

        self.block = plan.block_of(self.rank)
        bases = tuple(build_gll_basis(n) for n in config.degrees)
        extents = tuple(1.0 / e for e in config.elements)
        self.op = ElementOperator(bases, extents)

        cx, cy, cz = (stop - start for start, stop in self.block)
        nx, ny, nz = (n + 1 for n in config.degrees)
        self._arr_shape = (cz, cy, cx, config.n_fields, nz, ny, nx)
        # matvec's output and, from a p update to the next matvec, z; and
        # its flat view, through which matvec masks the walls
        self._q = np.empty(self._arr_shape)
        self._q_flat = self._q.reshape(-1)

        # one pass over the directions in dssum's sweep order (x, y, z): keep
        # dssum's halo (axes, minus, plus); mark the walls, the Dirichlet end
        # planes of a side with no face neighbor; sum in dssum's pairing
        # (hi + lo) the end planes of one element's ones and Jacobi diagonal,
        # a one-element block's two fields, so the multiplicity is exact and
        # off the box walls the diagonal has the assembled bits; and spread
        # the coordinates of the block's elements g along the direction's axes
        tables = np.stack(
            (np.ones(self._arr_shape[4:]), self.op.diagonal_grid())
        )[None, None, None]
        walls = np.zeros(self._arr_shape, dtype=bool)
        self._halo = []
        self._coordinates = []
        for ax, ((start, stop), (minus, plus), axes) in enumerate(
            zip(self.block, plan.neighbors(self.rank), _AXES)
        ):
            self._halo.append((axes, minus, plus))
            lo, hi, _, _ = _planes(walls, *axes)
            lo |= minus is None
            hi |= plus is None
            lo, hi, _, _ = _planes(tables, *axes)
            lo[...] = hi[...] = hi + lo
            g = np.arange(start, stop)[:, None]
            coords_ax = (g + (bases[ax].nodes + 1.0) / 2.0) * extents[ax]
            others = [i for i in range(walls.ndim) if i not in axes]
            self._coordinates.append(np.expand_dims(coords_ax, others))
        # keep the walls as the flat indices of their nodes (on 8^3
        # elements, N=8, P=1: 242 KB, not 3 MB)
        self._walls = np.flatnonzero(walls)
        # dssum's last array, its shape and its halo plane views; none yet
        self._halo_planes = None, None, ()
        # the inverse multiplicity and Jacobi diagonal, (nz, ny, nx) tables
        # that broadcast over the block; inv_mult's points weight the dots
        self.inv_mult, self.inv_diag = 1.0 / tables[0, 0, 0]
        self._weights = self.inv_mult.reshape(-1)
        self.rhs = None

    # -- gather-scatter ----------------------------------------------------

    def dssum(self, arr):
        """Direct-stiffness summation: sum all copies of each shared node.

        One sweep per direction; every sweep exchanges full boundary planes
        with the face neighbors, so values accumulated in earlier sweeps
        carry edge and corner contributions along.  Both sides of an
        interface compute the same two-term sum, which IEEE addition makes
        bitwise identical.  The worker keeps the plane views of the last
        array it summed, and the array with them, while its shape holds.
        """
        last, shape, planes = self._halo_planes
        if not (arr is last and arr.shape == shape):
            planes = tuple(
                (minus, plus, *_planes(arr, *axes))
                for axes, minus, plus in self._halo
            )
            self._halo_planes = arr, arr.shape, planes
        endpoint = self.endpoint
        for minus, plus, lo, hi, left, right in planes:
            if minus is not None:
                endpoint.send(minus, lo, tag="halo")
            if plus is not None:
                endpoint.send(plus, hi, tag="halo")
            if left is not None:
                shared = left + right
                left[...] = shared
                right[...] = shared
            if minus is not None:
                lo += endpoint.receive(minus, tag="halo")
            if plus is not None:
                hi += endpoint.receive(plus, tag="halo")
        return arr

    # -- counted kernels ---------------------------------------------------

    def _weighted_dot(self, ub, vb):
        # one block's weighted dot partial, exact only for u or v zero on
        # the box walls, as rhs, r, z, p and q are: the column sums over the
        # block's elements of u * v, then one dot with inv_mult, one
        # element's weights.  The column sums run in numpy's own loops and
        # the dot is one element long, so no BLAS call is long enough to
        # reach a helper thread
        return np.einsum("ek,ek->k", ub, vb).dot(self._weights)

    def tally(self):
        """The rank's running step counters, in STEP_COUNTERS order."""
        words = self.endpoint.tag_words_sent
        messages = self.endpoint.tag_messages_sent["halo"]
        return self.counter.total, words["halo"], messages, words["reduce"]

    def matvec(self, p):
        q = self.op.apply_grid(p, counter=self.counter, out=self._q)
        self.dssum(q)
        # the Dirichlet mask: the same bits as q * mask, -0.0 included
        self._q_flat[self._walls] *= 0.0
        return q

    # -- setup ---------------------------------------------------------------

    def setup(self, forcing=None):
        """Assemble and mask the load; allocate the CG vectors and cut them,
        with the load and the Jacobi table, into the operator's element
        blocks, the one form ``run_step`` works in.

        One gather-scatter, the load's: the multiplicity and Jacobi
        diagonal are one element's tables, built by ``__init__`` from the
        block's one operator.  They are exact only for vectors that vanish
        on the box walls: the masked load does, and so do the r, z and p a
        step derives from it.
        """
        forcing = forcing or default_forcing
        b = np.broadcast_to(
            forcing(*self._coordinates), self._arr_shape
        ).copy()
        b *= self.op.mass_weights
        self.dssum(b)
        b.reshape(-1)[self._walls] *= 0.0
        self.rhs = b

        # the CG vectors x, r and p (z shares q's buffer), allocated last so
        # that they can take the memory that setup's temporaries gave back
        self._x, self._r, self._p = (
            np.empty(self._arr_shape) for _ in range(3)
        )
        # per element block of the operator: the row slices of the
        # element-major (elements, points) views of rhs, x, r, p and q, the
        # last block clipped to the rank's rows, and that block's rows of
        # inv_diag tiled to min(block, the rank's elements) rows, so the z
        # update multiplies operands of one shape
        rows = [
            a.reshape(-1, self._weights.size)
            for a in (b, self._x, self._r, self._p, self._q)
        ]
        n_rows, step = len(rows[0]), self.op.block_elements
        diag_tile = np.tile(self.inv_diag.reshape(-1), (min(step, n_rows), 1))
        cuts = range(step, n_rows, step)
        self._blocks = tuple(
            (*views, diag_tile[:len(views[0])])
            for views in zip(*(np.split(v, cuts) for v in rows))
        )

    # -- the work step -------------------------------------------------------

    def run_step(self, rtol=None, max_iters=None):
        if max_iters is None:
            max_iters = self.config.cg_iters_per_step
        size = self.rhs.size
        blocks, dot = self._blocks, self._weighted_dot
        # the start-up, in the same blocks: x = 0, r = rhs, z = inv_diag * r
        # (in q's buffer, which the p update reads last before the next
        # matvec) and p = z, with the block's rz and rr partials.  The
        # worker's x, r and p so get the bits of fresh arrays; the next
        # step overwrites the x that run_step returns
        rz_part = rr_part = 0.0
        for bb, xb, rb, pb, qb, db in blocks:
            xb.fill(0.0)
            np.copyto(rb, bb)
            np.multiply(db, rb, out=qb)
            np.copyto(pb, qb)
            rz_part += dot(rb, qb)
            rr_part += dot(rb, rb)
        self.counter.count(*(size * n for n in counts.VECTOR_FLOPS_PER_STEP))
        rho, rr = allreduce_sum(self.endpoint, (rz_part, rr_part))
        rr0 = rr if rr > 0 else 1.0
        threshold = (rtol * rtol) * rr0 if rtol is not None else -math.inf
        iter_flops = (
            *(size * n for n in counts.VECTOR_FLOPS_PER_ITER),
            counts.DIVS_PER_ITER_PER_RANK,
        )
        iters = 0
        while iters < max_iters:
            # rho reaches 0, exactly or by underflow, once r vanishes: the
            # solve has converged, and one more iteration would divide 0 by 0
            if rho == 0.0 or rr <= threshold:
                break
            counted = self.counter.additions, self.counter.multiplications
            self.matvec(self._p)
            pq_part = 0.0
            for _, _, _, pb, qb, _ in blocks:
                pq_part += dot(pb, qb)
            den, = allreduce_sum(self.endpoint, (pq_part,))
            if den == 0.0:
                # p.q underflowed while rho did not: stop, and take this
                # unfinished iteration's operator off the tally, so the
                # step counts step_flops(config, P, iters)
                self.counter.additions, self.counter.multiplications = counted
                break
            alpha = rho / den
            # one pass over the blocks, each hot in L2, in place with q
            # (dead after the r update) as scratch and then as z: the same
            # bits as r -= alpha * q, x += alpha * p and z = inv_diag * r;
            # then the block's rz and rr partials
            rz_part = rr_part = 0.0
            for _, xb, rb, pb, qb, db in blocks:
                qb *= alpha
                rb -= qb
                np.multiply(pb, alpha, out=qb)
                xb += qb
                np.multiply(db, rb, out=qb)
                rz_part += dot(rb, qb)
                rr_part += dot(rb, rb)
            rho_new, rr = allreduce_sum(self.endpoint, (rz_part, rr_part))
            beta = rho_new / rho
            # the p update in the same blocks: the same bits as z + beta * p
            for _, _, _, pb, zb, _ in blocks:
                pb *= beta
                pb += zb
            self.counter.count(*iter_flops)
            rho = rho_new
            iters += 1
        return self._x, iters, math.sqrt(rr / rr0)


def run_work_unit(
    config,
    plan=None,
    n_ranks=None,
    rtol=None,
    max_iters=None,
    forcing=None,
    collect_fields=False,
):
    """Execute the CG work unit, one thread per rank (rank 0 on the caller's),
    on a loopback transport.

    With ``rtol`` unset each step runs the configured iteration budget;
    with ``rtol`` set, a step stops at the relative residual or at the
    budget, whichever comes first; the report keeps each rank's records.
    If a rank raises, the transport is aborted and that rank's exception
    is raised here.  Before any rank starts, a ``ValueError`` refuses an
    ``n_ranks`` that is not an integer >= 1 or that differs from the
    plan's, a plan built for another element grid, a ``max_iters`` that is
    not an integer >= 0, and an ``rtol`` that is not a finite number > 0.
    """
    if n_ranks is not None:
        counts.require("n_ranks", n_ranks, 1, integer=True)
    if max_iters is not None:
        counts.require("max_iters", max_iters, 0, integer=True)
    if rtol is not None:
        counts.require("rtol", rtol, 0, above=True)
    if plan is None:
        plan = partition_elements(config, 1 if n_ranks is None else n_ranks)
    elif n_ranks is not None and n_ranks != plan.n_ranks:
        raise ValueError(
            f"n_ranks {n_ranks} does not match the plan's {plan.n_ranks} ranks"
        )
    elif plan.elements != tuple(config.elements):
        raise ValueError(f"the plan was built for {plan.elements} elements, "
                         f"not the case's {tuple(config.elements)}")
    rank0, *others = loopback_transport(plan.n_ranks)

    def run_rank(endpoint):
        """One rank: its step records, its setup halo words, and (with
        collect_fields) its elements' final fields by global element index."""
        try:
            worker = RankWorker(config, plan, endpoint)
            worker.setup(forcing)
            setup_halo = endpoint.tag_words_sent["halo"]
            steps = []
            for _ in range(config.steps):
                endpoint.barrier()
                before = worker.tally()
                t0 = time.perf_counter()
                solution, iters, rel = worker.run_step(
                    rtol=rtol, max_iters=max_iters
                )
                walltime = time.perf_counter() - t0
                grown = map(operator.sub, worker.tally(), before)
                steps.append(StepRecord(
                    iterations=iters, rel_residual=rel, walltime=walltime,
                    **dict(zip(STEP_COUNTERS, grown)),
                ))
        except BaseException:
            endpoint.abort()
            raise
        fields = {}
        if collect_fields:
            (x0, _), (y0, _), (z0, _) = worker.block
            fields = {
                (x0 + ex, y0 + ey, z0 + ez): np.array(solution[ez, ey, ex])
                for ez, ey, ex in np.ndindex(solution.shape[:3])
            }
        return tuple(steps), setup_halo, fields

    # Rank 0 runs on the calling thread and ranks 1..P-1 on the pool (which
    # starts a thread per submit only), so back-to-back P=1 units reuse one
    # thread and its malloc arena instead of leaving one resident per unit.
    with ThreadPoolExecutor(max_workers=plan.n_ranks) as pool:
        futures = [pool.submit(run_rank, ep) for ep in others]
        errors = []
        try:
            results = [run_rank(rank0)]
        except Exception as exc:
            errors.append(exc)
    errors += [f.exception() for f in futures if f.exception() is not None]
    if errors:
        # the ranks failed by the abort only report it; raise the cause
        raise next(
            (e for e in errors
             if not isinstance(e, (TransportAborted, TransportTimeout))),
            errors[0],
        )
    results += [f.result() for f in futures]
    rank_steps, setup_halo, rank_fields = zip(*results)
    return WorkUnitReport(
        rank_steps=rank_steps,
        setup_halo_words_sent=sum(setup_halo),
        fields={k: v for fields in rank_fields for k, v in fields.items()},
    )
