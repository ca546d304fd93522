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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
            StepRecord(
                iterations=per_rank[0].iterations,
                rel_residual=per_rank[0].rel_residual,
                flops=sum(s.flops for s in per_rank),
                halo_words_sent=sum(s.halo_words_sent for s in per_rank),
                halo_messages=sum(s.halo_messages for s in per_rank),
                reduce_words_sent=sum(s.reduce_words_sent for s in per_rank),
                walltime=max(s.walltime for s in per_rank),
            )
            for per_rank in zip(*self.rank_steps)
        )

    @property
    def iterations(self):
        return tuple(s.iterations for s in self.rank_steps[0])


class RankWorker:
    """State and kernels of one rank's block of elements.

    A block's arrays are laid out (cz, cy, cx, f, nz, ny, nx): per direction
    an element axis and a node axis, with the fields in between.  A rank
    holds five of them: rhs, q (which also holds z), x, r and p.  The
    inverse multiplicity and inverse Jacobi diagonal are one element's
    tables, which assume one ElementOperator for the whole block; they
    differ from the assembled tables on the box walls, whose nodes no
    neighbor shares, so they are exact only for vectors that vanish there.
    """

    _EL_AXIS = (2, 1, 0)  # array axis of the element index per direction
    _NODE_AXIS = (6, 5, 4)  # array axis of the node index per direction

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
        # the operator's element blocks, as row slices of a vector's
        # element-major (elements, points) view, the last one clipped to
        # the rank's rows
        n_rows = math.prod(self._arr_shape[:4])
        step = self.op.block_elements
        self._block_rows = tuple(
            slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)
        )

        # per direction: the halo (minus, plus, lo, hi, left, right), that is
        # the face neighbors, the block's boundary planes and the planes of
        # its own interior interfaces (None with one element along it); and,
        # from the block's global element indices g, the coordinates, shaped
        # to broadcast at the direction's element and node axes.  A side
        # with no face neighbor is a box wall: its plane is Dirichlet.
        ndim = len(self._arr_shape)
        self._halo = []
        self._coordinates = []
        walls = np.zeros(self._arr_shape, dtype=bool)
        for ax, ((start, stop), (minus, plus)) in enumerate(
            zip(self.block, plan.neighbors(self.rank))
        ):
            el_ax, node_ax = self._EL_AXIS[ax], self._NODE_AXIS[ax]
            lo = _plane_index(ndim, el_ax, 0, node_ax, 0)
            hi = _plane_index(ndim, el_ax, -1, node_ax, -1)
            left = right = None
            if stop - start > 1:
                left = _plane_index(ndim, el_ax, slice(None, -1), node_ax, -1)
                right = _plane_index(ndim, el_ax, slice(1, None), node_ax, 0)
            self._halo.append((minus, plus, lo, hi, left, right))
            if minus is None:
                walls[lo] = True
            if plus is None:
                walls[hi] = True
            g = np.arange(start, stop)[:, None]
            coords_ax = (g + (bases[ax].nodes + 1.0) / 2.0) * extents[ax]
            table = [1] * ndim
            table[el_ax], table[node_ax] = coords_ax.shape
            self._coordinates.append(coords_ax.reshape(table))
        # keep the walls as the flat indices of their nodes (on 8^3
        # elements, N=8, P=1: 242 KB, not 3 MB)
        self._walls = np.flatnonzero(walls)

        # one element's inverse multiplicity and inverse Jacobi diagonal,
        # shaped (1, 1, 1, 1, nz, ny, nx) to broadcast over the block.  The
        # multiplicity is a product of 1s and 2s, so exact; the diagonal
        # sums each direction's end planes in dssum's sweep order (x, y, z)
        # and pairs (hi + lo), so at every node off the box walls it has
        # the assembled diagonal's bits.
        mult = 1.0
        diag = self.op.diagonal_grid()
        for degree, node_ax in zip(config.degrees, self._NODE_AXIS):
            ends = np.ones(degree + 1)
            ends[[0, -1]] = 2.0
            table = [1] * ndim
            table[node_ax] = ends.size
            mult = mult * ends.reshape(table)
            planes = np.moveaxis(diag, node_ax - ndim, 0)
            planes[0] = planes[-1] = planes[-1] + planes[0]
        self.inv_mult = 1.0 / mult
        self.inv_diag = 1.0 / diag.reshape(self.inv_mult.shape)
        # inv_mult as one element's row of points: the dots' weights
        self._weights = self.inv_mult.reshape(-1)
        # inv_diag tiled to the first block's rows, at most the rank's
        # elements, so run_step's z update multiplies operands of one shape
        self._diag_tile = np.tile(
            self.inv_diag.reshape(-1), (self._block_rows[0].stop, 1)
        )
        self.rhs = None

    # -- gather-scatter ----------------------------------------------------

    def dssum(self, arr):
        """Direct-stiffness summation: sum all copies of each shared node.

        One sweep per direction; every sweep exchanges full boundary planes
        with the face neighbors, so values accumulated in earlier sweeps
        carry edge and corner contributions along.  Both sides of an
        interface compute the same two-term sum, which IEEE addition makes
        bitwise identical.
        """
        endpoint = self.endpoint
        for minus, plus, lo, hi, left, right in self._halo:
            if minus is not None:
                endpoint.send(minus, arr[lo], tag="halo")
            if plus is not None:
                endpoint.send(plus, arr[hi], tag="halo")
            if left is not None:
                shared = arr[left] + arr[right]
                arr[left] = shared
                arr[right] = shared
            if minus is not None:
                arr[lo] += endpoint.receive(minus, tag="halo")
            if plus is not None:
                arr[hi] += endpoint.receive(plus, tag="halo")
        return arr

    # -- counted kernels ---------------------------------------------------

    def _row_blocks(self, arr):
        # arr's element-major (elements, points) view, cut into the
        # operator's element blocks
        rows = arr.reshape(-1, self._weights.size)
        return [rows[s] for s in self._block_rows]

    def _block_dot(self, u_blocks, v_blocks):
        # per block, the column sums over its elements of u * v, then one
        # dot with inv_mult, one element's weights; the block partials add
        # in block order.  The column sums run in numpy's own loops and the
        # dot is one element long, so no BLAS call is long enough to reach
        # a helper thread.  run_step's fused pass takes rz and rr in this
        # form, block by block, so both give the same bits
        w = self._weights
        total = 0.0
        for ub, vb in zip(u_blocks, v_blocks):
            total += np.einsum("ek,ek->k", ub, vb).dot(w)
        return total

    def _dot_partial(self, u, v):
        # exact only for u or v zero on the box walls, as rhs, r, z, p and
        # q are
        self.counter.count(add=u.size, mul=2 * u.size)
        return self._block_dot(self._row_blocks(u), self._row_blocks(v))

    def _allreduce(self, *partials):
        return allreduce_sum(self.endpoint, partials)

    def matvec(self, p):
        q = self.op.apply_grid(p, counter=self.counter, out=self._q)
        self.dssum(q)
        # the Dirichlet mask: the same bits as q * mask, -0.0 included
        self._q_flat[self._walls] *= 0.0
        return q

    # -- setup ---------------------------------------------------------------

    def setup(self, forcing=None):
        """Assemble and mask the load; allocate the CG vectors.

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
        # that they can take the memory that setup's temporaries gave back;
        # and the block views of x, r, p, q and the Jacobi tile that
        # run_step works through
        self._x, self._r, self._p = (
            np.empty(self._arr_shape) for _ in range(3)
        )
        xs, rs, ps, qs = (
            self._row_blocks(a) for a in (self._x, self._r, self._p, self._q)
        )
        ds = [self._diag_tile[:len(b)] for b in xs]
        self._vector_blocks = xs, rs, ps, qs, ds

    # -- the work step -------------------------------------------------------

    def run_step(self, rtol=None, max_iters=None):
        if max_iters is None:
            max_iters = self.config.cg_iters_per_step
        size = self.rhs.size
        # the worker's own x, r and p, reset to the same bits as fresh
        # arrays: run_step returns x, and the next step overwrites it; z
        # is q's buffer, read last by the p update before the next matvec
        x, r, z, p = self._x, self._r, self._q, self._p
        xs, rs, ps, qs, ds = self._vector_blocks
        blocks = tuple(zip(xs, rs, ps, qs, ds))
        w = self._weights
        x.fill(0.0)
        np.copyto(r, self.rhs)
        np.multiply(self.inv_diag, r, out=z)
        self.counter.count(mul=size)
        rho, rr = self._allreduce(
            self._dot_partial(r, z), self._dot_partial(r, r)
        )
        rr0 = rr if rr > 0 else 1.0
        threshold = (rtol * rtol) * rr0 if rtol is not None else None
        np.copyto(p, z)
        iters = 0
        while iters < max_iters:
            # rho reaches 0, exactly or by underflow, once r vanishes: the
            # solve has converged, and one more iteration would divide 0 by 0
            if rho == 0.0 or (threshold is not None and rr <= threshold):
                break
            counted = self.counter.additions, self.counter.multiplications
            self.matvec(p)
            den, = self._allreduce(self._block_dot(ps, qs))
            if den == 0.0:
                # p.q underflowed while rho did not: stop, and take this
                # unfinished iteration's operator off the tally, so the
                # step counts step_flops(config, P, iters)
                self.counter.additions, self.counter.multiplications = counted
                break
            alpha = rho / den
            # one pass over the operator's element blocks, each hot in L2,
            # in place with q (dead after the r update) as scratch and then
            # as z: the same bits as r -= alpha * q, x += alpha * p and
            # z = inv_diag * r; then the block's rz and rr partials, in
            # _block_dot's form and block order
            rz_part = rr_part = 0.0
            for xb, rb, pb, qb, db in blocks:
                qb *= alpha
                rb -= qb
                np.multiply(pb, alpha, out=qb)
                xb += qb
                np.multiply(db, rb, out=qb)
                rz_part += np.einsum("ek,ek->k", rb, qb).dot(w)
                rr_part += np.einsum("ek,ek->k", rb, rb).dot(w)
            rho_new, rr = self._allreduce(rz_part, rr_part)
            beta = rho_new / rho
            # the p update in the same blocks: the same bits as z + beta * p
            for _, _, pb, zb, _ in blocks:
                pb *= beta
                pb += zb
            # the iteration's vector flops in one call: the p.q, rz and rr
            # partials (3 per point each), the x, r and z updates (5), the
            # p update (2), alpha and beta
            self.counter.count(add=6 * size, mul=10 * size, div=2)
            rho = rho_new
            iters += 1
        return x, iters, math.sqrt(rr / rr0)


def _plane_index(ndim, el_ax, el_sel, node_ax, node_sel):
    idx = [slice(None)] * ndim
    idx[el_ax] = el_sel
    idx[node_ax] = node_sel
    return tuple(idx)


def _rank_main(
    config,
    plan,
    endpoint,
    rtol,
    max_iters,
    forcing,
    collect_fields,
):
    """Run one rank: its step records, its setup halo words, and (with
    collect_fields) its elements' final fields by global element index."""
    try:
        worker = RankWorker(config, plan, endpoint)
        worker.setup(forcing)
        setup_halo = endpoint.tag_words_sent["halo"]
        steps = []
        solution = None
        for _ in range(config.steps):
            endpoint.barrier()
            flops0 = worker.counter.total
            halo0 = endpoint.tag_words_sent["halo"]
            msgs0 = endpoint.tag_messages_sent["halo"]
            red0 = endpoint.tag_words_sent["reduce"]
            t0 = time.perf_counter()
            solution, iters, rel = worker.run_step(
                rtol=rtol, max_iters=max_iters
            )
            walltime = time.perf_counter() - t0
            steps.append(
                StepRecord(
                    iterations=iters,
                    rel_residual=rel,
                    flops=worker.counter.total - flops0,
                    halo_words_sent=endpoint.tag_words_sent["halo"] - halo0,
                    halo_messages=endpoint.tag_messages_sent["halo"] - msgs0,
                    reduce_words_sent=endpoint.tag_words_sent["reduce"] - red0,
                    walltime=walltime,
                )
            )
    except BaseException:
        endpoint.abort()
        raise
    fields = {}
    if collect_fields:
        (x0, _), (y0, _), (z0, _) = worker.block
        for ez, ey, ex in np.ndindex(solution.shape[:3]):
            fields[(x0 + ex, y0 + ey, z0 + ez)] = np.array(solution[ez, ey, ex])
    return steps, setup_halo, fields


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
    is raised here.
    """
    if plan is None:
        plan = partition_elements(config, n_ranks or 1)
    rank0, *others = loopback_transport(plan.n_ranks)

    def run_rank(ep):
        return _rank_main(
            config, plan, ep, rtol, max_iters, forcing, collect_fields
        )

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
    fields = {}
    for _, _, rank_fields in results:
        fields.update(rank_fields)
    return WorkUnitReport(
        rank_steps=tuple(tuple(steps) for steps, _, _ in results),
        setup_halo_words_sent=sum(setup for _, setup, _ in results),
        fields=fields,
    )
