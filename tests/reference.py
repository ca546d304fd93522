"""Brute-force reference implementations with explicit instruction counting.

These mirror the production kernels with plain Python loops, tallying every
addition, multiplication and division as it happens.  They are the oracle
for the counted-flop contract: one multiply and one add per inner-product
term, weight scalings counted once per point, direction results summed
pairwise.
"""

import math

import numpy as np

from semperf.kernel import ElementField
from semperf.transport import allreduce_sum


class CountingTally:
    def __init__(self):
        self.additions = 0
        self.multiplications = 0
        self.divisions = 0

    @property
    def total(self):
        return self.additions + self.multiplications + self.divisions


def field_from_callable(fn, bases, index=(0, 0, 0)):
    """Sample fn(x, y, z) on the reference grid of one basis or three."""
    bx, by, bz = bases if isinstance(bases, tuple) else (bases,) * 3
    z, y, x = np.meshgrid(bz.nodes, by.nodes, bx.nodes, indexing="ij")
    return ElementField.from_grid(index, fn(x, y, z))


def ref_tensor_derivative(grid, diff_matrix, axis):
    """Loop-level derivative along axis (0=x, 1=y, 2=z) of a (z,y,x) grid."""
    nz, ny, nx = grid.shape
    n_axis = (nx, ny, nz)[axis]
    out = np.zeros_like(grid)
    tally = CountingTally()
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                acc = 0.0
                for m in range(n_axis):
                    if axis == 0:
                        term = diff_matrix[i, m] * grid[k, j, m]
                    elif axis == 1:
                        term = diff_matrix[j, m] * grid[k, m, i]
                    else:
                        term = diff_matrix[k, m] * grid[m, j, i]
                    tally.multiplications += 1
                    acc += term
                    tally.additions += 1
                out[k, j, i] = acc
    return out, tally


def ref_element_laplacian(grid, bases, extents):
    """Loop-level weak Laplacian D^T W D with per-direction metric scales."""
    bx, by, bz = bases
    hx, hy, hz = extents
    jac = hx * hy * hz / 8.0
    w3 = (
        bz.weights[:, None, None]
        * by.weights[None, :, None]
        * bx.weights[None, None, :]
    )
    tally = CountingTally()
    direction_results = []
    for axis, (basis, h) in enumerate(zip((bx, by, bz), (hx, hy, hz))):
        scaled = (4.0 / (h * h)) * jac * w3
        t, t1 = ref_tensor_derivative(grid, basis.diff_matrix, axis)
        for idx in np.ndindex(t.shape):
            t[idx] = t[idx] * scaled[idx]
            tally.multiplications += 1
        r, t2 = ref_tensor_derivative(t, basis.diff_matrix.T, axis)
        tally.additions += t1.additions + t2.additions
        tally.multiplications += t1.multiplications + t2.multiplications
        direction_results.append(r)
    out = np.zeros_like(grid)
    rx, ry, rz = direction_results
    for idx in np.ndindex(out.shape):
        out[idx] = (rx[idx] + ry[idx]) + rz[idx]
        tally.additions += 2
    return out, tally


def reference_apply_grid(op, grid):
    """ElementOperator.apply_grid on the whole batch at once, unblocked.

    The same six products per element in the same order, each over every
    element in one batched matmul with fresh temporaries: the blocked
    operator must reproduce it bit for bit.
    """
    (dx, dxt), (dy, dyt), (dz, dzt) = op._passes
    lead = grid.shape[:-3]
    nz, ny, nx = grid.shape[-3:]
    # one element's scaled weights, broadcast over the batch
    swx, swy, swz = op.scaled_weights
    swx, swz = swx.reshape(nz * ny, nx), swz.reshape(nz, ny * nx)
    t = grid.reshape(*lead, nz * ny, nx) @ dxt
    t *= swx
    out = (t @ dx).reshape(grid.shape)
    t = dy @ grid
    t *= swy
    out += dyt @ t
    t = dz @ grid.reshape(*lead, nz, ny * nx)
    t *= swz
    out += (dzt @ t).reshape(grid.shape)
    return out


def ref_cut_faces(elements, rank_of):
    """Exhaustive scan of adjacent element pairs landing on different ranks."""
    ex, ey, ez = elements
    faces = []
    for k in range(ez):
        for j in range(ey):
            for i in range(ex):
                for axis, nxt in enumerate(
                    ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1))
                ):
                    if nxt[axis] >= elements[axis]:
                        continue
                    a = rank_of(i, j, k)
                    b = rank_of(*nxt)
                    if a != b:
                        faces.append((axis, (i, j, k), a, b))
    return faces


def ref_histogram_tally(samples, edges):
    """Linear-scan bucket tally with [edge_k, edge_{k+1}) membership."""
    counts = [0] * (len(edges) - 1)
    for s in samples:
        for k in range(len(edges) - 1):
            if edges[k] <= s < edges[k + 1]:
                counts[k] += 1
                break
        else:
            counts[-1] += 1
    return counts


def ref_dot(worker, u, v):
    """Counted weighted dot partial of two vectors of a RankWorker's block.

    Per block of ``op.block_elements`` elements of the element-major
    (elements, points) views, the column sums of u * v dotted with one
    element's inverse multiplicity; the block partials add in block order.
    Exact only for u or v zero on the box walls.
    """
    worker.counter.count(add=u.size, mul=2 * u.size)
    weights = worker.inv_mult.reshape(-1)
    u_rows, v_rows = (a.reshape(-1, weights.size) for a in (u, v))
    step = worker.op.block_elements
    total = 0.0
    for lo in range(0, len(u_rows), step):
        ub, vb = u_rows[lo:lo + step], v_rows[lo:lo + step]
        total += np.einsum("ek,ek->k", ub, vb).dot(weights)
    return total


def ref_cg_step(worker, rtol=None, max_iters=None):
    """Out-of-place Jacobi-CG step of a Dirichlet RankWorker.

    Each update allocates a fresh array, the way the in-place product loop
    must reproduce bit for bit, counted flops included.  Built on the
    worker's matvec and reduction and on ``ref_dot``, so it can stand in
    for ``RankWorker.run_step``.
    """
    if max_iters is None:
        max_iters = worker.config.cg_iters_per_step
    counter = worker.counter
    size = worker.rhs.size
    x = np.zeros_like(worker.rhs)
    r = worker.rhs.copy()
    z = worker.inv_diag * r
    counter.count(mul=size)
    rho, rr = allreduce_sum(
        worker.endpoint, (ref_dot(worker, r, z), ref_dot(worker, r, r))
    )
    rr0 = rr if rr > 0 else 1.0
    threshold = (rtol * rtol) * rr0 if rtol is not None else None
    p = z.copy()
    iters = 0
    while iters < max_iters:
        if rho == 0.0 or (threshold is not None and rr <= threshold):
            break
        counted = counter.additions, counter.multiplications
        q = worker.matvec(p)
        den, = allreduce_sum(worker.endpoint, (ref_dot(worker, p, q),))
        if den == 0.0:
            # the unfinished iteration counts nothing
            counter.additions, counter.multiplications = counted
            break
        alpha = rho / den
        counter.count(div=1)
        x += alpha * p
        r -= alpha * q
        z = worker.inv_diag * r
        counter.count(add=2 * size, mul=3 * size)
        rho_new, rr = allreduce_sum(
            worker.endpoint, (ref_dot(worker, r, z), ref_dot(worker, r, r))
        )
        beta = rho_new / rho
        counter.count(div=1)
        p = z + beta * p
        counter.count(add=size, mul=size)
        rho = rho_new
        iters += 1
    return x, iters, math.sqrt(rr / rr0)
