"""Element-level tensor-product kernels with exact operation accounting.

What the flop counters count, and what they leave out, is set out in
``counts``.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import SpectralBasis
from .counts import WORD_BYTES, CaseConfig  # CaseConfig: perfbench/child.py
from .counts import derivative_flops, laplacian_point_flops

# Bytes of each of the operator's two scratch arrays, and so of the element
# blocks it works through: at N=8 (729 points) a block is 44 elements, and
# its input, output, both scratch arrays and one block-shaped weight table
# (about 1.28 MB) stay in a 2 MB L2.  The solver's CG vector pass takes its
# x, r, p and q blocks by the same rule (``ElementOperator.block_elements``),
# so those four and the Jacobi table fit as well; the step's start-up, once
# per step, reads the block of the right-hand side beside them.
BLOCK_BYTES = 256 * 1024

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


@dataclass
class FlopCounter:
    """Running tally of counted arithmetic, split by operation kind."""

    additions: int = 0
    multiplications: int = 0
    divisions: int = 0

    def count(self, add=0, mul=0, div=0):
        if add < 0 or mul < 0 or div < 0:
            raise ValueError("flop increments must be non-negative")
        self.additions += add
        self.multiplications += mul
        self.divisions += div

    @property
    def total(self):
        return self.additions + self.multiplications + self.divisions


@dataclass
class ElementField:
    """Nodal values of one scalar field on one element.

    ``values`` is flat in lexicographic order with x fastest, so
    ``values.reshape(nz, ny, nx)`` recovers the grid.  Interface nodes are
    stored redundantly by every element sharing the face, edge or corner.
    """

    index: tuple
    shape: tuple  # points per direction (nx, ny, nz)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        nx, ny, nz = self.shape
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != nx * ny * nz:
            raise ValueError(
                f"field length {self.values.size} does not match grid "
                f"{nx}x{ny}x{nz}"
            )

    def grid(self):
        nx, ny, nz = self.shape
        return self.values.reshape(nz, ny, nx)

    @classmethod
    def from_grid(cls, index, grid):
        nz, ny, nx = grid.shape
        return cls(index=index, shape=(nx, ny, nz), values=np.asarray(grid, dtype=float).reshape(-1))


def _three_bases(bases):
    if isinstance(bases, SpectralBasis):
        return bases, bases, bases
    bx, by, bz = bases
    return bx, by, bz


def _apply_matrix_along(grid, matrix, axis):
    # out[..., i, ...] = sum_m matrix[i, m] grid[..., m, ...]
    moved = np.moveaxis(grid, axis, -1)
    out = moved @ matrix.T
    return np.moveaxis(out, -1, axis)


def _resolve_axis(axis):
    ax = _AXIS_NAMES.get(axis, axis) if isinstance(axis, str) else axis
    if ax not in (0, 1, 2):
        raise ValueError(f"axis must be x, y or z (got {axis!r})")
    return ax


def tensor_derivative(element_field, basis, axis, counter=None):
    """Reference-space derivative along one axis via the basis D matrix."""
    ax = _resolve_axis(axis)
    n_axis = element_field.shape[ax]
    if basis.n_points != n_axis:
        raise ValueError(
            f"basis has {basis.n_points} points but field has {n_axis} "
            f"along axis {axis!r}"
        )
    grid = element_field.grid()
    # grid axes are (z, y, x); field axis 0 is x which is grid axis -1
    out = _apply_matrix_along(grid, basis.diff_matrix, -(ax + 1))
    if counter is not None:
        counter.count(*(grid.size * n for n in derivative_flops(n_axis)))
    return ElementField.from_grid(element_field.index, out)


class ElementOperator:
    """Weak Laplacian D^T W D on one axis-aligned box element.

    ``extents`` are the physical element sizes (hx, hy, hz); the affine map
    from the reference cube gives constant metric factors, folded into one
    weight array per direction.
    """

    def __init__(self, bases, extents=(2.0, 2.0, 2.0)):
        bx, by, bz = _three_bases(bases)
        hx, hy, hz = extents
        if hx <= 0 or hy <= 0 or hz <= 0:
            raise ValueError(f"element extents must be positive: {extents}")
        self.bases = (bx, by, bz)
        self.shape = (bx.n_points, by.n_points, bz.n_points)
        jac = hx * hy * hz / 8.0
        w3 = (
            bz.weights[:, None, None]
            * by.weights[None, :, None]
            * bx.weights[None, None, :]
        )
        # (2/h_d)^2 * J folded into the quadrature weights, one array per axis
        self.scaled_weights = tuple(
            (4.0 / (h * h)) * jac * w3 for h in (hx, hy, hz)
        )
        self.mass_weights = jac * w3
        nx, ny, nz = self.shape
        # per direction: D and a contiguous D^T
        self._passes = tuple(
            (b.diff_matrix, np.ascontiguousarray(b.diff_matrix.T))
            for b in self.bases
        )
        # element views of an operand as the x, y and z products see it
        self._views = ((-1, nz * ny, nx), (-1, nz, ny, nx), (-1, nz, ny * nx))
        # elements per block, and two block-sized scratch arrays, t in all
        # three views and u in the y and z views
        block = max(1, BLOCK_BYTES // (WORD_BYTES * nx * ny * nz))
        self.block_elements = block
        t, u = np.empty((2, block * nx * ny * nz))
        self._scratch = (
            *(t.reshape(v) for v in self._views),
            *(u.reshape(v) for v in self._views[1:]),
        )
        # the scaled weights tiled to a block, sized by apply_grid to the
        # most elements it has been given, up to a block
        self._tile_weights(0)
        self._point_flops = laplacian_point_flops(self.shape)
        # apply_grid's last (grid, out) pair, their shapes, its products on
        # them and its flops; no pair yet
        self._prepared = None, None, None, (), ()

    def _tile_weights(self, rows):
        # per direction, its scaled weights repeated over `rows` elements in
        # the direction's view, so a block's scaling multiplies operands of
        # one shape; bitwise-equal tables (all three on a cubic element)
        # share one tile
        tiles = {}
        for sw in self.scaled_weights:
            key = sw.tobytes()
            if key not in tiles:
                tiles[key] = np.tile(sw.reshape(-1), (rows, 1))
        self._weight_tiles = tuple(
            tiles[sw.tobytes()].reshape(view)
            for sw, view in zip(self.scaled_weights, self._views)
        )

    def apply_grid(self, grid, counter=None, out=None):
        """Apply the operator; grid may carry leading batch axes.

        Every leading index is one element.  The elements are taken in
        blocks that fill one ``BLOCK_BYTES`` scratch array, so a block's
        input, output and the operator's two scratch arrays stay in a
        core's L2 cache.  Per block, each direction is a derivative, a
        weight scaling and a transposed derivative, as batched matmuls with
        no axis moves: x acts on every element's (nz*ny, nx) view from the
        right, y on every (ny, nx) plane from the left, z on every
        element's (nz, ny*nx) view from the left.  Each product is a stack
        of per-element matrices, small enough that BLAS runs it on the
        calling thread.  The weight scalings multiply by the operator's
        tables tiled to the block's shape, not by one element's table
        broadcast over it.  The x term is written into the output and the y
        and z terms are added to it in that order, so the result does not
        depend on the blocking.

        ``out``, if given, must be a C-contiguous float64 array of grid's
        shape that shares no memory with grid (``ValueError`` otherwise);
        it is overwritten and returned.  Without it a new array is
        returned.  The operator keeps the list of products it prepared for
        the last ``(grid, out)`` pair, and the two arrays with it, and runs
        that list again while the same two arrays come back with the same
        shapes; any other call checks its arguments and prepares a new
        list.  The scratch arrays belong to the operator, so one operator
        serves one thread at a time.
        """
        last_grid, last_out, shapes, products, flops = self._prepared
        if not (
            grid is last_grid
            and out is last_out
            and (grid.shape, out.shape) == shapes
        ):
            out, products, flops = self._prepare(grid, out)
        for product, a, b, result in products:
            product(a, b, out=result)
        if counter is not None:
            counter.count(*flops)
        return out

    def _prepare(self, grid, out):
        """Check grid and out (a new array when None), and list apply_grid's
        products on them as (ufunc, a, b, out), with the call's flops.  The
        list is kept for the pair when out was given."""
        if grid.shape[-3:] != self.shape[::-1]:
            raise ValueError(
                f"grid {grid.shape} does not end in the element grid "
                f"{self.shape[::-1]}"
            )
        given = out is not None
        if not given:
            out = np.empty(grid.shape)
        elif (
            out.shape != grid.shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"{grid.shape}, got {out.dtype} {out.shape}"
            )
        elif np.may_share_memory(out, grid):
            raise ValueError("out must not share memory with grid")
        (dx, dxt), (dy, dyt), (dz, dzt) = self._passes
        vx, vy, vz = self._views
        gx, gy, gz = grid.reshape(vx), grid.reshape(vy), grid.reshape(vz)
        ox, oy, oz = out.reshape(vx), out.reshape(vy), out.reshape(vz)
        tx, ty, tz, uy, uz = self._scratch
        block = len(tx)
        n_el = len(gx)
        rows = min(block, n_el)
        if len(self._weight_tiles[0]) < rows:
            self._tile_weights(rows)
        wx, wy, wz = self._weight_tiles
        matmul, multiply, add = np.matmul, np.multiply, np.add
        products = []
        for lo in range(0, n_el, block):
            b = min(block, n_el - lo)
            el = slice(lo, lo + b)
            t = tx[:b]
            products += (
                (matmul, gx[el], dxt, t),
                (multiply, t, wx[:b], t),
                (matmul, t, dx, ox[el]),
            )
            t, u, o = ty[:b], uy[:b], oy[el]
            products += (
                (matmul, dy, gy[el], t),
                (multiply, t, wy[:b], t),
                (matmul, dyt, t, u),
                (add, o, u, o),
            )
            t, u, o = tz[:b], uz[:b], oz[el]
            products += (
                (matmul, dz, gz[el], t),
                (multiply, t, wz[:b], t),
                (matmul, dzt, t, u),
                (add, o, u, o),
            )
        products = tuple(products)
        flops = tuple(grid.size * n for n in self._point_flops)
        if given:
            self._prepared = grid, out, (grid.shape, out.shape), products, flops
        return out, products, flops

    def diagonal_grid(self):
        """Diagonal of the element stiffness, for Jacobi preconditioning."""
        diag = np.zeros(self.shape[::-1])
        for ax, (basis, sw) in enumerate(zip(self.bases, self.scaled_weights)):
            d_sq = basis.diff_matrix**2
            # sum_m sw[..., m, ...] * D[m, i]^2 along the operated axis
            diag += _apply_matrix_along(sw, d_sq.T, -(ax + 1))
        return diag


def apply_element_laplacian(element_field, bases, extents=(2.0, 2.0, 2.0), counter=None):
    """Weak-form stiffness action on one element field.

    Symmetric positive semi-definite with constants in the null space.
    """
    op = ElementOperator(bases, extents)
    if op.shape != tuple(element_field.shape):
        raise ValueError(
            f"field grid {tuple(element_field.shape)} does not match bases "
            f"{op.shape}"
        )
    out = op.apply_grid(element_field.grid(), counter=counter)
    return ElementField.from_grid(element_field.index, out)
