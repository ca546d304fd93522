import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semperf.basis import build_gll_basis
from semperf.kernel import (
    BLOCK_BYTES,
    WORD_BYTES,
    CaseConfig,
    ElementField,
    ElementOperator,
    FlopCounter,
    apply_element_laplacian,
    tensor_derivative,
)

from reference import (
    field_from_callable,
    ref_element_laplacian,
    ref_tensor_derivative,
    reference_apply_grid,
)


class TestCaseConfig:
    # n_elements and points_per_element size every flop oracle
    def test_point_count_reference_case(self):
        cfg = CaseConfig(elements=(8, 8, 8), degrees=(8, 8, 8), n_fields=1)
        assert cfg.n_elements * cfg.points_per_element == 512 * 729 == 373_248

    def test_point_count_anisotropic(self):
        cfg = CaseConfig(elements=(1, 2, 3), degrees=(2, 3, 4), n_fields=3)
        assert (cfg.n_elements, cfg.points_per_element) == (6, 60)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"elements": (0, 1, 1)},
            {"degrees": (1, 2, 2)},
            {"n_fields": 0},
            {"steps": 0},
            {"cg_iters_per_step": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CaseConfig(**kwargs)

    @given(
        name=st.sampled_from(
            ["elements", "degrees", "n_fields", "steps", "cg_iters_per_step"]
        ),
        value=st.one_of(st.floats(min_value=2.0, max_value=9.0), st.booleans()),
    )
    def test_non_integer_counts_rejected(self, name, value):
        if name in ("elements", "degrees"):
            value = (4, value, 4)
        with pytest.raises(ValueError, match="must be an integer"):
            CaseConfig(**{name: value})


class TestFlopCounter:
    def test_accumulates_and_resets(self):
        c = FlopCounter()
        c.count(add=3, mul=2, div=1)
        c.count(add=1)
        assert (c.additions, c.multiplications, c.divisions) == (4, 2, 1)
        assert c.total == 7

    def test_rejects_negative_increments(self):
        c = FlopCounter()
        with pytest.raises(ValueError):
            c.count(add=-1)


class TestElementField:
    def test_length_must_match_grid(self):
        with pytest.raises(ValueError, match="does not match"):
            ElementField(index=(0, 0, 0), shape=(3, 3, 3), values=np.zeros(26))

    def test_lexicographic_x_fastest(self):
        nx, ny, nz = 3, 4, 5
        values = np.arange(nx * ny * nz, dtype=float)
        f = ElementField(index=(0, 0, 0), shape=(nx, ny, nz), values=values)
        grid = f.grid()
        # index i + nx*(j + ny*k) must live at grid[k, j, i]
        assert grid[2, 1, 0] == 0 + nx * (1 + ny * 2)


class TestTensorDerivative:
    def test_constant_field_gives_zero(self):
        basis = build_gll_basis(4)
        f = field_from_callable(lambda x, y, z: np.ones_like(x), basis)
        for axis in "xyz":
            d = tensor_derivative(f, basis, axis)
            assert np.abs(d.values).max() < 1e-13

    def test_linear_field_gives_one(self):
        basis = build_gll_basis(4)
        f = field_from_callable(lambda x, y, z: x + 0 * y, basis)
        d = tensor_derivative(f, basis, "x")
        assert np.abs(d.values - 1.0).max() < 1e-12

    def test_flop_count_formula(self):
        basis = build_gll_basis(8)
        f = field_from_callable(lambda x, y, z: x * y * z, basis)
        counter = FlopCounter()
        tensor_derivative(f, basis, "y", counter=counter)
        assert counter.total == 2 * 9**4 == 13_122

    def test_shape_mismatch_rejected(self):
        f = field_from_callable(lambda x, y, z: x, build_gll_basis(4))
        with pytest.raises(ValueError, match="points"):
            tensor_derivative(f, build_gll_basis(5), "x")

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_brute_force_oracle(self, n, axis):
        basis = build_gll_basis(n)
        rng = np.random.default_rng(42 + n)
        grid = rng.standard_normal((n + 1, n + 1, n + 1))
        f = ElementField.from_grid((0, 0, 0), grid)
        counter = FlopCounter()
        out = tensor_derivative(f, basis, axis, counter=counter)
        ref, tally = ref_tensor_derivative(grid, basis.diff_matrix, axis)
        assert np.allclose(out.grid(), ref, rtol=1e-12, atol=1e-12)
        assert counter.additions == tally.additions
        assert counter.multiplications == tally.multiplications
        assert counter.divisions == tally.divisions == 0


class TestElementLaplacian:
    def test_constants_in_null_space(self):
        basis = build_gll_basis(5)
        f = field_from_callable(lambda x, y, z: np.full_like(x, 3.7), basis)
        out = apply_element_laplacian(f, basis)
        assert np.abs(out.values).max() < 1e-10

    def test_symmetry(self):
        basis = build_gll_basis(6)
        rng = np.random.default_rng(0)
        n = 7**3
        u = ElementField(index=(0, 0, 0), shape=(7, 7, 7), values=rng.standard_normal(n))
        v = ElementField(index=(0, 0, 0), shape=(7, 7, 7), values=rng.standard_normal(n))
        au = apply_element_laplacian(u, basis, extents=(0.5, 0.25, 1.0))
        av = apply_element_laplacian(v, basis, extents=(0.5, 0.25, 1.0))
        left = float(au.values @ v.values)
        right = float(u.values @ av.values)
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left))

    def test_positive_semidefinite_with_constant_kernel(self):
        basis = build_gll_basis(3)
        npts = 4**3
        op = ElementOperator(basis, extents=(1.0, 1.0, 1.0))
        mat = np.empty((npts, npts))
        for col in range(npts):
            e = np.zeros(npts)
            e[col] = 1.0
            mat[:, col] = op.apply_grid(e.reshape(4, 4, 4)).reshape(-1)
        eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigvals[0] > -1e-10
        assert np.sum(np.abs(eigvals) < 1e-8) == 1  # constants only

    def test_bad_geometry_rejected(self):
        basis = build_gll_basis(3)
        f = field_from_callable(lambda x, y, z: x, basis)
        with pytest.raises(ValueError, match="positive"):
            apply_element_laplacian(f, basis, extents=(1.0, -1.0, 1.0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force_oracle(self, n):
        bases = tuple(build_gll_basis(n) for _ in range(3))
        extents = (0.5, 1.0, 0.25)
        rng = np.random.default_rng(7 * n)
        grid = rng.standard_normal((n + 1, n + 1, n + 1))
        f = ElementField.from_grid((0, 0, 0), grid)
        counter = FlopCounter()
        out = apply_element_laplacian(f, bases, extents=extents, counter=counter)
        ref, tally = ref_element_laplacian(grid, bases, extents)
        assert np.allclose(out.grid(), ref, rtol=1e-11, atol=1e-11)
        assert counter.additions == tally.additions
        assert counter.multiplications == tally.multiplications
        assert counter.divisions == tally.divisions == 0

    def test_batched_anisotropic_grid_matches_each_element(self):
        bases = (build_gll_basis(2), build_gll_basis(3), build_gll_basis(4))
        extents = (0.5, 1.0, 0.25)
        op = ElementOperator(bases, extents)
        rng = np.random.default_rng(21)
        grid = rng.standard_normal((2, 1, 3, 1, 5, 4, 3))
        out = op.apply_grid(grid)
        assert out.shape == grid.shape
        for idx in np.ndindex(grid.shape[:-3]):
            ref, _ = ref_element_laplacian(grid[idx], bases, extents)
            assert np.allclose(out[idx], ref, rtol=1e-11, atol=1e-11)
            assert out[idx].tobytes() == op.apply_grid(grid[idx]).tobytes()

    def test_batched_anisotropic_grid_counts_each_element(self):
        bases = (build_gll_basis(2), build_gll_basis(3), build_gll_basis(4))
        extents = (0.5, 1.0, 0.25)
        op = ElementOperator(bases, extents)
        grid = np.random.default_rng(21).standard_normal((2, 1, 3, 1, 5, 4, 3))
        counter = FlopCounter()
        op.apply_grid(grid, counter=counter)
        _, tally = ref_element_laplacian(grid[0, 0, 0, 0], bases, extents)
        # the batch counts as its 6 elements, each as the loop tallies it
        assert counter.additions == 6 * tally.additions
        assert counter.multiplications == 6 * tally.multiplications
        assert counter.divisions == 0

    def test_anisotropic_bases_supported(self):
        bases = (build_gll_basis(2), build_gll_basis(3), build_gll_basis(4))
        f = field_from_callable(lambda x, y, z: x * y + z, bases)
        out = apply_element_laplacian(f, bases)
        assert out.values.shape == (3 * 4 * 5,)


def block_elements(points_per_element):
    return BLOCK_BYTES // (WORD_BYTES * points_per_element)


BOX = (0.125, 0.25, 0.5)  # three distinct scaled-weight tables
CUBE = (0.125, 0.125, 0.125)  # one table, shared by the three directions


class TestBlockedOperator:
    # (degrees, batch shape, extents): the 8^3, N=8 rank array (at 256 KB,
    # 11 blocks of 44 and a remainder of 28) on box and cubic elements, an
    # exact multiple of the block, two fields with anisotropic degrees over
    # 2 full blocks and a remainder, one bare element, and a (2, 2, 1)
    # N=4 rank array, whose 4 elements are far short of a 262-element block
    CASES = {
        "fixed-case": ((8, 8, 8), (8, 8, 8, 1), BOX),
        "cubic-fixed-case": ((8, 8, 8), (8, 8, 8, 1), CUBE),
        "whole-blocks": ((8, 8, 8), (2, block_elements(729), 1), BOX),
        "two-fields": ((2, 3, 4), (7, 9, 11, 2), BOX),
        "one-element": ((4, 4, 4), (), BOX),
        "short-tile": ((4, 4, 4), (1, 2, 2, 1), CUBE),
    }

    @staticmethod
    def operator_and_grid(degrees, batch, extents=BOX):
        bases = tuple(build_gll_basis(n) for n in degrees)
        op = ElementOperator(bases, extents)
        nx, ny, nz = op.shape
        grid = np.random.default_rng(5).standard_normal((*batch, nz, ny, nx))
        return op, grid

    def test_cases_cover_full_blocks_and_a_remainder(self):
        for n_el, points in ((512, 729), (7 * 9 * 11 * 2, 60)):
            assert n_el // block_elements(points) >= 2
            assert n_el % block_elements(points) > 0

    @pytest.mark.parametrize("case", CASES)
    def test_matches_unblocked_reference_bitwise(self, case):
        op, grid = self.operator_and_grid(*self.CASES[case])
        before = grid.copy()
        expected = reference_apply_grid(op, grid).tobytes()
        out = np.full_like(grid, np.nan)
        assert op.apply_grid(grid, out=out) is out
        assert out.tobytes() == expected
        assert op.apply_grid(grid).tobytes() == expected
        assert grid.tobytes() == before.tobytes()
        # one weight tile per distinct table, each as long as the grid's
        # elements, up to a block
        tiles = {t.ctypes.data: len(t) for t in op._weight_tiles}
        assert len(tiles) == (1 if self.CASES[case][2] == CUBE else 3)
        n_el = grid.size // math.prod(op.shape)
        assert set(tiles.values()) == {min(op.block_elements, n_el)}

    def test_tiles_grow_to_the_largest_grid_up_to_a_block(self):
        op, grid = self.operator_and_grid((8, 8, 8), (100,))
        for n_el, rows in ((3, 3), (2, 3), (100, 44), (3, 44)):
            expected = reference_apply_grid(op, grid[:n_el]).tobytes()
            assert op.apply_grid(grid[:n_el]).tobytes() == expected
            assert {len(t) for t in op._weight_tiles} == {rows}

    @pytest.mark.parametrize(
        "make_out",
        [
            pytest.param(lambda g: np.empty(g.shape[1:]), id="shape"),
            pytest.param(lambda g: np.empty(g.shape, np.float32), id="dtype"),
            pytest.param(
                lambda g: np.empty((*g.shape[:-1], 2 * g.shape[-1]))[..., ::2],
                id="strided",
            ),
        ],
    )
    def test_out_of_the_wrong_layout_rejected(self, make_out):
        op, grid = self.operator_and_grid((4, 4, 4), (3, 1))
        with pytest.raises(ValueError, match="out must be"):
            op.apply_grid(grid, out=make_out(grid))

    def test_grid_of_other_elements_rejected(self):
        op, _ = self.operator_and_grid((4, 4, 4), ())
        # as many points as two elements, in a shape of another element
        with pytest.raises(ValueError, match="element grid"):
            op.apply_grid(np.zeros((10, 5, 5)))

    # out is grid itself (offset 0) or overlaps two of its three elements
    @pytest.mark.parametrize("offset", [0, 1])
    def test_out_sharing_memory_with_grid_rejected(self, offset):
        op, _ = self.operator_and_grid((4, 4, 4), ())
        buf = np.random.default_rng(6).standard_normal((4, 1, 5, 5, 5))
        grid, out = buf[:3], buf[offset:offset + 3]
        with pytest.raises(ValueError, match="share memory"):
            op.apply_grid(grid, out=out)


# With the BLAS threading of the environment, times 20 applications of the
# fixed case (8^3 elements, N=8), then three 20-iteration work steps of a P=1
# rank on it; prints process and calling-thread CPU of each.
APPLY_CPU_SCRIPT = textwrap.dedent(
    """
    import time

    import numpy as np

    from semperf.basis import build_gll_basis
    from semperf.counts import CaseConfig
    from semperf.kernel import ElementOperator
    from semperf.partition import partition_elements
    from semperf.solver import RankWorker
    from semperf.transport import loopback_transport

    def cpu(run, repeats):
        run()
        process0, thread0 = time.process_time(), time.thread_time()
        for _ in range(repeats):
            run()
        print(time.process_time() - process0, time.thread_time() - thread0)

    op = ElementOperator(tuple(build_gll_basis(8) for _ in range(3)), (0.125,) * 3)
    grid = np.random.default_rng(0).standard_normal((8, 8, 8, 1, 9, 9, 9))
    cpu(lambda: op.apply_grid(grid), 20)

    config = CaseConfig(elements=(8, 8, 8), degrees=(8, 8, 8))
    (endpoint,) = loopback_transport(1)
    worker = RankWorker(config, partition_elements(config, 1), endpoint)
    worker.setup()
    cpu(lambda: worker.run_step(max_iters=20), 3)
    """
)


def test_apply_grid_keeps_blas_on_the_calling_thread():
    # a GEMM or a dot large enough for BLAS helper threads burns process
    # CPU that the rank's thread CPU (what the step timers see) does not
    # show: in the operator, and in a work step's vector updates and dots
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", APPLY_CPU_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2  # apply_grid, then run_step
    for line in lines:
        process_s, thread_s = (float(v) for v in line.split())
        assert process_s <= 1.25 * thread_s + 0.05
