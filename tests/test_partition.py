import itertools

import pytest
from hypothesis import given, strategies as st

from semperf.errors import OverDecompositionError
from semperf.kernel import CaseConfig
from semperf.partition import partition_elements, words_per_step

from reference import ref_cut_faces


def cfg(elements, degrees=(8, 8, 8), n_fields=1):
    return CaseConfig(elements=elements, degrees=degrees, n_fields=n_fields)


def elements_of(plan, rank):
    """(i, j, k) of every element in the rank's block."""
    ranges = (range(start, stop) for start, stop in plan.block_of(rank))
    return list(itertools.product(*ranges))


class TestPartitionElements:
    def test_single_rank_has_no_cuts(self):
        plan = partition_elements(cfg((8, 8, 8)), 1)
        assert plan.rank_grid == (1, 1, 1)
        assert plan.cut_face_counts == (0, 0, 0)
        assert plan.neighbors(0) == ((None, None),) * 3

    def test_two_elements_two_ranks(self):
        plan = partition_elements(cfg((2, 1, 1)), 2)
        assert plan.rank_grid == (2, 1, 1)
        assert plan.cut_face_counts == (1, 0, 0)

    def test_eight_cubed_eight_ranks(self):
        plan = partition_elements(cfg((8, 8, 8)), 8)
        assert plan.rank_grid == (2, 2, 2)
        assert plan.cut_face_counts == (64, 64, 64)

    @pytest.mark.parametrize(
        "p,expected_grid",
        [(2, (1, 1, 2)), (16, (2, 2, 4)), (32, (2, 4, 4))],
    )
    def test_tie_breaks_prefer_z_then_y(self, p, expected_grid):
        plan = partition_elements(cfg((8, 8, 8)), p)
        assert plan.rank_grid == expected_grid

    def test_over_decomposition(self):
        with pytest.raises(OverDecompositionError, match="at least one"):
            partition_elements(cfg((2, 2, 2)), 9)

    def test_prime_rank_count_without_factorization(self):
        with pytest.raises(ValueError, match="factorization"):
            partition_elements(cfg((2, 2, 2)), 5)

    def test_every_rank_owns_at_least_one_element(self):
        plan = partition_elements(cfg((5, 3, 2)), 6)
        for rank in range(6):
            assert len(elements_of(plan, rank)) >= 1

    @given(
        ex=st.integers(1, 6),
        ey=st.integers(1, 6),
        ez=st.integers(1, 6),
        p=st.integers(1, 16),
    )
    def test_conservation_and_cut_oracle(self, ex, ey, ez, p):
        config = cfg((ex, ey, ez), degrees=(2, 2, 2))
        if p > ex * ey * ez:
            with pytest.raises(OverDecompositionError):
                partition_elements(config, p)
            return
        try:
            plan = partition_elements(config, p)
        except ValueError:
            return  # no Cartesian factorization fits
        owned = [e for r in range(p) for e in elements_of(plan, r)]
        assert len(owned) == ex * ey * ez
        assert len(set(owned)) == len(owned)
        owner = {e: r for r in range(p) for e in elements_of(plan, r)}
        for axis_ranges in plan.block_ranges:
            sizes = [stop - start for start, stop in axis_ranges]
            assert max(sizes) - min(sizes) <= 1
        faces = ref_cut_faces((ex, ey, ez), lambda *e: owner[e])
        assert plan.cut_face_counts == tuple(
            sum(1 for f in faces if f[0] == axis) for axis in range(3)
        )
        pairs = {(a, b) for _, _, a, b in faces}
        assert plan.messages_per_exchange == 2 * len(pairs)
        for rank in range(p):
            expected = []
            for axis in range(3):
                minus = {a for ax, _, a, b in faces if ax == axis and b == rank}
                plus = {b for ax, _, a, b in faces if ax == axis and a == rank}
                assert len(minus) <= 1 and len(plus) <= 1
                expected.append(
                    (min(minus, default=None), min(plus, default=None))
                )
            assert plan.neighbors(rank) == tuple(expected)
            # the rank sends each cut face it touches (9 points at N=2) to
            # the rank across it, in one message per such rank
            touching = [f for f in faces if rank in f[2:]]
            assert plan.rank_counts(rank, config) == (
                9 * len(touching),
                len({a + b - rank for _, _, a, b in touching}),
            )

    def test_cut_faces_connect_distinct_adjacent_ranks(self):
        plan = partition_elements(cfg((4, 4, 4)), 8)
        pairs = set()
        for rank in range(8):
            for axis, (minus, plus) in enumerate(plan.neighbors(rank)):
                if plus is not None:
                    assert plus != rank
                    assert plan.neighbors(plus)[axis][0] == rank
                    pairs.add((rank, plus))
        # a 2x2x2 grid of blocks holds 12 adjacent pairs
        assert len(pairs) == 12
        assert plan.messages_per_exchange == 2 * len(pairs)

    def test_no_neighbor_exactly_on_the_box_walls(self):
        # RankWorker takes a side with no face neighbor for a box wall
        cases = [((3, 3, 3), 8), ((5, 3, 2), 6), ((4, 6, 7), 12)]
        plans = [partition_elements(cfg(e), p) for e, p in cases]
        for p in range(1, 65):
            try:
                plans.append(partition_elements(cfg((8, 8, 8)), p))
            except ValueError:
                pass  # no Cartesian factorization fits
        for plan in plans:
            for rank in range(plan.n_ranks):
                for (start, stop), (minus, plus), extent in zip(
                    plan.block_of(rank), plan.neighbors(rank), plan.elements
                ):
                    assert (minus is None) == (start == 0)
                    assert (plus is None) == (stop == extent)


class TestWordsPerStep:
    def test_single_rank_is_zero(self):
        plan = partition_elements(cfg((8, 8, 8)), 1)
        assert words_per_step(plan, cfg((8, 8, 8)), 100) == 0

    def test_one_face_both_directions(self):
        config = cfg((2, 1, 1))
        plan = partition_elements(config, 2)
        assert words_per_step(plan, config, 1) == 2 * 81 == 162

    def test_eight_ranks_reference_volume(self):
        config = cfg((8, 8, 8))
        plan = partition_elements(config, 8)
        assert words_per_step(plan, config, 1) == 192 * 81 * 2 == 31_104

    @given(
        n_fields=st.integers(1, 5),
        exchanges=st.integers(0, 50),
    )
    def test_linear_in_fields_and_exchanges(self, n_fields, exchanges):
        base = cfg((4, 4, 4))
        multi = cfg((4, 4, 4), n_fields=n_fields)
        plan = partition_elements(base, 4)
        w1 = words_per_step(plan, base, 1)
        assert words_per_step(plan, multi, exchanges) == w1 * n_fields * exchanges

    def test_anisotropic_face_points(self):
        config = cfg((2, 1, 1), degrees=(2, 4, 6))
        plan = partition_elements(config, 2)
        # the cut face is normal to x: (Ny+1)(Nz+1) points
        assert words_per_step(plan, config, 1) == 2 * 5 * 7


def closed_form_counts(plan, config):
    """Halo words and messages per gather-scatter from the rank grid alone:
    every cut face moves its face points each way, and along axis a the
    P / p_a rows of p_a blocks hold p_a - 1 adjacent pairs each."""
    nx, ny, nz = config.degrees
    points = ((ny + 1) * (nz + 1), (nx + 1) * (nz + 1), (nx + 1) * (ny + 1))
    words = 2 * config.n_fields * sum(
        n * points[axis] for axis, n in enumerate(plan.cut_face_counts)
    )
    messages = 2 * sum((p - 1) * plan.n_ranks // p for p in plan.rank_grid)
    return words, messages


class TestRankCounts:
    @pytest.mark.parametrize(
        "elements,ranks",
        [((8, 8, 8), range(1, 65)), ((3, 3, 3), [8]), ((5, 3, 2), [6]),
         ((4, 6, 7), [12, 42])],
    )
    @pytest.mark.parametrize(
        "degrees,n_fields", [((8, 8, 8), 1), ((2, 4, 6), 3)]
    )
    def test_sums_equal_the_grid_closed_forms(
        self, elements, ranks, degrees, n_fields
    ):
        config = cfg(elements, degrees=degrees, n_fields=n_fields)
        checked = 0
        for p in ranks:
            try:
                plan = partition_elements(config, p)
            except ValueError:
                continue  # no Cartesian factorization fits
            words, messages = closed_form_counts(plan, config)
            assert words_per_step(plan, config, 1) == words, p
            assert plan.messages_per_exchange == messages, p
            per_rank = [plan.rank_counts(rank, config) for rank in range(p)]
            assert tuple(map(sum, zip(*per_rank))) == (words, messages), p
            checked += 1
        assert checked >= 1


class TestGammaA:
    def test_surface_to_volume_monotonicity(self):
        # same P and N on finer meshes: flops per word never decrease
        from semperf.solver import step_flops

        previous = 0.0
        for e in (2, 4, 8):
            config = cfg((e, e, e))
            plan = partition_elements(config, 8)
            flops = step_flops(config, 8)
            words = words_per_step(plan, config, config.cg_iters_per_step)
            value = flops / words
            assert value >= previous
            previous = value
