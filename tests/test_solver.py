import ast
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semperf import solver
from semperf.basis import build_gll_basis
from semperf.counts import CaseConfig, iteration_flops, step_flops
from semperf.harness import _executed_point
from semperf.kernel import ElementOperator
from semperf.partition import partition_elements, words_per_step
from semperf.profiles import builtin_profiles
from semperf.solver import (
    RankWorker,
    default_forcing,
    default_solution,
    run_work_unit,
)
from semperf.transport import loopback_transport

from reference import ref_cg_step, ref_dot, reference_apply_grid


def small_case(**overrides):
    params = dict(
        elements=(2, 2, 2), degrees=(3, 3, 3), steps=1, cg_iters_per_step=5
    )
    params.update(overrides)
    return CaseConfig(**params)


def shared_face_pairs(elements):
    ex, ey, ez = elements
    for k in range(ez):
        for j in range(ey):
            for i in range(ex):
                if i + 1 < ex:
                    yield (i, j, k), (i + 1, j, k), 0
                if j + 1 < ey:
                    yield (i, j, k), (i, j + 1, k), 1
                if k + 1 < ez:
                    yield (i, j, k), (i, j, k + 1), 2


def global_indices(worker):
    """Per direction, the global element and node index of each node of
    the worker's (cz, cy, cx, f, nz, ny, nx) array."""
    ez, ey, ex, _, kz, ky, kx = np.indices(worker._arr_shape)
    starts = [start for start, _ in worker.block]
    return [
        (start + e, k)
        for start, e, k in zip(starts, (ex, ey, ez), (kx, ky, kz))
    ]


def wall_oracle(worker):
    """The 0/1 Dirichlet mask of the worker's array: 0 exactly on the nodes
    of the box walls, from global indices."""
    on_wall = np.zeros(worker._arr_shape, dtype=bool)
    for (e, k), n_el, degree in zip(
        global_indices(worker), worker.config.elements, worker.config.degrees
    ):
        on_wall |= (e == 0) & (k == 0)
        on_wall |= (e == n_el - 1) & (k == degree)
    return np.where(on_wall, 0.0, 1.0)


class TestFlopAccounting:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_counters_match_closed_form(self, n_ranks):
        config = small_case()
        report = run_work_unit(config, n_ranks=n_ranks)
        assert report.steps[0].flops == step_flops(config, n_ranks)

    def test_multi_step_and_fields(self):
        config = small_case(steps=3, n_fields=2)
        report = run_work_unit(config, n_ranks=2)
        expected = step_flops(config, 2)
        for step in report.steps:
            assert step.flops == expected

    def test_iteration_flops_scale_with_elements(self):
        base = small_case()
        doubled = small_case(elements=(4, 2, 2))
        assert iteration_flops(doubled) == 2 * iteration_flops(base)


class TestWordAccounting:
    @pytest.mark.parametrize(
        "elements,n_ranks",
        [
            ((2, 1, 1), 1),
            ((2, 1, 1), 2),
            ((2, 2, 2), 1),
            ((2, 2, 2), 2),
            ((2, 2, 2), 4),
            ((2, 2, 2), 8),
            ((4, 4, 4), 1),
            ((4, 4, 4), 2),
            ((4, 4, 4), 4),
            ((4, 4, 4), 8),
            ((3, 3, 3), 8),  # uneven chunks on every axis
        ],
    )
    def test_halo_counters_equal_partition_prediction(self, elements, n_ranks):
        config = small_case(elements=elements)
        plan = partition_elements(config, n_ranks)
        report = run_work_unit(config, plan=plan)
        predicted = words_per_step(plan, config, config.cg_iters_per_step)
        assert report.steps[0].halo_words_sent == predicted

    def test_single_rank_single_element_no_words(self):
        config = CaseConfig(
            elements=(1, 1, 1), degrees=(2, 2, 2), cg_iters_per_step=1
        )
        report = run_work_unit(config, n_ranks=1)
        assert report.steps[0].halo_words_sent == 0
        assert report.setup_halo_words_sent == 0

    def test_two_rank_face_exchange_per_matvec(self):
        config = CaseConfig(
            elements=(2, 1, 1), degrees=(8, 8, 8), cg_iters_per_step=1
        )
        report = run_work_unit(config, n_ranks=2)
        # one 9x9 face each way per gather-scatter
        assert report.steps[0].halo_words_sent == 2 * 81

    def test_messages_match_plan(self):
        config = small_case(elements=(4, 4, 4), cg_iters_per_step=3)
        plan = partition_elements(config, 8)
        report = run_work_unit(config, plan=plan)
        assert (
            report.steps[0].halo_messages
            == plan.messages_per_exchange * config.cg_iters_per_step
        )

    @pytest.mark.parametrize(
        "elements,budget,scale,n_ranks,iterations,extra,words",
        [
            ((4, 2, 2), 7, None, 1, 7, 0, 0),
            ((4, 2, 2), 7, None, 2, 7, 0, 46),
            ((4, 2, 2), 7, None, 3, 7, 0, 138),
            ((4, 2, 2), 7, None, 4, 7, 0, 276),
            # rho reaches 0: the stop comes before the iteration's reductions
            ((2, 2, 2), 2000, None, 2, 354, 0, 2128),
            # p.q underflows: the stop comes after that one-word reduction
            ((2, 2, 2), 3, 4e-161, 2, 0, 1, 6),
        ],
        ids=["budget-1", "budget-2", "budget-3", "budget-4", "rho-zero",
             "pq-underflow"],
    )
    def test_reduction_words_per_step(
        self, elements, budget, scale, n_ranks, iterations, extra, words
    ):
        # a two-word reduction before the loop, then a one-word and a
        # two-word one per iteration; every rank sends each to its P - 1
        # peers, so a step sends P (P - 1) (3k + 2) words for k iterations
        config = CaseConfig(
            elements=elements, degrees=(4, 4, 4), cg_iters_per_step=budget
        )

        def forcing(x, y, z):
            return scale * default_forcing(x, y, z)

        step = run_work_unit(
            config, n_ranks=n_ranks, forcing=forcing if scale else None
        ).steps[0]
        assert step.iterations == iterations
        assert step.reduce_words_sent == words == (
            n_ranks * (n_ranks - 1) * (3 * iterations + 2 + extra)
        )

    @pytest.mark.parametrize(
        "elements,n_ranks,words",
        [
            ((4, 2, 2), 1, 0),
            ((4, 2, 2), 2, 200),
            ((4, 2, 2), 3, 400),
            ((4, 2, 2), 4, 600),
            ((4, 2, 2), 8, 1000),
            ((3, 3, 3), 1, 0),  # uneven chunks from here on
            ((3, 3, 3), 2, 450),
            ((3, 3, 3), 3, 900),
            ((3, 3, 3), 4, 900),
            ((3, 3, 3), 8, 1350),
        ],
    )
    def test_setup_words_are_one_exchange(self, elements, n_ranks, words):
        # the setup sums the right-hand side over the interfaces: one
        # gather-scatter (the Jacobi diagonal is one element's table); an
        # executed point's record carries the same count
        config = CaseConfig(
            elements=elements, degrees=(4, 4, 4), cg_iters_per_step=1
        )
        plan = partition_elements(config, n_ranks)
        report = run_work_unit(config, plan=plan)
        assert report.setup_halo_words_sent == words == words_per_step(
            plan, config, 1
        )
        machine = builtin_profiles()["cray-xt3-sim"]
        record = _executed_point(config, machine, n_ranks).to_json_dict()
        assert record["setup_halo_words"] == words

    @pytest.mark.parametrize("n_ranks", range(1, 9))
    def test_rank_records_equal_rank_counts(self, n_ranks):
        # (4,3,7) factors every P up to 8, into blocks of unequal sizes at
        # every P but 1 and 7
        config = small_case(elements=(4, 3, 7), degrees=(2, 2, 2), steps=2,
                            cg_iters_per_step=3)
        plan = partition_elements(config, n_ranks)
        report = run_work_unit(config, plan=plan)
        assert len(report.rank_steps) == n_ranks
        for rank, steps in enumerate(report.rank_steps):
            words, messages = plan.rank_counts(rank, config)
            block = tuple(stop - start for start, stop in plan.block_of(rank))
            for step in steps:
                k = step.iterations
                assert k == config.cg_iters_per_step
                assert step.halo_words_sent == words * k
                assert step.halo_messages == messages * k
                assert step.flops == step_flops(
                    replace(config, elements=block), 1, k
                )
        # counts add up, the slowest rank sets the wall time, and rank 0
        # gives iterations and residual
        assert report.steps == tuple(
            replace(
                per_rank[0],
                **{key: sum(getattr(s, key) for s in per_rank)
                   for key in ("flops", "halo_words_sent", "halo_messages",
                               "reduce_words_sent")},
                walltime=max(s.walltime for s in per_rank),
            )
            for per_rank in zip(*report.rank_steps)
        )


class TestGammaARegression:
    def test_instrumented_reference_case(self):
        # frozen from the first instrumented run of the 8^3, N=8 mesh on
        # 8 ranks with a 2-iteration budget
        config = CaseConfig(
            elements=(8, 8, 8), degrees=(8, 8, 8), cg_iters_per_step=2
        )
        plan = partition_elements(config, 8)
        report = run_work_unit(config, plan=plan)
        flops = report.steps[0].flops
        words = report.steps[0].halo_words_sent
        assert flops == 98_910_752
        assert words == 62_208
        assert flops / words == pytest.approx(1590.0005144, abs=1e-6)


class TestGatherScatter:
    def run_single_rank_worker(self, config):
        (endpoint,) = loopback_transport(1)
        plan = partition_elements(config, 1)
        return RankWorker(config, plan, endpoint)

    def test_dssum_makes_copies_coherent(self):
        # q, then a fresh array, then q again: each sum has the bits of a
        # new worker's first sum, and summing one array leaves the other,
        # whose plane views the worker kept, as it was
        config = small_case()
        worker = self.run_single_rank_worker(config)
        rng = np.random.default_rng(11)
        q = worker._q
        fresh = np.empty(worker._arr_shape)
        for arr, other in ((q, fresh), (fresh, q), (q, fresh)):
            arr[...] = rng.standard_normal(worker._arr_shape)
            untouched = other.tobytes()
            expected = self.run_single_rank_worker(config).dssum(arr.copy())
            assert worker.dssum(arr) is arr
            self.assert_interfaces_bitwise_equal(config, arr)
            assert arr.tobytes() == expected.tobytes()
            assert other.tobytes() == untouched

    @staticmethod
    def assert_interfaces_bitwise_equal(config, arr):
        grids = {}
        ex, ey, ez = config.elements
        for k in range(ez):
            for j in range(ey):
                for i in range(ex):
                    grids[(i, j, k)] = arr[k, j, i]
        node_axis = {0: -1, 1: -2, 2: -3}
        for a, b, axis in shared_face_pairs(config.elements):
            lo = np.take(grids[a], -1, axis=node_axis[axis])
            hi = np.take(grids[b], 0, axis=node_axis[axis])
            assert lo.tobytes() == hi.tobytes()


class TestMatvec:
    def test_reuses_one_output_buffer_with_unchanged_bits(self):
        config = small_case(elements=(3, 2, 2), degrees=(4, 3, 5), n_fields=2)
        (endpoint,) = loopback_transport(1)
        worker = RankWorker(config, partition_elements(config, 1), endpoint)
        rng = np.random.default_rng(13)
        first, second = rng.standard_normal((2, *worker._arr_shape))
        q = worker.matvec(first)
        first_bytes = q.tobytes()
        assert worker.matvec(second) is q
        for p, got in ((first, first_bytes), (second, q.tobytes())):
            expected = worker.dssum(reference_apply_grid(worker.op, p))
            assert got == (expected * wall_oracle(worker)).tobytes()


    def test_work_unit_prepares_one_product_list_per_rank(self, monkeypatch):
        # matvec applies the operator to the same p and q all unit long, so
        # each rank's operator prepares its products once in three steps
        prepared = []
        prepare = ElementOperator._prepare

        def counted_prepare(op, grid, out):
            prepared.append(op)
            return prepare(op, grid, out)

        monkeypatch.setattr(ElementOperator, "_prepare", counted_prepare)
        config = small_case(steps=3)
        report = run_work_unit(config, n_ranks=2)
        assert report.iterations == (config.cg_iters_per_step,) * 3
        assert len(prepared) == 2
        assert prepared[0] is not prepared[1]


class TestWorkUnitArguments:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_ranks": 0}, "n_ranks must be an integer >= 1"),
            ({"n_ranks": 2.0}, "n_ranks must be an integer"),
            ({"n_ranks": True}, "n_ranks must be an integer"),
            ({"n_ranks": 4, "plan": (2, (2, 2, 2))},
             "does not match the plan's 2 ranks"),
            ({"max_iters": -3}, "max_iters must be an integer >= 0"),
            ({"max_iters": 2.5}, "max_iters must be an integer"),
            ({"rtol": math.nan}, "rtol must be finite"),
            ({"rtol": math.inf}, "rtol must be finite"),
            ({"rtol": 0.0}, "rtol must be a number > 0"),
            ({"rtol": -1e-6}, "rtol must be a number > 0"),
            ({"plan": (2, (4, 4, 4))},
             r"built for \(4, 4, 4\) elements, not the case's \(2, 2, 2\)"),
            ({"plan": (1, (2, 2, 1))},
             r"built for \(2, 2, 1\) elements, not the case's \(2, 2, 2\)"),
        ],
    )
    def test_refused_before_any_rank_starts(self, monkeypatch, kwargs, message):
        config = small_case()
        if "plan" in kwargs:
            n_ranks, elements = kwargs["plan"]
            kwargs["plan"] = partition_elements(
                small_case(elements=elements), n_ranks
            )

        def no_fabric(n_ranks):
            raise AssertionError("a rank started")

        monkeypatch.setattr(solver, "loopback_transport", no_fabric)
        with pytest.raises(ValueError, match=message):
            run_work_unit(config, **kwargs)

    def test_edge_values_run(self):
        config = small_case()
        report = run_work_unit(
            config, plan=partition_elements(config, 2), n_ranks=2,
            max_iters=0, rtol=1e-300,
        )
        assert len(report.rank_steps) == 2
        assert report.iterations == (0,)


class TestDotPartial:
    def test_weights_every_field(self):
        config = small_case(n_fields=2)
        (endpoint,) = loopback_transport(1)
        worker = RankWorker(config, partition_elements(config, 1), endpoint)
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal((2, *worker._arr_shape)) * wall_oracle(
            worker
        )
        exact_mult = worker.dssum(np.ones(worker._arr_shape))
        expected = float(np.sum(u * v / exact_mult))
        assert ref_dot(worker, u, v) == pytest.approx(expected, rel=1e-12)


class TestNodeTables:
    """Element tables, Dirichlet mask and coordinates of every rank's
    block, against oracles built from global indices in the documented
    layout (cz, cy, cx, f, nz, ny, nx) or from dssum."""

    config = CaseConfig(elements=(3, 3, 3), degrees=(4, 2, 3), n_fields=2)

    @pytest.fixture(params=[1, 2, 3, 4, 8])
    def workers(self, request):
        plan = partition_elements(self.config, request.param)
        return [
            RankWorker(self.config, plan, endpoint)
            for endpoint in loopback_transport(plan.n_ranks)
        ]

    @staticmethod
    def on_every_rank(workers, fn):
        with ThreadPoolExecutor(max_workers=len(workers)) as pool:
            return list(pool.map(fn, workers))

    def test_multiplicity_is_what_dssum_counts(self, workers):
        # the element table holds the count of every node off the box
        # walls; the counts are powers of two, so the reciprocal is exact
        counted = self.on_every_rank(
            workers, lambda w: w.dssum(np.ones(w._arr_shape))
        )
        for worker, count in zip(workers, counted):
            off_wall = wall_oracle(worker) == 1.0
            mult = np.broadcast_to(1.0 / worker.inv_mult, count.shape)
            assert mult[off_wall].tobytes() == count[off_wall].tobytes()

    @pytest.mark.parametrize("n_ranks", range(1, 9))
    def test_element_tables_match_exact_ones_off_the_walls(self, n_ranks):
        # one element's inverse multiplicity and inverse Jacobi diagonal
        # serve the block: against the exact tables that dssum builds they
        # agree off the box walls, and so on every wall-masked vector
        config = CaseConfig(elements=(4, 3, 7), degrees=(4, 3, 5), n_fields=2)
        plan = partition_elements(config, n_ranks)
        workers = [
            RankWorker(config, plan, endpoint)
            for endpoint in loopback_transport(plan.n_ranks)
        ]

        def exact_tables(worker):
            shape = worker._arr_shape
            mult = worker.dssum(np.ones(shape))
            diag = np.broadcast_to(worker.op.diagonal_grid(), shape).copy()
            return mult, worker.dssum(diag)

        for worker, (mult, diag) in zip(
            workers, self.on_every_rank(workers, exact_tables)
        ):
            shape = worker._arr_shape
            # the reciprocals, as solve-ready tables: 1 / (1 / d) need
            # not give back the bits of d
            off_wall = wall_oracle(worker) == 1.0
            for table, exact_table in (
                (worker.inv_mult, mult), (worker.inv_diag, diag)
            ):
                got = np.broadcast_to(table, shape)[off_wall]
                expected = 1.0 / exact_table[off_wall]
                assert got.tobytes() == expected.tobytes()

            rng = np.random.default_rng(worker.rank)
            u, v = rng.standard_normal((2, *shape)) * wall_oracle(worker)
            assert (u * v * worker.inv_mult).tobytes() == (
                u * v * (1.0 / mult)
            ).tobytes()
            assert (worker.inv_diag * u).tobytes() == (
                (1.0 / diag) * u
            ).tobytes()

    def test_mask_zero_exactly_on_the_box_boundary(self, workers):
        # setup masks the assembled load: with a random signed load, the
        # right-hand side is the oracle's product with it, -0.0 included
        def masked_and_expected(worker):
            load = np.random.default_rng(worker.rank).standard_normal(
                worker._arr_shape
            )
            worker.setup(lambda *xyz: load)
            return worker.rhs, worker.dssum(load * worker.op.mass_weights)

        for worker, (rhs, assembled) in zip(
            workers, self.on_every_rank(workers, masked_and_expected)
        ):
            expected = assembled * wall_oracle(worker)
            assert rhs.tobytes() == expected.tobytes()

    def test_matvec_masks_signed_values_like_the_oracle(self, workers):
        def masked_and_expected(worker):
            p = np.random.default_rng(worker.rank).standard_normal(
                worker._arr_shape
            )
            q = worker.matvec(p).copy()
            return q, worker.dssum(reference_apply_grid(worker.op, p))

        for worker, (q, assembled) in zip(
            workers, self.on_every_rank(workers, masked_and_expected)
        ):
            oracle = wall_oracle(worker)
            expected = assembled * oracle
            # the walls hold negative zeros, which a plain 0.0 would lose
            assert np.signbit(expected[oracle == 0.0]).any()
            assert q.tobytes() == expected.tobytes()

    def test_coordinates_at_element_ends(self, workers):
        def forcing_arguments(worker):
            seen = []
            worker.setup(lambda *xyz: seen.extend(xyz) or 0.0)
            return seen

        for worker, seen in zip(
            workers, self.on_every_rank(workers, forcing_arguments)
        ):
            shape = worker._arr_shape
            for coords, (e, k), n_el, degree in zip(
                seen,
                global_indices(worker),
                self.config.elements,
                self.config.degrees,
            ):
                coords = np.broadcast_to(coords, shape)
                h = 1.0 / n_el
                start, end = k == 0, k == degree
                assert np.array_equal(coords[start], e[start] * h)
                assert np.array_equal(coords[end], (e[end] + 1) * h)


class TestInterfaceCoherence:
    @pytest.mark.parametrize(
        "elements,n_ranks",
        [pytest.param((2, 2, 2), p, id=str(p)) for p in (1, 2, 4, 8)]
        # uneven chunks on every axis of the 2x2x2 rank grid
        + [pytest.param((3, 3, 3), 8, id="3x3x3-8")],
    )
    def test_solution_copies_agree_bitwise(self, elements, n_ranks):
        config = small_case(
            elements=elements, degrees=(4, 4, 4), cg_iters_per_step=8
        )
        report = run_work_unit(config, n_ranks=n_ranks, collect_fields=True)
        node_axis = {0: -1, 1: -2, 2: -3}
        checked = 0
        for a, b, axis in shared_face_pairs(config.elements):
            lo = np.take(report.fields[a], -1, axis=node_axis[axis])
            hi = np.take(report.fields[b], 0, axis=node_axis[axis])
            assert lo.tobytes() == hi.tobytes()
            checked += 1
        ex, ey, ez = elements
        # 12 faces on 2x2x2, 54 on 3x3x3
        assert checked == (
            (ex - 1) * ey * ez + ex * (ey - 1) * ez + ex * ey * (ez - 1)
        )


# Runs one work unit whose forcing raises on the rank that owns the far
# corner of the box (the last rank) or the near one (rank 0, which runs on
# the calling thread); the other ranks are then left waiting on it.
FAILING_RANK_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from semperf.kernel import CaseConfig
    from semperf.solver import run_work_unit

    def forcing(x, y, z):
        if corner == "far":
            hit = min(x.max(), y.max(), z.max()) > 0.99
        else:
            hit = max(x.min(), y.min(), z.min()) < 0.01
        if hit:
            raise RuntimeError(f"forcing failed on the {corner} corner")
        return np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))

    *elements, n_ranks = (int(a) for a in sys.argv[1:5])
    corner = sys.argv[5]
    config = CaseConfig(elements=elements, degrees=(3, 3, 3), cg_iters_per_step=2)
    try:
        run_work_unit(config, n_ranks=n_ranks, forcing=forcing)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
    """
)


# Runs one work unit in which one rank raises at its third allreduce_sum
# call (the first rho update), while its peers wait in that reduction's
# receive.
MID_STEP_FAILURE_SCRIPT = textwrap.dedent(
    """
    import sys

    from semperf import solver
    from semperf.kernel import CaseConfig

    *elements, n_ranks, failing = (int(a) for a in sys.argv[1:6])
    reduce = solver.allreduce_sum
    calls = 0

    def allreduce_sum(endpoint, values):
        global calls
        if endpoint.rank == failing:
            calls += 1
            if calls == 3:
                raise RuntimeError(f"rank {failing} failed in a reduction")
        return reduce(endpoint, values)

    solver.allreduce_sum = allreduce_sum
    config = CaseConfig(elements=elements, degrees=(3, 3, 3), cg_iters_per_step=2)
    try:
        solver.run_work_unit(config, n_ranks=n_ranks)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
    """
)


# Runs a two-step work unit on three ranks in which rank 1 raises right
# after its first step, while rank 0 waits at the second step's barrier and
# rank 2 reaches it half a second late.
BETWEEN_STEPS_FAILURE_SCRIPT = textwrap.dedent(
    """
    import time

    from semperf import solver
    from semperf.kernel import CaseConfig

    run_step = solver.RankWorker.run_step

    def failing_run_step(self, *args, **kwargs):
        result = run_step(self, *args, **kwargs)
        if self.rank == 1:
            raise RuntimeError("rank 1 failed between steps")
        if self.rank == 2:
            time.sleep(0.5)
        return result

    solver.RankWorker.run_step = failing_run_step
    config = CaseConfig(
        elements=(3, 1, 1), degrees=(3, 3, 3), steps=2, cg_iters_per_step=2
    )
    try:
        solver.run_work_unit(config, n_ranks=3)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
    """
)


class TestRankFailure:
    # a subprocess, because ranks stuck on a failed peer would keep the
    # test process from exiting
    @pytest.mark.parametrize(
        "elements,n_ranks,corner",
        [
            pytest.param((2, 1, 1), 2, "far", id="elements0-2"),
            pytest.param((4, 1, 1), 4, "far", id="elements1-4"),
            pytest.param((2, 1, 1), 2, "near", id="rank0-2"),
            pytest.param((4, 1, 1), 4, "near", id="rank0-4"),
        ],
    )
    def test_failing_rank_raises_its_own_error(self, elements, n_ranks, corner):
        repo = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", FAILING_RANK_SCRIPT,
             *(str(n) for n in (*elements, n_ranks)), corner],
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            f"RuntimeError: forcing failed on the {corner} corner"
        )

    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("which", ["rank0", "last"])
    def test_rank_failing_in_a_reduction_raises_its_own_error(
        self, which, n_ranks
    ):
        failing = 0 if which == "rank0" else n_ranks - 1
        repo = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", MID_STEP_FAILURE_SCRIPT,
             *(str(n) for n in (n_ranks, 1, 1, n_ranks, failing))],
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            f"RuntimeError: rank {failing} failed in a reduction"
        )

    def test_rank_failing_between_steps_raises_its_own_error(self):
        repo = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", BETWEEN_STEPS_FAILURE_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "RuntimeError: rank 1 failed between steps"
        )


class TestRankThreads:
    @staticmethod
    def forcing_threads(n_ranks):
        threads = []

        def forcing(x, y, z):
            threads.append(threading.current_thread())
            return np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))

        run_work_unit(small_case(elements=(2, 1, 1)), n_ranks=n_ranks,
                      forcing=forcing)
        return threads

    def test_single_rank_runs_on_the_calling_thread(self):
        assert self.forcing_threads(1) == [threading.main_thread()]

    def test_exactly_one_rank_runs_on_the_calling_thread(self):
        threads = self.forcing_threads(2)
        assert len(threads) == 2
        assert threads.count(threading.current_thread()) == 1


class TestInPlaceLoop:
    @staticmethod
    def rough_forcing(x, y, z):
        return np.sin(3 * np.pi * x + 0.3) * np.cos(2 * np.pi * y + 1.1) + z

    # rtol 0.1 stops each step at 11 of its 12 iterations
    @pytest.mark.parametrize("rtol", [None, 0.1])
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_matches_out_of_place_reference_bitwise(
        self, monkeypatch, n_ranks, rtol
    ):
        config = CaseConfig(
            elements=(3, 2, 2), degrees=(4, 3, 5), n_fields=2, steps=2,
            cg_iters_per_step=12,
        )

        def run():
            return run_work_unit(
                config, n_ranks=n_ranks, rtol=rtol, max_iters=12,
                forcing=self.rough_forcing, collect_fields=True,
            )

        product = run()
        monkeypatch.setattr(RankWorker, "run_step", ref_cg_step)
        reference = run()
        # iterations, residual and every counter of each step
        assert [replace(s, walltime=0.0) for s in product.steps] == [
            replace(s, walltime=0.0) for s in reference.steps
        ]
        assert product.fields.keys() == reference.fields.keys()
        for key, grid in product.fields.items():
            assert grid.tobytes() == reference.fields[key].tobytes()

    # 96 elements of 729 points against 44-element blocks: 3 blocks, the
    # last of 8, at P=1; 2 per rank, the second of 4, at P=2; one-block
    # ranks and a three-way reduction at P=3
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_matches_reference_across_element_blocks(
        self, monkeypatch, n_ranks
    ):
        config = CaseConfig(
            elements=(6, 4, 4), degrees=(8, 8, 8), steps=2,
            cg_iters_per_step=6,
        )
        assert ElementOperator(build_gll_basis(8)).block_elements == 44

        def run():
            return run_work_unit(
                config, n_ranks=n_ranks, forcing=self.rough_forcing,
                collect_fields=True,
            )

        product = run()
        monkeypatch.setattr(RankWorker, "run_step", ref_cg_step)
        reference = run()
        assert [replace(s, walltime=0.0) for s in product.steps] == [
            replace(s, walltime=0.0) for s in reference.steps
        ]
        assert product.fields.keys() == reference.fields.keys()
        for key, grid in product.fields.items():
            assert grid.tobytes() == reference.fields[key].tobytes()

    # the start-up alone (max_iters=0), in three blocks at P=1 and in
    # ranks of two blocks or one: it counts the start-up's closed form,
    # split as 2 additions and 5 multiplications per point, returns x = 0,
    # and the full step after it keeps the reference's bits
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_start_up_alone_then_a_full_step(self, n_ranks):
        config = CaseConfig(
            elements=(6, 4, 4), degrees=(8, 8, 8), cg_iters_per_step=6
        )
        plan = partition_elements(config, n_ranks)

        def run(step):
            def on_rank(worker):
                worker.setup(self.rough_forcing)
                c = worker.counter
                results = []
                for max_iters in (0, None):
                    x, iters, rel = step(worker, max_iters=max_iters)
                    results.append((x.tobytes(), iters, rel, c.additions,
                                    c.multiplications, c.divisions))
                return results

            workers = [
                RankWorker(config, plan, endpoint)
                for endpoint in loopback_transport(n_ranks)
            ]
            with ThreadPoolExecutor(max_workers=n_ranks) as pool:
                return workers, list(pool.map(on_rank, workers))

        workers, product = run(RankWorker.run_step)
        assert product == run(ref_cg_step)[1]
        total = 0
        for worker, ((x, iters, rel, *split), _) in zip(workers, product):
            size = worker.rhs.size
            assert (x, iters, rel) == (bytes(8 * size), 0, 1.0)
            assert split == [2 * size, 5 * size, 0]
            total += sum(split)
        assert total == step_flops(config, n_ranks, 0)

    # the two early stops: rho reaches 0 (at P=2 after 354 of 2000
    # iterations), and p.q underflows while rho does not (a load scaled by
    # 4e-161 stops inside the first iteration)
    @pytest.mark.parametrize(
        "budget, scale, n_ranks",
        [
            pytest.param(2000, 1.0, 2, id="rho-zero"),
            pytest.param(3, 4e-161, 1, id="pq-underflow-p1"),
            pytest.param(3, 4e-161, 2, id="pq-underflow-p2"),
        ],
    )
    def test_early_stops_match_reference_bitwise(
        self, monkeypatch, budget, scale, n_ranks
    ):
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=budget
        )

        def run():
            return run_work_unit(
                config, n_ranks=n_ranks,
                forcing=lambda *xyz: scale * default_forcing(*xyz),
                collect_fields=True,
            )

        product = run()
        assert product.iterations[0] == (354 if budget == 2000 else 0)
        monkeypatch.setattr(RankWorker, "run_step", ref_cg_step)
        reference = run()
        assert [replace(s, walltime=0.0) for s in product.steps] == [
            replace(s, walltime=0.0) for s in reference.steps
        ]
        assert product.fields.keys() == reference.fields.keys()
        for key, grid in product.fields.items():
            assert grid.tobytes() == reference.fields[key].tobytes()


class TestStepMemory:
    # the fixed 8^3, N=8 case at P=1 with a short budget
    config = CaseConfig(
        elements=(8, 8, 8), degrees=(8, 8, 8), steps=2, cg_iters_per_step=5
    )
    full_array = 8 * 8**3 * 9**3  # bytes of one float64 field

    def test_unit_peak_stays_below_six_full_arrays(self):
        # five full-size arrays: rhs, q (which also holds z) and the three
        # CG vectors x, r and p, plus setup's transient load; inv_diag and
        # inv_mult are one element's tables.  Full-size tables, or a
        # full-size array allocated per step, would take it past six
        tracemalloc.start()
        try:
            run_work_unit(self.config, n_ranks=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / self.full_array < 6

    def test_later_step_allocates_under_half_a_full_array(self):
        # the worker owns x, r, p and q (z's buffer), so a step after the
        # first allocates none of them; half an array of slack for the
        # plane sums of dssum and the gathered values of the walls
        (endpoint,) = loopback_transport(1)
        worker = RankWorker(
            self.config, partition_elements(self.config, 1), endpoint
        )
        worker.setup()
        worker.run_step()
        assert worker.rhs.nbytes == self.full_array
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            worker.run_step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / self.full_array < 0.5

    # a (2, 2, 1) rank at N=4, as on latency-p2 (4 elements against a
    # 262-element block), and the 8^3, N=8 rank (512 against 44): every
    # block table, the Jacobi tile and the operator's weight tiles, has
    # min(block, the rank's elements) rows, and the blocks end at the
    # rank's last element
    @pytest.mark.parametrize(
        "elements, degree, rows", [((2, 2, 1), 4, 4), ((8, 8, 8), 8, 44)]
    )
    def test_block_tables_hold_no_more_than_the_rank_s_elements(
        self, elements, degree, rows
    ):
        config = CaseConfig(
            elements=elements, degrees=(degree,) * 3, cg_iters_per_step=2
        )
        (endpoint,) = loopback_transport(1)
        worker = RankWorker(config, partition_elements(config, 1), endpoint)
        worker.setup()
        worker.run_step()
        blocks = worker._blocks
        diag_tiles = [tile for *_, tile in blocks]
        assert all(np.shares_memory(t, diag_tiles[0]) for t in diag_tiles)
        # the blocks hold row slices of one Jacobi tile: size the array
        # that owns its memory, not the slice
        diag_tile = diag_tiles[0]
        while diag_tile.base is not None:
            diag_tile = diag_tile.base
        assert diag_tile.nbytes == rows * diag_tiles[0][0].nbytes
        tables = (diag_tile, *worker.op._weight_tiles)
        assert [len(t) for t in tables] == [rows] * 4
        n_el = math.prod(elements)
        last_row = worker.rhs.reshape(n_el, -1)[-1]
        assert np.shares_memory(blocks[-1][0][-1], last_row)
        assert sum(len(rhs) for rhs, *_ in blocks) == n_el


class TestConvergence:
    def test_iteration_count_stable_across_ranks(self):
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(6, 6, 6), cg_iters_per_step=1
        )
        counts = []
        for n_ranks in (1, 2, 4, 8):
            report = run_work_unit(
                config, n_ranks=n_ranks, rtol=1e-8, max_iters=500
            )
            counts.append(report.iterations[0])
        assert max(counts) - min(counts) <= 1

    def test_solution_matches_manufactured_field(self):
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(8, 8, 8), cg_iters_per_step=1
        )
        report = run_work_unit(
            config, n_ranks=2, rtol=1e-11, max_iters=500, collect_fields=True
        )
        basis = build_gll_basis(8)
        ref = (basis.nodes + 1.0) / 4.0
        worst = 0.0
        for (i, j, k), grid in report.fields.items():
            x = (i * 0.5 + ref)[None, None, :]
            y = (j * 0.5 + ref)[None, :, None]
            z = (k * 0.5 + ref)[:, None, None]
            worst = max(
                worst, float(np.abs(grid[0] - default_solution(x, y, z)).max())
            )
        assert worst < 1e-8

    def test_exact_convergence_stops_before_dividing_zero(self):
        # rho reaches 0 after a few hundred iterations; one more would
        # compute beta = 0 / 0
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=2000
        )
        step = run_work_unit(config, n_ranks=2).steps[0]
        assert math.isfinite(step.rel_residual)
        assert step.iterations < 2000
        assert step.flops == step_flops(config, 2, step.iterations)

    def test_underflowing_curvature_stop_counts_only_done_iterations(self):
        # at this load scale rho = r.z is a nonzero subnormal but p.q
        # underflows to 0, so the step stops inside its first iteration,
        # after the operator apply and the p.q partial
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=3
        )

        def tiny_forcing(x, y, z):
            return 4e-161 * default_forcing(x, y, z)

        step = run_work_unit(config, n_ranks=1, forcing=tiny_forcing).steps[0]
        assert (step.iterations, step.rel_residual) == (0, 1.0)
        assert step.flops == step_flops(config, 1, step.iterations)

    @pytest.mark.parametrize("scale", [3.5e-161, 4e-161, 5e-161])
    def test_underflowing_curvature_stop_counts_the_exchange_done(self, scale):
        # the stop comes after the iteration's gather-scatter, and the halo
        # counters count the exchanges performed: one more than iterations
        config = CaseConfig(
            elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=3
        )

        def tiny_forcing(x, y, z):
            return scale * default_forcing(x, y, z)

        plan = partition_elements(config, 2)
        step = run_work_unit(config, plan=plan, forcing=tiny_forcing).steps[0]
        assert step.iterations == 0
        assert step.flops == step_flops(config, 2, step.iterations)
        assert step.halo_words_sent == 200 == words_per_step(
            plan, config, step.iterations + 1
        )
        assert step.halo_messages == plan.messages_per_exchange == 2

    def test_residual_reported(self):
        config = small_case(cg_iters_per_step=30)
        report = run_work_unit(config, n_ranks=1, rtol=1e-6, max_iters=200)
        assert report.steps[0].rel_residual <= 1e-6


class TestSpectralConvergence:
    def test_error_drops_at_least_two_orders(self):
        errors = {}
        for degree in (4, 6, 8, 10):
            config = CaseConfig(
                elements=(2, 2, 2),
                degrees=(degree, degree, degree),
                cg_iters_per_step=1,
            )
            report = run_work_unit(
                config,
                n_ranks=1,
                rtol=1e-12,
                max_iters=1000,
                collect_fields=True,
            )
            basis = build_gll_basis(degree)
            ref = (basis.nodes + 1.0) / 4.0
            worst = 0.0
            for (i, j, k), grid in report.fields.items():
                x = (i * 0.5 + ref)[None, None, :]
                y = (j * 0.5 + ref)[None, :, None]
                z = (k * 0.5 + ref)[:, None, None]
                worst = max(
                    worst,
                    float(np.abs(grid[0] - default_solution(x, y, z)).max()),
                )
            errors[degree] = worst
        degrees = sorted(errors)
        for lo, hi in zip(degrees, degrees[1:]):
            assert errors[hi] < errors[lo]
        assert errors[4] / errors[10] >= 100.0


def test_step_counters_are_named_once():
    # a step counter is spelled, as a keyword argument or a string, only in
    # solver.STEP_COUNTERS, so a new counter joins the tally, the step
    # records and their combination in one place
    counters = {"flops", "halo_words_sent", "halo_messages",
                "reduce_words_sent"}
    source = Path(__file__).resolve().parents[1] / "src/semperf/solver.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    table = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["STEP_COUNTERS"]
    ]
    in_table = {id(node) for t in table for node in ast.walk(t)}
    spelled = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.keyword) and node.arg in counters)
        or (
            isinstance(node, ast.Constant)
            and node.value in counters
            and id(node) not in in_table
        )
    ]
    assert spelled == []
    assert [ast.literal_eval(t) for t in table] == [
        ("flops", "halo_words_sent", "halo_messages", "reduce_words_sent")
    ]
