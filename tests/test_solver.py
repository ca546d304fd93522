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

from semperf.basis import build_gll_basis
from semperf.counts import CaseConfig, iteration_flops, step_flops
from semperf.partition import partition_elements, words_per_step
from semperf.solver import (
    RankWorker,
    default_forcing,
    default_solution,
    run_work_unit,
)
from semperf.transport import loopback_transport

from reference import ref_cg_step, reference_apply_grid


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
            ((2, 2, 2), 2000, None, 2, 360, 0, 2164),
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
            ((4, 2, 2), 2, 400),
            ((4, 2, 2), 3, 800),
            ((4, 2, 2), 4, 1200),
            ((4, 2, 2), 8, 2000),
            ((3, 3, 3), 1, 0),  # uneven chunks from here on
            ((3, 3, 3), 2, 900),
            ((3, 3, 3), 3, 1800),
            ((3, 3, 3), 4, 1800),
            ((3, 3, 3), 8, 2700),
        ],
    )
    def test_setup_words_are_two_exchanges(self, elements, n_ranks, words):
        # the setup sums the diagonal and the right-hand side over the
        # interfaces: two gather-scatters
        config = CaseConfig(
            elements=elements, degrees=(4, 4, 4), cg_iters_per_step=1
        )
        plan = partition_elements(config, n_ranks)
        report = run_work_unit(config, plan=plan)
        assert report.setup_halo_words_sent == words == words_per_step(
            plan, config, 2
        )

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
        config = small_case()
        worker = self.run_single_rank_worker(config)
        rng = np.random.default_rng(11)
        arr = rng.standard_normal(worker._arr_shape)
        worker.dssum(arr)
        self.assert_interfaces_bitwise_equal(config, arr)

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


class TestDotPartial:
    def test_weights_every_field(self):
        config = small_case(n_fields=2)
        (endpoint,) = loopback_transport(1)
        worker = RankWorker(config, partition_elements(config, 1), endpoint)
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal((2, *worker._arr_shape))
        expected = float(np.sum(u * v * worker.inv_mult))
        assert worker._dot_partial(u, v) == pytest.approx(expected, rel=1e-12)


class TestNodeTables:
    """Multiplicity, Dirichlet mask and coordinates of every rank's block,
    against oracles built from global indices in the documented layout
    (cz, cy, cx, f, nz, ny, nx)."""

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
        counted = self.on_every_rank(
            workers, lambda w: w.dssum(np.ones(w._arr_shape))
        )
        for worker, count in zip(workers, counted):
            mult = np.broadcast_to(1.0 / worker.inv_mult, count.shape)
            assert mult.tobytes() == count.tobytes()

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


class TestStepMemory:
    # the fixed 8^3, N=8 case at P=1 with a short budget
    config = CaseConfig(
        elements=(8, 8, 8), degrees=(8, 8, 8), steps=2, cg_iters_per_step=5
    )
    full_array = 8 * 8**3 * 9**3  # bytes of one float64 field

    def test_unit_peak_stays_below_eight_full_arrays(self):
        # rhs, inv_diag, inv_mult, q (which also holds z) and the three CG
        # vectors x, r and p, plus setup's transient tables; a full-size
        # array allocated per step, or held across steps, would make it nine
        tracemalloc.start()
        try:
            run_work_unit(self.config, n_ranks=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / self.full_array < 8

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
