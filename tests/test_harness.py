import csv
import io
import json
import math
from dataclasses import replace

import pytest

from semperf.harness import (
    DEFAULT_JITTER,
    DEFAULT_WINDOW_S,
    MAX_WINDOWS,
    CampaignSpec,
    records_to_json,
    records_to_steps_csv,
    records_to_summary_csv,
    run_campaign,
    run_strong_scaling,
    run_time_budget,
    run_weak_scaling,
)
from semperf.kernel import CaseConfig
from semperf.partition import partition_elements, words_per_step
from semperf.profiles import REFERENCE_STRONG_CASE, builtin_profiles
from semperf.refdata import STRONG_EFFICIENCY_TARGETS


@pytest.fixture(scope="module")
def machines():
    return builtin_profiles()


def strong_spec(machines, mode="sim", p_list=(1, 2, 8, 16, 32), case=None):
    return CampaignSpec(
        kind="strong",
        case=case or REFERENCE_STRONG_CASE,
        machine=machines["pleiades2-sim"],
        p_list=tuple(p_list),
        mode=mode,
    )


class TestStrongScalingSimulated:
    def test_single_rank_is_ideal_by_construction(self, machines):
        (rec,) = run_strong_scaling(strong_spec(machines, p_list=(1,)))
        assert rec.efficiency == 1.0
        assert rec.speedup == 1.0
        assert math.isinf(rec.gamma)
        assert rec.step_walltime == pytest.approx(243.59, rel=1e-9)

    def test_reproduces_measured_efficiencies(self, machines):
        records = run_strong_scaling(strong_spec(machines))
        by_p = {r.n_ranks: r for r in records}
        for p, target in STRONG_EFFICIENCY_TARGETS.items():
            assert by_p[p].efficiency == pytest.approx(target, abs=0.03)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_seed_must_be_a_non_negative_integer(self, machines, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            replace(strong_spec(machines), seed=seed)

    def test_efficiency_non_increasing_in_p(self, machines):
        records = run_strong_scaling(
            strong_spec(machines, p_list=(1, 2, 4, 8, 16, 32, 64))
        )
        effs = [r.efficiency for r in records]
        assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_total_work_constant_across_p(self, machines):
        records = run_strong_scaling(strong_spec(machines))
        works = [r.mflops_wall * r.step_walltime for r in records]
        assert max(works) / min(works) < 1.005

    def test_speedup_efficiency_identity(self, machines):
        for rec in run_strong_scaling(strong_spec(machines)):
            assert rec.speedup == pytest.approx(
                rec.n_ranks * rec.efficiency, rel=1e-12
            )
            # E = 1 / (1 + 1/Gamma); Gamma = inf at P=1 gives E = 1
            assert rec.efficiency == pytest.approx(
                1 / (1 + 1 / rec.gamma), rel=1e-12
            )
            step = rec.steps[0]
            assert step.walltime == pytest.approx(
                step.t_p + step.t_c + step.t_l, rel=1e-12
            )


class TestWeakScalingSimulated:
    def spec(self, machines, scales=None):
        return CampaignSpec(
            kind="weak",
            case=REFERENCE_STRONG_CASE,
            machine=machines["pleiades2-sim"],
            weak_scales=scales
            or (((4, 4, 4), 1), ((8, 8, 8), 8), ((16, 16, 16), 64)),
        )

    def test_per_rank_compute_time_exactly_constant(self, machines):
        records = run_weak_scaling(self.spec(machines))
        t_ps = [r.steps[0].t_p for r in records]
        assert t_ps[0] == t_ps[1] == t_ps[2]

    def test_per_rank_rate_within_tolerance(self, machines):
        records = run_weak_scaling(self.spec(machines))
        rates = [r.mflops_per_rank_compute for r in records]
        assert max(rates) / min(rates) <= 1.05
        assert rates[0] == pytest.approx(rates[-1], rel=1e-12)

    def test_single_rank_point_has_no_communication(self, machines):
        records = run_weak_scaling(self.spec(machines))
        assert records[0].steps[0].halo_words_sent == 0
        assert records[0].steps[0].t_c == 0.0

    def test_per_rank_words_grow_with_cut_surface(self, machines):
        records = run_weak_scaling(self.spec(machines))
        per_rank_words = [
            r.steps[0].halo_words_sent / r.n_ranks for r in records
        ]
        assert per_rank_words[0] == 0
        assert per_rank_words[1] < per_rank_words[2]

    def test_unbalanced_load_rejected(self, machines):
        with pytest.raises(ValueError, match="constant"):
            self.spec(machines, scales=(((4, 4, 4), 1), ((8, 8, 8), 4)))


class TestDegreeSweepSimulated:
    def spec(self, machines):
        return CampaignSpec(
            kind="degree_sweep",
            case=REFERENCE_STRONG_CASE,
            machine=machines["cray-xt3-sim"],
            p_list=(4,),
            degrees=(6, 7, 8, 9, 10, 11),
        )

    def test_rate_non_decreasing_in_degree(self, machines):
        records = run_campaign(self.spec(machines))
        rates = [r.mflops_per_rank_compute for r in records]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_walltime_strictly_increasing(self, machines):
        records = run_campaign(self.spec(machines))
        times = [r.step_walltime for r in records]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_identical_spec_gives_identical_records(self, machines):
        a = records_to_json(run_campaign(self.spec(machines)))
        b = records_to_json(run_campaign(self.spec(machines)))
        assert a == b

    def test_degree_below_two_propagates(self, machines):
        # the spec builds every degree's case, so it rejects the sweep
        with pytest.raises(ValueError, match="degrees"):
            CampaignSpec(
                kind="degree_sweep",
                case=REFERENCE_STRONG_CASE,
                machine=machines["cray-xt3-sim"],
                p_list=(4,),
                degrees=(1, 2),
            )


class TestTimeBudget:
    def spec(self, machines, budget, jitter=0.02, seed=0, machine="pleiades2-sim"):
        return CampaignSpec(
            kind="time_budget",
            case=REFERENCE_STRONG_CASE,
            machine=machines[machine],
            p_list=(8,),
            budget_s=budget,
            jitter=jitter,
            seed=seed,
        )

    def test_budget_of_ten_steps(self, machines):
        probe = run_time_budget(self.spec(machines, budget=1000.0))
        step = probe.step_walltime
        rec = run_time_budget(self.spec(machines, budget=10.5 * step))
        assert rec.steps_completed == 10

    def test_zero_jitter_samples_equal_efficiency(self, machines):
        rec = run_time_budget(self.spec(machines, budget=300.0, jitter=0.0))
        assert rec.window_samples
        assert all(s == rec.efficiency for s in rec.window_samples)

    def test_sub_step_budget_warns(self, machines):
        rec = run_time_budget(self.spec(machines, budget=1.0))
        assert rec.steps_completed == 0
        assert any("zero steps" in w for w in rec.warnings)

    def test_better_interconnect_completes_more_steps(self, machines):
        slower = replace(
            machines["pleiades2-sim"],
            name="slow-link",
            link_bandwidth=machines["pleiades2-sim"].link_bandwidth / 8,
        )
        fast = run_time_budget(self.spec(machines, budget=7200.0))
        slow_rec = run_time_budget(
            CampaignSpec(
                kind="time_budget",
                case=REFERENCE_STRONG_CASE,
                machine=slower,
                p_list=(8,),
                budget_s=7200.0,
            )
        )
        assert fast.gamma > slow_rec.gamma
        assert fast.steps_completed > slow_rec.steps_completed

    def test_same_seed_reproduces_samples(self, machines):
        a = run_time_budget(self.spec(machines, budget=500.0, seed=9))
        b = run_time_budget(self.spec(machines, budget=500.0, seed=9))
        assert a.window_samples == b.window_samples

    def test_window_cap_refuses_before_sampling(self, machines):
        # the spec is only built, never run: the cap holds at construction
        self.spec(machines, budget=MAX_WINDOWS * DEFAULT_WINDOW_S)
        with pytest.raises(ValueError, match=f"more than {MAX_WINDOWS}"):
            self.spec(machines, budget=(MAX_WINDOWS + 1) * DEFAULT_WINDOW_S)

    def test_exec_mode_rejected(self, machines):
        with pytest.raises(ValueError, match="simulated mode only"):
            CampaignSpec(
                kind="time_budget",
                case=REFERENCE_STRONG_CASE,
                machine=machines["pleiades2-sim"],
                p_list=(8,),
                budget_s=100.0,
                mode="exec",
            )


class TestCampaignSpecNumbers:
    """Each numeric field is refused, by name, when the spec is built."""

    def spec(self, machines, **fields):
        params = {"p_list": (8,), "budget_s": 3600.0, **fields}
        return CampaignSpec(
            kind="time_budget",
            case=REFERENCE_STRONG_CASE,
            machine=machines["pleiades2-sim"],
            **params,
        )

    @pytest.mark.parametrize(
        "name,below", [("budget_s", 0.0), ("window_s", 0.0),
                       ("jitter", -0.01), ("seed", -1), ("p_list", 0)],
    )
    @pytest.mark.parametrize(
        "bad", ["below", "string", "bool", "nan", "inf", "huge"]
    )
    def test_bad_value_names_the_field(self, machines, name, below, bad):
        value = {
            "below": below, "string": "1", "bool": True,
            "nan": math.nan, "inf": math.inf, "huge": 10**400,
        }[bad]
        if name == "p_list":
            value = (value,)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            self.spec(machines, **{name: value})

    def test_good_values_build(self, machines):
        spec = self.spec(machines, window_s=30, jitter=0, seed=0)
        assert (spec.budget_s, spec.window_s, spec.jitter) == (3600.0, 30, 0)


# the fields each campaign kind reads, with values it accepts; for every
# field some kind reads, a value off its default, and its default
KIND_READS = {
    "strong": {"p_list": (2,)},
    "weak": {"weak_scales": (((4, 4, 4), 1),)},
    "degree_sweep": {"p_list": (4,), "degrees": (6,)},
    "time_budget": {"p_list": (8,), "budget_s": 3600.0,
                    "window_s": 30.0, "jitter": 0.0},
}
UNREAD_VALUES = {
    "p_list": (3,), "weak_scales": (((8, 8, 8), 8),), "degrees": (8,),
    "budget_s": 5.0, "window_s": 30.0, "jitter": 0.0,
}
UNREAD_DEFAULTS = {
    "p_list": (), "weak_scales": (), "degrees": (), "budget_s": 0,
    "window_s": DEFAULT_WINDOW_S, "jitter": DEFAULT_JITTER,
}


class TestCampaignSpecFields:
    """A field its kind does not read is refused unless at its default."""

    def spec(self, machines, kind, **fields):
        return CampaignSpec(
            kind=kind,
            case=REFERENCE_STRONG_CASE,
            machine=machines["pleiades2-sim"],
            **KIND_READS[kind],
            **fields,
        )

    @pytest.mark.parametrize(
        "kind,name",
        [(kind, name) for kind in KIND_READS for name in UNREAD_VALUES
         if name not in KIND_READS[kind]],
    )
    def test_unread_field_is_refused(self, machines, kind, name):
        with pytest.raises(
            ValueError, match=f"^{kind} campaign takes no {name}$"
        ):
            self.spec(machines, kind, **{name: UNREAD_VALUES[name]})

    @pytest.mark.parametrize("kind", KIND_READS)
    def test_unread_field_at_its_default_builds(self, machines, kind):
        unread = {
            name: value for name, value in UNREAD_DEFAULTS.items()
            if name not in KIND_READS[kind]
        }
        spec = self.spec(machines, kind, **unread)
        assert spec == self.spec(machines, kind)


class TestExecutedMode:
    def exec_case(self):
        return CaseConfig(
            elements=(4, 4, 4), degrees=(3, 3, 3), steps=1, cg_iters_per_step=6
        )

    def test_counters_match_simulated_predictions(self, machines):
        case = self.exec_case()
        spec = strong_spec(machines, mode="exec", p_list=(1, 2, 4), case=case)
        records = run_strong_scaling(spec)
        for rec in records:
            plan = partition_elements(case, rec.n_ranks)
            predicted = words_per_step(plan, case, case.cg_iters_per_step)
            assert rec.steps[0].halo_words_sent == predicted
            assert rec.steps[0].walltime > 0
            assert rec.warnings == ()

    def test_early_stop_is_warned(self, machines):
        # CG converges exactly long before this budget and stops on rho == 0
        case = CaseConfig(
            elements=(2, 2, 2), degrees=(4, 4, 4), cg_iters_per_step=2000
        )
        spec = strong_spec(machines, mode="exec", p_list=(2,), case=case)
        (rec,) = run_strong_scaling(spec)
        iters = rec.steps[0].iterations
        assert iters < 2000
        assert rec.warnings == (
            f"step 0 stopped early: {iters} of 2000 CG iterations",
        )

    def test_efficiency_derived_from_baseline(self, machines):
        spec = strong_spec(
            machines, mode="exec", p_list=(1, 2), case=self.exec_case()
        )
        records = run_strong_scaling(spec)
        assert records[0].efficiency == pytest.approx(1.0)
        assert records[1].efficiency is not None

    def test_exec_counters_are_deterministic(self, machines):
        spec = strong_spec(machines, mode="exec", p_list=(4,), case=self.exec_case())
        a = run_strong_scaling(spec)[0]
        b = run_strong_scaling(spec)[0]
        assert a.steps[0].flops == b.steps[0].flops
        assert a.steps[0].halo_words_sent == b.steps[0].halo_words_sent
        assert a.steps[0].halo_messages == b.steps[0].halo_messages

    def test_only_executed_steps_write_cpu_time(self, machines):
        spec = strong_spec(machines, mode="exec", p_list=(2,),
                           case=self.exec_case())
        (executed,) = json.loads(records_to_json(run_strong_scaling(spec)))
        (modeled,) = json.loads(records_to_json(
            run_strong_scaling(replace(spec, mode="sim"))
        ))
        assert all(s["cputime_s"] > 0 for s in executed["steps"])
        assert all("cputime_s" not in s for s in modeled["steps"])

    def test_executed_kinds_and_efficiency(self, machines):
        # only a strong campaign with a P=1 point derives an efficiency
        case = CaseConfig(
            elements=(2, 2, 2), degrees=(3, 3, 3), cg_iters_per_step=4
        )
        base = dict(case=case, machine=machines["pleiades2-sim"], mode="exec")
        specs = [
            CampaignSpec(kind="strong", p_list=(2, 4), **base),
            CampaignSpec(
                kind="weak",
                weak_scales=(((2, 2, 2), 1), ((4, 2, 2), 2)),
                **base,
            ),
            CampaignSpec(
                kind="degree_sweep", p_list=(2,), degrees=(2, 3), **base
            ),
        ]
        for spec in specs:
            records = run_campaign(spec)
            assert len(records) == 2
            for rec in records:
                assert rec.kind == spec.kind
                assert rec.mode == "exec"
                assert rec.efficiency is None
                assert rec.speedup is None


class TestSerialization:
    def test_json_parses_and_sorts(self, machines):
        records = run_strong_scaling(strong_spec(machines, p_list=(1, 2)))
        data = json.loads(records_to_json(records))
        assert [d["n_ranks"] for d in data] == [1, 2]
        assert data[0]["gamma"] == "inf"

    def test_summary_csv_round_trips(self, machines):
        records = run_strong_scaling(strong_spec(machines, p_list=(1, 2, 8)))
        text = records_to_summary_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert [int(r["P"]) for r in rows] == [1, 2, 8]
        assert float(rows[0]["efficiency"]) == 1.0

    def test_steps_csv_one_row_per_step(self, machines):
        case = replace(REFERENCE_STRONG_CASE, steps=3)
        records = run_strong_scaling(
            strong_spec(machines, p_list=(1, 2), case=case)
        )
        text = records_to_steps_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 6
