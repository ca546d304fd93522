import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semperf.errors import CalibrationDegenerateError
from semperf.gamma import (
    CalibrationInput,
    MachineProfile,
    TimeDecomposition,
    analyze_usage_histogram,
    calibrate,
    gamma_from_efficiency,
    gamma_from_times,
    normalize_node_usage,
    predict_time,
)
from semperf.refdata import BASE_BANDWIDTH_MBS, calibration_fixture

from reference import ref_histogram_tally


class TestSpeedupAndEfficiency:
    def test_measured_strong_scaling_point(self):
        # E = 0.70 at P=32 corresponds to Gamma = 7/3
        gamma = gamma_from_efficiency(0.70)
        assert gamma == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_gamma_from_efficiency_values(self):
        assert gamma_from_efficiency(0.5) == pytest.approx(1.0)
        assert gamma_from_efficiency(0.616) == pytest.approx(1.604, abs=1e-3)
        assert gamma_from_efficiency(0.7924) == pytest.approx(3.817, abs=1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_gamma_from_efficiency_domain(self, bad):
        with pytest.raises(ValueError):
            gamma_from_efficiency(bad)


class TestGammaFromTimes:
    @pytest.mark.parametrize(
        "t_p,t_c,expected",
        [(13.58, 8.43, 1.44), (7.56, 0.98, 3.82), (7.93, 3.96, 1.60)],
    )
    def test_measured_rows(self, t_p, t_c, expected):
        decomp = TimeDecomposition(t_p=t_p, t_c=t_c, t_l=1.0)
        assert gamma_from_times(decomp) == pytest.approx(expected, abs=0.01)

    def test_equal_compute_and_transfer(self):
        decomp = TimeDecomposition(t_p=4.2, t_c=4.2, t_l=0.0)
        assert gamma_from_times(decomp) == pytest.approx(1.0)

    def test_saturated(self):
        assert math.isinf(
            gamma_from_times(TimeDecomposition(t_p=1.0, t_c=0.0, t_l=0.0))
        )

    def test_total_is_exact_sum(self):
        decomp = TimeDecomposition(t_p=1.5, t_c=0.25, t_l=0.125)
        assert decomp.total == 1.875

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            TimeDecomposition(t_p=-1.0, t_c=0.0, t_l=0.0)


def profile(**overrides):
    params = {
        "name": "test",
        "effective_core_rate": 1000.0,
        "link_bandwidth": 100.0,
        "latency": 1e-5,
    }
    params.update(overrides)
    return MachineProfile(**params)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestNonFiniteInputsRejected:
    @given(
        name=st.sampled_from(
            [
                "effective_core_rate",
                "link_bandwidth",
                "latency",
                "link_sharing",
                "rate_curvature",
            ]
        ),
        value=NON_FINITE,
    )
    def test_machine_profile(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            profile(**{name: value})

    @given(name=st.sampled_from(["t_p", "gamma", "sharing"]), value=NON_FINITE)
    def test_calibration_input(self, name, value):
        params = {"t_p": 7.56, "gamma": 3.81, "sharing": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CalibrationInput(name="m", bandwidth_model="scaled", **params)


class TestPredictTime:
    def test_zero_words_means_zero_transfer_time(self):
        td = predict_time(profile(), 8, 4, 10**9, 0, 0)
        assert td.t_c == 0.0
        assert math.isinf(gamma_from_times(td))

    def test_doubling_bandwidth_halves_transfer(self):
        counts = (10**9, 10**6, 10)  # flops, words, messages
        td1 = predict_time(profile(link_bandwidth=50.0), 8, 4, *counts)
        td2 = predict_time(profile(link_bandwidth=100.0), 8, 4, *counts)
        assert td2.t_c == pytest.approx(td1.t_c / 2, rel=1e-12)
        assert td2.t_p == td1.t_p
        assert td2.t_l == td1.t_l

    def test_cluster_bandwidth_ratio(self):
        counts = (10**9, 10**6, 0)
        slow = predict_time(profile(link_bandwidth=12.0), 8, 8, *counts)
        fast = predict_time(profile(link_bandwidth=101.0), 8, 8, *counts)
        assert fast.t_c / slow.t_c == pytest.approx(12.0 / 101.0, rel=1e-12)

    def test_link_sharing_divides_bandwidth(self):
        counts = (10**9, 10**6, 0)
        alone = predict_time(profile(), 8, 4, *counts)
        shared = predict_time(profile(link_sharing=4.0), 8, 4, *counts)
        assert shared.t_c == pytest.approx(4 * alone.t_c, rel=1e-12)

    @given(
        flops=st.integers(1, 10**12),
        words=st.integers(0, 10**9),
        messages=st.integers(0, 10**6),
        scale=st.integers(2, 9),
    )
    def test_componentwise_linearity(self, flops, words, messages, scale):
        m = profile()
        td = predict_time(m, 8, 4, flops, words, messages)
        scaled = predict_time(
            m, 8, 4, flops * scale, words * scale, messages * scale
        )
        assert scaled.t_p == pytest.approx(scale * td.t_p, rel=1e-12)
        assert scaled.t_c == pytest.approx(scale * td.t_c, rel=1e-12)
        assert scaled.t_l == pytest.approx(scale * td.t_l, rel=1e-12)

    def test_rate_model_over_degree(self):
        m = profile(rate_curvature=5.0)
        assert m.rate_at_degree(9) == pytest.approx(1000.0 * 0.5)

    @pytest.mark.parametrize(
        "field",
        [
            f.name
            for f in dataclasses.fields(MachineProfile)
            if f.name != "name"
        ],
    )
    def test_every_profile_field_changes_the_prediction(self, field):
        # a field the model never reads would leave the prediction alone;
        # at degree 4 the rate curvature scales the rate by 1 - c / 5
        changed = {
            "effective_core_rate": 2000.0,
            "link_bandwidth": 50.0,
            "latency": 2e-5,
            "link_sharing": 2.0,
            "rate_curvature": 3.0,
        }
        m = profile(rate_curvature=2.0)
        other = dataclasses.replace(m, **{field: changed[field]})
        before = predict_time(m, 4, 4, 10**9, 10**6, 10)
        assert predict_time(other, 4, 4, 10**9, 10**6, 10) != before


class TestCalibration:
    def test_measured_fixture(self):
        fit = calibrate(calibration_fixture(), base_bandwidth=BASE_BANDWIDTH_MBS)
        assert fit.t_l == pytest.approx(1.0, abs=0.05)
        assert fit.alpha == pytest.approx(8.4, abs=0.2)
        assert fit.scaled_bandwidth == pytest.approx(101.0, rel=0.02)
        assert fit.w_mb == pytest.approx(101.0, rel=0.02)
        assert max(abs(r) for r in fit.residuals) < 1e-9

    def synthetic_rows(self, w, alpha, t_l, b1, sharings=(1.0, 1.0, 4.0)):
        models = ("base", "scaled", "scaled_shared")
        rows = []
        for i, (model, s) in enumerate(zip(models, sharings)):
            b_eff = {"base": b1, "scaled": alpha * b1,
                     "scaled_shared": alpha * b1 / s}[model]
            t_p = 5.0 + 3.0 * i
            gamma = t_p / (w / b_eff + t_l)
            rows.append(CalibrationInput(f"m{i}", t_p, gamma, model, s))
        return rows

    def test_synthetic_round_trip_exact(self):
        rows = self.synthetic_rows(w=150.0, alpha=6.5, t_l=0.8, b1=10.0)
        fit = calibrate(rows, base_bandwidth=10.0)
        assert fit.w_mb == pytest.approx(150.0, abs=1e-9)
        assert fit.alpha == pytest.approx(6.5, abs=1e-9)
        assert fit.t_l == pytest.approx(0.8, abs=1e-9)

    def test_sharing_counts_on_shared_rows_only(self):
        rows = self.synthetic_rows(w=150.0, alpha=6.5, t_l=0.8, b1=10.0)
        base, scaled, shared = rows
        scaled = CalibrationInput(
            scaled.name, scaled.t_p, scaled.gamma, "scaled", sharing=4.0
        )
        fit = calibrate([base, scaled, shared], base_bandwidth=10.0)
        assert fit.alpha == pytest.approx(6.5, abs=1e-9)

    def test_overdetermined_recovers_synthetic(self):
        rows = self.synthetic_rows(w=80.0, alpha=4.0, t_l=0.5, b1=12.0)
        extra = self.synthetic_rows(w=80.0, alpha=4.0, t_l=0.5, b1=12.0,
                                    sharings=(1.0, 1.0, 2.0))
        rows.append(extra[-1])
        fit = calibrate(rows, base_bandwidth=12.0)
        assert fit.w_mb == pytest.approx(80.0, abs=1e-5)
        assert fit.alpha == pytest.approx(4.0, abs=1e-5)
        assert fit.t_l == pytest.approx(0.5, abs=1e-5)

    def test_sensitivity_to_gamma_perturbations(self):
        base_rows = self.synthetic_rows(w=100.0, alpha=8.0, t_l=1.0, b1=12.0)
        base_fit = calibrate(base_rows, base_bandwidth=12.0)
        for sign in (+1, -1):
            rows = [
                CalibrationInput(
                    r.name, r.t_p, r.gamma * (1 + sign * 0.01),
                    r.bandwidth_model, r.sharing,
                )
                for r in base_rows
            ]
            fit = calibrate(rows, base_bandwidth=12.0)
            # parameters move continuously: small input change, small output change
            assert abs(fit.w_mb - base_fit.w_mb) / base_fit.w_mb < 0.1
            assert abs(fit.alpha - base_fit.alpha) / base_fit.alpha < 0.1
            assert abs(fit.t_l - base_fit.t_l) < 0.1

    def test_two_rows_rejected(self):
        rows = self.synthetic_rows(w=100.0, alpha=8.0, t_l=1.0, b1=12.0)[:2]
        with pytest.raises(CalibrationDegenerateError):
            calibrate(rows, base_bandwidth=12.0)

    def test_single_model_rejected(self):
        rows = [
            CalibrationInput(f"m{i}", 5.0 + i, 1.0 + i, "base")
            for i in range(3)
        ]
        with pytest.raises(CalibrationDegenerateError, match="single"):
            calibrate(rows, base_bandwidth=12.0)

    def test_duplicate_rows_named_in_error(self):
        rows = [
            CalibrationInput("a", 5.0, 1.0, "base"),
            CalibrationInput("b", 6.0, 1.5, "scaled"),
            CalibrationInput("c", 7.0, 1.2, "scaled"),
        ]
        with pytest.raises(CalibrationDegenerateError) as err:
            calibrate(rows, base_bandwidth=12.0)
        assert "b/c" in str(err.value)

    @pytest.mark.parametrize(
        "models,duplicates",
        [
            (("base", "base", "scaled", "scaled"), ("a/b", "c/d")),
            (("base", "scaled", "scaled", "scaled"), ("b/c", "b/d")),
        ],
    )
    def test_rank_deficient_four_rows_rejected(self, models, duplicates):
        rows = [
            CalibrationInput(name, t_p, gamma, model)
            for name, t_p, gamma, model in zip(
                "abcd", (13.58, 12.9, 7.56, 7.93), (1.44, 1.51, 3.81, 3.6),
                models,
            )
        ]
        with pytest.raises(CalibrationDegenerateError) as err:
            calibrate(rows, base_bandwidth=12.0)
        for pair in duplicates:
            assert pair in str(err.value)

    @pytest.mark.parametrize(
        "rows,message",
        [
            # sharing 1 on a scaled_shared row is the scaled row's equation
            (
                [("base", 1.0), ("scaled", 1.0), ("scaled_shared", 1.0)],
                "duplicates: b/c",
            ),
            # sharing is ignored on scaled rows
            (
                [("base", 1.0), ("scaled", 1.0), ("scaled", 4.0)],
                "duplicates: b/c",
            ),
            (
                [("scaled", 1.0), ("scaled_shared", 2.0),
                 ("scaled_shared", 4.0)],
                "single link: alpha needs a base row and a scaled or "
                "scaled_shared row",
            ),
        ],
        ids=["scaled-vs-shared-by-one", "scaled-sharing-differs", "no-base"],
    )
    def test_degenerate_tables_named(self, rows, message):
        table = [
            CalibrationInput(name, t_p, gamma, model, sharing)
            for name, t_p, gamma, (model, sharing) in zip(
                "abc", (5.0, 6.0, 7.0), (1.0, 1.5, 1.2), rows
            )
        ]
        with pytest.raises(CalibrationDegenerateError) as err:
            calibrate(table, base_bandwidth=12.0)
        assert message in str(err.value)

    def test_unknown_bandwidth_model_rejected(self):
        with pytest.raises(ValueError, match="bandwidth model"):
            CalibrationInput("x", 1.0, 1.0, "turbo")

    @pytest.mark.parametrize("name", [["a"], 1, None])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValueError, match="name must be a string"):
            CalibrationInput(name, 1.0, 1.0, "base")

    def test_self_consistent_with_predict_time(self):
        # points synthesized through the forward time model must calibrate
        # back to the volume, ratio, and latency that generated them
        b1, alpha, sharing = 12.0, 8.0, 4.0
        p, words, messages = 8, 12_000_000, 20_000
        latency = 5e-5
        machines = [
            ("base", 1.0, profile(name="m1", effective_core_rate=500.0,
                                  link_bandwidth=b1, latency=latency)),
            ("scaled", 1.0, profile(name="m2", effective_core_rate=900.0,
                                    link_bandwidth=alpha * b1, latency=latency)),
            ("scaled_shared", sharing,
             profile(name="m3", effective_core_rate=700.0,
                     link_bandwidth=alpha * b1, latency=latency,
                     link_sharing=sharing)),
        ]
        rows = []
        for model, s, machine in machines:
            td = predict_time(machine, 8, p, 10**11, words, messages)
            rows.append(
                CalibrationInput(
                    machine.name, td.t_p, gamma_from_times(td), model, s
                )
            )
        fit = calibrate(rows, base_bandwidth=b1)
        # per-rank transferred volume in MB and the lumped latency
        assert fit.w_mb == pytest.approx(words * 8 / (p * 1e6), rel=1e-9)
        assert fit.alpha == pytest.approx(alpha, rel=1e-9)
        assert fit.t_l == pytest.approx(messages * latency, rel=1e-9)


class TestUsageAnalysis:
    def test_constant_samples(self):
        analysis = analyze_usage_histogram([0.5] * 10)
        assert analysis.mean == pytest.approx(0.5)
        assert analysis.gamma == pytest.approx(1.0)
        assert sum(1 for c in analysis.counts if c) == 1

    def test_measured_mean_usage(self):
        analysis = analyze_usage_histogram([0.7924] * 100)
        assert analysis.gamma == pytest.approx(3.81, abs=0.01)

    def test_bin_count_bound(self):
        analysis = analyze_usage_histogram([0.0, 0.5, 1.0], bin_width=0.01)
        assert len(analysis.counts) <= 101
        assert sum(analysis.counts) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no usage samples"):
            analyze_usage_histogram([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            analyze_usage_histogram([0.5, 1.2])

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200
        ),
        bin_width=st.sampled_from([0.01, 0.05, 0.1, 0.25]),
    )
    def test_counts_match_brute_force_tally(self, samples, bin_width):
        analysis = analyze_usage_histogram(samples, bin_width=bin_width)
        edges = list(analysis.bin_edges) + [
            analysis.bin_edges[-1] + bin_width
        ]
        assert list(analysis.counts) == ref_histogram_tally(samples, edges)
        assert sum(analysis.counts) == len(samples)

    def test_bimodal_tally(self):
        rng = np.random.default_rng(3)
        samples = np.concatenate(
            [
                np.clip(rng.normal(0.3, 0.05, 500), 0, 1),
                np.clip(rng.normal(0.85, 0.03, 500), 0, 1),
            ]
        )
        analysis = analyze_usage_histogram(samples)
        edges = list(analysis.bin_edges) + [1.01]
        assert list(analysis.counts) == ref_histogram_tally(samples, edges)


class TestNormalizeNodeUsage:
    def test_half_usage_two_of_four_ranks_saturates(self):
        assert normalize_node_usage(0.5, active_ranks=2, cores_per_node=4) == 1.0

    def test_usage_above_one_is_capped(self):
        # 0.75 * 4 / 2 = 1.5 per rank reads as full usage
        assert normalize_node_usage(0.75, active_ranks=2, cores_per_node=4) == 1.0

    def test_full_occupancy_passthrough(self):
        usage = normalize_node_usage(0.8725, active_ranks=4, cores_per_node=4)
        assert usage == pytest.approx(0.8725)

    def test_zero_raw(self):
        assert normalize_node_usage(0.0, 1, 4) == 0.0

    def test_zero_ranks_invalid(self):
        with pytest.raises(ValueError):
            normalize_node_usage(0.5, 0, 4)

    def test_more_ranks_than_cores_invalid(self):
        with pytest.raises(ValueError):
            normalize_node_usage(0.5, 5, 4)
