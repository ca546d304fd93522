import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semperf.cli import ToolConfig, main
from semperf.profiles import example_config_dict

CALIBRATION_CSV = """name,t_p,gamma,bandwidth_model,sharing
pleiades,13.58,1.44,base,1
pleiades2,7.56,3.81,scaled,1
pleiades2plus,7.93,1.60,scaled_shared,4
"""


def calibration_rows(**pleiades):
    """The three-cluster table as JSON rows, pleiades' values replaced."""
    rows = [
        {"name": "pleiades", "t_p": 13.58, "gamma": 1.44,
         "bandwidth_model": "base", "sharing": 1},
        {"name": "pleiades2", "t_p": 7.56, "gamma": 3.81,
         "bandwidth_model": "scaled", "sharing": 1},
        {"name": "pleiades2plus", "t_p": 7.93, "gamma": 1.60,
         "bandwidth_model": "scaled_shared", "sharing": 4},
    ]
    rows[0].update(pleiades)
    return rows


# an integer too large for any float
HUGE = 10**400


def huge_iterations_cases():
    cases = example_config_dict()["cases"]
    cases["bench8"]["cg_iters_per_step"] = HUGE
    return cases


def bench8_cases(**extra):
    cases = example_config_dict()["cases"]
    cases["bench8"].update(extra)
    return cases


def budget_campaign(**extra):
    return {
        "kind": "time_budget", "case": "bench8", "machine": "pleiades2-sim",
        "p_list": [8], "budget_s": 3600, **extra,
    }


def machine_config(**extra):
    machine = {
        "effective_core_rate": 500.0, "link_bandwidth": 12.0,
        "latency": 60e-6, **extra,
    }
    return {**example_config_dict(), "machines": {"m": machine}}


# finite, positive rates whose model T_P underflows to 0 or overflows to inf
OVERFLOWING_MACHINES = pytest.mark.parametrize(
    "machine",
    [
        {"effective_core_rate": 1e305, "link_bandwidth": 1e305, "latency": 0},
        {"effective_core_rate": 1e-310},
    ],
    ids=["t_p-zero", "t_p-inf"],
)


def overflowing_config(tmp_path, machine):
    """A config whose campaign 'over' runs on the machine 'm'."""
    cfg = machine_config(**machine)
    cfg["output_dir"] = str(tmp_path / "out")
    cfg["campaigns"]["over"] = {**strong_campaign(1, 2), "machine": "m"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def strong_campaign(*p_list):
    return {
        "kind": "strong", "case": "bench8", "machine": "pleiades2-sim",
        "p_list": list(p_list),
    }


def weak_campaign(**first_point):
    """The weak64 campaign, keys of its first scale point replaced."""
    campaign = example_config_dict()["campaigns"]["weak64"]
    campaign["scales"][0].update(first_point)
    return campaign


def example_campaign(name, **extra):
    """The example config's campaign name, with keys added or replaced."""
    return {**example_config_dict()["campaigns"][name], **extra}


def degree_campaign(*degrees):
    return {
        "kind": "degree_sweep", "case": "bench8", "machine": "cray-xt3-sim",
        "p_list": [4], "degrees": list(degrees),
    }


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "semperf.json"
    cfg = example_config_dict()
    cfg["output_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestBench:
    def test_byte_order_mark_config_loads(self, tmp_path):
        cfg = {**example_config_dict(), "output_dir": str(tmp_path / "out")}
        path = tmp_path / "semperf.json"
        path.write_text(json.dumps(cfg), encoding="utf-8-sig")
        assert main(["bench", "strong8", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "strong8_records.json").exists()

    def test_strong_campaign_writes_outputs(self, config_path, tmp_path, capsys):
        code = main(["bench", "strong8", "--config", str(config_path)])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "strong8_records.json").exists()
        assert (out / "strong8_summary.csv").exists()
        assert (out / "strong8_steps.csv").exists()
        # a modeled step counts no reductions, so its record has no key
        records = json.loads((out / "strong8_records.json").read_text())
        assert all(
            "reduce_words" not in step
            for rec in records
            for step in rec["steps"]
        )
        stdout = capsys.readouterr().out
        assert "efficiency" in stdout
        assert "32" in stdout

    def test_identical_seed_gives_byte_identical_outputs(
        self, config_path, tmp_path
    ):
        for sub in ("a", "b"):
            code = main(
                [
                    "bench",
                    "usage10h",
                    "--config",
                    str(config_path),
                    "--seed",
                    "7",
                    "--out",
                    str(tmp_path / sub),
                ]
            )
            assert code == 0
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_windows_csv_round_trips_into_analyze(
        self, config_path, tmp_path, capsys
    ):
        assert main(["bench", "usage10h", "--config", str(config_path)]) == 0
        records = json.loads(
            (tmp_path / "out" / "usage10h_records.json").read_text()
        )
        samples = records[0]["window_samples"]
        capsys.readouterr()
        windows = tmp_path / "out" / "usage10h_windows.csv"
        code = main(["analyze", str(windows)])
        assert code == 0
        out = capsys.readouterr().out
        mean = float(out.split("mean_E")[1].split()[0])
        # the CSV preserved every sample exactly
        assert mean == pytest.approx(
            sum(samples) / len(samples), abs=5e-5
        )
        reread = [
            float(line.split(",")[1])
            for line in windows.read_text().splitlines()[1:]
        ]
        assert reread == samples

    def test_exec_mode_runs_small_campaign(self, config_path, tmp_path):
        code = main(
            [
                "bench",
                "strong-exec-small",
                "--config",
                str(config_path),
                "--mode",
                "exec",
            ]
        )
        assert code == 0
        data = json.loads(
            (tmp_path / "out" / "strong-exec-small_records.json").read_text()
        )
        assert all(d["mode"] == "exec" for d in data)
        assert all(d["steps"][0]["walltime_s"] > 0 for d in data)
        # each rank sends its P - 1 peers 2 reduction words before the
        # loop and 3 per iteration
        for d in data:
            p = d["n_ranks"]
            for step in d["steps"]:
                k = step["iterations"]
                assert step["reduce_words"] == p * (p - 1) * (3 * k + 2)

    def test_executed_steps_carry_their_residual(self, config_path, tmp_path):
        # an executed step writes its recursive relative residual; a
        # modeled step has none, so its record has no key
        for campaign, mode in (("strong-exec-small", "exec"),
                               ("strong8", "sim")):
            argv = ["bench", campaign, "--config", str(config_path),
                    "--mode", mode]
            assert main(argv) == 0
        out = tmp_path / "out"
        executed = json.loads(
            (out / "strong-exec-small_records.json").read_text()
        )
        residuals = [s["rel_residual"] for r in executed for s in r["steps"]]
        assert residuals
        assert all(math.isfinite(r) and 0 <= r <= 1 for r in residuals)
        modeled = json.loads((out / "strong8_records.json").read_text())
        assert all(
            "rel_residual" not in step for r in modeled for step in r["steps"]
        )

    def test_transport_timeout_fails_the_campaign_with_exit_3(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        import semperf.solver
        from semperf.transport import TransportTimeout

        def timed_out(*args, **kwargs):
            raise TransportTimeout("rank 0 timed out waiting for rank 1")

        monkeypatch.setattr(semperf.solver, "run_work_unit", timed_out)
        argv = ["bench", "strong-exec-small", "--config", str(config_path),
                "--mode", "exec"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "campaign 'strong-exec-small' failed: rank 0 timed out" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_campaign_is_config_error(self, config_path):
        assert main(["bench", "nope", "--config", str(config_path)]) == 2

    def test_missing_config_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEMPERF_CONFIG", raising=False)
        assert main(["bench", "strong8"]) == 2
        assert (
            main(["bench", "strong8", "--config", str(tmp_path / "none.json")])
            == 2
        )

    def test_config_env_var_supplies_default(
        self, config_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SEMPERF_CONFIG", str(config_path))
        assert main(["bench", "strong8"]) == 0

    def test_over_decomposed_campaign_fails_with_exit_3(
        self, tmp_path, capsys
    ):
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["huge"] = {
            "kind": "strong",
            "case": "bench8",
            "machine": "pleiades2-sim",
            "p_list": [1000],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "huge", "--config", str(path)]) == 3
        assert "huge" in capsys.readouterr().err

    def test_unfactorizable_campaign_exits_2_like_predict(self, tmp_path):
        # 13 ranks have no Cartesian factorization on 8^3 elements
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["prime"] = {
            "kind": "strong",
            "case": "bench8",
            "machine": "pleiades2-sim",
            "p_list": [1, 13],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "prime", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_version_key_required(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["bench", "x", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "campaign,top",
        [
            (budget_campaign(window_s=0), {}),
            (budget_campaign(window_s=float("nan")), {}),
            (budget_campaign(budget_s=float("nan")), {}),
            (budget_campaign(budget_s=float("inf")), {}),
            (budget_campaign(jitter=-0.5), {}),
            (budget_campaign(jitter=float("nan")), {}),
            (budget_campaign(jitter=float("inf")), {}),
            (budget_campaign(budget_s=True), {}),
            (budget_campaign(window_s=True), {}),
            (budget_campaign(jitter=True), {}),
            (strong_campaign("2"), {}),
            (strong_campaign(2.0), {}),
            (strong_campaign(1, 0), {}),
            (strong_campaign(True), {}),
            (
                {
                    "kind": "weak", "case": "bench8",
                    "machine": "pleiades2-sim",
                    "scales": [
                        {"elements": [4, 4, 4], "p": 1},
                        {"elements": [8, 8, 8], "p": 0},
                    ],
                },
                {},
            ),
            (
                {
                    "kind": "weak", "case": "bench8",
                    "machine": "pleiades2-sim",
                    "scales": [{"elements": [0, 4, 4], "p": 1}],
                },
                {},
            ),
            (degree_campaign(1, 8), {}),
            (degree_campaign("8"), {}),
            ("strong8", {}),
            (strong_campaign(1, 2), {"formats": "json"}),
            (strong_campaign(1, 2), {"formats": ["json", "xml"]}),
            ({**strong_campaign(1, 2), "case": [1]}, {}),
            (strong_campaign(1, 2), {"machines": []}),
            (strong_campaign(1, 2), {"cases": [1]}),
            (budget_campaign(budget_s=HUGE), {}),
            (strong_campaign(1, 2), {"cases": huge_iterations_cases()}),
            (strong_campaign(), {}),
            (
                {"kind": "weak", "case": "bench8", "machine": "pleiades2-sim"},
                {},
            ),
            ({**degree_campaign(6, 8), "p_list": [2, 4]}, {}),
            (budget_campaign(p_list=[4, 8]), {}),
            (budget_campaign(budget_s=2e9), {}),
            ({**strong_campaign(1, 2), "jitter": "abc"}, {}),
            ({**strong_campaign(1, 2), "budget_s": -5}, {}),
            ({**strong_campaign(1, 2), "window_s": 0}, {}),
            (strong_campaign(1, 2), {"cases": bench8_cases(step=3)}),
            ({**strong_campaign(1, 2), "jiter": 0.1}, {}),
            (strong_campaign(1, 2), {"output-dir": "elsewhere"}),
            (weak_campaign(q=5), {}),
            (example_campaign("strong8", degrees=[1]), {}),
            (
                example_campaign(
                    "strong8", scales=[{"elements": [0, 0, 0], "p": 1}]
                ),
                {},
            ),
            (example_campaign("weak64", p_list=[3]), {}),
            (example_campaign("strong8", budget_s=5), {}),
        ],
        ids=[
            "window_s-zero", "window_s-nan", "budget_s-nan", "budget_s-inf",
            "jitter-negative", "jitter-nan", "jitter-inf",
            "budget_s-bool", "window_s-bool", "jitter-bool",
            "p_list-string", "p_list-float",
            "p_list-zero", "p_list-bool", "scales-p-zero",
            "scales-elements-zero", "degrees-one", "degrees-string",
            "campaign-not-an-object", "formats-string", "formats-unknown",
            "case-not-a-name", "machines-list", "cases-list",
            "budget_s-huge", "iterations-huge", "strong-no-p_list",
            "weak-no-scales", "degrees-two-p", "budget-two-p",
            "budget_s-over-window-cap", "strong-jitter-string",
            "strong-budget_s-negative", "strong-window_s-zero",
            "case-key-unknown", "campaign-key-unknown",
            "top-level-key-unknown", "scales-key-unknown",
            "strong-degrees-unread", "strong-scales-unread",
            "weak-p_list-unread", "strong-budget_s-unread",
        ],
    )
    def test_malformed_campaign_exits_2_without_output(
        self, tmp_path, capsys, campaign, top
    ):
        cfg = {**example_config_dict(), **top}
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["bad"] = campaign
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "bad", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {**example_config_dict(), "campaigns": []},
            ["version"],
            3,
            {**example_config_dict(), "output_dir": 5},
            machine_config(effective_core_rate=True),
            machine_config(link_bandwidth=True),
            machine_config(latency=True),
            machine_config(link_sharing=True),
            machine_config(rate_curvature=True),
            machine_config(latency=HUGE),
            machine_config(effective_core_rate=0),
            machine_config(latency=-1e-6),
            machine_config(link_sharing=0.5),
        ],
        ids=[
            "campaigns-list", "top-level-list", "top-level-number",
            "output_dir-number", "core-rate-bool", "bandwidth-bool",
            "latency-bool", "link_sharing-bool", "rate_curvature-bool",
            "latency-huge", "core-rate-zero", "latency-negative",
            "link_sharing-below-one",
        ],
    )
    def test_malformed_config_exits_2_without_output(
        self, tmp_path, monkeypatch, capsys, config
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["bench", "strong8", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "campaign,top,entry,key",
        [
            (
                strong_campaign(1), {"cases": bench8_cases(step=3)},
                "case 'bench8'", "'step'",
            ),
            (
                {**strong_campaign(1), "jiter": 0.1}, {},
                "campaign 'bad'", "unknown key 'jiter'",
            ),
            (
                strong_campaign(1), {"output-dir": "elsewhere"},
                "top level", "unknown key 'output-dir'",
            ),
            (
                weak_campaign(q=5), {},
                "campaign 'bad'", "unknown key 'q'",
            ),
            (
                example_campaign("strong8", degrees=[1]), {},
                "campaign 'bad'", "strong campaign takes no degrees",
            ),
            (
                example_campaign(
                    "strong8", scales=[{"elements": [0, 0, 0], "p": 1}]
                ),
                {},
                "campaign 'bad'", "strong campaign takes no scales",
            ),
            (
                weak_campaign(p=0), {},
                "campaign 'bad'", ": scales must be an integer >= 1 (got 0)",
            ),
            (
                example_campaign("weak64", p_list=[3]), {},
                "campaign 'bad'", "weak campaign takes no p_list",
            ),
            (
                example_campaign("strong8", budget_s=5), {},
                "campaign 'bad'", "strong campaign takes no budget_s",
            ),
        ],
        ids=["case", "campaign", "top-level", "scale-point",
             "strong-degrees-unread", "strong-scales-unread", "scale-p-zero",
             "weak-p_list-unread", "strong-budget_s-unread"],
    )
    def test_unknown_key_is_named(
        self, tmp_path, capsys, campaign, top, entry, key
    ):
        cfg = {**example_config_dict(), **top}
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["bad"] = campaign
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "bad", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config {path}, {entry}: ")
        assert key in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "formats,campaign,written",
        [
            (["json"], "strong8", ["records.json"]),
            (["csv"], "strong8", ["steps.csv", "summary.csv"]),
            (None, "strong8", ["records.json", "steps.csv", "summary.csv"]),
            (["json"], "usage10h", ["records.json", "windows.csv"]),
            (["csv"], "usage10h", ["steps.csv", "summary.csv", "windows.csv"]),
            (
                None, "usage10h",
                ["records.json", "steps.csv", "summary.csv", "windows.csv"],
            ),
        ],
        ids=["json", "csv", "default", "budget-json", "budget-csv",
             "budget-default"],
    )
    def test_formats_select_the_files_written(
        self, tmp_path, capsys, formats, campaign, written
    ):
        # a time budget's usage windows are written whatever formats says;
        # no formats key writes both
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg.pop("formats")
        if formats is not None:
            cfg["formats"] = formats
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", campaign, "--config", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            f"{campaign}_{suffix}" for suffix in written
        ]

    def test_readme_config_example_loads(self, tmp_path):
        # the JSON block under README's "Configuration file" heading
        readme = Path(__file__).parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "## Configuration file", 1
        )[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "cfg.json"
        path.write_text(example, encoding="utf-8")
        config = ToolConfig.from_path(path)
        assert "mycluster" in config.machines
        assert sorted(config.campaigns) == sorted(
            json.loads(example)["campaigns"]
        )

    def test_machine_naming_cores_per_node_exits_2_without_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # node sharing enters the model through link_sharing alone
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(machine_config(cores_per_node=4)), encoding="utf-8"
        )
        assert main(["bench", "strong8", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config")
        assert "machine 'm'" in err and "cores_per_node" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("campaign", ["strong8", "usage10h"])
    def test_negative_seed_exits_2_without_output(
        self, config_path, tmp_path, capsys, campaign
    ):
        code = main(
            ["bench", campaign, "--config", str(config_path), "--seed", "-1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be an integer >= 0" in captured.err
        assert not (tmp_path / "out").exists()

    def test_huge_jitter_is_refused_when_the_config_loads(
        self, tmp_path, capsys
    ):
        # the campaign run is never reached: its numbers fail at load
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["usage10h"]["jitter"] = HUGE
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "strong8", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config {path}, campaign 'usage10h': jitter must be "
            "finite (got a value too large for a float)\n"
        )
        assert not (tmp_path / "out").exists()

    @OVERFLOWING_MACHINES
    def test_overflowing_machine_exits_2_without_output(
        self, tmp_path, capsys, machine
    ):
        path = overflowing_config(tmp_path, machine)
        assert main(["bench", "over", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model of m at P=1, degree 8")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sub_step_budget_warns_and_succeeds(self, tmp_path, capsys):
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["blink"] = budget_campaign(budget_s=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "blink", "--config", str(path)]) == 0
        err = capsys.readouterr().err
        assert "warning: budget smaller than one step" in err
        assert (tmp_path / "out" / "blink_records.json").exists()

    def test_one_malformed_campaign_fails_every_command(self, tmp_path, capsys):
        cfg = example_config_dict()
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["campaigns"]["bad"] = strong_campaign(0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bench", "strong8", "--config", str(path)]) == 2
        assert main(["predict", "--machine", "pleiades2", "--config",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("campaign 'bad'") == 2
        assert not (tmp_path / "out").exists()


class TestPredict:
    def run_predict(self, capsys, *extra):
        code = main(
            [
                "predict",
                "--machine",
                "pleiades2",
                "--json",
                "-E",
                "8",
                "8",
                "8",
                "-N",
                "8",
                "8",
                "8",
                "-P",
                "8",
                "--iters",
                "100",
                *extra,
            ]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_internal_consistency(self, capsys):
        result = self.run_predict(capsys)
        gamma = result["t_p_s"] / (result["t_c_s"] + result["t_l_s"])
        assert result["gamma"] == pytest.approx(gamma, rel=1e-9)
        assert result["efficiency"] == pytest.approx(
            gamma / (1 + gamma), rel=1e-9
        )
        assert result["speedup"] == pytest.approx(
            8 * result["efficiency"], rel=1e-12
        )

    def test_single_rank_is_ideal(self, capsys):
        code = main(
            ["predict", "--machine", "pleiades2", "--json", "-P", "1"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["efficiency"] == 1.0
        assert result["speedup"] == 1.0
        assert result["gamma"] == "inf"

    def test_bandwidth_ratio_between_clusters(self, capsys):
        fast = self.run_predict(capsys)
        code = main(
            [
                "predict", "--machine", "pleiades", "--json",
                "-E", "8", "8", "8", "-N", "8", "8", "8",
                "-P", "8", "--iters", "100",
            ]
        )
        assert code == 0
        slow = json.loads(capsys.readouterr().out)
        assert fast["t_c_s"] / slow["t_c_s"] == pytest.approx(
            12.0 / 101.0, rel=1e-9
        )
        assert fast["gamma"] > slow["gamma"]

    def test_unknown_machine(self, capsys):
        assert main(["predict", "--machine", "warpdrive"]) == 2

    @pytest.mark.parametrize(
        "extra,code",
        [
            (["-P", "0"], 2),
            (["--iters", "0"], 2),
            (["-E", "0", "1", "1"], 2),
            (["-N", "1", "8", "8"], 2),
            (["--n-fields", "0"], 2),
            (["-E", "2", "2", "2", "-P", "5"], 2),  # no factorization fits
            (["-P", "1000"], 3),  # more ranks than elements
        ],
        ids=[
            "P-zero", "iters-zero", "elements-zero", "degree-one",
            "n_fields-zero", "no-factorization", "over-decomposed",
        ],
    )
    def test_bad_counts_exit_without_output(self, capsys, extra, code):
        assert main(["predict", "--machine", "pleiades2", *extra]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err

    @pytest.mark.parametrize(
        "extra",
        [["-E", str(HUGE), "1", "1"], ["--iters", str(HUGE)]],
        ids=["elements-huge", "iters-huge"],
    )
    def test_huge_counts_exit_2_without_output(self, capsys, extra):
        assert main(["predict", "--machine", "pleiades2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @OVERFLOWING_MACHINES
    def test_overflowing_machine_exits_2_without_output(
        self, tmp_path, capsys, machine
    ):
        path = overflowing_config(tmp_path, machine)
        argv = ["predict", "--machine", "m", "--config", str(path),
                "-P", "2", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model of m at P=2, degree 8")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_table_output(self, capsys):
        code = main(["predict", "--machine", "pleiades2", "-P", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t_p_s" in out and "gamma" in out


class TestCalibrate:
    def test_measured_fixture(self, tmp_path, capsys):
        table = tmp_path / "gamma.csv"
        table.write_text(CALIBRATION_CSV, encoding="utf-8")
        artifact = tmp_path / "fit.json"
        code = main(
            ["calibrate", str(table), "--out", str(artifact)]
        )
        assert code == 0
        fit = json.loads(artifact.read_text(encoding="utf-8"))
        assert fit["t_l_s"] == pytest.approx(1.0, abs=0.05)
        assert fit["alpha"] == pytest.approx(8.4, abs=0.2)
        assert fit["scaled_bandwidth_mbs"] == pytest.approx(101.0, rel=0.02)
        out = capsys.readouterr().out
        assert "alpha" in out

    def test_json_input(self, tmp_path):
        # JSON numbers, an integer sharing included, reach the fit as they
        # are and give the CSV table's fit byte for byte
        fits = []
        for name, text in [
            ("gamma.csv", CALIBRATION_CSV),
            ("gamma.json", json.dumps(calibration_rows())),
        ]:
            table = tmp_path / name
            table.write_text(text, encoding="utf-8")
            out = tmp_path / f"{name}.fit"
            assert main(["calibrate", str(table), "--out", str(out)]) == 0
            fits.append(out.read_bytes())
        assert fits[0] == fits[1]

    def test_byte_order_mark_gives_the_same_fit(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        fits = []
        for encoding in ("utf-8", "utf-8-sig"):
            table = tmp_path / f"{encoding}.csv"
            table.write_text(CALIBRATION_CSV, encoding=encoding)
            out = tmp_path / f"{encoding}.fit"
            assert main(["calibrate", str(table), "--out", str(out)]) == 0
            fits.append(out.read_bytes())
        assert fits[0] == fits[1]

    def test_two_rows_degenerate(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text(
            "\n".join(CALIBRATION_CSV.splitlines()[:3]) + "\n", encoding="utf-8"
        )
        assert main(["calibrate", str(table)]) == 4
        assert "degenerate" in capsys.readouterr().err

    def test_infeasible_fit_exits_4_without_writing_a_fit(
        self, tmp_path, capsys
    ):
        # an exact fit of these rows has T_L = -2 s
        table = tmp_path / "gamma.csv"
        table.write_text(
            "name,t_p,gamma,bandwidth_model,sharing\n"
            "a,1,1,base,1\nb,10,1,scaled,1\nc,46,1,scaled_shared,4\n",
            encoding="utf-8",
        )
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 4
        assert "infeasible parameters" in capsys.readouterr().err
        assert not artifact.exists()

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("a,5,1,base,1\nb,6,1.5,scaled,1\nc,7,1.2,scaled_shared,1",
             "duplicates: b/c"),
            ("a,5,1,base,1\nb,6,1.5,scaled,1\nc,7,1.2,scaled,4",
             "duplicates: b/c"),
            ("a,5,1,scaled,1\nb,6,1.5,scaled_shared,2\n"
             "c,7,1.2,scaled_shared,4", "alpha needs a base row"),
        ],
        ids=["scaled-vs-shared-by-one", "scaled-sharing-differs", "no-base"],
    )
    def test_degenerate_table_exits_4_without_writing_a_fit(
        self, tmp_path, capsys, rows, message
    ):
        table = tmp_path / "gamma.csv"
        table.write_text(
            f"name,t_p,gamma,bandwidth_model,sharing\n{rows}\n",
            encoding="utf-8",
        )
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 4
        assert message in capsys.readouterr().err
        assert not artifact.exists()

    def test_nan_row_exits_2_without_writing_a_fit(self, tmp_path, capsys):
        table = tmp_path / "nan.csv"
        table.write_text(
            CALIBRATION_CSV.replace("7.56", "nan"), encoding="utf-8"
        )
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 2
        assert not artifact.exists()
        assert "t_p must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["nan", "0", "-1"])
    def test_bad_base_bandwidth_exits_2_without_writing_a_fit(
        self, tmp_path, capsys, bandwidth
    ):
        table = tmp_path / "gamma.csv"
        table.write_text(CALIBRATION_CSV, encoding="utf-8")
        artifact = tmp_path / "fit.json"
        code = main(
            ["calibrate", str(table), "--out", str(artifact),
             f"--base-bandwidth={bandwidth}"]
        )
        assert code == 2
        assert not artifact.exists()
        assert "base_bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table",
        [
            [["a", 1, 1, "base"]],
            {"a": 1},
            [{"name": "a", "t_p": None, "gamma": 1, "bandwidth_model": "base"}],
            [{"name": ["a"], "t_p": 1, "gamma": 1, "bandwidth_model": "base"}],
            calibration_rows(t_p=True),
            calibration_rows(gamma=True),
            calibration_rows(sharing=True),
            calibration_rows(t_p=HUGE),
            calibration_rows(shairng=4),
        ],
        ids=[
            "rows-not-objects", "top-level-object", "null-value",
            "name-not-a-string", "t_p-bool", "gamma-bool", "sharing-bool",
            "t_p-huge", "row-key-unknown",
        ],
    )
    def test_malformed_json_table_exits_2_without_writing_a_fit(
        self, tmp_path, capsys, table
    ):
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(path), "--out", str(artifact)]) == 2
        assert not artifact.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_csv_row_with_missing_cell_exits_2(self, tmp_path, capsys):
        table = tmp_path / "gamma.csv"
        table.write_text(
            CALIBRATION_CSV.replace("3.81,scaled,1", "3.81"), encoding="utf-8"
        )
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 2
        assert not artifact.exists()
        assert "needs columns" in capsys.readouterr().err

    def test_csv_row_with_surplus_cell_exits_2(self, tmp_path, capsys):
        table = tmp_path / "gamma.csv"
        table.write_text(
            CALIBRATION_CSV.replace("base,1", "base,1,99"), encoding="utf-8"
        )
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 2
        assert not artifact.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: table {table}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name,text",
        [
            ("gamma.csv", CALIBRATION_CSV.replace("sharing", "shairng")),
            ("gamma.json", json.dumps(calibration_rows(shairng=4))),
        ],
        ids=["csv-column", "json-key"],
    )
    def test_unknown_column_exits_2_naming_it(
        self, tmp_path, capsys, name, text
    ):
        table = tmp_path / name
        table.write_text(text, encoding="utf-8")
        artifact = tmp_path / "fit.json"
        assert main(["calibrate", str(table), "--out", str(artifact)]) == 2
        assert not artifact.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'shairng'" in err

    def test_missing_columns(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["calibrate", str(table)]) == 2


class TestAnalyze:
    def write_samples(self, path, values):
        lines = ["timestamp,usage"] + [
            f"{20 * i},{v}" for i, v in enumerate(values)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_constant_series(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, [0.79] * 50)
        code = main(["analyze", str(samples)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_E   0.7900" in out
        assert "gamma    3.7619" in out
        hist = (tmp_path / "usage.hist").read_text().splitlines()
        assert len(hist) <= 101
        counted = [line for line in hist if not line.endswith(" 0")]
        assert len(counted) == 1

    def test_measured_mean_gives_expected_gamma(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        values = [0.60] * 50 + [0.632] * 50  # mean 0.6160
        self.write_samples(samples, values)
        assert main(["analyze", str(samples)]) == 0
        out = capsys.readouterr().out
        assert "gamma    1.60" in out

    def test_node_normalization_flags(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, [0.5] * 10)
        code = main(
            [
                "analyze",
                str(samples),
                "--cores-per-node",
                "4",
                "--active-ranks",
                "2",
            ]
        )
        assert code == 0
        assert "mean_E   1.0000" in capsys.readouterr().out

    def test_byte_order_mark_keeps_the_first_sample(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        samples.write_text("0.5\n0.7\n", encoding="utf-8-sig")
        assert main(["analyze", str(samples)]) == 0
        out = capsys.readouterr().out
        assert "samples  2\n" in out
        assert "mean_E   0.6000" in out

    def test_empty_file(self, tmp_path):
        samples = tmp_path / "empty.csv"
        samples.write_text("", encoding="utf-8")
        assert main(["analyze", str(samples)]) == 2

    @pytest.mark.parametrize(
        "text,bad_line",
        [
            ("0.0,0.5\n20.0,0.5x\n40.0,0.7\n", 2),
            ("timestamp,usage\n\n0.0,0.5\n20.0,0.5x\n40.0,0.7\n", 4),
            ("0.0,0.5\n,\n40.0,0.7\n", 2),
        ],
    )
    def test_unparseable_data_row_is_input_error(
        self, tmp_path, capsys, text, bad_line
    ):
        samples = tmp_path / "usage.csv"
        samples.write_text(text, encoding="utf-8")
        assert main(["analyze", str(samples)]) == 2
        assert f"usage.csv:{bad_line}:" in capsys.readouterr().err
        assert not (tmp_path / "usage.hist").exists()

    def test_nan_sample_is_input_error(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, ["0.5", "nan", "0.7"])
        assert main(["analyze", str(samples)]) == 2
        assert "[0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "usage.hist").exists()

    def test_flags_must_come_together(self, tmp_path):
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, [0.5])
        assert main(["analyze", str(samples), "--cores-per-node", "4"]) == 2

    def test_bin_width_over_the_bin_cap_exits_2_without_output(
        self, tmp_path, capsys
    ):
        # 1e-6 asks for 1,000,001 bins; the cap refuses it before any array
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, [0.5, 0.7])
        assert main(["analyze", str(samples), "--bin-width", "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bin_width 1e-06 gives 1000001 bins, more than 100000\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["usage.csv"]

    def test_bin_width_at_the_bin_cap_is_accepted(self, tmp_path, capsys):
        samples = tmp_path / "usage.csv"
        self.write_samples(samples, [0.5, 0.7])
        assert main(["analyze", str(samples), "--bin-width", "1e-5"]) == 0
        hist = (tmp_path / "usage.hist").read_text().splitlines()
        assert len(hist) == 100_000


def test_init_config_writes_valid_example(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    assert main(["init-config", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == 1
    assert "strong8" in data["campaigns"]


@pytest.mark.parametrize(
    "command", ["bench", "calibrate", "analyze", "init-config"]
)
def test_unusable_output_path_exits_2(tmp_path, capsys, config_path, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    missing = tmp_path / "missing" / "out"
    table = tmp_path / "gamma.csv"
    table.write_text(CALIBRATION_CSV, encoding="utf-8")
    samples = tmp_path / "usage.csv"
    samples.write_text("timestamp,usage\n0,0.5\n", encoding="utf-8")
    argv = {
        "bench": ["bench", "strong8", "--config", str(config_path),
                  "--out", str(blocker)],
        "calibrate": ["calibrate", str(table), "--out", str(missing)],
        "analyze": ["analyze", str(samples), "--out", str(missing)],
        "init-config": ["init-config", str(missing)],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert sorted(tmp_path.rglob("*")) == before


DROP, INSERT = object(), object()
# no huge finite numbers: a time budget allocates budget_s / window_s windows
MUTANTS = [
    DROP, INSERT, None, 0, -1, math.nan, math.inf, "8", [1], {}, True, [[1]]
]


def _paths(node, prefix=()):
    """The path of every dict entry and list item nested in node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated(draw, document):
    """document with one to three entries dropped, replaced by a mutant, or
    joined by a mutant under a key no reader takes (in a list: a new item)."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(document))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        target = document
        for key in parents:
            target = target[key]
        value = draw(st.sampled_from(MUTANTS))
        if value is DROP:
            del target[last]
        elif value is INSERT:
            value = copy.deepcopy(draw(st.sampled_from(MUTANTS[2:])))
            if isinstance(target, dict):
                target["unknown"] = value
            else:
                target.insert(last, value)
        else:
            target[last] = copy.deepcopy(value)
    return document


def csv_text(rows):
    return "".join(
        (",".join(map(str, row)) if isinstance(row, list) else str(row))
        + "\n"
        for row in rows
    )


CALIBRATION_ROWS = [line.split(",") for line in CALIBRATION_CSV.split()]
SAMPLE_ROWS = [["timestamp", "usage"]] + [
    [str(20 * i), str(0.5 + 0.01 * i)] for i in range(20)
]


def run_in(workdir, argv):
    """main(argv) run from workdir; its exit code (it must not raise)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    return code


class TestMutatedInputs:
    """Simulated commands on mutated inputs exit 0, 2, 3 or 4, never raise,
    and leave no output behind when they exit 2."""

    @settings(max_examples=150)
    @given(
        config=mutated(example_config_dict()),
        argv=st.sampled_from([
            ["bench", "strong8"], ["bench", "weak64"], ["bench", "degrees"],
            ["bench", "usage10h"], ["predict", "--machine", "pleiades2"],
        ]),
    )
    def test_config(self, config, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            if run_in(tmp, [*argv, "--config", str(path)]) == 2:
                assert os.listdir(tmp) == ["cfg.json"]

    @settings(max_examples=100)
    @given(
        table=st.one_of(
            mutated(CALIBRATION_ROWS).map(
                lambda rows: ("gamma.csv", csv_text(rows))
            ),
            mutated(
                [dict(zip(CALIBRATION_ROWS[0], r))
                 for r in CALIBRATION_ROWS[1:]]
            ).map(lambda rows: ("gamma.json", json.dumps(rows))),
        )
    )
    def test_calibration_table(self, table):
        name, text = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            fit = Path(tmp) / "fit.json"
            if run_in(tmp, ["calibrate", str(path), "--out", str(fit)]) == 2:
                assert not fit.exists()

    @settings(max_examples=100)
    @given(rows=mutated(SAMPLE_ROWS))
    def test_samples(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "usage.csv"
            path.write_text(csv_text(rows), encoding="utf-8")
            hist = Path(tmp) / "usage.hist"
            if run_in(tmp, ["analyze", str(path), "--out", str(hist)]) == 2:
                assert not hist.exists()


class TestFreshInterpreter:
    """No command imports scipy, not even an over-determined calibration.

    Simulated campaigns other than time budgets and ``predict`` do not
    import numpy either; ``calibrate`` and ``analyze`` import it on demand.
    """

    @staticmethod
    def run(*args):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_simulated_bench_does_not_import_scipy(self, config_path):
        script = textwrap.dedent(
            f"""
            import sys
            import semperf
            import semperf.cli
            assert semperf.cli.main(["bench", "strong8", "--config", {str(config_path)!r}]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        assert self.run("-c", script).splitlines()[-1] == "[]"

    def test_four_row_calibration_fits(self, tmp_path):
        table = tmp_path / "gamma.csv"
        table.write_text(
            CALIBRATION_CSV + "pleiades2half,7.93,2.67,scaled_shared,2\n",
            encoding="utf-8",
        )
        artifact = tmp_path / "fit.json"
        script = textwrap.dedent(
            f"""
            import sys
            import semperf.cli
            argv = ["calibrate", {str(table)!r}, "--out", {str(artifact)!r}]
            assert semperf.cli.main(argv) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        assert self.run("-c", script).splitlines()[-1] == "[]"
        fit = json.loads(artifact.read_text(encoding="utf-8"))
        assert len(fit["residuals_s"]) == 4
        assert fit["t_l_s"] == pytest.approx(1.0, abs=0.05)
        assert fit["alpha"] == pytest.approx(8.4, abs=0.2)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bench", "strong8"],
            ["bench", "weak64"],
            ["bench", "degrees"],
            ["predict", "--machine", "pleiades2", "-P", "8", "--json"],
        ],
        ids=["import", "bench-strong8", "bench-weak64", "bench-degrees",
             "predict"],
    )
    def test_simulated_command_does_not_import_numpy(self, config_path, argv):
        if argv[:1] == ["bench"]:
            argv = [*argv, "--config", str(config_path)]
        script = textwrap.dedent(
            f"""
            import sys
            import semperf.cli
            argv = {argv!r}
            assert not argv or semperf.cli.main(argv) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
            """
        )
        assert self.run("-c", script).splitlines()[-1] == "[]"

    def test_calibrate_and_analyze_import_numpy_on_demand(self, tmp_path):
        table = tmp_path / "gamma.csv"
        table.write_text(CALIBRATION_CSV, encoding="utf-8")
        samples = tmp_path / "usage.csv"
        samples.write_text("timestamp,usage\n0,0.5\n20,0.7\n", encoding="utf-8")
        script = textwrap.dedent(
            f"""
            import semperf.cli
            fit = ["calibrate", {str(table)!r}, "--out", {str(tmp_path / "fit.json")!r}]
            assert semperf.cli.main(fit) == 0
            assert semperf.cli.main(["analyze", {str(samples)!r}]) == 0
            """
        )
        out = self.run("-c", script)
        assert "alpha" in out and "mean_E   0.6000" in out
