"""Simulated outputs pinned byte for byte across commits.

The digests were recorded from the example configuration at seed 0, from
``predict --json`` on the built-in machine profiles, from ``calibrate`` on
the three-cluster table and from ``analyze`` on the seed-0 ``usage10h``
windows.  A change to the
time model, the counters or the serialization moves one of them; update a
digest only for an intended change of the simulated figures, and record
why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from semperf.cli import main
from semperf.profiles import builtin_profiles, example_config_dict

CAMPAIGN_DIGESTS = {
    "strong8": {
        "strong8_records.json": "a56946e68d918afa27c6bee9dafcd72357c6e76821e340b4518da576fa08a6fc",
        "strong8_steps.csv": "04ab85fb30ef54c4100dd092497e682316fb9b2661a0eb86ae0deb7ecf968880",
        "strong8_summary.csv": "3c9de31a27d88e75dc9ea76abda54d0ff5015b52029bd91b89d8d2916237ecd9",
    },
    "weak64": {
        "weak64_records.json": "ddd6168713ff2f3ad08bddadd48b6ae1c3d358d5e45cbbcb880705e74530d771",
        "weak64_steps.csv": "0368672d283ba6e4ef806cf8db52b2c38dfe0d2af1bea3a7a9acb4986cfc0a9a",
        "weak64_summary.csv": "af60151c53e0605fe43c544570f16682b869976e987d0da5bdb616ddd8602161",
    },
    "degrees": {
        "degrees_records.json": "a0e3883c2bfa248120ed72013c791de3fbcf587267ae00bdc687ad8d5f576b93",
        "degrees_steps.csv": "ebd15809021da95a5ade9ffcf7ee677bf72e6578cd62457452535afe6c474b3c",
        "degrees_summary.csv": "5ef4af81ed719dc777a1a47306f7439e128d0565017058efc1aa4971271bf85d",
    },
    "usage10h": {
        "usage10h_records.json": "882b6d1bf30ccbee7a1364a580dfe9b3cf046ecefe7c87a29d7ba105f1bb375d",
        "usage10h_steps.csv": "03446d4f3804167a46c40f2bffddf973789855b9c5b2b882189d00a963ab23a8",
        "usage10h_summary.csv": "a7f1d4e3b723614a97f42b423affaddd064b214ceb3d733b79e5e745cca41652",
        "usage10h_windows.csv": "c67f1a1a45301654ad3be9d46ca22c7041fed10d7a05ebefa3f4cc0ecd4d4b19",
    },
}

PREDICT_DIGESTS = {
    ("cray-xt3-sim", 1): "ef2a144086ea6e743fc32d7ca3b087663d388ab3313f63bb54b3054335e2a74a",
    ("cray-xt3-sim", 4): "f4809e6c1bfe3e4791ee951241c7a96b1a7af995dc3e19251a9241fedf2e5a78",
    ("cray-xt3-sim", 32): "b9fe8d826a4fd0bb61f5ec71a0858b676e75e40daf8e992f5ce4df54541657a1",
    ("pleiades", 1): "081744d115590d6301d957b53da2a8d7e10d37ef4740a8f98738c2b2b59c509d",
    ("pleiades", 4): "c56ffcbc1dbc11d31964af7458a7155c0fc5fab0d0ba6fe1734e077841be1036",
    ("pleiades", 32): "77bbf78a632ca5ca57fbccb8d55f6d5f08881f9714f3e883ed95aaedd505dcdc",
    ("pleiades2", 1): "3d8e1866aaecc475619e7e1c50a40e1f3c082c51acddf3b039f2a5fdd05b772b",
    ("pleiades2", 4): "b03eb239a98539610ce138478bb62d829f887f196fa5c95462e4f766b2211ef5",
    ("pleiades2", 32): "72f38949ba480a4bf14ea25365eafe6ed7aa98cb1c1f6e5e9a7c5270d76e1613",
    ("pleiades2-sim", 1): "bf6c76980fc4048c4fe9ed5c3bc70b22f8adffb866b7b10e46246e315649c932",
    ("pleiades2-sim", 4): "f4f2771695df1071207d6fe3fd3f9252556bc4e7d444986274d6fb0a0f47989f",
    ("pleiades2-sim", 32): "40f6b8d42fd2ab222a06cb7f52e55aab2ae4d21f55e86edbe33a92234717cdfc",
    ("pleiades2plus", 1): "c22df6b32676ad3a2a5a0dd963ebff9661c2b6933d8d5437ea294f11db293c42",
    ("pleiades2plus", 4): "16037638013e02e34efa726375c6a3f9408e03ed2e0f7de47169f9cca2ecd7be",
    ("pleiades2plus", 32): "58682384f40729ab66d1361a910c82c3273833afea3ad0c72dcc345b381f6144",
}

# the three-cluster table of the acceptance tests
CALIBRATION_CSV = """name,t_p,gamma,bandwidth_model,sharing
pleiades,13.58,1.44,base,1
pleiades2,7.56,3.81,scaled,1
pleiades2plus,7.93,1.60,scaled_shared,4
"""

CALIBRATE_DIGESTS = {
    "gamma_fit.json": "61cf094898aafbc08fbe25023fdec6e464364e5c2ca55449649f0396feab2cd3",
    "stdout": "7dc5517c57ccaa0580002f583078225294f5c79517844a2b44089d8e7dc16ce0",
}

ANALYZE_DIGESTS = {
    "usage10h_windows.hist": "3ad2c2ebf2e5336875dea9f20c5bcf5ae2ae4969f8d782619beec2288fbb6bd2",
    "stdout": "7ae448c1a6a83cd53bb6385081c59c887219af089baf6bf329e30b3f888d8abb",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("campaign", sorted(CAMPAIGN_DIGESTS))
def test_sim_campaign_outputs_match_golden(campaign, tmp_path, capsys):
    config = tmp_path / "semperf.json"
    config.write_text(json.dumps(example_config_dict()), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["bench", campaign, "--config", str(config), "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    digests = {f.name: _sha256(f.read_bytes()) for f in out.iterdir()}
    assert digests == CAMPAIGN_DIGESTS[campaign]


def test_golden_covers_every_builtin_machine():
    assert {m for m, _ in PREDICT_DIGESTS} == set(builtin_profiles())


@pytest.mark.parametrize("machine,ranks", sorted(PREDICT_DIGESTS))
def test_predict_json_matches_golden(machine, ranks, capsys):
    code = main(["predict", "--machine", machine, "--json", "-P", str(ranks)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert _sha256(stdout.encode("utf-8")) == PREDICT_DIGESTS[machine, ranks]


def test_calibrate_outputs_match_golden(tmp_path, monkeypatch, capsys):
    # relative paths keep the "wrote" line of stdout the same in any directory
    monkeypatch.chdir(tmp_path)
    Path("gamma.csv").write_text(CALIBRATION_CSV, encoding="utf-8")
    assert main(["calibrate", "gamma.csv"]) == 0
    digests = {
        "gamma_fit.json": _sha256(Path("gamma_fit.json").read_bytes()),
        "stdout": _sha256(capsys.readouterr().out.encode("utf-8")),
    }
    assert digests == CALIBRATE_DIGESTS


def test_analyze_outputs_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("semperf.json").write_text(
        json.dumps(example_config_dict()), encoding="utf-8"
    )
    code = main(
        ["bench", "usage10h", "--config", "semperf.json", "--seed", "0",
         "--out", "."]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["analyze", "usage10h_windows.csv"]) == 0
    digests = {
        "usage10h_windows.hist": _sha256(
            Path("usage10h_windows.hist").read_bytes()
        ),
        "stdout": _sha256(capsys.readouterr().out.encode("utf-8")),
    }
    assert digests == ANALYZE_DIGESTS
