import json
import math
import os

import numpy as np
import pytest

import kobex as kx
from kobex import cli, scenarios
from kobex.reports import Report
from kobex.scenarios import infinite_type_check


def run_cli(*argv):
    return cli.main(list(argv))


def test_list_names_catalog(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out.split()
    assert set(out) == {"example21", "example22", "ball-sandwich",
                        "extension-oracle", "dini-suite", "embedding-suite",
                        "dichotomy-demo"}


def test_explain_prints_anchors(capsys):
    assert run_cli("explain", "example21") == 0
    out = capsys.readouterr().out
    assert "lagrange-cubic" in out
    assert "corner-distance" in out
    assert "sqrt-rate" in out


def test_explain_unknown_is_config_error(capsys):
    assert run_cli("explain", "nope") == 3


def test_run_unknown_is_config_error(capsys):
    assert run_cli("run", "nope") == 3


def test_run_dini_suite_passes(capsys):
    assert run_cli("run", "dini-suite") == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out


def test_run_writes_deterministic_report(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("run", "dini-suite", "--out", str(out1), "--csv") == 0
    assert run_cli("run", "dini-suite", "--out", str(out2), "--csv") == 0
    b1 = (out1 / "dini-suite.jsonl").read_bytes()
    b2 = (out2 / "dini-suite.jsonl").read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    head = json.loads(lines[0])
    foot = json.loads(lines[-1])
    assert head["scenario"] == "dini-suite" and "seed" in head
    assert foot["passed"] is True
    for line in lines[1:-1]:
        rec = json.loads(line)
        assert "op" in rec


def test_report_verdicts_recomputable(tmp_path):
    rep = scenarios.run_scenario("dini-suite", out_dir=str(tmp_path))
    lines = (tmp_path / "dini-suite.jsonl").read_text().strip().splitlines()
    rec = next(json.loads(l) for l in lines
               if json.loads(l).get("op") == "sqrt-rate-integral")
    # the verdict follows from the recorded number and tolerance alone
    assert (abs(rec["value"] - 2.0) <= rec["tolerances"]["abs"]) == rec["verdict"]


def test_distance_command(capsys):
    assert run_cli("distance", "ball2", "--at", "0.5,0") == 0
    out = capsys.readouterr().out
    assert "0.5" in out and "nearest" in out


def test_distance_directional(capsys):
    assert run_cli("distance", "ball2", "--at", "0.5,0", "--dir", "0,1") == 0
    out = capsys.readouterr().out
    assert "0.866025403" in out


def test_distance_outside_is_config_error(capsys):
    assert run_cli("distance", "ball2", "--at", "2,0") == 3


@pytest.mark.parametrize("point", ["0.5,x", "nan,0"])
def test_distance_bad_point_is_config_error(point, capsys):
    assert run_cli("distance", "ball2", "--at", point) == 3
    assert "error: bad point" in capsys.readouterr().err
    assert run_cli("distance", "ball2", "--at", "0.1,0", "--dir", point) == 3
    assert "error: bad point" in capsys.readouterr().err


def test_distance_zero_phases_is_config_error(capsys):
    assert run_cli("distance", "ball2", "--at=0.1,0", "--dir=1,0",
                   "--phases", "0") == 3
    assert "error: n_phases" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", [("run", "dini-suite"), ("extend",)])
def test_bad_tol_is_config_error(command, tol, capsys):
    assert run_cli(*command, "--tol=" + tol) == 3
    assert "error: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["example21", "example22", "dini-suite",
                                      "embedding-suite", "dichotomy-demo"])
def test_tol_for_a_scenario_without_one_is_config_error(scenario, capsys):
    assert run_cli("run", scenario, "--tol", "1e-3") == 3
    assert "error: scenario %r takes no tol" % scenario in capsys.readouterr().err


def test_tol_reaches_the_scenarios_that_read_it(tmp_path, capsys):
    assert run_cli("run", "ball-sandwich", "--tol", "1e-5", "--out", str(tmp_path)) == 0
    assert run_cli("extend", "--tol", "5e-7", "--out", str(tmp_path)) == 0
    recs = [json.loads(line)
            for name in ("ball-sandwich", "extension-oracle")
            for line in (tmp_path / (name + ".jsonl")).read_text().splitlines()]
    assert {r["tolerances"]["rel"] for r in recs
            if r.get("op", "").startswith("sandwich")} == {1e-5}
    assert {r["constants"]["tol"] for r in recs
            if r.get("op") == "boundary-values-match-direct"} == {5e-7}


def test_metric_commands(capsys):
    assert run_cli("metric", "ball2", "--at", "0.5,0", "--dir", "1,0") == 0
    out = capsys.readouterr().out
    assert "lower bound" in out and "upper bound" in out
    assert run_cli("metric", "ball2", "--at", "0.5,0", "--dir", "1,0",
                   "--method", "exact") == 0
    assert "1.33333333333" in capsys.readouterr().out


def test_metric_exact_requires_ball(capsys):
    assert run_cli("metric", "ex21_omega", "--at", "0.1,0", "--dir", "1,0",
                   "--method", "exact") == 3


def test_distance_from_definition_file(tmp_path, capsys):
    path = tmp_path / "tri.kx"
    path.write_text("domain tri\n  dim 2\n  flags convex reinhardt\n"
                    "  radius 1.0\n  constraint abs(z1) + abs(z2) - 1\nend\n")
    assert run_cli("distance", str(path), "--at", "0.3,0.2",
                   "--method", "reinhardt") == 0
    assert "0.35355339" in capsys.readouterr().out


def _exp_flat(power):
    def phi(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            val = np.exp(-1.0 / np.where(x > 0, x, 1.0) ** power)
        return np.where(x > 0, val, 0.0)
    return phi


def test_infinite_type_check_flat_profiles():
    for power in (1, 2):
        out = infinite_type_check(_exp_flat(power), orders=range(1, 21))
        assert out["passes"], out
        assert out["finite_type_at"] is None


def test_infinite_type_check_cubic_fails_at_four():
    out = infinite_type_check(lambda x: np.asarray(x, dtype=float) ** 3,
                              orders=[4])
    assert not out["passes"]
    assert out["finite_type_at"] == 4
    # the ratio x^3 / x^4 = 1/x grows as x -> 0
    ratios = out["orders"][4]["ratios"]
    assert ratios[-1] > ratios[0]


def test_infinite_type_check_requires_vanishing_profile():
    with pytest.raises(kx.DomainError):
        infinite_type_check(lambda x: np.asarray(x, dtype=float) + 1.0,
                            orders=[1])


def test_failed_verdict_exits_two(monkeypatch, capsys):
    def fake(name, seed=0, tol=None, out_dir=None, csv=False):
        rep = Report("fake", seed, "0")
        rep.add("doomed", verdict=False, value=1.0)
        rep.wall_clock = 0.0
        return rep

    monkeypatch.setattr(scenarios, "run_scenario", fake)
    monkeypatch.setattr(cli.scenarios, "run_scenario", fake)
    assert run_cli("run", "whatever") == 2
