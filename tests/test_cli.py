import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kobex as kx
from kobex import cli, scenarios
from kobex.reports import Report
from kobex.scenarios import infinite_type_check


def run_cli(*argv):
    return cli.main(list(argv))


def _main_output(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:    # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_calls_in_one_process_share_one_parser(capsys):
    # the parser is built once; commands run one after another, an argparse
    # error among them, print what each prints with a parser of its own
    calls = [("list",),
             ("metric", "ball2", "--at", "0.3,0.1", "--dir", "1,0.5j", "--method", "inscribed"),
             ("distance", "ball2", "--at", "0.3,0.1", "--phases", "many"),
             ("explain", "example21"),
             ("distance", "ball2", "--at", "0.3,0.1", "--dir", "1,0.5j", "--phases", "64")]
    together = [_main_output(argv, capsys) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_main_output(argv, capsys))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 0]
    assert "invalid int value: 'many'" in together[2][2]


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
    assert capsys.readouterr().err == "error: unknown scenario 'nope'\n"


def test_run_unknown_is_config_error(capsys):
    assert run_cli("run", "nope") == 3
    assert capsys.readouterr().err == "error: unknown scenario 'nope'\n"


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


@pytest.mark.parametrize("name,method", [("ex22_d", "generic"), ("ex21_d", "reinhardt")])
def test_distance_command_runs_one_search(name, method, capsys, monkeypatch):
    D = kx.bundled_domain(name)
    z = kx.cpoint(0.5, 0.1)
    delta = kx.boundary_distance(D, z, method)
    xi = kx.nearest_boundary_point(D, z, method)
    searches = []
    for fn in ("_generic_distance", "_moduli_section_distance"):
        real = getattr(kx.domains, fn)
        monkeypatch.setattr(kx.domains, fn, lambda *a, real=real: searches.append(1) or real(*a))
    assert run_cli("distance", name, "--at", "0.5,0.1", "--method", method) == 0
    assert len(searches) == 1
    out = capsys.readouterr().out
    assert "delta(z) = %.12g" % delta in out
    assert np.array2string(xi, precision=10) in out


def test_import_loads_no_scipy():
    # kobex runs on numpy alone: importing it, every scenario, the generic
    # boundary search and a directional query load no scipy module.  The
    # report version is kobex.__version__, so starting kobex also looks up no
    # installed-distribution metadata
    code = ("import sys, kobex, kobex.cli, kobex.scenarios\n"
            "assert 'importlib.metadata' not in sys.modules\n"
            "assert kobex.scenarios.VERSION == kobex.__version__\n"
            "for name in kobex.scenarios.list_scenarios():\n"
            "    assert kobex.scenarios.run_scenario(name, seed=0).passed\n"
            "assert kobex.cli.main(['distance', 'ball2', '--at', '0.3,0.1',"
            " '--method', 'generic']) == 0\n"
            "assert kobex.cli.main(['distance', 'ball2', '--at', '0.3,0.1',"
            " '--dir', '1,0.5j']) == 0\n"
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(kx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.DEVNULL).returncode == 0


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


@pytest.mark.parametrize("flags", [["--dir", "0,1", "--method", "reinhardt"],
                                   ["--dir", "0,1", "--method", "auto"],
                                   ["--phases", "0"], ["--phases", "64"]])
def test_distance_flag_it_would_ignore_is_config_error(flags, capsys):
    # --method picks the delta(z) search and --phases the delta(z; v) phases
    assert run_cli("distance", "ball2", "--at", "0.3,0", *flags) == 3
    assert capsys.readouterr().err.startswith("error: --")


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


@pytest.mark.parametrize("method", ["graham", "inscribed"])
@pytest.mark.parametrize("direction", ["1", "1,0,0"])
def test_metric_direction_dimension_mismatch(method, direction, capsys):
    assert run_cli("metric", "ball2", "--at", "0.1,0", "--dir", direction,
                   "--method", method) == 3
    captured = capsys.readouterr()
    assert "dimension mismatch" in captured.err and "bound" not in captured.out


def test_metric_exact_requires_ball(tmp_path, monkeypatch, capsys):
    assert run_cli("metric", "ex21_omega", "--at", "0.1,0", "--dir", "1,0",
                   "--method", "exact") == 3
    # a definition file named like the ball is not the ball
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ballish.kx").write_text(
        "domain slab2\n  dim 2\n  radius 1.0\n"
        "  constraint abs(z1)^2 + abs(z2)^2 - 1\n"
        "  constraint 0.005 - abs(re(z1) - 0.5)\nend\n")
    assert run_cli("metric", "ballish.kx", "--at", "0.1,0", "--dir", "1,0",
                   "--method", "exact") == 3
    assert "exact" not in capsys.readouterr().out


def test_distance_from_definition_file(tmp_path, capsys):
    path = tmp_path / "tri.kx"
    path.write_text("domain tri\n  dim 2\n  flags convex reinhardt\n"
                    "  radius 1.0\n  constraint abs(z1) + abs(z2) - 1\nend\n")
    assert run_cli("distance", str(path), "--at", "0.3,0.2",
                   "--method", "reinhardt") == 0
    assert "0.35355339" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "domain tri\n  dim 2\n  constraint abs(z1) +\nend\n",     # syntax error
    "modulus m\n  domain_end 1.0\n  expr r\nend\n",          # not a domain block
])
def test_bad_definition_file_is_config_error(text, tmp_path):
    path = tmp_path / "bad.kx"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(kx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kobex.cli", "distance", str(path),
                           "--at", "0.1,0"], env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("domain", ["nope", "missing/file.kx"])
def test_unknown_domain_returns_config_error_in_process(domain, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("distance", domain, "--at", "0.1,0") == 3
    assert capsys.readouterr().err.startswith("error: ")


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


def test_uncertifiable_tol_is_config_error(capsys):
    # the rate tail stays above 1e-12 over all LADDER_MAX_LEVELS rungs
    assert run_cli("extend", "--tol", "1e-12") == 3
    assert "error: rate tail stayed above tol" in capsys.readouterr().err


def test_unconverged_solver_exits_two(monkeypatch, capsys):
    def stalls(seed=0):
        raise kx.ConvergenceError("normal-line quadrature left 3 panels open "
                                  "after 24 rounds")

    monkeypatch.setitem(scenarios.SCENARIOS, "dini-suite", stalls)
    assert run_cli("run", "dini-suite") == 2
    assert "error: normal-line quadrature" in capsys.readouterr().err
