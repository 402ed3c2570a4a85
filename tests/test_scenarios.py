"""Every bundled scenario must pass end to end and stay deterministic."""

import pytest

from kobex import scenarios


@pytest.mark.parametrize("name", scenarios.list_scenarios())
def test_scenario_passes(name):
    report = scenarios.run_scenario(name)
    n_pass, n_total = report.tally
    assert report.passed, report.summary()
    assert n_total >= 3
    assert report.scenario == name


def test_catalog_is_complete():
    assert set(scenarios.list_scenarios()) == {
        "example21", "example22", "ball-sandwich", "extension-oracle",
        "dini-suite", "embedding-suite", "dichotomy-demo"}


def test_explain_covers_every_scenario():
    for name in scenarios.list_scenarios():
        stages = scenarios.EXPLAIN[name]
        assert len(stages) >= 3
        for stage, anchor in stages:
            assert stage and anchor


def test_reports_are_deterministic_per_seed():
    a = scenarios.run_scenario("ball-sandwich", seed=7).to_jsonl()
    b = scenarios.run_scenario("ball-sandwich", seed=7).to_jsonl()
    c = scenarios.run_scenario("ball-sandwich", seed=8).to_jsonl()
    assert a == b
    assert a != c


def test_extension_oracle_calls_the_map_in_batches(monkeypatch):
    # the ladder-certificate check takes the top values of all 400 grid
    # lines in one map call, not one call per grid point
    real = scenarios._square_first_map
    calls = []

    def counted():
        F, jac, fibers = real()
        return (lambda z: calls.append(1) or F(z)), jac, fibers

    monkeypatch.setattr(scenarios, "_square_first_map", counted)
    assert scenarios.run_scenario("extension-oracle").passed
    assert 0 < len(calls) <= 26
