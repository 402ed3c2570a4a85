"""Every bundled scenario must pass end to end and stay deterministic."""

import functools

import numpy as np
import pytest

from kobex import charts, domains, psh, scenarios


@functools.lru_cache(maxsize=None)
def seed0_report(name):
    return scenarios.run_scenario(name)


@pytest.mark.parametrize("name", scenarios.list_scenarios())
def test_scenario_passes(name):
    report = seed0_report(name)
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
        # every recorded op has an anchor; "x-*" anchors every op named x-...
        for rec in seed0_report(name).records:
            assert any(rec.op == stage or (stage.endswith("*")
                                           and rec.op.startswith(stage[:-1]))
                       for stage, _ in stages), (name, rec.op)


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


def test_decay_distance_bound_fails_for_the_wrong_exponent(monkeypatch):
    # stage (d) with the witness -delta^2, of exponent two: the fitted
    # constant still passes, delta <= -rho does not (1/delta reaches ~1.3e3)
    real = psh.hopf_fit
    monkeypatch.setattr(psh, "hopf_fit", lambda fn, D, zs: real(
        lambda z: -domains.boundary_distance_batch(D, z) ** 2, D, zs))
    recs = {r.op: r for r in scenarios.scenario_example22(seed=0).records}
    assert recs["decay-constant-exponent-one"].verdict
    assert not recs["decay-distance-bound"].verdict
    assert recs["decay-distance-bound"].value > 1e3


def test_telescoping_residual_record_fails_for_a_wrong_derivative(monkeypatch):
    # a 1 % error in the map's Jacobian shows in the residual as about 1e-4
    F, jac, fibers = scenarios._square_first_map()
    monkeypatch.setattr(scenarios, "_square_first_map",
                        lambda: (F, lambda z: 1.01 * jac(z), fibers))
    rep = scenarios.scenario_extension_oracle(seed=0)
    rec = next(r for r in rep.records if r.op == "telescoping-residual")
    assert not rec.verdict and rec.value >= 1e-6


def test_block_sampler_matches_one_candidate_at_a_time():
    # 9 % of the candidates lie inside: the first block of 2k holds too few
    D = domains.ball(1, radius=0.17)
    blocks = []

    def build(r):
        blocks.append(len(r))
        return (r[:, :1] - 0.5) + 1j * (r[:, 1:2] - 0.5)

    rng = np.random.default_rng(11)
    kept, pts = scenarios._first_accepted(rng, 25, build, lambda z: domains.contains(D, z))
    assert len(blocks) > 1

    ref = np.random.default_rng(11)
    want = []
    while len(want) < 25:
        r = [ref.random() for _ in range(4)]
        if domains.contains(D, np.array([complex(r[0] - 0.5, r[1] - 0.5)])):
            want.append(r)
    assert np.array_equal(kept, want)
    assert np.array_equal(pts[:, 0], [complex(a - 0.5, b - 0.5) for a, b, _, _ in want])
    assert rng.random() == ref.random()

    # three uniforms a candidate, accepted by a mask of their own
    rng = np.random.default_rng(12)
    kept, pts = scenarios._first_accepted(rng, 40, lambda r: r - 0.5,
                                          lambda c: np.sum(c * c, axis=-1) < 0.04, width=3)
    ref = np.random.default_rng(12)
    want = []
    while len(want) < 40:
        c = ref.random(3) - 0.5
        if np.sum(c * c) < 0.04:
            want.append(c)
    assert np.array_equal(pts, want) and np.array_equal(kept - 0.5, want)
    assert rng.random() == ref.random()

    # two stages: a head of two uniforms passes about half the time, and
    # only a passing head draws two more; 20 % of those are accepted, so the
    # first block of 2k candidates holds too few
    blocks.clear()

    def two_stage(r):
        blocks.append(len(r))
        return r

    rng = np.random.default_rng(13)
    kept, pts = scenarios._first_accepted(rng, 30, two_stage, lambda r: r[:, 3] < 0.2,
                                          width=2, head=lambda h: h[:, 0] + h[:, 1] < 1.0,
                                          more=2)
    assert len(blocks) > 1 and np.array_equal(kept, pts)
    ref = np.random.default_rng(13)
    want, heads = [], set()
    while len(want) < 30:
        r = [ref.random(), ref.random()]
        heads.add(r[0] + r[1] < 1.0)
        if r[0] + r[1] >= 1.0:
            continue
        r += [ref.random(), ref.random()]
        if r[3] < 0.2:
            want.append(r)
    assert heads == {True, False}
    assert np.array_equal(kept, want)
    assert rng.random() == ref.random()


def _chart_samples_one_at_a_time(D, chart, rng, count):
    # the per-candidate loop that _chart_interior_samples replays in blocks
    out = []
    while len(out) < count:
        c = (rng.random(3) - 0.5) * (0.7 * chart.radius)
        zp = c[0] + 1j * c[1]
        if abs(zp) >= 0.35 * chart.radius:
            continue
        val = float(chart.phi(np.array([c[0], c[1], c[2]])))
        lift = rng.random() * 0.3 * chart.radius + 1e-6
        Z = np.array([zp, c[2] + 1j * (val + lift)])
        pt = chart.from_chart(Z)
        if bool(domains.contains(D, pt)) and chart.in_box(Z):
            out.append(pt)
    return np.array(out)


@pytest.mark.parametrize("name,make_chart,make_domain", [
    ("ball", charts.ball_chart, lambda: domains.ball(2)),
    ("ex22", charts.ex22_chart, domains.ex22_D),
    ("tilted45", charts.tilted_chart, charts.tilted_domain)])
def test_chart_interior_samples_match_one_candidate_at_a_time(name, make_chart,
                                                              make_domain):
    chart, D = make_chart(), make_domain()
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = scenarios._chart_interior_samples(D, chart, rng, 200)
        assert got.tobytes() == _chart_samples_one_at_a_time(D, chart, ref, 200).tobytes()
        assert rng.random() == ref.random()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("seed", range(10))
def test_example21_corner_points_match_one_candidate_at_a_time(seed, monkeypatch):
    # stage 3's points and the generator after them, caught at the stage's
    # boundary_distance_batch call, against the per-candidate loop it replaced
    rngs, seen = [], []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: rngs.append(default_rng(s))
                        or rngs[-1])

    def caught(D, pts, method="auto"):
        seen.append((pts, rngs[0].bit_generator.state))
        raise _Stop

    monkeypatch.setattr(domains, "boundary_distance_batch", caught)
    with pytest.raises(_Stop):
        scenarios.scenario_example21(seed)
    ref = default_rng(seed)
    want = []
    while len(want) < 1000:
        x, y = ref.random(), ref.random()
        if x + y < 0.98:
            want.append([x * np.exp(2j * np.pi * ref.random()),
                         y * np.exp(2j * np.pi * ref.random())])
    pts, state = seen[0]
    assert pts.tobytes() == np.array(want).tobytes()
    assert state == ref.bit_generator.state


def test_embedding_suite_makes_few_oracle_calls(monkeypatch):
    # the chart samples take one contains call per block, not one per
    # candidate (605 calls a run when they were drawn one at a time)
    calls = []
    value = domains.DomainSpec.value
    monkeypatch.setattr(domains.DomainSpec, "value",
                        lambda self, z: calls.append(1) or value(self, z))
    scenarios.run_scenario("embedding-suite", seed=3)
    assert len(calls) <= 20
