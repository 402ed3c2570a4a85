import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kobex as kx
from kobex import scenarios


# ---------------------------------------------------------------------------
# exact ball oracles
# ---------------------------------------------------------------------------

def test_ball_metric_center():
    v = kx.cpoint(0.3 + 1j, -0.2)
    assert kx.kob_metric_ball_exact(np.zeros(2, complex), v) == \
        pytest.approx(np.linalg.norm(v))


def test_ball_metric_radial_and_tangential():
    z = kx.cpoint(0.5, 0)
    assert kx.kob_metric_ball_exact(z, kx.cpoint(1, 0)) == \
        pytest.approx(1.0 / 0.75)                       # 4/3 radial
    assert kx.kob_metric_ball_exact(z, kx.cpoint(0, 1)) == \
        pytest.approx(1.0 / math.sqrt(0.75))            # tangential


def test_ball_metric_tangential_matches_affine_disc_search(ball2):
    # the widest affine disc through z in a tangential direction realizes
    # the metric; the phase-sampled disc radius is an independent oracle
    z = kx.cpoint(0.5, 0)
    v = kx.cpoint(0, 1)
    r = kx.directional_distance(ball2, z, v, n_phases=4096, refine=False)
    assert kx.kob_metric_ball_exact(z, v) == pytest.approx(1.0 / r, abs=1e-4)


def test_ball_distance_on_diameter():
    # K(0, r e_1) = arctanh(r)
    assert kx.kob_distance_ball_exact(np.zeros(2, complex), kx.cpoint(0.5, 0)) \
        == pytest.approx(math.atanh(0.5), abs=1e-12)


@pytest.mark.parametrize("z1", [(2, 0), (1, 0), (0.6, 0.8j)])
def test_ball_distance_rejects_points_outside_the_ball(z1):
    # the distance to a boundary or outside point is not a finite number
    for a, b in ((z1, (0, 0)), ((0, 0), z1)):
        with pytest.raises(kx.DomainError):
            kx.kob_distance_ball_exact(kx.cpoint(*a), kx.cpoint(*b))


# ---------------------------------------------------------------------------
# one-sided bounds
# ---------------------------------------------------------------------------

def test_graham_bounds_center(ball2):
    lo, hi = kx.graham_bounds(ball2, np.zeros(2, complex), kx.cpoint(1, 0))
    assert lo.value == pytest.approx(0.5, abs=1e-9)
    assert hi.value == pytest.approx(1.0, abs=1e-9)
    assert lo.value <= 1.0 <= hi.value  # exact metric inside


def test_graham_bounds_radial(ball2):
    z = kx.cpoint(0.5, 0)
    lo, hi = kx.graham_bounds(ball2, z, kx.cpoint(1, 0))
    assert lo.value == pytest.approx(1.0, abs=1e-8)
    assert hi.value == pytest.approx(2.0, abs=1e-8)
    exact = kx.kob_metric_ball_exact(z, kx.cpoint(1, 0))
    assert lo.value <= exact <= hi.value


def test_graham_refuses_nonconvex(d21):
    with pytest.raises(kx.DomainError):
        kx.graham_bounds(d21, kx.cpoint(0, 0), kx.cpoint(1, 0))


def test_graham_sandwich_random(ball2, rng):
    zs, vs = [], []
    while len(zs) < 100:
        z = (rng.random(2) - 0.5) * 1.9 + 1j * (rng.random(2) - 0.5) * 1.9
        if np.linalg.norm(z) < 0.92:
            zs.append(z)
            vs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zs, vs = np.array(zs), np.array(vs)
    deltas = kx.directional_distance_batch(ball2, zs, vs, n_phases=4096,
                                           refine=False)
    nv = np.linalg.norm(vs, axis=-1)
    exact = np.array([kx.kob_metric_ball_exact(z, v) for z, v in zip(zs, vs)])
    assert np.all(nv / (2 * deltas) <= exact * (1 + 1e-6))
    assert np.all(exact <= nv / deltas * (1 + 1e-6))


def test_sibony_bound_unit_witness():
    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    b = kx.sibony_lower_bound(u, np.zeros(2, complex), kx.cpoint(1, 0),
                              c=1.0, alpha=1.0)
    assert b.value == pytest.approx(1.0)
    assert b.side == "lower" and b.method == "sibony"
    assert b.constants["alpha"] == 1.0


def test_sibony_homogeneity():
    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    z = kx.cpoint(0.2, 0.1)
    v = kx.cpoint(0.5, -0.25j)
    b1 = kx.sibony_lower_bound(u, z, v, c=0.5)
    b2 = kx.sibony_lower_bound(u, z, 2.0 * v, c=0.5)
    assert b2.value == pytest.approx(2.0 * b1.value)


def test_sibony_requires_negative_witness():
    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    with pytest.raises(kx.DomainError):
        kx.sibony_lower_bound(u, kx.cpoint(1.5, 0), kx.cpoint(1, 0), c=1.0)


def test_inscribed_ball_bound(ball2):
    assert kx.inscribed_ball_upper_bound(ball2, np.zeros(2, complex),
                                         kx.cpoint(1, 0)).value == \
        pytest.approx(1.0)
    b = kx.inscribed_ball_upper_bound(ball2, kx.cpoint(0.5, 0), kx.cpoint(1, 0))
    assert b.value == pytest.approx(2.0)
    assert b.value >= 4.0 / 3.0  # exact metric below the bound
    assert kx.inscribed_ball_upper_bound(ball2, kx.cpoint(0.5, 0),
                                         np.zeros(2, complex)).value == 0.0


def test_inscribed_dominates_graham_lower(ball2, omega21, rng):
    # delta(z) <= delta(z; v) makes |v|/delta(z) >= |v|/(2 delta(z; v))
    for D in (ball2, omega21):
        for _ in range(20):
            z = (rng.random(2) - 0.5) + 1j * (rng.random(2) - 0.5)
            if not bool(kx.contains(D, z)):
                continue
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lo, _ = kx.graham_bounds(D, z, v)
            up = kx.inscribed_ball_upper_bound(D, z, v)
            assert up.value >= lo.value - 1e-12


def test_metric_bound_validation():
    with pytest.raises(ValueError):
        kx.MetricBound(1.0, "sideways", "sibony")
    for method in ("mystery", "ltc_lower", "pair_lower"):
        with pytest.raises(ValueError):
            kx.MetricBound(1.0, "lower", method)
    with pytest.raises(ValueError):
        kx.MetricBound(-1.0, "lower", "sibony")
    with pytest.raises(kx.DomainError):
        kx.MetricBound(math.nan, "upper", "inscribed_ball")
    with pytest.raises(kx.DomainError):
        kx.MetricBound(math.inf, "lower", "graham_lower")
    assert kx.MetricBound(math.inf, "upper", "inscribed_ball").value == math.inf


@pytest.mark.parametrize("v", [(math.inf, 0), (math.nan, 0)])
def test_graham_bounds_reject_bad_direction_data(ball2, v):
    with pytest.raises(kx.DomainError):
        kx.graham_bounds(ball2, (0.1, 0.2), v)


@pytest.mark.parametrize("z, v", [
    ((0.1, 0.2), (math.nan, 0)), ((0.1, 0.2), (math.inf, 0)),
    ((2, 0), (0, 0))])
def test_inscribed_ball_bound_rejects_bad_input(ball2, z, v):
    with pytest.raises(kx.DomainError):
        kx.inscribed_ball_upper_bound(ball2, z, v)


# ---------------------------------------------------------------------------
# path estimator and the pair constant
# ---------------------------------------------------------------------------

def test_path_estimate_dominates_exact(ball2):
    pairs = [(kx.cpoint(0.9, 0), kx.cpoint(0, 0.9)),
             (kx.cpoint(0.5, 0), kx.cpoint(-0.5, 0)),
             (kx.cpoint(0.2, 0.1), kx.cpoint(-0.1, 0.3))]
    for z1, z2 in pairs:
        est = kx.path_distance_upper(ball2, z1, z2)
        exact = kx.kob_distance_ball_exact(z1, z2)
        assert est >= exact - 1e-9


@pytest.mark.parametrize("z1", [(1.2, 0), (3, 0), (1, 0)])
def test_path_endpoint_outside_raises(ball2, z1):
    with pytest.raises(kx.DomainError):
        kx.path_distance_upper(ball2, z1, (0, 0))
    with pytest.raises(kx.DomainError):
        kx.path_distance_upper(ball2, (0, 0), z1)


def test_fit_pair_constant_collinear(ball2):
    # anchor on the diameter: the additivity defect is pure estimator error
    K = kx.fit_pair_constant(ball2, np.zeros(2, complex),
                             [kx.cpoint(0.8, 0)], [kx.cpoint(-0.8, 0)])
    assert 0.0 <= K <= 0.5


def test_fit_pair_constant_monotone_in_clouds(ball2):
    o = np.zeros(2, complex)
    vq = [kx.cpoint(0.9, 0), kx.cpoint(0.95, 0)]
    vx = [kx.cpoint(0, 0.9), kx.cpoint(0, 0.95)]
    K_small = kx.fit_pair_constant(ball2, o, vq[:1], vx[:1])
    K_large = kx.fit_pair_constant(ball2, o, vq, vx)
    assert K_large >= K_small - 1e-12


def test_fit_pair_constant_rejects_touching_clouds(ball2):
    with pytest.raises(kx.DomainError):
        kx.fit_pair_constant(ball2, np.zeros(2, complex),
                             [kx.cpoint(0.5, 0)], [kx.cpoint(0.5, 0)])


def test_pair_bound_stays_below_path_estimate(ball2):
    # the fitted constant keeps the pair lower bound below the
    # path-integration upper estimate on the fitted clouds
    o = np.zeros(2, complex)
    vq = [kx.cpoint(0.9, 0), kx.cpoint(0.95, 0)]
    vx = [kx.cpoint(0, 0.9), kx.cpoint(0, 0.95)]
    K = kx.fit_pair_constant(ball2, o, vq, vx)
    for w1 in vq:
        for w2 in vx:
            est = kx.path_distance_upper(ball2, w1, w2)
            lb = (0.5 * math.log(1.0 / kx.boundary_distance(ball2, w1))
                  + 0.5 * math.log(1.0 / kx.boundary_distance(ball2, w2)) - K)
            assert lb <= est + 1e-6


def _cheap_ball_spec(name, interior_point=None):
    # the unit ball of C^2 with a one-line dist_fn
    return kx.DomainSpec(name, 2, kx.ball(2).constraints, is_convex=True,
                         bounding_radius=1.0, interior_point=interior_point,
                         dist_fn=lambda zs: 1.0 - np.linalg.norm(zs, axis=-1))


def _holed_ball(interior_point=None):
    # B^2 minus the closed ball of radius 0.1 about (0.3, 0): not convex
    c = np.array([0.3, 0.0], dtype=complex)

    def hole(z):
        return 0.01 - np.sum(np.abs(z - c) ** 2, axis=-1)

    def dist(zs):
        return np.minimum(1.0 - np.linalg.norm(zs, axis=-1),
                          np.linalg.norm(zs - c, axis=-1) - 0.1)

    return kx.DomainSpec("holed_ball", 2, kx.ball(2).constraints + [kx.Constraint(hole)],
                         bounding_radius=1.0, interior_point=interior_point, dist_fn=dist)


def _seeded_pairs(D, seed, count):
    rng = np.random.default_rng(seed)
    z = 0.45 * (rng.uniform(-1, 1, (4 * count, 2, D.dim))
                + 1j * rng.uniform(-1, 1, (4 * count, 2, D.dim)))
    z = z[np.all(kx.contains(D, z), axis=1)][:count]
    assert len(z) == count
    return z[:, 0], z[:, 1]


def _assert_rows_equal_scalar_calls(D, z1s, z2s):
    batch = kx.path_distance_upper_batch(D, z1s, z2s)
    assert batch.shape == (len(z1s),)
    scalar = [kx.path_distance_upper(D, a, b) for a, b in zip(z1s, z2s)]
    assert batch.tolist() == scalar
    return batch


@pytest.mark.parametrize("name", ["ball2", "polydisc", "ex21_omega"])
def test_path_batch_rows_equal_scalar_calls(name):
    # rows are independent: one batch is bitwise its one-row calls, a pair
    # whose chord passes through the anchor 0 included (its middle node sits
    # on the anchor and is dropped from the descent)
    D = kx.bundled_domain(name)
    z1s, z2s = _seeded_pairs(D, 25, 4)
    z1s = np.concatenate([z1s, [[0.3, 0.2j]]])
    z2s = np.concatenate([z2s, [[-0.3, -0.2j]]])
    _assert_rows_equal_scalar_calls(D, z1s, z2s)


def test_path_batch_chord_midpoint_anchor():
    # without an interior point each path bends toward its own chord's midpoint
    D = _cheap_ball_spec("ball_no_anchor")
    z1s, z2s = _seeded_pairs(D, 26, 4)
    batch = _assert_rows_equal_scalar_calls(D, z1s, z2s)
    anchored = kx.path_distance_upper_batch(_cheap_ball_spec("ball_anchored", (0, 0)),
                                            z1s, z2s)
    assert not np.array_equal(batch, anchored)


def test_path_batch_scores_outside_midpoints_inf(monkeypatch):
    # bumps toward the anchor 0 cross the hole: those midpoints are outside
    # and cost +inf, and the estimates stay finite.  Without an interior
    # point the paths of a pair stay on its chord's line and bend toward the
    # chord's midpoint: through the hole's centre, every path scores +inf
    seen = []
    real = kx.metrics.contains
    monkeypatch.setattr(kx.metrics, "contains",
                        lambda D, z: seen.append(inside := real(D, z)) or inside)
    batch = _assert_rows_equal_scalar_calls(_holed_ball((0, 0)),
                                            [[0.6, 0.0], [0.55, 0.2], [0.0, 0.5j]],
                                            [[0.6, 0.3], [0.5, -0.25j], [0.3, 0.5]])
    assert any(not inside.all() for inside in seen)
    assert np.all(np.isfinite(batch))
    chords = _assert_rows_equal_scalar_calls(_holed_ball(), [[0.15, 0.0], [0.6, 0.0]],
                                             [[0.45, 0.0], [0.6, 0.3]])
    assert chords[0] == math.inf and math.isfinite(chords[1])


@pytest.mark.xfail(strict=True, reason="midpoint-only checks let the descent "
                   "build a finite-cost polygon through the hole")
def test_path_batch_polygon_stays_inside_holed_ball(monkeypatch):
    # the final polygon, rebuilt from the midpoints of the last cost call as
    # node_{k+1} = 2 mid_k - node_k from z1, must lie in D at 201 points per
    # segment, or the estimate must be +inf
    D = _holed_ball((0, 0))
    z1, z2 = kx.cpoint(0.15, 0), kx.cpoint(0.45, 0)
    seen = []
    real = kx.metrics.contains
    monkeypatch.setattr(kx.metrics, "contains",
                        lambda D, z: seen.append(np.array(z)) or real(D, z))
    est = kx.path_distance_upper(D, z1, z2)
    if est == math.inf:
        return
    nodes = [z1]
    for mid in seen[-1]:
        nodes.append(2.0 * mid - nodes[-1])
    assert np.max(np.abs(nodes[-1] - z2)) <= 1e-12
    lam = np.linspace(0.0, 1.0, 201)[:, None]
    for p, q in zip(nodes[:-1], nodes[1:]):
        assert np.all(real(D, p + lam * (q - p)))


def test_path_batch_validates_rows(ball2):
    good = np.array([[0.1, 0.0], [0.0, 0.2]], dtype=complex)
    with pytest.raises(kx.DomainError, match="inside"):
        kx.path_distance_upper_batch(ball2, good, [[0.1, 0.1], [1.2, 0.0]])
    with pytest.raises(kx.DomainError, match="paired"):
        kx.path_distance_upper_batch(ball2, good, good[:1])
    with pytest.raises(kx.DomainError, match="paired"):
        kx.path_distance_upper_batch(ball2, good[0], good[1])
    with pytest.raises(kx.DomainError, match="dimension"):
        kx.path_distance_upper_batch(ball2, [[0.1, 0, 0]], [[0, 0.1, 0]])
    empty = kx.path_distance_upper_batch(ball2, np.zeros((0, 2)), np.zeros((0, 2)))
    assert empty.shape == (0,)


def test_fit_pair_constant_equals_per_pair_formula(ball2, monkeypatch):
    # one batch of the 2 + 3 paths to o and the 6 cross paths gives the K of
    # the per-pair scalar calls, bitwise
    o = kx.cpoint(0.1, 0.05j)
    vq = [kx.cpoint(0.9, 0), kx.cpoint(0.95, 0.1j)]
    vx = [kx.cpoint(0, 0.9), kx.cpoint(0.1j, 0.92), kx.cpoint(-0.2, 0.9)]
    kprime = max(kx.path_distance_upper(ball2, w1, o) + kx.path_distance_upper(ball2, w2, o)
                 - kx.path_distance_upper(ball2, w1, w2) for w1 in vq for w2 in vx)
    expected = max(0.0, kprime - math.log(kx.boundary_distance(ball2, o)))
    calls = []
    real = kx.metrics.path_distance_upper_batch
    monkeypatch.setattr(kx.metrics, "path_distance_upper_batch",
                        lambda *a: calls.append(len(a[1])) or real(*a))
    assert kx.fit_pair_constant(ball2, o, vq, vx) == expected
    assert calls == [2 + 3 + 6]


@pytest.mark.parametrize("vq,vx", [([], [(0, 0.9)]), ([(0.9, 0)], []), ([], [])])
def test_fit_pair_constant_rejects_empty_clouds(ball2, vq, vx):
    with pytest.raises(kx.DomainError, match="nonempty"):
        kx.fit_pair_constant(ball2, np.zeros(2, complex), vq, vx)


def test_dichotomy_demo_makes_two_path_batches(monkeypatch):
    # the pair constant's 15 paths and the separation constant's 4
    calls = []
    real = kx.metrics.path_distance_upper_batch
    monkeypatch.setattr(kx.metrics, "path_distance_upper_batch",
                        lambda *a: calls.append(len(a[1])) or real(*a))
    monkeypatch.setattr(kx.metrics, "path_distance_upper", None)
    scenarios.scenario_dichotomy_demo(0)
    assert calls == [15, 4]


# ---------------------------------------------------------------------------
# homogeneity of metric-type bounds
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_bounds_scale_linearly_in_v(lam):
    B = kx.ball(2)
    z = kx.cpoint(0.3, 0.2)
    v = kx.cpoint(0.5, -0.7j)
    lo1, hi1 = kx.graham_bounds(B, z, v)
    lo2, hi2 = kx.graham_bounds(B, z, lam * v)
    assert lo2.value == pytest.approx(lam * lo1.value, rel=1e-9)
    assert hi2.value == pytest.approx(lam * hi1.value, rel=1e-9)
    assert kx.kob_metric_ball_exact(z, lam * v) == \
        pytest.approx(lam * kx.kob_metric_ball_exact(z, v), rel=1e-9)
