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
    with pytest.raises(ValueError):
        kx.MetricBound(1.0, "lower", "mystery")
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
# log-type convexity fitting
# ---------------------------------------------------------------------------

def _boundary_band_samples(rng, count_per_band, bands):
    # mix random directions with exact tangential ones: the widest discs
    # hug the sphere, and random draws almost never come near tangency at
    # small delta, so the envelope needs the tangential probes
    samples = []
    for k in bands:
        for j in range(count_per_band):
            d = 2.0 ** -k * (0.7 + 0.6 * rng.random())
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            z = (1.0 - d) * (u[:2] + 1j * u[2:])
            if j % 2 == 0:
                v = np.array([-np.conj(z[1]), np.conj(z[0])])  # <v, z> = 0
            else:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            samples.append((z, v))
    return samples


def test_ltc_fit_ball(ball2, rng):
    fit = kx.ltc_fit(ball2, _boundary_band_samples(rng, 25, range(2, 12)))
    assert fit.nu >= 0.05
    assert fit.max_violation <= 0.0
    # held-out samples from the same construction stay below the envelope
    held = _boundary_band_samples(np.random.default_rng(7), 25, range(2, 12))
    zs = np.array([z for z, _ in held])
    vs = np.array([v for _, v in held])
    deltas = kx.boundary_distance_batch(ball2, zs)
    ddirs = kx.directional_distance_batch(ball2, zs, vs)
    envelope = fit.C / np.abs(np.log(deltas)) ** (1.0 + fit.nu)
    assert float(np.max(ddirs - envelope)) <= 0.0


def test_ltc_fit_polydisc_flat_face_fails(rng):
    P = kx.polydisc((1.0, 1.0))
    samples = []
    for k in range(2, 12):
        for _ in range(10):
            d = 2.0 ** -k * (0.7 + 0.6 * rng.random())
            z = np.array([1.0 - d, 0.1 * rng.random()], dtype=complex)
            samples.append((z, np.array([0.0, 1.0], dtype=complex)))
    with pytest.raises(kx.NotLogTypeConvex):
        kx.ltc_fit(P, samples)


def _mild_flat_local(radius=0.75):
    """{ Re z > exp(-1/sqrt(|w|)) } cap B(0, radius): infinite type at the
    origin yet with disc radii decaying like |log delta|^(-2)."""
    from kobex.domains import _wall_distance

    def profile(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            val = np.exp(-1.0 / np.sqrt(np.where(s > 0, s, 1.0)))
        return np.where(s > 0, val, 0.0)

    def g1(z):
        return profile(np.abs(z[..., 1])) - np.real(z[..., 0])

    def g2(z):
        return np.sum(np.abs(z) ** 2, axis=-1) - radius * radius

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        d1 = _wall_distance(zs2, profile)
        d2 = radius - np.linalg.norm(zs2, axis=-1)
        return np.minimum(d1, d2)

    return kx.DomainSpec("mild-flat", 2, [kx.Constraint(g1), kx.Constraint(g2)],
                         is_convex=True, bounding_radius=radius,
                         interior_point=np.array([0.3, 0], dtype=complex),
                         dist_fn=dist)


def _flat_approach_samples(rng, bands, per_band=10):
    samples = []
    for k in bands:
        for _ in range(per_band):
            d = 2.0 ** -k * (0.75 + 0.5 * rng.random())
            z = np.array([d, 0.0], dtype=complex)
            v = np.array([0.0, 1.0], dtype=complex) if rng.random() < 0.5 else \
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
            samples.append((z, v))
    return samples


def test_ltc_fit_mild_flat_succeeds(rng):
    # exponent-1/2 flatness keeps the fat directions summable: the fitted
    # exponent approaches 1/ (1/2) - 1 = 1
    M = _mild_flat_local()
    fit = kx.ltc_fit(M, _flat_approach_samples(rng, range(4, 14), 8))
    assert fit.nu >= 0.5
    assert fit.max_violation <= 0.0
    held = _flat_approach_samples(np.random.default_rng(23), range(4, 14), 8)
    zs = np.array([z for z, _ in held])
    vs = np.array([v for _, v in held])
    deltas = kx.boundary_distance_batch(M, zs)
    ddirs = kx.directional_distance_batch(M, zs, vs)
    envelope = fit.C / np.abs(np.log(deltas)) ** (1.0 + fit.nu)
    assert float(np.max(ddirs - envelope)) <= 0.0


def test_ltc_fit_quadratic_flatness_is_rejected(omega22_local, rng):
    # along the flat approach the widest disc decays like
    # |log delta|^(-1/2), slower than any admissible envelope exponent
    z = kx.cpoint(1e-6, 0)
    dv = kx.directional_distance(omega22_local, z, kx.cpoint(0, 1))
    assert dv == pytest.approx(1.0 / math.sqrt(math.log(1e6)), rel=1e-3)
    with pytest.raises(kx.NotLogTypeConvex):
        kx.ltc_fit(omega22_local, _flat_approach_samples(rng, range(4, 14), 8))


def test_ltc_metric_lower_bound_values():
    fit = kx.LtcFit(C=0.5, nu=1.0, sample_count=1, max_violation=0.0)
    b = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0),
                                  math.exp(-1.0), c=1.0)
    assert b.value == pytest.approx(1.0)
    b = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0),
                                  math.exp(-2.0), c=1.0)
    assert b.value == pytest.approx(4.0)
    # default scale ties to the fitted envelope
    b = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0),
                                  math.exp(-1.0))
    assert b.value == pytest.approx(1.0 / (2 * 0.5))


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 0.5), st.floats(1e-6, 0.5))
def test_ltc_lower_bound_monotone(d1, d2):
    fit = kx.LtcFit(C=1.0, nu=1.0, sample_count=1, max_violation=0.0)
    lo, hi = min(d1, d2), max(d1, d2)
    blo = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0), lo)
    bhi = kx.ltc_metric_lower_bound(fit, np.zeros(2, complex), kx.cpoint(1, 0), hi)
    assert blo.value >= bhi.value - 1e-12


# ---------------------------------------------------------------------------
# distance-bound formulas
# ---------------------------------------------------------------------------

def test_pair_lower_bound_values():
    d = math.exp(-2.0)
    assert kx.pair_lower_bound(d, d, 1.0).value == pytest.approx(1.0)
    assert kx.pair_lower_bound(1.0, 1.0, 0.0).value == 0.0


def test_pair_lower_bound_additivity():
    d1, d2, K = 0.07, 0.3, 0.9
    whole = kx.pair_lower_bound(d1, d2, K).constants["raw"]
    parts = (kx.pair_lower_bound(d1, 1.0, 0.0).constants["raw"]
             + kx.pair_lower_bound(1.0, d2, 0.0).constants["raw"] - K)
    assert whole == pytest.approx(parts)


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
            lb = kx.pair_lower_bound(kx.boundary_distance(ball2, w1),
                                     kx.boundary_distance(ball2, w2), K)
            assert lb.value <= est + 1e-6


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
