import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kobex as kx
from kobex.domains import _bisect, _golden_min, _ray_exit


SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_contains_ball(ball2):
    assert bool(kx.contains(ball2, kx.cpoint(0.5, 0)))
    assert not bool(kx.contains(ball2, kx.cpoint(1.5, 0)))


def test_contains_omega_corner_sum(omega21):
    assert not bool(kx.contains(omega21, kx.cpoint(0.6, 0.6)))  # 1.2 >= 1
    assert bool(kx.contains(omega21, kx.cpoint(0.6, 0.3)))


def test_contains_flat_graph_domain(d22):
    # both defining inequalities evaluated directly
    z = kx.cpoint(0.5, 0)
    from kobex.domains import _phi_flat
    assert _phi_flat(np.array(0.0)) - 0.5 < 0
    assert 0.25 + 0.0 - 1.0 < 0
    assert bool(kx.contains(d22, z))


def test_contains_dimension_mismatch(ball2):
    with pytest.raises(kx.DomainError):
        kx.contains(ball2, np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------

def test_distance_ball_closed_form(ball2):
    assert kx.boundary_distance(ball2, kx.cpoint(0.5, 0)) == pytest.approx(0.5)


def test_distance_triangle_formula(omega21):
    # (1 - |z| - |w|)/sqrt(2), with arbitrary coordinate phases
    z = kx.cpoint(0.3 * np.exp(0.8j), 0.2 * np.exp(-2.2j))
    want = (1.0 - 0.5) / SQRT2
    assert kx.boundary_distance(omega21, z) == pytest.approx(want, abs=1e-12)
    assert kx.boundary_distance(omega21, z, method="reinhardt") == \
        pytest.approx(want, abs=1e-8)


def brute_force_d21_distance(x0, y0, n=200_001):
    """Independent oracle: dense sampling of the curve x^2 + y = 1 in the
    first quadrant plus golden polish of the best cell."""
    X = np.linspace(0.0, 1.0, n)
    Y = 1.0 - X ** 2
    d2 = (X - x0) ** 2 + (Y - y0) ** 2
    k = int(np.argmin(d2))
    lo, hi = max(0.0, X[k] - 2.0 / n), min(1.0, X[k] + 2.0 / n)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(x):
        return (x - x0) ** 2 + (1.0 - x * x - y0) ** 2

    c1, c2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(c1), f(c2)
    for _ in range(80):
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = f(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = f(c2)
    return math.sqrt(min(f1, f2))


def test_distance_d21_brute_force_oracle(d21):
    oracle = brute_force_d21_distance(0.95, 0.0)
    assert kx.boundary_distance(d21, kx.cpoint(0.95, 0)) == \
        pytest.approx(oracle, abs=1e-9)


def test_distance_outside_raises(ball2):
    with pytest.raises(kx.DomainError):
        kx.boundary_distance(ball2, kx.cpoint(2.0, 0))


def test_distance_unknown_method_raises(ball2):
    z = kx.cpoint(0.5, 0)
    with pytest.raises(kx.DomainError, match="unknown distance method"):
        kx.boundary_distance(ball2, z, method="bogus")
    with pytest.raises(kx.DomainError, match="unknown distance method"):
        kx.boundary_distance_batch(ball2, z[None, :], method="bogus")
    with pytest.raises(kx.DomainError, match="unknown distance method"):
        kx.nearest_boundary_point(ball2, z, method="bogus")


def test_reinhardt_method_needs_reinhardt_domain(d22):
    z = kx.cpoint(0.5, 0)
    with pytest.raises(kx.DomainError, match="not flagged Reinhardt"):
        kx.boundary_distance(d22, z, method="reinhardt")
    with pytest.raises(kx.DomainError, match="not flagged Reinhardt"):
        kx.boundary_distance_batch(d22, z[None, :], method="reinhardt")
    with pytest.raises(kx.DomainError, match="not flagged Reinhardt"):
        kx.nearest_boundary_point(d22, z, method="reinhardt")


def test_distance_generic_agrees_with_fast_paths(ball2, omega21, d22, rng):
    cases = [(ball2, kx.cpoint(0.3, 0.2j)),
             (omega21, kx.cpoint(0.25 * np.exp(1.1j), 0.4)),
             (d22, kx.cpoint(0.5, 0.3))]
    for D, z in cases:
        fast = kx.boundary_distance(D, z)
        slow = kx.boundary_distance(D, z, method="generic")
        assert slow == pytest.approx(fast, abs=1e-8 * (1 + np.linalg.norm(z)))


# ---------------------------------------------------------------------------
# directional distance
# ---------------------------------------------------------------------------

def test_directional_ball_axis(ball2):
    z = kx.cpoint(0.5, 0)
    assert kx.directional_distance(ball2, z, kx.cpoint(1, 0)) == \
        pytest.approx(0.5, abs=1e-9)
    assert kx.directional_distance(ball2, z, kx.cpoint(0, 1)) == \
        pytest.approx(math.sqrt(0.75), abs=1e-9)


def test_directional_production_matches_oracle(omega21):
    # production 256 phases + refinement against the 4096-phase oracle
    z = kx.cpoint(0.5, 0)
    v = kx.cpoint(0, 1)
    oracle = kx.directional_distance(omega21, z, v, n_phases=4096, refine=False)
    prod = kx.directional_distance(omega21, z, v)
    assert prod == pytest.approx(oracle, abs=1e-6)
    assert oracle == pytest.approx(0.5, abs=1e-6)  # exit at |z| + r = 1


def test_directional_ball_against_phase_oracle(ball2, rng):
    zs, vs = [], []
    while len(zs) < 40:
        z = (rng.random(2) - 0.5) * 1.8 + 1j * (rng.random(2) - 0.5) * 1.8
        if np.linalg.norm(z) < 0.9:
            zs.append(z)
            vs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zs, vs = np.array(zs), np.array(vs)
    oracle = kx.directional_distance_batch(ball2, zs, vs, n_phases=4096,
                                           refine=False)
    prod = kx.directional_distance_batch(ball2, zs, vs)
    assert np.max(np.abs(prod - oracle)) < 1e-6


def test_directional_phase_invariance(ball2, omega21, rng):
    # delta(z; lambda v) = delta(z; v) for every nonzero complex lambda
    for D in (ball2, omega21):
        z = kx.cpoint(0.2, 0.3)
        v = kx.cpoint(0.7 + 0.2j, -0.4)
        base = kx.directional_distance(D, z, v)
        for lam in (2.0, -3.0, 1j, 0.5 * np.exp(1.7j)):
            assert kx.directional_distance(D, z, lam * v) == \
                pytest.approx(base, abs=1e-8)


def test_directional_zero_direction_raises(ball2):
    with pytest.raises(kx.DomainError):
        kx.directional_distance(ball2, kx.cpoint(0, 0), kx.cpoint(0, 0))


def test_directional_batch_rejects_outside_rows(ball2):
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.directional_distance_batch(ball2, [[2.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.directional_distance_batch(ball2, [[0.1, 0.0], [2.0, 0.0]],
                                      [[1.0, 0.0], [1.0, 0.0]])


def test_bisect_reaches_sqrt2():
    lo, hi = _bisect(lambda x: x * x < 2.0, 1.0, 2.0, 60)
    assert abs(lo - math.sqrt(2.0)) < 1e-12
    assert abs(hi - math.sqrt(2.0)) < 1e-12


def test_bisect_scalar_and_array_brackets_agree():
    def inside(x):
        return np.cos(x) > 0.3 * x

    ls, hs = _bisect(inside, 0.0, 2.0, 40)
    la, ha = _bisect(inside, np.array([0.0]), np.array([2.0]), 40)
    assert la.shape == ha.shape == (1,)
    assert float(ls) == la[0] and float(hs) == ha[0]


def test_bisect_rows_are_independent():
    targets = np.array([2.0, 3.0, 5.0, 7.0])
    lo, hi = _bisect(lambda x: x * x < targets, np.ones(4), np.full(4, 3.0), 50)
    for k, c in enumerate(targets):
        lk, hk = _bisect(lambda x: x * x < c, 1.0, 3.0, 50)
        assert lo[k] == float(lk) and hi[k] == float(hk)


def test_golden_min_scalar_and_array_brackets_agree():
    def f(x):
        return np.cos(3.0 * x) + 0.1 * x * x

    ts, fs = _golden_min(f, 0.2, 1.9, 40)
    ta, fa = _golden_min(f, np.array([0.2]), np.array([1.9]), 40)
    assert ta.shape == fa.shape == (1,)
    assert ts == ta[0] and fs == fa[0]


def test_golden_min_finds_quadratic_minimizer():
    t, fmin = _golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 60)
    assert abs(t - 0.3) < 1e-9
    assert fmin < 1e-18


def test_disc_radius_dominates_point_distance(ball2, omega21, d21, d22, rng):
    # delta(z) <= delta(z; v): the largest inscribed disc through z reaches
    # at least as far as the nearest boundary point in its worst direction
    for D in (ball2, omega21, d21, d22, kx.polydisc((1.0, 1.0))):
        zs, vs = [], []
        while len(zs) < 1000:
            z = (rng.random(2) - 0.5) * 2 + 1j * (rng.random(2) - 0.5) * 2
            if bool(kx.contains(D, z)):
                zs.append(z)
                vs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        zs, vs = np.array(zs), np.array(vs)
        deltas = kx.boundary_distance_batch(D, zs)
        ddirs = kx.directional_distance_batch(D, zs, vs, n_phases=64)
        assert np.all(deltas <= ddirs + 1e-9)


# ---------------------------------------------------------------------------
# nearest boundary point
# ---------------------------------------------------------------------------

def test_nearest_ball(ball2):
    xi = kx.nearest_boundary_point(ball2, kx.cpoint(0.5, 0))
    assert np.allclose(xi, [1.0, 0.0])


def test_nearest_d21_matches_cubic_root(d21):
    # the nearest point on the curve y = 1 - x^2 from (0.95, 0) solves
    # 2X^3 + (2 y0 - 1) X - x0 = 0; bisection oracle, then substitute
    roots = np.roots([2.0, 0.0, -1.0, -0.95])
    X_oracle = float(roots[np.isreal(roots)].real.max())
    X, Y = kx.nearest_point_cubic(0.95, 0.0)
    assert X == pytest.approx(X_oracle, abs=1e-12)
    assert X == pytest.approx(0.9898774558, abs=1e-9)
    xi = kx.nearest_boundary_point(d21, kx.cpoint(0.95, 0))
    assert xi[0].real == pytest.approx(X, abs=1e-6)
    assert xi[1].real == pytest.approx(1 - X * X, abs=1e-6)
    r1, r2 = kx.lagrange_residuals(0.95, 0.0, xi[0].real, xi[1].real)
    assert abs(r1) <= 1e-4 and abs(r2) <= 1e-4


def test_nearest_point_is_on_boundary(ball2, omega21, d21, d22, rng):
    for D in (ball2, omega21, d21, d22):
        for _ in range(5):
            z = (rng.random(2) - 0.5) * 0.8 + 1j * (rng.random(2) - 0.5) * 0.8
            if not bool(kx.contains(D, z)):
                continue
            xi = kx.nearest_boundary_point(D, z)
            assert abs(float(D.value(xi))) < 1e-10
            gap = np.linalg.norm(z - xi)
            delta = kx.boundary_distance(D, z)
            assert abs(gap - delta) <= 1e-8 * (1 + np.linalg.norm(z))


def test_nearest_midpoint_interior_for_strict_convexity(ball2, rng):
    for _ in range(50):
        z = (rng.random(2) - 0.5) + 1j * (rng.random(2) - 0.5)
        if np.linalg.norm(z) >= 0.95:
            continue
        xi = kx.nearest_boundary_point(ball2, z)
        assert bool(kx.contains(ball2, 0.5 * (z + xi)))


def test_reinhardt_reduction_consistency(d21, omega21):
    # distance computed directly (generic search) equals the distance of the
    # moduli point computed on the real slice
    for D in (d21, omega21):
        z = kx.cpoint(0.4 * np.exp(0.9j), 0.35 * np.exp(-1.7j))
        direct = kx.boundary_distance(D, z, method="generic")
        slice_pt = kx.cpoint(abs(z[0]), abs(z[1]))
        reduced = kx.boundary_distance(D, slice_pt, method="reinhardt")
        assert direct == pytest.approx(reduced, abs=1e-8)


# ---------------------------------------------------------------------------
# inward normals
# ---------------------------------------------------------------------------

def test_inward_normal_ball(ball2):
    eta = kx.inward_normal(ball2, kx.cpoint(1, 0))
    assert np.allclose(eta, [-1.0, 0.0], atol=1e-12)


def test_inward_normal_flat_graph_origin(d22):
    eta = kx.inward_normal(d22, kx.cpoint(0, 0))
    assert np.allclose(eta, [1.0, 0.0], atol=1e-12)


def test_inward_normal_corner_raises(omega21):
    with pytest.raises(kx.NonSmoothBoundaryError):
        kx.inward_normal(omega21, kx.cpoint(1, 0))


def test_inward_normal_fd_matches_analytic(ball2):
    xi = kx.cpoint(math.sqrt(0.5), math.sqrt(0.5) * 1j)
    eta = kx.inward_normal(ball2, xi)
    D_no_grad = kx.DomainSpec("ball-nograd", 2,
                              [lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0],
                              is_convex=True, bounding_radius=1.0)
    eta_fd = kx.inward_normal(D_no_grad, xi)
    assert np.allclose(eta, eta_fd, atol=1e-8)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_cone_contains_basic():
    cone = kx.ConeSpec(vertex=np.zeros(2, complex),
                       axis=np.array([1, 0], complex), aperture=math.pi / 2)
    assert bool(kx.cone_contains(cone, kx.cpoint(1, 0)))     # 1 > cos(pi/4)
    assert not bool(kx.cone_contains(cone, kx.cpoint(0, 1)))  # orthogonal


def test_cone_scale_invariance():
    cone = kx.ConeSpec(vertex=np.zeros(2, complex),
                       axis=np.array([1, 0], complex), aperture=2.0)
    z = kx.cpoint(0.9, 0.3 + 0.2j)
    assert bool(kx.cone_contains(cone, z)) == bool(kx.cone_contains(cone, 2 * z))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, math.pi - 0.1), st.integers(0, 2 ** 31 - 1))
def test_cone_unitary_invariance(theta, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(a)
    axis = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    axis /= np.linalg.norm(axis)
    vertex = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z = vertex + rng.standard_normal(2) + 1j * rng.standard_normal(2)
    cone = kx.ConeSpec(vertex=vertex, axis=axis, aperture=theta)
    cone_rot = kx.ConeSpec(vertex=U @ vertex, axis=U @ axis, aperture=theta)
    assert bool(kx.cone_contains(cone, z)) == \
        bool(kx.cone_contains(cone_rot, U @ z))


def test_cone_certificate_sphere_tangency(ball2):
    # interior tangent cones of a sphere open up as the sample approaches
    # the boundary
    W = kx.ball(2, center=(1.0, 0.0), radius=0.5, name="W")
    samples = [kx.cpoint(1 - 1e-3, 0), kx.cpoint(1 - 2e-3, 0)]
    cert = kx.certify_cone_condition(ball2, W, samples)
    assert cert.violation_count == 0
    assert cert.theta > 3.0
    assert cert.r >= 2e-3


def test_cone_certificate_flat_boundary():
    H = kx.halfspace(np.array([1.0, 0.0]), 0.0, truncate=4.0)
    W = kx.ball(2, center=(-0.05, 0.0), radius=0.3, name="W")
    samples = [kx.cpoint(-0.01, 0), kx.cpoint(-0.02, 0)]
    cert = kx.certify_cone_condition(H, W, samples)
    assert cert.violation_count == 0
    assert cert.theta > 2.9


def test_cone_certificate_corner_stays_narrow(omega21):
    W = kx.ball(2, center=(1.0, 0.0), radius=0.4, name="W")
    samples = [kx.cpoint(1 - 5e-3, 0), kx.cpoint(1 - 1e-2, 0)]
    cert = kx.certify_cone_condition(omega21, W, samples)
    assert cert.violation_count == 0
    assert cert.theta < 2.0


# ---------------------------------------------------------------------------
# ray casting internals
# ---------------------------------------------------------------------------

def test_ray_exit_matches_sphere_crossing(ball2):
    z = kx.cpoint(0.2, 0.1)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    t = _ray_exit(ball2, z, dirs)
    # solve |z + t d| = 1 per direction
    for k, d in enumerate(dirs):
        h = np.real(np.sum((z) * np.conj(d)))
        expect = -h + math.sqrt(h * h + 1 - np.linalg.norm(z) ** 2)
        assert t[k] == pytest.approx(expect, abs=1e-12)


def test_unbounded_domain_rejected():
    D = kx.DomainSpec("open", 1, [lambda z: -np.ones(np.asarray(z).shape[:-1])])
    with pytest.raises(kx.DomainError):
        kx.boundary_distance(D, np.zeros(1, complex), method="generic")
