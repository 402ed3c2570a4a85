import math

import numpy as np
import pytest

import kobex as kx
import kobex.domains as dm
from kobex.domains import RAY_CHUNK, ZOOM_K, ZOOM_ROUNDS, _halton, _ray_exit, _zoom_min


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
    # rows are checked before the method
    for entry in (kx.boundary_distance, kx.nearest_boundary_point):
        with pytest.raises(kx.DomainError, match="outside the closure"):
            entry(ball2, kx.cpoint(2.0, 0), method="bogus")


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


# Points of the point-queries benchmark (seeds 7, 61 and 64) where the
# generic search stops at its round cap above the true distance.
GENERIC_OVERSHOOT_POINTS = [
    ("ex21_omega", (-0.020941722439156978 - 0.001546772404501031j,
                    0.08316921866364173 - 0.158506536909752j)),
    ("ex21_omega", (-0.06671492806127634 - 0.013378375063176122j,
                    0.06958843802880972 - 0.1121163436751587j)),
    ("ball2", (0.004464462410943745 - 0.19745013222137014j,
               -0.028164060798966162 - 0.014152722015799807j)),
]


@pytest.mark.xfail(strict=True, reason="the generic search overshoots at its "
                   "round cap; ROADMAP item 1 (a generic boundary search that "
                   "converges)")
@pytest.mark.parametrize("name,z", GENERIC_OVERSHOOT_POINTS)
def test_generic_distance_does_not_overshoot(name, z):
    z = np.array(z)
    if name == "ball2":
        ref = 1.0 - np.linalg.norm(z)
    else:  # corner law of ex21_omega
        ref = (1.0 - np.abs(z[0]) - np.abs(z[1])) / SQRT2
    got = kx.boundary_distance(kx.bundled_domain(name), z, method="generic")
    assert got - ref <= 1e-8 * (1 + np.linalg.norm(z))


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


def test_directional_flat_approach_decays_like_inverse_sqrt_log(omega22_local):
    # infinite type: along the flat approach to the origin the widest disc
    # in the flat direction decays like |log delta|^(-1/2)
    dv = kx.directional_distance(omega22_local, kx.cpoint(1e-6, 0), kx.cpoint(0, 1))
    assert dv == pytest.approx(1.0 / math.sqrt(math.log(1e6)), rel=1e-3)


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


@pytest.mark.parametrize("v", [(math.inf, 0.0), (math.nan, 0.0), (0.3, -math.inf)])
def test_directional_rejects_a_non_finite_direction(ball2, v):
    # the ray kernel would otherwise return its cap as a distance
    with pytest.raises(kx.DomainError, match="finite"):
        kx.directional_distance(ball2, (0.1, 0.2), v)
    with pytest.raises(kx.DomainError, match="finite"):
        kx.directional_distance_batch(ball2, [[0.1, 0.2], [0.0, 0.1]], [[1.0, 0.0], v])


@pytest.mark.parametrize("n_phases", [2.5, 4.0, 0, -3])
def test_directional_rejects_a_bad_phase_count(ball2, n_phases):
    with pytest.raises(kx.DomainError, match="n_phases"):
        kx.directional_distance(ball2, (0.1, 0.2), (1.0, 0.0), n_phases=n_phases)


@pytest.mark.parametrize("vs", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0, 0.5]])
def test_directional_batch_rejects_unpaired_directions(ball2, vs):
    zs = [[0.1, 0.0], [0.0, 0.1], [0.2, 0.2j]]
    with pytest.raises(kx.DomainError, match="pair with the points"):
        kx.directional_distance_batch(ball2, zs, vs)


def test_directional_batch_rejects_outside_rows(ball2):
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.directional_distance_batch(ball2, [[2.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.directional_distance_batch(ball2, [[0.1, 0.0], [2.0, 0.0]],
                                      [[1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("n_phases", [1, 2, 3, 256])
def test_directional_ball_matches_disc_radius_for_any_phase_count(ball2, n_phases):
    # the zoom's first bracket is the phase spacing 2 pi / n_phases, so even
    # one sampled phase refines to the closed-form disc radius, the root of
    # r^2 + 2 r |<z, u>| + |z|^2 = 1
    rng = np.random.default_rng(0)
    for _ in range(6):
        z = (rng.random(2) - 0.5) + 1j * (rng.random(2) - 0.5)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = abs(kx.hermitian_inner(z, v / np.linalg.norm(v)))
        exact = math.sqrt(p * p + 1.0 - np.linalg.norm(z) ** 2) - p
        got = kx.directional_distance(ball2, z, v, n_phases=n_phases)
        assert abs(got - exact) <= 1e-12 * exact


@pytest.mark.parametrize("name", ["ball2", "ex21_d"])
def test_boundary_distance_batch_rejects_outside_rows(name):
    D = kx.bundled_domain(name)
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.boundary_distance_batch(D, [[2.0, 0.0]])
    with pytest.raises(kx.DomainError, match="outside the closure"):
        kx.boundary_distance_batch(D, [[0.1, 0.0], [2.0, 0.0]])


def test_zoom_min_finds_per_row_quadratic_minimizers():
    centers = np.array([0.013, 0.3, 0.5, 0.777, 0.99])
    grid = np.linspace(0.0, 1.0, 11)
    x, fmin = _zoom_min(lambda t, _: (t - centers[:, None]) ** 2, grid, 0.1)
    assert x.shape == fmin.shape == centers.shape
    assert np.all(np.abs(x - centers) <= 0.1 * (2.0 / (ZOOM_K + 1)) ** ZOOM_ROUNDS)
    assert np.array_equal(fmin, (x - centers) ** 2)


def test_zoom_min_shared_grid_equals_tiled_grid():
    shifts = np.array([0.2, 1.1, 2.9, 4.0])

    def f(t, _):
        return np.cos(3.0 * t + shifts[:, None]) + 0.1 * t * t

    grid = np.linspace(-2.0, 2.0, 33)
    xs, fs = _zoom_min(f, grid, grid[1] - grid[0], -2.0, 2.0)
    xt, ft = _zoom_min(f, np.tile(grid, (shifts.size, 1)), grid[1] - grid[0], -2.0, 2.0)
    assert np.array_equal(xs, xt) and np.array_equal(fs, ft)


def test_zoom_min_stays_inside_its_clip_bounds():
    centers = np.array([-0.5, 0.0004, 0.9996, 1.7])
    lo, hi = 0.0, 1.0
    x, _ = _zoom_min(lambda t, _: (t - centers[:, None]) ** 2, np.linspace(lo, hi, 9),
                     0.125, lo, hi)
    assert np.all((lo <= x) & (x <= hi))
    shrink = (2.0 / (ZOOM_K + 1)) ** ZOOM_ROUNDS
    assert np.all(np.abs(x - np.clip(centers, lo, hi)) <= 0.125 * shrink)


@pytest.mark.parametrize("m", [1, 7, 11])
def test_zoom_lookahead_keeps_per_row_clip_bounds(m):
    # 7 rows look one round ahead, so a round's 7 states per row must not
    # meet the (m,) clip bounds along the wrong axis
    centers = np.linspace(-0.5, 1.7, m)
    lo, hi = np.linspace(0.0, 0.3, m), np.linspace(1.0, 0.7, m)

    def f(t, _, rows=slice(None)):
        return (t - centers[rows, None]) ** 2

    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 9)
    ahead = _zoom_min(f, grid, (hi - lo) / 8, lo, hi, lookahead=True)
    plain = _zoom_min(f, grid, (hi - lo) / 8, lo, hi)
    assert np.array_equal(ahead[0], plain[0]) and np.array_equal(ahead[1], plain[1])
    assert np.all((lo <= ahead[0]) & (ahead[0] <= hi))


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
    # 2X^3 + (2 y0 - 1) X - x0 = 0; np.roots oracle, then substitute
    roots = np.roots([2.0, 0.0, -1.0, -0.95])
    X_oracle = float(roots[np.isreal(roots)].real.max())
    X, Y = kx.nearest_point_cubic(0.95, 0.0)
    assert X == pytest.approx(X_oracle, abs=1e-12)
    assert X == pytest.approx(0.9898774558, abs=1e-9)
    xi = kx.nearest_boundary_point(d21, kx.cpoint(0.95, 0))
    assert xi[0].real == pytest.approx(X, abs=1e-6)
    assert xi[1].real == pytest.approx(1 - X * X, abs=1e-6)
    # stationarity residuals: the eliminated cubic and the collinearity
    # condition vanish at the nearest point
    x0, y0 = 0.95, 0.0
    Xn, Yn = xi[0].real, xi[1].real
    assert abs(2.0 * Xn ** 3 + (2.0 * y0 - 1.0) * Xn - x0) <= 1e-4
    assert abs((Xn - x0) - 2.0 * Xn * (Yn - y0)) <= 1e-4


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



def test_nearest_point_on_polydisc_in_c3():
    # the moduli-section reduction is two-dimensional: in C^3 the nearest
    # point comes from the generic search, not from a real-part fallback
    P = kx.polydisc((1.0, 1.0, 1.0))
    z = np.zeros(3, dtype=complex)
    xi = kx.nearest_boundary_point(P, z)
    assert abs(float(P.value(xi))) <= 1e-8
    assert abs(np.linalg.norm(xi - z) - 1.0) <= 1e-8
    with pytest.raises(kx.DomainError, match="needs C\\^2"):
        kx.nearest_boundary_point(P, z, method="reinhardt")
    with pytest.raises(kx.DomainError, match="needs C\\^2"):
        kx.boundary_distance_batch(P, z[None, :], method="reinhardt")

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


def test_inward_normal_where_two_constraints_meet(d22):
    # (i, 0) lies on both the graph Re z = phi(|w|^2) and |z|^2 + |w|^4 = 1
    assert [float(c(kx.cpoint(1j, 0))) for c in d22.constraints] == [0.0, 0.0]
    with pytest.raises(kx.NonSmoothBoundaryError, match="2 active constraints"):
        kx.inward_normal(d22, kx.cpoint(1j, 0))


def test_inward_normal_fd_matches_analytic(ball2):
    xi = kx.cpoint(math.sqrt(0.5), math.sqrt(0.5) * 1j)
    eta = kx.inward_normal(ball2, xi)
    D_no_grad = kx.DomainSpec("ball-nograd", 2,
                              [lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0],
                              is_convex=True, bounding_radius=1.0)
    eta_fd = kx.inward_normal(D_no_grad, xi)
    assert np.allclose(eta, eta_fd, atol=1e-8)


def _bundled_constraints():
    doms = [kx.bundled_domain(name) for name in sorted(kx.BUNDLED)]
    doms.append(kx.halfspace(np.array([1.0, -1j]), 0.2))
    return [pytest.param(c, id="%s-%d" % (D.name, i))
            for D in doms for i, c in enumerate(D.constraints)]


@pytest.mark.parametrize("c", _bundled_constraints())
def test_bundled_gradients_and_smooth_flags_take_rows(c):
    rng = np.random.default_rng(7)
    zs = (rng.random((400, 2)) - 0.5) * 1.6 + 1j * (rng.random((400, 2)) - 0.5) * 1.6
    zs = zs[np.all(np.abs(zs) > 0.05, axis=-1)]
    if c.smooth is not None:
        flags = c.smooth(zs)
        assert flags.shape == zs.shape[:1] and flags.dtype == bool
        zs = zs[flags]
    g = c.grad(zs)
    assert g.shape == zs.shape
    h = 1e-6
    e = h * np.concatenate([np.eye(2), 1j * np.eye(2)])
    der = (c(zs[:, None] + e) - c(zs[:, None] - e)) / (2.0 * h)
    fd = der[:, :2] + 1j * der[:, 2:]
    assert np.all(np.linalg.norm(g - fd, axis=-1) <= 1e-6 * np.linalg.norm(g, axis=-1))
    for k in (0, len(zs) // 2, len(zs) - 1):
        assert np.array_equal(c.grad(zs[k]), g[k])
        assert np.array_equal(c.grad(zs[k:k + 1])[0], g[k])
        if c.smooth is not None:
            assert bool(c.smooth(zs[k])) and c.smooth(zs[k:k + 1]).tolist() == [True]


def test_inward_normal_rows_equal_one_row_calls(ball2, d22, rng):
    u = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    on_sphere = u / np.linalg.norm(u, axis=-1, keepdims=True)
    w = (0.5 + 0.4 * rng.random(20)) * np.exp(2j * math.pi * rng.random(20))
    on_graph = np.stack([dm._phi_flat(np.abs(w) ** 2) + 0.2j * (rng.random(20) - 0.5), w],
                        axis=-1)
    for D, xis in ((ball2, on_sphere), (d22, on_graph)):
        rows = kx.inward_normal(D, xis)
        assert rows.shape == xis.shape
        for xi, eta in zip(xis, rows):
            assert np.array_equal(kx.inward_normal(D, xi), eta)
    assert np.max(np.abs(kx.inward_normal(d22, on_graph)[:, 1])) > 0.1


def test_inward_normal_one_bad_row_fails_the_call(ball2, omega21, rng):
    a = 0.2 + 0.6 * rng.random(5)
    smooth = np.stack([a * np.exp(2j * math.pi * rng.random(5)),
                       (1.0 - a) * np.exp(2j * math.pi * rng.random(5))], axis=-1)
    assert kx.inward_normal(omega21, smooth).shape == (5, 2)
    with pytest.raises(kx.NonSmoothBoundaryError):
        kx.inward_normal(omega21, np.insert(smooth, 2, [1.0, 0.0], axis=0))
    on_sphere = np.array([[1.0, 0.0], [0.0, 1j], [0.6, 0.8]], dtype=complex)
    assert kx.inward_normal(ball2, on_sphere).shape == (3, 2)
    with pytest.raises(kx.DomainError, match="not on the boundary"):
        kx.inward_normal(ball2, np.insert(on_sphere, 1, [0.5, 0.0], axis=0))


# ---------------------------------------------------------------------------
# ray casting internals
# ---------------------------------------------------------------------------

def test_ray_exit_matches_sphere_crossing(ball2):
    z = kx.cpoint(0.2, 0.1)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    t = _ray_exit(ball2, z[None], dirs[None])[0]
    # solve |z + t d| = 1 per direction
    for k, d in enumerate(dirs):
        h = np.real(np.sum((z) * np.conj(d)))
        expect = -h + math.sqrt(h * h + 1 - np.linalg.norm(z) ** 2)
        assert t[k] == pytest.approx(expect, abs=1e-12)


def _unit_rows(rng, m, dim=2):
    g = rng.standard_normal((m, 2 * dim))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    return g[:, :dim] + 1j * g[:, dim:]


def test_ray_exit_within_4eps_of_sphere_crossing(ball2):
    rng = np.random.default_rng(8)
    m = 10_000
    # origins in |z| <= 0.5, where the crossing is well conditioned: the
    # oracle's rounding moves it by about eps there
    zs = 0.5 * rng.random((m, 1)) ** 0.25 * _unit_rows(rng, m)
    dirs = _unit_rows(rng, m)
    t = _ray_exit(ball2, zs, dirs[:, None])[:, 0]
    zl, dl = zs.astype(np.clongdouble), dirs.astype(np.clongdouble)
    h = np.real(np.sum(zl * np.conj(dl), axis=-1))
    c = 1 - np.sum(np.abs(zl) ** 2, axis=-1)
    exact = c / (h + np.sqrt(h * h + c))
    assert np.max(np.abs(t - exact) / exact) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", ["ex21_d", "ex22_omega"])
def test_ray_exit_brackets_the_first_crossing(name, rng):
    D = kx.bundled_domain(name)
    zs = D.interior_point + 0.3 * _unit_rows(rng, 400) * rng.random((400, 1))
    zs = zs[kx.contains(D, zs)]
    dirs = _unit_rows(rng, len(zs))
    t = _ray_exit(D, zs, dirs[:, None])
    assert np.all(kx.contains(D, zs + t * (1 - 1e-13) * dirs))
    assert not np.any(kx.contains(D, zs + t * (1 + 1e-13) * dirs))


@pytest.mark.parametrize("convex", [True, False])
def test_ray_exit_resolves_a_jump_by_bisection(convex):
    # a two-valued constraint gives inverse interpolation nothing to use
    D = kx.DomainSpec("jump", 2, [lambda z: np.where(np.linalg.norm(z, axis=-1) < 0.5,
                                                     -1.0, 1.0)],
                      is_convex=convex, bounding_radius=1.0)
    t = _ray_exit(D, np.zeros((1, 2), complex), _unit_rows(np.random.default_rng(3), 16)[None])
    assert np.max(np.abs(t - 0.5)) <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("convex", [True, False])
def test_ray_exit_crosses_a_plateau_of_exact_zeros(convex):
    # every outside point reads exactly 0, so each step that lands outside
    # gives interpolation nothing to use and the bracket must keep halving
    D = kx.DomainSpec("plateau", 2, [lambda z: np.minimum(np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
                                                          0.0)],
                      is_convex=convex, bounding_radius=1.0)
    zs = np.array([[0.5, 0.2j]])
    dirs = _unit_rows(np.random.default_rng(6), 64)
    t = _ray_exit(D, zs, dirs[None])[0][:, None]
    assert np.all(kx.contains(D, zs + t * (1 - 1e-13) * dirs))
    assert not np.any(kx.contains(D, zs + t * (1 + 1e-13) * dirs))


def test_ray_exit_through_exact_zeros_keeps_its_step_budget(ball2, monkeypatch):
    # a phase ray of a 4096-phase ball2 scan whose oracle reads exactly 0 over
    # a stretch of its bracket; stepping just inside each new zero and
    # doubling that step while zeros repeat settles it in 20 oracle calls,
    # where alternating 2-eps steps with bisections took 75
    z = np.array([0.00076562999162499 - 0.436303450737775j, 0.6409706006342057 + 0.5967190862968792j])
    d = np.array([0.8698100981751579 + 0.11548386310287943j,
                  0.4791400632452546 - 0.02277433355097045j])
    calls = []
    real = ball2.value
    monkeypatch.setattr(ball2, "value", lambda x: calls.append(1) or real(x))
    t = _ray_exit(ball2, z[None], d[None, None])[0, 0]
    assert len(calls) <= 24
    assert kx.contains(ball2, z + t * (1 - 1e-13) * d)
    assert not kx.contains(ball2, z + t * (1 + 1e-13) * d)


def test_convex_exits_reject_a_short_bounding_radius():
    # the cap |z| + 2 R + 1 stays inside the disc of radius 5, so the rays do
    # not leave within it; both scans start unbounded, where the root finder
    # checks every convex ray's cap point, and the march of the disc declared
    # non-convex reads every grid point up to the cap
    z = np.zeros(2, complex)
    v = kx.cpoint(1, 0.5j)
    for convex in (True, False):
        D = kx.DomainSpec("big", 2, [lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 25.0],
                          is_convex=convex, bounding_radius=0.2)
        with pytest.raises(kx.DomainError, match="does not leave"):
            kx.directional_distance(D, z, v)
        with pytest.raises(kx.DomainError, match="does not leave"):
            kx.directional_distance_batch(D, z[None], v[None], n_phases=4096, refine=False)


@pytest.mark.parametrize("name", ["ball2", "ex22_omega", "ex21_d", "slab2"])
def test_ray_exit_does_not_depend_on_the_chunk(name, monkeypatch):
    # chunks hold RAY_CHUNK // k whole rows, and one root loop finishes the
    # bracketed rays of consecutive chunks of a pass; the rows have origins
    # of different |z|, so caps and march grids of their own, and a call per
    # row gives the same exits as the chunked call.  The bound inf runs the
    # coarse pass, whose root groups span chunks, then the probes on ball2;
    # 0.3 probes or cuts the march
    D = {"slab2": _slab2}.get(name, lambda: kx.bundled_domain(name))()
    k = 1000
    m = 2 * (RAY_CHUNK // k) + 3
    rng = np.random.default_rng(4)
    z = D.interior_point + 0.2 * _unit_rows(rng, m) * rng.random((m, 1))
    assert np.all(kx.contains(D, z)) and np.unique(dm.row_norms(z)).size == m
    dirs = _unit_rows(rng, m * k).reshape(m, k, 2)
    groups = []
    roots = dm._roots
    monkeypatch.setattr(dm, "_roots", lambda D, group, *a: groups.append(len(group))
                        or roots(D, group, *a))
    for bound in (None, math.inf, 0.3):
        groups.clear()
        t = _ray_exit(D, z, dirs, bound)
        if bound is math.inf:
            assert max(groups) > 1
        rows = [_ray_exit(D, z[i:i + 1], dirs[i:i + 1], bound) for i in range(m)]
        assert np.concatenate(rows).tobytes() == t.tobytes()


@pytest.mark.parametrize("bound", [None, 0.3])
def test_marched_rays_match_single_ray_calls(bound):
    # one ray per row from one origin near the corner circle of ex21_d: the
    # rays leave on march steps far apart, so the march carries rays that
    # stopped long ago and compacts several times; a row's bound stops only
    # its own ray, so each row is bitwise the exit of its ray alone
    D = kx.bundled_domain("ex21_d")
    m = 64
    z = np.tile(kx.cpoint(0.85, 0.05), (m, 1))
    dirs = _unit_rows(np.random.default_rng(17), m)[:, None, :]
    t = _ray_exit(D, z, dirs, bound)
    alone = [_ray_exit(D, z[i:i + 1], dirs[i:i + 1], bound) for i in range(m)]
    assert np.array_equal(t, np.concatenate(alone))
    step = (np.linalg.norm(z[0]) + 2.0 * D.bounding_radius + 1.0) / dm.MARCH_STEPS
    marched = np.ceil(_ray_exit(D, z, dirs) / step)
    assert marched.max() - marched.min() >= 40
    if bound is not None:
        assert np.any(t > bound)    # rays the bound stopped on the march


@pytest.mark.parametrize("name,z,calls", [("ex21_d", (0.05, 0.05), 63),
                                          ("ball2", (0.3, 0.2j), 43),
                                          ("ex21_d", (0.7, 0.0), 50)])
def test_scalar_directional_distance_oracle_calls(name, z, calls, monkeypatch):
    # the march reads only the grid points ex21_d's Lipschitz bound does not
    # prove inside, and the first root step's call reads the convex cap
    # points and the inside ends the march skipped: from (0.7, 0) it skips
    # some, which took a call of their own at each march (56 calls)
    D = kx.bundled_domain(name)
    seen, unread = [], []
    real, march = D.value, dm._march

    def counted_march(*a):
        brackets = march(*a)
        unread.append(int(np.isnan(brackets[2]).sum()))
        return brackets

    monkeypatch.setattr(D, "value", lambda x: seen.append(1) or real(x))
    monkeypatch.setattr(dm, "_march", counted_march)
    kx.directional_distance(D, kx.cpoint(*z), kx.cpoint(1, 0.5j))
    assert len(seen) <= calls
    assert (sum(unread) > 0) == (z == (0.7, 0.0))


def test_grouped_root_loops_read_the_same_points_in_fewer_calls(monkeypatch):
    # ball-sandwich's seed-0 rows, 4096 phases at bound inf: 13 chunks of 8
    # rows a pass, the coarse pass and then the probed rest, each row with
    # its own cap; one root loop per group of chunks, whose first call reads
    # the cap points too, reads the points a root loop and a cap-point call
    # per chunk read, in 346 calls.  A one-row search is one chunk a ray batch
    rng = np.random.default_rng(0)
    zs = []
    while len(zs) < 100:
        z = (rng.random(2) - 0.5) * 1.9 + 1j * (rng.random(2) - 0.5) * 1.9
        if np.linalg.norm(z) < 0.93:
            zs.append(z)
    vs = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    calls, points = [], [0]

    def counted(D):
        real = D.value

        def value(x):
            calls.append(1)
            points[0] += int(np.prod(np.shape(x)[:-1]))
            return real(x)

        monkeypatch.setattr(D, "value", value)
        return D

    kx.directional_distance_batch(counted(kx.ball(2)), np.array(zs), vs, n_phases=4096,
                                  refine=False)
    assert points[0] == 466_124
    assert len(calls) <= 67
    for name, z, most in (("ball2", (0.3, 0.2j), 43), ("ex21_d", (0.05, 0.05), 63)):
        calls.clear()
        kx.directional_distance(counted(kx.bundled_domain(name)), kx.cpoint(*z),
                                kx.cpoint(1, 0.5j))
        assert len(calls) <= most


# ---------------------------------------------------------------------------
# declared Lipschitz bounds, and the march that skips by them
# ---------------------------------------------------------------------------

DECLARED = [(name, i) for name in sorted(kx.BUNDLED)
            for i, c in enumerate(kx.bundled_domain(name).constraints)
            if math.isfinite(c.lipschitz)]


def _closed_ball(rng, m, radius):
    # uniform in the ball of R^4, a tenth of the points on its sphere; rows
    # whose norm rounds above the radius are dropped
    r = radius * rng.random((m, 1)) ** 0.25
    r[:m // 10] = radius
    p = r * _unit_rows(rng, m)
    return p[dm.row_norms(p) <= radius]


def _lipschitz_violations(D, c, lipschitz, rng):
    """How many of 10^5 points of D's closed bounding ball have |grad g| >
    lipschitz, and how many of 2 * 10^4 pairs have |g(p) - g(q)| >
    lipschitz |p - q|: pairs far apart, and pairs 1e-3 apart in directions
    near the gradient, where the difference quotient is largest."""
    R = D.bounding_radius
    grads = dm.row_norms(c.grad(_closed_ball(rng, 100_000, R)))
    p, far = _closed_ball(rng, 20_000, R), _closed_ball(rng, 20_000, R)
    m = min(len(p), len(far))
    u = c.grad(p)
    u = u / dm.row_norms(u)[:, None] + 0.1 * _unit_rows(rng, len(p))
    q = np.concatenate([far[:m], p - 1e-3 * u / dm.row_norms(u)[:, None]])
    p = np.concatenate([p[:m], p])
    inside = dm.row_norms(q) <= R
    p, q = p[inside], q[inside]
    assert len(p) >= 20_000
    jumps = np.abs(c(p) - c(q)) > lipschitz * dm.row_norms(p - q)
    return int(np.count_nonzero(grads > lipschitz)), int(np.count_nonzero(jumps))


def test_every_non_convex_bundled_constraint_declares_a_bound():
    # ball2, polydisc and the convex domains need none: their exits take no march
    for name in sorted(kx.BUNDLED):
        D = kx.bundled_domain(name)
        if not D.is_convex:
            assert all(math.isfinite(c.lipschitz) for c in D.constraints), name
    assert len(DECLARED) == 7


@pytest.mark.parametrize("name,index", DECLARED)
def test_declared_lipschitz_bounds_hold_on_the_bounding_ball(name, index):
    D = kx.bundled_domain(name)
    c = D.constraints[index]
    assert _lipschitz_violations(D, c, c.lipschitz, np.random.default_rng(index + 41)) == (0, 0)


def test_an_under_declared_bound_fails_the_bound_test():
    # ex21_d's |grad g|^2 = 4|z|^2 + 1 reaches 5 on the bounding ball, so 2
    # in place of sqrt(5) is broken on both counts
    D = kx.bundled_domain("ex21_d")
    grads, jumps = _lipschitz_violations(D, D.constraints[0], 2.0, np.random.default_rng(41))
    assert grads > 0 and jumps > 0


def _without_bounds(D, monkeypatch):
    for c in D.constraints:
        monkeypatch.setattr(c, "lipschitz", math.inf)


@pytest.mark.parametrize("name", ["ex21_d", "ex22_d", "ex22_omega"])
def test_skipped_march_equals_the_march_over_every_point(name, monkeypatch):
    # the declared bound skips only grid points it proves inside, and the
    # cuts are the full march's, so every entry is bitwise the one the march
    # over every grid point (L = inf) gives: random rows with no bound, inf,
    # a finite bound and per-row bounds (inf, the row minimum, and the point
    # of the row's grid below it, which cuts rays after that point, not at
    # it), and rows of one origin in chunks of 4 rows against one row a call
    D = kx.bundled_domain(name)
    rng = np.random.default_rng(29)
    zs = D.interior_point + 0.4 * _unit_rows(rng, 64) * rng.random((64, 1)) ** 0.25
    zs = zs[kx.contains(D, zs)][:12]
    dirs = _unit_rows(rng, 12 * 256).reshape(12, 256, 2)
    lo = _ray_exit(D, zs, dirs).min(axis=1)
    step = (np.linalg.norm(zs, axis=-1) + 2.0 * D.bounding_radius + 1.0) / dm.MARCH_STEPS
    per_row = np.choose(np.arange(12) % 3, [math.inf, lo, np.floor(lo / step) * step])
    shared = np.tile(D.interior_point, (9, 1))
    monkeypatch.setattr(dm, "RAY_CHUNK", 1024)
    points = _counting(D, monkeypatch)

    def run():
        out = [_ray_exit(D, zs, dirs, bound) for bound in (None, math.inf, 0.3, per_row)]
        for bound in (None, math.inf, 0.3):
            t = _ray_exit(D, shared, dirs[:9], bound)
            rows = [_ray_exit(D, shared[i:i + 1], dirs[i:i + 1], bound) for i in range(9)]
            assert np.concatenate(rows).tobytes() == t.tobytes()
            out.append(t)
        return out

    skipped = run()
    skipped_points, points[0] = points[0], 0
    _without_bounds(D, monkeypatch)
    for a, b in zip(skipped, run(), strict=True):
        assert a.tobytes() == b.tobytes()
    assert skipped_points < points[0]


def _lockstep_cuts(D, z, dirs, bound):
    """The reference march: it reads every grid point of every live ray, all
    rays in step, each row on the grid of its own cap, and returns per ray
    the grid point a bound cuts it at, NaN where its first outside grid
    point comes first."""
    step = (np.linalg.norm(z, axis=-1) + 2.0 * D.bounding_radius + 1.0) / dm.MARCH_STEPS
    best = np.broadcast_to(bound, z.shape[:1]).astype(float)
    cuts = np.full(dirs.shape[:2], np.nan)
    live = np.ones(dirs.shape[:2], dtype=bool)
    for j in range(1, dm.MARCH_STEPS + 1):
        t = j * step
        outside = D.value(z[:, None] + t[:, None, None] * dirs) >= 0.0
        left = outside & live
        best = np.where(left.any(axis=1), np.minimum(best, t), best)
        cut = live & ~outside & (t[:, None] > best[:, None])
        cuts[cut] = np.broadcast_to(t[:, None], cuts.shape)[cut]
        live &= ~(left | cut)
    assert not live.any()
    return cuts


@pytest.mark.parametrize("name", ["ex21_d", "ex22_d", "ex22_omega", "slab2"])
def test_march_cuts_where_the_lockstep_march_does(name):
    # finite bounds run one pass; each ray the lockstep march cuts has its
    # grid point as entry, and every other ray its exit or a root-stopped
    # lower bound above the bound.  The bounds include a point of each row's
    # own grid, which cuts only the rays inside after it
    D = _named_domain(name)
    rng = np.random.default_rng(37)
    zs = D.interior_point + 0.4 * _unit_rows(rng, 64) * rng.random((64, 1)) ** 0.25
    zs = zs[kx.contains(D, zs)][:9]
    dirs = _unit_rows(rng, 9 * 64).reshape(9, 64, 2)
    exact = _ray_exit(D, zs, dirs)
    lo = exact.min(axis=1)
    step = (np.linalg.norm(zs, axis=-1) + 2.0 * D.bounding_radius + 1.0) / dm.MARCH_STEPS
    grid = np.floor(lo / step) * step
    for bound in (0.3, lo, grid, np.choose(np.arange(9) % 3, [lo * 1.001, grid, 0.0])):
        t = _ray_exit(D, zs, dirs, bound)
        ref = _lockstep_cuts(D, zs, dirs, bound)
        cut = ~np.isnan(ref)
        assert cut.any()
        assert np.array_equal(t[cut], ref[cut])
        above = t > np.broadcast_to(bound, (9,))[:, None]
        assert np.all(((t == exact) | (above & (t < exact)))[~cut])


@pytest.mark.parametrize("name", ["ex21_d", "ex22_d", "ex22_omega"])
def test_declared_bounds_halve_the_points_of_a_batch(name, monkeypatch):
    # a 1,024-row delta(z; v) batch at 256 phases: scan, coarse pass and zoom
    D = kx.bundled_domain(name)
    rng = np.random.default_rng(5)
    zs = D.interior_point + 0.45 * _unit_rows(rng, 4096) * rng.random((4096, 1)) ** 0.25
    zs = zs[kx.contains(D, zs)][:1024]
    vs = _unit_rows(rng, 1024)
    assert len(zs) == 1024
    points = _counting(D, monkeypatch)
    t = kx.directional_distance_batch(D, zs, vs)
    skipped, points[0] = points[0], 0
    _without_bounds(D, monkeypatch)
    assert t.tobytes() == kx.directional_distance_batch(D, zs, vs).tobytes()
    assert skipped <= 0.5 * points[0]


@pytest.mark.parametrize("lipschitz,match", [
    pytest.param(0.5, "too small", id="0.5-DomainError"),
    pytest.param(0.01, "does not leave", id="0.01-DomainError")])
def test_march_reports_a_bound_that_skips_past_the_exit(lipschitz, match):
    # the unit ball marched as non-convex, |grad g| <= 2 declared too small:
    # at 0.5 the first skip from the origin lands past the exit at t = 1,
    # and the inside end it stepped over reads outside; at 0.01 it lands
    # past the cap point, and no exit is found
    D = kx.DomainSpec("ball", 2, [kx.Constraint(lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
                                                lipschitz=lipschitz)], bounding_radius=1.0)
    with pytest.raises(kx.DomainError, match=match):
        _ray_exit(D, np.zeros((1, 2), complex), np.array([[[1.0, 0.0]]], complex))


def test_root_finder_checks_the_cap_points_the_probes_left():
    # a disc and a ring about |z| = 3 declared convex in the disc of radius
    # 1: the probe at the bound 1 reads outside, so the first root step
    # reads the cap point at t = 3, which lies in the ring
    D = kx.DomainSpec("disc-and-ring", 1, [lambda z: np.minimum(
        np.abs(z[..., 0]) - 0.5, np.abs(np.abs(z[..., 0]) - 3.0) - 0.5)],
        is_convex=True, bounding_radius=1.0)
    with pytest.raises(kx.DomainError, match="does not leave"):
        _ray_exit(D, np.zeros((1, 1), complex), np.ones((1, 1, 1), complex), 1.0)


@pytest.mark.parametrize("name", ["ex21_d", "ex22_d", "slab2", "ball2"])
def test_bracket_call_reads_only_the_origins(name, monkeypatch):
    # each point is checked where it is read: a chunk's bracket call reads
    # its origins, the march its own grid up to the cap, and the root
    # finder a convex ray's cap end, so without probes (on ball2, no bound)
    # the bracket call of every chunk (4 rows of 256 rays) holds exactly
    # its origin rows
    D = _named_domain(name)
    rng = np.random.default_rng(31)
    zs = D.interior_point + 0.3 * _unit_rows(rng, 64) * rng.random((64, 1))
    zs = zs[kx.contains(D, zs)][:10]
    dirs = _unit_rows(rng, 10 * 256).reshape(10, 256, 2)
    monkeypatch.setattr(dm, "RAY_CHUNK", 1024)
    reads, firsts = [], []
    real, brackets = D.value, dm._brackets
    monkeypatch.setattr(D, "value", lambda x: reads.append(np.array(x)) or real(x))

    def first_read(D, z, dirs, rows, *a):
        n = len(reads)
        state = brackets(D, z, dirs, rows, *a)
        firsts.append((reads[n], z[rows]))
        return state

    monkeypatch.setattr(dm, "_brackets", first_read)
    for bound in (None,) if D.is_convex else (None, math.inf, 0.3):
        firsts.clear()
        _ray_exit(D, zs, dirs, bound)
        assert len(firsts) == (6 if bound == math.inf else 3)
        for read, origins in firsts:
            assert np.array_equal(read, origins)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_domain_spec_rejects_a_non_positive_bounding_radius(radius):
    with pytest.raises(kx.DomainError, match="bounding radius"):
        kx.DomainSpec("d", 2, [lambda z: np.abs(z[..., 0]) - 1.0], bounding_radius=radius)


@pytest.mark.parametrize("point", [[2.0, 0.0], [1.0, 0.0], [math.nan, 0.0]])
def test_domain_spec_rejects_an_interior_point_not_inside(point):
    # the path bumps and the ray searches start from the interior point
    with pytest.raises(kx.DomainError, match="interior point .* is not inside"):
        kx.DomainSpec("d", 2, [lambda z: np.abs(z[..., 0]) - 1.0], bounding_radius=1.0,
                      interior_point=point)


def test_halfspace_interior_point_must_lie_in_its_ball():
    # the point (offset - 1) nn leaves the truncating ball once |offset - 1| >= 4
    D = dm.halfspace([1.0, 0.0], 4.9)
    assert kx.contains(D, D.interior_point)
    for offset in (5.0, -3.0):
        with pytest.raises(kx.DomainError, match="is not inside"):
            dm.halfspace([1.0, 0.0], offset)


def _named_domain(name):
    # a bundled domain, one of the two test domains defined below, or the unit disc
    return {"slab2": _slab2, "triangle2": _triangle2, "disc1": lambda: kx.ball(dim=1)}.get(
        name, lambda: kx.bundled_domain(name))()


@pytest.mark.parametrize("name", sorted(kx.BUNDLED) + ["slab2", "triangle2"])
def test_zoom_lookahead_equals_one_round_per_call(name, monkeypatch):
    # a lookahead call resolves its rounds from the points and values one
    # round per call would see, so with 1 to 11 rows (depths 2, 1 and 0)
    # every distance and direction equals the depth-0 run bitwise
    D = _named_domain(name)
    rng = np.random.default_rng(23)
    zs = D.interior_point + 0.3 * _unit_rows(rng, 400) * rng.random((400, 1))
    zs = zs[kx.contains(D, zs) & kx.contains(D, np.abs(zs))][:11]
    vs = _unit_rows(rng, 11) * rng.uniform(0.5, 2.0, (11, 1))
    assert len(zs) == 11

    def run():
        out = []
        for m in (1, 2, 3, 8, 11):
            out.append(kx.directional_distance_batch(D, zs[:m], vs[:m]))
            out.extend(dm._moduli_section_distance(D, np.abs(zs[:m])))
        return out

    ahead = run()
    monkeypatch.setattr(dm, "ZOOM_RAY_BUDGET", 0)
    for a, b in zip(ahead, run(), strict=True):
        assert np.array_equal(a, b)


def _counting_ray_exits(monkeypatch):
    calls = []
    real = dm._ray_exit
    monkeypatch.setattr(dm, "_ray_exit", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("name,z", [("ex21_d", (0.05, 0.05)), ("ball2", (0.3, 0.2j))])
def test_one_row_zoom_makes_five_ray_batches(name, z, monkeypatch):
    # the scan, then the 11 zoom rounds in lookahead groups of 3, 3, 3 and 2
    D = kx.bundled_domain(name)
    calls = _counting_ray_exits(monkeypatch)
    kx.directional_distance(D, kx.cpoint(*z), kx.cpoint(1, 0.5j))
    assert len(calls) <= 5
    calls.clear()
    dm._moduli_section_distance(D, np.abs(kx.cpoint(*z)))
    assert len(calls) <= 5


def test_zoom_depth_rule():
    # phase and section zooms: 1 row looks 2 rounds ahead, 2 to 10 rows 1,
    # 11 or more none; a generic row (3 starts of 12 directions in C^2) 1
    assert [dm._zoom_depth(m, ZOOM_K) for m in (1, 2, 10, 11)] == [2, 1, 1, 0]
    assert dm._zoom_depth(3, 12) == 1 and dm._zoom_depth(6, 12) == 0


def _generic_cases():
    for name in sorted(kx.BUNDLED) + ["slab2", "triangle2", "disc1"]:
        yield name, None
    yield "ball2", (0, 0)
    yield "ex21_omega", (0, 0)


@pytest.mark.parametrize("name,z", list(_generic_cases()))
def test_generic_lookahead_equals_one_round_per_call(name, z, monkeypatch):
    # one generic row looks ahead; its delta and nearest point equal the
    # depth-0 run bitwise, also at the centres, where every start stops
    D = _named_domain(name)
    if z is None:
        rng = np.random.default_rng(24)
        zs = D.interior_point + 0.3 * _unit_rows(rng, 40, D.dim) * rng.random((40, 1))
        zs = zs[kx.contains(D, zs)][:3]
    else:
        zs = np.array([z], dtype=complex)

    def run():
        return [dm._boundary(D, z[None, :], "generic", nearest=True) for z in zs]

    ahead = run()
    monkeypatch.setattr(dm, "ZOOM_RAY_BUDGET", 0)
    for (t, xi), (t0, xi0) in zip(ahead, run(), strict=True):
        assert np.array_equal(t, t0) and np.array_equal(xi, xi0)


@pytest.mark.parametrize("m", [2, 3])
def test_generic_batch_in_c1_looks_ahead(m, monkeypatch):
    # in C^1 a row has 3 starts of 6 directions, so batches of 2 and 3 rows
    # look one round ahead, in fewer ray batches; rows have their own caps,
    # so each batch equals its search without lookahead bitwise
    D = _named_domain("disc1")
    assert dm._zoom_depth(3 * m, 6) == 1
    zs = np.array([[0.1], [-0.3j], [0.5 + 0.2j]])[:m]
    calls = _counting_ray_exits(monkeypatch)
    t, xi = dm._boundary(D, zs, "generic", nearest=True)
    ahead = len(calls)
    calls.clear()
    monkeypatch.setattr(dm, "ZOOM_RAY_BUDGET", 0)
    t0, xi0 = dm._boundary(D, zs, "generic", nearest=True)
    assert ahead < len(calls)
    assert t.tobytes() == t0.tobytes() and xi.tobytes() == xi0.tobytes()


@pytest.mark.parametrize("name", ["ex21_d", "ex22_omega", "triangle2"])
def test_one_row_generic_search_makes_sixteen_ray_batches(name, monkeypatch):
    # the scan, then 30 pattern rounds in lookahead groups of 2
    D = _named_domain(name)
    calls = _counting_ray_exits(monkeypatch)
    kx.boundary_distance(D, D.interior_point + kx.cpoint(0.1, -0.05j), method="generic")
    assert len(calls) <= 16


def test_generic_search_stops_calling_once_every_start_has_stopped(monkeypatch):
    # at the centre of ball2 no start improves, so all three stop together
    # after R < GENERIC_ROUNDS rounds; one round a call makes R + 1 calls,
    # two rounds a call 1 + ceil(R / 2), and none once all have stopped
    D = kx.bundled_domain("ball2")
    calls = _counting_ray_exits(monkeypatch)
    kx.boundary_distance(D, np.zeros(2, complex), method="generic")
    ahead = len(calls)
    calls.clear()
    monkeypatch.setattr(dm, "ZOOM_RAY_BUDGET", 0)
    kx.boundary_distance(D, np.zeros(2, complex), method="generic")
    rounds = len(calls) - 1
    assert rounds < dm.GENERIC_ROUNDS
    assert ahead == 1 + (rounds + 1) // 2


@pytest.mark.parametrize("rows", [50, 64])
def test_large_zoom_batches_make_one_ray_batch_per_round(rows, monkeypatch):
    D = kx.bundled_domain("ball2")
    rng = np.random.default_rng(29)
    zs = 0.5 * _unit_rows(rng, rows) * rng.random((rows, 1))
    calls = _counting_ray_exits(monkeypatch)
    kx.directional_distance_batch(D, zs, _unit_rows(rng, rows))
    assert len(calls) == 1 + ZOOM_ROUNDS


def _triangle2():
    # the README's text-spec domain: convex, with no interior point declared
    D = kx.textspec.loads("""domain triangle2
  dim 2
  flags convex reinhardt
  radius 1.0
  constraint abs(z1) + abs(z2) - 1
end""")["triangle2"]
    D.interior_point = np.zeros(2, dtype=complex)
    return D


def _slab2():
    # the unit ball minus the slab |Re z1 - 0.5| <= 0.005, which the march
    # steps over from the origin
    return kx.DomainSpec("slab2", 2, [lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
                                      lambda z: 0.005 - np.abs(z[..., 0].real - 0.5)],
                         bounding_radius=1.0, interior_point=np.zeros(2))


def _counting(D, monkeypatch):
    points = [0]
    real = D.value

    def value(z):
        points[0] += int(np.prod(np.shape(z)[:-1]))
        return real(z)

    monkeypatch.setattr(D, "value", value)
    return points


@pytest.mark.parametrize("name,rows,phases,radius", [
    ("ball2", 64, 4096, 0.95), ("ex21_d", 8, 256, 0.3), ("ex22_omega", 8, 256, 0.3),
    ("slab2", 8, 256, 0.3), ("polydisc", 8, 256, 0.6), ("ex22_omega_local", 8, 256, 0.2),
    ("ex21_omega", 8, 256, 0.6), ("triangle2", 8, 256, 0.6)])
def test_pruned_ray_exits_keep_row_minima(name, rows, phases, radius, monkeypatch):
    # a pruned entry is a lower bound on its exit above min(bound, row minimum),
    # so row minima, argmins and strict incumbent tests equal the exact ones;
    # on the convex domains the bound inf runs the coarse pass and the finite
    # bounds the probes
    D = _named_domain(name)
    rng = np.random.default_rng(11)
    # uniform in a ball about the interior point; on ball2 these are the
    # rows of the 4096-phase oracle, uniform in the domain
    zs = D.interior_point + radius * _unit_rows(rng, rows) * rng.random((rows, 1)) ** 0.25
    zs = np.concatenate([D.interior_point[None], zs[kx.contains(D, zs)]])[:rows]
    theta = 2.0 * math.pi * np.arange(phases) / phases
    dirs = np.exp(1j * theta)[:, None] * _unit_rows(rng, len(zs))[:, None, :]
    points = _counting(D, monkeypatch)
    exact = _ray_exit(D, zs, dirs)
    exact_points = points[0]
    lo = exact.min(axis=1)
    for bound in (math.inf, lo * (1 + 1e-3), np.where(np.arange(len(zs)) % 2, lo, 0.99 * lo)):
        points[0] = 0
        t = _ray_exit(D, zs, dirs, bound)
        assert np.array_equal(t.min(axis=1) < bound, lo < bound)
        hit = lo < bound
        assert np.array_equal(t.argmin(axis=1)[hit], exact.argmin(axis=1)[hit])
        assert np.array_equal(t.min(axis=1)[hit], lo[hit])
        cut = t != exact
        floor = np.broadcast_to(np.minimum(bound, lo)[:, None], t.shape)
        assert np.all(t[cut] <= exact[cut]) and np.all(t[cut] > floor[cut])
        if bound is math.inf:
            assert cut.any()
            if name == "ball2":
                assert points[0] <= 0.6 * exact_points
                # the coarse pass and the probes settle most rays with one point
                assert points[0] <= 0.4 * exact_points
            if name == "ex21_d":
                # the coarse pass runs on non-convex domains too
                assert points[0] <= 0.75 * exact_points
    # every phase ties at the centre of the ball, in exact arithmetic
    if name == "ball2":
        assert np.all(np.abs(exact[0] - 1.0) <= 4 * np.finfo(float).eps)


def test_generic_scan_memory_does_not_grow_with_the_ray_count(monkeypatch):
    # each chunk materializes only its own rows of the 512-direction scan: an
    # added row costs its output and sort order, well under one complex copy
    # of its rays (GENERIC_DIRS * dim * 16 bytes)
    import tracemalloc
    D = kx.bundled_domain("ex22_omega")
    monkeypatch.setattr(dm, "GENERIC_ROUNDS", 0)
    monkeypatch.setattr(dm, "RAY_CHUNK", 4096)
    rng = np.random.default_rng(12)
    g = rng.random((160, 2, 2)) - 0.5
    zs = D.interior_point + 0.3 * (g[..., 0] + 1j * g[..., 1])
    kx.boundary_distance_batch(D, zs[:1], method="generic")
    peaks = []
    for m in (40, 160):
        tracemalloc.start()
        try:
            kx.boundary_distance_batch(D, zs[:m], method="generic")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 120 * dm.GENERIC_DIRS * D.dim * 16


def test_unbounded_scan_memory_does_not_grow_by_a_copy_of_the_rays(ball2, monkeypatch):
    # the coarse pass splits each chunk's rays, not the batch's: an added row
    # of a 256-phase scan at bound inf costs its output and chunk-sized
    # temporaries, well under a copy of its rays (256 * dim * 16 bytes)
    import tracemalloc
    monkeypatch.setattr(dm, "RAY_CHUNK", 4096)
    rng = np.random.default_rng(13)
    m, k = 160, 256
    zs = 0.5 * _unit_rows(rng, m) * rng.random((m, 1))
    theta = 2.0 * math.pi * np.arange(k) / k
    dirs = np.exp(1j * theta)[:, None] * _unit_rows(rng, m)[:, None, :]
    _ray_exit(ball2, zs[:1], dirs[:1], math.inf)
    peaks = []
    for rows in (40, 160):
        tracemalloc.start()
        try:
            _ray_exit(ball2, zs[:rows], dirs[:rows], math.inf)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * 120 * k * ball2.dim * 16


def test_ray_exit_step_cap_raises(ball2, monkeypatch):
    monkeypatch.setattr(dm, "ROOT_STEPS", 3)
    with pytest.raises(kx.ConvergenceError):
        _ray_exit(ball2, np.zeros((1, 2), complex), _unit_rows(np.random.default_rng(5), 4)[None])


@pytest.mark.parametrize("name", ["ball2", "ex21_d"])
def test_ray_exit_rejects_an_outside_origin(name):
    # the ray crosses the domain further on, so a march alone would find an exit
    with pytest.raises(kx.DomainError):
        _ray_exit(kx.bundled_domain(name), np.array([[-1.5, 0.0]], complex),
                  np.array([[[1.0, 0.0]]], complex))


def test_empty_batches_return_empty_arrays(ball2, omega21):
    none = np.zeros((0, 2))
    assert _ray_exit(ball2, none, np.zeros((0, 3, 2))).shape == (0, 3)
    assert kx.boundary_distance_batch(omega21, none, method="reinhardt").shape == (0,)
    assert kx.boundary_distance_batch(omega21, none, method="generic").shape == (0,)
    assert kx.directional_distance_batch(ball2, none, none).shape == (0,)


@pytest.mark.parametrize("d", [4, 6, 8])
@pytest.mark.parametrize("k", [5, 513, 2050])
def test_halton_matches_scipy(d, k):
    from scipy.stats import qmc
    expect = qmc.Halton(d, scramble=False).random(k + 1)[1:]
    assert np.array_equal(_halton(k, d), expect)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_sphere_directions_match_scipy_quantile(d):
    from scipy.special import ndtri
    for k in (512, d):
        g = ndtri(np.clip(_halton(k, d), 1e-12, 1 - 1e-12))
        expect = g / np.linalg.norm(g, axis=-1, keepdims=True)
        got = dm._sphere_directions(k, d)
        assert np.max(np.abs(got - expect)) <= 1e-15
        assert not got.flags.writeable and dm._sphere_directions(k, d) is got


@pytest.mark.parametrize("name,method", [("ex22_d", "generic"), ("ex21_d", "reinhardt"),
                                         ("polydisc", "auto"), ("ex21_omega", "auto"),
                                         ("ball2", "auto")])
def test_distance_and_nearest_match_their_entry_points(name, method):
    D = kx.bundled_domain(name)
    z = D.interior_point + kx.cpoint(0.1, 0.2j)
    delta, xi = dm._boundary(D, z[None, :], method, nearest=True)
    assert delta[0] == kx.boundary_distance(D, z, method)
    assert np.array_equal(xi[0], kx.nearest_boundary_point(D, z, method))


def _method_cases():
    for name in sorted(dm.BUNDLED):
        D = kx.bundled_domain(name)
        for method in ("auto", "generic", "reinhardt"):
            if method != "reinhardt" or D.is_reinhardt:
                yield name, method


@pytest.mark.parametrize("name,method", list(_method_cases()))
def test_boundary_runs_at_most_one_search(name, method, monkeypatch):
    # delta(z) and xi of every row from one search call at most, row for
    # row the numbers of the public entry points
    D = kx.bundled_domain(name)
    zs = _offsets(D, 3)
    searches = []
    for fn in ("_generic_distance", "_moduli_section_distance"):
        real = getattr(dm, fn)
        monkeypatch.setattr(dm, fn, lambda *a, real=real: searches.append(1) or real(*a))
    t, xi = dm._boundary(D, zs, method, nearest=True)
    assert len(searches) <= 1
    assert t.shape == (3,) and xi.shape == (3, 2)
    assert np.array_equal(t, kx.boundary_distance_batch(D, zs, method))
    for z in zs:
        searches.clear()
        t1, xi1 = dm._boundary(D, z[None, :], method, nearest=True)
        assert len(searches) <= 1
        assert t1[0] == kx.boundary_distance(D, z, method)
        assert np.array_equal(xi1[0], kx.nearest_boundary_point(D, z, method))



def test_unbounded_domain_rejected():
    D = kx.DomainSpec("open", 1, [lambda z: -np.ones(np.asarray(z).shape[:-1])])
    with pytest.raises(kx.DomainError):
        kx.boundary_distance(D, np.zeros(1, complex), method="generic")


# ---------------------------------------------------------------------------
# row-batched generic search and nearest points
# ---------------------------------------------------------------------------

def _offsets(D, k):
    return D.interior_point + np.array([[0.1, 0.2j], [-0.15j, 0.05], [0.2, -0.1 + 0.1j],
                                        [0.05j, -0.2j]])[:k]


def test_generic_batch_makes_one_ray_batch_per_round(monkeypatch):
    D = kx.bundled_domain("ex22_omega")
    calls = []
    real = dm._ray_exit
    monkeypatch.setattr(dm, "_ray_exit", lambda *a: calls.append(1) or real(*a))
    kx.boundary_distance_batch(D, _offsets(D, 4), method="generic")
    assert 1 < len(calls) <= 31    # one scan, then one ray batch per round


@pytest.mark.parametrize("name", ["ball2", "ex21_d", "ex22_omega"])
def test_generic_batch_rows_match_single_rows(name):
    # each row has its own ray cap, so a batch's distances and nearest
    # points are bitwise its one-row calls
    D = kx.bundled_domain(name)
    zs = _offsets(D, 3)
    t = kx.boundary_distance_batch(D, zs, method="generic")
    one = np.array([kx.boundary_distance(D, z, method="generic") for z in zs])
    assert t.tobytes() == one.tobytes()
    _, xi = dm._boundary(D, zs, "generic", nearest=True)
    for z, x in zip(zs, xi):
        assert x.tobytes() == kx.nearest_boundary_point(D, z, "generic").tobytes()


@pytest.mark.parametrize("name", sorted(kx.BUNDLED) + ["slab2", "triangle2"])
def test_rows_of_different_norms_equal_their_one_row_calls(name):
    # a row's ray cap |z| + 2R + 1, and with it its march grid, is its own,
    # so a batch of rows near and far from the origin is bitwise the one-row
    # calls: directional (zoomed, and a 1,024-phase scan), generic and
    # Reinhardt distances, nearest points, and paths on triangle2.  A cap
    # shared with the row (-0.9, 0) moved slab2's delta(0) from 0.50541 to
    # 0.50771
    D = _named_domain(name)
    rng = np.random.default_rng(43)
    zs = D.interior_point + 0.6 * _unit_rows(rng, 64) * rng.random((64, 1))
    zs = np.concatenate([D.interior_point[None], [[-0.9, 0.0]], zs])
    zs = zs[kx.contains(D, zs)][:4]
    assert np.unique(dm.row_norms(zs)).size == 4
    vs = _unit_rows(rng, 4)

    def rows_equal(f, *args):
        batch = f(*args)
        for i, b in enumerate(batch):
            one = f(*(a[i:i + 1] for a in args))
            assert np.asarray(b).tobytes() == np.asarray(one[0]).tobytes()

    rows_equal(lambda z, v: kx.directional_distance_batch(D, z, v), zs, vs)
    rows_equal(lambda z, v: kx.directional_distance_batch(D, z, v, 1024, refine=False), zs, vs)
    for method in ("generic", "reinhardt") if D.is_reinhardt else ("generic",):
        rows_equal(lambda z: kx.boundary_distance_batch(D, z, method), zs)
        rows_equal(lambda z: dm._boundary(D, z, method, dist=False, nearest=True), zs)
    if name == "triangle2":     # two paths: about a second a row
        rows_equal(lambda a, b: kx.path_distance_upper_batch(D, a, b), zs[:2], zs[:1:-1] * 0.5)


def test_nearest_point_callers_evaluate_no_dist_fn(monkeypatch):
    # nearest points alone come from nearest_fn: the curve search of
    # ex21_d's dist_fn is not run for a distance nobody reads
    D = kx.bundled_domain("ex21_d")
    calls = []
    real = D.dist_fn
    monkeypatch.setattr(D, "dist_fn", lambda zs: calls.append(1) or real(zs))
    z = kx.cpoint(0.3, 0.85)
    assert np.array_equal(kx.nearest_boundary_point(D, z), D.nearest_fn(z[None, :])[0])
    assert calls == []


@pytest.mark.parametrize("name", ["ball2", "ex21_d"])
def test_nearest_fn_rows_match_single_rows(name):
    D = kx.bundled_domain(name)
    zs = np.concatenate([_offsets(D, 4), np.zeros((1, 2), complex), [[0.3, 0.0]]])
    xi = D.nearest_fn(zs)
    assert xi.shape == zs.shape
    for z, x in zip(zs, xi):
        assert np.array_equal(x, D.nearest_fn(z[None, :])[0])
    if name == "ball2":
        assert np.array_equal(xi[4], [1.0, 0.0])    # the centre's zero guard
