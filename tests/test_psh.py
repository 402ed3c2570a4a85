import math

import numpy as np
import pytest

import kobex as kx
from kobex.domains import _phi_flat


def corner_sum_witness():
    return kx.PshWitness(
        fn=lambda z: np.abs(np.asarray(z, dtype=complex)[..., 0])
        + np.abs(np.asarray(z, dtype=complex)[..., 1]) - 1.0,
        hess=lambda z: np.diag([1.0 / (4.0 * abs(z[0])),
                                1.0 / (4.0 * abs(z[1]))]).astype(complex),
        smooth=lambda z: abs(z[0]) > 1e-9 and abs(z[1]) > 1e-9)


def flat_graph_witness():
    def fn(z):
        z = np.asarray(z, dtype=complex)
        return _phi_flat(np.abs(z[..., 1]) ** 2) - np.real(z[..., 0])

    def levi_w(aw):
        if aw == 0.0:
            return 0.0
        return 4.0 * aw ** -6 * math.exp(-1.0 / aw ** 4) * (1.0 / aw ** 4 - 1.0)

    def hess(z):
        return np.array([[0.0, 0.0], [0.0, levi_w(abs(z[1]))]], dtype=complex)

    w = kx.PshWitness(fn=fn, hess=hess)
    w.levi_w = levi_w
    return w


# ---------------------------------------------------------------------------
# Levi forms
# ---------------------------------------------------------------------------

def test_levi_corner_sum_quarter():
    u = corner_sum_witness()
    val = kx.levi_form(u, kx.cpoint(0.25, 0.25), kx.cpoint(1, 0))
    assert val == pytest.approx(1.0, abs=1e-10)   # |v1|^2 / (4 |z|)


def test_levi_norm_squared_is_identity():
    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1))
    for v in (kx.cpoint(1, 0), kx.cpoint(0.3, -0.4j), kx.cpoint(2j, 1)):
        want = float(np.linalg.norm(v) ** 2)
        assert kx.levi_form(u, kx.cpoint(0.1, 0.2), v, use_hessian=False) == \
            pytest.approx(want, rel=1e-6)


def test_levi_flat_graph_vanishes_at_unit_modulus():
    rho = flat_graph_witness()
    # the displayed coefficient has the factor (1/|w|^4 - 1), zero at |w| = 1
    assert rho.levi_w(1.0) == 0.0
    val = kx.levi_form(rho, kx.cpoint(0.5, 1.0), kx.cpoint(0, 1))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_levi_fd_matches_analytic(rng):
    u = corner_sum_witness()
    worst = 0.0
    for _ in range(50):
        x, y = 0.15 + 0.5 * rng.random(), 0.15 + 0.5 * rng.random()
        if x + y >= 0.95:
            continue
        z = np.array([x * np.exp(2j * math.pi * rng.random()),
                      y * np.exp(2j * math.pi * rng.random())])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = kx.levi_form(u, z, v)
        f = kx.levi_form(u, z, v, use_hessian=False)
        worst = max(worst, abs(a - f) / max(abs(a), 1e-12))
    assert worst < 1e-4


def test_levi_cross_check_catches_wrong_hessian():
    bad = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1),
                        hess=lambda z: 3.0 * np.eye(2, dtype=complex))
    with pytest.raises(kx.SmoothnessError):
        kx.levi_form(bad, kx.cpoint(0.1, 0.1), kx.cpoint(1, 0),
                     cross_check=True)


def test_levi_rejects_non_smooth_point():
    u = corner_sum_witness()
    with pytest.raises(kx.SmoothnessError):
        kx.levi_form(u, kx.cpoint(0.5, 0), kx.cpoint(1, 0))


# ---------------------------------------------------------------------------
# psh verification
# ---------------------------------------------------------------------------

def test_check_psh_flat_graph(d22, rng):
    rho = flat_graph_witness()
    samples = []
    while len(samples) < 200:
        w = (rng.random() - 0.5) * 1.4 + 1j * (rng.random() - 0.5) * 1.4
        s = _phi_flat(np.array(abs(w) ** 2)) + rng.random() * 0.6 + 1e-3
        z = np.array([s + 0.2j * (rng.random() - 0.5), w])
        if bool(kx.contains(d22, z)):
            samples.append(z)
    rep = kx.check_psh(rho, d22, samples, seed=4)
    assert rep.passes
    assert rep.min_value >= -1e-8


def test_check_psh_pluriharmonic_is_flat(ball2, rng):
    # a linear function has exactly vanishing second differences; the wide
    # step keeps the floating-point cancellation below the tolerance
    u = kx.PshWitness(fn=lambda z: -np.real(np.asarray(z, dtype=complex)[..., 0]) - 2.0)
    samples = [np.array([0.1 * k, 0.05j * k]) for k in range(1, 6)]
    rep = kx.check_psh(u, ball2, samples, use_hessian=False, seed=1, step=0.05)
    assert rep.passes
    assert abs(rep.min_value) < 1e-10


def test_check_psh_flags_concave(ball2):
    u = kx.PshWitness(fn=lambda z: -np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    samples = [np.array([0.1, 0.1j]), np.array([0.2, 0.0])]
    rep = kx.check_psh(u, ball2, samples, use_hessian=False, seed=1)
    assert not rep.passes
    assert rep.violations > 0


# ---------------------------------------------------------------------------
# boundary decay fitting
# ---------------------------------------------------------------------------

def _ball_band_points(rng, bands, per_band=25):
    pts = []
    for k in bands:
        for _ in range(per_band):
            d = 2.0 ** -k * (0.7 + 0.6 * rng.random())
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            pts.append((1 - d) * (u[:2] + 1j * u[2:]))
    return pts


def test_hopf_fit_ball_bracket(ball2, rng):
    # |phi| = 1 - |w|^2 = delta (1 + |w|), so the envelope constant sits
    # in [1, 2] at exponent one
    phi = lambda zs: np.sum(np.abs(np.atleast_2d(zs)) ** 2, axis=-1) - 1.0
    fit = kx.hopf_fit(phi, ball2, _ball_band_points(rng, range(2, 10)), alpha=1.0)
    assert 1.0 <= fit.C <= 2.0
    assert fit.residual <= 0.0
    assert fit.alpha == 1.0


def test_hopf_fit_exact_distance(ball2, rng):
    phi = lambda zs: -(1.0 - np.linalg.norm(np.atleast_2d(zs), axis=-1))
    fit = kx.hopf_fit(phi, ball2, _ball_band_points(rng, range(2, 10)))
    assert fit.alpha == pytest.approx(1.0, abs=1e-2)
    assert fit.C == pytest.approx(1.0, rel=1e-6)


def test_hopf_fit_needs_bands(ball2):
    pts = [np.array([0.5, 0.0]), np.array([0.52, 0.0])]
    with pytest.raises(kx.DomainError):
        kx.hopf_fit(lambda zs: -np.ones(np.atleast_2d(zs).shape[0]),
                    ball2, pts, alpha=1.0)


def test_hopf_fit_step1_region(d21, rng):
    # the scaled corner defect dominates the boundary distance on the
    # region 9/10 < x < 1, 0 <= y < 1/10, so the fitted constant at
    # exponent one is at least 9/26
    _, Ctilde = kx.step1_constant_ex21()
    rho = lambda zs: Ctilde * (np.abs(np.atleast_2d(zs)[..., 0]) ** 2
                               + np.abs(np.atleast_2d(zs)[..., 1]) - 1.0)
    pts = []
    for k in range(5, 13):
        for _ in range(12):
            d = 2.0 ** -k
            x = 0.9 + 0.09 * rng.random()
            y = (0.1 - d) * rng.random()
            if x * x + y < 1.0 - d:
                pts.append(np.array([x * np.exp(2j * math.pi * rng.random()),
                                     y * np.exp(2j * math.pi * rng.random())]))
    fit = kx.hopf_fit(rho, d21, pts, alpha=1.0)
    assert fit.residual <= 0.0
    assert fit.C >= Ctilde - 1e-9


def test_barrier_chain_through_the_fibers(d21, omega21, rng):
    # -delta_D(z) <= rho(z) <= tau(F z) <= -C0 delta_Om(F z) on the
    # corner region, with C0 fitted at exponent one on the image samples
    C, Ctilde = kx.step1_constant_ex21()

    def rho_fn(zs):
        zs = np.atleast_2d(zs)
        return Ctilde * (np.abs(zs[..., 0]) ** 2 + np.abs(zs[..., 1]) - 1.0)

    rho = kx.PshWitness(fn=rho_fn)

    def F(zs):
        zs = np.asarray(zs, dtype=complex)
        return np.stack([zs[..., 0] ** 2, zs[..., 1]], axis=-1)

    def fibers(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[r, w[1]], [-r, w[1]]], dtype=complex)

    Fm = kx.FiberMap(forward=F, fibers=fibers)
    zs = []
    for k in range(4, 12):
        accepted = 0
        while accepted < 125:
            x = 0.9 + 0.099 * rng.random()
            y = 0.099 * rng.random()
            if x * x + y < 1.0 - 2.0 ** -k:
                zs.append(np.array([x * np.exp(2j * math.pi * rng.random()),
                                    y * np.exp(2j * math.pi * rng.random())]))
                accepted += 1
    assert len(zs) == 1000
    zs = np.array(zs)
    ws = F(zs)
    taus = np.array([kx.pushforward_tau(Fm, rho, w) for w in ws])
    C0 = kx.hopf_fit(lambda q: np.array([kx.pushforward_tau(Fm, rho, w)
                                         for w in np.atleast_2d(q)]),
                     omega21, list(ws), alpha=1.0).C
    dD = kx.boundary_distance_batch(d21, zs)
    dOm = kx.boundary_distance_batch(omega21, ws)
    rhos = rho_fn(zs)
    assert np.all(-dD <= rhos + 1e-10)
    assert np.all(rhos <= taus + 1e-12)
    assert np.all(taus <= -C0 * dOm + 1e-10)
    assert C0 > 0


# ---------------------------------------------------------------------------
# explicit constants and the nearest-point system
# ---------------------------------------------------------------------------

def test_step1_constants():
    C, Ctilde = kx.step1_constant_ex21()
    assert C == pytest.approx(5.2, abs=1e-12)
    assert Ctilde == pytest.approx(9.0 / 26.0, abs=1e-12)
    assert Ctilde * C == pytest.approx(9.0 / 5.0, abs=1e-12)
    # grid confirmation that the box supremum sits at the corner
    x = np.linspace(0.9, 1.0, 101)
    y = np.linspace(0.0, 0.1, 101)
    X, Y = np.meshgrid(x, y)
    vals = 6.0 * X ** 2 + (2.0 * Y - 1.0)
    assert float(vals.max()) == pytest.approx(C, abs=1e-12)
    assert 6.0 * 0.81 - 1.0 == pytest.approx(3.86)  # lower corner is smaller


def test_lagrange_residuals_on_curve_point():
    # a point on the curve is its own nearest point
    x0 = 0.93
    y0 = 1.0 - x0 * x0
    r1, r2 = kx.lagrange_residuals(x0, y0, x0, y0)
    assert r1 == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_lagrange_residuals_continuous():
    vals = [kx.lagrange_residuals(0.95, 0.0, X, 1 - X * X)
            for X in np.linspace(0.94, 0.99, 7)]
    diffs = np.diff(np.array(vals), axis=0)
    assert np.all(np.abs(diffs) < 0.1)


def test_nearest_point_cubic_vectorized_matches_roots():
    # admissible region: x0^2 + y0 < 1 keeps the root inside (x0, 1)
    x0 = np.array([0.91, 0.95, 0.99])
    y0 = np.array([0.0, 0.045, 0.005])
    assert np.all(x0 ** 2 + y0 < 1.0)
    X, Y = kx.nearest_point_cubic(x0, y0)
    for xi, yi, Xi in zip(x0, y0, X):
        roots = np.roots([2.0, 0.0, 2 * yi - 1.0, -xi])
        real = roots[np.abs(roots.imag) < 1e-12].real
        target = real[(real > xi) & (real < 1.0)]
        assert target.size == 1
        assert Xi == pytest.approx(float(target[0]), abs=1e-12)
    assert np.allclose(Y, 1 - X ** 2)


# ---------------------------------------------------------------------------
# pushforward barrier
# ---------------------------------------------------------------------------

def test_pushforward_identity_map():
    rho = kx.PshWitness(fn=lambda zs: -np.ones(np.atleast_2d(zs).shape[0]))
    Fm = kx.FiberMap(forward=lambda z: np.asarray(z, dtype=complex),
                     fibers=lambda w: np.asarray(w, dtype=complex)[None, :])
    assert kx.pushforward_tau(Fm, rho, kx.cpoint(0.2, 0.1)) == -1.0


def test_pushforward_permutation_invariant():
    rho = kx.PshWitness(fn=lambda zs: -np.abs(np.atleast_2d(zs)[..., 0]) - 0.5)

    def fwd(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def fib_a(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[r, w[1]], [-r, w[1]]])

    def fib_b(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[-r, w[1]], [r, w[1]]])

    w = kx.cpoint(0.3 + 0.2j, 0.1)
    t1 = kx.pushforward_tau(kx.FiberMap(forward=fwd, fibers=fib_a), rho, w)
    t2 = kx.pushforward_tau(kx.FiberMap(forward=fwd, fibers=fib_b), rho, w)
    assert t1 == t2


def test_pushforward_stays_negative(omega21, rng):
    Ctilde = 9.0 / 26.0
    rho = kx.PshWitness(fn=lambda zs: Ctilde * (np.abs(np.atleast_2d(zs)[..., 0]) ** 2
                                                + np.abs(np.atleast_2d(zs)[..., 1]) - 1.0))

    def fwd(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def fib(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[r, w[1]], [-r, w[1]]])

    Fm = kx.FiberMap(forward=fwd, fibers=fib)
    for _ in range(50):
        x, y = rng.random(), rng.random()
        if x + y >= 0.98:
            continue
        w = np.array([x * np.exp(2j * math.pi * rng.random()),
                      y * np.exp(1j * rng.random())])
        assert kx.pushforward_tau(Fm, rho, w) < 0
        assert Fm.check_fiber(w)


def test_pushforward_empty_fiber_errors():
    Fm = kx.FiberMap(forward=lambda z: z,
                     fibers=lambda w: np.zeros((0, 2), dtype=complex))
    rho = kx.PshWitness(fn=lambda zs: -np.ones(np.atleast_2d(zs).shape[0]))
    with pytest.raises(kx.DomainError):
        kx.pushforward_tau(Fm, rho, kx.cpoint(0, 0))


# ---------------------------------------------------------------------------
# the derivative-rate function psi
# ---------------------------------------------------------------------------

def test_psi_power_rate():
    M = kx.ModulusOfContinuity.from_function(np.sqrt, 10.0)
    ys = np.geomspace(1e-6, 0.5, 9)
    want = ys ** -0.75
    got = kx.psi_bound(M, 1.0, 2.0, 1.0, ys)
    assert np.allclose(got, want, rtol=1e-12)
    psi = kx.make_psi(M, s=1.0, alpha_star=2.0, C=1.0)
    tail = kx.psi_tail(psi, 0.5)
    assert tail == pytest.approx(4.0 * 0.5 ** 0.25, rel=1e-6)  # int y^-3/4


def test_psi_linear_rate_is_constant():
    M = kx.ModulusOfContinuity.from_function(lambda t: t, 10.0)
    C = 1.7
    ys = np.geomspace(1e-6, 0.5, 7)
    got = kx.psi_bound(M, 1.0, 1.0, C, ys)
    assert np.allclose(got, C * C)


def test_psi_outer_scaling_linear():
    # with the inner argument frozen, psi is linear in the outer constant
    M = kx.ModulusOfContinuity.from_function(lambda t: 0.0 * t + 3.0, 10.0)
    a = kx.psi_bound(M, 1.0, 1.0, 1.0, 0.25)
    b = kx.psi_bound(M, 1.0, 1.0, 2.0, 0.25)
    assert b == pytest.approx(2.0 * a)


def test_psi_rejects_bad_arguments():
    M = kx.ModulusOfContinuity.from_function(np.sqrt, 10.0)
    with pytest.raises(kx.DomainError):
        kx.psi_bound(M, 1.0, 2.0, 1.0, 0.0)
    with pytest.raises(kx.DomainError):
        kx.psi_bound(M, 1.5, 2.0, 1.0, 0.1)
    with pytest.raises(kx.DomainError):
        kx.psi_bound(M, 1.0, 0.5, 1.0, 0.1)


def test_psi_composite_dini_for_bundled_rates():
    M = kx.ModulusOfContinuity.from_function(np.sqrt, 10.0)
    for (s, a_star, C) in [(1.0, 1.0, 1.0), (1.0, 1.5, 2.0), (0.5, 2.0, 0.7)]:
        psi = kx.make_psi(M, s=s, alpha_star=a_star, C=C)
        assert math.isfinite(kx.psi_tail(psi, 0.25))


def test_psi_tail_is_the_top_of_the_ladder():
    M = kx.ModulusOfContinuity.from_function(np.sqrt, 10.0)
    for psi in (kx.make_psi(M, s=0.5, alpha_star=2.0, C=0.7),
                lambda y: 0.5 / np.sqrt(np.asarray(y, dtype=float))):
        for t in (0.004, 0.5):
            assert kx.psi_tail(psi, t) == kx.PsiLadder(psi, t, levels=80).tail(0)


def test_psi_tail_diverges_for_critical_rate():
    # psi(y) = 1/y is not integrable at 0
    assert math.isinf(kx.psi_tail(lambda y: 1.0 / np.asarray(y, dtype=float), 0.5))
