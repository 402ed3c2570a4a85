import math

import numpy as np
import pytest

import kobex as kx
from kobex.domains import _moduli, _phi_flat
from kobex.scenarios import _square_first_map


def corner_sum_witness():
    return kx.PshWitness(
        fn=lambda z: np.abs(np.asarray(z, dtype=complex)[..., 0])
        + np.abs(np.asarray(z, dtype=complex)[..., 1]) - 1.0,
        hess=lambda z: np.eye(2) / (4.0 * _moduli(z))[..., None],
        smooth=lambda z: np.all(_moduli(z) > 1e-9, axis=-1))


def flat_graph_witness():
    def fn(z):
        z = np.asarray(z, dtype=complex)
        return _phi_flat(np.abs(z[..., 1]) ** 2) - np.real(z[..., 0])

    def levi_w(aw):
        if aw == 0.0:
            return 0.0
        return 4.0 * aw ** -6 * math.exp(-1.0 / aw ** 4) * (1.0 / aw ** 4 - 1.0)

    def hess(z):
        aw = _moduli(z[..., 1])
        H = np.zeros(aw.shape + (2, 2))
        H[..., 1, 1] = np.reshape([levi_w(a) for a in aw.ravel().tolist()], aw.shape)
        return H

    w = kx.PshWitness(fn=fn, hess=hess)
    w.levi_w = levi_w
    return w


def without_hessian(u):
    # the same witness without its Hessian oracle: levi_form takes the
    # finite-difference route
    return kx.PshWitness(fn=u.fn, smooth=u.smooth)


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
        assert kx.levi_form(u, kx.cpoint(0.1, 0.2), v) == \
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
        f = kx.levi_form(without_hessian(u), z, v)
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


def _corner_rows(rng, m):
    r = 0.15 + 0.3 * rng.random((m, 2))
    zs = r * np.exp(2j * math.pi * rng.random((m, 2)))
    vs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    return zs, vs


@pytest.mark.parametrize("hessian", [True, False])
def test_levi_rows_equal_one_row_calls(hessian, rng):
    zs, vs = _corner_rows(rng, 40)
    vs[3] = 0.0
    for u in (corner_sum_witness(), flat_graph_witness()):
        u = u if hessian else without_hessian(u)
        rows = kx.levi_form(u, zs, vs)
        one = [kx.levi_form(u, z, v) for z, v in zip(zs, vs)]
        assert rows.shape == (40,)
        assert all(type(x) is float for x in one)
        assert np.array_equal(rows, one)
        assert rows[3] == 0.0
        # one direction for all rows
        assert np.array_equal(kx.levi_form(u, zs, vs[0]),
                              kx.levi_form(u, zs, np.tile(vs[0], (40, 1))))


@pytest.mark.parametrize("route", ["analytic", "fd", "cross_check"])
def test_levi_form_of_no_rows_is_empty(route):
    # every route returns an empty (0,) array for zero rows, as the other
    # batched entry points do
    u = corner_sum_witness() if route != "fd" else without_hessian(corner_sum_witness())
    for v in (np.zeros((0, 2), complex), kx.cpoint(1, 0)):
        out = kx.levi_form(u, np.zeros((0, 2), complex), v, cross_check=route == "cross_check")
        assert out.shape == (0,) and out.dtype == float


def test_levi_fd_rows_sum_in_scalar_order(rng):
    # the difference quotient of one point at a time, term by term
    u = corner_sum_witness()
    zs, vs = _corner_rows(rng, 200)

    def scalar_fd(z, v):
        nv = np.linalg.norm(v)
        vhat = v / nv
        h = 1e-5 * (1.0 + np.linalg.norm(z))

        def quarter_laplacian(hh):
            acc = -4.0 * float(u(z))
            for d in (vhat, 1j * vhat):
                acc += float(u(z + hh * d)) + float(u(z - hh * d))
            return acc / (4.0 * hh * hh)

        return (4.0 * quarter_laplacian(h / 2.0) - quarter_laplacian(h)) / 3.0 * (nv * nv)

    want = [scalar_fd(z, v) for z, v in zip(zs, vs)]
    assert np.array_equal(kx.levi_form(without_hessian(u), zs, vs), want)


def test_levi_cross_check_catches_one_wrong_row(rng):
    def hess(z):
        return np.where(z[..., 0].real > 0.5, 3.0, 1.0)[..., None, None] * np.eye(2)

    u = kx.PshWitness(fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1), hess=hess)
    zs, vs = _corner_rows(rng, 5)
    assert np.allclose(kx.levi_form(u, zs, vs, cross_check=True),
                       np.sum(np.abs(vs) ** 2, axis=-1))
    zs[2, 0] = 0.6
    with pytest.raises(kx.SmoothnessError):
        kx.levi_form(u, zs, vs, cross_check=True)


def test_levi_rejects_one_non_smooth_row(rng):
    zs, vs = _corner_rows(rng, 5)
    zs[4, 1] = 0.0
    for u in (corner_sum_witness(), without_hessian(corner_sum_witness())):
        with pytest.raises(kx.SmoothnessError):
            kx.levi_form(u, zs, vs)


def test_levi_form_makes_one_hess_and_one_smooth_call(ball2, rng):
    u = corner_sum_witness()
    calls = {"hess": 0, "smooth": 0}

    def counted(name, fn):
        def oracle(z):
            calls[name] += 1
            return fn(z)
        return oracle

    u.hess, u.smooth = counted("hess", u.hess), counted("smooth", u.smooth)
    zs, vs = _corner_rows(rng, 50)
    kx.levi_form(u, zs, vs)
    assert calls == {"hess": 1, "smooth": 1}
    kx.levi_form(u, zs, vs, cross_check=True)
    assert calls == {"hess": 2, "smooth": 2}
    kx.check_psh(u, ball2, zs)   # its own smooth call, then levi_form's
    assert calls == {"hess": 3, "smooth": 4}


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
    # a linear function has a vanishing complex Hessian, so every sampled
    # Levi form reads exactly zero, which the floor accepts
    u = kx.PshWitness(fn=lambda z: -np.real(np.asarray(z, dtype=complex)[..., 0]) - 2.0,
                      hess=lambda z: np.zeros(np.shape(z) + np.shape(z)[-1:]))
    samples = [np.array([0.1 * k, 0.05j * k]) for k in range(1, 6)]
    rep = kx.check_psh(u, ball2, samples, seed=1)
    assert rep.passes
    assert abs(rep.min_value) < 1e-10


def test_check_psh_skips_axis_sample_without_drawing(ball2):
    u = corner_sum_witness()
    smooth = [np.array([0.3, 0.2j]), np.array([-0.1, 0.4 - 0.1j])]
    rep = kx.check_psh(u, ball2, [smooth[0], np.array([0.3, 0.0]), smooth[1]], seed=2)
    assert rep.n_checked == 4 * len(smooth)
    # the loop it replaces: four directions per smooth sample, drawn in turn
    rng = np.random.default_rng(2)
    vals = []
    for z in smooth:
        for _ in range(4):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            vals.append((kx.levi_form(u, z, v), z, v))
    want = min(vals, key=lambda t: t[0])
    assert rep.min_value == want[0]
    assert np.array_equal(rep.argmin[0], want[1])
    assert np.array_equal(rep.argmin[1], want[2])
    assert rep.violations == 0


def test_check_psh_flags_concave(ball2):
    u = kx.PshWitness(fn=lambda z: -np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    samples = [np.array([0.1, 0.1j]), np.array([0.2, 0.0])]
    rep = kx.check_psh(u, ball2, samples, seed=1)
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
    fit = kx.hopf_fit(phi, ball2, _ball_band_points(rng, range(2, 10)))
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
                    ball2, pts)


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
    fit = kx.hopf_fit(rho, d21, pts)
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

    Fm = kx.FiberMap(fibers=fibers)
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
                     omega21, list(ws)).C
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


def test_nearest_point_cubic_closed_form_on_the_example21_grid():
    # Cardano's root on example21's stage-2 grid lies in (x0, 1) and leaves
    # a cubic residual at rounding level
    x0 = np.linspace(0.9, 1.0, 102)[1:-1]
    y0 = np.linspace(0.0, 0.1, 101)[:-1]
    X0, Y0 = np.meshgrid(x0, y0)
    mask = X0 ** 2 + Y0 < 1.0
    x0, y0 = X0[mask], Y0[mask]
    assert x0.size == 7504
    X, _ = kx.nearest_point_cubic(x0, y0)
    assert np.all((x0 < X) & (X < 1.0))
    assert np.max(np.abs(2.0 * X ** 3 + (2.0 * y0 - 1.0) * X - x0)) <= 1e-15


def test_nearest_point_cubic_rejects_rows_outside_its_region():
    # the moduli section is x0, y0 >= 0, x0^2 + y0 < 1; at (0.05, 0), inside
    # it, the cubic has three real roots
    X, _ = kx.nearest_point_cubic(0.05, 0.0)
    assert abs(2.0 * X ** 3 - X - 0.05) <= 4e-15
    for x0, y0 in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.75), (0.9, 0.5), (-0.1, 0.2),
                   (0.2, -1e-300)):
        with pytest.raises(kx.DomainError, match="needs"):
            kx.nearest_point_cubic(x0, y0)
    with pytest.raises(kx.DomainError, match="needs"):
        kx.nearest_point_cubic([0.95, 0.5], [0.0, 0.75])


def test_nearest_point_cubic_on_the_whole_section():
    # seeded rows of the section, the edges x0 = 0 (on both sides of and at
    # y0 = 1/2, where p = q = 0) and y0 = 0, and the three-root region s^2 <= 0
    rng = np.random.default_rng(21)
    r = rng.random((20_000, 2))
    r = r[r[:, 0] ** 2 + r[:, 1] < 1.0][:10_000]
    edges = [(0.0, y) for y in (0.0, 0.25, 0.4999999, 0.5, 0.5000001, 0.75, 0.999999)]
    edges += [(x, 0.0) for x in (1e-300, 1e-12, 0.05, 0.5, 0.999999)]
    edges += [(0.05, 0.1), (0.1, 0.3), (0.01, 0.49), (0.3, 0.0)]
    x0, y0 = np.concatenate([r, edges]).T
    assert x0.size == 10_016
    p, q = y0 - 0.5, -0.5 * x0
    assert np.count_nonzero(q * q / 4.0 + p ** 3 / 27.0 <= 0.0) > 500

    X, Y = kx.nearest_point_cubic(x0, y0)
    assert not np.any(np.isnan(X))
    assert np.all((0.0 <= X) & (X < 1.0)) and np.array_equal(Y, 1.0 - X ** 2)
    assert np.max(np.abs(2.0 * X ** 3 + (2.0 * y0 - 1.0) * X - x0)) <= 4e-15
    # the largest root is the nearest curve point: no point of a dense
    # sample of the curve is nearer
    T = np.linspace(0.0, 1.0, 2049)
    d = np.hypot(X - x0, Y - y0)
    for rows in np.array_split(np.arange(x0.size), 20):
        grid = np.hypot(T - x0[rows, None], 1.0 - T ** 2 - y0[rows, None]).min(axis=1)
        assert np.all(d[rows] <= grid + 1e-15)
    # the root 0 of x0 = 0, y0 >= 1/2, exact where p = q = 0
    assert np.all(X[(x0 == 0.0) & (y0 >= 0.5)] <= 1e-16)
    assert X[(x0 == 0.0) & (y0 == 0.5)].tolist() == [0.0]
    one = [float(kx.nearest_point_cubic(a, b)[0]) for a, b in zip(x0[::10], y0[::10])]
    assert np.array_equal(one, X[::10])


# ---------------------------------------------------------------------------
# pushforward barrier
# ---------------------------------------------------------------------------

def test_pushforward_identity_map():
    rho = kx.PshWitness(fn=lambda zs: -np.ones(np.atleast_2d(zs).shape[0]))
    Fm = kx.FiberMap(fibers=lambda w: np.asarray(w, dtype=complex)[None, :])
    assert kx.pushforward_tau(Fm, rho, kx.cpoint(0.2, 0.1)) == -1.0


def test_pushforward_permutation_invariant():
    rho = kx.PshWitness(fn=lambda zs: -np.abs(np.atleast_2d(zs)[..., 0]) - 0.5)

    def fib_a(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[r, w[1]], [-r, w[1]]])

    def fib_b(w):
        r = np.sqrt(complex(w[0]))
        return np.array([[-r, w[1]], [r, w[1]]])

    w = kx.cpoint(0.3 + 0.2j, 0.1)
    t1 = kx.pushforward_tau(kx.FiberMap(fibers=fib_a), rho, w)
    t2 = kx.pushforward_tau(kx.FiberMap(fibers=fib_b), rho, w)
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

    Fm = kx.FiberMap(fibers=fib)
    for _ in range(50):
        x, y = rng.random(), rng.random()
        if x + y >= 0.98:
            continue
        w = np.array([x * np.exp(2j * math.pi * rng.random()),
                      y * np.exp(1j * rng.random())])
        assert kx.pushforward_tau(Fm, rho, w) < 0
        assert np.max(np.abs(fwd(fib(w)) - w)) <= 1e-10 * (1.0 + np.linalg.norm(w))


def test_pushforward_empty_fiber_errors():
    Fm = kx.FiberMap(fibers=lambda w: np.zeros((0, 2), dtype=complex))
    rho = kx.PshWitness(fn=lambda zs: -np.ones(np.atleast_2d(zs).shape[0]))
    with pytest.raises(kx.DomainError):
        kx.pushforward_tau(Fm, rho, kx.cpoint(0, 0))


def test_pushforward_rows_equal_one_point_calls(rng):
    F, _, fibers = _square_first_map()
    Fm = kx.FiberMap(fibers=fibers)
    rho = kx.PshWitness(fn=lambda zs: np.abs(zs[..., 0]) ** 2 + np.abs(zs[..., 1]) - 1.0)
    ws = (rng.random((40, 2)) - 0.5) + 1j * (rng.random((40, 2)) - 0.5)
    assert np.allclose(F(fibers(ws)), np.stack([ws, ws], axis=1), rtol=0.0, atol=1e-15)
    taus = kx.pushforward_tau(Fm, rho, ws)
    assert taus.shape == (40,)
    assert taus.tolist() == [kx.pushforward_tau(Fm, rho, w) for w in ws]
    empty = kx.FiberMap(fibers=lambda w: np.zeros(w.shape[:-1] + (0, 2), complex))
    with pytest.raises(kx.DomainError):
        kx.pushforward_tau(empty, rho, ws)


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
            assert kx.psi_tail(psi, t) == kx.PsiLadder(psi, t).tail(0)


def test_psi_tail_diverges_for_critical_rate():
    # psi(y) = 1/y is not integrable at 0
    assert math.isinf(kx.psi_tail(lambda y: 1.0 / np.asarray(y, dtype=float), 0.5))
