import math
from functools import partial

import numpy as np
import pytest

import kobex as kx
from kobex import charts, regularity, scenarios
from kobex.regularity import dyadic_panels


def sqrt_rate():
    return kx.ModulusOfContinuity.from_function(np.sqrt, 1.0, name="sqrt")


def linear_rate():
    return kx.ModulusOfContinuity.from_function(lambda r: r, 1.0, name="lin")


def slow_log_rate():
    def fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            v = 1.0 / (1.0 + np.abs(np.log(np.where(r > 0, r, 1.0))))
        return np.where(r > 0, v, 0.0)
    return kx.ModulusOfContinuity.from_function(fn, 1.0, name="slow-log")


# ---------------------------------------------------------------------------
# rate integrals
# ---------------------------------------------------------------------------

def test_dini_sqrt():
    res = kx.dini_integral(sqrt_rate(), 1.0)
    assert not res.divergent
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_dini_linear():
    res = kx.dini_integral(linear_rate(), 1.0)
    assert not res.divergent
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_dini_slow_log_diverges():
    res = kx.dini_integral(slow_log_rate(), 1.0)
    assert res.divergent
    # dyadic partial sums grow like the harmonic series: check directly
    k = np.arange(1, 41)
    panels = np.log(2.0) / (1.0 + k * np.log(2.0))  # lower bound per level
    assert np.all(np.cumsum(panels)[1:] > np.cumsum(panels)[:-1])
    assert panels[-1] > 0.01   # contributions are not decaying away


def test_dini_monotone_and_additive():
    w = sqrt_rate()
    lo = kx.dini_integral(w, 0.25).value
    hi = kx.dini_integral(w, 1.0).value
    assert hi >= lo
    # additivity over (0, eps1] and [eps1, eps2]
    from scipy.integrate import quad
    mid, _ = quad(lambda r: math.sqrt(r) / r, 0.25, 1.0)
    assert lo + mid == pytest.approx(hi, abs=1e-6)


def test_dini_rejects_bad_eps():
    with pytest.raises(kx.DomainError):
        kx.dini_integral(sqrt_rate(), -1.0)
    with pytest.raises(kx.DomainError):
        kx.dini_integral(sqrt_rate(), 2.0)


def test_dyadic_panels_sum_to_sqrt_integral():
    t = 0.5
    panels = dyadic_panels(lambda r: r ** -0.5, t, 60, 17)
    want = 2.0 * math.sqrt(t) - 2.0 * math.sqrt(t * 2.0 ** -60)
    assert panels.shape == (60,)
    assert np.sum(panels) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [17, 33])
def test_dyadic_panels_match_one_simpson_call_per_level(n):
    # the (levels, n) grid must not change how any level's terms are summed
    from scipy import integrate
    f = lambda r: np.sqrt(r) / r + np.log1p(r)
    ref = [integrate.simpson(f(x), x=x) for x in
           (np.linspace(0.3 * 2.0 ** -(k + 1), 0.3 * 2.0 ** -k, n) for k in range(60))]
    assert np.array_equal(dyadic_panels(f, 0.3, 60, n), ref)


def test_composed_rate_preserves_integrability():
    comp = kx.composed_rate(sqrt_rate(), 3.0, 0.5)
    res = kx.dini_integral(comp, comp.domain_end)
    assert not res.divergent
    # sqrt(3) * integral of r^(1/4 - 1) over (0, 1/9] = sqrt(3)*4*(1/9)^(1/4)
    assert res.value == pytest.approx(math.sqrt(3) * 4 * (1 / 9) ** 0.25, abs=1e-5)


def test_table_modulus_monotone_envelope():
    w = kx.ModulusOfContinuity.from_table([0.0, 0.2, 0.4, 0.6, 1.0],
                                          [0.0, 0.5, 0.3, 0.8, 0.9])
    r = np.linspace(0, 1, 101)
    vals = np.atleast_1d(w(r))
    assert np.all(np.diff(vals) >= -1e-15)
    assert w(0.0) == 0.0


# ---------------------------------------------------------------------------
# gradient modulus of a chart graph
# ---------------------------------------------------------------------------

def test_estimate_modulus_flat():
    w = kx.estimate_modulus(charts.flat_chart())
    assert float(w(w.domain_end)) == 0.0


def test_estimate_modulus_identity_gradient():
    # phi(x) = |x|^2 / 2 has gradient x, so the gradient jump equals the
    # pair distance exactly; brute-force pair maximum is the oracle
    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        return 0.5 * np.sum(coords ** 2, axis=-1)

    def grad_phi(coords):
        return np.asarray(coords, dtype=float)

    ch = kx.GraphChart(base=np.zeros(2, complex), unitary=np.eye(2, dtype=complex),
                       radius=0.5, phi=phi, grad_phi=grad_phi,
                       regularity="c1_dini")
    rng = np.random.default_rng(2)
    x = (rng.random((4000, 3)) - 0.5)
    y = (rng.random((4000, 3)) - 0.5)
    w = kx.estimate_modulus(ch, pair_samples=(x, y))
    d = np.linalg.norm(x - y, axis=-1)
    jump = np.linalg.norm(grad_phi(x) - grad_phi(y), axis=-1)
    end = 2.0 * math.sqrt(2.0) * ch.radius
    for r in np.linspace(0.0, end, 65)[[8, 24, 48]]:
        oracle = jump[d <= r].max()
        assert float(w(r)) == pytest.approx(oracle, rel=1e-9)
        assert float(w(r)) == pytest.approx(r, rel=0.15)  # identity gradient


def test_estimate_modulus_needs_gradient():
    with pytest.raises(kx.ChartError):
        kx.estimate_modulus(charts.ex21_chart())  # lipschitz only


def test_estimate_modulus_ex22_is_dini():
    w = kx.estimate_modulus(charts.ex22_chart())
    res = kx.dini_integral(w, w.domain_end)
    assert not res.divergent


# ---------------------------------------------------------------------------
# integrated modulus h
# ---------------------------------------------------------------------------

def test_h_integral_values():
    assert kx.h_integral(linear_rate(), 0.3) == pytest.approx(0.045, abs=1e-12)
    assert kx.h_integral(linear_rate(), 0.0) == 0.0
    assert kx.h_integral(sqrt_rate(), 0.09) == pytest.approx(0.018, abs=1e-9)
    assert kx.h_integral(sqrt_rate(), 0.09) == pytest.approx(0.018, abs=1e-15)
    # even in t
    assert kx.h_integral(linear_rate(), -0.3) == pytest.approx(0.045, abs=1e-12)


def test_h_integral_of_a_table_is_exact_between_table_points():
    # the table is piecewise linear, so the integral is piecewise quadratic
    w = kx.ModulusOfContinuity.from_table([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])
    for t, exact in [(0.25, 0.0), (0.5, 0.0), (0.6, 0.01), (0.75, 0.0625), (1.0, 0.25)]:
        assert kx.h_integral(w, t) == pytest.approx(exact, rel=1e-12, abs=1e-15)
        assert kx.h_integral(w, -t) == kx.h_integral(w, t)


def test_h_vanishes_to_first_order():
    ts = np.geomspace(1e-6, 1e-2, 8)
    ratios = np.array([kx.h_integral(sqrt_rate(), t) / t for t in ts])
    assert np.all(np.diff(ratios) > 0)   # h(t)/t shrinks toward 0
    assert ratios[0] < 1e-3 and ratios[-1] < 0.1


@pytest.mark.parametrize("omega", ["function", "table"])
def test_h_integral_of_an_array_is_the_scalar_calls(omega, rng):
    w = sqrt_rate() if omega == "function" else kx.estimate_modulus(charts.ex22_chart())
    ts = np.concatenate([[0.0, w.domain_end, -0.5 * w.domain_end],
                         (rng.random(200) - 0.5) * (2.0 * w.domain_end)])
    rows = kx.h_integral(w, ts.reshape(29, 7))
    assert rows.shape == (29, 7)
    assert rows.tobytes() == np.array([kx.h_integral(w, float(t)) for t in ts]).tobytes()
    with pytest.raises(kx.DomainError):
        kx.h_integral(w, np.array([0.0, 1.1 * w.domain_end]))


def test_h_convex_where_omega_increasing():
    h = partial(kx.h_integral, sqrt_rate())
    grid = np.linspace(0.0, 1.0, 41)
    for a in grid[::4]:
        for b in grid[::4]:
            assert h(0.5 * (a + b)) <= 0.5 * (h(a) + h(b)) + 1e-12


# ---------------------------------------------------------------------------
# model domains
# ---------------------------------------------------------------------------

def test_model_domain_membership():
    p = kx.ModelDomainParams(beta=2.0, eps=0.1, omega=linear_rate())
    assert bool(kx.model_domain_contains(p, 0.05 + 0.01j))
    assert not bool(kx.model_domain_contains(p, 0.1 + 0.0j))   # strict at eps
    assert bool(kx.model_domain_contains(p, 0.05 + 0.0j))      # h(0) = 0


def test_model_domain_symmetry():
    p = kx.ModelDomainParams(beta=2.0, eps=0.1, omega=sqrt_rate())
    zs = kx.sample_model_domain(p, 200, seed=3)
    flipped = np.conj(zs)
    assert np.all(kx.model_domain_contains(p, flipped))


def test_model_domain_edge_is_beta_h_on_a_table():
    w = kx.ModulusOfContinuity.from_table([0.0, 0.02, 0.05, 0.1], [0.0, 0.1, 0.15, 0.4])
    p = kx.ModelDomainParams(beta=3.0, eps=0.09, omega=w)
    for t in (0.01, 0.03, -0.04, 0.07):
        s = p.beta * kx.h_integral(w, t)
        assert not kx.model_domain_contains(p, complex(s, t))
        assert kx.model_domain_contains(p, complex(np.nextafter(s, 1.0), t))
    assert not kx.model_domain_contains(p, 0.05 + 0.5j)   # |t| past the modulus domain


def test_select_embedding_params_linear_modulus():
    ch = charts.flat_chart()
    params = kx.select_embedding_params(ch, m=1.0, r_V=0.1, omega=linear_rate())
    assert params.beta == pytest.approx(4.0 * math.sqrt(2.0))
    # h(beta x) = beta^2 x^2 / 2 < x forces x < 2/beta^2 = 1/16
    assert params.eps == pytest.approx(1.0 / 16.0, rel=2e-3)
    assert params.eps < 1.0 / 16.0


def test_select_embedding_params_flat_modulus():
    ch = charts.flat_chart()
    w0 = kx.ModulusOfContinuity.from_function(lambda r: 0.0 * r, 1.0)
    params = kx.select_embedding_params(ch, m=1.0, r_V=0.1, omega=w0)
    assert params.eps == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-6)
    assert params.provenance["binding"] == "patch-clearance"


def test_select_embedding_params_stays_in_the_modulus_domain():
    # omega = r on [0, 0.1]: h(beta x) is undefined once beta x > 0.1, so eps
    # stops there although h(beta x) < x would hold up to x = 1/16
    w = kx.ModulusOfContinuity.from_function(lambda r: r, 0.1)
    params = kx.select_embedding_params(charts.flat_chart(), m=1.0, r_V=0.1, omega=w)
    assert params.beta * params.eps <= w.domain_end
    assert params.eps > 0.1 / params.beta - params.provenance["eps_cap"] / 1000
    assert params.provenance["binding"] == "modulus-growth"


def test_select_embedding_params_small_gradient():
    ch = charts.flat_chart()
    p1 = kx.select_embedding_params(ch, m=1.0, r_V=0.1, omega=linear_rate())
    p2 = kx.select_embedding_params(ch, m=0.1, r_V=0.1, omega=linear_rate())
    assert p2.beta > p1.beta
    assert p2.eps < p1.eps


@pytest.mark.parametrize("omega", ["linear", "sqrt", "ex22"])
def test_select_embedding_params_eps_keeps_h_below_x(omega):
    # the forward rule h(beta x) < x holds at 1,000 points of (0, eps]
    ch = charts.ex22_chart() if omega == "ex22" else charts.flat_chart()
    w = {"linear": linear_rate, "sqrt": sqrt_rate,
         "ex22": lambda: kx.estimate_modulus(ch)}[omega]()
    params = kx.select_embedding_params(ch, m=1.0, r_V=0.1, omega=w)
    xs = np.linspace(params.eps / 1000, params.eps, 1000)
    assert np.all(kx.h_integral(params.omega, params.beta * xs) < xs)


def test_select_embedding_params_rejects_bad_inputs():
    ch = charts.flat_chart()
    with pytest.raises(kx.DomainError):
        kx.select_embedding_params(ch, m=0.0, r_V=0.1, omega=linear_rate())
    with pytest.raises(kx.DomainError):
        kx.select_embedding_params(ch, m=1.0, r_V=1.0, omega=linear_rate())


# ---------------------------------------------------------------------------
# embedding verification
# ---------------------------------------------------------------------------

def test_verify_embedding_flat_halfspace():
    D = charts.flat_domain()
    ch = charts.flat_chart()
    params = kx.select_embedding_params(ch, m=1.0, r_V=0.2,
                                        omega=kx.estimate_modulus(ch))
    xis = [ch.from_chart(np.array([a + 0.0j, b + 0.0j]))
           for a in (-0.2, 0.0, 0.2) for b in (-0.2, 0.0, 0.2)]
    zetas = kx.sample_model_domain(params, 80, seed=0)
    rep = kx.verify_embedding(D, ch, xis, params, zetas)
    assert rep.ok
    assert rep.worst_margin < 0.0


def test_verify_embedding_doubled_eps_breaks(d22):
    ch = charts.ex22_chart()
    omega_p = kx.estimate_modulus(ch)
    xis = []
    for xedge in np.linspace(-0.15, 0.15, 7):
        val = float(ch.phi(np.array([0.0, 0.0, xedge])))
        xis.append(ch.from_chart(np.array([0.0 + 0.0j, xedge + 1j * val])))
    params = kx.select_embedding_params(ch, m=1.0, r_V=0.1, omega=omega_p)
    good = kx.verify_embedding(d22, ch, xis, params,
                               kx.sample_model_domain(params, 60, seed=2))
    assert good.ok
    doubled = kx.ModelDomainParams(beta=params.beta, eps=2 * params.eps,
                                   omega=params.omega)
    bad = kx.verify_embedding(d22, ch, xis, doubled,
                              kx.sample_model_domain(doubled, 60, seed=2))
    assert len(bad.violations) >= 1


def test_verify_embedding_equals_the_per_point_loop(monkeypatch):
    # the embedding-suite calls, the doubled-eps control among them
    calls = []
    real = regularity.verify_embedding

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(regularity, "verify_embedding", spy)
    scenarios.scenario_embedding_suite(seed=0)
    assert len(calls) == 2 and calls[1][1].violations
    for (D, chart, points, _, zetas), rep in calls:
        total, violations, worst = 0, [], -math.inf
        for xi in points:
            pts = xi[None, :] + zetas[:, None] * kx.inward_normal(D, xi)[None, :]
            g = D.value(pts)
            Z = chart.to_chart(pts)
            inb = chart.in_box(Z)
            y = np.where(inb, Z[..., -1].imag - chart.phi_at(Z), -1.0)
            bad = np.flatnonzero(~((g < 0.0) & inb & (y > 0.0)))
            violations += [(xi, complex(zetas[j]), float(g[j])) for j in bad]
            worst = max(worst, float(np.max(g)))
            total += zetas.size
        assert rep.n_pairs == total
        assert rep.worst_margin == worst
        assert len(rep.violations) == len(violations)
        for got, want in zip(rep.violations, violations):
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("name", sorted(charts.BUNDLED_CHARTS))
def test_boundary_point_rows_equal_one_point_calls(name, rng):
    ch = charts.BUNDLED_CHARTS[name]()
    u = (rng.random((30, 3)) - 0.5) * 0.2
    zp = (u[:, 0] + 1j * u[:, 1])[:, None]
    rows = ch.boundary_point(zp, u[:, 2])
    assert rows.shape == (30, 2)
    for k in range(30):
        assert np.array_equal(ch.boundary_point(zp[k], u[k, 2]), rows[k])
    assert np.array_equal(ch.boundary_point(zp.reshape(5, 6, 1), u[:, 2].reshape(5, 6)),
                          rows.reshape(5, 6, 2))
    assert np.all(np.abs(kx.vertical_height(ch, rows)) <= 1e-15)


# ---------------------------------------------------------------------------
# vertical height and the distance sandwich
# ---------------------------------------------------------------------------

def test_vertical_height_flat():
    ch = charts.flat_chart()
    assert kx.vertical_height(ch, np.array([0.0 + 0j, 0.3j])) == \
        pytest.approx(0.3)
    assert kx.vertical_height(ch, np.array([0.1 + 0.05j, 0.2 + 0j])) == 0.0


def test_vertical_height_is_graph_offset():
    ch = charts.ex21_chart()
    zp = np.array([0.05 - 0.02j])
    xi = ch.boundary_point(zp, 0.03)
    for t in (1e-4, 0.01, 0.1):
        Z = xi.copy()
        Z[-1] += 1j * t
        assert kx.vertical_height(ch, Z) == pytest.approx(t, abs=1e-10)
    assert kx.vertical_height(ch, xi) == pytest.approx(0.0, abs=1e-12)


def test_vertical_height_out_of_box():
    ch = charts.flat_chart()
    with pytest.raises(kx.ChartError):
        kx.vertical_height(ch, np.array([0.9 + 0j, 0.3j]))


def _interior_chart_samples(D, ch, rng, count, pull=0.3):
    out = []
    while len(out) < count:
        c = (rng.random(3) - 0.5) * (2 * pull * ch.radius)
        zp = c[0] + 1j * c[1]
        if abs(zp) >= ch.radius * pull:
            continue
        val = float(ch.phi(np.array([c[0], c[1], c[2]])))
        lift = rng.random() * 0.25 * ch.radius + 1e-6
        Z = np.array([zp, c[2] + 1j * (val + lift)])
        pt = ch.from_chart(Z)
        if bool(kx.contains(D, pt)) and ch.in_box(Z):
            out.append(pt)
    return np.array(out)


def test_sandwich_flat_is_exact(rng):
    D = charts.flat_domain()
    ch = charts.flat_chart()
    C = kx.verify_lipschitz_sandwich(D, ch, _interior_chart_samples(D, ch, rng, 150))
    assert C == pytest.approx(1.0, abs=1e-9)


def test_sandwich_tilted_is_sqrt2(rng):
    D = charts.tilted_domain()
    ch = charts.tilted_chart()
    C = kx.verify_lipschitz_sandwich(D, ch, _interior_chart_samples(D, ch, rng, 300))
    assert 1.0 <= C <= math.sqrt(2.0) + 1e-9
    assert C == pytest.approx(math.sqrt(2.0), abs=1e-2)


def test_sandwich_ex22_close_to_one(d22, rng):
    ch = charts.ex22_chart()
    C = kx.verify_lipschitz_sandwich(d22, ch,
                                     _interior_chart_samples(d22, ch, rng, 150))
    assert 1.0 <= C <= 1.05  # the graph gradient is flat near the base


def test_sandwich_detects_inconsistent_chart(rng):
    # a chart whose claimed graph sits strictly above the true boundary
    D = charts.flat_domain()

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        return 0.05 + 0.0 * coords[..., -1]

    ch = kx.GraphChart(base=np.zeros(2, complex), unitary=np.eye(2, dtype=complex),
                       radius=0.5, phi=phi, regularity="lipschitz")
    pts = np.array([[0.0 + 0j, 0.06j], [0.01 + 0j, 0.07j]])
    with pytest.raises(kx.ChartError):
        kx.verify_lipschitz_sandwich(D, ch, pts)


# ---------------------------------------------------------------------------
# chart consistency across the bundle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(charts.BUNDLED_CHARTS))
def test_bundled_charts_realize_their_domains(name):
    mk = charts.BUNDLED_CHARTS[name]
    dom = {"ex21": kx.ex21_D, "ex22": kx.ex22_D, "ball": lambda: kx.ball(2),
           "flat": charts.flat_domain, "tilted45": charts.tilted_domain}[name]()
    rep = kx.chart_consistency(dom, mk())
    assert rep["passes"], rep
