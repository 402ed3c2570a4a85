import math

import numpy as np
import pytest

import kobex as kx
from kobex import charts, scenarios

EV = np.array([0.0, 1j])


def square_first_map():
    def F(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def jac(z):
        z = np.asarray(z, dtype=complex)
        J = np.zeros(z.shape + (2,), dtype=complex)
        J[..., 0, 0] = 2.0 * z[..., 0]
        J[..., 1, 1] = 1.0
        return J

    return F, jac


def sqrt_rate_psi(C=1.0):
    ctilde = 2.0 * math.sqrt(2.0)
    M = kx.ModulusOfContinuity.from_function(lambda t: ctilde * np.sqrt(t), 8.0)
    return kx.make_psi(M, s=1.0, alpha_star=1.0, C=C)


@pytest.fixture(scope="module")
def corner_map():
    chart = charts.ex21_chart()
    F, jac = square_first_map()
    return chart, kx.HolomorphicMap.from_ambient(F, chart, jacobian=jac)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_matches_central_differences(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.05 + 0.01j]), -0.03)
    Z = xi + 0.05 * EV
    h = 1e-6
    deriv = fmap.derivative(Z)
    Zp, Zm = Z.copy(), Z.copy()
    Zp[-1] += h
    Zm[-1] -= h
    fd = (np.asarray(fmap.fn(Zp)) - np.asarray(fmap.fn(Zm))) / (2.0 * h)
    assert np.max(np.abs(deriv - fd)) / max(np.max(np.abs(deriv)), 1e-12) < 1e-6


def test_derivative_is_batched(corner_map):
    chart, fmap = corner_map
    xis = np.array([chart.boundary_point(np.array([a]), b)
                    for a, b in ((0.04 - 0.03j, 0.02), (-0.05 + 0.01j, 0.0),
                                 (0.01 + 0.0j, -0.03))])
    Z = xis[:, None, :] + np.array([1e-5, 1e-3, 0.02, 0.05])[:, None] * EV
    stacked = np.array([[fmap.derivative(z) for z in row] for row in Z])
    assert np.array_equal(fmap.derivative(Z), stacked)


# ---------------------------------------------------------------------------
# vertical line integrals
# ---------------------------------------------------------------------------

def test_integral_of_last_coordinate(corner_map):
    chart, _ = corner_map
    fmap = kx.HolomorphicMap(fn=lambda Z: np.asarray(Z, dtype=complex),
                             dzn=lambda Z: np.zeros_like(Z) + np.array([0.0, 1.0]),
                             chart=chart)
    xi = chart.boundary_point(np.array([0.02 + 0.0j]), 0.01)
    val, err = kx.normal_line_integral(fmap, xi, 1e-4, 0.01)
    direct = (xi + 0.01 * EV) - (xi + 1e-4 * EV)
    assert np.max(np.abs(val - direct)) < 1e-12


def test_integral_of_constant_vanishes(corner_map):
    chart, _ = corner_map
    fmap = kx.HolomorphicMap(fn=lambda Z: np.broadcast_to(
        np.array([2.0 + 1j, -0.5]), np.asarray(Z).shape).copy(),
        dzn=lambda Z: np.zeros_like(Z), chart=chart)
    val, err = kx.normal_line_integral(fmap, chart.boundary_point(
        np.array([0.0 + 0.0j]), 0.0), 1e-4, 0.01)
    assert np.max(np.abs(val)) == 0.0


def test_integral_closed_form_antiderivative(corner_map):
    # the square-first map has a polynomial antiderivative along the line,
    # so the quadrature must reproduce the coordinate difference
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.06 - 0.04j]), 0.05)
    t, tp = 1e-3, 0.02
    val, err = kx.normal_line_integral(fmap, xi, t, tp, psi=sqrt_rate_psi())
    direct = np.asarray(fmap.fn(xi + tp * EV)) - np.asarray(fmap.fn(xi + t * EV))
    assert np.max(np.abs(val - direct)) < 1e-8
    assert err < 1e-8


XI = np.array([0.02 + 0.01j, 0.03 + 0.0j])


def sqrt_line_map():
    # F_1 = sqrt(-i (Z_n - xi_n)) is sqrt(x) on the line xi + x (0, i)
    def fn(Z):
        return np.stack([np.sqrt(-1j * (Z[..., -1] - XI[-1])), Z[..., 0]], -1)

    def dzn(Z):
        w = np.sqrt(-1j * (Z[..., -1] - XI[-1]))
        return np.stack([-0.5j / w, np.zeros_like(w)], -1)

    return kx.HolomorphicMap(fn=fn, dzn=dzn)


def log_line_map(c):
    # F_2 = log(Z_n - c), with its pole at c
    def fn(Z):
        return np.stack([Z[..., 0], np.log(Z[..., -1] - c)], -1)

    def dzn(Z):
        return np.stack([np.zeros(Z.shape[:-1]), 1.0 / (Z[..., -1] - c)], -1)

    return kx.HolomorphicMap(fn=fn, dzn=dzn)


@pytest.mark.parametrize("t", [1e-10, 1e-6, 1e-3])
def test_integral_of_inverse_sqrt_rate(t):
    # i dF_1/dZ_n = 1 / (2 sqrt(x)) on the line, blowing up at x = 0
    val, err = kx.normal_line_integral(sqrt_line_map(), XI, t, 0.01,
                                       psi=lambda y: 0.5 / np.sqrt(y))
    exact = math.sqrt(0.01) - math.sqrt(t)
    assert abs(val[0] - exact) <= 1e-12 * exact
    assert abs(val[0] - exact) <= err


@pytest.mark.parametrize("offset", [1e-4, 1e-6])
def test_integral_next_to_a_pole(offset):
    # the pole sits `offset` to the side of the line at height x0
    x0 = 0.003
    fmap = log_line_map(XI[-1] + 1j * x0 - offset)
    val, err = kx.normal_line_integral(fmap, XI, 1e-4, 0.01)
    exact = (np.log(offset + 1j * (0.01 - x0))
             - np.log(offset + 1j * (1e-4 - x0)))
    assert abs(val[1] - exact) <= max(err, 1e-12)


def test_integral_through_a_pole_raises():
    # int 1/(x - x0) dx diverges; the quadrature must not return a value
    fmap = log_line_map(XI[-1] + 1j * 0.003)
    with pytest.raises(kx.ConvergenceError, match="open after 24 rounds"):
        kx.normal_line_integral(fmap, XI, 1e-4, 0.01)


def test_integral_of_noise_stops_at_the_panel_cap():
    # an integrand that never settles splits every panel in every round;
    # the open-panel cap ends the refinement long before the round cap
    rng = np.random.default_rng(0)
    fmap = kx.HolomorphicMap(fn=lambda Z: Z,
                             dzn=lambda Z: rng.standard_normal(Z.shape) + 0j)
    with pytest.raises(kx.ConvergenceError, match="open after [0-9] rounds"):
        kx.normal_line_integral(fmap, XI, 1e-4, 0.01)


def test_integral_is_batched_over_lines():
    lines = np.array([[XI, XI + np.array([0.02, 0.0])],
                      [XI + np.array([0.0, 0.002]), XI - np.array([0.01j, 0.0])]])
    fmap = log_line_map(XI[-1] + 1j * 0.003 - 1e-4)
    val, err = kx.normal_line_integral(fmap, lines, 1e-4, 0.01)
    assert val.shape == lines.shape and err.shape == lines.shape[:-1]
    for idx in np.ndindex(lines.shape[:-1]):
        v1, e1 = kx.normal_line_integral(fmap, lines[idx], 1e-4, 0.01)
        assert np.array_equal(val[idx], v1)
        assert abs(err[idx] - e1) <= 1e-12 * e1


def test_panel_cap_counts_per_line():
    # 40 lines of exp(w (Z_n - xi_n)): about 64 open panels each, 2,560 in
    # all, far above QUAD_MAX_PANELS, yet every line resolves
    w = 4e4

    def fn(Z):
        return np.stack([Z[..., 0], np.exp(w * (Z[..., -1] - XI[-1]))], -1)

    def dzn(Z):
        return np.stack([np.zeros(Z.shape[:-1]),
                         w * np.exp(w * (Z[..., -1] - XI[-1]))], -1)

    lines = XI + np.arange(40)[:, None] * np.array([0.001, 0.0])
    val, err = kx.normal_line_integral(kx.HolomorphicMap(fn=fn, dzn=dzn),
                                       lines, 1e-4, 0.01)
    exact = np.exp(1j * w * 0.01) - np.exp(1j * w * 1e-4)
    assert np.all(np.abs(val[:, 1] - exact) <= np.maximum(err, 1e-12))


def test_open_panels_are_evaluated_in_bounded_blocks():
    # 20 lines of noise open 35,840 panels before the per-line cap stops
    # them; no derivative call holds more than one row block of panels
    rng = np.random.default_rng(0)
    panels = []

    def dzn(Z):
        panels.append(Z.shape[0])
        return rng.standard_normal(Z.shape) + 0j

    lines = XI + np.arange(20)[:, None] * np.array([0.001, 0.0])
    with pytest.raises(kx.ConvergenceError, match="35840 panels open"):
        kx.normal_line_integral(kx.HolomorphicMap(fn=lambda Z: Z, dzn=dzn),
                                lines, 1e-4, 0.01)
    assert max(panels) * 24 * 2 * 2 <= 8 * kx.domains.RAY_CHUNK


def test_one_unresolved_line_fails_the_batch():
    # the second line passes 0.01 beside the pole; the first runs through it
    fmap = log_line_map(XI[-1] + 1j * 0.003)
    lines = np.array([XI, XI + np.array([0.0, 0.01])])
    kx.normal_line_integral(fmap, lines[1], 1e-4, 0.01)
    with pytest.raises(kx.ConvergenceError, match="open after 24 rounds"):
        kx.normal_line_integral(fmap, lines, 1e-4, 0.01)


def test_integral_requires_interior_segment(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.0 + 0.0j]), 0.0)
    with pytest.raises(kx.DomainError):
        kx.normal_line_integral(fmap, xi, 0.02, 0.01)   # t >= t'


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def test_boundary_value_entire_map(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.03 + 0.02j]), -0.04)
    res = kx.boundary_value(fmap, xi, 0.005, 2.5e-7, psi=sqrt_rate_psi())
    assert np.max(np.abs(res.value - np.asarray(fmap.fn(xi)))) < 1e-6
    assert res.err_budget < 2.5e-7
    assert res.levels <= 60


def test_boundary_value_constant_map(corner_map):
    chart, _ = corner_map
    cval = np.array([0.7 - 0.2j, 1.5])
    fmap = kx.HolomorphicMap(fn=lambda Z: np.broadcast_to(
        cval, np.asarray(Z).shape).copy(),
        dzn=lambda Z: np.zeros_like(Z), chart=chart)
    xi = chart.boundary_point(np.array([0.0 + 0.0j]), 0.0)
    res = kx.boundary_value(fmap, xi, 0.005, 1e-8, psi=sqrt_rate_psi())
    assert np.allclose(res.value, cval)


def test_boundary_value_top_rung_independence(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([-0.05 + 0.01j]), 0.02)
    tol = 1e-6
    r1 = kx.boundary_value(fmap, xi, 0.004, tol, psi=sqrt_rate_psi())
    r2 = kx.boundary_value(fmap, xi, 0.002, tol, psi=sqrt_rate_psi())
    assert np.max(np.abs(r1.value - r2.value)) <= 2.0 * tol


def test_boundary_value_certificate(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.01 - 0.06j]), 0.03)
    res = kx.boundary_value(fmap, xi, 0.005, 1e-6, psi=sqrt_rate_psi())
    top = np.asarray(fmap.fn(xi + res.t_prime * EV))
    assert float(np.max(np.abs(res.value - top))) <= res.tail_bound


def test_boundary_value_tail_failure(corner_map):
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.0 + 0.0j]), 0.0)
    bad_psi = lambda y: 1.0 / np.asarray(y, dtype=float)   # not integrable
    with pytest.raises(kx.TailBoundError):
        kx.boundary_value(fmap, xi, 0.005, 1e-6, psi=bad_psi)


# ---------------------------------------------------------------------------
# grid extension
# ---------------------------------------------------------------------------

def _grid(chart, n, half_width=0.08):
    gx = np.linspace(-half_width, half_width, n)
    return np.array([chart.boundary_point(np.array([a + 0j]), b)
                     for a in gx for b in gx])


def test_extend_map_oracle_equivalence(corner_map):
    chart, fmap = corner_map
    grid = _grid(chart, 8)
    res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=2.5e-7,
                        psi=sqrt_rate_psi())
    direct = np.asarray(fmap.fn(grid))
    assert np.all(np.max(np.abs(res.value - direct), axis=-1)
                  <= 2.5e-7 + res.quadrature_error + 1e-9)


def test_extend_map_tol_shrink_never_worse(corner_map):
    chart, fmap = corner_map
    grid = _grid(chart, 4)
    direct = np.asarray(fmap.fn(grid))

    def worst(tol):
        res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=tol,
                            psi=sqrt_rate_psi())
        return np.max(np.abs(res.value - direct))

    assert worst(1e-7) <= worst(1e-6) + 1e-12


def test_extend_map_is_boundary_value_per_point(corner_map):
    chart, fmap = corner_map
    grid = _grid(chart, 8)
    res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=2.5e-7,
                        psi=sqrt_rate_psi())
    assert res.xi.shape == res.value.shape == grid.shape
    assert res.quadrature_error.shape == grid.shape[:1]
    for i, xi in enumerate(grid):
        one = kx.boundary_value(fmap, xi, 0.004, 2.5e-7, psi=sqrt_rate_psi())
        assert np.array_equal(res.value[i], one.value)
        assert (res.t_used, res.tail_bound, res.err_budget, res.levels) == \
            (one.t_used, one.tail_bound, one.err_budget, one.levels)
        # per-line error sums may round differently in a larger block
        assert abs(res.quadrature_error[i] - one.quadrature_error) \
            <= 1e-12 * one.quadrature_error


def test_extend_map_shares_derivative_calls_across_lines(corner_map):
    # the extension-oracle grid: 400 lines share each round's derivative
    # calls, a few row blocks of panels, instead of one call per line
    chart, fmap = corner_map
    calls = []
    counted = kx.HolomorphicMap(fn=fmap.fn, dzn=lambda Z: calls.append(1)
                                or fmap.dzn(Z), chart=chart)
    kx.extend_map(counted, chart, _grid(chart, 20, 0.1), tprime=0.005,
                  tol=2.5e-7, psi=sqrt_rate_psi())
    assert 0 < len(calls) <= 30


def test_extension_oracle_pass_makes_few_derivative_calls(monkeypatch):
    calls = []
    derivative = kx.HolomorphicMap.derivative
    monkeypatch.setattr(kx.HolomorphicMap, "derivative",
                        lambda self, Z: calls.append(1) or derivative(self, Z))
    assert scenarios.run_scenario("extension-oracle").passed
    assert len(calls) <= 30


def test_from_ambient_derivative_equals_the_stacked_matmul(corner_map):
    # dzn contracts the (..., n, n) Jacobians with the chart's last unitary
    # row by einsum; on the extension-oracle grid the line integrals and
    # their error estimates equal, bitwise, those of the matmul J @ uvec
    chart, fmap = corner_map
    _, jac = square_first_map()
    uvec = np.conj(chart.unitary)[chart.dim - 1, :]
    matmul = kx.HolomorphicMap(
        fn=fmap.fn, chart=chart,
        dzn=lambda Z: np.asarray(jac(chart.from_chart(Z)), dtype=complex) @ uvec)
    grid = _grid(chart, 20, 0.1)
    res = kx.extend_map(fmap, chart, grid, tprime=0.005, tol=2.5e-7, psi=sqrt_rate_psi())
    assert res.levels > 0
    (val, err), (ref, ref_err) = (kx.normal_line_integral(m, grid, res.t_used, 0.005,
                                                          psi=sqrt_rate_psi())
                                  for m in (fmap, matmul))
    assert val.shape == (400, 2)
    assert val.tobytes() == ref.tobytes() and err.tobytes() == ref_err.tobytes()


def test_telescoping_residual_detects_a_wrong_derivative(corner_map):
    # on the extension-oracle grid the residual |top - integral - value| is
    # rounding noise (1.4e-16); a 1 % error in dzn shows as about 1e-4
    chart, fmap = corner_map
    grid = _grid(chart, 20, 0.1)
    scaled = kx.HolomorphicMap(fn=fmap.fn, dzn=lambda Z: 1.01 * fmap.dzn(Z),
                               chart=chart)
    true, wrong = (kx.extend_map(m, chart, grid, tprime=0.005, tol=2.5e-7,
                                 psi=sqrt_rate_psi()) for m in (fmap, scaled))
    assert true.levels > 0
    assert np.max(true.quadrature_error) <= 1e-12
    assert np.min(wrong.quadrature_error) >= 1e-6


def test_extend_map_respects_safety_margin(corner_map):
    chart, fmap = corner_map
    grid = _grid(chart, 3)
    margin = kx.grid_safety_margin(chart, grid)
    with pytest.raises(kx.ChartError):
        kx.extend_map(fmap, chart, grid, tprime=2.0 * margin, tol=1e-6,
                      psi=sqrt_rate_psi())


# ---------------------------------------------------------------------------
# continuity of the recovered values
# ---------------------------------------------------------------------------

def test_continuity_constant_map(corner_map):
    chart, _ = corner_map
    cval = np.array([0.1, 0.2 + 0.3j])
    fmap = kx.HolomorphicMap(fn=lambda Z: np.broadcast_to(
        cval, np.asarray(Z).shape).copy(),
        dzn=lambda Z: np.zeros_like(Z), chart=chart)
    grid = _grid(chart, 4)
    res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=1e-7,
                        psi=sqrt_rate_psi())
    ladder = kx.PsiLadder(sqrt_rate_psi(), 0.004)
    rep = kx.continuity_modulus(res.xi, res.value, fmap, ladder)
    assert np.all(rep.empirical == 0.0)


def test_continuity_budget_monotone(corner_map):
    # doubling the rate budget never shrinks the certified bound
    chart, fmap = corner_map
    grid = _grid(chart, 5)
    res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=1e-6,
                        psi=sqrt_rate_psi())
    rep1 = kx.continuity_modulus(res.xi, res.value, fmap,
                                 kx.PsiLadder(sqrt_rate_psi(), 0.004))
    rep2 = kx.continuity_modulus(res.xi, res.value, fmap,
                                 kx.PsiLadder(sqrt_rate_psi(C=2.0), 0.004))
    assert np.all(rep2.certified >= rep1.certified - 1e-12)


def test_continuity_bounded_by_map_modulus(corner_map):
    chart, fmap = corner_map
    grid = _grid(chart, 6)
    res = kx.extend_map(fmap, chart, grid, tprime=0.004, tol=1e-7,
                        psi=sqrt_rate_psi())
    ladder = kx.PsiLadder(sqrt_rate_psi(), 0.004)
    rep = kx.continuity_modulus(res.xi, res.value, fmap, ladder)
    # the entire map is 3-Lipschitz on the patch in ambient coordinates
    assert np.all(rep.empirical <= 3.0 * rep.radii + 1e-9)
    assert np.all(rep.empirical <= rep.certified + 1e-12)


def _continuity_reference(xi, vals, fmap, ladder):
    """continuity_modulus as a loop over rungs and radii, one fn call a rung."""
    iu = np.triu_indices(len(xi), k=1)
    d = np.linalg.norm(xi[iu[0]] - xi[iu[1]], axis=-1)
    dev = np.max(np.abs(vals[iu[0]] - vals[iu[1]]), axis=-1)
    radii = np.quantile(d, np.linspace(0.15, 1.0, 8))
    empirical = np.array([dev[d <= r].max() if np.any(d <= r) else 0.0
                          for r in radii])
    certified = np.full(radii.size, math.inf)
    for k in range(0, kx.extension.LADDER_LEVELS, 4):
        lifted = np.asarray(fmap.fn(xi + ladder.rung(k) * EV), dtype=complex)
        osc = np.max(np.abs(lifted[iu[0]] - lifted[iu[1]]), axis=-1)
        for i, r in enumerate(radii):
            sel = d <= r
            if np.any(sel):
                bound = 2.0 * ladder.tail(k) + float(osc[sel].max())
                certified[i] = min(certified[i], bound)
    return radii, empirical, certified


@pytest.mark.parametrize("n, tol", [(6, 1e-7), (11, 2.5e-7)])
def test_continuity_matches_the_per_rung_loop(corner_map, n, tol):
    # max and min are exact and the lifted values are the same products,
    # so the one-call form equals the loop bitwise, in one fn call (18 before)
    chart, fmap = corner_map
    res = kx.extend_map(fmap, chart, _grid(chart, n, 0.1), tprime=0.004,
                        tol=tol, psi=sqrt_rate_psi())
    ladder = kx.PsiLadder(sqrt_rate_psi(1.7), 0.004)
    calls = []
    counted = kx.HolomorphicMap(fn=lambda Z: calls.append(1) or fmap.fn(Z),
                                dzn=fmap.dzn, chart=chart)
    rep = kx.continuity_modulus(res.xi, res.value, counted, ladder)
    assert len(calls) == 1
    want = _continuity_reference(res.xi, res.value, fmap, ladder)
    for got, ref in zip((rep.radii, rep.empirical, rep.certified), want):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# cluster sets
# ---------------------------------------------------------------------------

def test_cluster_entire_map(corner_map):
    chart, _ = corner_map
    F, _ = square_first_map()
    p = np.array([1.0, 0.0], dtype=complex)
    seqs = [np.array([[1 - 4.0 ** -k, 0] for k in range(1, 14)], dtype=complex),
            np.array([[(1 - 4.0 ** -k) * np.exp(1j * 4.0 ** -k), 0.5 * 4.0 ** -k]
                      for k in range(1, 14)], dtype=complex)]
    reps = kx.cluster_set_sample(F, p, seqs)
    assert len(reps) == 1
    assert np.linalg.norm(reps[0] - np.array([1.0, 0.0])) < 1e-2


def test_cluster_constant_map():
    F = lambda z: np.broadcast_to(np.array([0.5, -0.5j]),
                                  np.asarray(z).shape).copy()
    p = np.zeros(2, dtype=complex)
    seqs = [np.array([[4.0 ** -k, 0] for k in range(1, 10)], dtype=complex)]
    reps = kx.cluster_set_sample(F, p, seqs)
    assert len(reps) == 1
    assert np.allclose(reps[0], [0.5, -0.5j])


def test_cluster_split_limits_detected():
    # two sequences with images forced apart yield two representatives
    def F(z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        out = np.where(np.abs(z[:, 1:2]) > 0,
                       np.stack([np.ones(len(z)), np.zeros(len(z))], axis=-1),
                       np.stack([np.zeros(len(z)), np.ones(len(z))], axis=-1))
        return out
    p = np.zeros(2, dtype=complex)
    seqs = [np.array([[4.0 ** -k, 1e-3] for k in range(1, 10)], dtype=complex),
            np.array([[4.0 ** -k, 0] for k in range(1, 10)], dtype=complex)]
    reps = kx.cluster_set_sample(F, p, seqs)
    assert len(reps) == 2


def test_cluster_requires_approach():
    F = lambda z: np.asarray(z, dtype=complex)
    p = np.zeros(2, dtype=complex)
    with pytest.raises(kx.DomainError):
        kx.cluster_set_sample(F, p, [np.array([[0.5, 0.5]], dtype=complex)])


def _union_find_clusters(limits):
    """cluster_set_sample's former union-find over linked pairs, kept as the
    reference: clusters in order of their first member, each its mean."""
    m = len(limits)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(limits[i] - limits[j]) <= kx.extension.CLUSTER_RADIUS:
                parent[find(i)] = find(j)
    reps = {}
    for i in range(m):
        reps.setdefault(find(i), []).append(limits[i])
    return [np.mean(np.array(v), axis=0) for v in reps.values()]


def test_cluster_closure_matches_union_find():
    # random walks with steps near the linkage radius, visited in shuffled
    # order, give chains that link only through other limits
    rng = np.random.default_rng(0)
    p = np.zeros(2, dtype=complex)
    sizes = set()
    for _ in range(300):
        m = int(rng.integers(1, 16))
        steps = rng.standard_normal((m, 4))
        steps *= (rng.uniform(0.6, 1.4, (m, 1)) * kx.extension.CLUSTER_RADIUS
                  / np.linalg.norm(steps, axis=1, keepdims=True))
        walk = np.cumsum(steps, axis=0)[rng.permutation(m)]
        limits = walk[:, :2] + 1j * walk[:, 2:]
        got = kx.cluster_set_sample(lambda z: limits, p, [p[None]] * m)
        want = _union_find_clusters(limits)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        sizes.add(len(want))
    assert {1, 2, 3, 4, 5} <= sizes


# ---------------------------------------------------------------------------
# paired-sequence dichotomy
# ---------------------------------------------------------------------------

def _ball_sequences(N=24):
    nus = np.arange(1, N + 1)
    d = 2.0 ** -nus.astype(float)
    th = 2.0 ** (-nus / 2.0)
    z1 = np.stack([1 - d, np.zeros(N)], axis=-1).astype(complex)
    z2 = np.stack([(1 - d) * np.cos(th), (1 - d) * np.sin(th)],
                  axis=-1).astype(complex)
    w1 = z1.copy()
    w2 = np.stack([np.zeros(N), 1 - d], axis=-1).astype(complex)
    return z1, z2, w1, w2


def test_dichotomy_distinct_limits(ball2):
    z1, z2, w1, w2 = _ball_sequences()
    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=w2, C=1.5, K=1.0,
                                 C0=1.0, q=np.array([1, 0], dtype=complex),
                                 xi=np.array([0, 1], dtype=complex),
                                 sep_radius=0.5)
    assert seqs.domain_cauchy_ok()
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    assert np.all(np.diff(rep["l"]) >= -1e-12)
    assert np.all(np.diff(rep["l"][:20]) > 0)
    assert rep["l"][-1] > rep["l"][0] + 3.0
    assert rep.first_failure is not None
    # identical source/image distances with C0 = 1: zero bridge slack
    # (up to rounding of the deep-band distances)
    assert np.all(np.abs(rep["bridge_slack"]) < 1e-6)


def test_dichotomy_same_limit_consistent(ball2):
    z1, z2, w1, _ = _ball_sequences()
    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=z2.copy(), C=1.5,
                                 K=1.0, C0=1.0,
                                 q=np.array([1, 0], dtype=complex),
                                 xi=np.array([1, 0], dtype=complex),
                                 sep_radius=0.01)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    assert np.all(rep["consistent"])
    assert rep.first_failure is None


def test_dichotomy_degenerate_flat(ball2):
    # all distances equal and zero separation: l stays constant
    N = 10
    z = np.stack([np.full(N, 0.5), np.zeros(N)], axis=-1).astype(complex)
    seqs = kx.DichotomySequences(z1=z, z2=z.copy(), w1=z.copy(), w2=z.copy(),
                                 C=1.0, K=1.0, C0=1.0, q=z[0],
                                 xi=np.array([0, 0.5], dtype=complex),
                                 sep_radius=0.1)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    l = rep["l"]
    assert np.allclose(l, l[0])
    assert np.all(np.diff(l) >= -1e-12)


def test_dichotomy_l_monotone_under_decreasing_inputs(ball2):
    # once the distances and the separation both decrease, l increases
    N = 15
    d = np.geomspace(0.2, 1e-4, N)
    sep = np.geomspace(0.3, 1e-3, N)
    z1 = np.stack([1 - d, np.zeros(N)], axis=-1).astype(complex)
    z2 = z1.copy()
    z2[:, 1] = sep
    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=z1.copy(), w2=z1.copy(),
                                 C=1.0, K=1.0, C0=1.0,
                                 q=np.array([1, 0], dtype=complex),
                                 xi=np.array([0, 1], dtype=complex),
                                 sep_radius=0.5)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    assert np.all(np.diff(rep["l"]) >= -1e-12)


def _dichotomy_reference(seqs, D, Omega):
    """dichotomy_report's former per-index loop with math.log, as columns."""
    dD1, dD2 = (kx.boundary_distance_batch(D, zs) for zs in (seqs.z1, seqs.z2))
    dO1, dO2 = (kx.boundary_distance_batch(Omega, ws) for ws in (seqs.w1, seqs.w2))
    sepD = np.linalg.norm(seqs.z1 - seqs.z2, axis=-1)
    C, K, C0 = seqs.C, seqs.K, seqs.C0
    disjoint = np.linalg.norm(seqs.q - seqs.xi) > 2.0 * seqs.sep_radius
    rows = []
    for nu in range(len(dD1)):
        U = (0.5 * math.log(1.0 / dD1[nu]) + 0.5 * math.log(1.0 / dD2[nu])
             - 0.5 * math.log(1.0 / (dD1[nu] + sepD[nu]))
             - 0.5 * math.log(1.0 / (dD2[nu] + sepD[nu])) + C)
        L = 0.5 * math.log(1.0 / dO1[nu]) + 0.5 * math.log(1.0 / dO2[nu]) - K
        l = (0.5 * math.log(1.0 / (dD1[nu] + sepD[nu]))
             + 0.5 * math.log(1.0 / (dD2[nu] + sepD[nu])))
        bridge = (0.5 * math.log(dD1[nu] / (C0 * dO1[nu]))
                  + 0.5 * math.log(dD2[nu] / (C0 * dO2[nu])))
        margin = (K + C - math.log(C0)) - l
        applicable = (disjoint
                      and np.linalg.norm(seqs.w1[nu] - seqs.q) < seqs.sep_radius
                      and np.linalg.norm(seqs.w2[nu] - seqs.xi) < seqs.sep_radius)
        rows.append({
            "nu": nu, "dD1": dD1[nu], "dD2": dD2[nu], "sepD": sepD[nu],
            "dO1": dO1[nu], "dO2": dO2[nu], "U": U, "L": L, "l": l,
            "bridge_slack": bridge, "margin": margin, "applicable": applicable,
            "consistent": bool(margin >= 0.0) if applicable else True})
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


def test_dichotomy_columns_equal_the_loop_on_the_demo_sequences(ball2):
    # the 30-term sequences of dichotomy-demo (the demo uses the first 24),
    # split and collapsing images: no log differs here, so every column is
    # bitwise the per-index loop's
    z1, z2, w1, w2 = _ball_sequences(30)
    hoods = dict(C=0.35, K=0.8, C0=1.0, q=np.array([1, 0], dtype=complex))
    for seqs in (
            kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=w2, sep_radius=0.5,
                                  xi=np.array([0, 1], dtype=complex), **hoods),
            kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=z2.copy(),
                                  sep_radius=0.01,
                                  xi=np.array([1, 0], dtype=complex), **hoods)):
        rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
        ref = _dichotomy_reference(seqs, ball2, ball2)
        assert rep.columns.keys() == ref.keys()
        for k in ref:
            assert np.array_equal(rep[k], ref[k]), k


def test_dichotomy_columns_match_the_loop_on_random_sequences(ball2):
    # np.log and math.log may differ in the last bit, so each column may
    # move by 4 eps per magnitude of its log terms and constants; the
    # distances, applicability (row_norms) and consistency stay exact
    rng = np.random.default_rng(0)
    N = 2000

    def near_sphere():
        u = rng.standard_normal((N, 4))
        u *= (1.0 - 10.0 ** rng.uniform(-6.0, -0.3, (N, 1))) \
            / np.linalg.norm(u, axis=1, keepdims=True)
        return u[:, :2] + 1j * u[:, 2:]

    seqs = kx.DichotomySequences(
        z1=near_sphere(), z2=near_sphere(), w1=near_sphere(), w2=near_sphere(),
        C=1.3, K=0.7, C0=2.0, q=np.array([1, 0], dtype=complex),
        xi=np.array([0, 1], dtype=complex), sep_radius=0.6)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    ref = _dichotomy_reference(seqs, ball2, ball2)
    for k in ("nu", "dD1", "dD2", "sepD", "dO1", "dO2", "applicable",
              "consistent"):
        assert np.array_equal(rep[k], ref[k]), k
    assert 0 < ref["applicable"].sum() < N
    dD1, dD2, dO1, dO2, sepD = (ref[k] for k in ("dD1", "dD2", "dO1", "dO2",
                                                 "sepD"))

    def size(*args):
        return sum(np.abs(0.5 * np.log(a)) for a in args)

    scale = {
        "U": size(dD1, dD2, dD1 + sepD, dD2 + sepD) + seqs.C,
        "L": size(dO1, dO2) + seqs.K,
        "l": size(dD1 + sepD, dD2 + sepD),
        "bridge_slack": size(dD1 / (seqs.C0 * dO1), dD2 / (seqs.C0 * dO2)),
        "margin": size(dD1 + sepD, dD2 + sepD)
        + abs(seqs.K + seqs.C - math.log(seqs.C0)),
    }
    eps = np.finfo(float).eps
    for k, s in scale.items():
        assert np.all(np.abs(rep[k] - ref[k]) <= 4.0 * eps * s), k


def test_dichotomy_table_renders(ball2):
    z1, z2, w1, w2 = _ball_sequences(6)
    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=w2, C=1.0, K=1.0,
                                 C0=1.0, q=np.array([1, 0], dtype=complex),
                                 xi=np.array([0, 1], dtype=complex),
                                 sep_radius=0.5)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    text = rep.table()
    assert "margin" in text and len(text.splitlines()) == 7


def test_dichotomy_validates_inputs():
    hoods = dict(q=np.array([1, 0], dtype=complex),
                 xi=np.array([0, 1], dtype=complex), sep_radius=0.5)
    with pytest.raises(kx.DomainError):
        kx.DichotomySequences(z1=np.zeros((3, 2)), z2=np.zeros((4, 2)),
                              w1=np.zeros((3, 2)), w2=np.zeros((3, 2)),
                              C=1.0, K=1.0, C0=1.0, **hoods)
    with pytest.raises(kx.DomainError):
        kx.DichotomySequences(z1=np.zeros((3, 2)), z2=np.zeros((3, 2)),
                              w1=np.zeros((3, 2)), w2=np.zeros((3, 2)),
                              C=1.0, K=1.0, C0=0.0, **hoods)


def test_error_estimate_covers_rounding_on_a_linear_integrand(corner_map):
    # both Gauss rules are exact for the square-first map's linear integrand,
    # so |G16 - G8| is rounding noise and only the rounding term bounds the
    # gap to the coordinate difference
    chart, fmap = corner_map
    xi = chart.boundary_point(np.array([0.04 - 0.02j]), 0.03)
    val, err = kx.normal_line_integral(fmap, xi, 1e-4, 0.005, psi=sqrt_rate_psi(1.7))
    direct = np.asarray(fmap.fn(xi + 0.005 * EV)) - np.asarray(fmap.fn(xi + 1e-4 * EV))
    assert 0.0 < np.max(np.abs(val - direct)) <= err
