"""Acceptance suite: one test per criterion, each printed as a pass/fail
line in the terminal summary.  Tolerances and budgets are pinned here; the
heavy lifting happens in the library under its production settings.
"""

import math
import time

import numpy as np
import pytest

import kobex as kx
from kobex import charts
from kobex.domains import _moduli, _phi_flat
from kobex.scenarios import infinite_type_check

from conftest import record_criterion

EV = np.array([0.0, 1j])


def test_criterion_1_directional_sandwich_on_the_ball(ball2):
    t0 = time.time()
    rng = np.random.default_rng(0)
    zs, vs = [], []
    while len(zs) < 100:
        z = (rng.random(2) - 0.5) * 1.9 + 1j * (rng.random(2) - 0.5) * 1.9
        if np.linalg.norm(z) < 0.93:
            zs.append(z)
            vs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zs, vs = np.array(zs), np.array(vs)
    deltas = kx.directional_distance_batch(ball2, zs, vs, n_phases=4096,
                                           refine=False)
    nv = np.linalg.norm(vs, axis=-1)
    exact = np.array([kx.kob_metric_ball_exact(z, v) for z, v in zip(zs, vs)])
    lower_ok = bool(np.all(nv / (2.0 * deltas) <= exact * (1.0 + 1e-6)))
    upper_ok = bool(np.all(exact <= nv / deltas * (1.0 + 1e-6)))
    elapsed = time.time() - t0
    record_criterion(
        "1 directional-distance sandwich on the ball",
        lower_ok and upper_ok and elapsed < 10.0,
        "100 seeded pairs, 4096-phase oracle, rel tol 1e-6, %.1fs" % elapsed)


def test_criterion_2_nearest_point_cubic_grid():
    t0 = time.time()
    _, Ctilde = kx.step1_constant_ex21()
    x0 = np.linspace(0.9, 1.0, 102)[1:-1]
    y0 = np.linspace(0.0, 0.1, 101)[:-1]
    X0, Y0 = np.meshgrid(x0, y0)
    mask = X0 ** 2 + Y0 < 1.0
    X, Y = kx.nearest_point_cubic(X0[mask], Y0[mask])
    minS = np.sqrt((X - X0[mask]) ** 2 + (Y - Y0[mask]) ** 2)
    defect = np.abs(X0[mask] ** 2 + Y0[mask] - 1.0)
    violations = int(np.sum(minS < Ctilde * defect - 1e-14))
    elapsed = time.time() - t0
    record_criterion(
        "2 nearest-point estimate on the 100x100 grid",
        violations == 0 and elapsed < 5.0,
        "%d points, scale 9/26, zero violations, %.2fs"
        % (int(mask.sum()), elapsed))


def test_criterion_3_corner_distance_law(omega21):
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 1000:
        x, y = rng.random(), rng.random()
        if x + y < 0.98:
            pts.append([x * np.exp(2j * math.pi * rng.random()),
                        y * np.exp(2j * math.pi * rng.random())])
    pts = np.array(pts)
    numeric = kx.boundary_distance_batch(omega21, pts, method="reinhardt")
    formula = (1.0 - np.abs(pts[:, 0]) - np.abs(pts[:, 1])) / math.sqrt(2.0)
    err = float(np.max(np.abs(numeric - formula)))
    record_criterion("3 corner distance law on 1000 interior points",
                     err <= 1e-6, "max abs err %.2e" % err)


def test_criterion_4_levi_quarter_bound():
    rng = np.random.default_rng(2)
    u = kx.PshWitness(
        fn=lambda z: np.abs(np.asarray(z, dtype=complex)[..., 0])
        + np.abs(np.asarray(z, dtype=complex)[..., 1]) - 1.0,
        hess=lambda z: np.eye(2) / (4.0 * _moduli(z))[..., None],
        smooth=lambda z: np.all(_moduli(z) > 1e-9, axis=-1))
    worst = math.inf
    n = 0
    while n < 1000:
        x, y = rng.random() * 0.9 + 0.05, rng.random() * 0.9 + 0.05
        if x + y >= 0.98:
            continue
        z = np.array([x * np.exp(2j * math.pi * rng.random()),
                      y * np.exp(2j * math.pi * rng.random())])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        worst = min(worst, kx.levi_form(u, z, v) - 0.25)
        n += 1
    record_criterion("4 quarter bound for the corner-sum Levi form",
                     worst >= -1e-8, "1000 samples, worst slack %.2e" % worst)


def test_criterion_5_flat_graph_example(d22):
    rng = np.random.default_rng(3)

    def levi_w(aw):
        if aw == 0.0:
            return 0.0
        return 4.0 * aw ** -6 * math.exp(-1.0 / aw ** 4) * (1.0 / aw ** 4 - 1.0)

    def hess(z):
        aw = _moduli(z[..., 1])
        H = np.zeros(aw.shape + (2, 2))
        H[..., 1, 1] = np.reshape([levi_w(a) for a in aw.ravel().tolist()], aw.shape)
        return H

    rho = kx.PshWitness(
        fn=lambda z: _phi_flat(np.abs(np.asarray(z, dtype=complex)[..., 1]) ** 2)
        - np.real(np.asarray(z, dtype=complex)[..., 0]),
        hess=hess)

    # (a) finite differences against the displayed coefficient
    worst_rel = 0.0
    n = 0
    while n < 1000:
        aw = 0.65 + 0.3 * rng.random()
        w = aw * np.exp(2j * math.pi * rng.random())
        s = _phi_flat(np.array(aw ** 2)) + 0.05 + 0.4 * rng.random()
        z = np.array([s + 0.1j * (rng.random() - 0.5), w])
        if not bool(kx.contains(d22, z)):
            continue
        fd = kx.levi_form(kx.PshWitness(fn=rho.fn), z, np.array([0, 1], dtype=complex),
                          step=2e-4)
        worst_rel = max(worst_rel, abs(fd - levi_w(aw)) / abs(levi_w(aw)))
        n += 1
    part_a = worst_rel <= 1e-4

    # (b) plurisubharmonicity over interior samples
    samples = []
    while len(samples) < 250:
        w = (rng.random() - 0.5) * 1.4 + 1j * (rng.random() - 0.5) * 1.4
        s = _phi_flat(np.array(abs(w) ** 2)) + rng.random() * 0.6 + 1e-3
        z = np.array([s + 0.2j * (rng.random() - 0.5), w])
        if bool(kx.contains(d22, z)):
            samples.append(z)
    part_b = kx.check_psh(rho, d22, samples, seed=3).passes

    # (c) flatness to all orders up to 20
    flat = infinite_type_check(lambda x: _phi_flat(np.asarray(x, dtype=float)),
                               orders=range(1, 21))
    part_c = flat["passes"]

    # (d) decay constant at exponent one from the defining-quotient route
    pts = []
    for k in range(3, 11):
        for _ in range(12):
            d = 2.0 ** -k * (0.75 + 0.5 * rng.random())
            w = 0.15 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
            z = np.array([d + _phi_flat(np.array(abs(w) ** 2))
                          + 0.02j * (rng.random() - 0.5), w])
            if bool(kx.contains(d22, z)) and np.linalg.norm(z) < 0.2:
                pts.append(z)
    fit = kx.hopf_fit(rho.fn, d22, pts)
    part_d = fit.residual <= 0.0 and fit.C > 0.0

    record_criterion(
        "5 flat-graph example checks (a)-(d)",
        part_a and part_b and part_c and part_d,
        "levi rel %.1e | psh %s | orders<=20 %s | C=%.3f residual=%.1e"
        % (worst_rel, part_b, part_c, fit.C, fit.residual))


def test_criterion_6_boundary_extension_oracle():
    t0 = time.time()
    chart = charts.ex21_chart()

    def F(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def jac(z):
        z = np.asarray(z, dtype=complex)
        J = np.zeros(z.shape + (2,), dtype=complex)
        J[..., 0, 0] = 2.0 * z[..., 0]
        J[..., 1, 1] = 1.0
        return J

    fmap = kx.HolomorphicMap.from_ambient(F, chart, jacobian=jac)
    ctilde = 2.0 * math.sqrt(2.0)
    M = kx.ModulusOfContinuity.from_function(lambda t: ctilde * np.sqrt(t), 8.0)
    psi = kx.make_psi(M, s=1.0, alpha_star=1.0, C=1.7)

    gx = np.linspace(-0.1, 0.1, 20)
    grid = np.array([chart.boundary_point(np.array([a + 0j]), b)
                     for a in gx for b in gx])
    tol = 2.5e-7
    res = kx.extend_map(fmap, chart, grid, tprime=0.005, tol=tol, psi=psi)
    direct = np.asarray(fmap.fn(grid))
    dev = float(np.max(np.abs(res.value - direct)))

    top = np.asarray(fmap.fn(res.xi + res.t_prime * EV))
    cert_ok = bool(np.all(np.max(np.abs(res.value - top), axis=-1)
                          <= res.tail_bound) and res.err_budget < tol)

    r1 = kx.boundary_value(fmap, grid[41], 0.005, tol, psi=psi)
    r2 = kx.boundary_value(fmap, grid[41], 0.0025, tol, psi=psi)
    tp_ok = float(np.max(np.abs(r1.value - r2.value))) <= 2.0 * tol
    elapsed = time.time() - t0
    record_criterion(
        "6 boundary-extension oracle on the 20x20 grid",
        dev <= 1e-6 and cert_ok and tp_ok and elapsed < 60.0,
        "max dev %.1e, certificates %s, top-rung gap ok %s, %.1fs"
        % (dev, cert_ok, tp_ok, elapsed))


def test_criterion_7_rate_integral_suite():
    w_sqrt = kx.ModulusOfContinuity.from_function(np.sqrt, 1.0)
    w_lin = kx.ModulusOfContinuity.from_function(lambda r: r, 1.0)

    def w_log_fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            v = 1.0 / (1.0 + np.abs(np.log(np.where(r > 0, r, 1.0))))
        return np.where(r > 0, v, 0.0)

    a = kx.dini_integral(w_sqrt, 1.0)
    b = kx.dini_integral(w_lin, 1.0)
    c = kx.dini_integral(
        kx.ModulusOfContinuity.from_function(w_log_fn, 1.0), 1.0)
    comp = kx.composed_rate(w_sqrt, 3.0, 0.5)
    d = kx.dini_integral(comp, comp.domain_end)
    ok = (abs(a.value - 2.0) <= 1e-6 and abs(b.value - 1.0) <= 1e-9
          and c.divergent and not d.divergent)
    record_criterion(
        "7 endpoint rate integrals",
        ok, "sqrt %.9f, linear %.10f, slow-log divergent %s, composite %.5f"
        % (a.value, b.value, c.divergent, d.value))


def test_criterion_8_embedding_suite(d22):
    t0 = time.time()
    rng = np.random.default_rng(4)
    chart = charts.ex22_chart()
    omega_p = kx.estimate_modulus(chart, seed=4)
    pts = []
    while len(pts) < 98:
        c = (rng.random(3) - 0.5) * 0.3
        if np.linalg.norm(c) > 0.15:
            continue
        val = float(chart.phi(np.array([c[0], c[1], c[2]])))
        pts.append(chart.from_chart(np.array([c[0] + 1j * c[1],
                                              c[2] + 1j * val])))
    for xedge in (0.15, -0.15):
        val = float(chart.phi(np.array([0.0, 0.0, xedge])))
        pts.append(chart.from_chart(np.array([0.0 + 0.0j, xedge + 1j * val])))

    coords = np.array([chart.base_coords(chart.to_chart(p)) for p in pts])
    g = chart.grad_phi(coords)
    m = float(np.min(np.sqrt(1.0 + np.sum(g * g, axis=-1))))
    params = kx.select_embedding_params(chart, m=m, r_V=0.1, omega=omega_p)
    zetas = kx.sample_model_domain(params, 100, seed=4)
    emb = kx.verify_embedding(d22, chart, pts, params, zetas)

    doubled = kx.ModelDomainParams(beta=params.beta, eps=2.0 * params.eps,
                                   omega=params.omega)
    zetas2 = kx.sample_model_domain(doubled, 100, seed=4)
    emb2 = kx.verify_embedding(d22, chart, pts, doubled, zetas2)
    elapsed = time.time() - t0
    record_criterion(
        "8 model-domain embedding at the flat origin",
        emb.n_pairs >= 10_000 and emb.ok and len(emb2.violations) >= 1
        and elapsed < 30.0,
        "%d pairs, 0 violations; doubled eps -> %d violations; %.1fs"
        % (emb.n_pairs, len(emb2.violations), elapsed))


def test_criterion_9_paired_sequence_dichotomy(ball2):
    N = 30
    nus = np.arange(1, N + 1)
    d = 2.0 ** -nus.astype(float)
    th = 2.0 ** (-nus / 2.0)
    z1 = np.stack([1 - d, np.zeros(N)], axis=-1).astype(complex)
    z2 = np.stack([(1 - d) * np.cos(th), (1 - d) * np.sin(th)],
                  axis=-1).astype(complex)
    w1 = z1.copy()
    w2 = np.stack([np.zeros(N), 1 - d], axis=-1).astype(complex)
    o = np.zeros(2, dtype=complex)
    K = kx.fit_pair_constant(ball2, o,
                             [kx.cpoint(0.95, 0), kx.cpoint(0.98, 0)],
                             [kx.cpoint(0, 0.95), kx.cpoint(0, 0.98)])
    C = 0.0
    for nu in range(4):
        est = kx.path_distance_upper(ball2, z1[nu], z2[nu])
        sep = float(np.linalg.norm(z1[nu] - z2[nu]))
        rhs0 = (math.log(1 / d[nu])
                - math.log(1.0 / (d[nu] + sep)))
        C = max(C, est - rhs0)
    seqs = kx.DichotomySequences(z1=z1, z2=z2, w1=w1, w2=w2, C=C, K=K, C0=1.0,
                                 q=np.array([1, 0], dtype=complex),
                                 xi=np.array([0, 1], dtype=complex),
                                 sep_radius=0.5)
    rep = kx.dichotomy_report(seqs, D=ball2, Omega=ball2)
    l = rep["l"]
    mono = bool(np.all(np.diff(l[:20]) > 0))
    record_criterion(
        "9 paired sequences with split image limits",
        mono and rep.first_failure is not None,
        "l grows %0.2f -> %0.2f over 20 terms; margin fails at index %s"
        % (l[0], l[19], rep.first_failure))


def test_criterion_10_vertical_height_sandwich(d22, rng):
    results = []
    for name, mk_chart, mk_dom in (
            ("ball", charts.ball_chart, lambda: kx.ball(2)),
            ("ex22", charts.ex22_chart, lambda: d22),
            ("flat", charts.flat_chart, charts.flat_domain),
            ("tilted45", charts.tilted_chart, charts.tilted_domain),
    ):
        ch = mk_chart()
        D = mk_dom()
        samples = []
        while len(samples) < 200:
            c = (rng.random(3) - 0.5) * (0.6 * ch.radius)
            zp = c[0] + 1j * c[1]
            if abs(zp) >= 0.3 * ch.radius:
                continue
            val = float(ch.phi(np.array([c[0], c[1], c[2]])))
            lift = rng.random() * 0.25 * ch.radius + 1e-6
            Z = np.array([zp, c[2] + 1j * (val + lift)])
            pt = ch.from_chart(Z)
            if bool(kx.contains(D, pt)) and ch.in_box(Z):
                samples.append(pt)
        C = kx.verify_lipschitz_sandwich(D, ch, np.array(samples))
        lip = ch.lipschitz_estimate()
        bound = math.sqrt(1.0 + lip * lip) + 0.05
        results.append((name, C, bound, 1.0 <= C <= bound))
    ok = all(r[3] for r in results)
    record_criterion(
        "10 vertical height against boundary distance",
        ok, "; ".join("%s C=%.3f<=%.3f" % (r[0], r[1], r[2]) for r in results))
