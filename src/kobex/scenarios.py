"""Bundled verification scenarios.

Each scenario builds a Report of recomputable records: every verdict is a
comparison between numbers stored in the report.  Scenarios are
deterministic given the seed.  ``explain`` lists, per pipeline stage, a
stable anchor naming the formula or construction the stage evaluates.
"""

import inspect
import math
import time

import numpy as np

from . import __version__ as VERSION
from . import charts, domains, extension, metrics, psh, regularity
from .reports import Report


def infinite_type_check(phi, orders):
    """Certify that phi vanishes at 0 faster than every tested power.

    For each order k the ratios phi(x)/x^k over x = 1e-1, 1e-2, 1e-3 must
    be nonincreasing with the final ratio at most 1e-8; an order that
    fails yields the verdict "finite type <= k".
    """
    if abs(float(phi(np.array(0.0)))) > 0.0:
        raise domains.DomainError("profile must vanish at 0")
    xs = np.array([1e-1, 1e-2, 1e-3])
    results = {}
    verdict = True
    failed_order = None
    for k in orders:
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            ratios = np.asarray(phi(xs), dtype=float) / xs ** k
        decreasing = bool(np.all(np.diff(ratios) <= 1e-300))
        ok = decreasing and ratios[-1] <= 1e-8
        results[int(k)] = {"ratios": [float(r) for r in ratios], "ok": ok}
        if not ok and verdict:
            verdict = False
            failed_order = int(k)
    return {"passes": verdict, "finite_type_at": failed_order, "orders": results}


# ---------------------------------------------------------------------------
# shared example-domain material
# ---------------------------------------------------------------------------

def _square_first_map():
    def F(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)

    def jac(z):
        z = np.asarray(z, dtype=complex)
        J = np.zeros(z.shape + (2,), dtype=complex)
        J[..., 0, 0] = 2.0 * z[..., 0]
        J[..., 1, 1] = 1.0
        return J

    def fibers(w):
        w = np.asarray(w, dtype=complex)
        root = np.sqrt(w[..., 0])
        return np.stack([np.stack([root, w[..., 1]], axis=-1),
                         np.stack([-root, w[..., 1]], axis=-1)], axis=-2)

    return F, jac, fibers


def _square_second_map():
    def F(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z[..., 0], z[..., 1] ** 2], axis=-1)

    return F


def _u21_witness():
    """ex21_Omega's |z| + |w| - 1 with its diagonal complex Hessian away
    from the axes."""
    g = domains.ex21_Omega().constraints[0]
    return psh.PshWitness(
        fn=g, hess=lambda z: np.eye(2) / (4.0 * domains._moduli(z))[..., None],
        smooth=g.smooth, name="corner-sum")


def _rho22_witness():
    """ex22_D's graph constraint phi(|w|^2) - Re z with its analytic w-Levi
    coefficient."""
    def levi_w(aw):
        # displayed in terms of |w|: 4 |w|^-6 exp(-1/|w|^4) (1/|w|^4 - 1)
        if aw == 0.0:
            return 0.0
        return 4.0 * aw ** -6 * math.exp(-1.0 / aw ** 4) * (1.0 / aw ** 4 - 1.0)

    def hess(z):
        aw = domains._moduli(z[..., 1])
        H = np.zeros(aw.shape + (2, 2))
        H[..., 1, 1] = np.reshape([levi_w(a) for a in aw.ravel().tolist()], aw.shape)
        return H

    w = psh.PshWitness(fn=domains.ex22_D().constraints[0], hess=hess,
                       name="flat-graph-defect")
    w.levi_w = levi_w
    return w


def _sibony_rate_constant(alpha=4.0):
    """Lower-rate constant for the corner-sum witness, whose Hessian bound
    is c = 1/4: sqrt(c/alpha) shrunk by the factor relating the witness
    value to boundary distance, |u| = sqrt(2) * delta, giving
    beta = sqrt(c/alpha) / 2^(1/4)."""
    return math.sqrt(0.25 / alpha) / 2.0 ** 0.25


def _scalar_sq(x):
    """abs(t) ** 2 per entry as Python rounds it (pow, not an array's square)."""
    return np.array([abs(t) ** 2 for t in x.tolist()])


def _first_accepted(rng, k, build, accept, width=4, head=None, more=0):
    """The first k accepted candidates of a rejection loop, built in blocks:
    a candidate draws width uniforms, then more unless head, a mask of
    (m, width) blocks, rejects them; build maps the (m, width + more) rows
    of the rest to candidates and accept those to a mask.  Returns the kept
    rows and candidates, and leaves the generator where that loop would."""
    size = width + more
    start, n = rng.bit_generator.state, 2 * k * size
    while True:
        u = rng.random(n)
        rng.bit_generator.state = start
        ok = [True] * n if head is None else \
            head(np.lib.stride_tricks.sliding_window_view(u, width)).tolist()
        at, p = [], 0   # the starts of the candidates whose head passes
        while p + size <= n:
            at += [p] if ok[p] else []
            p += width + more * ok[p]
        r = u[np.array(at, dtype=int)[:, None] + np.arange(size)]
        pts = build(r)
        kept = np.flatnonzero(accept(pts))[:k]
        if kept.size == k:
            rng.random(at[kept[-1]] + size)
            return r[kept], pts[kept]
        n *= 2


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario_ball_sandwich(seed=0, tol=1e-6):
    """Directional-distance sandwich on the unit ball against the exact
    invariant metric, with the directional distance from the 4096-phase
    brute-force oracle."""
    rep = Report("ball-sandwich", seed, VERSION)
    rng = np.random.default_rng(seed)
    B = domains.ball(2)
    zs = _first_accepted(rng, 100,
                         lambda r: (r[:, :2] - 0.5) * 1.9 + 1j * (r[:, 2:] - 0.5) * 1.9,
                         lambda z: domains.row_norms(z) < 0.93)[1]
    vs = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    deltas = domains.directional_distance_batch(B, zs, vs, n_phases=4096,
                                                refine=False)
    exact = metrics.kob_metric_ball_exact(zs, vs)
    nv = np.linalg.norm(vs, axis=-1)
    lower = nv / (2.0 * deltas)
    upper = nv / deltas
    ok_lower = bool(np.all(lower <= exact * (1.0 + tol)))
    ok_upper = bool(np.all(exact <= upper * (1.0 + tol)))
    rep.add("sandwich-lower", verdict=ok_lower,
            value=float(np.max(lower / exact)),
            method="graham_lower", side="lower",
            tolerances={"rel": tol}, constants={"samples": 100})
    rep.add("sandwich-upper", verdict=ok_upper,
            value=float(np.max(exact / upper)),
            method="graham_upper", side="upper",
            tolerances={"rel": tol}, constants={"samples": 100})

    # the oracle against the closed-form disc radius r of the unit ball,
    # r^2 + 2 r |<z, u>| + |z|^2 = 1: a sampled phase lies within pi/4096 of
    # the worst one, so with c = cos(pi/4096) it reads at most r c / (2c - 1)
    a = np.abs(np.sum(zs * np.conj(vs), axis=-1)) / nv
    disc = np.sqrt(a * a + 1.0 - np.sum(np.abs(zs) ** 2, axis=-1)) - a
    oracle_err = float(np.max(np.abs(deltas / disc - 1.0)))
    c = math.cos(math.pi / 4096)
    phase_tol = (1.0 - c) / (2.0 * c - 1.0)
    rep.add("oracle", verdict=bool(oracle_err <= phase_tol), value=oracle_err,
            tolerances={"rel": phase_tol}, constants={"phases": 4096})
    rep.add_table("sandwich", ["lower", "exact", "upper", "delta_dir"],
                  np.stack([lower, exact, upper, deltas], axis=-1).tolist())
    return rep


def scenario_example21(seed=0):
    """The square-first proper map between the Reinhardt pair with the
    corner at (1, 0): barrier bound on the source, metric growth rate on
    the target."""
    rep = Report("example21", seed, VERSION)
    rng = np.random.default_rng(seed)
    Om = domains.ex21_Omega()

    # stage 1: explicit constants of the nearest-point estimate
    C, Ctilde = psh.step1_constant_ex21()
    rep.add("slope-supremum", verdict=bool(abs(C - 5.2) < 1e-12), value=C)
    rep.add("barrier-scale", verdict=bool(abs(Ctilde - 9.0 / 26.0) < 1e-12),
            value=Ctilde)

    # stage 2: nearest-point cubic beats the scaled defect on the grid
    x0 = np.linspace(0.9, 1.0, 102)[1:-1]
    y0 = np.linspace(0.0, 0.1, 101)[:-1]
    X0, Y0 = np.meshgrid(x0, y0)
    mask = X0 ** 2 + Y0 < 1.0
    X, Y = psh.nearest_point_cubic(X0[mask], Y0[mask])
    minS = np.sqrt((X - X0[mask]) ** 2 + (Y - Y0[mask]) ** 2)
    defect = np.abs(X0[mask] ** 2 + Y0[mask] - 1.0)
    viol = int(np.sum(minS < Ctilde * defect - 1e-14))
    rep.add("lagrange-cubic-grid", verdict=bool(viol == 0), value=viol,
            constants={"grid": "100x100", "points": int(mask.sum())})

    # stage 3: corner-distance law delta = (1 - |z| - |w|)/sqrt(2).  Stages
    # 4-6 stay loops: numpy draws normals from a varying number of raw
    # outputs, which no block replays; stage 7 draws a fixed 100 candidates
    pts = _first_accepted(rng, 1000, lambda r: r[:, :2] * np.exp(2j * math.pi * r[:, 2:]),
                          lambda p: np.full(len(p), True), width=2, more=2,
                          head=lambda r: r[:, 0] + r[:, 1] < 0.98)[1]
    numeric = domains.boundary_distance_batch(Om, pts, method="reinhardt")
    formula = Om.dist_fn(pts)
    err = float(np.max(np.abs(numeric - formula)))
    rep.add("corner-distance-law", verdict=bool(err <= 1e-6), value=err,
            tolerances={"abs": 1e-6}, constants={"points": 1000})

    # stage 4: quarter lower bound on the corner-sum Levi form
    u = _u21_witness()
    zs, vs = [], []
    for _ in range(1000):
        x, y = rng.random() * 0.9 + 0.05, rng.random() * 0.9 + 0.05
        if x + y >= 0.98:
            continue
        zs.append([x * np.exp(2j * math.pi * rng.random()),
                   y * np.exp(2j * math.pi * rng.random())])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vs.append(v / np.linalg.norm(v))
    worst = float(np.min(psh.levi_form(u, np.array(zs), np.array(vs)) - 0.25))
    rep.add("levi-quarter-bound", verdict=bool(worst >= -1e-8), value=worst,
            tolerances={"abs": -1e-8}, constants={"points": len(zs)})

    # stage 5: sqrt-rate lower bound at smooth points, two formula routes
    alpha = 4.0
    beta = _sibony_rate_constant(alpha=alpha)
    route_gap = 0.0
    for _ in range(50):
        x, y = rng.random() * 0.5 + 0.2, rng.random() * 0.3 + 0.1
        if x + y >= 0.95:
            continue
        z = np.array([x, y], dtype=complex)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b1 = metrics.sibony_lower_bound(u, z, v, c=0.25, alpha=alpha)
        delta = domains.boundary_distance(Om, z)
        b2 = beta * np.linalg.norm(v) / math.sqrt(delta)
        route_gap = max(route_gap, abs(b1.value - b2) / b2)
    rep.add("sqrt-rate-lower", verdict=bool(route_gap < 1e-9), value=route_gap,
            method="sibony", side="lower", constants={"alpha": alpha, "beta": beta})

    # stage 6: corner-direction bound via rotation invariance
    xs, zs, vabs = np.empty(50), np.zeros((50, 2), dtype=complex), np.empty((50, 2))
    for i in range(50):
        xs[i] = rng.random() * 0.6 + 0.2
        zs[i, 0] = xs[i] * np.exp(2j * math.pi * rng.random())
        vabs[i] = np.abs(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dd = domains.directional_distance_batch(Om, np.stack([xs, np.zeros(50)], axis=-1), vabs)
    delta = domains.boundary_distance_batch(Om, zs)
    worst_ratio = max(0.0, float(np.max(dd / (math.sqrt(2.0) * delta))))
    rep.add("corner-direction-bound", verdict=bool(worst_ratio <= 1.0 + 1e-9),
            value=worst_ratio, method="graham_lower", side="lower",
            constants={"rate": "1/(2 sqrt(2) delta)"})

    # stage 7: pushforward barrier through the fibers equals the corner sum
    F, jac, fibers = _square_first_map()
    Fm = psh.FiberMap(fibers=fibers, name="square-first")
    g21 = domains.ex21_D().constraints[0]
    rho = psh.PshWitness(fn=lambda z: Ctilde * g21(z))
    ws = []
    for _ in range(100):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        if x + y >= 0.95:
            continue
        ws.append([x * np.exp(2j * math.pi * rng.random()),
                   y * np.exp(2j * math.pi * rng.random())])
    ws = np.array(ws)
    expect = Ctilde * (domains._moduli(ws[:, 0]) + domains._moduli(ws[:, 1]) - 1.0)
    gap = float(np.max(np.abs(psh.pushforward_tau(Fm, rho, ws) - expect), initial=0.0))
    rep.add("pushforward-barrier", verdict=bool(gap < 1e-12), value=gap)

    # stage 8: the entire map clusters to a single boundary value at (1, 0)
    p = np.array([1.0, 0.0], dtype=complex)
    seqs = [np.array([[(1 - 4.0 ** -k), 0.0] for k in range(1, 16)], dtype=complex),
            np.array([[(1 - 4.0 ** -k) * np.exp(1j * 4.0 ** -k), 4.0 ** -k * 0.5]
                      for k in range(1, 16)], dtype=complex)]
    reps_pts = extension.cluster_set_sample(F, p, seqs)
    rep.add("single-cluster", verdict=bool(len(reps_pts) == 1),
            value=len(reps_pts))
    return rep


def scenario_example22(seed=0):
    """The square-second proper map between the flat-graph pair at the
    origin: analytic against finite-difference Levi forms, psh check,
    flatness orders, and the boundary decay constant at exponent one."""
    rep = Report("example22", seed, VERSION)
    rng = np.random.default_rng(seed)
    D = domains.ex22_D()
    rho = _rho22_witness()

    # (a) finite differences against the displayed w-Levi coefficient.
    # Sampled where the coefficient is O(0.1) or larger so the quotient is
    # resolvable in double precision; the step is recorded.
    fd_step = 2e-4

    def build_a(r):
        aw = 0.65 + 0.3 * r[:, 0]
        s = domains._phi_flat(_scalar_sq(aw)) + 0.05 + 0.4 * r[:, 2]
        return np.stack([s + 0.1j * (r[:, 3] - 0.5), aw * np.exp(2j * math.pi * r[:, 1])], -1)

    r, zs = _first_accepted(rng, 1000, build_a, lambda z: domains.contains(D, z))
    formula = np.array([rho.levi_w(aw) for aw in (0.65 + 0.3 * r[:, 0]).tolist()])
    fd = psh.levi_form(psh.PshWitness(fn=rho.fn), zs, [0, 1], step=fd_step)
    worst_rel = float(np.max(np.abs(fd - formula) / np.abs(formula)))
    rep.add("levi-formula-agreement", verdict=bool(worst_rel <= 1e-4),
            value=worst_rel, tolerances={"rel": 1e-4},
            constants={"points": 1000, "fd_step": fd_step})

    # (b) plurisubharmonicity over interior samples
    def build_b(r):
        w = (r[:, 0] - 0.5) * 1.4 + 1j * (r[:, 1] - 0.5) * 1.4
        s = domains._phi_flat(_scalar_sq(w)) + r[:, 2] * 0.6 + 1e-3
        return np.stack([s + 0.2j * (r[:, 3] - 0.5), w], axis=-1)

    samples = _first_accepted(rng, 250, build_b, lambda z: domains.contains(D, z))[1]
    psh_rep = psh.check_psh(rho, D, samples, seed=seed)
    rep.add("psh-check", verdict=bool(psh_rep.passes), value=psh_rep.min_value,
            tolerances={"min": -1e-8}, constants={"points": psh_rep.n_checked})

    # (c) flatness to all tested orders at the origin
    flat = infinite_type_check(domains._phi_flat, orders=range(1, 21))
    rep.add("flatness-orders", verdict=bool(flat["passes"]),
            value=flat["finite_type_at"], constants={"orders": 20})

    # (d) boundary decay constant at exponent one near the origin.  The fit
    # holds by construction; the worst delta / -rho, 1/C, is at most 1, since
    # (phi(|w|^2) + i Im z, w) is a boundary point at distance -rho(z)
    r = rng.random((96, 4))
    d = np.repeat(0.5 ** np.arange(3, 11), 12) * (0.75 + 0.5 * r[:, 0])
    w = 0.15 * (r[:, 1] + 1j * r[:, 2] - 0.5 - 0.5j)
    z = np.stack([d + domains._phi_flat(_scalar_sq(w)) + 0.02j * (r[:, 3] - 0.5), w], axis=-1)
    hopf_samples = z[domains.contains(D, z) & (domains.row_norms(z) < 0.2)]
    fit = psh.hopf_fit(rho.fn, D, hopf_samples)
    rep.add("decay-constant-exponent-one",
            verdict=bool(fit.residual <= 0.0 and fit.C > 0.0),
            value=fit.C, constants={"alpha": fit.alpha, "residual": fit.residual,
                                    "points": fit.sample_count})
    rep.add("decay-distance-bound", verdict=bool(1.0 / fit.C <= 1.0 + 1e-12),
            value=1.0 / fit.C, tolerances={"rel": 1e-12},
            constants={"points": fit.sample_count})

    # (e) the chart at the origin realizes the domain
    chart = charts.ex22_chart()
    cons = regularity.chart_consistency(D, chart, seed=seed)
    rep.add("chart-consistency", verdict=bool(cons["passes"]),
            value=cons["boundary_residual"])

    # (f) the square-second map clusters to the single value (0, 0)
    F = _square_second_map()
    p = np.zeros(2, dtype=complex)
    seqs = [np.array([[4.0 ** -k, 0.0] for k in range(1, 16)], dtype=complex),
            np.array([[4.0 ** -k, 4.0 ** -k] for k in range(1, 16)], dtype=complex)]
    reps_pts = extension.cluster_set_sample(F, p, seqs)
    q_ok = len(reps_pts) == 1 and np.linalg.norm(reps_pts[0]) < 1e-3
    rep.add("single-cluster-at-origin", verdict=bool(q_ok), value=len(reps_pts))
    return rep


def scenario_dini_suite(seed=0):
    """Endpoint rate integrals: closed forms, divergence detection, the
    composite rule, and the integrated modulus."""
    rep = Report("dini-suite", seed, VERSION)
    w_sqrt = regularity.ModulusOfContinuity.from_function(np.sqrt, 1.0, name="sqrt")
    w_lin = regularity.ModulusOfContinuity.from_function(lambda r: r, 1.0, name="lin")

    def w_log_fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            vals = 1.0 / (1.0 + np.abs(np.log(np.where(r > 0, r, 1.0))))
        return np.where(r > 0, vals, 0.0)

    w_log = regularity.ModulusOfContinuity.from_function(w_log_fn, 1.0, name="slow-log")

    di = regularity.dini_integral(w_sqrt, 1.0)
    rep.add("sqrt-rate-integral", verdict=bool(abs(di.value - 2.0) <= 1e-6),
            value=di.value, tolerances={"abs": 1e-6})
    di = regularity.dini_integral(w_lin, 1.0)
    rep.add("linear-rate-integral", verdict=bool(abs(di.value - 1.0) <= 1e-9),
            value=di.value, tolerances={"abs": 1e-9})
    di = regularity.dini_integral(w_log, 1.0)
    rep.add("slow-log-divergence", verdict=bool(di.divergent), value="divergent")

    comp = regularity.composed_rate(w_sqrt, 3.0, 0.5)
    di = regularity.dini_integral(comp, comp.domain_end)
    rep.add("composite-rule", verdict=bool(not di.divergent
                                           and abs(di.value - 4.0) < 1e-5),
            value=di.value)

    h1 = regularity.h_integral(w_lin, 0.3)
    h2 = regularity.h_integral(w_sqrt, 0.09)
    rep.add("integrated-modulus", value=[h1, h2],
            verdict=bool(abs(h1 - 0.045) < 1e-12 and abs(h2 - 0.018) < 1e-9))

    # psi integrability for the bundled rate/exponent combinations
    ok = True
    for (s, a_star) in [(1.0, 1.0), (1.0, 2.0), (0.5, 1.5)]:
        psi_fn = psh.make_psi(w_sqrt, s=s, alpha_star=a_star, C=1.0)
        ok = ok and math.isfinite(extension.psi_tail(psi_fn, 0.5))
    rep.add("derivative-rate-integrable", verdict=bool(ok), value=ok)
    return rep


def scenario_embedding_suite(seed=0):
    """Model-domain embedding at the flat-graph origin: parameter
    selection, a 10^4-pair verification, and the doubled-eps negative
    control."""
    rep = Report("embedding-suite", seed, VERSION)
    rng = np.random.default_rng(seed)
    D = domains.ex22_D()
    chart = charts.ex22_chart()
    omega_p = regularity.estimate_modulus(chart, seed=seed)

    c = _first_accepted(rng, 100, lambda r: (r - 0.5) * 0.3,
                        lambda x: domains.row_norms(x) <= 0.15, width=3)[1]
    # force patch-edge points so the negative control has teeth
    c = np.concatenate([c, [[0.0, 0.0, 0.15], [0.0, 0.0, -0.15]]])
    pts = chart.from_chart(chart.boundary_point((c[:, 0] + 1j * c[:, 1])[:, None], c[:, 2]))
    coords = chart.base_coords(chart.to_chart(pts))
    g = chart.grad_phi(coords)
    m = float(np.min(np.sqrt(1.0 + np.sum(g * g, axis=-1))))
    params = regularity.select_embedding_params(chart, m=m, r_V=0.1, omega=omega_p)
    rep.add("embedding-params", value={"beta": params.beta, "eps": params.eps},
            verdict=bool(params.beta >= 1.0 + 1e-9 and params.eps > 0),
            constants=params.provenance)

    zetas = regularity.sample_model_domain(params, 100, seed=seed)
    emb = regularity.verify_embedding(D, chart, pts, params, zetas)
    rep.add("embedding-verify", verdict=bool(emb.ok and emb.n_pairs >= 10_000),
            value=emb.n_pairs, constants={"violations": len(emb.violations),
                                          "worst_margin": emb.worst_margin})

    doubled = regularity.ModelDomainParams(beta=params.beta, eps=2.0 * params.eps,
                                           omega=params.omega)
    zetas2 = regularity.sample_model_domain(doubled, 100, seed=seed)
    emb2 = regularity.verify_embedding(D, chart, pts, doubled, zetas2)
    rep.add("doubled-eps-control", verdict=bool(len(emb2.violations) >= 1),
            value=len(emb2.violations))

    # vertical height sandwich on the bundled charts
    for name, mk_chart, mk_dom, region in (
            ("ball", charts.ball_chart, lambda: domains.ball(2), "near-base"),
            ("ex22", charts.ex22_chart, domains.ex22_D, "near-base"),
            ("tilted45", charts.tilted_chart, charts.tilted_domain, "origin"),
    ):
        ch = mk_chart()
        Dm = mk_dom()
        samples = _chart_interior_samples(Dm, ch, rng, 200)
        Cval = regularity.verify_lipschitz_sandwich(Dm, ch, samples)
        lip = ch.lipschitz_estimate()
        bound = math.sqrt(1.0 + lip * lip) + 0.05
        rep.add("height-sandwich-%s" % name,
                verdict=bool(1.0 <= Cval <= bound), value=Cval,
                constants={"lip": lip, "bound": bound})
    return rep


def _chart_interior_samples(D, chart, rng, count):
    # a lift is drawn once |Z'| < 0.35 radius; build stacks Z and its point
    s = 0.7 * chart.radius

    def build(r):
        c = (r[:, :3] - 0.5) * s
        lift = r[:, 3] * 0.3 * chart.radius + 1e-6
        Z = np.stack([c[:, 0] + 1j * c[:, 1], c[:, 2] + 1j * (chart.phi(c) + lift)], axis=-1)
        return np.stack([Z, chart.from_chart(Z)], axis=1)

    return _first_accepted(
        rng, count, build, lambda p: domains.contains(D, p[:, 1]) & chart.in_box(p[:, 0]),
        width=3, head=lambda r: np.hypot(*((r[:, :2].T - 0.5) * s)) < 0.35 * chart.radius,
        more=1)[1][:, 1]


def scenario_extension_oracle(seed=0, tol=2.5e-7):
    """Boundary extension of the square-first map through the corner chart:
    the recovered boundary values must match direct evaluation of the
    entire map, with the ladder certificates and t'-independence holding
    at every grid point."""
    rep = Report("extension-oracle", seed, VERSION)
    chart = charts.ex21_chart()
    F, jac, _ = _square_first_map()
    fmap = extension.HolomorphicMap.from_ambient(F, chart, jacobian=jac,
                                                 name="square-first")
    ctilde = max(1.0 / _sibony_rate_constant(), 2.0 * math.sqrt(2.0))
    M = regularity.ModulusOfContinuity.from_function(
        lambda t: ctilde * np.sqrt(t), 4.0, name="sqrt-rate")
    psi_fn = psh.make_psi(M, s=1.0, alpha_star=1.0, C=1.0)

    # the rate must dominate the observed vertical derivative
    u = (np.random.default_rng(seed).random((25, 3)) - 0.5) * 0.2
    xis = chart.boundary_point((u[:, 0] + 1j * u[:, 1])[:, None], u[:, 2])
    ts = np.array([1e-4, 1e-3, 1e-2, 5e-3])
    Z = xis[:, None, :] + ts[:, None] * np.array([0.0, 1j])
    dzn_max = np.max(np.abs(fmap.derivative(Z)), axis=-1)
    dominated = not np.any(psi_fn(ts) < dzn_max)
    rep.add("rate-dominates-derivative", verdict=bool(dominated), value=dominated,
            constants=psi_fn.constants)

    gx = np.linspace(-0.1, 0.1, 20)
    a, b = np.meshgrid(gx, gx, indexing="ij")
    grid = chart.boundary_point((a.ravel() + 0j)[:, None], b.ravel())
    tprime = 0.005
    res = extension.extend_map(fmap, chart, grid, tprime=tprime, tol=tol,
                               psi=psi_fn)
    direct = np.asarray(fmap.fn(grid), dtype=complex)
    dev = float(np.max(np.abs(res.value - direct)))
    rep.add("boundary-values-match-direct", verdict=bool(dev <= 1e-6), value=dev,
            tolerances={"abs": 1e-6}, constants={"grid": "20x20", "tol": tol})

    top = np.asarray(fmap.fn(res.xi + res.t_prime * np.array([0.0, 1j])),
                     dtype=complex)
    cert_ok = np.all(np.max(np.abs(res.value - top), axis=-1) <= res.tail_bound)
    rep.add("ladder-certificates", verdict=bool(cert_ok and res.err_budget < tol),
            value={"tail_bound": res.tail_bound, "err_budget": res.err_budget})
    resid = float(np.max(res.quadrature_error))
    rep.add("telescoping-residual", verdict=bool(resid <= 1e-12), value=resid,
            tolerances={"abs": 1e-12})

    r1 = extension.boundary_value(fmap, grid[37], tprime, tol, psi=psi_fn)
    r2 = extension.boundary_value(fmap, grid[37], tprime / 2.0, tol, psi=psi_fn)
    tp_gap = float(np.max(np.abs(r1.value - r2.value)))
    rep.add("top-rung-independence", verdict=bool(tp_gap <= 2.0 * tol),
            value=tp_gap, tolerances={"abs": 2.0 * tol})

    ladder = extension.PsiLadder(psi_fn, tprime)
    cont = extension.continuity_modulus(res.xi[:120], res.value[:120], fmap,
                                        ladder)
    rep.add("boundary-modulus-decays",
            verdict=bool(cont.empirical[0] <= cont.empirical[-1] + 1e-15
                         and np.all(cont.empirical <= cont.certified + 1e-12)),
            value=[float(cont.empirical[0]), float(cont.empirical[-1])])
    # a complex array viewed as floats interleaves real and imaginary parts
    parts = np.concatenate([res.xi, res.value], axis=-1).view(float)
    budgets = np.broadcast_to([res.tail_bound, res.err_budget], (len(parts), 2))
    rep.add_table("extension-grid",
                  ["re_z1", "im_z1", "re_zn", "im_zn", "re_f1", "im_f1",
                   "re_f2", "im_f2", "tail_bound", "err_budget"],
                  np.concatenate([parts, budgets], axis=-1).tolist())
    return rep


def scenario_dichotomy_demo(seed=0):
    """Hand-built paired sequences in the ball whose images are forced to
    two distinct boundary points: the diverging quantity grows monotonely
    while the consistency margin fails beyond a finite index."""
    rep = Report("dichotomy-demo", seed, VERSION)
    B = domains.ball(2)
    o = np.zeros(2, dtype=complex)

    N = 30
    nus = np.arange(1, N + 1)
    d = 2.0 ** -nus.astype(float)
    th = 2.0 ** (-nus / 2.0)
    z1 = np.stack([1 - d, np.zeros(N)], axis=-1).astype(complex)
    z2 = np.stack([(1 - d) * np.cos(th), (1 - d) * np.sin(th)], axis=-1).astype(complex)
    w1 = z1.copy()
    w2 = np.stack([np.zeros(N), 1 - d], axis=-1).astype(complex)

    # target-side pair constant from disjoint clouds near the two limits
    vq = [np.array([1 - dd, 0], dtype=complex) for dd in (0.05, 0.02, 0.01)]
    vx = [np.array([0, 1 - dd], dtype=complex) for dd in (0.05, 0.02, 0.01)]
    K = metrics.fit_pair_constant(B, o, vq, vx)
    rep.add("pair-constant", value=K, verdict=bool(K >= 0.0))

    # source-side constant from the path estimator over the first terms
    est = metrics.path_distance_upper_batch(B, z1[:4], z2[:4])
    sep = np.linalg.norm(z1[:4] - z2[:4], axis=-1)
    C_fit = max(0.0, float(np.max(est - extension.separation_bound(d[:4], d[:4], sep))))
    rep.add("separation-constant", value=C_fit, verdict=bool(C_fit > 0.0))

    seqs = extension.DichotomySequences(
        z1=z1, z2=z2, w1=w1, w2=w2, C=C_fit, K=K, C0=1.0,
        q=np.array([1, 0], dtype=complex), xi=np.array([0, 1], dtype=complex),
        sep_radius=0.5)
    rep.add("domain-sequences-cauchy", verdict=bool(seqs.domain_cauchy_ok()),
            value=True)
    dich = extension.dichotomy_report(seqs, D=B, Omega=B)
    lvals = dich["l"]
    mono20 = bool(np.all(np.diff(lvals[:20]) > 0))
    rep.add("diverging-quantity-monotone", verdict=mono20,
            value=[float(lvals[0]), float(lvals[19])])
    rep.add("consistency-fails-at-finite-index",
            verdict=bool(dich.first_failure is not None),
            value=dich.first_failure)
    slack = float(np.min(dich["bridge_slack"]))
    rep.add("barrier-bridge-slack", verdict=bool(slack >= -1e-9), value=slack)
    cols = ["nu", "dD1", "dD2", "sepD", "dO1", "dO2", "U", "L", "l",
            "margin", "applicable", "consistent"]
    rep.add_table("dichotomy", cols,
                  zip(*(dich[c].tolist() for c in cols)))

    # control: images collapsing to one point stay consistent throughout
    seqs_same = extension.DichotomySequences(
        z1=z1, z2=z2, w1=w1, w2=z2.copy(), C=C_fit, K=K, C0=1.0,
        q=np.array([1, 0], dtype=complex), xi=np.array([1, 0], dtype=complex),
        sep_radius=0.01)
    dich_same = extension.dichotomy_report(seqs_same, D=B, Omega=B)
    rep.add("same-limit-control",
            verdict=bool(np.all(dich_same["consistent"])),
            value=True)
    return rep


SCENARIOS = {
    "ball-sandwich": scenario_ball_sandwich,
    "example21": scenario_example21,
    "example22": scenario_example22,
    "dini-suite": scenario_dini_suite,
    "embedding-suite": scenario_embedding_suite,
    "extension-oracle": scenario_extension_oracle,
    "dichotomy-demo": scenario_dichotomy_demo,
}

EXPLAIN = {
    "ball-sandwich": [
        ("sandwich-lower", "|v| / (2 delta(z;v)) below the exact ball metric"),
        ("sandwich-upper", "exact ball metric below |v| / delta(z;v)"),
        ("oracle", "4096-phase directional distance vs the closed-form "
                   "disc radius, within (1 - c)/(2c - 1), c = cos(pi/4096)"),
    ],
    "example21": [
        ("slope-supremum", "sup of 6x^2 + 2y - 1 over [9/10,1] x [0,1/10] = 5.2"),
        ("barrier-scale", "barrier constant 9/(5C) = 9/26"),
        ("lagrange-cubic-grid", "nearest-point cubic 2X^3 + (2y0-1)X - x0 = 0 "
                                "against min-distance >= (9/26)|x0^2+y0-1|"),
        ("corner-distance-law", "delta = (1 - |z| - |w|) / sqrt(2)"),
        ("levi-quarter-bound", "Levi form of |z|+|w|-1 at least |v|^2/4"),
        ("sqrt-rate-lower", "metric >= beta |v| / sqrt(delta) at smooth points"),
        ("corner-direction-bound", "metric >= |v| / (2 sqrt(2) delta) on the axis"),
        ("pushforward-barrier", "max of the barrier over the two square-root "
                                "preimages collapses to the corner sum"),
        ("single-cluster", "boundary cluster of the entire map is a point"),
    ],
    "example22": [
        ("levi-formula-agreement", "4|w|^-6 exp(-1/|w|^4)(1/|w|^4 - 1) vs "
                                   "finite differences"),
        ("psh-check", "Levi form nonnegative over interior samples"),
        ("flatness-orders", "exp(-1/x^2)/x^k -> 0 for k <= 20"),
        ("decay-constant-exponent-one", "rho <= -C delta with exponent one"),
        ("decay-distance-bound", "delta <= -rho: (phi(|w|^2) + i Im z, w) is "
                                 "a boundary point at distance -rho"),
        ("chart-consistency", "flat graph chart realizes the domain"),
        ("single-cluster-at-origin", "square-second map clusters to (0,0)"),
    ],
    "dini-suite": [
        ("sqrt-rate-integral", "integral of r^(-1/2) over (0,1] equals 2"),
        ("linear-rate-integral", "integral of 1 over (0,1] equals 1"),
        ("slow-log-divergence", "rate 1/(1+|log r|) diverges"),
        ("composite-rule", "rate(kappa t^m) stays integrable"),
        ("integrated-modulus", "h(t) = int_0^t omega; h(0.3)=0.045 for omega=r"),
        ("derivative-rate-integrable", "(C/y) M(C y^(s/a*)) integrable at 0"),
    ],
    "embedding-suite": [
        ("embedding-params", "beta = max(1+1e-9, 4 sqrt(2)/m); eps from "
                             "sqrt(2) eps < r_V and x/h^-1(x) < 1/beta"),
        ("embedding-verify", "xi + zeta eta_xi stays in the chart patch"),
        ("doubled-eps-control", "doubling eps breaks the embedding"),
        ("height-sandwich-*", "delta <= Y <= sqrt(1+Lip^2) delta"),
    ],
    "extension-oracle": [
        ("rate-dominates-derivative", "psi(Y) bounds the vertical derivative"),
        ("boundary-values-match-direct", "ladder values vs the entire map"),
        ("ladder-certificates", "|value - f(xi + t' eps)| <= int_0^t' psi"),
        ("telescoping-residual", "|f(xi + t' eps) - int - value| + quadrature "
                                 "error on every grid line"),
        ("top-rung-independence", "two ladders agree within 2 tol"),
        ("boundary-modulus-decays", "three-term continuity certificate"),
    ],
    "dichotomy-demo": [
        ("pair-constant", "Gromov-product fit K over disjoint clouds"),
        ("separation-constant", "source distance bound constant C"),
        ("domain-sequences-cauchy", "both source sequences converge to one "
                                    "boundary point"),
        ("diverging-quantity-monotone", "l = sum half-logs of 1/(delta+sep)"),
        ("consistency-fails-at-finite-index", "(K + C - log C0) - l < 0 "
                                              "eventually"),
        ("barrier-bridge-slack", "half-log sum of delta_D/(C0 delta_Omega)"),
        ("same-limit-control", "images with one limit stay consistent at "
                               "every index"),
    ],
}


def run_scenario(name, seed=0, tol=None, out_dir=None, csv=False):
    if name not in SCENARIOS:
        raise domains.DomainError("unknown scenario %r" % name)
    if seed < 0:
        raise domains.DomainError("seed must be nonnegative, got %r" % seed)
    t0 = time.perf_counter()
    kwargs = {"seed": seed}
    if tol is not None:
        if "tol" not in inspect.signature(SCENARIOS[name]).parameters:
            raise domains.DomainError("scenario %r takes no tol" % name)
        kwargs["tol"] = tol
    report = SCENARIOS[name](**kwargs)
    report.wall_clock = time.perf_counter() - t0   # console only, never serialized
    if out_dir:
        import os
        os.makedirs(out_dir, exist_ok=True)
        report.write(os.path.join(out_dir, "%s.jsonl" % name))
        if csv:
            report.write_csv(out_dir)
    return report


def list_scenarios():
    return sorted(SCENARIOS)
