"""Low-regularity boundary machinery: moduli of continuity with the Dini
integrability test, local boundary graph charts, the vertical-height
comparison with boundary distance, the planar attached model domains
built from the integrated modulus, and the embedding-parameter selection
with its numerical verification.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .domains import (DomainError, _bisect, as_point, boundary_distance_batch,
                      contains, inward_normal)


class ChartError(DomainError):
    pass


# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------

@dataclass
class ModulusOfContinuity:
    """A nondecreasing rate function with omega(0) = 0 on [0, domain_end].

    Either a closed-form callable or a monotone table with linear
    interpolation.  Calls are vectorized and clipped to the domain.
    """
    fn: callable = None
    grid: np.ndarray = None
    values: np.ndarray = None
    domain_end: float = 1.0
    name: str = ""

    @classmethod
    def from_function(cls, fn, domain_end=1.0, name=""):
        return cls(fn=fn, domain_end=float(domain_end), name=name)

    @classmethod
    def from_table(cls, grid, values, name=""):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        order = np.argsort(grid)
        grid, values = grid[order], values[order]
        if grid[0] > 0.0:
            grid = np.concatenate([[0.0], grid])
            values = np.concatenate([[0.0], values])
        values = np.maximum.accumulate(np.maximum(values, 0.0))
        values[0] = 0.0
        return cls(grid=grid, values=values, domain_end=float(grid[-1]), name=name)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        rr = np.clip(r, 0.0, self.domain_end)
        if self.fn is not None:
            out = np.asarray(self.fn(rr), dtype=float)
        else:
            out = np.interp(rr, self.grid, self.values)
        return out if out.shape else float(out)

    def to_csv(self, path=None, n_grid=256):
        """Tabulate the rate (and its integral h) as CSV for plotting."""
        from .reports import export_csv_text
        r = np.linspace(0.0, self.domain_end, n_grid)
        vals = np.atleast_1d(self(r))
        h = np.concatenate([[0.0],
                            np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(r))])
        text = export_csv_text(["r", "omega", "h"],
                               np.stack([r, vals, h], axis=-1).tolist())
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def subadditive_envelope(self, n_grid=513):
        """Least concave majorant on [0, domain_end]; concave with value 0
        at 0, hence subadditive, and it dominates the original rate."""
        r = np.linspace(0.0, self.domain_end, n_grid)
        v = np.atleast_1d(self(r)).astype(float)
        # upper convex hull of (r, v) scanned left to right
        hull = [(r[0], 0.0)]
        for x, y in zip(r[1:], v[1:]):
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append((x, y))
        hr = np.array([p[0] for p in hull])
        hv = np.array([p[1] for p in hull])
        return ModulusOfContinuity.from_table(hr, hv, name=self.name + "_subadd")


@dataclass
class DiniIntegral:
    """Outcome of the endpoint-singular rate integral int_0^eps omega(r)/r dr."""
    value: float
    divergent: bool
    levels: int
    tail_estimate: float

    def __float__(self):
        return self.value


def dyadic_panels(f, t, levels, n):
    """n-point Simpson integrals of f over the dyadic panels toward 0:
    entry k covers [t 2^-(k+1), t 2^-k]."""
    c = np.empty(levels)
    for k in range(levels):
        x = np.linspace(t * 2.0 ** (-(k + 1)), t * 2.0 ** (-k), n)
        c[k] = integrate.simpson(np.atleast_1d(f(x)), x=x)
    return c


def dini_integral(omega, eps, levels=60, decay_cutoff=0.97, abs_floor=1e-13):
    """Integrate omega(r)/r over (0, eps] on dyadic panels toward 0.

    Panel k covers [eps 2^-(k+1), eps 2^-k].  The partial sums pass a
    Cauchy test when the per-level contributions keep decaying; a stalled
    ratio over `levels` dyadic levels with non-negligible contributions is
    declared DIVERGENT.  For decaying contributions the geometric tail is
    extrapolated from the last ratio.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eps > omega.domain_end * (1 + 1e-12):
        raise DomainError("eps exceeds the modulus domain")

    contributions = dyadic_panels(lambda r: omega(r) / r, eps, levels, 33)
    total = float(np.cumsum(contributions)[-1])   # in panel order, not pairwise
    tail = contributions[-10:]
    if np.all(tail <= abs_floor):
        return DiniIntegral(total, False, levels, 0.0)
    ratios = tail[1:] / np.where(tail[:-1] > 0, tail[:-1], np.inf)
    rho = float(np.median(ratios))
    if rho >= decay_cutoff:
        return DiniIntegral(math.inf, True, levels, math.inf)
    tail_est = contributions[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
    return DiniIntegral(total + tail_est, False, levels, tail_est)


def composed_rate(omega, kappa, m, domain_end=None):
    """The rate t -> omega(kappa * t^m); preserves Dini integrability for
    fixed kappa, m > 0 (substitute u = kappa t^m in the rate integral)."""
    end = domain_end if domain_end is not None else (omega.domain_end / kappa) ** (1.0 / m)

    def fn(t):
        return omega(kappa * np.asarray(t, dtype=float) ** m)

    return ModulusOfContinuity.from_function(fn, domain_end=end,
                                             name="%s(k t^m)" % (omega.name or "omega"))


# ---------------------------------------------------------------------------
# boundary graph charts
# ---------------------------------------------------------------------------

@dataclass
class GraphChart:
    """Local boundary chart: Z = U (z - base), with the boundary realized as
    { Im Z_n = phi(Z', Re Z_n) } and the domain side as { Im Z_n > phi }.

    phi takes the 2n-1 real chart-base coordinates stacked as
    (Re Z', Im Z', Re Z_n), shape (..., 2n-1), and is vectorized.
    grad_phi (optional) returns the real gradient with the same layout.
    """
    base: np.ndarray
    unitary: np.ndarray
    radius: float
    phi: callable
    grad_phi: callable = None
    regularity: str = "lipschitz"     # "lipschitz" | "c1_dini"
    lip: float = None
    name: str = ""

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=complex)
        self.unitary = np.asarray(self.unitary, dtype=complex)
        n = self.base.size
        if self.unitary.shape != (n, n):
            raise ChartError("unitary must be n x n")
        if np.max(np.abs(self.unitary @ self.unitary.conj().T - np.eye(n))) > 1e-12:
            raise ChartError("chart matrix is not unitary")
        if self.regularity not in ("lipschitz", "c1_dini"):
            raise ChartError("regularity must be 'lipschitz' or 'c1_dini'")

    @property
    def dim(self):
        return self.base.size

    def to_chart(self, z):
        z = np.asarray(z, dtype=complex)
        return (z - self.base) @ self.unitary.T

    def from_chart(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return Z @ np.conj(self.unitary) + self.base

    def base_coords(self, Z):
        """(Re Z', Im Z', Re Z_n) stacked along the last axis."""
        Z = np.asarray(Z, dtype=complex)
        zp = Z[..., :-1]
        return np.concatenate([zp.real, zp.imag, Z[..., -1:].real], axis=-1)

    def in_box(self, Z, slack=0.0):
        Z = np.asarray(Z, dtype=complex)
        zp_norm = np.linalg.norm(Z[..., :-1], axis=-1)
        return (zp_norm < self.radius + slack) & \
               (np.abs(Z[..., -1].real) < self.radius + slack)

    def phi_at(self, Z):
        return self.phi(self.base_coords(Z))

    def boundary_point(self, zprime, x):
        """Chart boundary point (Z', x + i phi(Z', x))."""
        zprime = np.asarray(zprime, dtype=complex)
        coords = np.concatenate([np.atleast_1d(zprime).real,
                                 np.atleast_1d(zprime).imag,
                                 np.atleast_1d(float(x))])
        val = float(self.phi(coords))
        return np.concatenate([np.atleast_1d(zprime),
                               np.atleast_1d(x + 1j * val)])

    def lipschitz_estimate(self, n_samples=4000, seed=0):
        """Empirical Lipschitz constant of phi over the chart box."""
        if self.lip is not None:
            return self.lip
        rng = np.random.default_rng(seed)
        d = 2 * self.dim - 1
        x = (rng.random((n_samples, d)) - 0.5) * (1.2 * self.radius)
        y = x + (rng.random((n_samples, d)) - 0.5) * (0.2 * self.radius)
        fx = np.atleast_1d(self.phi(x))
        fy = np.atleast_1d(self.phi(y))
        dist = np.linalg.norm(x - y, axis=-1)
        good = dist > 1e-12
        self.lip = float(np.max(np.abs(fx - fy)[good] / dist[good]))
        return self.lip


def vertical_height(chart, Z):
    """Y(Z', Z_n) = Im Z_n - phi(Z', Re Z_n); vanishes exactly on the chart
    boundary graph and is positive on the domain side."""
    Z = np.asarray(Z, dtype=complex)
    inb = chart.in_box(Z, slack=1e-12)
    if not np.all(inb):
        raise ChartError("point outside the chart box")
    out = Z[..., -1].imag - chart.phi_at(Z)
    return out if out.shape else float(out)


def chart_consistency(D, chart, n_boundary=200, n_interior=200, seed=0,
                      boundary_tol=1e-8):
    """Sampled check that the chart realizes the domain locally: interior
    samples map to Y > 0, boundary graph points map to the boundary within
    tolerance, and the matrix is an isometry on test vectors."""
    rng = np.random.default_rng(seed)
    n = chart.dim
    # isometry on random vectors
    v = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    iso = np.max(np.abs(np.linalg.norm(v @ chart.unitary.T, axis=-1) -
                        np.linalg.norm(v, axis=-1)))
    # boundary graph points are boundary points of D
    zp = (rng.random((n_boundary, n - 1)) - 0.5) * chart.radius \
        + 1j * (rng.random((n_boundary, n - 1)) - 0.5) * chart.radius
    xx = (rng.random(n_boundary) - 0.5) * chart.radius
    coords = np.concatenate([zp.real, zp.imag, xx[:, None]], axis=-1)
    vals = np.atleast_1d(chart.phi(coords))
    Zb = np.concatenate([zp, (xx + 1j * vals)[:, None]], axis=-1)
    amb = chart.from_chart(Zb)
    bd_resid = float(np.max(np.abs(D.value(amb))))
    # interior points near the base map to Y > 0
    lift = rng.random(n_interior) * 0.25 * chart.radius
    Zi = Zb[:n_interior].copy()
    Zi[:, -1] = Zi[:, -1] + 1j * lift
    inside = contains(D, chart.from_chart(Zi))
    ypos = Zi[:, -1].imag - np.atleast_1d(chart.phi(chart.base_coords(Zi)))
    return {
        "isometry_defect": float(iso),
        "boundary_residual": bd_resid,
        "interior_ok": bool(np.all(inside)),
        "height_positive": bool(np.all(ypos > 0)),
        "passes": bool(iso < 1e-12 and bd_resid < boundary_tol
                       and np.all(inside) and np.all(ypos > 0)),
    }


def estimate_modulus(chart, n_samples=6000, r_grid_size=64, seed=0,
                     pair_samples=None):
    """Tabulated gradient modulus of continuity of the chart graph:
    r -> max { |grad phi(x) - grad phi(y)| : |x - y| <= r }, computed on
    sampled pairs and closed to a monotone envelope.
    """
    if chart.regularity != "c1_dini":
        raise ChartError("gradient modulus needs a C^1 chart")
    if chart.grad_phi is None:
        raise ChartError("chart has no gradient oracle")
    d = 2 * chart.dim - 1
    if pair_samples is None:
        rng = np.random.default_rng(seed)
        x = (rng.random((4 * n_samples, d)) - 0.5) * (2.0 * chart.radius)
        scale = rng.random(4 * n_samples) ** 2
        y = x + (rng.random((4 * n_samples, d)) - 0.5) * (2.0 * chart.radius) * scale[:, None]
        y = np.clip(y, -chart.radius, chart.radius)
        # keep pairs whose tangential part lies in the chart base ball
        okx = np.linalg.norm(x[:, :-1], axis=-1) < chart.radius
        oky = np.linalg.norm(y[:, :-1], axis=-1) < chart.radius
        keep = okx & oky
        x, y = x[keep][:n_samples], y[keep][:n_samples]
    else:
        x, y = pair_samples
    gx = np.asarray(chart.grad_phi(x), dtype=float)
    gy = np.asarray(chart.grad_phi(y), dtype=float)
    dist = np.linalg.norm(x - y, axis=-1)
    jump = np.linalg.norm(gx - gy, axis=-1)
    end = 2.0 * math.sqrt(2.0) * chart.radius
    grid = np.linspace(0.0, end, r_grid_size + 1)
    idx = np.clip(np.searchsorted(grid, dist, side="left"), 0, r_grid_size)
    vals = np.zeros(r_grid_size + 1)
    np.maximum.at(vals, idx, jump)
    vals = np.maximum.accumulate(vals)
    return ModulusOfContinuity.from_table(grid, vals,
                                          name="grad-modulus:%s" % (chart.name or "chart"))


# ---------------------------------------------------------------------------
# integrated modulus h and the attached planar model domain
# ---------------------------------------------------------------------------

def h_integral(omega, t):
    """h(t) = int_0^t omega(r) dr for t >= 0, and int_t^0 omega(-r) dr for
    t < 0; even in t, strictly increasing in |t| once omega > 0."""
    tt = abs(float(t))
    if tt == 0.0:
        return 0.0
    if tt > omega.domain_end * (1 + 1e-12):
        raise DomainError("|t| outside the modulus domain")
    if omega.grid is not None:
        # exact integral of the piecewise-linear table
        g, v = omega.grid, omega.values
        full = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
        return float(np.interp(tt, g, full))
    val, _ = integrate.quad(lambda r: float(omega(r)), 0.0, tt, limit=200)
    return float(val)


class HFunction:
    """Dense cached version of h with a bisection inverse on t >= 0."""

    def __init__(self, omega, n_grid=4096):
        self.omega = omega
        end = omega.domain_end
        self.t = np.linspace(0.0, end, n_grid)
        vals = np.atleast_1d(omega(self.t))
        self.h = np.concatenate([[0.0],
                                 np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(self.t))])
        self.hmax = float(self.h[-1])
        self.flat = self.hmax <= 0.0

    def __call__(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.interp(t, self.t, self.h)
        return out if out.shape else float(out)

    def inv(self, x, iters=80):
        """Smallest t >= 0 with h(t) = x; +inf where h never reaches x
        (in particular everywhere when h vanishes identically)."""
        x = np.asarray(x, dtype=float)
        if self.flat:
            out = np.where(x <= 0.0, 0.0, math.inf)
            return out if out.shape else float(out)
        lo, hi = _bisect(lambda t: np.interp(t, self.t, self.h) < x,
                         np.zeros_like(x, dtype=float),
                         np.full_like(x, self.t[-1], dtype=float), iters)
        out = np.where(x > self.hmax, math.inf, 0.5 * (lo + hi))
        return out if out.shape else float(out)


@dataclass
class ModelDomainParams:
    """Parameters of the attached planar domain
    { s + i t : |t| < eps, beta h(t) < s < eps } built from a boundary
    gradient modulus; symmetric about the real axis and attached at 0."""
    beta: float
    eps: float
    h: HFunction
    omega: ModulusOfContinuity = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta <= 1.0:
            raise DomainError("beta must exceed 1")
        if self.eps <= 0.0:
            raise DomainError("eps must be positive")


def model_domain_contains(params, zeta):
    """Strict membership of a complex scalar in the attached model domain."""
    zeta = np.asarray(zeta, dtype=complex)
    s = zeta.real
    t = zeta.imag
    ok = (np.abs(t) < params.eps) & (s < params.eps) & (params.beta * params.h(np.abs(t)) < s)
    return ok if ok.shape else bool(ok)


def sample_model_domain(params, n=400, seed=0, margin=0.0):
    """Deterministic interior samples of the model domain, biased to cover
    the attachment corner at 0 and the far edge (rejection on a grid plus
    seeded jitter)."""
    rng = np.random.default_rng(seed)
    pts = []
    k = int(math.ceil(math.sqrt(4 * n)))
    ss = np.linspace(1e-9, params.eps * (1 - 1e-9), k)
    tt = np.linspace(-params.eps * (1 - 1e-9), params.eps * (1 - 1e-9), k)
    S, T = np.meshgrid(ss, tt)
    cand = (S + 1j * T).ravel()
    keep = model_domain_contains(params, cand)
    cand = cand[keep]
    if cand.size > n:
        idx = rng.permutation(cand.size)[:n]
        cand = cand[idx]
    if margin > 0:
        shrink = 1.0 - margin
        cand = cand * shrink
        cand = cand[model_domain_contains(params, cand)]
    return cand


def select_embedding_params(chart, m, r_V, omega=None, grid=1000,
                            eps_floor=1e-12):
    """Choose (beta, eps) so the affine normal embeddings of the model
    domain from every nearby boundary point stay inside the chart patch of
    the domain:

      beta = max(1 + 1e-9, 4 sqrt(2) / m),
      eps  = the largest grid value with sqrt(2) eps < r_V and
             x / h^{-1}(x) < 1/beta for all grid x in (0, eps].

    m is the caller-supplied infimum of the defining-function gradient norm
    over the boundary patch; r_V < chart radius controls how far the patch
    sits from the chart box edge.
    """
    if m <= 0:
        raise DomainError("gradient infimum m must be positive")
    if not (0 < r_V < chart.radius):
        raise DomainError("need 0 < r_V < chart radius")
    if omega is None:
        omega = estimate_modulus(chart)
    h = HFunction(omega)
    beta = max(1.0 + 1e-9, 4.0 * math.sqrt(2.0) / m)
    eps_cap = (r_V / math.sqrt(2.0)) * (1.0 - 1e-12)
    eps = None
    binding = "patch-clearance"
    cap = eps_cap
    while True:
        xs = np.linspace(cap / grid, cap, grid)
        hinv = h.inv(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.isfinite(hinv),
                             xs / np.where(hinv > 0, hinv, np.inf), 0.0)
        bad = ratio >= 1.0 / beta
        if not bad.any():
            eps = float(xs[-1])
            break
        first_bad = int(np.argmax(bad))
        if first_bad > 0:
            eps = float(xs[first_bad - 1])
            binding = "modulus-growth"
            break
        # even the smallest grid value failed; refine below it
        if xs[0] <= eps_floor:
            raise DomainError("no admissible eps at the grid floor %g" % eps_floor)
        cap = xs[0]
    return ModelDomainParams(beta=beta, eps=eps, h=h, omega=omega,
                             provenance={"m": m, "r_V": r_V, "binding": binding,
                                         "eps_cap": eps_cap, "grid": grid})


@dataclass
class EmbeddingReport:
    n_pairs: int
    violations: list
    worst_margin: float

    @property
    def ok(self):
        return len(self.violations) == 0


def verify_embedding(D, chart, boundary_points, params, zetas,
                     require_box=True):
    """Check that xi + zeta * eta_xi lies in the chart patch of D for every
    listed boundary point xi and every model-domain sample zeta, where
    eta_xi is the unit inward normal.  Reports violating pairs and the
    worst defining-function margin seen (negative margins are good)."""
    zetas = np.asarray(zetas, dtype=complex)
    violations = []
    worst = -math.inf
    total = 0
    for xi in boundary_points:
        xi = as_point(xi, D.dim)
        eta = inward_normal(D, xi)
        pts = xi[None, :] + zetas[:, None] * eta[None, :]
        gvals = D.value(pts)
        inside = gvals < 0.0
        ok = inside.copy()
        if require_box:
            Z = chart.to_chart(pts)
            inb = chart.in_box(Z)
            ypos = np.where(inb,
                            Z[..., -1].imag - np.atleast_1d(chart.phi(chart.base_coords(Z))),
                            -1.0)
            ok &= inb & (ypos > 0.0)
        worst = max(worst, float(np.max(gvals)))
        for j in np.nonzero(~ok)[0]:
            violations.append((xi, complex(zetas[j]), float(gvals[j])))
        total += zetas.size
    return EmbeddingReport(n_pairs=total, violations=violations, worst_margin=worst)


def verify_lipschitz_sandwich(D, chart, samples, dist_method="auto",
                              first_tol=1e-9):
    """Assert dist(z, bd D) <= Y(chart(z)) on the samples and return the
    smallest empirical C with Y <= C dist; C is at least 1 and at most the
    Lipschitz constant of Y, sqrt(1 + Lip(phi)^2), up to sampling slack."""
    zs = np.atleast_2d(np.asarray(samples, dtype=complex))
    Z = chart.to_chart(zs)
    if not np.all(chart.in_box(Z)):
        raise ChartError("sample outside the chart box")
    Y = Z[..., -1].imag - np.atleast_1d(chart.phi(chart.base_coords(Z)))
    delta = boundary_distance_batch(D, zs, method=dist_method)
    scale = 1.0 + np.max(np.linalg.norm(zs, axis=-1))
    if np.min(Y - delta) < -first_tol * scale:
        raise ChartError("vertical height fell below the boundary distance: "
                         "chart inconsistent with the domain")
    C = float(np.max(Y / delta))
    return max(C, 1.0)
