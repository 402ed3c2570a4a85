"""Low-regularity boundary machinery: moduli of continuity with the Dini
integrability test, local boundary graph charts, the vertical-height
comparison with boundary distance, the planar attached model domains
built from the integrated modulus, and the embedding-parameter selection
with its numerical verification.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import DomainError, as_point, boundary_distance_batch, contains, inward_normal


class ChartError(DomainError):
    pass


DINI_LEVELS = 60          # dyadic panels of the rate integral
DINI_ABS_FLOOR = 1e-13    # tail contributions below this count as converged
EMBED_GRID = 1000         # eps candidates per refinement of the embedding
EMBED_EPS_FLOOR = 1e-12   # smallest eps the embedding refinement tries
MODULUS_PAIRS = 6000      # sampled pairs of estimate_modulus
MODULUS_BINS = 64         # radius bins of estimate_modulus
GL16_X, GL16_W = np.polynomial.legendre.leggauss(16)   # Gauss-Legendre on [-1, 1]


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


@dataclass
class DiniIntegral:
    """Outcome of the endpoint-singular rate integral int_0^eps omega(r)/r dr."""
    value: float
    divergent: bool


def dyadic_panels(f, t, levels, n):
    """n-point Simpson integrals of f over the dyadic panels toward 0:
    entry k covers [t 2^-(k+1), t 2^-k], from one call of f on all nodes.
    n is odd; the composite rule is written for unequal node gaps h0, h1 as
    scipy.integrate.simpson evaluates it, term by term."""
    k = np.arange(levels)
    # a C-order copy, so numpy sums each row as it sums one panel's nodes
    x = np.linspace(t * 2.0 ** (-(k + 1)), t * 2.0 ** (-k), n).T.copy()
    y = f(x)
    h = np.diff(x, axis=-1)
    h0, h1 = h[:, 0::2], h[:, 1::2]
    hsum, r = h0 + h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[:, :-2:2] * (2.0 - 1.0 / r)
                                + y[:, 1::2] * (hsum * (hsum / (h0 * h1)))
                                + y[:, 2::2] * (2.0 - r)), axis=-1)


def dini_integral(omega, eps):
    """Integrate omega(r)/r over (0, eps] on dyadic panels toward 0.

    Panel k covers [eps 2^-(k+1), eps 2^-k].  The partial sums pass a
    Cauchy test when the per-level contributions keep decaying.  Over
    DINI_LEVELS panels, a median ratio of at least 0.97 between successive
    contributions of the last ten, some above DINI_ABS_FLOOR, is declared
    DIVERGENT.  For decaying contributions the geometric tail is
    extrapolated from that median ratio.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eps > omega.domain_end * (1 + 1e-12):
        raise DomainError("eps exceeds the modulus domain")

    contributions = dyadic_panels(lambda r: omega(r) / r, eps, DINI_LEVELS, 33)
    total = float(np.cumsum(contributions)[-1])   # in panel order, not pairwise
    tail = contributions[-10:]
    if np.all(tail <= DINI_ABS_FLOOR):
        return DiniIntegral(total, False)
    ratios = tail[1:] / np.where(tail[:-1] > 0, tail[:-1], np.inf)
    rho = float(np.median(ratios))
    if rho >= 0.97:
        return DiniIntegral(math.inf, True)
    tail_est = contributions[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
    return DiniIntegral(total + tail_est, False)


def composed_rate(omega, kappa, m):
    """The rate t -> omega(kappa * t^m); preserves Dini integrability for
    fixed kappa, m > 0 (substitute u = kappa t^m in the rate integral)."""
    end = (omega.domain_end / kappa) ** (1.0 / m)

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
        """Chart boundary points (Z', x + i phi(Z', x)), from (..., n-1)
        tangential coordinates Z' and (...,) reals x, in one phi call."""
        zprime = np.asarray(zprime, dtype=complex)
        x = np.asarray(x, dtype=float)
        val = self.phi(np.concatenate([zprime.real, zprime.imag, x[..., None]], axis=-1))
        return np.concatenate([zprime, (x + 1j * val)[..., None]], axis=-1)

    def lipschitz_estimate(self):
        """Empirical Lipschitz constant of phi over the chart box, from
        4000 seeded pairs."""
        if self.lip is not None:
            return self.lip
        rng = np.random.default_rng(0)
        d = 2 * self.dim - 1
        x = (rng.random((4000, d)) - 0.5) * (1.2 * self.radius)
        y = x + (rng.random((4000, d)) - 0.5) * (0.2 * self.radius)
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
    if not np.all(chart.in_box(Z, slack=1e-12)):
        raise ChartError("point outside the chart box")
    out = Z[..., -1].imag - chart.phi_at(Z)
    return out if out.shape else float(out)


def chart_consistency(D, chart, seed=0):
    """Sampled check that the chart realizes the domain locally: 200
    interior samples map to Y > 0, 200 boundary graph points map to the
    boundary within 1e-8, and the matrix is an isometry on test vectors."""
    rng = np.random.default_rng(seed)
    n = chart.dim
    # isometry on random vectors
    v = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    iso = np.max(np.abs(np.linalg.norm(v @ chart.unitary.T, axis=-1) -
                        np.linalg.norm(v, axis=-1)))
    # boundary graph points are boundary points of D
    zp = (rng.random((200, n - 1)) - 0.5) * chart.radius \
        + 1j * (rng.random((200, n - 1)) - 0.5) * chart.radius
    Zb = chart.boundary_point(zp, (rng.random(200) - 0.5) * chart.radius)
    amb = chart.from_chart(Zb)
    bd_resid = float(np.max(np.abs(D.value(amb))))
    # interior points near the base map to Y > 0
    lift = rng.random(200) * 0.25 * chart.radius
    Zi = Zb.copy()
    Zi[:, -1] = Zi[:, -1] + 1j * lift
    inside = contains(D, chart.from_chart(Zi))
    ypos = vertical_height(chart, Zi)
    return {
        "isometry_defect": float(iso),
        "boundary_residual": bd_resid,
        "interior_ok": bool(np.all(inside)),
        "height_positive": bool(np.all(ypos > 0)),
        "passes": bool(iso < 1e-12 and bd_resid < 1e-8
                       and np.all(inside) and np.all(ypos > 0)),
    }


def estimate_modulus(chart, seed=0, pair_samples=None):
    """Tabulated gradient modulus of continuity of the chart graph:
    r -> max { |grad phi(x) - grad phi(y)| : |x - y| <= r }, computed on
    MODULUS_PAIRS sampled pairs, binned on MODULUS_BINS radii and closed
    to a monotone envelope.
    """
    if chart.regularity != "c1_dini":
        raise ChartError("gradient modulus needs a C^1 chart")
    if chart.grad_phi is None:
        raise ChartError("chart has no gradient oracle")
    d = 2 * chart.dim - 1
    if pair_samples is None:
        rng = np.random.default_rng(seed)
        x = (rng.random((4 * MODULUS_PAIRS, d)) - 0.5) * (2.0 * chart.radius)
        scale = rng.random(4 * MODULUS_PAIRS) ** 2
        y = x + ((rng.random((4 * MODULUS_PAIRS, d)) - 0.5) * (2.0 * chart.radius)
                 * scale[:, None])
        y = np.clip(y, -chart.radius, chart.radius)
        # keep pairs whose tangential part lies in the chart base ball
        okx = np.linalg.norm(x[:, :-1], axis=-1) < chart.radius
        oky = np.linalg.norm(y[:, :-1], axis=-1) < chart.radius
        keep = okx & oky
        x, y = x[keep][:MODULUS_PAIRS], y[keep][:MODULUS_PAIRS]
    else:
        x, y = pair_samples
    gx = np.asarray(chart.grad_phi(x), dtype=float)
    gy = np.asarray(chart.grad_phi(y), dtype=float)
    dist = np.linalg.norm(x - y, axis=-1)
    jump = np.linalg.norm(gx - gy, axis=-1)
    end = 2.0 * math.sqrt(2.0) * chart.radius
    grid = np.linspace(0.0, end, MODULUS_BINS + 1)
    idx = np.clip(np.searchsorted(grid, dist, side="left"), 0, MODULUS_BINS)
    vals = np.zeros(MODULUS_BINS + 1)
    np.maximum.at(vals, idx, jump)
    vals = np.maximum.accumulate(vals)
    return ModulusOfContinuity.from_table(grid, vals,
                                          name="grad-modulus:%s" % (chart.name or "chart"))


# ---------------------------------------------------------------------------
# integrated modulus h and the attached planar model domain
# ---------------------------------------------------------------------------

def h_integral(omega, t):
    """h(t) = int_0^t omega(r) dr for t >= 0, and int_t^0 omega(-r) dr for
    t < 0; even in t, strictly increasing in |t| once omega > 0.  t is a
    float or an array, each entry integrated exactly as a lone float is."""
    tt = np.abs(np.asarray(t, dtype=float))
    if np.any(tt > omega.domain_end * (1 + 1e-12)):
        raise DomainError("|t| outside the modulus domain")
    if omega.grid is not None:
        # exact integral of the piecewise-linear table: the full cells below
        # tt, then the trapezoid of the cell [g_k, tt] that omega is linear on
        g, v = omega.grid, omega.values
        k = np.searchsorted(g, tt, side="right") - 1
        full = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
        out = full[k] + 0.5 * (tt - g[k]) * (v[k] + omega(tt))
    else:
        # GL16 on DINI_LEVELS dyadic panels toward 0, centre 3 half, half-width half
        half = tt[..., None, None] * 2.0 ** (-np.arange(DINI_LEVELS)[:, None] - 2)
        out = np.sum(half[..., 0] * (omega(3.0 * half + half * GL16_X) @ GL16_W), axis=-1)
    return out if out.shape else float(out)


@dataclass
class ModelDomainParams:
    """Parameters of the attached planar domain
    { s + i t : |t| < eps, beta h(t) < s < eps } built from a boundary
    gradient modulus omega, h = h_integral(omega, .); symmetric about the
    real axis and attached at 0."""
    beta: float
    eps: float
    omega: ModulusOfContinuity
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta <= 1.0:
            raise DomainError("beta must exceed 1")
        if self.eps <= 0.0:
            raise DomainError("eps must be positive")


def model_domain_contains(params, zeta):
    """Strict membership of complex numbers in the attached model domain."""
    zeta = np.asarray(zeta, dtype=complex)
    s = zeta.real
    t = zeta.imag
    ok = (np.abs(t) < params.eps) & (s < params.eps)
    ok &= params.beta * h_integral(params.omega, np.where(ok, t, 0.0)) < s
    return ok if ok.shape else bool(ok)


def sample_model_domain(params, n=400, seed=0):
    """Deterministic interior samples of the model domain, biased to cover
    the attachment corner at 0 and the far edge (rejection on a grid plus
    seeded jitter)."""
    rng = np.random.default_rng(seed)
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
    return cand


def select_embedding_params(chart, m, r_V, omega):
    """Choose (beta, eps) so the affine normal embeddings of the model
    domain from every nearby boundary point stay inside the chart patch of
    the domain:

      beta = max(1 + 1e-9, 4 sqrt(2) / m),
      eps  = the largest value on a grid of EMBED_GRID points with
             sqrt(2) eps < r_V and h(beta x) < x (that is, x / h^{-1}(x)
             < 1/beta, as h is nondecreasing and continuous) for all grid
             x in (0, eps]; a grid x with beta x past omega's domain
             fails, as h is undefined there.  The grid refines below its
             first point while that point fails, down to EMBED_EPS_FLOOR.

    m is the caller-supplied infimum of the defining-function gradient norm
    over the boundary patch; r_V < chart radius controls how far the patch
    sits from the chart box edge; omega is the chart's gradient modulus
    (estimate_modulus).
    """
    if m <= 0:
        raise DomainError("gradient infimum m must be positive")
    if not (0 < r_V < chart.radius):
        raise DomainError("need 0 < r_V < chart radius")
    beta = max(1.0 + 1e-9, 4.0 * math.sqrt(2.0) / m)
    eps_cap = (r_V / math.sqrt(2.0)) * (1.0 - 1e-12)
    eps = None
    binding = "patch-clearance"
    cap = eps_cap
    while True:
        xs = np.linspace(cap / EMBED_GRID, cap, EMBED_GRID)
        bx = np.minimum(beta * xs, omega.domain_end)
        bad = (beta * xs > omega.domain_end) | (h_integral(omega, bx) >= xs)
        if not bad.any():
            eps = float(xs[-1])
            break
        first_bad = int(np.argmax(bad))
        if first_bad > 0:
            eps = float(xs[first_bad - 1])
            binding = "modulus-growth"
            break
        # even the smallest grid value failed; refine below it
        if xs[0] <= EMBED_EPS_FLOOR:
            raise DomainError("no admissible eps at the grid floor %g" % EMBED_EPS_FLOOR)
        cap = xs[0]
    return ModelDomainParams(beta=beta, eps=eps, omega=omega,
                             provenance={"m": m, "r_V": r_V, "binding": binding,
                                         "eps_cap": eps_cap, "grid": EMBED_GRID})


@dataclass
class EmbeddingReport:
    n_pairs: int
    violations: list
    worst_margin: float

    @property
    def ok(self):
        return len(self.violations) == 0


def verify_embedding(D, chart, boundary_points, params, zetas):
    """Check that xi + zeta * eta_xi lies in the chart patch of D for every
    listed boundary point xi and every model-domain sample zeta, where
    eta_xi is the unit inward normal.  Reports violating pairs and the
    worst defining-function margin seen (negative margins are good); one
    normal, oracle and chart call over all pairs, violations by point, then
    by sample."""
    zetas = np.asarray(zetas, dtype=complex)
    xis = np.array([as_point(xi, D.dim) for xi in boundary_points]).reshape(-1, D.dim)
    eta = inward_normal(D, xis)
    pts = xis[:, None, :] + zetas[:, None] * eta[:, None, :]
    gvals = D.value(pts)
    Z = chart.to_chart(pts)
    inb = chart.in_box(Z)
    ypos = np.full(inb.shape, -1.0)
    ypos[inb] = vertical_height(chart, Z[inb])
    ok = (gvals < 0.0) & inb & (ypos > 0.0)
    violations = [(xis[p], complex(zetas[j]), float(gvals[p, j]))
                  for p, j in zip(*np.nonzero(~ok))]
    return EmbeddingReport(n_pairs=gvals.size, violations=violations,
                           worst_margin=float(np.max(gvals, initial=-math.inf)))


def verify_lipschitz_sandwich(D, chart, samples):
    """Assert dist(z, bd D) <= Y(chart(z)) on the samples and return the
    smallest empirical C with Y <= C dist; C is at least 1 and at most the
    Lipschitz constant of Y, sqrt(1 + Lip(phi)^2), up to sampling slack."""
    zs = np.atleast_2d(np.asarray(samples, dtype=complex))
    Y = vertical_height(chart, chart.to_chart(zs))
    delta = boundary_distance_batch(D, zs)
    scale = 1.0 + np.max(np.linalg.norm(zs, axis=-1))
    if np.min(Y - delta) < -1e-9 * scale:
        raise ChartError("vertical height fell below the boundary distance: "
                         "chart inconsistent with the domain")
    C = float(np.max(Y / delta))
    return max(C, 1.0)
