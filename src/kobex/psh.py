"""Plurisubharmonic-function tooling: Levi forms (analytic or finite
difference), psh verification over sampled points, boundary decay-rate
("Hopf") constant fitting, the pushforward barrier over the fibers of a
proper map, and the derivative-rate function psi used by the boundary
extension pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainError, as_point, boundary_distance_batch, contains, row_norms


class SmoothnessError(DomainError):
    pass


PSH_FLOOR = -1e-8      # least Levi form check_psh accepts
PSH_DIRS = 4           # random unit directions per sample of check_psh
HOPF_MIN_BANDS = 4     # dyadic bands of delta a Hopf fit must span


@dataclass
class PshWitness:
    """A candidate negative plurisubharmonic function.

    fn: value oracle, (..., n) complex -> (...,) real.
    hess: optional complex-Hessian oracle, (..., n) -> (..., n, n) Hermitian
          matrices of mixed second derivatives d^2 u / dz_j dzbar_k.
    smooth: optional predicate, (..., n) -> (...,), true where fn is twice
          differentiable.
    """
    fn: callable
    hess: callable = None
    smooth: callable = None
    name: str = ""

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))


def levi_form(u, z, v, step=None, use_hessian=True, cross_check=False):
    """<v, H_C u(z) v>: the complex Hessian quadratic form along v, for one
    (n,) point and direction (a float) or (m, n) rows of them (an (m,)
    array; either side may be one (n,) vector for all rows).

    Uses one call of the analytic Hessian oracle when present, otherwise
    central differences along v and iv, Richardson-extrapolated from steps h
    and h/2, in one call of u over all rows' 9-point stencils.  With
    cross_check=True both routes must agree to 1e-4 relative at every row.
    """
    z, v = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
    zs, vs = np.broadcast_arrays(np.atleast_2d(z), np.atleast_2d(v))
    one = z.ndim == v.ndim == 1
    if u.smooth is not None and not np.all(u.smooth(zs)):
        raise SmoothnessError("Levi form requested at a non-smooth point")

    analytic = None
    if u.hess is not None and use_hessian:
        H = np.asarray(u.hess(zs), dtype=complex)
        analytic = np.real(np.conj(vs)[:, None] @ H @ vs[..., None])[:, 0, 0]
        if not cross_check:
            return float(analytic[0]) if one else analytic

    nv = row_norms(vs)
    vhat = vs / np.where(nv != 0.0, nv, 1.0)[:, None]
    h = 1e-5 * (1.0 + row_norms(zs)) if step is None else np.full(len(zs), float(step))
    hh = np.stack([h, h / 2.0], axis=1)
    # the centre, then z +- hh d for hh = h, h/2 and d = vhat, i vhat
    off = hh[:, :, None, None] * np.stack([vhat, 1j * vhat], axis=1)[:, None]
    arms = (zs[:, None, None, None] + np.stack([off, -off], axis=3)).reshape(len(zs), 8, -1)
    vals = np.asarray(u(np.concatenate([zs[:, None], arms], axis=1)), dtype=float)
    acc = -4.0 * vals[:, :1]
    for j in (1, 3):   # in the order of one point at a time
        acc = acc + (vals[:, j::4] + vals[:, j + 1::4])
    quarter = acc / (4.0 * hh * hh)
    fd = np.where(nv != 0.0, (4.0 * quarter[:, 1] - quarter[:, 0]) / 3.0 * (nv * nv), 0.0)
    if analytic is not None:
        gap = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
        bad = np.flatnonzero(gap > 1e-4)
        if bad.size:
            raise SmoothnessError(
                "analytic and finite-difference Levi forms disagree: %g vs %g"
                % (analytic[bad[0]], fd[bad[0]]))
        fd = analytic
    return float(fd[0]) if one else fd


@dataclass
class PshReport:
    min_value: float
    argmin: tuple
    n_checked: int
    violations: int

    @property
    def passes(self):
        return self.violations == 0


def check_psh(u, D, samples, seed=0):
    """Sampled plurisubharmonicity check: Levi form >= PSH_FLOOR along
    PSH_DIRS random unit directions at each smooth sample, in one
    Levi-form call.  Violations are counted, never raised."""
    zs = np.array([as_point(z, D.dim) for z in samples]).reshape(-1, D.dim)
    if not np.all(contains(D, zs)):
        raise DomainError("psh samples must be interior")
    if u.smooth is not None:
        zs = zs[np.asarray(u.smooth(zs), dtype=bool)]
    if len(zs) == 0:
        return PshReport(math.inf, None, 0, 0)
    g = np.random.default_rng(seed).standard_normal((len(zs), PSH_DIRS, 2, D.dim))
    vs = (g[:, :, 0] + 1j * g[:, :, 1]).reshape(-1, D.dim)
    vs = vs / row_norms(vs)[:, None]
    zs = np.repeat(zs, PSH_DIRS, axis=0)
    vals = levi_form(u, zs, vs)
    i = int(np.argmin(vals))
    return PshReport(min_value=vals[i], argmin=(zs[i], vs[i]), n_checked=len(vals),
                     violations=int(np.sum(vals < PSH_FLOOR)))


# ---------------------------------------------------------------------------
# Hopf-type decay fitting: phi(w) <= -C * delta(w)
# ---------------------------------------------------------------------------

@dataclass
class HopfFit:
    C: float
    alpha: float           # the decay exponent, one
    sample_count: int
    residual: float        # max of phi + C delta over the eval set


def hopf_fit(phi, D, samples):
    """Fit the boundary decay inequality phi <= -C delta_D at exponent one,
    the classical twice-differentiable case.  C is the envelope infimum of
    |phi| / delta over the fitting samples, so the fitted inequality is
    tight with residual exactly 0 at the binding sample.

    The samples must spread over at least HOPF_MIN_BANDS dyadic bands of
    delta_D; the residual is reported on the fitting set.
    """
    zs = np.atleast_2d(np.asarray([as_point(z, D.dim) for z in samples]))
    deltas = boundary_distance_batch(D, zs)
    vals = np.asarray(phi(zs), dtype=float)
    if np.any(vals >= 0):
        raise DomainError("witness must be negative on the fitting samples")
    bands = np.unique(np.floor(-np.log2(deltas)).astype(int))
    if bands.size < HOPF_MIN_BANDS:
        raise DomainError("samples span %d dyadic bands of delta; need >= %d"
                          % (bands.size, HOPF_MIN_BANDS))
    C = float(np.min(-vals / deltas))
    residual = float(np.max(vals + C * deltas))
    return HopfFit(C=C, alpha=1.0, sample_count=len(samples), residual=residual)


def step1_constant_ex21():
    """The explicit constants controlling the nearest-point estimate on the
    region 9/10 < x < 1, 0 <= y < 1/10 of the curve x^2 + y = 1:

      C      = sup over the box of the cubic's slope bound 6x^2 + (2y - 1),
      Ctilde = 9 / (5 C).

    The supremum sits at the corner (1, 1/10) since the expression is
    increasing in both variables.
    """
    C = 6.0 * 1.0 ** 2 + (2.0 * (1.0 / 10.0) - 1.0)
    return C, 9.0 / (5.0 * C)


def nearest_point_cubic(x0, y0):
    """Cardano's root X of 2X^3 + (2y0 - 1)X - x0 = 0, i.e. X^3 + pX + q with
    p = y0 - 1/2, q = -x0/2: X = u - p / (3u), u = cbrt(s - q/2), s^2 =
    q^2/4 + p^3/27 (the -cbrt(s + q/2) term without its cancellation).  In
    the region 9/10 < x0 < 1, 0 <= y0 < 1/10, x0^2 + y0 < 1, s^2 > 0, so the
    root is the one real one, the nearest curve point's X, in (x0, 1); rows
    outside raise DomainError.  Vectorized."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if not np.all((0.9 < x0) & (x0 < 1.0) & (0.0 <= y0) & (y0 < 0.1)
                  & (x0 ** 2 + y0 < 1.0)):
        raise DomainError("nearest_point_cubic needs 9/10 < x0 < 1, 0 <= y0 < 1/10 "
                          "and x0^2 + y0 < 1")
    p = y0 - 0.5
    q = -0.5 * x0
    u = np.cbrt(np.sqrt(q * q / 4.0 + p ** 3 / 27.0) - q / 2.0)
    X = u - p / (3.0 * u)
    return X, 1.0 - X ** 2


# ---------------------------------------------------------------------------
# pushforward of a barrier through a proper map with enumerable fibers
# ---------------------------------------------------------------------------

@dataclass
class FiberMap:
    """A holomorphic map with a user-supplied finite fiber enumerator.

    forward: vectorized map oracle, (..., n) -> (..., n).
    fibers:  (..., n) -> (..., k, n) arrays of the k preimages of each w.
    """
    forward: callable
    fibers: callable
    name: str = ""


def pushforward_tau(F, rho, w):
    """tau(w) = max of rho over the fiber of w: the barrier on the target
    that a negative psh function on the source induces through a proper
    map, for one (n,) point (a float) or (m, n) rows (an (m,) array).
    Invariant under permutations of the fiber list."""
    w = np.asarray(w, dtype=complex)
    pts = np.asarray(F.fibers(w), dtype=complex)
    if pts.shape[-2] == 0:
        raise DomainError("empty fiber")
    vals = np.asarray(rho(pts), dtype=float)
    tau = np.max(vals, axis=-1)
    return float(tau) if w.ndim == 1 else tau


# ---------------------------------------------------------------------------
# the derivative-rate function psi
# ---------------------------------------------------------------------------

def psi_bound(M, s, alpha_star, C, y):
    """psi(y) = (C / y) * M(C * y^(s / alpha_star)).

    M is the metric growth rate (a modulus of continuity), s in (0, 1] the
    barrier exponent on the source, alpha_star > 1 the fitted boundary
    decay exponent on the target.  When M satisfies the endpoint rate
    integrability test so does the composite, making psi integrable at 0.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("psi is defined for y > 0")
    if not (0.0 < s <= 1.0):
        raise DomainError("s must lie in (0, 1]")
    if alpha_star < 1.0:
        raise DomainError("alpha_star must be >= 1")
    out = (C / y) * np.asarray(M(C * y ** (s / alpha_star)), dtype=float)
    return out if out.shape else float(out)


def make_psi(M, s, alpha_star, C):
    """Freeze constants into a single-argument psi callable."""
    def psi(y):
        return psi_bound(M, s, alpha_star, C, y)
    psi.constants = {"s": s, "alpha_star": alpha_star, "C": C,
                     "M": getattr(M, "name", "M")}
    return psi
