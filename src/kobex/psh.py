"""Plurisubharmonic-function tooling: Levi forms (analytic or finite
difference), psh verification over sampled points, boundary decay-rate
("Hopf") constant fitting, the pushforward barrier over the fibers of a
proper map, and the derivative-rate function psi used by the boundary
extension pipeline.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (DomainError, _bisect, as_point, boundary_distance_batch,
                      contains)
from .regularity import dyadic_panels


class SmoothnessError(DomainError):
    pass


@dataclass
class PshWitness:
    """A candidate negative plurisubharmonic function.

    fn: vectorized value oracle, (..., n) complex -> (...,) real.
    hess: optional complex-Hessian oracle, z (n,) -> (n, n) Hermitian matrix
          of mixed second derivatives d^2 u / dz_j dzbar_k.
    smooth: optional predicate marking where fn is twice differentiable.
    """
    fn: callable
    hess: callable = None
    smooth: callable = None
    name: str = ""

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))


def levi_form(u, z, v, step=None, use_hessian=True, cross_check=False,
              check_tol=1e-4):
    """<v, H_C u(z) v>: the complex Hessian quadratic form along v.

    Uses the analytic Hessian oracle when present, otherwise second-order
    central differences along the real directions spanned by v and iv,
    Richardson-extrapolated from steps h and h/2.  With cross_check=True
    and both routes available, they must agree to check_tol relative.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.smooth is not None and not bool(u.smooth(z)):
        raise SmoothnessError("Levi form requested at a non-smooth point")

    analytic = None
    if u.hess is not None and use_hessian:
        H = np.asarray(u.hess(z), dtype=complex)
        analytic = float(np.real(np.conj(v) @ H @ v))
        if not cross_check:
            return analytic

    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    vhat = v / nv
    h = step if step is not None else 1e-5 * (1.0 + np.linalg.norm(z))

    def quarter_laplacian(hh):
        acc = -4.0 * float(u(z))
        for d in (vhat, 1j * vhat):
            acc += float(u(z + hh * d)) + float(u(z - hh * d))
        return acc / (4.0 * hh * hh)

    crude = quarter_laplacian(h)
    fine = quarter_laplacian(h / 2.0)
    fd = (4.0 * fine - crude) / 3.0
    fd *= nv * nv
    if analytic is not None:
        scale = max(abs(analytic), abs(fd), 1e-12)
        if abs(analytic - fd) / scale > check_tol:
            raise SmoothnessError(
                "analytic and finite-difference Levi forms disagree: %g vs %g"
                % (analytic, fd))
        return analytic
    return fd


@dataclass
class PshReport:
    min_value: float
    argmin: tuple
    n_checked: int
    violations: int
    tol: float

    @property
    def passes(self):
        return self.violations == 0


def check_psh(u, D, samples, dirs_per_sample=4, tol=-1e-8, seed=0, **levi_kw):
    """Sampled plurisubharmonicity check: Levi form >= tol at every sampled
    point/direction.  Violations are counted, never raised."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    arg = None
    violations = 0
    n = 0
    for z in samples:
        z = as_point(z, D.dim)
        if not bool(contains(D, z)):
            raise DomainError("psh samples must be interior")
        if u.smooth is not None and not bool(u.smooth(z)):
            continue
        for _ in range(dirs_per_sample):
            v = rng.standard_normal(D.dim) + 1j * rng.standard_normal(D.dim)
            v /= np.linalg.norm(v)
            val = levi_form(u, z, v, **levi_kw)
            n += 1
            if val < worst:
                worst = val
                arg = (z, v)
            if val < tol:
                violations += 1
    return PshReport(min_value=worst, argmin=arg, n_checked=n,
                     violations=violations, tol=tol)


# ---------------------------------------------------------------------------
# Hopf-type decay fitting: phi(w) <= -C * delta(w)^alpha
# ---------------------------------------------------------------------------

@dataclass
class HopfFit:
    C: float
    alpha: float
    sample_count: int
    residual: float        # max of phi + C delta^alpha over the eval set

    @property
    def holds(self):
        return self.residual <= 0.0


def hopf_fit(phi, D, samples, alpha=None, eval_samples=None, min_bands=4,
             dist_method="auto"):
    """Fit the boundary decay inequality phi <= -C delta_D^alpha.

    alpha=None fits the exponent as the least-squares slope of
    log|phi| against log delta, clamped to >= 1 (cone geometry gives an
    exponent above 1; the classical twice-differentiable case pins it at
    exactly 1, which is what alpha=1.0 requests).  C is then the envelope
    infimum of |phi| / delta^alpha over the fitting samples, so the fitted
    inequality is tight with residual exactly 0 at the binding sample.

    The samples must spread over at least `min_bands` dyadic bands of
    delta_D; the residual is reported on eval_samples when given, else on
    the fitting set.
    """
    zs = np.atleast_2d(np.asarray([as_point(z, D.dim) for z in samples]))
    deltas = boundary_distance_batch(D, zs, method=dist_method)
    vals = np.asarray(phi(zs), dtype=float)
    if np.any(vals >= 0):
        raise DomainError("witness must be negative on the fitting samples")
    bands = np.unique(np.floor(-np.log2(deltas)).astype(int))
    if bands.size < min_bands:
        raise DomainError("samples span %d dyadic bands of delta; need >= %d"
                          % (bands.size, min_bands))
    if alpha is None:
        slope = np.polyfit(np.log(deltas), np.log(-vals), 1)[0]
        alpha = max(1.0, float(slope))
    C = float(np.min(-vals / deltas ** alpha))
    if eval_samples is not None:
        ez = np.atleast_2d(np.asarray([as_point(z, D.dim) for z in eval_samples]))
        ed = boundary_distance_batch(D, ez, method=dist_method)
        ev = np.asarray(phi(ez), dtype=float)
        residual = float(np.max(ev + C * ed ** alpha))
        count = len(samples) + len(eval_samples)
    else:
        residual = float(np.max(vals + C * deltas ** alpha))
        count = len(samples)
    return HopfFit(C=C, alpha=float(alpha), sample_count=count, residual=residual)


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


def lagrange_residuals(x0, y0, X, Y):
    """Stationarity residuals of the nearest-point system on the curve
    Y = 1 - X^2: the eliminated cubic and the collinearity condition.
    Both vanish at the true nearest point."""
    r1 = 2.0 * X ** 3 + (2.0 * y0 - 1.0) * X - x0
    r2 = (X - x0) - 2.0 * X * (Y - y0)
    return float(r1), float(r2)


def nearest_point_cubic(x0, y0, lo=None, hi=1.0, iters=90):
    """Root of 2X^3 + (2y0 - 1)X - x0 = 0 by bisection on [x0, 1]; valid in
    the region 9/10 < x0 < 1, 0 <= y0 < 1/10, x0^2 + y0 < 1 where the
    nearest curve point has X between x0 and 1.  Vectorized."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)

    lo = np.broadcast_to(x0 if lo is None else lo, x0.shape).astype(float)
    hi = np.broadcast_to(hi, x0.shape).astype(float)
    lo, hi = _bisect(lambda X: 2.0 * X ** 3 + (2.0 * y0 - 1.0) * X - x0 < 0,
                     lo, hi, iters)
    X = 0.5 * (lo + hi)
    return X, 1.0 - X ** 2


# ---------------------------------------------------------------------------
# pushforward of a barrier through a proper map with enumerable fibers
# ---------------------------------------------------------------------------

@dataclass
class FiberMap:
    """A holomorphic map with a user-supplied finite fiber enumerator.

    forward: vectorized map oracle, (..., n) -> (..., n).
    fibers:  w (n,) -> (k, n) array of the preimages of w.
    """
    forward: callable
    fibers: callable
    jacobian: callable = None
    name: str = ""

    def check_fiber(self, w, tol=1e-10):
        w = np.asarray(w, dtype=complex)
        pts = np.atleast_2d(self.fibers(w))
        resid = np.max(np.abs(self.forward(pts) - w[None, :]))
        return float(resid) <= tol * (1.0 + np.linalg.norm(w))


def pushforward_tau(F, rho, w):
    """tau(w) = max of rho over the fiber of w: the barrier on the target
    that a negative psh function on the source induces through a proper
    map.  Invariant under permutations of the fiber list."""
    w = np.asarray(w, dtype=complex)
    pts = np.atleast_2d(F.fibers(w))
    if pts.shape[0] == 0:
        raise DomainError("empty fiber")
    vals = np.asarray(rho.fn(pts) if isinstance(rho, PshWitness) else rho(pts),
                      dtype=float)
    return float(np.max(vals))


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


def psi_tails(psi, t, levels):
    """Tail integrals int_0^{t 2^-k} psi for k = 0, ..., levels: dyadic
    panels toward 0, with the part below the last panel extrapolated from
    the ratio of the last two (+inf when they stop decaying)."""
    c = dyadic_panels(psi, t, levels, 17)
    below = 0.0
    if c[-2] > 0 and c[-1] / c[-2] < 0.999:
        rho = c[-1] / c[-2]
        below = c[-1] * rho / (1.0 - rho)
    elif c[-1] > 1e-300:
        below = math.inf
    return np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]]) + below


def psi_tail(psi, t, levels=80):
    """int_0^t psi(x) dx; finite exactly when psi is integrable at 0."""
    if t <= 0:
        return 0.0
    return float(psi_tails(psi, t, levels)[0])
