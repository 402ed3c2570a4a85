"""Boundary extension of holomorphic maps along inward normal lines.

In chart coordinates the domain sits above its boundary graph, and the
map's vertical derivative is integrable up to the graph whenever it obeys
an integrable rate psi(Y).  Boundary values are then recovered by a
geometric ladder descending to the graph, certified by the psi tail
integral: this is the Hardy-Littlewood construction, realized here with
explicit error budgets.  The module also evaluates the paired-sequence
distance bounds whose eventual incompatibility rules out maps whose
boundary images split between two distinct points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domains import (ConvergenceError, DomainError, _row_blocks,
                      boundary_distance_batch, row_norms)
from .regularity import (GL16_W, GL16_X, ChartError, GraphChart, dyadic_panels,
                         vertical_height)


class TailBoundError(ConvergenceError):
    pass


# normal-line quadrature: 16- and 8-point Gauss-Legendre nodes on [-1, 1]
# per panel, accepted when the two rules agree within the panel tolerance
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL_NODES = np.concatenate([GL16_X, _GL8_X])
QUAD_REL_TOL = 1e-8
QUAD_ROUNDS = 24
QUAD_MAX_PANELS = 1024
LADDER_LEVELS = 70       # dyadic rate-tail panels of PsiLadder and psi_tail
LADDER_MAX_LEVELS = 60   # rungs boundary_value descends before TailBoundError
CLUSTER_RADIUS = 1e-3    # single-linkage radius of cluster_set_sample
# gamma_17 = 17u/(1 - 17u), u = eps/2, bounds the rounding of half * G16 sums
_GAMMA17 = 8.5 * np.finfo(float).eps / (1.0 - 8.5 * np.finfo(float).eps)


def _eps_vec(n):
    e = np.zeros(n, dtype=complex)
    e[-1] = 1j
    return e


@dataclass
class HolomorphicMap:
    """A map evaluated in chart coordinates, with a vertical-derivative
    oracle.  fn maps (..., n) chart points to (..., n) target values; dzn
    maps (..., n) chart points to the (..., n) analytic derivatives of
    every component with respect to the last chart coordinate.
    """
    fn: callable
    dzn: callable
    chart: GraphChart = None
    name: str = ""

    @classmethod
    def from_ambient(cls, F, chart, jacobian, name=""):
        """Wrap an ambient-coordinates map F; jacobian maps (..., n)
        ambient points to the (..., n, n) matrices dF_j / dz_k."""
        uvec = np.conj(chart.unitary)[chart.dim - 1, :]

        def fn(Z):
            return F(chart.from_chart(Z))

        def dzn(Z):
            J = np.asarray(jacobian(chart.from_chart(Z)), dtype=complex)
            return np.einsum("...jk,k->...j", J, uvec)

        return cls(fn=fn, dzn=dzn, chart=chart, name=name)

    def derivative(self, Z):
        """d/dZ_n of every component at chart points Z (..., n) -> (..., n)."""
        return np.asarray(self.dzn(np.asarray(Z, dtype=complex)), dtype=complex)


def normal_line_integral(fmap, xi, t, tprime, psi=None):
    """int_t^{t'} i * d(fmap)/dZ_n (xi + x * (0, ..., 0, i)) dx for lines xi
    (..., n), batched over the leading axes: returns ((..., n) values,
    (...) error estimates).

    Dyadic panels t' 2^-m refine toward t, where the integrand may blow up
    like an integrable rate; a panel's tolerance is QUAD_REL_TOL times
    max(|psi(lo)| (hi - lo), 1e-12), or times 1 without psi.  Each round
    evaluates the derivative on the G16 and G8 nodes of the open panels of
    all lines, in row blocks of panels (domains._row_blocks) that bound
    what one derivative call holds: a panel adds G16 to its line's value,
    and |G16 - G8| plus the rounding bound gamma_17 half sum_k w_k |f_k| to
    its line's error, once they agree within its tolerance, else it is
    bisected with half the tolerance each.  After QUAD_ROUNDS rounds, or
    beyond QUAD_MAX_PANELS open panels on one line, ConvergenceError.
    """
    xi = np.asarray(xi, dtype=complex)
    if not (0.0 < t < tprime):
        raise DomainError("need 0 < t < t'")
    lead, n = xi.shape[:-1], xi.shape[-1]
    xi = xi.reshape(-1, n)
    ev = _eps_vec(n)
    if fmap.chart is not None:
        ends = np.array([t, 0.5 * (t + tprime), tprime])
        if np.any(vertical_height(fmap.chart,
                                  xi[:, None] + ends[:, None] * ev) <= 0):
            raise DomainError("vertical segment exits the domain")

    # panel breakpoints: t' * 2^-m clipped at t
    bps = [tprime]
    while bps[-1] * 0.5 > t:
        bps.append(bps[-1] * 0.5)
    bps.append(t)
    hi, lo = np.array(bps[:-1]), np.array(bps[1:])
    scale = np.abs(psi(lo)) * (hi - lo) if psi is not None else np.ones_like(lo)
    tol = QUAD_REL_TOL * np.maximum(scale, 1e-12)
    line = np.repeat(np.arange(len(xi)), lo.size)
    lo, hi, tol = (np.tile(a, len(xi)) for a in (lo, hi, tol))
    total = np.zeros(xi.shape, dtype=complex)
    err = np.zeros(len(xi))
    # numbers per panel in a derivative call: n-by-n Jacobians
    width = _GL_NODES.size * n * n
    for rounds in range(1, QUAD_ROUNDS + 1):
        half = 0.5 * (hi - lo)
        mid = lo + half
        parts = []
        for c in _row_blocks(lo.size, width):
            x = mid[c, None] + half[c, None] * _GL_NODES
            d = 1j * fmap.derivative(xi[line[c], None] + x[..., None] * ev)
            parts.append((
                half[c, None] * np.einsum("k,pkn->pn", GL16_W, d[:, :16]),
                half[c, None] * np.einsum("k,pkn->pn", _GL8_W, d[:, 16:]),
                np.max(np.einsum("k,pkn->pn", GL16_W, np.abs(d[:, :16])), axis=-1)))
        g16, g8, g16abs = (np.concatenate(a) for a in zip(*parts))
        diff = np.max(np.abs(g16 - g8), axis=-1)
        done = diff <= tol
        accepted = np.zeros(xi.shape, dtype=complex)
        np.add.at(accepted, line[done], g16[done])
        total += accepted
        rounding = _GAMMA17 * half[done] * g16abs[done]
        err += np.bincount(line[done], weights=diff[done] + rounding,
                           minlength=len(xi))
        if done.all():
            return total.reshape(lead + (n,)), err.reshape(lead)[()]
        split = ~done
        line = np.tile(line[split], 2)
        lo = np.concatenate([lo[split], mid[split]])
        hi = np.concatenate([mid[split], hi[split]])
        tol = np.tile(0.5 * tol[split], 2)
        if np.bincount(line).max() > QUAD_MAX_PANELS:
            break
    raise ConvergenceError("normal-line quadrature left %d panels open after "
                           "%d rounds" % (lo.size, rounds))


@dataclass
class ExtensionResult:
    """Recovered boundary values with their error budget.

    xi (..., n) are the boundary points and value (..., n) approximates
    the boundary limit at each; quadrature_error (...) is each line's
    telescoping residual.  All points share one ladder: t_used is the rung
    the values were taken at, with err_budget = int_0^{t_used} psi < tol
    bounding the remaining gap, and tail_bound = int_0^{t_prime} psi
    dominates |value_j - fmap_j(xi + t_prime * eps)| for every component.
    """
    xi: np.ndarray
    value: np.ndarray
    t_prime: float
    t_used: float
    tail_bound: float
    err_budget: float
    quadrature_error: np.ndarray
    levels: int


class PsiLadder:
    """Rate tails int_0^{t' 2^-k} psi for k = 0, ..., LADDER_LEVELS: dyadic
    panels toward 0, the part below the last one extrapolated from the ratio
    of the last two (+inf when they stop decaying)."""

    def __init__(self, psi, tprime):
        self.tprime = float(tprime)
        c = dyadic_panels(psi, tprime, LADDER_LEVELS, 17)
        below = 0.0
        if c[-2] > 0 and c[-1] / c[-2] < 0.999:
            rho = c[-1] / c[-2]
            below = c[-1] * rho / (1.0 - rho)
        elif c[-1] > 1e-300:
            below = math.inf
        self.tails = np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]]) + below

    def rung(self, k):
        return self.tprime * 2.0 ** (-k)

    def tail(self, k):
        return float(self.tails[min(k, LADDER_LEVELS)])


def psi_tail(psi, t):
    """int_0^t psi, the top of the ladder: finite iff psi is integrable at 0."""
    return PsiLadder(psi, t).tail(0) if t > 0 else 0.0


def _ladder_values(fmap, xis, tprime, tol, psi):
    """ExtensionResult of the points xis (..., n), all on one ladder rung."""
    ladder = PsiLadder(psi, tprime)
    below = np.flatnonzero(ladder.tails[:LADDER_MAX_LEVELS + 1] < tol)
    if below.size == 0:
        raise TailBoundError("rate tail stayed above tol for %d ladder levels"
                             % LADDER_MAX_LEVELS)
    kstar = int(below[0])
    t_used = ladder.rung(kstar)
    ev = _eps_vec(xis.shape[-1])
    values = np.asarray(fmap.fn(xis + t_used * ev), dtype=complex)
    quad_err = np.zeros(xis.shape[:-1])[()]
    if kstar > 0:
        integral, ierr = normal_line_integral(fmap, xis, t_used, tprime, psi=psi)
        top = np.asarray(fmap.fn(xis + tprime * ev), dtype=complex)
        quad_err = np.max(np.abs(top - integral - values), axis=-1) + ierr
    return ExtensionResult(xi=xis, value=values, t_prime=float(tprime),
                           t_used=float(t_used), tail_bound=ladder.tail(0),
                           err_budget=ladder.tail(kstar),
                           quadrature_error=quad_err, levels=kstar)


def boundary_value(fmap, xi, tprime, tol, psi):
    """Boundary value of the map at a chart boundary point xi (n,): the
    one-point case of extend_map, without its grid-margin check.

    Descends the geometric ladder t_k = t' 2^-k, at most LADDER_MAX_LEVELS
    rungs, until the rate tail int_0^{t_k} psi falls below tol, and reports
    the map's value at that rung.  The vertical-line integral certifies the
    telescoping identity between the top of the ladder and the rung used
    (quadrature_error).  The result does not depend on t' beyond 2 tol.
    """
    return _ladder_values(fmap, np.asarray(xi, dtype=complex), tprime, tol, psi)


def grid_safety_margin(chart, grid_points):
    """Half the clearance from the grid's hull to the chart box edge."""
    Z = np.atleast_2d(np.asarray(grid_points, dtype=complex))
    zp = np.linalg.norm(Z[:, :-1], axis=-1)
    xx = np.abs(Z[:, -1].real)
    clearance = chart.radius - np.maximum(zp, xx).max()
    if clearance <= 0:
        raise ChartError("grid reaches the chart box edge")
    return 0.5 * float(clearance)


def extend_map(fmap, chart, grid_points, tprime, tol, psi):
    """Boundary values on a grid of chart boundary points, under one tolerance.

    t' stays within grid_safety_margin.  One ladder gives every point the
    same rung, so the whole grid takes one batched boundary_value pass.
    Returns one ExtensionResult whose xi, value and quadrature_error have
    one row per grid point, in grid order.
    """
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=complex))
    margin = grid_safety_margin(chart, grid_points)
    if tprime > margin * (1 + 1e-12):
        raise ChartError("t' = %g exceeds the grid safety margin %g"
                         % (tprime, margin))
    return _ladder_values(fmap, grid_points, tprime, tol, psi)


@dataclass
class ContinuityReport:
    radii: np.ndarray
    empirical: np.ndarray
    certified: np.ndarray


def continuity_modulus(xi, vals, fmap, ladder):
    """Empirical modulus of the recovered boundary values vals (m, n) at
    the points xi (m, n) against the three-term certificate: two rate tails
    plus the oscillation of the map on the lifted slice at each candidate
    lift height, every fourth ladder rung, all in one fmap.fn call."""
    if len(xi) < 2:
        raise DomainError("need at least two grid points")
    iu = np.triu_indices(len(xi), k=1)
    d = np.linalg.norm(xi[iu[0]] - xi[iu[1]], axis=-1)
    dev = np.max(np.abs(vals[iu[0]] - vals[iu[1]]), axis=-1)
    radii = np.quantile(d, np.linspace(0.15, 1.0, 8))
    # every radius is at least the smallest pair distance, so each row of
    # within selects a pair, and a 0 fill never exceeds a nonnegative max
    within = d <= radii[:, None]
    empirical = np.max(np.where(within, dev, 0.0), axis=-1)
    ks = np.arange(0, LADDER_LEVELS, 4)
    lifted = np.asarray(fmap.fn(xi + ladder.rung(ks)[:, None, None]
                                * _eps_vec(xi.shape[-1])), dtype=complex)
    osc = np.max(np.abs(lifted[:, iu[0]] - lifted[:, iu[1]]), axis=-1)
    worst = np.max(np.where(within, osc[:, None], 0.0), axis=-1)
    certified = np.min(2.0 * ladder.tails[ks, None] + worst, axis=0)
    return ContinuityReport(radii=radii, empirical=empirical, certified=certified)


def cluster_set_sample(F, p, sequences):
    """Representatives of the accumulation set of F along sequences that
    end within 1e-2 of p: single-linkage clustering of the per-sequence
    image limits at linkage radius CLUSTER_RADIUS, in order of each
    cluster's first sequence; a map continuous at p yields one cluster."""
    ends = np.array([np.atleast_2d(np.asarray(seq, dtype=complex))[-1]
                     for seq in sequences])
    if np.any(row_norms(ends - np.asarray(p, dtype=complex)) > 1e-2):
        raise DomainError("sequence does not approach the base point")
    limits = np.asarray(F(ends), dtype=complex)
    # transitive closure of the link matrix by repeated squaring
    linked = row_norms(limits[:, None] - limits[None]) <= CLUSTER_RADIUS
    while True:
        closed = linked @ linked
        if np.array_equal(closed, linked):
            break
        linked = closed
    first = np.unique(np.argmax(linked, axis=1))
    return [np.mean(limits[linked[i]], axis=0) for i in first]


# ---------------------------------------------------------------------------
# paired-sequence dichotomy
# ---------------------------------------------------------------------------

@dataclass
class DichotomySequences:
    """Paired sequences in the source domain with their image sequences,
    and the three bridge constants: C (source distance upper bound),
    K (target pair lower bound), C0 (barrier comparison)."""
    z1: np.ndarray
    z2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    C: float
    K: float
    C0: float
    q: np.ndarray
    xi: np.ndarray
    sep_radius: float

    def __post_init__(self):
        for name in ("z1", "z2", "w1", "w2"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name),
                                                         dtype=complex)))
        if not (len(self.z1) == len(self.z2) == len(self.w1) == len(self.w2)):
            raise DomainError("sequences must have equal length")
        if self.C0 <= 0:
            raise DomainError("C0 must be positive")

    def domain_cauchy_ok(self):
        """Both source sequences converge to one boundary point: their
        mutual separation and their tail increments all go to 0."""
        sep = np.linalg.norm(self.z1 - self.z2, axis=-1)
        inc1 = np.linalg.norm(np.diff(self.z1, axis=0), axis=-1)
        inc2 = np.linalg.norm(np.diff(self.z2, axis=0), axis=-1)
        return bool(sep[-1] < 1e-6
                    or (sep[-1] < 0.01 * sep[0]
                        and inc1[-1] < 0.01 * inc1[0]
                        and inc2[-1] < 0.01 * inc2[0]))


@dataclass
class DichotomyReport:
    """Per-index columns of dichotomy_report, each (N,), read as rep[name]:
    nu, dD1, dD2, sepD, dO1, dO2, U, L, l, bridge_slack, margin,
    applicable and consistent."""
    columns: dict

    def __getitem__(self, name):
        return self.columns[name]

    @property
    def first_failure(self):
        failed = np.flatnonzero(self["applicable"] & ~self["consistent"])
        return int(failed[0]) if failed.size else None

    def table(self):
        hdr = ("nu", "dD1", "dD2", "sepD", "dO1", "dO2", "U", "L", "l",
               "margin", "ok")
        row = "  ".join(["%8d"] + ["%8.2e"] * 5 + ["%8.3f"] * 4 + ["%8s"])
        ok = np.where(self["consistent"], "yes",
                      np.where(self["applicable"], "NO", "n/a"))
        cols = [self[h] for h in hdr[:-1]] + [ok]
        return "\n".join(["  ".join("%8s" % h for h in hdr)]
                         + [row % r for r in zip(*(c.tolist() for c in cols))])


def dichotomy_report(seqs, D, Omega):
    """Per-index evaluation of the paired-sequence distance bounds.

    For each index nu the report evaluates the source-side upper value
    U_nu (distance-sum formula with the separation correction plus C), the
    target-side pair lower value L_nu (half-log sum minus K), the diverging
    quantity l(nu), the barrier-comparison slack, and the consistency
    margin (K + C - log C0) - l(nu).  When the image sequences approach two
    distinct boundary points, l(nu) grows without bound and the margin must
    eventually fail: no map with the assumed bounds can produce such
    sequences.  The margin applies only while both images sit inside the
    declared disjoint neighborhoods of q and xi.
    """
    dD1, dD2 = (boundary_distance_batch(D, zs) for zs in (seqs.z1, seqs.z2))
    dO1, dO2 = (boundary_distance_batch(Omega, ws) for ws in (seqs.w1, seqs.w2))
    sepD = np.linalg.norm(seqs.z1 - seqs.z2, axis=-1)
    C, K, C0 = seqs.C, seqs.K, seqs.C0
    U = (0.5 * np.log(1.0 / dD1) + 0.5 * np.log(1.0 / dD2)
         - 0.5 * np.log(1.0 / (dD1 + sepD))
         - 0.5 * np.log(1.0 / (dD2 + sepD)) + C)
    L = 0.5 * np.log(1.0 / dO1) + 0.5 * np.log(1.0 / dO2) - K
    l = (0.5 * np.log(1.0 / (dD1 + sepD))
         + 0.5 * np.log(1.0 / (dD2 + sepD)))
    bridge = (0.5 * np.log(dD1 / (C0 * dO1))
              + 0.5 * np.log(dD2 / (C0 * dO2)))
    margin = (K + C - math.log(C0)) - l
    # the pair bound needs disjoint closed neighborhoods of q and xi
    disjoint = np.linalg.norm(seqs.q - seqs.xi) > 2.0 * seqs.sep_radius
    applicable = (disjoint
                  & (row_norms(seqs.w1 - seqs.q) < seqs.sep_radius)
                  & (row_norms(seqs.w2 - seqs.xi) < seqs.sep_radius))
    return DichotomyReport(columns={
        "nu": np.arange(len(dD1)), "dD1": dD1, "dD2": dD2, "sepD": sepD,
        "dO1": dO1, "dO2": dO2, "U": U, "L": L, "l": l,
        "bridge_slack": bridge, "margin": margin, "applicable": applicable,
        "consistent": ~applicable | (margin >= 0.0)})
