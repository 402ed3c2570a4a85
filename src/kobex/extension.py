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
from dataclasses import dataclass, field

import numpy as np

from .domains import ConvergenceError, DomainError, boundary_distance_batch
from .psh import psi_tails
from .regularity import ChartError, GraphChart


class TailBoundError(ConvergenceError):
    pass


def _eps_vec(n):
    e = np.zeros(n, dtype=complex)
    e[-1] = 1j
    return e


@dataclass
class HolomorphicMap:
    """A map evaluated in chart coordinates, with a vertical-derivative
    oracle.  fn maps (..., n) chart points to (..., n) target values;
    dzn, when present, is the analytic derivative of every component with
    respect to the last chart coordinate.  Without dzn, derivatives are
    taken by discrete Cauchy circles of radius min(1e-3, Y/2), which stay
    interior near the boundary where difference quotients would not.
    """
    fn: callable
    dzn: callable = None
    chart: GraphChart = None
    cauchy_nodes: int = 32
    name: str = ""

    @classmethod
    def from_ambient(cls, F, chart, jacobian=None, name=""):
        """Wrap an ambient-coordinates map F; jacobian (optional) maps an
        ambient point to the (n, n) matrix dF_j / dz_k."""
        def fn(Z):
            return F(chart.from_chart(Z))

        dzn = None
        if jacobian is not None:
            uvec = np.conj(chart.unitary)[chart.dim - 1, :]

            def dzn(Z):
                amb = chart.from_chart(Z)
                J = np.asarray(jacobian(amb), dtype=complex)
                return J @ uvec

        return cls(fn=fn, dzn=dzn, chart=chart, name=name)

    def derivative(self, Z, radius=None):
        """d/dZ_n of every component at a single chart point."""
        Z = np.asarray(Z, dtype=complex)
        if self.dzn is not None:
            return np.asarray(self.dzn(Z), dtype=complex)
        if radius is None:
            radius = 1e-3
            if self.chart is not None:
                from .regularity import vertical_height
                y = vertical_height(self.chart, Z)
                if y <= 0:
                    raise ChartError("Cauchy-circle derivative needs an interior point")
                radius = min(1e-3, 0.5 * y)
        k = np.arange(self.cauchy_nodes)
        phase = np.exp(2j * math.pi * k / self.cauchy_nodes)
        pts = Z[None, :].repeat(self.cauchy_nodes, axis=0)
        pts[:, -1] = Z[-1] + radius * phase
        vals = np.asarray(self.fn(pts), dtype=complex)
        return (vals * np.conj(phase)[:, None]).sum(axis=0) / (self.cauchy_nodes * radius)


def _adaptive_simpson(g, a, b, tol, max_depth=24):
    """Adaptive Simpson for a vector-valued integrand; returns (value, err)."""
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, S, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        Sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        Sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = np.max(np.abs(Sl + Sr - S))
        if err < 15.0 * tol or depth >= max_depth:
            return Sl + Sr + (Sl + Sr - S) / 15.0, err / 15.0
        vl, el = rec(a, m, fa, flm, fm, Sl, tol / 2.0, depth + 1)
        vr, er = rec(m, b, fm, frm, fb, Sr, tol / 2.0, depth + 1)
        return vl + vr, el + er

    return rec(a, b, fa, fm, fb, S, tol, 0)


def normal_line_integral(fmap, xi, t, tprime, rel_tol=1e-8, psi=None):
    """int_t^{t'} i * d(fmap)/dZ_n (xi + x * (0, ..., 0, i)) dx.

    Dyadic panels refine toward t, where the integrand may blow up like an
    integrable rate; per-panel tolerance is proportional to panel length
    times the local rate bound when psi is supplied.  Returns
    (value (n,), error_estimate).
    """
    xi = np.asarray(xi, dtype=complex)
    if not (0.0 < t < tprime):
        raise DomainError("need 0 < t < t'")
    if fmap.chart is not None:
        from .regularity import vertical_height
        for x in (t, 0.5 * (t + tprime), tprime):
            if vertical_height(fmap.chart, xi + x * _eps_vec(xi.size)) <= 0:
                raise DomainError("vertical segment exits the domain")

    ev = _eps_vec(xi.size)

    def g(x):
        return 1j * fmap.derivative(xi + x * ev)

    # panel breakpoints: t' * 2^-m clipped at t
    bps = [tprime]
    while bps[-1] * 0.5 > t:
        bps.append(bps[-1] * 0.5)
    bps.append(t)
    total = np.zeros(xi.size, dtype=complex)
    err = 0.0
    for hi, lo in zip(bps[:-1], bps[1:]):
        scale = abs(psi(lo)) * (hi - lo) if psi is not None else 1.0
        tol = rel_tol * max(scale, 1e-12)
        v, e = _adaptive_simpson(g, lo, hi, tol)
        total += v
        err += e
    return total, err


@dataclass
class ExtensionResult:
    """A recovered boundary value with its error budget.

    value approximates the boundary limit; t_used is the ladder rung the
    value was taken at, with err_budget = int_0^{t_used} psi < tol bounding
    the remaining gap.  tail_bound = int_0^{t_prime} psi dominates
    |value_j - fmap_j(xi + t_prime * eps)| for every component.
    """
    xi: np.ndarray
    value: np.ndarray
    t_prime: float
    t_used: float
    tail_bound: float
    err_budget: float
    quadrature_error: float
    levels: int


class PsiLadder:
    """Cached tail integrals of psi at the geometric rungs t' 2^-k."""

    def __init__(self, psi, tprime, levels=70):
        self.psi = psi
        self.tprime = float(tprime)
        self.levels = levels
        # tails[k] = int_0^{t' 2^-k} psi
        self.tails = psi_tails(psi, tprime, levels)

    def rung(self, k):
        return self.tprime * 2.0 ** (-k)

    def tail(self, k):
        return float(self.tails[min(k, self.levels)])


def boundary_value(fmap, xi, tprime, tol, psi=None, ladder=None,
                   max_levels=60, consistency=True):
    """Boundary value of the map at a chart boundary point xi.

    Descends the geometric ladder t_k = t' 2^-k until the rate tail
    int_0^{t_k} psi falls below tol, and reports the map's value at that
    rung.  The vertical-line integral certifies the telescoping identity
    between the top of the ladder and the rung used (quadrature_error).
    The result does not depend on t' beyond 2 tol.
    """
    xi = np.asarray(xi, dtype=complex)
    if ladder is None:
        if psi is None:
            raise DomainError("need either psi or a prebuilt ladder")
        ladder = PsiLadder(psi, tprime)
    ev = _eps_vec(xi.size)
    kstar = None
    for k in range(max_levels + 1):
        if ladder.tail(k) < tol:
            kstar = k
            break
    if kstar is None:
        raise TailBoundError("rate tail stayed above tol for %d ladder levels"
                             % max_levels)
    t_used = ladder.rung(kstar)
    value = np.asarray(fmap.fn(xi + t_used * ev), dtype=complex)
    quad_err = 0.0
    if consistency and kstar > 0:
        integral, ierr = normal_line_integral(fmap, xi, t_used, tprime,
                                              psi=ladder.psi)
        top = np.asarray(fmap.fn(xi + tprime * ev), dtype=complex)
        resid = float(np.max(np.abs(top - integral - value)))
        quad_err = resid + ierr
    return ExtensionResult(xi=xi, value=value, t_prime=float(tprime),
                           t_used=float(t_used), tail_bound=ladder.tail(0),
                           err_budget=ladder.tail(kstar),
                           quadrature_error=quad_err, levels=kstar)


def grid_safety_margin(chart, grid_points):
    """Half the clearance from the grid's hull to the chart box edge."""
    Z = np.atleast_2d(np.asarray(grid_points, dtype=complex))
    zp = np.linalg.norm(Z[:, :-1], axis=-1)
    xx = np.abs(Z[:, -1].real)
    clearance = chart.radius - np.maximum(zp, xx).max()
    if clearance <= 0:
        raise ChartError("grid reaches the chart box edge")
    return 0.5 * float(clearance)


def extend_map(fmap, chart, grid_points, tprime=None, tol=1e-7, psi=None,
               consistency=True, max_levels=60):
    """Boundary values on a grid of chart boundary points, under a single
    tolerance; interior evaluation passes through the map unchanged.

    Returns the list of ExtensionResult in grid order.
    """
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=complex))
    margin = grid_safety_margin(chart, grid_points)
    if tprime is None:
        tprime = margin
    if tprime > margin * (1 + 1e-12):
        raise ChartError("t' = %g exceeds the grid safety margin %g"
                         % (tprime, margin))
    if psi is None:
        raise DomainError("extension needs the derivative rate psi")
    ladder = PsiLadder(psi, tprime)
    out = []
    for xi in grid_points:
        out.append(boundary_value(fmap, xi, tprime, tol, ladder=ladder,
                                  max_levels=max_levels, consistency=consistency))
    return out


def evaluate_extension(fmap, results, Z):
    """The extended map: boundary grid points take their recovered values,
    interior points evaluate through the map directly."""
    Z = np.asarray(Z, dtype=complex)
    for res in results:
        if np.allclose(res.xi, Z, rtol=0, atol=1e-14):
            return res.value
    return np.asarray(fmap.fn(Z), dtype=complex)


@dataclass
class ContinuityReport:
    radii: np.ndarray
    empirical: np.ndarray
    certified: np.ndarray

    @property
    def decays(self):
        return self.empirical[0] <= self.empirical[-1] + 1e-15


def continuity_modulus(results, fmap, ladder, n_bins=8):
    """Empirical modulus of the recovered boundary values against the
    three-term certificate: two rate tails plus the oscillation of the
    map on the lifted slice at each candidate lift height."""
    if len(results) < 2:
        raise DomainError("need at least two grid points")
    xi = np.array([r.xi for r in results])
    vals = np.array([r.value for r in results])
    n = xi.shape[0]
    ev = _eps_vec(xi.shape[1])
    iu = np.triu_indices(n, k=1)
    d = np.linalg.norm(xi[iu[0]] - xi[iu[1]], axis=-1)
    dev = np.max(np.abs(vals[iu[0]] - vals[iu[1]]), axis=-1)
    radii = np.quantile(d, np.linspace(0.15, 1.0, n_bins))
    empirical = np.array([dev[d <= r].max() if np.any(d <= r) else 0.0
                          for r in radii])
    # certificate: minimize over lift heights on the ladder
    certified = np.full(n_bins, math.inf)
    for k in range(0, ladder.levels, 4):
        t = ladder.rung(k)
        lifted = np.asarray(fmap.fn(xi + t * ev[None, :]), dtype=complex)
        osc = np.max(np.abs(lifted[iu[0]] - lifted[iu[1]]), axis=-1)
        for i, r in enumerate(radii):
            sel = d <= r
            if np.any(sel):
                bound = 2.0 * ladder.tail(k) + float(osc[sel].max())
                certified[i] = min(certified[i], bound)
    return ContinuityReport(radii=radii, empirical=empirical, certified=certified)


def project_to_boundary(chart, Z):
    """pi(Z) = (Z', Re Z_n + i phi(Z', Re Z_n)): vertical projection onto
    the chart boundary graph; idempotent."""
    Z = np.asarray(Z, dtype=complex)
    if not np.all(chart.in_box(Z, slack=1e-12)):
        raise ChartError("point outside the chart box")
    vals = np.atleast_1d(chart.phi(chart.base_coords(Z)))
    out = Z.copy()
    out[..., -1] = Z[..., -1].real + 1j * vals.reshape(Z[..., -1].shape)
    return out


def cluster_set_sample(F, p, sequences, radius=1e-3, approach_tol=1e-2):
    """Representatives of the accumulation set of F along sequences that
    approach p: single-linkage clustering of the per-sequence image limits
    at the given linkage radius; a map continuous at p yields one cluster."""
    p = np.asarray(p, dtype=complex)
    limits = []
    for seq in sequences:
        seq = np.atleast_2d(np.asarray(seq, dtype=complex))
        if np.linalg.norm(seq[-1] - p) > approach_tol:
            raise DomainError("sequence does not approach the base point")
        img = np.asarray(F(seq[-2:]), dtype=complex)
        limits.append(img[-1])
    limits = np.array(limits)
    m = len(limits)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(limits[i] - limits[j]) <= radius:
                parent[find(i)] = find(j)
    reps = {}
    for i in range(m):
        reps.setdefault(find(i), []).append(limits[i])
    return [np.mean(np.array(v), axis=0) for v in reps.values()]


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
    q: np.ndarray = None
    xi: np.ndarray = None
    sep_radius: float = None

    def __post_init__(self):
        for name in ("z1", "z2", "w1", "w2"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name),
                                                         dtype=complex)))
        if not (len(self.z1) == len(self.z2) == len(self.w1) == len(self.w2)):
            raise DomainError("sequences must have equal length")
        if self.C0 <= 0:
            raise DomainError("C0 must be positive")

    def domain_cauchy_ok(self, tol=1e-6):
        """Both source sequences converge to one boundary point: their
        mutual separation and their tail increments all go to 0."""
        sep = np.linalg.norm(self.z1 - self.z2, axis=-1)
        inc1 = np.linalg.norm(np.diff(self.z1, axis=0), axis=-1)
        inc2 = np.linalg.norm(np.diff(self.z2, axis=0), axis=-1)
        return bool(sep[-1] < max(tol, 1e3 * np.finfo(float).eps)
                    or (sep[-1] < 0.01 * sep[0]
                        and inc1[-1] < 0.01 * inc1[0]
                        and inc2[-1] < 0.01 * inc2[0]))


@dataclass
class DichotomyReport:
    rows: list
    constants: dict

    @property
    def l_values(self):
        return np.array([r["l"] for r in self.rows])

    @property
    def l_monotone(self):
        l = self.l_values
        return bool(np.all(np.diff(l) >= -1e-12))

    @property
    def first_failure(self):
        for r in self.rows:
            if r["applicable"] and not r["consistent"]:
                return r["nu"]
        return None

    def table(self):
        hdr = ("nu", "dD1", "dD2", "sepD", "dO1", "dO2", "U", "L", "l",
               "margin", "ok")
        lines = ["  ".join("%8s" % h for h in hdr)]
        for r in self.rows:
            lines.append("  ".join([
                "%8d" % r["nu"],
                "%8.2e" % r["dD1"], "%8.2e" % r["dD2"], "%8.2e" % r["sepD"],
                "%8.2e" % r["dO1"], "%8.2e" % r["dO2"],
                "%8.3f" % r["U"], "%8.3f" % r["L"], "%8.3f" % r["l"],
                "%8.3f" % r["margin"],
                "%8s" % ("yes" if r["consistent"] else ("NO" if r["applicable"] else "n/a")),
            ]))
        return "\n".join(lines)


def dichotomy_report(seqs, D=None, Omega=None, delta_D=None, delta_Omega=None):
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
    dD = delta_D if delta_D is not None else (lambda zs: boundary_distance_batch(D, zs))
    dO = delta_Omega if delta_Omega is not None else (lambda ws: boundary_distance_batch(Omega, ws))
    dD1 = np.asarray(dD(seqs.z1), dtype=float)
    dD2 = np.asarray(dD(seqs.z2), dtype=float)
    dO1 = np.asarray(dO(seqs.w1), dtype=float)
    dO2 = np.asarray(dO(seqs.w2), dtype=float)
    sepD = np.linalg.norm(seqs.z1 - seqs.z2, axis=-1)
    sepO = np.linalg.norm(seqs.w1 - seqs.w2, axis=-1)
    C, K, C0 = seqs.C, seqs.K, seqs.C0
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
        if seqs.q is not None and seqs.xi is not None and seqs.sep_radius:
            # the pair bound needs disjoint closed neighborhoods of q and xi
            disjoint = np.linalg.norm(seqs.q - seqs.xi) > 2.0 * seqs.sep_radius
            applicable = (disjoint
                          and np.linalg.norm(seqs.w1[nu] - seqs.q) < seqs.sep_radius
                          and np.linalg.norm(seqs.w2[nu] - seqs.xi) < seqs.sep_radius)
        else:
            applicable = True
        rows.append({
            "nu": nu, "dD1": float(dD1[nu]), "dD2": float(dD2[nu]),
            "sepD": float(sepD[nu]), "dO1": float(dO1[nu]), "dO2": float(dO2[nu]),
            "sepO": float(sepO[nu]), "U": U, "L": L, "l": l,
            "bridge_slack": bridge, "margin": margin,
            "applicable": bool(applicable),
            "consistent": bool(margin >= 0.0) if applicable else True,
        })
    return DichotomyReport(rows=rows, constants={"C": C, "K": K, "C0": C0})
