"""One-sided estimates for the invariant (Kobayashi-type) metric and
distance, plus closed-form ball oracles for sandwich testing.

Every estimate is returned as a MetricBound carrying its side (lower /
upper), the method tag, and the evaluation point, so reports can be
recomputed from recorded numbers alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (DomainError, _boundary, _interior_rows, _zoom_min, as_point,
                      boundary_distance, contains, directional_distance,
                      hermitian_inner, row_norms)

METHODS = ("graham_lower", "graham_upper", "sibony", "inscribed_ball")


@dataclass
class MetricBound:
    value: float
    side: str                 # "lower" | "upper"
    method: str
    at: tuple = None
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")
        if self.method not in METHODS:
            raise ValueError("unknown method tag %r" % self.method)
        if self.value < 0:
            raise ValueError("metric bounds are nonnegative")
        if math.isnan(self.value):
            raise DomainError("metric bound is NaN")
        if self.side == "lower" and math.isinf(self.value):
            raise DomainError("a lower metric bound must be finite")


def kob_metric_ball_exact(z, v):
    """Invariant metric of the unit ball B^n, normalized k(0; v) = |v|:
    sqrt((1 - |z|^2) |v|^2 + |<v, z>|^2) / (1 - |z|^2)."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nz2 = np.sum(np.abs(z) ** 2, axis=-1)
    if np.any(nz2 >= 1.0):
        raise DomainError("point outside the ball")
    nv2 = np.sum(np.abs(v) ** 2, axis=-1)
    ip = np.abs(hermitian_inner(v, z)) ** 2
    return np.sqrt((1.0 - nz2) * nv2 + ip) / (1.0 - nz2)


def kob_distance_ball_exact(z1, z2):
    """Invariant distance of the unit ball, arctanh of the Mobius invariant.
    Both points must lie in the open ball."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    n1, n2 = np.sum(np.abs(z1) ** 2), np.sum(np.abs(z2) ** 2)
    if not (n1 < 1.0 and n2 < 1.0):
        raise DomainError("point outside the ball")
    num = (1.0 - n1) * (1.0 - n2)
    den = np.abs(1.0 - hermitian_inner(z1, z2)) ** 2
    rho = math.sqrt(max(0.0, 1.0 - float(num / den)))
    return float(np.arctanh(min(rho, 1.0 - 1e-16)))


def graham_bounds(D, z, v):
    """Convex-domain sandwich |v|/(2 delta(z;v)) <= k(z;v) <= |v|/delta(z;v)."""
    if not D.is_convex:
        raise DomainError("directional-distance sandwich requires a convex domain")
    z = as_point(z, D.dim)
    v = as_point(v, D.dim)
    d = directional_distance(D, z, v)
    nv = np.linalg.norm(v)
    lower = MetricBound(nv / (2.0 * d), "lower", "graham_lower", at=(z, v),
                        constants={"delta_dir": d})
    upper = MetricBound(nv / d, "upper", "graham_upper", at=(z, v),
                        constants={"delta_dir": d})
    return lower, upper


def sibony_lower_bound(u, z, v, c, alpha=4.0):
    """sqrt(c/alpha) |v| / |u(z)|^(1/2) for a negative psh u whose complex
    Hessian dominates c * identity near z.  The caller certifies the Hessian
    bound (see kobex.psh.levi_form); alpha is the configured uniform
    constant and is recorded on the bound.
    """
    z = np.asarray(z, dtype=complex)
    uz = float(u(z))
    if uz >= 0.0:
        raise DomainError("witness must be negative at z")
    if c <= 0 or alpha <= 0:
        raise DomainError("c and alpha must be positive")
    nv = np.linalg.norm(np.asarray(v, dtype=complex))
    val = math.sqrt(c / alpha) * nv / math.sqrt(abs(uz))
    return MetricBound(val, "lower", "sibony", at=(z, np.asarray(v, dtype=complex)),
                       constants={"c": c, "alpha": alpha, "u(z)": uz})


def inscribed_ball_upper_bound(D, z, v):
    """|v| / delta_D(z): the inclusion of the inscribed ball is
    distance-decreasing, so the ball's metric dominates the domain's."""
    zs = _interior_rows(D, as_point(z, D.dim))
    z = zs[0]
    v = as_point(v, D.dim)
    if not np.all(np.isfinite(v)):
        raise DomainError("direction must be finite")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return MetricBound(0.0, "upper", "inscribed_ball", at=(z, v))
    d = float(_boundary(D, zs, "auto")[0])
    return MetricBound(nv / d, "upper", "inscribed_ball", at=(z, v),
                       constants={"delta": d})


# ---------------------------------------------------------------------------
# path-integration upper estimator for the invariant distance
# ---------------------------------------------------------------------------

PATH_SEGMENTS = 128


def path_distance_upper_batch(D, z1s, z2s):
    """Upper estimates of the invariant distance between paired (m, n) rows
    z1s[k], z2s[k]: (m,) bounds on the integral of the inscribed ball bound
    |gamma'| / delta_D(gamma) along polygonal paths of PATH_SEGMENTS pieces.
    delta is 1-Lipschitz, so a segment of length h with delta(mid) = d
    costs at most 2 log(d / (d - h/2)) = -2 log1p(-h / (2d)), and lies in
    the ball B(mid, d) inside D, when h/2 < d; otherwise it costs +inf.  A
    finite total thus proves the polygon lies in D, and bounds its integral
    from above wherever delta(mid) is exact: the closed-form dist_fn of
    ball2, polydisc and ex21_omega.  Where delta is searched (which can
    overshoot) the total is an estimate.

    A path is shortened toward the anchor D.interior_point (its chord's
    midpoint when D has none): first by the best bump of the whole path,
    one _zoom_min over the m rows, then by one red-black descent that moves
    all odd interior nodes of every path along their anchor directions in
    one _zoom_min search over (path, node) rows, then all even ones.  A
    node's cost involves only its two neighbours, which the other parity
    holds fixed, and a node moves only if its cost falls; a node within
    1e-12 of the anchor stays.  All endpoints must lie inside D.

    Nodes, trial points and midpoints are held coordinate first, (n, ...),
    so the oracle and the norms run long inner loops; D.value and dist_fn
    get the (points, n) view np.moveaxis(mids, 0, -1).  Where every midpoint
    of a cost call is inside, the usual case, the whole view goes to
    _boundary, else only its inside rows.  Each row comes out bitwise as its
    one-row call wherever D has a dist_fn; a searched distance shares its
    ray cap with the call's other rows (see _ray_exit), so there a row can
    move by rounding.  path_distance_upper is the one-row call.
    """
    z1s = np.asarray(z1s, dtype=complex)
    z2s = np.asarray(z2s, dtype=complex)
    if z1s.ndim != 2 or z1s.shape != z2s.shape:
        raise DomainError("path endpoints must be paired (m, n) rows, got shapes %s and %s"
                          % (z1s.shape, z2s.shape))
    if z1s.shape[1] != D.dim:
        raise DomainError("dimension mismatch: points have %d coordinates, domain has %d"
                          % (z1s.shape[1], D.dim))
    m = z1s.shape[0]
    if not m:
        return np.empty(0)
    if not (np.all(contains(D, z1s)) and np.all(contains(D, z2s))):
        raise DomainError("path endpoints must lie inside %s" % D.name)
    a, b = z1s.T, z2s.T
    anchor = (D.interior_point[:, None] if D.interior_point is not None
              else 0.5 * (a + b))[..., None]                                  # (n, m or 1, 1)
    lam = np.linspace(0.0, 1.0, PATH_SEGMENTS + 1)
    nodes = (1.0 - lam) * a[..., None] + lam * b[..., None]                 # (n, m, P + 1)
    scan = np.linspace(0.0, 1.0, 16)

    def cost(p, q):
        """Sum of -2 log1p(-|q - p| / (2 delta((p + q)/2))) over the last
        (segment) axis of coordinate-first p and q; a term is +inf unless
        |q - p| / 2 < delta((p + q)/2), so also where a midpoint is outside D."""
        mids = 0.5 * (p + q)
        rows = np.moveaxis(mids.reshape(D.dim, -1), 0, -1)
        inside = contains(D, rows)
        if inside.all():
            dmid = _boundary(D, rows, "auto")
        else:
            dmid = np.zeros(inside.shape)
            dmid[inside] = _boundary(D, rows[inside], "auto")
        seglen = np.linalg.norm(q - p, axis=0)
        dmid = dmid.reshape(seglen.shape)
        r = np.divide(seglen, 2.0 * dmid, out=np.full(dmid.shape, np.inf), where=dmid > 0)
        return -2.0 * np.log1p(-r, out=np.full(r.shape, -np.inf), where=r < 1.0).sum(axis=-1)

    # bump every path toward its anchor; t = 0 is the straight path
    bump = np.sin(math.pi * lam) ** 2
    toward = (anchor - nodes)[:, :, None]

    def bumped(t):  # (m, K) -> (n, m, K, P + 1)
        return nodes[:, :, None] + (t[..., None] * bump) * toward

    def length(t, _):
        paths = bumped(np.broadcast_to(t, (m, np.shape(t)[-1])))
        return cost(paths[..., :-1], paths[..., 1:])

    t, best = _zoom_min(length, scan, scan[1], 0.0, 1.0)
    nodes = bumped(t[:, None])[:, :, 0]

    # red-black descent along each node's anchor direction
    for first in (1, 2):
        i = np.arange(first, PATH_SEGMENTS, 2)
        d = anchor - nodes[..., i]                                          # (n, m, L)
        nd = np.linalg.norm(d, axis=0)
        keep = nd >= 1e-12
        path, j = np.nonzero(keep)
        i, nd, u = i[j], nd[keep], d[:, keep] / nd[keep]
        at = nodes[:, path, i]
        ends = np.stack([nodes[:, path, i - 1], nodes[:, path, i + 1]], axis=-1)[:, :, None]

        def local(t, _):  # (r, K) offsets along u -> (r, K) costs
            trial = at[..., None] + t * u[..., None]
            return cost(ends, trial[..., None])

        lo, hi = -0.1 * nd, np.minimum(nd, 0.5)
        t, c = _zoom_min(local, lo[:, None] + (hi - lo)[:, None] * scan,
                         (hi - lo) * scan[1], lo, hi)
        move = c < local(np.zeros((i.size, 1)), None)[:, 0]
        nodes[:, path[move], i[move]] += t[move] * u[:, move]
    return np.minimum(best, cost(nodes[..., :-1], nodes[..., 1:]))


def path_distance_upper(D, z1, z2):
    """Upper estimate of the invariant distance between two points of D:
    the one-row path_distance_upper_batch."""
    z1 = as_point(z1, D.dim)
    z2 = as_point(z2, D.dim)
    return float(path_distance_upper_batch(D, z1[None], z2[None])[0])


def fit_pair_constant(D, o, vq_samples, vxi_samples):
    """Smallest K' with est(w1, o) + est(o, w2) - est(w1, w2) <= K' over the
    sample clouds (nonempty, with disjoint closures), returned as
    K = max(0, K' - log delta_D(o)); est is path_distance_upper on D, all
    |vq| + |vxi| paths to o and |vq| |vxi| cross paths in one batch."""
    o = as_point(o, D.dim)
    vq = np.array([as_point(w, D.dim) for w in vq_samples])
    vx = np.array([as_point(w, D.dim) for w in vxi_samples])
    if not (len(vq) and len(vx)):
        raise DomainError("sample clouds must be nonempty")
    if np.min(row_norms(vq[:, None] - vx[None])) <= 0:
        raise DomainError("sample clouds must have disjoint closures")
    nq, nx = len(vq), len(vx)
    est = path_distance_upper_batch(
        D, np.concatenate([vq, vx, np.repeat(vq, nx, axis=0)]),
        np.concatenate([np.broadcast_to(o, (nq + nx, D.dim)), np.tile(vx, (nq, 1))]))
    kprime = float(np.max(est[:nq, None] + est[None, nq:nq + nx]
                          - est[nq + nx:].reshape(nq, nx)))
    return max(0.0, kprime - math.log(boundary_distance(D, o)))
