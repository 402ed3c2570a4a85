"""One-sided estimates for the invariant (Kobayashi-type) metric and
distance, plus closed-form ball oracles for sandwich testing.

Every estimate is returned as a MetricBound carrying its side (lower /
upper), the method tag, and the evaluation point, so reports can be
recomputed from recorded numbers alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (DomainError, _golden_min, as_point, boundary_distance,
                      boundary_distance_batch, contains, directional_distance,
                      hermitian_inner)

METHODS = ("graham_lower", "graham_upper", "sibony", "inscribed_ball",
           "ltc_lower", "cvx_dist_lower", "fr_dist_upper", "pair_lower",
           "exact_oracle")


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


def kob_metric_ball_exact(z, v, radius=1.0):
    """Invariant metric of the ball B^n(0, radius), normalized k(0; v) = |v|.

    sqrt((r^2 - |z|^2) |v|^2 + |<v, z>|^2) * r / (r^2 - |z|^2), written here
    for radius r; the unit-ball case is the usual Bergman-normalized form.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    r2 = radius * radius
    nz2 = np.sum(np.abs(z) ** 2, axis=-1)
    if np.any(nz2 >= r2):
        raise DomainError("point outside the ball")
    nv2 = np.sum(np.abs(v) ** 2, axis=-1)
    ip = np.abs(hermitian_inner(v, z)) ** 2
    return radius * np.sqrt((r2 - nz2) * nv2 + ip) / (r2 - nz2)


def kob_distance_ball_exact(z1, z2, radius=1.0):
    """Invariant distance of the ball, arctanh of the Mobius invariant."""
    z1 = np.asarray(z1, dtype=complex) / radius
    z2 = np.asarray(z2, dtype=complex) / radius
    num = (1.0 - np.sum(np.abs(z1) ** 2)) * (1.0 - np.sum(np.abs(z2) ** 2))
    den = np.abs(1.0 - hermitian_inner(z1, z2)) ** 2
    rho = math.sqrt(max(0.0, 1.0 - float(num / den)))
    return float(np.arctanh(min(rho, 1.0 - 1e-16)))


def graham_bounds(D, z, v, delta_dir=None, n_phases=256):
    """Convex-domain sandwich |v|/(2 delta(z;v)) <= k(z;v) <= |v|/delta(z;v)."""
    if not D.is_convex:
        raise DomainError("directional-distance sandwich requires a convex domain")
    z = as_point(z, D.dim)
    v = as_point(v, D.dim)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise DomainError("direction must be nonzero")
    d = delta_dir if delta_dir is not None else directional_distance(D, z, v, n_phases=n_phases)
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
    uz = float(u.fn(z) if hasattr(u, "fn") else u(z))
    if uz >= 0.0:
        raise DomainError("witness must be negative at z")
    if c <= 0 or alpha <= 0:
        raise DomainError("c and alpha must be positive")
    nv = np.linalg.norm(np.asarray(v, dtype=complex))
    val = math.sqrt(c / alpha) * nv / math.sqrt(abs(uz))
    return MetricBound(val, "lower", "sibony", at=(z, np.asarray(v, dtype=complex)),
                       constants={"c": c, "alpha": alpha, "u(z)": uz})


def inscribed_ball_upper_bound(D, z, v, delta=None):
    """|v| / delta_D(z): the inclusion of the inscribed ball is
    distance-decreasing, so the ball's metric dominates the domain's."""
    z = as_point(z, D.dim)
    nv = np.linalg.norm(np.asarray(v, dtype=complex))
    if nv == 0.0:
        return MetricBound(0.0, "upper", "inscribed_ball", at=(z, v))
    d = delta if delta is not None else boundary_distance(D, z)
    return MetricBound(nv / d, "upper", "inscribed_ball", at=(z, v),
                       constants={"delta": d})


# ---------------------------------------------------------------------------
# log-type convexity fit: delta(z; v) <= C / |log delta(z)|^(1+nu)
# ---------------------------------------------------------------------------

@dataclass
class LtcFit:
    C: float
    nu: float
    sample_count: int
    max_violation: float
    band_envelopes: np.ndarray = None

    def bound(self, delta):
        return self.C / np.abs(np.log(delta)) ** (1.0 + self.nu)

    def violation(self, delta, delta_dir):
        """delta_dir - bound(delta); <= 0 where the fitted inequality holds."""
        return delta_dir - self.bound(delta)


class NotLogTypeConvex(DomainError):
    pass


def ltc_fit(D, samples, nu_grid=None, safety=1.25, nu_margin=0.25,
            min_bands=4):
    """Envelope fit of the log-type convexity inequality from samples.

    samples: sequence of (z, v) with interior z and delta_D(z) < 1.
    The samples are stratified into dyadic bands of delta_D(z); for each
    band the envelope sup of delta(z; v) is regressed (log-log) against
    log|log delta|; the slope gives the largest admissible exponent, and
    nu is snapped down to the grid after subtracting nu_margin.  C is the
    envelope maximum of delta(z;v) |log delta(z)|^(1+nu) times a safety
    factor.  Both margins push the certified envelope up, so the fitted
    inequality generalizes to held-out samples from the same region
    (lowering nu enlarges the bound wherever delta < 1/e).
    """
    if not D.is_convex:
        raise DomainError("log-type convexity is defined for convex domains")
    if nu_grid is None:
        nu_grid = np.arange(0.05, 5.0 + 1e-9, 0.05)
    zs = np.array([as_point(z, D.dim) for z, _ in samples])
    vs = np.array([as_point(v, D.dim) for _, v in samples])
    deltas = boundary_distance_batch(D, zs)
    if np.any(deltas >= 1.0):
        raise DomainError("fit requires delta_D(z) < 1 on all samples")
    from .domains import directional_distance_batch
    ddirs = directional_distance_batch(D, zs, vs)

    bands = np.floor(-np.log2(deltas)).astype(int)
    uniq = np.unique(bands)
    if uniq.size < min_bands:
        raise DomainError("need samples across >= %d dyadic bands of delta, got %d"
                          % (min_bands, uniq.size))
    env_delta = []
    env_dir = []
    for b in uniq:
        sel = bands == b
        env_delta.append(np.exp(np.mean(np.log(deltas[sel]))))
        env_dir.append(np.max(ddirs[sel]))
    env_delta = np.array(env_delta)
    env_dir = np.array(env_dir)

    x = np.log(np.abs(np.log(env_delta)))
    y = np.log(env_dir)
    slope = np.polyfit(x, y, 1)[0]
    nu_hat = -slope - 1.0
    admissible = nu_grid[nu_grid <= nu_hat - nu_margin + 1e-12]
    if admissible.size == 0:
        raise NotLogTypeConvex(
            "not log-type convex at sampled resolution (fitted exponent %.3f < %.2f)"
            % (nu_hat, nu_grid[0]))
    nu = float(admissible[-1])
    C_env = float(np.max(ddirs * np.abs(np.log(deltas)) ** (1.0 + nu)))
    C = C_env * safety
    viol = float(np.max(ddirs - C / np.abs(np.log(deltas)) ** (1.0 + nu)))
    return LtcFit(C=C, nu=nu, sample_count=len(samples), max_violation=viol,
                  band_envelopes=np.stack([env_delta, env_dir], axis=-1))


def ltc_metric_lower_bound(fit, w, v, delta, c=None):
    """c |v| (log(1/delta))^(1+nu), the metric lower bound a log-type convex
    fit induces near the boundary; by default c = 1/(2C) from the fit,
    matching the directional-distance sandwich with the fitted envelope."""
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    cc = (1.0 / (2.0 * fit.C)) if c is None else c
    nv = np.linalg.norm(np.asarray(v, dtype=complex))
    val = cc * nv * math.log(1.0 / delta) ** (1.0 + fit.nu)
    return MetricBound(val, "lower", "ltc_lower", at=(np.asarray(w, dtype=complex), v),
                       constants={"c": cc, "nu": fit.nu, "C": fit.C, "delta": delta})


def convex_distance_lower_bound(delta_w, delta_wp):
    """(1/2) |log(delta_w / delta_wp)|: valid lower bound for the invariant
    distance of a convex domain between points at those boundary distances."""
    if delta_w <= 0 or delta_wp <= 0:
        raise DomainError("distances must be positive")
    val = 0.5 * abs(math.log(delta_w / delta_wp))
    return MetricBound(val, "lower", "cvx_dist_lower",
                       constants={"delta_w": delta_w, "delta_wp": delta_wp})


def fr_distance_upper_bound(delta1, delta2, sep, C):
    """sum_j (1/2) log(1/delta_j) - sum_j (1/2) log(1/(delta_j + sep)) + C."""
    if delta1 <= 0 or delta2 <= 0 or sep < 0:
        raise DomainError("need positive distances and nonnegative separation")
    val = 0.0
    for d in (delta1, delta2):
        val += 0.5 * math.log(1.0 / d) - 0.5 * math.log(1.0 / (d + sep))
    val += C
    return MetricBound(val, "upper", "fr_dist_upper",
                       constants={"delta1": delta1, "delta2": delta2,
                                  "sep": sep, "C": C})


def pair_lower_bound(delta1, delta2, K):
    """(1/2) log(1/delta_1) + (1/2) log(1/delta_2) - K, for points near two
    fixed distinct boundary patches; K comes from fit_pair_constant."""
    if not (0.0 < delta1 <= 1.0 and 0.0 < delta2 <= 1.0):
        raise DomainError("distances must lie in (0, 1]")
    val = 0.5 * math.log(1.0 / delta1) + 0.5 * math.log(1.0 / delta2) - K
    return MetricBound(max(0.0, val), "lower", "pair_lower",
                       constants={"delta1": delta1, "delta2": delta2, "K": K,
                                  "raw": val})


# ---------------------------------------------------------------------------
# path-integration upper estimator for the invariant distance
# ---------------------------------------------------------------------------

def path_distance_upper(D, z1, z2, segments=128, anchor=None, sweeps=1,
                        dist_method="auto"):
    """Upper estimate of the invariant distance by integrating the inscribed
    ball bound |gamma'| / delta_D(gamma) along a polygonal path (midpoint
    rule, `segments` pieces), then shortening the path by coordinate
    descent of the interior nodes toward an interior anchor.
    """
    z1 = as_point(z1, D.dim)
    z2 = as_point(z2, D.dim)
    if anchor is None:
        anchor = D.interior_point
        if anchor is None:
            anchor = 0.5 * (z1 + z2)
    anchor = as_point(anchor, D.dim)

    lam = np.linspace(0.0, 1.0, segments + 1)[:, None]
    nodes = (1.0 - lam) * z1[None, :] + lam * z2[None, :]

    def length(nodes):
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        seglen = np.linalg.norm(np.diff(nodes, axis=0), axis=-1)
        dmid = boundary_distance_batch(D, mids, method=dist_method)
        if np.any(dmid <= 0):
            return np.inf
        return float(np.sum(seglen / dmid))

    best = length(nodes)
    # bump the whole path toward the anchor (single scalar, golden search)
    bump = np.sin(math.pi * lam) ** 2

    def bumped(t):
        return nodes + t * bump * (anchor[None, :] - nodes)

    t0, _ = _golden_min(lambda t: length(bumped(t)), 0.0, 1.0, 30)
    cand = bumped(t0)
    if length(cand) < best:
        nodes = cand
        best = length(nodes)

    # per-node descent along the anchor direction
    for _ in range(sweeps):
        for i in range(1, segments):
            direction = anchor - nodes[i]
            nd = np.linalg.norm(direction)
            if nd < 1e-12:
                continue
            direction = direction / nd

            def local(t, i=i, direction=direction):
                trial = nodes.copy()
                trial[i] = nodes[i] + t * direction
                mids = 0.5 * (trial[i - 1:i + 1] + trial[i:i + 2])
                seglen = np.array([np.linalg.norm(trial[i] - trial[i - 1]),
                                   np.linalg.norm(trial[i + 1] - trial[i])])
                dmid = boundary_distance_batch(D, mids, method=dist_method)
                if np.any(dmid <= 0):
                    return np.inf
                return float(np.sum(seglen / dmid))

            tbest, _ = _golden_min(local, -0.1 * nd, min(nd, 0.5), 18)
            if local(tbest) < local(0.0):
                nodes[i] = nodes[i] + tbest * direction
        newlen = length(nodes)
        if newlen < best:
            best = newlen
    return best


def fit_pair_constant(D, o, vq_samples, vxi_samples, dist_estimator=None,
                      delta_o=None):
    """Smallest K' with est(w1, o) + est(o, w2) - est(w1, w2) <= K' over the
    sample clouds (whose closures must be disjoint), returned as
    K = max(0, K' - log delta_D(o)).

    dist_estimator(w1, w2) defaults to path_distance_upper on D.
    """
    o = as_point(o, D.dim)
    vq = [as_point(w, D.dim) for w in vq_samples]
    vx = [as_point(w, D.dim) for w in vxi_samples]
    gap = min(np.linalg.norm(a - b) for a in vq for b in vx)
    if gap <= 0:
        raise DomainError("sample clouds must have disjoint closures")
    est = dist_estimator or (lambda a, b: path_distance_upper(D, a, b))
    to_o = {}
    kprime = -math.inf
    for w1 in vq:
        k1 = tuple(np.round(w1, 12))
        if k1 not in to_o:
            to_o[k1] = est(w1, o)
        for w2 in vx:
            k2 = tuple(np.round(w2, 12))
            if k2 not in to_o:
                to_o[k2] = est(w2, o)
            val = to_o[k1] + to_o[k2] - est(w1, w2)
            kprime = max(kprime, val)
    d_o = delta_o if delta_o is not None else boundary_distance(D, o)
    return max(0.0, kprime - math.log(d_o))


def goldilocks_M(D, r, metric_lower_source, samples):
    """Upper estimate of sup { 1/k(w; v) : delta_D(w) <= r, |v| = 1 } via the
    reciprocal of a pointwise metric lower bound, maximized over samples.

    metric_lower_source(w, v) -> MetricBound (side "lower") or float > 0.
    Directions need not be unit: the metric is homogeneous in v, so the
    unit-direction reciprocal is |v| / bound(w, v).
    """
    worst = 0.0
    for w, v in samples:
        w = as_point(w, D.dim)
        if boundary_distance(D, w) > r * (1 + 1e-9):
            raise DomainError("sample with delta_D(w) > r")
        lb = metric_lower_source(w, v)
        val = lb.value if isinstance(lb, MetricBound) else float(lb)
        if val <= 0:
            raise DomainError("metric lower bound vanished at a sample")
        worst = max(worst, float(np.linalg.norm(np.asarray(v, dtype=complex))) / val)
    return worst


def goldilocks_profile(D, r_grid, metric_lower_source, sampler):
    """Tabulate r -> goldilocks_M(D, r, ...) with sampler(r) supplying the
    (w, v) samples per radius; returns a ModulusOfContinuity for the
    reciprocal-metric rate, ready for the Dini integrability check."""
    from .regularity import ModulusOfContinuity
    r_grid = np.asarray(sorted(r_grid), dtype=float)
    vals = np.array([goldilocks_M(D, r, metric_lower_source, sampler(r))
                     for r in r_grid])
    vals = np.maximum.accumulate(vals)  # M is monotone in r
    return ModulusOfContinuity.from_table(np.concatenate([[0.0], r_grid]),
                                          np.concatenate([[0.0], vals]),
                                          name="goldilocks")


def localization_gap(K_local, K_global):
    """K_local - K_global; for admissible estimates of the same pair this
    lies in [0, K] with K the localization constant.  A negative value
    flags estimator inconsistency."""
    return float(K_local) - float(K_global)
