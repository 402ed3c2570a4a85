"""Domains in C^n given by defining-function oracles, and their Euclidean
boundary geometry: interior tests, boundary distance, directional boundary
distance, nearest boundary points and inward normals.

Conventions used throughout the package:

* a point of C^n is a numpy array of shape (n,) and dtype complex128;
  batches of points are arrays of shape (..., n),
* the norm of a point is the Euclidean norm of the corresponding real
  2n-vector, which is exactly ``np.linalg.norm`` on the complex vector,
* every oracle takes (..., n) batches: a constraint maps them to (...,)
  reals, its gradient to (..., n) complex and its smoothness flag to (...,)
  booleans; the domain interior is where every constraint is < 0,
* the Hermitian inner product is ``<a, b> = sum_j a_j * conj(b_j)``.

Oracles for the bundled domains are vectorized numpy code.  User-supplied
oracles must accept batched input in the same way.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Bad domain data or a point outside the required region."""


class NonSmoothBoundaryError(DomainError):
    """A gradient was requested at a non-differentiable boundary point."""


class ConvergenceError(RuntimeError):
    """An iterative geometric computation failed to converge."""


def cpoint(*coords):
    """Build a point of C^n from n scalars (real or complex)."""
    z = np.asarray(coords, dtype=complex)
    if z.ndim != 1 or z.size < 1:
        raise DomainError("a point needs at least one coordinate")
    if not np.all(np.isfinite(z.view(float))):
        raise DomainError("non-finite coordinate")
    return z


def as_point(z, dim=None):
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise DomainError("expected a single point, got shape %s" % (z.shape,))
    if dim is not None and z.size != dim:
        raise DomainError("dimension mismatch: point has %d coordinates, domain has %d"
                          % (z.size, dim))
    return z


def hermitian_inner(a, b):
    """<a, b> = sum_j a_j conj(b_j), broadcasting over leading axes."""
    return np.sum(np.asarray(a, dtype=complex) * np.conj(b), axis=-1)


def row_norms(z):
    """Norms of (..., n) points, bitwise as ``np.linalg.norm`` of one point."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def _moduli(z):
    """|z_j| entrywise, bitwise as Python's abs of each complex (np.abs is not)."""
    return np.hypot(z.real, z.imag)


@dataclass
class Constraint:
    """One scalar defining inequality g < 0.

    ``fn`` maps (..., n) complex arrays to (...,) values, ``grad`` (optional)
    to (..., n) real gradients, ``grad_j = dg/dx_j + i dg/dy_j`` for
    z_j = x_j + i y_j, and ``smooth`` (optional) to (...,) flags marking where
    g is differentiable; where one is False no gradient is finite-differenced.
    """
    fn: callable
    grad: callable = None
    smooth: callable = None

    def __call__(self, z):
        return np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=float)


@dataclass
class DomainSpec:
    """A domain in C^n: interior = { z : g_i(z) < 0 for all i }.

    The optional fast paths map (m, n) rows of interior points to their
    (m,) distances (dist_fn) and (m, n) nearest boundary points (nearest_fn).
    """
    name: str
    dim: int
    constraints: list
    is_convex: bool = False
    is_reinhardt: bool = False
    bounding_radius: float = math.inf
    interior_point: np.ndarray = None
    # Optional fast paths (vectorized); used when method="auto".
    dist_fn: callable = field(default=None, repr=False)
    nearest_fn: callable = field(default=None, repr=False)

    def __post_init__(self):
        self.constraints = [c if isinstance(c, Constraint) else Constraint(c)
                            for c in self.constraints]
        if self.interior_point is not None:
            self.interior_point = as_point(self.interior_point, self.dim)

    def value(self, z):
        """max_i g_i, batched over leading axes."""
        z = np.asarray(z, dtype=complex)
        first, *rest = self.constraints
        out = first(z)
        for c in rest:
            out = np.maximum(out, c(z))
        return out


def contains(D, z):
    """True iff every defining inequality is strict at z.  Batched."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != D.dim:
        raise DomainError("dimension mismatch")
    return D.value(z) < 0.0


# ---------------------------------------------------------------------------
# ray casting: first exit radius along rays, fully vectorized over rays
# ---------------------------------------------------------------------------

# Ray exits build brackets in chunks of whole rows, at most RAY_CHUNK rays
# unless one row has more, and root-find consecutive chunks in groups of at
# most RAY_CHUNK // 8 bracketed rays unless one chunk has more; grid scans
# run in row blocks of about 8 * RAY_CHUNK grid points (_row_blocks).
RAY_CHUNK = 1 << 15
MARCH_STEPS = 128
ROOT_STEPS = 128
# The convex probe sits this far above the bound, relatively: a few ulps
# from the boundary the oracle's sign is rounding noise, and a ray found
# inside there may have a root-found exit at or below the bound.
PROBE_MARGIN = 2.0 ** -40
_FOUR_EPS = 4.0 * np.finfo(float).eps


def _ray_exit(D, z, dirs, bound=None):
    """First boundary crossings t > 0 along z_i + t*dirs_ij, by rows.

    z: (m, n) interior rows; dirs: (m, k, n) unit complex directions (a
    broadcast view is fine: each chunk materializes only its own rows).
    Returns (m, k).  _brackets finds per ray, a chunk at a time, a bracket
    [lo, hi] with value(lo) < 0 <= value(hi): [0, cap] for a convex domain,
    whose inside set along a ray is an interval; otherwise a fixed march of
    step cap/MARCH_STEPS finds the first outside point.  The march goes on
    evaluating the rays that have stopped, masked out, until half of the
    rays it carries have, so a ray sees the same grid points and values
    whatever the other rays do.  One Chandrupatla root finder on D.value
    (_roots) per group of chunks then shrinks the brackets to hi - lo <=
    4 eps hi and returns the midpoints.  Where D.value is exactly 0,
    interpolation has no slope to use, so the finder steps just inside a
    new zero, doubles that step while zeros repeat and bisects once it is
    past them.  Points are (n, rays) arrays; the oracle gets transposes.
    The cap, and with it the march grid, is set by the largest |z| in the
    batch, so the other rows can move an exit by rounding, or by tunnelling
    on the march; chunks and groups of whole rows change no exit.

    Without a bound every entry is the exact exit.  With one (scalar or
    (m,), inf for none), each row keeps best = min(bound, least upper
    bracket end of its rays), and a ray whose lower end exceeds best stops
    there (branch and bound).  An entry is then the exact exit, or a lower
    bound on it that exceeds min(bound, the row's least exit).  So only a
    row's min and argmin, and the strict test min < bound, may use the
    entries; those come out as from exact exits.

    Two more steps use the bound.  On a convex domain each ray of a row
    with 0 < best < cap is probed once, at p = best (1 + PROBE_MARGIN); a
    ray inside at p exits beyond it, since the inside set is an interval,
    and returns p.  And when some row is unbounded, a first pass finds the
    exits of every s-th ray, s = isqrt(k), then a second pass bounds the
    other rays by min(bound, those rays' row minima); on a non-convex
    domain the march stops those rays once t exceeds that bound, as the
    root finder does.  Both only stop rays early; a ray that is not stopped
    runs the same bracket and root steps, so every exact entry is bitwise
    the exit the plain search finds.
    """
    z = np.asarray(z, dtype=complex)
    dirs = np.asarray(dirs, dtype=complex)
    if not math.isfinite(D.bounding_radius):
        raise DomainError("domain %r has no bounding radius; rays may not exit" % D.name)
    cap = float(np.max(np.linalg.norm(z, axis=-1), initial=0.0)) + 2.0 * D.bounding_radius + 1.0
    m, k = dirs.shape[:2]
    # NaN never compares true and stays NaN under np.minimum, so without a
    # bound no ray stops early
    best = np.broadcast_to(np.nan if bound is None else bound, (m,)).astype(float)
    s = math.isqrt(k)
    passes = [np.arange(k)]
    if s > 1 and np.any(best == math.inf):
        passes = [passes[0][::s], np.flatnonzero(passes[0] % s)]
    out = np.empty((m, k))
    step = max(1, RAY_CHUNK // k)
    for i, cols in enumerate(passes):
        if i:
            best = np.minimum(best, out[:, ::s].min(axis=1))
        group = []
        for r in range(0, m, step):
            state = _brackets(D, z, dirs, slice(r, r + step), cols, cap, best, out)
            if state is None:
                continue
            if group and sum(g[0].shape[1] for g in group) + state[0].shape[1] > RAY_CHUNK // 8:
                _roots(D, group, cap, best, out)
                group = []
            group.append(state)
        if group:
            _roots(D, group, cap, best, out)
    return out


def _brackets(D, z, dirs, rows, cols, cap, best, out):
    """Brackets of the chunk dirs[rows][:, cols], best the pass's bounds.
    Stopped rays get their entries of out by flat index; the others are
    returned as a root state (None if there are none).  One oracle call
    reads the origins and the probes, or every cap point without probes."""
    z, best = z[rows].T, best[rows]
    (n, mc), kc = z.shape, cols.size
    d = np.take(dirs[rows].transpose(2, 0, 1), cols, axis=2).reshape(n, -1)
    m, row = d.shape[1], np.repeat(np.arange(mc), kc)
    flat = (np.arange(rows.start, rows.start + mc)[:, None] * out.shape[1] + cols).ravel()
    # a probed row has every ray probed
    pr = np.flatnonzero(D.is_convex & (best > 0.0) & (best < cap))
    sel = pr if 0 < pr.size < mc else slice(None)
    p = best[sel, None] * (1.0 + PROBE_MARGIN) if pr.size else cap
    ends = np.multiply(p, d.reshape(n, mc, kc)[:, sel])
    ends += z[:, sel, None]
    f = D.value(np.concatenate([z, ends.reshape(n, -1)], axis=1).T)
    f0, fhi = f[:mc], f[mc:]
    if np.any(f0 >= 0.0) or (not pr.size and np.any(fhi < 0.0)):
        raise DomainError("a ray does not start inside %s or does not leave it" % D.name)
    todo = np.arange(m)
    if pr.size:
        hit = np.zeros((mc, kc), dtype=bool)
        hit[sel] = fhi.reshape(-1, kc) < 0.0
        stopped = np.flatnonzero(hit)
        out.put(flat[stopped], best[row[stopped]] * (1.0 + PROBE_MARGIN))
        todo = np.flatnonzero(~hit)
        fhi = np.full(todo.size, np.nan)    # NaN: a cap point not read yet
    lo, flo, hi = 0.0, f0[row[todo]], cap
    if not D.is_convex:
        lo, flo, hi, fhi = np.zeros(m), f0[row], np.full(m, np.nan), np.empty(m)
        step = cap / MARCH_STEPS
        zt, dt, rt, fl = np.take(z, row, axis=1), d, row, flo
        live = np.ones(m, dtype=bool)
        for j in range(1, MARCH_STEPS + 1):
            t = j * step
            f = D.value((zt + t * dt).T)
            outside = f >= 0.0
            left = outside & live
            best[rt[left]] = np.minimum(best[rt[left]], t)
            cut = (t > best[rt]) & live & ~outside
            stop = left | cut
            if stop.any():
                ray = todo[left]
                lo[ray], flo[ray], hi[ray], fhi[ray] = (j - 1) * step, fl[left], t, f[left]
                out.put(flat[todo[cut]], t)
                live &= ~stop
                kept = np.count_nonzero(live)
                if not kept:
                    break
                if 2 * kept <= live.size:
                    keep = np.flatnonzero(live)
                    todo, rt, f = (np.take(a, keep) for a in (todo, rt, f))
                    zt, dt = (np.take(a, keep, axis=1) for a in (zt, dt))
                    live = live[keep]
            fl = f
        else:
            raise ConvergenceError("ray march found no exit within the bounding cap")
        todo = np.flatnonzero(hi >= 0.0)    # the rays that left, to root-find
        lo, flo, hi, fhi = lo[todo], flo[todo], hi[todo], fhi[todo]
    if not todo.size:
        return None
    state = np.empty((9, todo.size))
    state[0], state[1], state[2], state[3], state[6] = lo, flo, hi, fhi, 0.5
    zd = np.empty((2, n, todo.size), dtype=complex)
    np.take(z, row[todo], axis=1, out=zd[0])
    np.take(d, todo, axis=1, out=zd[1])
    return state, zd, np.stack([flat[todo], rows.start + row[todo]])


def _roots(D, group, cap, best, out):
    """Root-finds a group of root states, concatenated if there are several,
    after one call reads the cap points whose f2 is NaN; each exit goes
    into out by its flat index.  A ray is a column of state (x1, f1, x2,
    f2, x3, f3, want, x21 = x2 - x1, tol), of zd (origin, direction) and of
    ids (flat index, row), compacted with three takes when a ray stops."""
    s, zd, ids = group[0] if len(group) == 1 else (np.concatenate(a, -1) for a in zip(*group))
    unread = np.flatnonzero(np.isnan(s[3]))
    if unread.size:
        s[3, unread] = D.value((np.take(zd[0], unread, 1) + cap * np.take(zd[1], unread, 1)).T)
        if np.any(s[3, unread] < 0.0):
            raise DomainError("a ray does not start inside %s or does not leave it" % D.name)

    # Chandrupatla (1997): x1 is the newest point, x2 the other end of the
    # bracket and x3 the point dropped last; each step tries inverse
    # quadratic interpolation on the three and bisects when it is not
    # accepted, never stepping closer than 2 eps hi to an end.  An exact
    # zero counts as outside but gives interpolation no slope (it returns 0
    # for f1 = 0 and 1 for f2 = 0), so zeros take their own steps.  A new
    # zero x1 asks for half the least step, so it steps 2 eps hi inside it.
    # While the outside end it replaced was a zero too (f3 = 0), the step
    # asked for doubles, up to a bisection.  So the second step is 2 eps hi
    # again, which ends a run of zeros as wide as the oracle's rounding with
    # the 2 eps bracket the plain finder gets there, and a wide run is
    # crossed in a few steps.  Once the newest point is inside and the
    # outside end a zero (f2 = 0), the search bisects.  want is the step
    # fraction asked for, t the one taken.
    # Given a bound, each step folds the live rays' upper ends into their
    # rows' best; a stopped ray's last upper end is already in it.
    pts = np.empty(zd.shape[1:], dtype=complex)
    bounded = not np.isnan(best).any()
    x1, f1, x2, f2, x3, f3, want, x21, tol = s
    q = s[:6].reshape(3, 2, -1)    # the (x, f) pairs 1, 2 and 3
    np.subtract(x2, x1, out=x21)
    t = 0.5
    for _ in range(ROOT_STEPS):
        x = x1 + t * x21
        np.multiply(x, zd[1], out=pts)
        pts += zd[0]
        f = D.value(pts.T)
        same = (f >= 0.0) == (f1 >= 0.0)
        q[1:] = np.where(same, q[1::-1], q[:2])
        x1[:], f1[:] = x, f
        dx = np.abs(np.subtract(x2, x1, out=x21))
        up = np.maximum(x1, x2)
        np.multiply(_FOUR_EPS, up, out=tol)
        done = dx <= tol
        if bounded:
            np.minimum.at(best, ids[1], up)
        low = np.minimum(x1, x2)
        stop = done | (low > best[ids[1]])
        if stop.any():
            out.put(ids[0, stop], np.where(done, 0.5 * (x1 + x2), low)[stop])
            keep = np.flatnonzero(~stop)
            if not keep.size:
                return
            s, zd, ids = (np.take(a, keep, -1) for a in (s, zd, ids))
            pts = np.empty(zd.shape[1:], dtype=complex)
            x1, f1, x2, f2, x3, f3, want, x21, tol = s
            q = s[:6].reshape(3, 2, -1)
            dx = np.abs(x21)
        # num = (x1 - x2, f1 - f2) and den = (x3 - x2, f3 - f2)
        num, den = s[0:2] - s[2:4], s[4:6] - s[2:4]
        xi, phi = num / den
        f12, f32 = num[1], den[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            iqi = (f1 / f12 * f3 / f32
                   - (x3 - x1) / x21 * f1 / (f3 - f1) * f2 / (f2 - f3))
        accept = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        tl = 0.5 * tol / dx
        new = np.where(accept & (f2 != 0.0), iqi, 0.5)
        zero = np.flatnonzero(f1 == 0.0)
        if zero.size:
            new[zero] = np.where(f3[zero] == 0.0, np.minimum(2.0 * want[zero], 0.5),
                                 0.5 * tl[zero])
        want[:] = new
        t = np.minimum(np.maximum(new, tl), 1.0 - tl)
    raise ConvergenceError("ray exit root finder did not converge in %d steps" % ROOT_STEPS)


def _row_blocks(m, width):
    """Slices cutting m rows of width numbers each into blocks of about
    8 * RAY_CHUNK numbers."""
    step = max(1, 8 * RAY_CHUNK // width)
    return [slice(s, s + step) for s in range(0, m, step)]


def _halton(k, d):
    """Points 1..k of the unscrambled Halton sequence in d dimensions: the
    radical inverses of the indices in the first d prime bases, summed
    digit by digit from the lowest as scipy.stats.qmc.Halton does."""
    primes = [p for p in range(2, 8 * d + 8) if all(p % q for q in range(2, p))][:d]
    out = np.zeros((k, d))
    for j, base in enumerate(primes):
        q = np.arange(1, k + 1)
        scale = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * scale
            q //= base
            scale /= base
    return out


@functools.cache
def _sphere_directions(k, real_dim):
    """k deterministic low-discrepancy directions on S^(real_dim-1), built once
    per (k, real_dim), read-only: Halton points through the normal quantile."""
    if real_dim == 2:
        ang = 2.0 * math.pi * (np.arange(k) + 0.5) / k
        out = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:   # imported here, off the set-up path: only generic searches get here
        from statistics import NormalDist
        p = np.clip(_halton(k, real_dim), 1e-12, 1 - 1e-12)
        g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(p)
        out = g / np.linalg.norm(g, axis=-1, keepdims=True)
    out.flags.writeable = False
    return out


def _real_to_complex(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


ZOOM_K = 6
ZOOM_ROUNDS = 11
# Rays one lookahead call of _rounds may hold.  A bounded _ray_exit call
# costs its ~7 sequential root steps nearly alike for 6 rays and for a few
# hundred.  One scalar delta(z; v), median ms over 5 points on a 2-vCPU Xeon
# looking 0, 1, 2 and 3 rounds ahead (6, 48, 342 and 2,400 rays a call):
# ball2 12.5, 8.2, 8.0, 8.9; ex21_d 14.4, 10.6, 8.9, 10.9.  One batch of 2,
# 5 and 10 rows, median ms of 5 runs looking 0 and 1 round ahead: ball2
# 14.0 / 9.6, 14.6 / 11.6, 14.2 / 12.1; ex21_d 11.3 / 8.2, 12.6 / 12.5,
# 17.5 / 15.8; ex22_omega 20.3 / 14.7, 26.5 / 20.2, 24.7 / 21.4.  So one row
# looks 2 rounds ahead, 2 to 10 rows 1, and 11 or more rows none.  One
# generic search (3 starts of 12 directions), median ms over 5 points of the
# best of 3 runs, looking 0, 1 and 2 rounds ahead (36, 504 and 6,588 rays):
# ball2 28.1, 17.4, 31.5; ex21_d 49.5, 38.3, 85.7; ex21_omega 25.8, 19.3,
# 28.3; triangle2 21.1, 16.0, 22.2.  So it looks 1 round ahead.
ZOOM_RAY_BUDGET = 512


def _zoom_depth(m, k):
    """Rounds a lookahead call of _rounds adds for m states of k points: the
    most that keep its m * k * (1 + (k+1) + ... + (k+1)^depth) =
    m * ((k+1)^(depth+1) - 1) rays within ZOOM_RAY_BUDGET."""
    depth = 0
    while 0 < m * ((k + 1) ** (depth + 2) - 1) <= ZOOM_RAY_BUDGET:
        depth += 1
    return depth


def _rounds(f, spread, x, step, best, rounds, depth, stop=None):
    """The round loop of _zoom_min and of the generic pattern search.

    A row's state is (x, step), x a scalar or a vector; spread(xs, steps)
    gives states' K points and their steps after a move and after a stay.
    A round moves x to its argmin point only if that value is below best,
    so f may return, for a value v, any w with min(incumbent, the least
    value of the state's points) < w <= v.  A state whose step is below
    stop evaluates nothing more and keeps (x, best); the loop ends when all
    have stopped.  Rounds run in groups of 1 + depth, one f call a group on
    the points of every live state the group can reach, (K+1)^l per row in
    its l-th round (a move to each point, or a stay), with the incumbent
    at the group's start; f(points, incumbent, rows) gets their rows (none
    for one state per row and no stop).  The rounds are then resolved in
    order as one round would be.  That is exact: the group's incumbent is
    at least each round's, so every w meets that round's bound, and the
    argmin and strict test come out the same.  Returns (x, best).
    """
    m = best.shape[0]
    rows = np.arange(m)
    for first in range(0, rounds, depth + 1):
        # levels[l]: (steps, points, moved and kept steps) of round l's states
        xs, ss, levels = x[:, None], step[:, None], []
        for level in range(min(depth + 1, rounds - first)):
            if level:
                _, p, moved, kept = levels[-1]
                xs = np.append(p, xs[:, :, None], 2).reshape((m, -1) + x.shape[1:])
                ss = np.append(np.repeat(moved[..., None], p.shape[2], 2), kept[..., None], 2)
                ss = ss.reshape(m, -1)
            levels.append((ss,) + spread(xs, ss))
        pts = np.concatenate([lv[1] for lv in levels], axis=1) if depth else levels[0][1]
        n, k = pts.shape[1:3]
        flat = pts.reshape((m * n, k) + x.shape[1:])
        if stop is None:
            vals = f(flat, best) if n == 1 else f(flat, np.repeat(best, n), np.repeat(rows, n))
        else:
            live = np.flatnonzero(np.concatenate([lv[0] for lv in levels], axis=1) >= stop)
            if not live.size:
                break
            vals = np.full((m * n, k), np.inf)
            vals[live] = f(flat[live], best[live // n], live // n)
        vals = vals.reshape(m, n, k)
        state = start = 0
        for ss, p, moved, kept in levels:
            v = vals[:, start:start + ss.shape[1]]
            start += ss.shape[1]
            at = (slice(None), 0) if ss.shape[1] == 1 else (rows, state)  # a view, no lookup
            p, v = p[at], v[at]
            j = np.argmin(v, axis=1)
            vj = v[rows, j]
            better = vj < best
            x = np.where(better.reshape((m,) + (1,) * (x.ndim - 1)), p[rows, j], x)
            best = np.where(better, vj, best)
            step = kept[at] if moved is kept else np.where(better, moved[at], kept[at])
            if start < n:
                state = state * (k + 1) + np.where(better, j, k)
    return x, best


def _zoom_min(f, grid, step, lo=-math.inf, hi=math.inf, lookahead=False):
    """Row-wise minimization: a grid scan, then ZOOM_ROUNDS zoom rounds.

    grid is (K,), shared by all rows, or (m, K); f(points, incumbent) maps
    it, and any (m, k) array of points, to (m, k) values in one call, with
    incumbent inf for the scan.  A zoom round (_rounds) samples ZOOM_K evenly
    spaced interior points of [x - step, x + step] cap [lo, hi] and sets
    step to that bracket's width / (ZOOM_K + 1): it shrinks 2/7 a round.
    step, lo and hi are scalars or (m,); step is the first half-width (a
    one-point grid has no spacing).  With lookahead the rounds look
    _zoom_depth(m, ZOOM_K) ahead.  Returns (x, f(x)) per row.
    """
    vals = f(grid, math.inf)
    rows, k = np.arange(vals.shape[0]), np.argmin(vals, axis=1)
    frac = np.arange(1, ZOOM_K + 1) / (ZOOM_K + 1)
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))

    def spread(xs, ss):
        a, b = np.maximum(xs - ss, lo), np.minimum(xs + ss, hi)
        s = (b - a) / (ZOOM_K + 1)
        return a[..., None] + (b - a)[..., None] * frac, s, s

    x = np.broadcast_to(grid, vals.shape)[rows, k]
    return _rounds(f, spread, x, np.broadcast_to(step, x.shape), vals[rows, k], ZOOM_ROUNDS,
                   _zoom_depth(rows.size, ZOOM_K) if lookahead else 0)


GENERIC_DIRS = 512
GENERIC_STARTS = 3
GENERIC_ROUNDS = 30


def _generic_distance(D, zs):
    """min over real directions of the first-exit radius = dist to complement.

    Coarse low-discrepancy scan of the direction sphere, then pattern rounds
    (_rounds) from each row's best few starts: a state is a unit direction u
    and a radius rad, its points the 6n directions u + rad * fan normalized;
    rad is kept after a move, halved after a stay, and one below 1e-7 stops.
    Only one row looks ahead: a row whose starts have all stopped would stay
    in the group's ray call, where its |z| could move the cap and so, by
    rounding, other rows' exits.  Few stop: on 200 points each of polydisc,
    the ex22 domains and ball2 every search was live at GENERIC_ROUNDS, where
    it ends unconverged; 70 of the 1,000 overshot delta(z) by more than
    1e-8 (1 + |z|), up to 2.8e-3 relative, and none undershot.  Returns per
    row the best start's distance and unit direction (ties to the earlier).
    """
    m = zs.shape[0]
    real_dim = 2 * D.dim
    dirs_r = _sphere_directions(GENERIC_DIRS, real_dim)
    # no bound: the GENERIC_STARTS best exits of the scan must be exact
    t = _ray_exit(D, zs, np.broadcast_to(_real_to_complex(dirs_r), (m, GENERIC_DIRS, D.dim)))
    order = np.argsort(t, axis=1)[:, :GENERIC_STARTS]
    row = np.repeat(np.arange(m), GENERIC_STARTS)
    fan = np.concatenate([np.eye(real_dim), -np.eye(real_dim),
                          _sphere_directions(real_dim, real_dim)], axis=0)

    def spread(u, rad):
        cand = u[..., None, :] + rad[..., None, None] * fan
        return cand / np.linalg.norm(cand, axis=-1, keepdims=True), rad, 0.5 * rad

    u, tu = _rounds(lambda c, b, r: _ray_exit(D, zs[row[r]], _real_to_complex(c), b), spread,
                    dirs_r[order.ravel()],
                    np.full(row.size, 4.0 / GENERIC_DIRS ** (1.0 / (real_dim - 1))),
                    np.take_along_axis(t, order, axis=1).ravel(), GENERIC_ROUNDS,
                    _zoom_depth(row.size, fan.shape[0]) if m == 1 else 0, stop=1e-7)
    pick = np.arange(m) * GENERIC_STARTS + np.argmin(tu.reshape(m, GENERIC_STARTS), axis=1)
    return tu[pick], _real_to_complex(u[pick])


def _moduli_section_distance(D, x):
    """Distance within the real moduli section, batched over rows of x
    (two columns: the section of a Reinhardt domain in C^2).

    For a Reinhardt domain the distance from z to the complement equals the
    distance from (|z_1|, ..., |z_n|) to the complement of the real section
    { x in R^n : g(|x_1|, ..., |x_n|) < 0 }, attained at a point with the
    same coordinate phases.  The section is explored with the same
    first-exit construction, in R^n instead of R^2n: 256 ray angles, then
    zoom rounds on the angle.  Returns the distances and the unit
    directions that attain them.
    """
    x = np.atleast_2d(np.asarray(x, dtype=complex))

    def exits(theta, best, rows=slice(None)):
        d = np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)
        xr = x[rows]
        return _ray_exit(D, xr, np.broadcast_to(d, xr.shape[:1] + d.shape[-2:]), best)

    n = 256
    theta, t = _zoom_min(exits, 2.0 * math.pi * (np.arange(n) + 0.5) / n, 2.0 * math.pi / n,
                         lookahead=True)
    return t, np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _interior_rows(D, zs):
    """zs as (m, n) complex rows, all interior to D."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    if not np.all(contains(D, zs)):
        raise DomainError("point is outside the closure of %s" % D.name)
    return zs


def _phases(zs):
    """z_j / |z_j| coordinatewise, 1 where |z_j| <= 1e-14."""
    r = np.abs(zs)
    big = r > 1e-14
    return np.where(big, zs / np.where(big, r, 1.0), 1.0)


def _search(D, zs, method):
    """(t, xi) per row of interior zs from a search: the moduli-section
    reduction for a Reinhardt domain in C^2 unless method is "generic",
    else the generic direction search, which "reinhardt" refuses."""
    if method != "generic" and D.is_reinhardt and D.dim == 2:
        x = np.abs(zs)
        t, d = _moduli_section_distance(D, x)
        return t, (x + t[:, None] * d) * _phases(zs)
    if method == "reinhardt" and not D.is_reinhardt:
        raise DomainError("%s is not flagged Reinhardt" % D.name)
    if method == "reinhardt":
        raise DomainError("the moduli-section reduction needs C^2; %s is in C^%d"
                          % (D.name, D.dim))
    t, dirs = _generic_distance(D, zs)
    return t, zs + t[:, None] * dirs


def _boundary(D, zs, method, dist=True, nearest=False):
    """The distance dispatch over (m, n) rows already known to be interior:
    their distances t if dist, their nearest boundary points xi if nearest,
    and (t, xi) if both.  Under "auto" the domain's dist_fn and nearest_fn
    answer what is asked where it has them; one _search call answers the
    rest."""
    if method not in ("auto", "reinhardt", "generic"):
        raise DomainError("unknown distance method %r" % (method,))
    closed = method == "auto"
    t = D.dist_fn(zs) if dist and closed and D.dist_fn is not None else None
    xi = D.nearest_fn(zs) if nearest and closed and D.nearest_fn is not None else None
    if (dist and t is None) or (nearest and xi is None):
        ts, xs = _search(D, zs, method)
        t = ts if t is None else t
        xi = xs if xi is None else xi
    if not nearest:
        return np.asarray(t, dtype=float)
    return (np.asarray(t, dtype=float), xi) if dist else xi


def boundary_distance(D, z, method="auto"):
    """Euclidean distance from an interior point to the boundary of D.

    method:
      "auto"      use the domain's fast path (closed form / section
                  reduction) when available, otherwise the generic search,
      "reinhardt" force the moduli-section reduction,
      "generic"   force the direction-search optimizer (multi-start
                  minimization of the first-exit radius, each exit
                  root-found by _ray_exit).

    One row of boundary_distance_batch.
    """
    return float(_boundary(D, _interior_rows(D, as_point(z, D.dim)), method)[0])


def boundary_distance_batch(D, zs, method="auto"):
    """boundary_distance over rows of zs, which must all be interior."""
    return _boundary(D, _interior_rows(D, zs), method)


def nearest_boundary_point(D, z, method="auto"):
    """A boundary point xi with |z - xi| within 1e-8 (1+|z|) of dist(z, bd D).

    Ties between equally near boundary points are broken deterministically:
    the first minimizer found under the fixed direction seeding wins.
    """
    return _boundary(D, _interior_rows(D, as_point(z, D.dim)), method, dist=False,
                     nearest=True)[0]


def directional_distance(D, z, v, n_phases=256, refine=True):
    """Radius of the largest affine complex disc through z in direction v.

    delta_D(z; v) = sup { r > 0 : z + (r D) v/|v| is contained in D }.
    Computed by sampling n_phases phases e^{i theta}, root-finding the
    first exit along each phase ray (_ray_exit) and taking the minimum, then
    (optionally) zoom rounds on the phase around each minimizer
    (_zoom_min).  Oracle work uses n_phases=4096 and no refinement.  One
    row of directional_distance_batch.
    """
    z = as_point(z, D.dim)
    v = as_point(v, D.dim)
    return float(directional_distance_batch(D, z[None, :], v[None, :], n_phases, refine)[0])


def directional_distance_batch(D, zs, vs, n_phases=256, refine=True):
    """directional_distance over paired rows of zs, vs; every phase scan
    and zoom round is one ray batch over all rows."""
    zs = _interior_rows(D, zs)
    if not isinstance(n_phases, (int, np.integer)) or n_phases < 1:
        raise DomainError("n_phases must be an integer of at least 1, got %r" % (n_phases,))
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    if vs.shape != zs.shape:
        raise DomainError("directions must pair with the points: %s rows for %s"
                          % (vs.shape, zs.shape))
    if not np.all(np.isfinite(vs)):
        raise DomainError("direction v must be finite")
    nv = np.linalg.norm(vs, axis=-1, keepdims=True)
    if np.any(nv == 0):
        raise DomainError("direction v must be nonzero")
    u = vs / nv

    def exits(theta, best, rows=slice(None)):
        d = np.exp(1j * theta) * u.T[:, rows, None]    # coordinate first: (n, rows, k)
        return _ray_exit(D, zs[rows], d.transpose(1, 2, 0), best)

    theta = 2.0 * math.pi * np.arange(n_phases) / n_phases
    if not refine:
        return exits(theta, math.inf).min(axis=1)
    return _zoom_min(exits, theta, 2.0 * math.pi / n_phases, lookahead=True)[1]


def inward_normal(D, xi):
    """Unit inward normal at a smooth boundary point (n,), or at each of
    (m, n) rows (an (m, n) array).

    Each point needs exactly one active constraint, |g| <= 1e-8 (1 + |xi|),
    with nonvanishing gradient.  At a corner point (>= 2 active
    constraints) or a point the oracle marks non-differentiable, raises
    NonSmoothBoundaryError; gradients are never silently finite-differenced
    across a declared non-smooth point.  A missing gradient is replaced by
    central differences of step 1e-6 (1+|xi|).  One bad row fails the call.
    """
    xi = np.asarray(xi, dtype=complex)
    xs = np.atleast_2d(xi)
    if xs.ndim != 2 or xs.shape[1] != D.dim:
        raise DomainError("expected (n,) or (m, n) points, n = %d: got %s" % (D.dim, xi.shape))
    scale = 1.0 + row_norms(xs)
    active = np.array([np.abs(c(xs)) <= 1e-8 * scale for c in D.constraints])
    count = np.sum(active, axis=0)
    if np.any(count == 0):
        raise DomainError("point is not on the boundary of %s" % D.name)
    if np.any(count > 1):
        raise NonSmoothBoundaryError("non-smooth boundary point: %d active constraints"
                                     % np.max(count))
    g = np.empty(xs.shape, dtype=complex)
    for c, rows in zip(D.constraints, active):
        p = xs[rows]
        if c.smooth is not None and not np.all(c.smooth(p)):
            raise NonSmoothBoundaryError("non-smooth boundary point (oracle-declared)")
        if c.grad is not None:
            g[rows] = c.grad(p)
            continue
        # the stencil z +- h e_j, z +- i h e_j of every row in one call
        h = 1e-6 * (1.0 + row_norms(p))
        e = h[:, None, None] * np.concatenate([np.eye(D.dim), 1j * np.eye(D.dim)])
        f = c(p[:, None, None] + np.stack([e, -e], axis=1))
        der = (f[:, 0] - f[:, 1]) / (2.0 * h)[:, None]
        g[rows] = der[:, :D.dim] + 1j * der[:, D.dim:]
    norm = row_norms(g)
    if np.any(norm < 1e-8):
        raise NonSmoothBoundaryError("vanishing constraint gradient at boundary point")
    eta = -g / norm[:, None]
    return eta if xi.ndim == 2 else eta[0]


# ---------------------------------------------------------------------------
# bundled domains
# ---------------------------------------------------------------------------

def _phi_flat(x):
    """exp(-1/x^2) extended by 0 at x <= 0; flat to all orders at 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        raw = np.exp(-1.0 / np.where(x > 0, x, 1.0) ** 2)
    return np.where(x > 0, raw, 0.0)


def ball(dim=2, center=None, radius=1.0, name=None):
    center = np.zeros(dim, dtype=complex) if center is None else as_point(center, dim)
    r2 = radius * radius

    def g(z):
        return np.sum(np.abs(z - center) ** 2, axis=-1) - r2

    def grad(z):
        return 2.0 * (np.asarray(z, dtype=complex) - center)

    def dist(zs):
        return radius - np.linalg.norm(zs - center, axis=-1)

    def nearest(zs):
        w = zs - center
        nw = row_norms(w)[:, None]
        small = nw < 1e-14
        w = np.where(small, np.eye(1, dim, dtype=complex), w)
        return center + radius * w / np.where(small, 1.0, nw)

    return DomainSpec(name or "ball%d" % dim, dim,
                      [Constraint(g, grad=grad)],
                      is_convex=True, is_reinhardt=(np.all(center == 0)),
                      bounding_radius=float(np.linalg.norm(center) + radius),
                      interior_point=center, dist_fn=dist, nearest_fn=nearest)


def polydisc(radii=(1.0, 1.0)):
    radii = tuple(float(r) for r in radii)
    dim = len(radii)
    cons = []
    for j, r in enumerate(radii):
        def g(z, j=j, r=r):
            return np.abs(z[..., j]) - r

        def grad(z, j=j):
            out = np.zeros(z.shape, dtype=complex)
            out[..., j] = z[..., j] / _moduli(z[..., j])
            return out

        def smooth(z, j=j):
            return _moduli(z[..., j]) > 1e-12

        cons.append(Constraint(g, grad=grad, smooth=smooth))

    def dist(zs):
        return np.min(np.array(radii)[None, :] - np.abs(zs), axis=-1)

    return DomainSpec("polydisc", dim, cons, is_convex=True,
                      is_reinhardt=True,
                      bounding_radius=float(np.linalg.norm(radii)),
                      interior_point=np.zeros(dim, dtype=complex), dist_fn=dist)


def _curve_nearest_1d(xy, T_grid, curve):
    """Nearest point on a parametrized plane curve, batched over rows of xy.

    curve(T) -> (X(T), Y(T)).  The shared parameter grid T_grid is the
    first round of _zoom_min, whose brackets stay inside its ends.
    Returns the distances and the nearest points.
    """
    xy = np.atleast_2d(xy)
    T = np.empty(len(xy))
    d2 = np.empty(len(xy))
    for rows in _row_blocks(len(xy), T_grid.size):
        x, y = xy[rows, 0:1], xy[rows, 1:2]

        def f(T, _):
            X, Y = curve(T)
            return (x - X) ** 2 + (y - Y) ** 2

        T[rows], d2[rows] = _zoom_min(f, T_grid, T_grid[1] - T_grid[0],
                                      T_grid[0], T_grid[-1])
    return np.sqrt(d2), np.stack(curve(T), axis=-1)


def ex21_D():
    """{ (z, w) : |z|^2 + |w| < 1 }; Lipschitz corner circle at |z| = 1, w = 0."""
    def g(z):
        return np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) - 1.0

    def grad(z):
        return np.stack([2.0 * z[..., 0], z[..., 1] / _moduli(z[..., 1])], axis=-1)

    def smooth(z):
        return _moduli(z[..., 1]) > 1e-12

    T = np.linspace(0.0, 1.0, 4097)

    def curve(T):
        return T, 1.0 - T ** 2

    def dist(zs):
        return _curve_nearest_1d(np.abs(zs), T, curve)[0]

    def nearest(zs):
        return _curve_nearest_1d(np.abs(zs), T, curve)[1] * _phases(zs)

    return DomainSpec("ex21_d", 2,
                      [Constraint(g, grad=grad, smooth=smooth)],
                      is_convex=False, is_reinhardt=True, bounding_radius=1.0,
                      interior_point=np.zeros(2, dtype=complex),
                      dist_fn=dist, nearest_fn=nearest)


def ex21_Omega():
    """{ (z, w) : |z| + |w| < 1 }; convex Reinhardt, corners on both axes."""
    def g(z):
        return np.abs(z[..., 0]) + np.abs(z[..., 1]) - 1.0

    def grad(z):
        return z / _moduli(z)

    def smooth(z):
        return np.all(_moduli(z) > 1e-12, axis=-1)

    def dist(zs):
        x = np.abs(zs[..., 0])
        y = np.abs(zs[..., 1])
        return (1.0 - x - y) / math.sqrt(2.0)

    return DomainSpec("ex21_omega", 2,
                      [Constraint(g, grad=grad, smooth=smooth)],
                      is_convex=True, is_reinhardt=True, bounding_radius=1.0,
                      interior_point=np.zeros(2, dtype=complex), dist_fn=dist)


def _wall_distance(zs, profile):
    """Distance to { Re z <= profile(|w|) } from points above the graph.

    The nearest point of that set keeps Im z and the phase of w, so with
    a = Re z, t = |w|, the squared distance is
    min over s >= 0 of (a - profile(s))_+^2 + (t - s)^2.  Because the
    second term alone bounds the cost and the cost at s = t is <= a^2,
    the minimizer satisfies |s - t| <= a; a 2049-point grid on that
    bracket is the first round of _zoom_min, clipped at s = 0.
    """
    zs = np.atleast_2d(zs)
    S = np.linspace(0.0, 1.0, 2049)
    fmin = np.empty(len(zs))
    for rows in _row_blocks(len(zs), S.size):
        av = np.real(zs[rows, 0])
        tv = np.abs(zs[rows, 1])

        def cost(s, _):  # s: (m, K)
            gap = np.maximum(av[:, None] - profile(s), 0.0)
            return gap * gap + (tv[:, None] - s) ** 2

        half = np.abs(av) + 1e-3
        lo0 = np.maximum(tv - half, 0.0)
        hi0 = tv + half
        grid = lo0[:, None] + S[None, :] * (hi0 - lo0)[:, None]
        fmin[rows] = _zoom_min(cost, grid, (hi0 - lo0) / (S.size - 1), lo=0.0)[1]
    return np.sqrt(fmin)


def ex22_D():
    """{ Re z > phi(|w|^2) } cap { |z|^2 + |w|^4 < 1 }, phi(x) = exp(-1/x^2)."""
    def g1(z):
        return _phi_flat(np.abs(z[..., 1]) ** 2) - np.real(z[..., 0])

    def g1_grad(z):
        t = _moduli(z[..., 1]) ** 2
        # d/dw phi(|w|^2) as a real gradient: phi'(t) * 2w, and 0 at w = 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dw = np.where(t > 0, _phi_flat(t) * (2.0 / t ** 3) * 2.0 * z[..., 1], 0.0)
        return np.stack([np.full(t.shape, -1.0 + 0j), dw], axis=-1)

    def g2(z):
        return np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0

    def g2_grad(z):
        return np.stack([2.0 * z[..., 0], 4.0 * _moduli(z[..., 1]) ** 2 * z[..., 1]], axis=-1)

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        d1 = _wall_distance(zs2, lambda s: _phi_flat(s ** 2))
        T = np.linspace(0.0, 1.0, 4097)

        def curve(T):
            return np.sqrt(np.maximum(1.0 - T ** 4, 0.0)), T

        d2, _ = _curve_nearest_1d(np.abs(zs2), T, curve)
        return np.minimum(d1, d2)

    return DomainSpec("ex22_d", 2,
                      [Constraint(g1, grad=g1_grad), Constraint(g2, grad=g2_grad)],
                      is_convex=False, is_reinhardt=False, bounding_radius=1.0,
                      interior_point=np.array([0.5, 0.0], dtype=complex),
                      dist_fn=dist)


def _graph_ball_cap(name, radius, convex, interior):
    """{ Re z > phi(|w|) } cap B^2(0, radius), phi(x) = exp(-1/x^2)."""
    def g1(z):
        return _phi_flat(np.abs(z[..., 1])) - np.real(z[..., 0])

    def g1_grad(z):
        t = _moduli(z[..., 1])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dw = np.where(t > 0, _phi_flat(t) * (2.0 / t ** 3) * z[..., 1] / t, 0.0)
        return np.stack([np.full(t.shape, -1.0 + 0j), dw], axis=-1)

    def g2(z):
        return np.sum(np.abs(z) ** 2, axis=-1) - radius * radius

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        return np.minimum(_wall_distance(zs2, _phi_flat), radius - np.linalg.norm(zs2, axis=-1))

    return DomainSpec(name, 2,
                      [Constraint(g1, grad=g1_grad),
                       Constraint(g2, grad=lambda z: 2.0 * np.asarray(z, dtype=complex))],
                      is_convex=convex, is_reinhardt=False, bounding_radius=radius,
                      interior_point=np.array([interior, 0.0], dtype=complex),
                      dist_fn=dist)


def ex22_Omega():
    """{ Re z > phi(|w|) } cap B^2(0, 1), phi(x) = exp(-1/x^2)."""
    return _graph_ball_cap("ex22_omega", 1.0, False, 0.5)


def ex22_Omega_local():
    """The convex localization B^2(0, 0.75) cap ex22_Omega: the graph
    constraint is convex where |w| <= sqrt(2/3) ~ 0.816, and the ball
    keeps |w| below that.
    """
    return _graph_ball_cap("ex22_omega_local", 0.75, True, 0.3)


HALFSPACE_RADIUS = 4.0   # radius of the ball that truncates halfspace()


def halfspace(normal, offset=0.0, name="halfspace"):
    """{ z : Re<z, normal> < offset } truncated to the ball of radius
    HALFSPACE_RADIUS."""
    normal = np.asarray(normal, dtype=complex)
    nn = normal / np.linalg.norm(normal)

    def g1(z):
        return np.real(hermitian_inner(z, nn)) - offset

    def g2(z):
        return np.linalg.norm(z, axis=-1) ** 2 - HALFSPACE_RADIUS ** 2

    def dist(zs):
        zs = np.atleast_2d(zs)
        to_plane = offset - np.real(hermitian_inner(zs, nn))
        to_sphere = HALFSPACE_RADIUS - np.linalg.norm(zs, axis=-1)
        return np.minimum(to_plane, to_sphere)

    return DomainSpec(name, normal.size,
                      [Constraint(g1, grad=lambda z: np.broadcast_to(nn, np.shape(z))),
                       Constraint(g2, grad=lambda z: 2.0 * np.asarray(z, dtype=complex))],
                      is_convex=True, bounding_radius=HALFSPACE_RADIUS,
                      interior_point=(offset - 1.0) * nn, dist_fn=dist)


BUNDLED = {
    "ball2": ball,
    "polydisc": polydisc,
    "ex21_d": ex21_D,
    "ex21_omega": ex21_Omega,
    "ex22_d": ex22_D,
    "ex22_omega": ex22_Omega,
    "ex22_omega_local": ex22_Omega_local,
}


def bundled_domain(name):
    key = name.lower()
    if key not in BUNDLED:
        raise DomainError("unknown bundled domain %r (have: %s)"
                          % (name, ", ".join(sorted(BUNDLED))))
    return BUNDLED[key]()
