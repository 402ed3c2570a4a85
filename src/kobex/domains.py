"""Domains in C^n given by defining-function oracles, and their Euclidean
boundary geometry: interior tests, boundary distance, directional boundary
distance, nearest boundary points, inward normals, and interior-cone
certificates.

Conventions used throughout the package:

* a point of C^n is a numpy array of shape (n,) and dtype complex128;
  batches of points are arrays of shape (..., n),
* the norm of a point is the Euclidean norm of the corresponding real
  2n-vector, which is exactly ``np.linalg.norm`` on the complex vector,
* a constraint oracle maps an (..., n) complex array to an (...,) real
  array; the domain interior is where every constraint is < 0,
* the Hermitian inner product is ``<a, b> = sum_j a_j * conj(b_j)``.

Constraint oracles for the bundled domains are vectorized numpy code.
User-supplied oracles must accept batched input in the same way.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc


class DomainError(ValueError):
    """Bad domain data or a point outside the required region."""


class NonSmoothBoundaryError(DomainError):
    """A gradient was requested at a non-differentiable boundary point."""


class ConvergenceError(RuntimeError):
    """An iterative geometric computation failed to converge."""


CONE_MC_POINTS = 100_000


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


@dataclass
class Constraint:
    """One scalar defining inequality g < 0.

    ``grad`` (optional) returns the real gradient encoded as a complex
    vector, ``grad_j = dg/dx_j + i dg/dy_j`` for z_j = x_j + i y_j.
    ``smooth`` (optional) reports whether g is differentiable at a point;
    when it returns False the gradient is *never* finite-differenced.
    """
    fn: callable
    grad: callable = None
    smooth: callable = None
    label: str = ""

    def __call__(self, z):
        return np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=float)


@dataclass
class DomainSpec:
    """A domain in C^n: interior = { z : g_i(z) < 0 for all i }."""
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
        vals = np.stack([c(z) for c in self.constraints], axis=0)
        return np.max(vals, axis=0)

    def active_constraints(self, z, tol=1e-8):
        z = as_point(z, self.dim)
        scale = 1.0 + np.linalg.norm(z)
        return [i for i, c in enumerate(self.constraints)
                if abs(float(c(z))) <= tol * scale]


def contains(D, z):
    """True iff every defining inequality is strict at z.  Batched."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != D.dim:
        raise DomainError("dimension mismatch")
    return D.value(z) < 0.0


# ---------------------------------------------------------------------------
# ray casting: first exit radius along rays, fully vectorized over rays
# ---------------------------------------------------------------------------

def _ray_exit(D, z, dirs, march_steps=128, iters=64):
    """First boundary crossing t > 0 along z + t*dirs (unit complex rows).

    z: (n,) or (m, n); dirs: (m, n).  Returns t of shape (m,).
    For convex domains the inside set along a ray is an interval, so a
    single bisection against the bounding cap suffices; otherwise the ray
    is marched to bracket the first exit.
    """
    dirs = np.asarray(dirs, dtype=complex)
    z = np.broadcast_to(np.asarray(z, dtype=complex), dirs.shape)
    m = dirs.shape[0]
    if not math.isfinite(D.bounding_radius):
        raise DomainError("domain %r has no bounding radius; rays may not exit" % D.name)
    cap = float(np.max(np.linalg.norm(z, axis=-1))) + 2.0 * D.bounding_radius + 1.0

    lo = np.zeros(m)
    hi = np.full(m, cap)
    if not D.is_convex:
        found = np.zeros(m, dtype=bool)
        step = cap / march_steps
        t_prev = np.zeros(m)
        for k in range(1, march_steps + 1):
            t = np.full(m, k * step)
            inside = contains(D, z + t[:, None] * dirs)
            newly = (~inside) & (~found)
            lo[newly] = t_prev[newly]
            hi[newly] = t[newly]
            found |= newly
            t_prev = t
            if found.all():
                break
        if not found.all():
            raise ConvergenceError("ray march found no exit within the bounding cap")
    lo, hi = _bisect(lambda t: contains(D, z + t[:, None] * dirs), lo, hi, iters)
    return 0.5 * (lo + hi)


def _bisect(inside, lo, hi, iters):
    """Bisection keeping inside(lo) true and inside(hi) false.

    Brackets may be scalars or float arrays (one independent search per
    element, inside evaluated once per round on all of them).  Array
    brackets are updated in place, so a caller's ray batch is not held
    twice; scalars come back as 0-d arrays.  Returns the final (lo, hi).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = np.asarray(inside(mid))
        np.copyto(lo, mid, where=ok)
        np.copyto(hi, mid, where=~ok)
    return lo, hi


def _sphere_directions(k, real_dim, seed=0):
    """k deterministic low-discrepancy directions on S^(real_dim-1)."""
    if real_dim == 2:
        ang = 2.0 * math.pi * (np.arange(k) + 0.5) / k
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    halton = qmc.Halton(d=real_dim, scramble=False, seed=seed)
    from scipy.special import ndtri
    u = halton.random(k + 1)[1:]  # drop the all-zero first sample
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _real_to_complex(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def _complex_to_real(z):
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a, b, iters):
    """Golden-section search for a minimizer of f on [a, b].

    Brackets may be scalars or arrays (one independent search per element,
    f evaluated once per round on all of them).  Scalars select with a
    plain conditional, since np.where on 0-d values costs more than a cheap
    f.  Ties f1 == f2 keep the right-hand interior point.  Returns the
    midpoint of the final bracket and min(f1, f2) at its interior points.
    """
    pick = np.where if np.ndim(a) else (lambda c, x, y: x if c else y)
    c1 = b - _INVPHI * (b - a)
    c2 = a + _INVPHI * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        take1 = f1 < f2
        b = pick(take1, c2, b)
        a = pick(take1, a, c1)
        c1n = pick(take1, b - _INVPHI * (b - a), c2)
        c2n = pick(take1, c1, a + _INVPHI * (b - a))
        fnew = f(pick(take1, c1n, c2n))
        f1, f2 = pick(take1, fnew, f2), pick(take1, f1, fnew)
        c1, c2 = c1n, c2n
    return 0.5 * (a + b), np.minimum(f1, f2)


def _generic_distance(D, z, n_dirs=512, refine_starts=3, rounds=30):
    """min over real directions of the first-exit radius = dist to complement.

    Coarse low-discrepancy scan of the direction sphere, then batched
    pattern search around the best few starts: each round evaluates a fan
    of perturbed directions in one vectorized exit computation and halves
    the perturbation radius.  The exit radius is quadratically flat in the
    direction at the minimizer, so direction accuracy 1e-6 reaches
    distance accuracy well beyond 1e-10 relative.
    """
    z = as_point(z, D.dim)
    real_dim = 2 * D.dim
    dirs_r = _sphere_directions(n_dirs, real_dim)
    t = _ray_exit(D, z, _real_to_complex(dirs_r))
    order = np.argsort(t)[:refine_starts]

    fan = np.concatenate([np.eye(real_dim), -np.eye(real_dim),
                          _sphere_directions(real_dim, real_dim, seed=1)], axis=0)
    best_t = float(t[order[0]])
    best_dir = _real_to_complex(dirs_r[order[0]])
    for idx in order:
        u = dirs_r[idx]
        tu = float(t[idx])
        rad = 4.0 / n_dirs ** (1.0 / (real_dim - 1))
        for _ in range(rounds):
            cand = u[None, :] + rad * fan
            cand = cand / np.linalg.norm(cand, axis=-1, keepdims=True)
            tc = _ray_exit(D, z, _real_to_complex(cand))
            k = int(np.argmin(tc))
            if tc[k] < tu:
                u = cand[k]
                tu = float(tc[k])
            else:
                rad *= 0.5
            if rad < 1e-7:
                break
        if tu < best_t:
            best_t = tu
            best_dir = _real_to_complex(u)
    return best_t, best_dir


def _moduli_section_distance(D, x, n_angles=256, refine_iters=60):
    """Distance within the real moduli section, batched over rows of x.

    For a Reinhardt domain the distance from z to the complement equals the
    distance from (|z_1|, ..., |z_n|) to the complement of the real section
    { x in R^n : g(|x_1|, ..., |x_n|) < 0 }, attained at a point with the
    same coordinate phases.  The section is explored with the same
    first-exit construction, in R^n instead of R^2n.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    if n != 2:
        # fall back: treat section points as complex with zero imaginary part
        out = np.empty(m)
        dirs_out = np.empty((m, n))
        for i in range(m):
            t, d = _generic_distance(D, x[i].astype(complex))
            out[i] = t
            dirs_out[i] = d.real
        return out, dirs_out

    angles = 2.0 * math.pi * (np.arange(n_angles) + 0.5) / n_angles
    base = np.stack([np.cos(angles), np.sin(angles)], axis=-1)  # (K, 2)
    # flatten points x angles
    zz = np.repeat(x, n_angles, axis=0).astype(complex)
    dd = np.tile(base, (m, 1)).astype(complex)
    t = _ray_exit(D, zz, dd).reshape(m, n_angles)
    kbest = np.argmin(t, axis=1)

    # golden-section refinement of the angle around each per-point minimizer
    span = 2.0 * math.pi / n_angles

    def exit_for(theta):
        d = np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)
        return _ray_exit(D, x.astype(complex), d)

    theta, _ = _golden_min(exit_for, angles[kbest] - span, angles[kbest] + span,
                           refine_iters)
    tstar = exit_for(theta)
    tstar = np.minimum(tstar, t[np.arange(m), kbest])
    dstar = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return tstar, dstar


def _route(D, method, fast):
    """The distance dispatch: "fast" when method is "auto" and the domain
    has the closed form `fast` (its dist_fn or nearest_fn), "section" for
    the moduli-section reduction of a Reinhardt domain, else "generic"."""
    if method not in ("auto", "reinhardt", "generic"):
        raise DomainError("unknown distance method %r" % (method,))
    if method == "auto" and fast is not None:
        return "fast"
    if method in ("auto", "reinhardt") and D.is_reinhardt:
        return "section"
    if method == "reinhardt":
        raise DomainError("%s is not flagged Reinhardt" % D.name)
    return "generic"


def boundary_distance(D, z, method="auto"):
    """Euclidean distance from an interior point to the boundary of D.

    method:
      "auto"      use the domain's fast path (closed form / section
                  reduction) when available, otherwise the generic search,
      "reinhardt" force the moduli-section reduction,
      "generic"   force the direction-search optimizer (multi-start
                  first-exit minimization refined by bisection).

    One row of boundary_distance_batch.
    """
    z = as_point(z, D.dim)
    if not bool(contains(D, z)):
        raise DomainError("point is outside the closure of %s" % D.name)
    return float(boundary_distance_batch(D, z[None, :], method)[0])


def boundary_distance_batch(D, zs, method="auto"):
    """boundary_distance over rows of zs.

    Rows are not checked to be interior: path integration calls this
    thousands of times per path on trial points that may leave D, and a
    membership check there costs twice the fast distance it guards.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    route = _route(D, method, D.dist_fn)
    if route == "fast":
        return np.asarray(D.dist_fn(zs), dtype=float)
    if route == "section":
        return _moduli_section_distance(D, np.abs(zs))[0]
    return np.array([_generic_distance(D, z)[0] for z in zs])


def nearest_boundary_point(D, z, method="auto"):
    """A boundary point xi with |z - xi| within 1e-8 (1+|z|) of dist(z, bd D).

    Ties between equally near boundary points are broken deterministically:
    the first minimizer found under the fixed direction seeding wins.
    """
    z = as_point(z, D.dim)
    if not bool(contains(D, z)):
        raise DomainError("point is outside the closure of %s" % D.name)
    route = _route(D, method, D.nearest_fn)
    if route == "fast":
        return D.nearest_fn(z)
    if route == "section":
        x = np.abs(z)
        t, d = _moduli_section_distance(D, x[None, :])
        sect = x + t[0] * d[0]
        phases = np.where(np.abs(z) > 1e-14, z / np.where(np.abs(z) > 1e-14, np.abs(z), 1.0), 1.0)
        return sect * phases
    t, direction = _generic_distance(D, z)
    # polish the crossing along the found direction
    tt = _ray_exit(D, z, direction[None, :], iters=100)[0]
    return z + tt * direction


def directional_distance(D, z, v, n_phases=256, refine=True):
    """Radius of the largest affine complex disc through z in direction v.

    delta_D(z; v) = sup { r > 0 : z + (r D) v/|v| is contained in D }.
    Computed by sampling phases e^{i theta}, bisecting to the first exit
    along each phase ray, taking the minimum, then (optionally) refining
    the phase by golden section around the minimizer.  Oracle work uses
    n_phases=4096 and no refinement.  One row of directional_distance_batch.
    """
    z = as_point(z, D.dim)
    v = as_point(v, D.dim)
    return float(directional_distance_batch(D, z[None, :], v[None, :], n_phases,
                                            refine, refine_iters=60)[0])


def directional_distance_batch(D, zs, vs, n_phases=256, refine=True, refine_iters=50):
    """directional_distance over paired rows of zs, vs; one big ray batch,
    then refine_iters golden-section rounds on all rows at once."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    if not np.all(contains(D, zs)):
        raise DomainError("point is outside the closure of %s" % D.name)
    if n_phases < 1:
        raise DomainError("n_phases must be at least 1, got %r" % (n_phases,))
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    m = zs.shape[0]
    nv = np.linalg.norm(vs, axis=-1, keepdims=True)
    if np.any(nv == 0):
        raise DomainError("direction v must be nonzero")
    u = vs / nv
    theta = 2.0 * math.pi * np.arange(n_phases) / n_phases
    phases = np.exp(1j * theta)
    dirs = (phases[None, :, None] * u[:, None, :]).reshape(m * n_phases, -1)
    zz = np.repeat(zs, n_phases, axis=0)
    t = _ray_exit(D, zz, dirs).reshape(m, n_phases)
    best = t.min(axis=1)
    if not refine:
        return best
    kbest = np.argmin(t, axis=1)
    span = 2.0 * math.pi / n_phases

    def exit_for(th):
        d = np.exp(1j * th)[:, None] * u
        return _ray_exit(D, zs, d)

    _, fmin = _golden_min(exit_for, theta[kbest] - span, theta[kbest] + span,
                          refine_iters)
    return np.minimum(best, fmin)


def inward_normal(D, xi, active_tol=1e-8, fd_step=None):
    """Unit inward normal at a smooth boundary point.

    Requires exactly one active constraint with nonvanishing gradient.
    At corner points (>= 2 active constraints) or points the oracle marks
    non-differentiable, raises NonSmoothBoundaryError; gradients are never
    silently finite-differenced across a declared non-smooth point.
    """
    xi = as_point(xi, D.dim)
    active = D.active_constraints(xi, tol=active_tol)
    if len(active) == 0:
        raise DomainError("point is not on the boundary of %s" % D.name)
    if len(active) > 1:
        raise NonSmoothBoundaryError("non-smooth boundary point: %d active constraints"
                                     % len(active))
    c = D.constraints[active[0]]
    if c.smooth is not None and not bool(c.smooth(xi)):
        raise NonSmoothBoundaryError("non-smooth boundary point (oracle-declared)")
    if c.grad is not None:
        g = np.asarray(c.grad(xi), dtype=complex)
    else:
        h = fd_step if fd_step is not None else 1e-6 * (1.0 + np.linalg.norm(xi))
        g = np.zeros(D.dim, dtype=complex)
        for j in range(D.dim):
            for part, unit in ((1.0, 1.0), (1j, 1j)):
                e = np.zeros(D.dim, dtype=complex)
                e[j] = unit * h
                der = (float(c(xi + e)) - float(c(xi - e))) / (2.0 * h)
                g[j] += der * part
    norm = np.linalg.norm(g)
    if norm < 1e-8:
        raise NonSmoothBoundaryError("vanishing constraint gradient at boundary point")
    return -g / norm


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@dataclass
class ConeSpec:
    """Open right circular cone: vertex + { z : Re<z, axis> > cos(theta/2)|z| },
    truncated to |z - vertex| < radius."""
    vertex: np.ndarray
    axis: np.ndarray
    aperture: float
    radius: float = math.inf

    def __post_init__(self):
        self.vertex = np.asarray(self.vertex, dtype=complex)
        self.axis = np.asarray(self.axis, dtype=complex)
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise DomainError("cone axis must be a unit vector")
        if not (0.0 < self.aperture < math.pi):
            raise DomainError("aperture must lie in (0, pi)")


def cone_contains(cone, z):
    """Strict membership in the (truncated) cone.  Batched over z."""
    z = np.asarray(z, dtype=complex)
    w = z - cone.vertex
    r = np.linalg.norm(w, axis=-1)
    lhs = np.real(hermitian_inner(w, cone.axis))
    ok = lhs > math.cos(cone.aperture / 2.0) * r
    if math.isfinite(cone.radius):
        ok = ok & (r < cone.radius)
    return ok


@dataclass
class ConeCertificate:
    r: float
    theta: float
    witnesses: list           # (sample w, boundary point xi_w, direction v_w)
    violation_count: int
    violations: list = field(default_factory=list)


def _cone_ball_points(rng, vertex, axis, theta, r, count):
    """Deterministic interior samples of (vertex + cone(axis, theta)) cap B(vertex, r).

    Polar angles are biased toward the cone edge, radii toward r, so that
    near-violations at the certificate boundary are probed hard.
    """
    n = vertex.size
    rd = 2 * n
    g = rng.standard_normal((count, rd))
    g = g / np.linalg.norm(g, axis=-1, keepdims=True)
    ax = _complex_to_real(axis)
    # component orthogonal to the axis
    perp = g - (g @ ax)[:, None] * ax[None, :]
    pn = np.linalg.norm(perp, axis=-1, keepdims=True)
    perp = np.where(pn > 1e-12, perp / np.where(pn > 1e-12, pn, 1.0), 0.0)
    u = rng.random(count)
    alpha = (theta / 2.0) * (1.0 - u ** 3)      # clusters near the edge
    dirs = np.cos(alpha)[:, None] * ax[None, :] + np.sin(alpha)[:, None] * perp
    s = r * rng.random(count) ** (1.0 / (2 * n))  # clusters near radius r
    pts = _complex_to_real(vertex)[None, :] + s[:, None] * dirs
    return _real_to_complex(pts)


def certify_cone_condition(D, W, samples, theta_min=1e-3, r_cap=None,
                           mc_points=CONE_MC_POINTS, search_points=4096,
                           bisect_iters=24, seed=0):
    """Search for the largest (r, theta) such that for every sample w the
    truncated cone from its nearest boundary point xi_w along
    v_w = (w - xi_w)/|w - xi_w| stays inside W cap D (Monte-Carlo check,
    zero tolerated violations), with w on the cone axis and |w - xi_w| < r.

    Samples admitting no cone at theta_min are recorded as violations and
    excluded from the common certificate.
    """
    samples = [as_point(w, D.dim) for w in samples]
    witnesses = []
    for w in samples:
        if not bool(contains(D, w)) or not bool(contains(W, w)):
            raise DomainError("cone samples must lie in W cap D")
        xi = nearest_boundary_point(D, w)
        gap = np.linalg.norm(w - xi)
        if gap < 1e-14:
            raise DomainError("sample coincides with its boundary projection")
        witnesses.append((w, xi, (w - xi) / gap))
    r_needed = max(np.linalg.norm(w - xi) for w, xi, _ in witnesses) * (1.0 + 1e-9)
    if r_cap is None:
        r_cap = 4.0 * r_needed
    r_cap = max(r_cap, r_needed)

    def feasible(theta, r, count):
        rng = np.random.default_rng(seed)
        for w, xi, v in witnesses:
            pts = _cone_ball_points(rng, xi, v, theta, r, count)
            if not (np.all(contains(D, pts)) and np.all(contains(W, pts))):
                return False
        return True

    violations = []
    keep = []
    for trip in witnesses:
        rng = np.random.default_rng(seed)
        w, xi, v = trip
        pts = _cone_ball_points(rng, xi, v, theta_min,
                                np.linalg.norm(w - xi) * (1 + 1e-9), search_points)
        if np.all(contains(D, pts)) and np.all(contains(W, pts)):
            keep.append(trip)
        else:
            violations.append(trip)
    if not keep:
        return ConeCertificate(0.0, 0.0, [], len(violations), violations)
    witnesses = keep

    if not feasible(theta_min, r_needed, search_points):
        return ConeCertificate(0.0, 0.0, witnesses, len(violations) + 1, violations)
    theta = float(_bisect(lambda th: feasible(th, r_needed, search_points),
                          theta_min, math.pi - 1e-6, bisect_iters)[0])

    r = r_cap
    if not feasible(theta, r, search_points):
        r = float(_bisect(lambda rr: feasible(theta, rr, search_points),
                          r_needed, r_cap, bisect_iters)[0])

    # final certification at full Monte-Carlo resolution, with backoff
    for _ in range(8):
        if feasible(theta, r, mc_points):
            break
        theta *= 0.97
        r = max(r_needed, 0.97 * r)
    else:
        raise ConvergenceError("cone certificate failed full-resolution verification")
    return ConeCertificate(float(r), float(theta), witnesses, len(violations), violations)


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

    def nearest(z):
        w = z - center
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            w = np.zeros(dim, dtype=complex)
            w[0] = 1.0
            nw = 1.0
        return center + radius * w / nw

    return DomainSpec(name or "ball%d" % dim, dim,
                      [Constraint(g, grad=grad, label="|z-c|^2-r^2")],
                      is_convex=True, is_reinhardt=(np.all(center == 0)),
                      bounding_radius=float(np.linalg.norm(center) + radius),
                      interior_point=center, dist_fn=dist, nearest_fn=nearest)


def polydisc(radii=(1.0, 1.0), name=None):
    radii = tuple(float(r) for r in radii)
    dim = len(radii)
    cons = []
    for j, r in enumerate(radii):
        def g(z, j=j, r=r):
            return np.abs(z[..., j]) - r

        def grad(z, j=j):
            out = np.zeros(dim, dtype=complex)
            out[j] = z[j] / abs(z[j])
            return out

        def smooth(z, j=j):
            return abs(z[j]) > 1e-12

        cons.append(Constraint(g, grad=grad, smooth=smooth, label="|z%d|-r" % (j + 1)))

    def dist(zs):
        return np.min(np.array(radii)[None, :] - np.abs(zs), axis=-1)

    return DomainSpec(name or "polydisc", dim, cons, is_convex=True,
                      is_reinhardt=True,
                      bounding_radius=float(np.linalg.norm(radii)),
                      interior_point=np.zeros(dim, dtype=complex), dist_fn=dist)


def _curve_nearest_1d(xy, T_grid, curve, refine_iters=80):
    """Nearest point on a parametrized plane curve, batched over rows of xy.

    curve(T) -> (X(T), Y(T)); dense grid then golden refinement.
    """
    xy = np.atleast_2d(xy)
    X, Y = curve(T_grid)
    d2 = (xy[:, 0:1] - X[None, :]) ** 2 + (xy[:, 1:2] - Y[None, :]) ** 2
    k = np.argmin(d2, axis=1)
    step = T_grid[1] - T_grid[0]
    a = np.clip(T_grid[k] - step, T_grid[0], T_grid[-1])
    b = np.clip(T_grid[k] + step, T_grid[0], T_grid[-1])

    def f(T):
        X, Y = curve(T)
        return (xy[:, 0] - X) ** 2 + (xy[:, 1] - Y) ** 2

    T, _ = _golden_min(f, a, b, refine_iters)
    X, Y = curve(T)
    return np.sqrt(f(T)), np.stack([X, Y], axis=-1)


def ex21_D(name="ex21_d"):
    """{ (z, w) : |z|^2 + |w| < 1 }; Lipschitz corner circle at |z| = 1, w = 0."""
    def g(z):
        return np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) - 1.0

    def grad(z):
        return np.array([z[0], 0.5 * z[1] / abs(z[1])], dtype=complex)

    def smooth(z):
        return abs(z[1]) > 1e-12

    T = np.linspace(0.0, 1.0, 4097)

    def curve(T):
        return T, 1.0 - T ** 2

    def dist(zs):
        xy = np.stack([np.abs(zs[..., 0]), np.abs(zs[..., 1])], axis=-1)
        d, _ = _curve_nearest_1d(xy, T, curve)
        return d

    def nearest(z):
        xy = np.array([[abs(z[0]), abs(z[1])]])
        _, pt = _curve_nearest_1d(xy, T, curve)
        ph = np.array([z[0] / abs(z[0]) if abs(z[0]) > 1e-14 else 1.0,
                       z[1] / abs(z[1]) if abs(z[1]) > 1e-14 else 1.0])
        return pt[0] * ph

    return DomainSpec(name, 2, [Constraint(g, grad=grad, smooth=smooth,
                                           label="|z|^2+|w|-1")],
                      is_convex=False, is_reinhardt=True, bounding_radius=1.0,
                      interior_point=np.zeros(2, dtype=complex),
                      dist_fn=dist, nearest_fn=nearest)


def ex21_Omega(name="ex21_omega"):
    """{ (z, w) : |z| + |w| < 1 }; convex Reinhardt, corners on both axes."""
    def g(z):
        return np.abs(z[..., 0]) + np.abs(z[..., 1]) - 1.0

    def grad(z):
        return np.array([0.5 * z[0] / abs(z[0]), 0.5 * z[1] / abs(z[1])],
                        dtype=complex)

    def smooth(z):
        return abs(z[0]) > 1e-12 and abs(z[1]) > 1e-12

    def dist(zs):
        x = np.abs(zs[..., 0])
        y = np.abs(zs[..., 1])
        return (1.0 - x - y) / math.sqrt(2.0)

    return DomainSpec(name, 2, [Constraint(g, grad=grad, smooth=smooth,
                                           label="|z|+|w|-1")],
                      is_convex=True, is_reinhardt=True, bounding_radius=1.0,
                      interior_point=np.zeros(2, dtype=complex), dist_fn=dist)


def _wall_distance(zs, profile):
    """Distance to { Re z <= profile(|w|) } from points above the graph.

    The nearest point of that set keeps Im z and the phase of w, so with
    a = Re z, t = |w|, the squared distance is
    min over s >= 0 of (a - profile(s))_+^2 + (t - s)^2.  Because the
    second term alone bounds the cost and the cost at s = t is <= a^2,
    the minimizer satisfies |s - t| <= a; a grid on that bracket followed
    by golden refinement is exact to solver precision.
    """
    zs = np.atleast_2d(zs)
    av = np.real(zs[..., 0])
    tv = np.abs(zs[..., 1])

    def cost(s):  # s: (m,) or (m, K); broadcasting against av, tv columns
        if s.ndim == 2:
            gap = np.maximum(av[:, None] - profile(s), 0.0)
            return gap * gap + (tv[:, None] - s) ** 2
        gap = np.maximum(av - profile(s), 0.0)
        return gap * gap + (tv - s) ** 2

    half = np.abs(av) + 1e-3
    lo0 = np.maximum(tv - half, 0.0)
    hi0 = tv + half
    S = np.linspace(0.0, 1.0, 2049)
    grid = lo0[:, None] + S[None, :] * (hi0 - lo0)[:, None]
    vals = cost(grid)
    rows = np.arange(zs.shape[0])
    k = np.argmin(vals, axis=1)
    step = (hi0 - lo0) / (S.size - 1)
    _, fmin = _golden_min(cost, np.maximum(grid[rows, k] - step, 0.0),
                          grid[rows, k] + step, 70)
    return np.sqrt(fmin)


def ex22_D(name="ex22_d"):
    """{ Re z > phi(|w|^2) } cap { |z|^2 + |w|^4 < 1 }, phi(x) = exp(-1/x^2)."""
    def g1(z):
        return _phi_flat(np.abs(z[..., 1]) ** 2) - np.real(z[..., 0])

    def g1_grad(z):
        t = abs(z[1]) ** 2
        out = np.array([-1.0, 0.0], dtype=complex)
        if t > 0:
            # d/dw phi(|w|^2) as a real gradient: phi'(t) * 2w
            out[1] = _phi_flat(np.array(t)) * (2.0 / t ** 3) * 2.0 * z[1]
        return out

    def g2(z):
        return np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0

    def g2_grad(z):
        return np.array([2.0 * z[0], 4.0 * abs(z[1]) ** 2 * z[1]], dtype=complex)

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        d1 = _wall_distance(zs2, lambda s: _phi_flat(s ** 2))
        xy = np.stack([np.abs(zs2[..., 0]), np.abs(zs2[..., 1])], axis=-1)
        T = np.linspace(0.0, 1.0, 4097)

        def curve(T):
            return np.sqrt(np.maximum(1.0 - T ** 4, 0.0)), T

        d2, _ = _curve_nearest_1d(xy, T, curve)
        return np.minimum(d1, d2)

    return DomainSpec(name, 2,
                      [Constraint(g1, grad=g1_grad, label="phi(|w|^2)-Re z"),
                       Constraint(g2, grad=g2_grad, label="|z|^2+|w|^4-1")],
                      is_convex=False, is_reinhardt=False, bounding_radius=1.0,
                      interior_point=np.array([0.5, 0.0], dtype=complex),
                      dist_fn=dist)


def ex22_Omega(name="ex22_omega"):
    """{ Re z > phi(|w|) } cap B^2(0, 1), phi(x) = exp(-1/x^2)."""
    def g1(z):
        return _phi_flat(np.abs(z[..., 1])) - np.real(z[..., 0])

    def g1_grad(z):
        t = abs(z[1])
        out = np.array([-1.0, 0.0], dtype=complex)
        if t > 0:
            out[1] = _phi_flat(np.array(t)) * (2.0 / t ** 3) * z[1] / t
        return out

    def g2(z):
        return np.sum(np.abs(z) ** 2, axis=-1) - 1.0

    def g2_grad(z):
        return 2.0 * np.asarray(z, dtype=complex)

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        d1 = _wall_distance(zs2, _phi_flat)
        d2 = 1.0 - np.linalg.norm(zs2, axis=-1)
        return np.minimum(d1, d2)

    return DomainSpec(name, 2,
                      [Constraint(g1, grad=g1_grad, label="phi(|w|)-Re z"),
                       Constraint(g2, grad=g2_grad, label="|z|^2+|w|^2-1")],
                      is_convex=False, is_reinhardt=False, bounding_radius=1.0,
                      interior_point=np.array([0.5, 0.0], dtype=complex),
                      dist_fn=dist)


def ex22_Omega_local(radius=0.75, name="ex22_omega_local"):
    """The convex localization B^2(0, radius) cap ex22_Omega.

    Convex for radius <= 0.81: the graph constraint is convex where
    |w| <= sqrt(2/3), and the ball cap keeps |w| below that.
    """
    base = ex22_Omega()
    g1 = base.constraints[0]

    def g2(z):
        return np.sum(np.abs(z) ** 2, axis=-1) - radius * radius

    def g2_grad(z):
        return 2.0 * np.asarray(z, dtype=complex)

    def dist(zs):
        zs2 = np.atleast_2d(zs)
        d1 = _wall_distance(zs2, _phi_flat)
        d2 = radius - np.linalg.norm(zs2, axis=-1)
        return np.minimum(d1, d2)

    return DomainSpec(name, 2,
                      [Constraint(g1.fn, grad=g1.grad, label=g1.label),
                       Constraint(g2, grad=g2_grad, label="|z|^2-r^2")],
                      is_convex=True, is_reinhardt=False, bounding_radius=radius,
                      interior_point=np.array([0.3, 0.0], dtype=complex),
                      dist_fn=dist)


def halfspace(normal, offset=0.0, truncate=4.0, name="halfspace"):
    """{ z : Re<z, normal> < offset } truncated to a bounding ball."""
    normal = np.asarray(normal, dtype=complex)
    nn = normal / np.linalg.norm(normal)

    def g1(z):
        return np.real(hermitian_inner(z, nn)) - offset

    def g2(z):
        return np.linalg.norm(z, axis=-1) ** 2 - truncate ** 2

    def dist(zs):
        zs = np.atleast_2d(zs)
        to_plane = offset - np.real(hermitian_inner(zs, nn))
        to_sphere = truncate - np.linalg.norm(zs, axis=-1)
        return np.minimum(to_plane, to_sphere)

    return DomainSpec(name, normal.size,
                      [Constraint(g1, grad=lambda z: nn, label="Re<z,n> - c"),
                       Constraint(g2, grad=lambda z: 2.0 * np.asarray(z, dtype=complex),
                                  label="|z|^2-R^2")],
                      is_convex=True, bounding_radius=truncate,
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
