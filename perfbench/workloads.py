"""The benchmark's three workloads: inputs made from the seed, the
operations of one pass, and the reference check of every result.

Each operation returns an Op: its latency (the kobex call only), the
reference time around it (calibration.py), the units it attempted and
failed, and the rows it completed.  An operation fails when it raises,
gets a failed verdict, produces report bytes that differ between passes,
or gives a result outside its reference tolerance.  Tolerances are those
of the test suite or tighter.

The timed operations are ones that pass today.  The queries that hit a
KNOWN_DEFECTS entry are kept out of the timed stream and run once per
run as probes (PointQueries.run_probes), whose outcome the run record
reports: reproduced, fixed, or unexpected.
"""

import contextlib
import io
import math
import re
import traceback
from dataclasses import dataclass

import numpy as np

from calibration import timed

# Test-suite tolerances (tests/test_acceptance.py, tests/test_domains.py,
# tests/test_metrics.py): rel 1e-6 on directional distances and the ball
# sandwich (criterion 1), delta(z) <= delta(z; v) + 1e-9, path >= exact - 1e-9,
# and 1e-8 (1 + |z|) on delta(z) and on |xi - z| of the nearest boundary point,
# both sides, which is also the error bound the distance command prints.
REL_TOL = 1e-6
SIDE_TOL = 1e-9


def position_tol(z):
    return 1e-8 * (1.0 + np.linalg.norm(z, axis=-1))


# Known defects, probed once per run.  A probe that misses in exactly this
# way reproduces the defect.  Each maps to the largest relative
# overestimate it can explain; an underestimate, an exception or unparsable
# output is never a known defect and makes the run incorrect.
KNOWN_DEFECTS = {
    # The fixed-step ray march steps over the 0.01-wide slab of slab2 and
    # reports 0.5054 instead of 0.495 (ROADMAP "Ray exits that cannot tunnel").
    "slab2-tunnel": 0.03,
    # The generic direction search settles on a direction whose first exit
    # lies beyond delta(z): seen on polydisc and the ex22 domains at about
    # one seed in four, by up to 0.12 % of delta(z).
    "generic-overshoot": 0.01,
}
OVERSHOOT_DOMAINS = ("polydisc", "ex22_d", "ex22_omega", "ex22_omega_local")

# Wall-clock budgets that four scenario reports assert, enforced here as gates.
SCENARIO_BUDGET_S = {"ball-sandwich": 10.0, "embedding-suite": 30.0,
                     "extension-oracle": 60.0}
LAGRANGE_GRID_BUDGET_S = 5.0   # traced psh.nearest_point_cubic inside example21

SQRT2 = math.sqrt(2.0)

TEXTSPEC = {
    # The README's example domain; flagged Reinhardt, so no dist_fn fast path.
    "triangle2": """domain triangle2
  dim 2
  flags convex reinhardt
  radius 1.0
  constraint abs(z1) + abs(z2) - 1
end
""",
    # The unit ball minus the slab |Re z1 - 0.5| <= 0.005; delta(0) = 0.495.
    "slab2": """domain slab2
  dim 2
  radius 1.0
  constraint abs(z1)^2 + abs(z2)^2 - 1
  constraint 0.005 - abs(re(z1) - 0.5)
end
""",
}
SLAB2_DELTA = 0.495


@dataclass
class Op:
    kind: str
    latency: float
    reference: float = 0.0  # reference-work time around the call (calibration.py)
    attempted: int = 1
    failed: int = 0
    rows: int = 1
    detail: str = ""


# ---------------------------------------------------------------------------
# benchmark-side geometry: membership for sampling, closed-form references
# ---------------------------------------------------------------------------

def _phi(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        raw = np.exp(-1.0 / np.where(x > 0, x, 1.0) ** 2)
    return np.where(x > 0, raw, 0.0)


MEMBER = {
    "ball2": lambda z: np.sum(np.abs(z) ** 2, -1) < 1.0,
    "polydisc": lambda z: np.max(np.abs(z), -1) < 1.0,
    "ex21_d": lambda z: np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) < 1.0,
    "ex21_omega": lambda z: np.abs(z[..., 0]) + np.abs(z[..., 1]) < 1.0,
    "triangle2": lambda z: np.abs(z[..., 0]) + np.abs(z[..., 1]) < 1.0,
    "ex22_d": lambda z: (z[..., 0].real > _phi(np.abs(z[..., 1]) ** 2))
    & (np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 < 1.0),
    "ex22_omega": lambda z: (z[..., 0].real > _phi(np.abs(z[..., 1])))
    & (np.sum(np.abs(z) ** 2, -1) < 1.0),
    "ex22_omega_local": lambda z: (z[..., 0].real > _phi(np.abs(z[..., 1])))
    & (np.sum(np.abs(z) ** 2, -1) < 0.75 ** 2),
}
CONVEX = ("ball2", "polydisc", "ex21_omega", "ex22_omega_local", "triangle2")
# Axis steps of length 0.03: a sample must keep its axis neighbours inside,
# which keeps it off the boundary where every method's tolerance is tight.
_STEPS = np.concatenate([np.eye(2), 1j * np.eye(2)]) * 0.03
_STEPS = np.concatenate([_STEPS, -_STEPS])


def sample_points(rng, domain, m):
    """m points uniform in the domain's part of the bidisc, off the boundary."""
    inside = MEMBER[domain]
    out = np.empty((0, 2), dtype=complex)
    while len(out) < m:
        z = (rng.random((4 * m, 2)) - 0.5) * 2.0 + 1j * (rng.random((4 * m, 2)) - 0.5) * 2.0
        keep = inside(z) & np.all(inside(z[:, None, :] + _STEPS[None]), axis=1)
        out = np.concatenate([out, z[keep]])
    return out[:m]


CENTER = {"ex22_d": (0.5, 0.0), "ex22_omega": (0.5, 0.0), "ex22_omega_local": (0.3, 0.0)}
# Depth strata for single queries: a query point sits at this fraction of
# the way from the domain's centre to the boundary along a seeded direction.
# The cost of a query depends mostly on that depth, so each domain keeps a
# fixed stratum and runs at different seeds do comparable work.
DEPTHS = (0.2, 0.45, 0.7)


def stratified_point(rng, domain, depth):
    """centre + depth * t_exit * u for a seeded unit direction u of C^2."""
    inside = MEMBER[domain]
    c = np.array(CENTER.get(domain, (0.0, 0.0)), dtype=complex)
    x = rng.standard_normal(4)
    u = (x[:2] + 1j * x[2:]) / np.linalg.norm(x)
    t = np.arange(1, 501) * 0.005
    outside = ~inside(c[None, :] + t[:, None] * u[None, :])
    hi = t[np.argmax(outside)]
    lo = hi - 0.005
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(c + mid * u) else (lo, mid)
    return c + depth * lo * u


def sample_dirs(rng, m):
    return rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))


def ball_disc_radius(z, v):
    """delta(z; v) on the unit ball: the largest r with |z + zeta u| < 1 for
    all |zeta| < r solves r^2 + 2 r |<z, u>| + |z|^2 = 1."""
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    a = np.abs(np.sum(z * np.conj(u), axis=-1))
    return np.sqrt(a * a + 1.0 - np.sum(np.abs(z) ** 2, axis=-1)) - a


def polydisc_disc_radius(z, v):
    u = np.abs(v) / np.linalg.norm(v, axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.min((1.0 - np.abs(z)) / u, axis=-1)


def corner_law(z):
    return (1.0 - np.abs(z[..., 0]) - np.abs(z[..., 1])) / SQRT2


def fmt_point(z):
    return ",".join("%.17g%+.17gj" % (c.real, c.imag) for c in z)


# ---------------------------------------------------------------------------
# scenarios: in-process passes over the bundled scenarios
# ---------------------------------------------------------------------------

class Scenarios:
    """All seven bundled scenarios, in list_scenarios() order, at the seed."""

    min_passes = 2

    def __init__(self, kobex, seed):
        self.kx = kobex
        self.seed = seed
        self.names = kobex.scenarios.list_scenarios()
        self.first_bytes = {}
        self.last_pass = {}

    def describe(self):
        return {"scenarios": self.names}

    def run_pass(self, tracer=None):
        ops = []
        run = self.kx.scenarios.run_scenario
        for name in self.names:
            try:
                if tracer is None:
                    report, dt, ref = timed(run, name, seed=self.seed)
                else:
                    report, dt, ref = timed(tracer.span, "scenarios." + name, run,
                                            name, seed=self.seed)
            except Exception:
                ops.append(Op(name, 0.0, failed=1, rows=0,
                              detail=traceback.format_exc(limit=3)))
                continue
            self.last_pass[name] = dt
            body = report.to_jsonl()
            problems = []
            if not report.passed:
                problems.append("failed verdicts %s" % [r.op for r in report.records
                                                        if r.verdict is False])
            if self.first_bytes.setdefault(name, body) != body:
                problems.append("report bytes differ from the first pass")
            budget = SCENARIO_BUDGET_S.get(name)
            if tracer is None and budget is not None and dt >= budget:
                problems.append("%.2f s over the %.0f s budget" % (dt, budget))
            ops.append(Op(name, dt, ref, failed=int(bool(problems)),
                          rows=len(report.records), detail="; ".join(problems)))
        return ops

    def trace_gates(self, tracer):
        """Lagrange-grid budget on the traced span inside example21."""
        spans = tracer.spans_named("psh.nearest_point_cubic") \
            & tracer.under("scenarios.example21")
        _, _, start, end, _ = tracer.arrays()
        worst = float((end - start)[spans].max()) if spans.any() else 0.0
        ok = spans.any() and worst < LAGRANGE_GRID_BUDGET_S
        return [Op("example21.lagrange-grid-budget", 0.0, failed=int(not ok),
                   rows=0, detail="" if ok else "nearest_point_cubic %.2f s" % worst)]


# ---------------------------------------------------------------------------
# point-queries: a seeded stream of single CLI and API queries
# ---------------------------------------------------------------------------

@dataclass
class Query:
    kind: str          # distance.auto | distance.generic | distance.dir |
    #                    metric.graham | metric.inscribed | path
    domain: str
    z: np.ndarray
    v: np.ndarray = None
    z2: np.ndarray = None


_NUM = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|[-+]?inf|nan)"
_COMPLEX = re.compile(r"([-+]?[\d.]+(?:e[-+]?\d+)?)\s*([-+])\s*([\d.]+(?:e[-+]?\d+)?)j")


def _grab(pattern, text):
    m = re.search(pattern.replace("NUM", _NUM), text)
    if m is None:
        raise ValueError("no match for %r in %r" % (pattern, text))
    return float(m.group(1))


def _parse_vector(text):
    body = text[text.index("[") + 1:text.index("]")]
    return np.array([float(a) + (1j if s == "+" else -1j) * float(b)
                     for a, s, b in _COMPLEX.findall(body)])


class PointQueries:
    """Seeded rounds of single queries covering every domain and form,
    replayed in every pass; the first round's queries that can hit a known
    defect are the probes, run once per run."""

    min_passes = 2
    rounds = 4         # 128 timed queries, so that 13 lie beyond p90
    bundled = ("ball2", "polydisc", "ex21_d", "ex21_omega", "ex22_d",
               "ex22_omega", "ex22_omega_local")

    def __init__(self, kobex, seed, workdir):
        self.kx = kobex
        self.seed = seed
        self.workdir = workdir

    def build(self):
        kx = self.kx
        self.paths = {}
        specs = {}
        for name, text in TEXTSPEC.items():
            specs[name] = kx.textspec.loads(text)[name]
            path = self.workdir / ("%s.kx" % name)
            path.write_text(text, encoding="utf-8")
            self.paths[name] = str(path)
        # the references below assume these flags
        tri, slab = specs["triangle2"], specs["slab2"]
        if not (tri.is_convex and tri.is_reinhardt and tri.dist_fn is None) \
                or slab.is_convex or slab.is_reinhardt:
            raise ValueError("text-spec domains parsed with unexpected flags")
        self.domains = {name: kx.domains.bundled_domain(name) for name in self.bundled}
        rng = np.random.default_rng(self.seed)
        rounds = [self._round(rng) for _ in range(self.rounds)]
        self.queries = [q for r in rounds for q in r if not self.defect_of(q)]
        self.probes = [q for q in rounds[0] if self.defect_of(q)]

    def defect_of(self, q):
        """The KNOWN_DEFECTS entry a query can hit, at any seed, or ''."""
        if q.domain == "slab2":
            return "slab2-tunnel"
        generic = q.kind == "distance.generic" or (
            q.kind == "distance.auto" and any(self.generic_source(q.domain)))
        return "generic-overshoot" if generic and q.domain in OVERSHOOT_DOMAINS else ""

    def _round(self, rng):
        qs = []
        for i, dom in enumerate(self.bundled + ("triangle2",)):
            z = stratified_point(rng, dom, DEPTHS[i % len(DEPTHS)])
            v = sample_dirs(rng, 1)[0]
            qs += [Query("distance.auto", dom, z), Query("distance.generic", dom, z),
                   Query("distance.dir", dom, z, v), Query("metric.inscribed", dom, z, v)]
            if dom in CONVEX:
                qs.append(Query("metric.graham", dom, z, v))
        # The slab defect: the ray march steps over the 0.01-wide slab.
        origin, e1 = np.zeros(2, complex), np.array([1.0, 0.0], complex)
        for kind in ("distance.auto", "distance.generic", "distance.dir",
                     "metric.inscribed"):
            qs.append(Query(kind, "slab2", origin, e1))
        for k in range(2):
            z1, z2 = (stratified_point(rng, "ball2", DEPTHS[(k + j) % len(DEPTHS)])
                      for j in (0, 1))
            qs.append(Query("path", "ball2", z1, z2=z2))
        order = rng.permutation(len(qs))
        return [qs[i] for i in order]

    def describe(self):
        return {"queries_per_pass": len(self.queries),
                "probes": {d: sum(self.defect_of(q) == d for q in self.probes)
                           for d in KNOWN_DEFECTS}}

    def argv(self, q):
        dom = self.paths.get(q.domain, q.domain)
        base = ["--at=" + fmt_point(q.z)]
        if q.kind == "distance.auto":
            return ["distance", dom] + base
        if q.kind == "distance.generic":
            return ["distance", dom] + base + ["--method", "generic"]
        if q.kind == "distance.dir":
            return ["distance", dom] + base + ["--dir=" + fmt_point(q.v)]
        method = q.kind.split(".")[1]
        return ["metric", dom] + base + ["--dir=" + fmt_point(q.v), "--method", method]

    def run_pass(self, tracer=None):
        ops = []
        for q in self.queries:
            dt, ref, problem, _ = self.query(q)
            ops.append(Op(q.kind + ":" + q.domain, dt, ref, failed=int(bool(problem)),
                          detail=problem))
        return ops

    def run_probes(self):
        """[(defect, outcome, detail)] for every probe: outcome is 'fixed'
        when it matches its reference, 'reproduced' when it misses in the
        way its defect explains, and 'unexpected' otherwise."""
        out = []
        for q in self.probes:
            _, _, problem, explained = self.query(q)
            outcome = "fixed" if not problem else \
                "reproduced" if explained == self.defect_of(q) else "unexpected"
            out.append((self.defect_of(q), outcome,
                        "%s:%s %s" % (q.kind, q.domain, problem)))
        return out

    def query(self, q):
        """(wall time, reference time, problem, defect) of one query."""
        try:
            if q.kind == "path":
                out, dt, ref = timed(self.kx.metrics.path_distance_upper,
                                     self.domains["ball2"], q.z, q.z2)
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc, dt, ref = timed(self._cli, self.argv(q))
                if rc != 0:
                    raise RuntimeError("exit code %s" % rc)
                out = buf.getvalue()
            return (dt, ref) + self.check(q, out)
        except Exception:
            return 0.0, 0.0, traceback.format_exc(limit=3), ""

    def _cli(self, argv):
        """kobex.cli.main's exit code; argparse errors exit via SystemExit."""
        try:
            return self.kx.cli.main(argv)
        except SystemExit as exc:
            return exc.code

    # -- references ----------------------------------------------------------

    def delta_ref(self, dom, z):
        """Reference delta(z): a closed form where one exists, otherwise the
        domain's own dist_fn (as tests/test_domains.py uses it)."""
        if dom == "ball2":
            return 1.0 - float(np.linalg.norm(z))
        if dom == "polydisc":
            return float(np.min(1.0 - np.abs(z)))
        if dom in ("ex21_omega", "triangle2"):
            return float(corner_law(z))
        if dom == "slab2":
            return SLAB2_DELTA
        return float(self.domains[dom].dist_fn(z[None, :])[0])

    def generic_source(self, dom):
        """(delta from the generic search?, nearest point from it?) for the
        auto method, following boundary_distance's and
        nearest_boundary_point's dispatch."""
        if dom == "slab2":
            return True, True
        if dom == "triangle2":
            return False, False           # moduli-section reduction
        D = self.domains[dom]
        section = D.is_reinhardt
        return (D.dist_fn is None and not section,
                D.nearest_fn is None and not section)

    def check(self, q, out):
        """(problem, defect): problem is empty when every value matches its
        reference; defect names the KNOWN_DEFECTS entry that explains every
        miss, or is empty."""
        z, v = q.z, q.v
        if q.kind == "path":
            exact = self.kx.metrics.kob_distance_ball_exact(z, q.z2)
            return ("", "") if out >= exact - SIDE_TOL else \
                ("path %.12g below exact %.12g" % (out, exact), "")
        ref = self.delta_ref(q.domain, z)
        tol = float(position_tol(z))
        nv = float(np.linalg.norm(v)) if v is not None else 0.0
        overshoot = "slab2-tunnel" if q.domain == "slab2" else "generic-overshoot"
        # (label, value, reference, tolerance, may it overshoot as a known defect?)
        if q.kind in ("distance.auto", "distance.generic"):
            d = _grab(r"delta\(z\) = NUM", out)
            xi = _parse_vector(out[out.index("nearest boundary point"):])
            generic_d, generic_xi = (True, True) if q.kind == "distance.generic" \
                else self.generic_source(q.domain)
            checks = [("delta", d, ref, tol, generic_d),
                      ("|xi-z|", float(np.linalg.norm(xi - z)), ref, tol, generic_xi)]
        elif q.kind == "metric.inscribed":
            b = _grab(r"inscribed ball\) = NUM", out)
            checks = [("|v|/inscribed", nv / b, ref, tol, self.generic_source(q.domain)[0])]
            if q.domain == "ball2":
                k = float(self.kx.metrics.kob_metric_ball_exact(z, v))
                checks.append(("inscribed-exact", min(b - k, 0.0), 0.0, REL_TOL * k, False))
        else:
            if q.kind == "distance.dir":
                d = _grab(r"delta\(z; v\) = NUM", out)
            else:
                lower = _grab(r"lower bound \|v\|/\(2 delta\(z;v\)\) = NUM", out)
                upper = _grab(r"upper bound \|v\|/delta\(z;v\)\s+= NUM", out)
                if abs(2.0 * lower - upper) > 1e-10 * upper:
                    return "graham lower %.12g is not half of upper %.12g" % (lower, upper), ""
                if q.domain == "ball2":
                    k = float(self.kx.metrics.kob_metric_ball_exact(z, v))
                    if lower > k * (1 + REL_TOL) or k > upper * (1 + REL_TOL):
                        return "graham [%.12g, %.12g] misses exact %.12g" % (lower, upper, k), ""
                d = nv / upper
            want = {"ball2": ball_disc_radius, "polydisc": polydisc_disc_radius}.get(q.domain)
            if want is not None:
                w = float(want(z, v))
                checks = [("delta(z;v)", d, w, REL_TOL * w, False)]
            elif q.domain == "slab2":
                checks = [("delta(z;v)", d, SLAB2_DELTA, REL_TOL * SLAB2_DELTA, True)]
            else:   # delta(z; v) >= delta(z)
                checks = [("delta(z;v)", min(d - ref, 0.0), 0.0, SIDE_TOL, False)]
        return self._judge(checks, overshoot)

    @staticmethod
    def _judge(checks, overshoot):
        misses = [(label, value, ref, may) for label, value, ref, tol, may in checks
                  if not abs(value - ref) <= tol]
        if not misses:
            return "", ""
        problem = "; ".join("%s %.12g ref %.12g" % m[:3] for m in misses)
        known = all(may and 0.0 < value - ref <= KNOWN_DEFECTS[overshoot] * ref
                    for _, value, ref, may in misses)
        return problem, overshoot if known else ""


# ---------------------------------------------------------------------------
# batch-sweep: large batched calls over a fixed batch list
# ---------------------------------------------------------------------------

# Ray arrays of directional_distance_batch: two complex (rows * n_phases, 2)
# arrays, 16 KiB per row at 256 phases.  64 rows (1 MiB) fit one core's
# 2 MiB L2 with room for the temporaries; 1024 rows (16 MiB) are eight
# times larger than it.
SMALL_ROWS, LARGE_ROWS = 64, 1024
ORACLE_ROWS, ORACLE_PHASES = 64, 4096
REINHARDT_ROWS = 1000


class BatchSweep:
    """A fixed list of large batched calls, the same inputs every pass."""

    min_passes = 2

    def __init__(self, kobex, seed):
        self.kx = kobex
        self.seed = seed
        self.refs = {}

    def build(self):
        rng = np.random.default_rng(self.seed)
        dom = self.kx.domains
        self.batches = []
        for name in ("ball2", "ex22_omega_local", "ex21_d"):
            D = dom.bundled_domain(name)
            for m in (SMALL_ROWS, LARGE_ROWS):
                self.batches.append(("directional_refine", D, sample_points(rng, name, m),
                                     sample_dirs(rng, m)))
        self.batches.append(("directional_oracle", dom.bundled_domain("ball2"),
                             sample_points(rng, "ball2", ORACLE_ROWS),
                             sample_dirs(rng, ORACLE_ROWS)))
        self.batches.append(("reinhardt", dom.bundled_domain("ex21_omega"),
                             sample_points(rng, "ex21_omega", REINHARDT_ROWS), None))

    def describe(self):
        return {"batches": [{"call": kind, "domain": D.name, "rows": len(zs)}
                            for kind, D, zs, _ in self.batches],
                "rows_per_pass": sum(len(b[2]) for b in self.batches),
                "ray_bytes_per_row_at_256_phases": 2 * 256 * 2 * 16}

    def run_pass(self, tracer=None):
        dom = self.kx.domains
        ops = []
        for i, (kind, D, zs, vs) in enumerate(self.batches):
            label = "%s:%s:%d" % (kind, D.name, len(zs))
            try:
                if kind == "directional_refine":
                    out, dt, ref = timed(dom.directional_distance_batch, D, zs, vs)
                elif kind == "directional_oracle":
                    out, dt, ref = timed(dom.directional_distance_batch, D, zs, vs,
                                         n_phases=ORACLE_PHASES, refine=False)
                else:
                    out, dt, ref = timed(dom.boundary_distance_batch, D, zs,
                                         method="reinhardt")
                bad = self.check(i, kind, D, zs, vs, np.asarray(out))
            except Exception:
                ops.append(Op(label, 0.0, attempted=len(zs), failed=len(zs),
                              rows=0, detail=traceback.format_exc(limit=3)))
                continue
            ops.append(Op(label, dt, ref, attempted=len(zs), failed=int(bad.sum()),
                          rows=len(zs), detail="rows %s" % np.flatnonzero(bad)[:5]
                          if bad.any() else ""))
        return ops

    def check(self, i, kind, D, zs, vs, out):
        """Boolean mask of rows outside their reference tolerance."""
        if i not in self.refs:
            if kind == "reinhardt":
                self.refs[i] = corner_law(zs)
            elif D.name == "ball2":
                self.refs[i] = ball_disc_radius(zs, vs)
            else:
                self.refs[i] = D.dist_fn(zs)
        ref = self.refs[i]
        if kind == "reinhardt":
            return ~(np.abs(out - ref) <= position_tol(zs))
        if kind == "directional_oracle":
            # acceptance criterion 1: |v|/(2 d) <= k <= |v|/d at rel 1e-6; a
            # sampled minimum can only overestimate the closed form
            k = self.kx.metrics.kob_metric_ball_exact(zs, vs)
            nv = np.linalg.norm(vs, axis=-1)
            ok = (nv / (2.0 * out) <= k * (1 + REL_TOL)) \
                & (k <= nv / out * (1 + REL_TOL)) & (out >= ref * (1 - 1e-12))
            return ~ok
        if D.name == "ball2":
            return ~(np.abs(out - ref) <= REL_TOL * ref)
        return ~(out >= ref - SIDE_TOL)
