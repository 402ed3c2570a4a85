"""Span tracing installed from the benchmark's own files.

The tracer wraps public functions of the kobex modules (and the names
other kobex modules imported by value) so that every call records one
span: name, start, end, parent span and a work count (points or rows).
Spans stay in memory in flat arrays; per-layer metrics are computed from
them after the traced pass, and a per-name summary is written at the end.
Nothing in the program's source changes.
"""

import json
import sys
import time
from array import array

import numpy as np


def _points(z):
    """Number of points in an (..., n) batch."""
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _rows(zs):
    shape = np.shape(zs)
    return shape[0] if len(shape) == 2 else 1


def _method(args, kwargs, position, default="auto"):
    if "method" in kwargs:
        return kwargs["method"]
    return args[position] if len(args) > position else default


# (module, attribute, span name or callable(args, kwargs) -> span name,
#  work counter or None).  Attributes of the form "Class.method" wrap a
# method on the class.
TARGETS = [
    ("kobex.domains", "DomainSpec.value", "domains.value",
     lambda a, k: _points(a[1])),
    ("kobex.domains", "directional_distance", "domains.directional_distance", None),
    ("kobex.domains", "directional_distance_batch",
     "domains.directional_distance_batch", lambda a, k: _rows(a[1])),
    ("kobex.domains", "boundary_distance",
     lambda a, k: "domains.boundary_distance." + _method(a, k, 2), None),
    ("kobex.domains", "boundary_distance_batch", "domains.boundary_distance_batch",
     lambda a, k: _rows(a[1])),
    ("kobex.domains", "nearest_boundary_point", "domains.nearest_boundary_point", None),
    ("kobex.metrics", "path_distance_upper", "metrics.path_distance_upper", None),
    ("kobex.metrics", "graham_bounds", "metrics.graham_bounds", None),
    ("kobex.metrics", "inscribed_ball_upper_bound",
     "metrics.inscribed_ball_upper_bound", None),
    ("kobex.metrics", "fit_pair_constant", "metrics.fit_pair_constant", None),
    ("kobex.extension", "extend_map", "extension.extend_map", None),
    ("kobex.extension", "boundary_value", "extension.boundary_value", None),
    ("kobex.extension", "normal_line_integral", "extension.normal_line_integral", None),
    ("kobex.extension", "HolomorphicMap.derivative", "extension.derivative", None),
    ("kobex.extension", "PsiLadder.__init__", "extension.PsiLadder", None),
    ("kobex.psh", "psi_bound", "psh.psi_bound", None),
    ("kobex.psh", "levi_form", "psh.levi_form", None),
    ("kobex.psh", "nearest_point_cubic", "psh.nearest_point_cubic", None),
    ("kobex.psh", "check_psh", "psh.check_psh", None),
    ("kobex.regularity", "dini_integral", "regularity.dini_integral", None),
    ("kobex.regularity", "estimate_modulus", "regularity.estimate_modulus", None),
    ("kobex.regularity", "verify_embedding", "regularity.verify_embedding", None),
    ("kobex.textspec", "loads", "textspec.loads", None),
    ("kobex.cli", "cmd_distance", "cli.distance", None),
    ("kobex.cli", "cmd_metric", "cli.metric", None),
]


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() undoes it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patched = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid, work, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named by the benchmark."""
        return self.call(self.name_id(name), 1.0, fn, args, kwargs)

    def _wrapper(self, original, label, counter):
        fixed = None if callable(label) else self.name_id(label)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(label(args, kwargs))
            work = counter(args, kwargs) if counter is not None else 1.0
            return self.call(nid, work, original, args, kwargs)
        return traced

    def install(self):
        """Wrap every target, including copies other kobex modules imported."""
        for modname, attr, label, counter in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrapper(original, label, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, label, counter)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if (name == "kobex" or name.startswith("kobex.")) \
                        and getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.work))

    def summary(self):
        """Per-name totals: calls, work, inclusive seconds (outermost spans
        only), self seconds (duration minus the children's durations)."""
        name, parent, start, end, work = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            outer = sel & ~self.under(nid)
            out[label] = {"calls": int(sel.sum()), "work": float(work[sel].sum()),
                          "s": float(dur[outer].sum()),
                          "self_s": float(self_s[sel].sum())}
        return out

    def under(self, ancestor):
        """Mask of spans that have a proper ancestor with the given name
        (a name or a name id)."""
        if isinstance(ancestor, str):
            if ancestor not in self._ids:
                return np.zeros(len(self.start), dtype=bool)
            ancestor = self._ids[ancestor]
        name, parent = self.arrays()[:2]
        hit = np.zeros(name.size, dtype=bool)
        idx = np.arange(name.size)
        p = parent.copy()
        while idx.size:
            live = p >= 0
            idx, p = idx[live], p[live]
            hit[idx] |= name[p] == ancestor
            p = parent[p]
        return hit

    def spans_named(self, label):
        if label not in self._ids:
            return np.zeros(len(self.start), dtype=bool)
        return self.arrays()[0] == self._ids[label]

    def write(self, path):
        """The per-name summary, self times included, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1)
