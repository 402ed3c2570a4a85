"""Structured-text definitions for domains, rate functions, and charts.

The format is line oriented.  A definition opens with ``<kind> <name>``
(kind one of ``domain``, ``modulus``, ``chart``), continues with indented
or plain ``key value`` lines, and closes with ``end``.  ``#`` starts a
comment.  Expressions use a small grammar over +, -, *, /, ^ (or **),
parentheses, numeric literals (including complex like ``1j``), the
constants pi and e, and the functions abs, re, im, exp, log, sqrt, sin,
cos.  Domain constraints see the variables z1..zn; modulus expressions
see r; chart graph expressions see u1..u_{n-1} (complex tangential
coordinates) and x (the real last coordinate).

Example::

    domain triangle2
      dim 2
      flags convex reinhardt
      radius 1.0
      constraint abs(z1) + abs(z2) - 1
    end

    modulus sqrt_rate
      domain_end 1.0
      expr sqrt(r)
    end

    chart flat2
      dim 2
      base 0 0
      unitary 1 0 ; 0 1
      radius 0.5
      regularity c1_dini
      phi 0 * x
    end
"""

import ast
import math

import numpy as np

from .domains import Constraint, DomainError, DomainSpec
from .regularity import GraphChart, ModulusOfContinuity


class ParseError(DomainError):
    pass


_ALLOWED_FUNCS = {
    "abs": np.abs,
    "re": np.real,
    "im": np.imag,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
}

_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def compile_expr(text, variables):
    """Compile an expression string into a vectorized callable of a dict of
    named numpy arrays; only whitelisted names and node types evaluate."""
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ParseError("bad expression %r: %s" % (text, exc)) from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ParseError("disallowed syntax %r in %r"
                             % (type(node).__name__, text))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ParseError("disallowed function in %r" % text)
            if node.keywords:
                raise ParseError("keyword arguments not allowed in %r" % text)
        if isinstance(node, ast.Name):
            name = node.id
            if name not in variables and name not in _ALLOWED_FUNCS \
                    and name not in _ALLOWED_CONSTS:
                raise ParseError("unknown name %r in %r" % (name, text))
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float, complex)):
            raise ParseError("non-numeric literal in %r" % text)
    code = compile(tree, "<kobex-expr>", "eval")

    def fn(env):
        scope = dict(_ALLOWED_FUNCS)
        scope.update(_ALLOWED_CONSTS)
        scope.update(env)
        return eval(code, {"__builtins__": {}}, scope)

    fn.source = text
    return fn


def _split_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            parts = line.split(None, 1)
            if parts[0] not in ("domain", "modulus", "chart") or len(parts) != 2:
                raise ParseError("line %d: expected 'domain|modulus|chart <name>'"
                                 % lineno)
            current = {"kind": parts[0], "name": parts[1].strip(), "items": []}
        elif line == "end":
            blocks.append(current)
            current = None
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError("line %d: expected 'key value'" % lineno)
            current["items"].append((parts[0], parts[1].strip()))
    if current is not None:
        raise ParseError("unterminated %s block %r" % (current["kind"], current["name"]))
    return blocks


def _build_domain(name, items):
    dim = None
    flags = set()
    radius = math.inf
    exprs = []
    interior = None
    for key, val in items:
        if key == "dim":
            dim = int(val)
        elif key == "flags":
            flags.update(val.split())
        elif key == "radius":
            radius = float(val)
        elif key == "constraint":
            exprs.append(val)
        elif key == "interior":
            interior = [complex(tok) for tok in val.split()]
        else:
            raise ParseError("unknown domain key %r" % key)
    if dim is None or not exprs:
        raise ParseError("domain %r needs 'dim' and at least one 'constraint'" % name)
    variables = ["z%d" % (j + 1) for j in range(dim)]
    constraints = []
    for text in exprs:
        fn = compile_expr(text, variables)

        def g(z, fn=fn):
            z = np.asarray(z, dtype=complex)
            env = {"z%d" % (j + 1): z[..., j] for j in range(dim)}
            return np.real(fn(env))

        constraints.append(Constraint(g, label=text))
    return DomainSpec(name, dim, constraints,
                      is_convex="convex" in flags,
                      is_reinhardt="reinhardt" in flags,
                      bounding_radius=radius,
                      interior_point=np.asarray(interior, dtype=complex)
                      if interior else None)


def _build_modulus(name, items):
    end = None
    expr = None
    for key, val in items:
        if key in ("domain_end", "end"):
            end = float(val)
        elif key == "expr":
            expr = val
        else:
            raise ParseError("unknown modulus key %r" % key)
    if end is None or expr is None:
        raise ParseError("modulus %r needs 'domain_end' and 'expr'" % name)
    fn = compile_expr(expr, ["r"])

    def omega(r):
        return np.real(fn({"r": np.asarray(r, dtype=float)}))

    return ModulusOfContinuity.from_function(omega, domain_end=end, name=name)


def _build_chart(name, items):
    dim = None
    base = None
    unitary = None
    radius = None
    regularity = "lipschitz"
    phi_expr = None
    for key, val in items:
        if key == "dim":
            dim = int(val)
        elif key == "base":
            base = [complex(tok) for tok in val.split()]
        elif key == "unitary":
            rows = [row.strip() for row in val.split(";")]
            unitary = [[complex(tok) for tok in row.split()] for row in rows]
        elif key == "radius":
            radius = float(val)
        elif key == "regularity":
            regularity = val
        elif key == "phi":
            phi_expr = val
        else:
            raise ParseError("unknown chart key %r" % key)
    if None in (dim, base, unitary, radius, phi_expr):
        raise ParseError("chart %r needs dim, base, unitary, radius, phi" % name)
    variables = ["u%d" % (j + 1) for j in range(dim - 1)] + ["x"]
    fn = compile_expr(phi_expr, variables)

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        k = dim - 1
        env = {"u%d" % (j + 1): coords[..., j] + 1j * coords[..., k + j]
               for j in range(k)}
        env["x"] = coords[..., -1]
        out = fn(env)
        return np.real(out) + 0.0 * env["x"]

    return GraphChart(base=np.asarray(base, dtype=complex),
                      unitary=np.asarray(unitary, dtype=complex),
                      radius=radius, phi=phi, regularity=regularity, name=name)


def loads(text):
    """Parse definitions from a string; returns {name: object}."""
    out = {}
    for block in _split_blocks(text):
        builder = {"domain": _build_domain, "modulus": _build_modulus,
                   "chart": _build_chart}[block["kind"]]
        obj = builder(block["name"], block["items"])
        if block["name"] in out:
            raise ParseError("duplicate definition %r" % block["name"])
        out[block["name"]] = obj
    return out


def load(path):
    """Parse definitions from a file path; returns {name: object}."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
