"""Structured-text definitions of domains.

The format is line oriented.  A definition opens with ``domain <name>``,
continues with indented or plain ``key value`` lines, and closes with
``end``.  ``#`` starts a comment.  Expressions use a small grammar over
+, -, *, /, ^ (or **), parentheses, numeric literals (including complex
like ``1j``), the constants pi and e, and the functions abs, re, im, exp,
log, sqrt, sin, cos.  Constraints see the variables z1..zn.

Example::

    domain triangle2
      dim 2
      flags convex reinhardt
      radius 1.0
      constraint abs(z1) + abs(z2) - 1
    end
"""

import ast
import math

import numpy as np

from .domains import Constraint, DomainError, DomainSpec


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
            if parts[0] != "domain" or len(parts) != 2:
                raise ParseError("line %d: expected 'domain <name>'" % lineno)
            current = {"name": parts[1].strip(), "items": []}
        elif line == "end":
            blocks.append(current)
            current = None
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError("line %d: expected 'key value'" % lineno)
            current["items"].append((parts[0], parts[1].strip()))
    if current is not None:
        raise ParseError("unterminated domain block %r" % current["name"])
    return blocks


def _build_domain(name, items):
    dim = None
    flags = set()
    radius = math.inf
    exprs = []
    interior = None
    for key, val in items:
        if key == "dim":
            dim = int(val) if val.isdigit() else 0
            if dim < 1:
                raise ParseError("domain %r: dim must be an integer >= 1, got %r" % (name, val))
        elif key == "flags":
            flags.update(val.split())
            if not flags <= {"convex", "reinhardt"}:
                raise ParseError("domain %r: flags are convex or reinhardt, got %r" % (name, val))
        elif key == "radius":
            try:
                radius = float(val)
            except ValueError:
                radius = math.nan
            # ray caps and the march rest on the domain lying in this ball
            if not radius > 0.0:
                raise ParseError("domain %r: radius must be a positive number, got %r"
                                 % (name, val))
        elif key == "constraint":
            exprs.append(val)
        elif key == "interior":
            try:
                interior = [complex(tok) for tok in val.split()]
            except ValueError:
                raise ParseError("domain %r: interior must be numbers, got %r" % (name, val))
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

        constraints.append(Constraint(g))
    return DomainSpec(name, dim, constraints,
                      is_convex="convex" in flags,
                      is_reinhardt="reinhardt" in flags,
                      bounding_radius=radius,
                      interior_point=interior)


def loads(text):
    """Parse domain definitions from a string; returns {name: DomainSpec}."""
    out = {}
    for block in _split_blocks(text):
        if block["name"] in out:
            raise ParseError("duplicate definition %r" % block["name"])
        out[block["name"]] = _build_domain(block["name"], block["items"])
    return out


def load(path):
    """Parse domain definitions from a file path; returns {name: DomainSpec}."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
