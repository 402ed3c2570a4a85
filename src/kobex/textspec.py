"""Structured-text definitions of domains.

The format is line oriented.  A definition opens with ``domain <name>``,
continues with indented or plain ``key value`` lines, and closes with
``end``.  ``#`` starts a comment.  Expressions use a small grammar over
+, -, *, /, ^ (or **), parentheses, numeric literals (including complex
like ``1j``), the constants pi and e, and the functions abs, re, im, exp,
log, sqrt, sin, cos of one argument each.  A constraint must name one of
the coordinates z1..zn; a part that names none is computed when the file
is read, so ``1/0`` or ``10.0^400`` is a ParseError there.

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
import operator

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

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow,
              ast.USub: operator.neg, ast.UAdd: operator.pos}


def compile_expr(text, variables):
    """Compile an expression string into a vectorized callable of (..., n)
    complex points, where the j-th name of ``variables`` is z[..., j]."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ParseError("bad expression %r: %s" % (text, exc)) from None
    fn = _walk(tree.body, text, list(variables))
    if not callable(fn):
        raise ParseError("expression %r names no coordinate" % text)
    return fn


def _walk(node, text, variables):
    """Check one node and return its evaluator of points, or its value if it
    names no coordinate: that value is computed here by the operations a call
    would run, so it is the same to the bit."""
    if isinstance(node, ast.Name):
        if node.id in variables:
            return operator.itemgetter((Ellipsis, variables.index(node.id)))
        if node.id not in _ALLOWED_CONSTS:
            raise ParseError("name %r is not a coordinate or a constant in %r" % (node.id, text))
        return _ALLOWED_CONSTS[node.id]
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float, complex):
            raise ParseError("non-numeric literal in %r" % text)
        return node.value
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPERATORS:
        op = _OPERATORS[type(node.op)]
        args = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _ALLOWED_FUNCS:
        if len(node.args) != 1 or node.keywords:
            raise ParseError("%s takes exactly one argument in %r" % (node.func.id, text))
        op, args = _ALLOWED_FUNCS[node.func.id], node.args
    else:
        raise ParseError("disallowed syntax %r in %r" % (ast.unparse(node), text))
    a, *b = [_walk(arg, text, variables) for arg in args]
    if not b:
        return (lambda z: op(a(z))) if callable(a) else _fold(text, op, a)
    b, = b
    if callable(a):
        return (lambda z: op(a(z), b(z))) if callable(b) else (lambda z: op(a(z), b))
    return (lambda z: op(a, b(z))) if callable(b) else _fold(text, op, a, b)


def _fold(text, op, *args):
    try:
        if op is operator.pow:    # bounds an exact integer power before it is computed
            complex(args[0]) ** complex(args[1])
        value = op(*args)
        complex(value)            # an integer past the floats a call converts it to
    except (ArithmeticError, TypeError) as exc:
        raise ParseError("%s: %s in %r" % (type(exc).__name__, exc, text)) from None
    return value


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
    constraints = [Constraint(lambda z, fn=compile_expr(text, variables): np.real(fn(z)))
                   for text in exprs]
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
