import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kobex as kx
from kobex import textspec

SAMPLE = """
# the corner-sum pair
domain triangle2
  dim 2
  flags convex reinhardt
  radius 1.0
  constraint abs(z1) + abs(z2) - 1
end

domain curve_cap
  dim 2
  flags reinhardt
  radius 1.0
  constraint abs(z1)^2 + abs(z2) - 1
end
"""


def test_loads_all_kinds():
    objs = textspec.loads(SAMPLE)
    assert set(objs) == {"triangle2", "curve_cap"}
    assert all(isinstance(D, kx.DomainSpec) for D in objs.values())


def test_loaded_domain_matches_bundled(omega21):
    D = textspec.loads(SAMPLE)["triangle2"]
    assert D.is_convex and D.is_reinhardt
    z = kx.cpoint(0.3 * np.exp(0.4j), 0.2)
    assert bool(kx.contains(D, z)) == bool(kx.contains(omega21, z))
    got = kx.boundary_distance(D, z, method="reinhardt")
    assert got == pytest.approx((1 - 0.5) / math.sqrt(2.0), abs=1e-8)


def test_expression_powers_and_functions():
    fn = textspec.compile_expr("exp(-1/abs(z1)^2) - re(z2)", ["z1", "z2"])
    val = fn(np.array([0.5 + 0j, 0.25 + 1j]))
    assert float(np.real(val)) == pytest.approx(math.exp(-4.0) - 0.25)


# Python's eval of the text in this scope is the reference: the grammar walk
# must give the same values to the bit
def _eval_reference(text, z):
    scope = dict(pi=math.pi, e=math.e, z1=z[..., 0], z2=z[..., 1])
    scope.update(abs=np.abs, re=np.real, im=np.imag, exp=np.exp, log=np.log,
                 sqrt=np.sqrt, sin=np.sin, cos=np.cos)
    return eval(text.replace("^", "**"), {"__builtins__": {}}, scope)


@pytest.mark.parametrize("text", [
    "abs(z1)^2 + abs(z2)^2 - 1",
    "0.005 - abs(re(z1) - 0.5)",
    "abs(z1) + abs(z2) - 1",
    "re(z1^2) + abs(z2)^3 - 1",
    "im(z1^3 - 2*z2) + 1/2",
    "exp(-1/abs(z1)^2) - re(z2)",
    "log(abs(z1) + 1) * sqrt(abs(z2)) - cos(re(z1)) + sin(im(z2))^2",
    "z1^-1 + z2**2 - 3",
    "abs(z1)^0.5 + abs(z2)^(1/3) - 1",
    "(abs(z1) - 1)^2 + 2^-3 * abs(z2) - pi/e",
    "-z1 + +z2 - 1j*z1*z2 + 3",
    "abs(z1)^10 + abs(z2)^7 - 1",
    "10^20*abs(z1) - 3^40*abs(z2)",
])
def test_expression_values_equal_eval_of_the_text(text):
    # integer literals stay integers: as floats, z1^-1 and re(z1^2) move
    rng = np.random.default_rng(37)
    z = rng.normal(size=(4096, 2)) + 1j * rng.normal(size=(4096, 2))
    with np.errstate(all="ignore"):
        got = textspec.compile_expr(text, ["z1", "z2"])(z)
        want = _eval_reference(text, z)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.dtype == want.dtype


def test_expression_rejects_unknown_names():
    with pytest.raises(textspec.ParseError):
        textspec.compile_expr("z1 + q", ["z1"])


def test_expression_rejects_calls_and_attributes():
    for bad in ("__import__('os')", "z1.real", "open('x')", "(lambda: 1)()",
                "[1,2][0]", "z1 if 1 else 2"):
        with pytest.raises(textspec.ParseError):
            textspec.compile_expr(bad, ["z1"])


def test_unterminated_block():
    with pytest.raises(textspec.ParseError):
        textspec.loads("domain d\n  dim 2\n  constraint abs(z1) - 1\n")


def test_duplicate_names_rejected():
    text = SAMPLE + "\ndomain curve_cap\n  dim 2\n  constraint abs(z1) - 1\nend\n"
    with pytest.raises(textspec.ParseError):
        textspec.loads(text)


def test_bad_key_rejected():
    with pytest.raises(textspec.ParseError):
        textspec.loads("domain d\n  dim 2\n  color red\nend\n")


@pytest.mark.parametrize("block", ["modulus m\n  domain_end 1.0\n  expr r\nend\n",
                                   "chart c\n  dim 2\n  phi 0 * x\nend\n"])
def test_only_domain_blocks_parse(block):
    with pytest.raises(textspec.ParseError, match="expected 'domain <name>'"):
        textspec.loads(SAMPLE + block)


def test_load_from_file(tmp_path):
    path = tmp_path / "defs.kx"
    path.write_text(SAMPLE)
    objs = textspec.load(str(path))
    assert "triangle2" in objs


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "-inf", "wide"])
def test_radius_must_be_positive(radius):
    # ray caps and the march rest on the domain lying in the ball of this radius
    text = "domain d\n  dim 2\n  radius %s\n  constraint abs(z1) - 1\nend\n" % radius
    with pytest.raises(textspec.ParseError, match="radius must be a positive number, got %r"
                       % radius):
        textspec.loads(text)


@pytest.mark.parametrize("line,message", [
    ("dim two", "dim must be an integer >= 1, got 'two'"),
    ("dim 0", "dim must be an integer >= 1, got '0'"),
    ("dim -1", "dim must be an integer >= 1, got '-1'"),
    ("dim 1.5", "dim must be an integer >= 1, got '1.5'"),
    ("interior 0 x", "interior must be numbers, got '0 x'"),
    ("flags convx reinhardt", "flags are convex or reinhardt, got 'convx reinhardt'"),
])
def test_malformed_keys_are_parse_errors(line, message):
    text = "domain d\n  dim 2\n  radius 1.0\n  %s\n  constraint abs(z1) - 1\nend\n" % line
    with pytest.raises(textspec.ParseError, match="domain 'd': " + message):
        textspec.loads(text)


@pytest.mark.parametrize("point", ["2 0", "1 0", "nan 0"])
def test_interior_point_must_lie_inside(point):
    text = ("domain tri\n  dim 2\n  flags convex reinhardt\n  radius 1.0\n"
            "  interior %s\n  constraint abs(z1) + abs(z2) - 1\nend\n" % point)
    with pytest.raises(kx.DomainError, match="interior point .* is not inside"):
        textspec.loads(text)
    assert textspec.loads(text.replace(point, "0.2 0.1j"))["tri"].interior_point[1] == 0.1j


BALL = "abs(z1)^2 + abs(z2)^2 - 1"
BAD_CONSTRAINTS = [
    BALL + " + 0*sqrt(z1, z2)",    # numpy took z2 as sqrt's out array
    "-1",                          # names no coordinate
    BALL + " + 1/0",
    BALL + " + 10.0^400",
    BALL + " + 0*exp",             # a function that is not called
    BALL + " + 0*9^9^9",           # 9**387420489 in Python integers
]


@pytest.mark.parametrize("constraint", BAD_CONSTRAINTS)
def test_bad_constraints_are_parse_errors(constraint):
    with pytest.raises(textspec.ParseError):
        textspec.loads("domain b\n  dim 2\n  radius 1\n  constraint %s\nend\n" % constraint)


def test_evaluation_leaves_the_points_unchanged():
    D = textspec.loads("domain b\n  dim 2\n  radius 1\n"
                       "  constraint %s + 0*sqrt(z2) + 0*re(z1)\nend\n" % BALL)["b"]
    z = np.array([[0.3, 0.2], [0.1j, -0.5], [0.2 - 0.1j, 0.4j]])
    before = z.copy()
    assert np.array_equal(D.value(z), np.sum(np.abs(z) ** 2, axis=-1) - 1)
    assert np.array_equal(z, before)


@pytest.mark.parametrize("text,message", [
    ("domain d\n  dim 2\n  constraint abs(z1) +\nend\n", "bad expression"),
    ("domain d\n  dim 2\n  constraint abs(z1) + 'a'\nend\n", "non-numeric literal"),
    ("domain d\n  dim 2\n  constraint abs(z1) + True\nend\n", "non-numeric literal"),
    ("domain d\n  dim\n  constraint abs(z1) - 1\nend\n", "line 2: expected 'key value'"),
    ("domain d\n  constraint abs(z1) - 1\nend\n", "needs 'dim' and at least one"),
    ("domain d\n  dim 2\n  radius 1\nend\n", "needs 'dim' and at least one"),
])
def test_malformed_blocks_are_parse_errors(text, message):
    with pytest.raises(textspec.ParseError, match=message):
        textspec.loads(text)


GRAMMAR_TOKENS = ["z1", "z2", "0", "1", "2", "0.5", "10", "1j", "pi", "e",
                  "abs", "re", "im", "exp", "log", "sqrt", "sin", "cos",
                  "+", "-", "*", "/", "^", "**", "(", ")", ","]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), min_size=1, max_size=9))
def test_grammar_refuses_or_gives_one_value_per_point(tokens):
    text = " ".join(tokens)
    z = np.array([[0.3 + 0.1j, -0.2j], [1.5, 0.7 - 0.4j], [0j, 2 + 1j]])
    before = z.copy()
    with np.errstate(all="ignore"):    # log(0), 1/z at z = 0 and overflow are values here
        try:
            fn = textspec.compile_expr(text, ["z1", "z2"])
        except textspec.ParseError:
            return
        val = np.real(fn(z))
    assert val.shape == (3,), text
    assert np.array_equal(z, before), text
