import math

import numpy as np
import pytest

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
    val = fn({"z1": np.array(0.5 + 0j), "z2": np.array(0.25 + 1j)})
    assert float(np.real(val)) == pytest.approx(math.exp(-4.0) - 0.25)


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
