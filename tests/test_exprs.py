import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envsos.errors import CyclicAlias, ExprSyntaxError, NegativeExponent, UnknownIdentifier
from envsos.exprs import expand_aliases, parse, render
from envsos.lie import builtin
from envsos.pbw import AlgebraElement, canonical_a, x0
from envsos.poly import CommutativePoly
from envsos.scalar import Scalar

from oracles import random_element, reference_poly_render


def test_canonical_a_expression(su2):
    assert parse("1 - x1^2 - x2^2 - x3^2", su2) == canonical_a(su2)


def test_imaginary_unit(su2):
    assert parse("i*1", su2) == x0(su2)
    assert parse("i", su2) == x0(su2)


def test_alias_quadratic(su2):
    e = parse("(H-1)*(H-2)", su2, aliases={"H": "-i*x1"})
    x1 = AlgebraElement.generator(su2, 0)
    expected = -(x1 * x1) + x1.scale(Scalar(0, 3)) + AlgebraElement.unit(su2, 2)
    assert e == expected


def test_alias_chain(su2):
    aliases = {"H": "-i*x1", "K": "H + 1"}
    assert parse("K", su2, aliases) == parse("-i*x1 + 1", su2)


def test_cyclic_alias(su2):
    with pytest.raises(CyclicAlias):
        parse("A", su2, aliases={"A": "B + 1", "B": "A"})


def test_render_zero(su2):
    assert render(AlgebraElement.zero(su2)) == "0"
    assert parse("x1 - x1", su2) == AlgebraElement.zero(su2)


def test_render_canonical_a(su2):
    assert render(canonical_a(su2)) == "1 - x1^2 - x2^2 - x3^2"


def test_precedence_power_before_unary_minus(su2):
    # -x1^2 means -(x1^2)
    assert parse("-x1^2", su2) == parse("-(x1^2)", su2)
    assert parse("-x1^2", su2) != parse("(-x1)^2", su2)


def test_precedence_mul_before_add(su2):
    assert parse("x1 + x2*x3", su2) == parse("x1 + (x2*x3)", su2)


def test_left_associative_noncommutative_product(su2):
    assert parse("x2*x1*x1", su2) == parse("(x2*x1)*x1", su2)


def test_rational_literals(su2):
    e = parse("3/4", su2)
    assert e == AlgebraElement.unit(su2, Fraction(3, 4))


def test_unknown_identifier(su2):
    with pytest.raises(UnknownIdentifier):
        parse("x9", su2)


def test_negative_exponent(su2):
    with pytest.raises(NegativeExponent):
        parse("x1^-2", su2)


def test_syntax_error_position(su2):
    with pytest.raises(ExprSyntaxError) as info:
        parse("x1**", su2)
    assert info.value.position == 3


def test_no_implicit_multiplication(su2):
    with pytest.raises(ExprSyntaxError):
        parse("2 x1", su2)


def test_empty_expression(su2):
    with pytest.raises(ExprSyntaxError):
        parse("   ", su2)


def test_alias_expansion_is_parenthesized():
    out = expand_aliases("2*H", {"H": "x1 + x2"})
    assert out == "2*((x1 + x2))" or out == "2*(x1 + x2)"


def test_roundtrip_random(builtins):
    rng = random.Random(23)
    for alg in builtins.values():
        for _ in range(20):
            e = random_element(alg, rng, max_degree=3)
            assert parse(render(e), alg) == e


@settings(max_examples=30, deadline=None)
@given(st.integers(-6, 6), st.integers(1, 5), st.integers(-6, 6), st.integers(0, 3))
def test_roundtrip_structured(p, q, r, k):
    su2 = builtin("su2")
    coeff = Scalar(Fraction(p, q), Fraction(r, q))
    mono = (k, 1, 0)
    e = AlgebraElement(su2, {mono: coeff})
    assert parse(render(e), su2) == e


@st.composite
def commutative_polys(draw):
    nvars = draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return CommutativePoly(nvars, draw(st.dictionaries(monomial, coeff, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(commutative_polys())
def test_poly_render_matches_the_frozen_renderer(p):
    assert p.render() == reference_poly_render(p)


def test_render_then_parse_idempotent(su2):
    rng = random.Random(29)
    for _ in range(10):
        e = random_element(su2, rng)
        text = render(e)
        assert render(parse(text, su2)) == text
