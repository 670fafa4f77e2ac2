import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from envsos.errors import AlgebraMismatch, DegreeMismatch
from envsos.gram import monomials_up_to
from envsos.lie import builtin, validate
from envsos.pbw import (
    AlgebraElement,
    _mul_monomial_gen,
    _mul_monomials,
    _star_monomial,
    canonical_a,
    conjugate_by,
    reduce_odd,
    square_sum_form,
    x0,
)
from envsos.poly import CommutativePoly
from envsos.scalar import Scalar

from conftest import BUILTIN_NAMES
from oracles import (
    commutative_product,
    random_element,
    random_hermitean,
    reference_mul_monomial_gen,
    reference_mul_monomials,
    reference_star_monomial,
    word_element,
)


def gens(alg):
    return [AlgebraElement.generator(alg, i) for i in range(alg.dim)]


def test_su2_defining_rewrite(su2):
    x1, x2, x3 = gens(su2)
    assert x2 * x1 == x1 * x2 - x3


def test_unit_law(su2):
    one = AlgebraElement.unit(su2)
    rng = random.Random(0)
    e = random_element(su2, rng)
    assert one * e == e
    assert e * one == e


def test_cancellation(su2):
    x1 = AlgebraElement.generator(su2, 0)
    assert (x1 + x1.scale(-1)).is_zero()


def test_x0_is_i_times_unit(su2):
    e = AlgebraElement.unit(su2).scale(Scalar(0, 1))
    assert e == x0(su2)


def test_add_commutative_associative(builtins):
    rng = random.Random(1)
    for alg in builtins.values():
        for _ in range(10):
            u, v, w = (random_element(alg, rng) for _ in range(3))
            assert u + v == v + u
            assert (u + v) + w == u + (v + w)


def test_algebra_mismatch():
    a1 = builtin("su2")
    a2 = builtin("heisenberg3")
    with pytest.raises(AlgebraMismatch):
        AlgebraElement.generator(a1, 0) * AlgebraElement.generator(a2, 0)


def test_associativity_against_oracle(su2):
    # (x1 x2) x3 = x1 (x2 x3) both via the package and the word oracle
    x1, x2, x3 = gens(su2)
    lhs = (x1 * x2) * x3
    rhs = x1 * (x2 * x3)
    assert lhs == rhs
    assert lhs == word_element(su2, (0, 1, 2))


def test_straightening_confluence_random_words(builtins):
    rng = random.Random(7)
    for alg in builtins.values():
        for _ in range(40):
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, 6)))
            via_oracle = word_element(alg, word)
            acc = AlgebraElement.unit(alg)
            for g in word:
                acc = acc * AlgebraElement.generator(alg, g)
            assert acc == via_oracle


def test_ring_axioms_random(builtins):
    rng = random.Random(3)
    for alg in builtins.values():
        for _ in range(25):
            u, v, w = (random_element(alg, rng, max_degree=3) for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (v + w) * u == v * u + w * u


def test_involution_on_generators(builtins):
    for alg in builtins.values():
        for j in range(alg.dim):
            xj = AlgebraElement.generator(alg, j)
            assert xj.star() == -xj


def test_involution_scalar(su2):
    lam = Scalar(Fraction(2, 3), Fraction(-1, 5))
    e = AlgebraElement.unit(su2, lam)
    assert e.star() == AlgebraElement.unit(su2, lam.conj())


def test_involution_product_reversal(su2):
    x1, x2, _ = gens(su2)
    # (x1 x2)* = x2 x1 = x1 x2 - x3
    assert (x1 * x2).star() == x2 * x1


def test_involution_laws_random(builtins):
    rng = random.Random(5)
    for alg in builtins.values():
        for _ in range(20):
            u = random_element(alg, rng, max_degree=3)
            v = random_element(alg, rng, max_degree=3)
            assert (u * v).star() == v.star() * u.star()
            assert u.star().star() == u
            lam = Scalar(Fraction(3, 2), Fraction(1, 4))
            assert u.scale(lam).star() == u.star().scale(lam.conj())


def test_canonical_a_square_sum_identity(builtins):
    for alg in builtins.values():
        assert canonical_a(alg) == square_sum_form(alg)


def test_canonical_a_su2_form(su2):
    x1, x2, x3 = gens(su2)
    one = AlgebraElement.unit(su2)
    assert canonical_a(su2) == one - x1 * x1 - x2 * x2 - x3 * x3


def test_degrees(su2):
    a = canonical_a(su2)
    assert a.degree() == 2
    assert (a * a).degree() == 4
    assert AlgebraElement.zero(su2).degree() is None
    assert AlgebraElement.unit(su2).degree() == 0


def test_hermitean_predicates(su2):
    x1 = AlgebraElement.generator(su2, 0)
    assert not x1.is_hermitean()
    assert x1.scale(Scalar(0, 1)).is_hermitean()
    assert canonical_a(su2).is_hermitean()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILTIN_NAMES), st.integers(0, 2**32), st.booleans())
def test_is_hermitean_is_the_star_comparison_made_once(name, seed, symmetrize):
    algebra = builtin(name)
    e = random_element(algebra, random.Random(seed), max_degree=3)
    if symmetrize:
        e = e + e.star()
    calls = []
    star = AlgebraElement.star

    def counting_star(self):
        calls.append(self)
        return star(self)

    expected = star(e) == e
    with mock.patch.object(AlgebraElement, "star", counting_star):
        assert [e.is_hermitean() for _ in range(3)] == [expected] * 3
    assert len(calls) == 1 and calls[0] is e
    if symmetrize:
        assert expected


def test_filtration_degree_bound(builtins):
    rng = random.Random(9)
    for alg in builtins.values():
        for _ in range(15):
            u = random_element(alg, rng, max_degree=3)
            v = random_element(alg, rng, max_degree=3)
            if u.is_zero() or v.is_zero():
                continue
            prod = u * v
            assert prod.degree() is None or prod.degree() <= u.degree() + v.degree()
            # the top graded component never cancels in a PBW product
            assert prod.degree() == u.degree() + v.degree()


def test_principal_symbol_of_a(su2):
    sym = canonical_a(su2).principal_symbol(2)
    expected = CommutativePoly(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1})
    assert sym == expected


def test_principal_symbol_of_a_squared(su2):
    a2 = canonical_a(su2) ** 2
    sym = a2.principal_symbol(4)
    t2 = CommutativePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert sym == t2 * t2


def test_principal_symbol_discards_lower_terms(su2):
    x1, x2, x3 = gens(su2)
    e = x1 * x2 - x3
    assert e.principal_symbol(2) == CommutativePoly(3, {(1, 1, 0): 1})


def test_principal_symbol_wrong_degree(su2):
    with pytest.raises(DegreeMismatch):
        canonical_a(su2).principal_symbol(3)


def test_symbol_multiplicativity(builtins):
    # symbol extraction only needs real top coefficients, so real random
    # elements exercise the graded product identity directly
    rng = random.Random(13)
    for alg in builtins.values():
        checked = 0
        for _ in range(20):
            u = random_element(alg, rng, max_degree=3)
            v = random_element(alg, rng, max_degree=3)
            u = AlgebraElement(alg, {m: Scalar(s.re) for m, s in u.terms.items()})
            v = AlgebraElement(alg, {m: Scalar(s.re) for m, s in v.terms.items()})
            if u.is_zero() or v.is_zero():
                continue
            du, dv = u.degree(), v.degree()
            prod = u * v
            assert prod.degree() == du + dv
            assert prod.principal_symbol(du + dv) == \
                u.principal_symbol(du) * v.principal_symbol(dv)
            checked += 1
        assert checked >= 10


def test_non_real_symbol_rejected(su2):
    from envsos.errors import NonRealSymbol

    x1 = AlgebraElement.generator(su2, 0)
    e = (x1 * x1).scale(Scalar(0, 1))
    with pytest.raises(NonRealSymbol):
        e.principal_symbol(2)


def test_centrality(su2):
    assert canonical_a(su2).is_central()
    assert AlgebraElement.unit(su2).is_central()
    aff = builtin("affine_line")
    a = canonical_a(aff)
    assert not a.is_central()
    witness = a.centrality_witness()
    assert witness is not None and not witness[1].is_zero()


def test_affine_centrality_witness_value():
    aff = builtin("affine_line")
    a = canonical_a(aff)
    x1, x2 = gens(aff)
    # a x2 - x2 a = -(2 x1 x2 - x2)
    assert a * x2 - x2 * a == -(x1 * x2 + x1 * x2 - x2)


def test_conjugate_by(su2):
    a = canonical_a(su2)
    one = AlgebraElement.unit(su2)
    c = random_hermitean(su2, random.Random(2))
    assert conjugate_by(one, c) == c
    assert conjugate_by(a, one) == a * a


def test_conjugation_preserves_hermiticity(builtins):
    rng = random.Random(21)
    for alg in builtins.values():
        for _ in range(10):
            s = random_element(alg, rng, max_degree=2)
            c = random_hermitean(alg, rng, max_degree=2)
            assert conjugate_by(s, c).is_hermitean()


def test_reduce_odd_of_unit_is_canonical(builtins):
    for alg in builtins.values():
        assert reduce_odd(AlgebraElement.unit(alg)) == canonical_a(alg)


def test_reduce_odd_hermitean(builtins):
    rng = random.Random(17)
    for alg in builtins.values():
        for _ in range(10):
            c = random_hermitean(alg, rng, max_degree=2)
            assert reduce_odd(c).is_hermitean()


def test_reduce_odd_abelian_commutative_oracle():
    ab = builtin("abelian(1)")
    one = AlgebraElement.unit(ab)
    x1 = AlgebraElement.generator(ab, 0)
    c = one - x1 * x1
    # in the polynomial picture: c' = c * (1 - x1^2) = c^2
    assert reduce_odd(c) == commutative_product(c, c)


def test_su2_a_squared_reduce(su2):
    a = canonical_a(su2)
    out = reduce_odd(a)
    assert out.is_hermitean()
    assert out.degree() == 4


def _affine_half():
    """The affine line with [x1, x2] = 1/2 x2: a non-integer structure constant."""
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][1], c[1][0][1] = Fraction(1, 2), Fraction(-1, 2)
    return validate(2, ["x1", "x2"], c)


def _fresh(name):
    """A new algebra, so its straightening memo starts empty (builtin's instance is shared)."""
    if name == "affine_half":
        return _affine_half()
    a = builtin(name)
    return validate(a.dim, a.names, a.c)


@pytest.mark.parametrize(
    "name", ["abelian(3)", "su2", "heisenberg3", "affine_line", "sl2r", "affine_half"])
def test_straightening_matches_the_frozen_generator_loops(name):
    """Same values, zeros kept, in the same order, and the same memo in the same order."""
    algebra, cache = _fresh(name), {}
    monos = monomials_up_to(algebra.dim, 4)
    for mono in monos:
        for g in range(algebra.dim):
            got = _mul_monomial_gen(algebra, mono, g)
            want = reference_mul_monomial_gen(algebra, mono, g, cache)
            assert list(got.items()) == list(want.items())
        got = _star_monomial(algebra, mono)
        assert list(got.items()) == list(reference_star_monomial(algebra, mono, cache).items())
    for left in monos:
        for right in monos:
            got = _mul_monomials(algebra, left, right)
            want = reference_mul_monomials(algebra, left, right, cache)
            assert list(got.items()) == list(want.items())
    assert list(algebra._mulgen_cache.items()) == list(cache.items())


def test_mul_monomials_returns_the_memo_entry_after_one_step():
    algebra = builtin("su2")
    got = _mul_monomials(algebra, (0, 2, 1), (1, 0, 0))
    assert got is algebra._mulgen_cache[((0, 2, 1), 0)]
