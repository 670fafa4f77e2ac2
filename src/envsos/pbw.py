"""Exact arithmetic in the enveloping algebra of a Lie algebra.

Elements are sparse maps from ordered monomials (exponent tuples over the
fixed basis) to Gaussian-rational coefficients.  Products are straightened
into normal form with the rewrite x_j x_i = x_i x_j - [x_i, x_j] for j > i,
applied recursively with memoization on (monomial, generator) pairs.  Every
longer product and every star is a chain of one step, _times_generator,
which multiplies a normal form on the right by one generator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, DegreeMismatch, NonRealSymbol
from .lie import LieAlgebra
from .poly import CommutativePoly
from .scalar import ONE, Scalar

Monomial = tuple  # exponent tuple (k_1, ..., k_d); () stands in nowhere, all are length d


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


def _unit_monomial(dim: int) -> Monomial:
    return (0,) * dim


def _mul_monomial_gen(algebra: LieAlgebra, mono: Monomial, g: int) -> dict:
    """Normal form of x^mono * x_g as {monomial: Fraction}.

    The recursion peels the largest generator j in mono: if j <= g the word is
    already sorted; otherwise x_j x_g = x_g x_j + [x_j, x_g] and both pieces
    recurse on strictly smaller subproblems.
    """
    cache = algebra._mulgen_cache
    key = (mono, g)
    hit = cache.get(key)
    if hit is not None:
        return hit
    j = -1
    for idx in range(algebra.dim - 1, -1, -1):
        if mono[idx]:
            j = idx
            break
    if j <= g:
        lst = list(mono)
        lst[g] += 1
        result = {tuple(lst): Fraction(1)}
        cache[key] = result
        return result
    head = list(mono)
    head[j] -= 1
    head = tuple(head)
    # x^head * x_j * x_g  =  (x^head * x_g) * x_j  +  sum_k c^k_{jg} x^head * x_k
    result = _times_generator(algebra, _mul_monomial_gen(algebra, head, g), j)
    for k in range(algebra.dim):
        ck = algebra.c[j][g][k]
        if ck:
            for m1, q1 in _mul_monomial_gen(algebra, head, k).items():
                q = ck * q1
                prev = result.get(m1)
                result[m1] = q if prev is None else prev + q
    result = {m: q for m, q in result.items() if q}
    cache[key] = result
    return result


def _times_generator(algebra: LieAlgebra, acc: dict, g: int) -> dict:
    """Normal form of (sum acc) * x_g as {monomial: Fraction}, zeros kept."""
    out: dict = {}
    for m, q in acc.items():
        for m2, q2 in _mul_monomial_gen(algebra, m, g).items():
            v = q * q2
            prev = out.get(m2)
            out[m2] = v if prev is None else prev + v
    return out


def _mul_monomials(algebra: LieAlgebra, left: Monomial, right: Monomial) -> dict:
    """Normal form of x^left * x^right as {monomial: Fraction}.

    Read only: after one generator step the result is the memo's own entry.
    """
    acc = None
    for g in range(algebra.dim):
        for _ in range(right[g]):
            acc = (_mul_monomial_gen(algebra, left, g) if acc is None
                   else _times_generator(algebra, acc, g))
    return {left: Fraction(1)} if acc is None else acc


def _mul_terms(algebra: LieAlgebra, left: dict, right: dict) -> dict:
    """Normal form of (sum left) * (sum right) as {monomial: Scalar}, zeros kept."""
    out: dict = {}
    for m1, s1 in left.items():
        for m2, s2 in right.items():
            s = s1 * s2
            for m, q in _mul_monomials(algebra, m1, m2).items():
                v = s * q
                prev = out.get(m)
                out[m] = v if prev is None else prev + v
    return out


def _star_monomial(algebra: LieAlgebra, mono: Monomial) -> dict:
    """Normal form of (x^mono)* = (-1)^deg x_d^kd ... x_1^k1 as {monomial: Fraction}."""
    acc = {_unit_monomial(algebra.dim): Fraction(-1 if monomial_degree(mono) % 2 else 1)}
    for g in range(algebra.dim - 1, -1, -1):
        for _ in range(mono[g]):
            acc = _times_generator(algebra, acc, g)
    return acc


class AlgebraElement:
    """An element of the enveloping algebra in normal form.

    Immutable value; arithmetic returns fresh elements.  The zero element has
    an empty term map and no degree (degree() returns None as the sentinel).
    Because it is never mutated, is_hermitean straightens the star once and
    keeps the verdict on the instance.
    """

    __slots__ = ("algebra", "terms", "_hermitean")

    def __init__(self, algebra: LieAlgebra, terms: dict | None = None):
        self.algebra = algebra
        clean = {}
        if terms:
            for m, s in terms.items():
                s = s if isinstance(s, Scalar) else Scalar.coerce(s)
                if s:
                    clean[tuple(m)] = s
        self.terms = clean
        self._hermitean = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(algebra: LieAlgebra) -> "AlgebraElement":
        return AlgebraElement(algebra)

    @staticmethod
    def unit(algebra: LieAlgebra, coeff=1) -> "AlgebraElement":
        return AlgebraElement(algebra, {_unit_monomial(algebra.dim): Scalar.coerce(coeff)})

    @staticmethod
    def generator(algebra: LieAlgebra, index: int) -> "AlgebraElement":
        mono = [0] * algebra.dim
        mono[index] = 1
        return AlgebraElement(algebra, {tuple(mono): ONE})

    @staticmethod
    def monomial(algebra: LieAlgebra, mono: Monomial, coeff=1) -> "AlgebraElement":
        return AlgebraElement(algebra, {tuple(mono): Scalar.coerce(coeff)})

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Filtration degree; None for the zero element."""
        if not self.terms:
            return None
        return max(monomial_degree(m) for m in self.terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(tuple(mono), Scalar(0))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        from .exprs import render

        return f"<{render(self)}>"

    def _require_same_algebra(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        terms = dict(self.terms)
        for m, s in other.terms.items():
            prev = terms.get(m)
            terms[m] = s if prev is None else prev + s
        return AlgebraElement(self.algebra, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {m: -s for m, s in self.terms.items()})

    def scale(self, coeff) -> "AlgebraElement":
        coeff = Scalar.coerce(coeff)
        return AlgebraElement(self.algebra, {m: coeff * s for m, s in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        return AlgebraElement(self.algebra, _mul_terms(self.algebra, self.terms, other.terms))

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the enveloping algebra")
        result = AlgebraElement.unit(self.algebra)
        for _ in range(n):
            result = result * self
        return result

    # -- involution ------------------------------------------------------------

    def star(self) -> "AlgebraElement":
        """Antilinear antihomomorphism determined by x* = -x on generators.

        (x^k1 ... x^kd)* = (-1)^{k1+...+kd} x_d^kd ... x_1^k1, restraightened.
        """
        out: dict = {}
        for m, s in self.terms.items():
            coeff = s.conj()
            for mm, q in _star_monomial(self.algebra, m).items():
                v = coeff * q
                prev = out.get(mm)
                out[mm] = v if prev is None else prev + v
        return AlgebraElement(self.algebra, out)

    def is_hermitean(self) -> bool:
        if self._hermitean is None:
            self._hermitean = self.star() == self
        return self._hermitean

    # -- filtration / symbol -----------------------------------------------------

    def principal_symbol(self, n: int) -> CommutativePoly:
        """Image of the degree-n component in the associated graded algebra.

        Only n = degree(self) is accepted.  For hermitean input of even degree
        the result is real; a complex coefficient in the top part signals a
        non-hermitean element and raises NonRealSymbol.
        """
        deg = self.degree()
        if deg is None or n != deg:
            raise DegreeMismatch(f"element has degree {deg}, symbol requested at {n}")
        coeffs = {}
        for m, s in self.terms.items():
            if monomial_degree(m) == n:
                if not s.is_real():
                    raise NonRealSymbol(
                        "top-degree coefficients are not real; element is not hermitean"
                    )
                coeffs[m] = s.re
        return CommutativePoly(self.algebra.dim, coeffs)

    # -- structural queries --------------------------------------------------------

    def is_central(self) -> bool:
        return self.centrality_witness() is None

    def centrality_witness(self) -> tuple[int, "AlgebraElement"] | None:
        """First generator index j with e*x_j - x_j*e != 0, plus the commutator."""
        for j in range(self.algebra.dim):
            xj = AlgebraElement.generator(self.algebra, j)
            comm = self * xj - xj * self
            if not comm.is_zero():
                return j, comm
        return None


def term_sort_key(mono: Monomial):
    return (monomial_degree(mono), tuple(-e for e in mono))


# -- distinguished elements -----------------------------------------------------


def x0(algebra: LieAlgebra) -> AlgebraElement:
    """The element i*1 adjoined as the zeroth generator of the square sum."""
    return AlgebraElement.unit(algebra, Scalar(0, 1))


def canonical_a(algebra: LieAlgebra) -> AlgebraElement:
    """1 - x_1^2 - ... - x_d^2, equal to the square sum over x_0, ..., x_d.

    Both forms are computed and compared exactly; a mismatch would indicate an
    arithmetic bug, so it is asserted.
    """
    direct = AlgebraElement.unit(algebra)
    for k in range(algebra.dim):
        xk = AlgebraElement.generator(algebra, k)
        direct = direct - xk * xk
    square_sum = square_sum_form(algebra)
    assert direct == square_sum, "canonical element forms disagree"
    return direct


def square_sum_form(algebra: LieAlgebra) -> AlgebraElement:
    """sum_{k=0}^{d} x_k* x_k with x_0 = i*1."""
    total = x0(algebra).star() * x0(algebra)
    for k in range(algebra.dim):
        xk = AlgebraElement.generator(algebra, k)
        total = total + xk.star() * xk
    return total


def conjugate_by(s: AlgebraElement, c: AlgebraElement) -> AlgebraElement:
    """s* c s in normal form; hermitean whenever c is."""
    s._require_same_algebra(c)
    return s.star() * c * s


def reduce_odd(c: AlgebraElement) -> AlgebraElement:
    """sum_{k=0}^{d} x_k* c x_k, the even-degree replacement for odd half-degree.

    Equals c - sum_{k>=1} x_k c x_k since the k = 0 term contributes c itself.
    """
    algebra = c.algebra
    total = c
    for k in range(algebra.dim):
        xk = AlgebraElement.generator(algebra, k)
        total = total - xk * c * xk
    return total
