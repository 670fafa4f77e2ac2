"""Independent oracles used to cross-check the implementation.

These deliberately avoid the code paths they test: word straightening uses a
leftmost-descent rewriting on explicit words (the package peels the rightmost
generator), and the PSD oracle goes through characteristic polynomial
coefficient signs instead of LDL.
"""

from __future__ import annotations

import random
from fractions import Fraction

from envsos.lie import LieAlgebra
from envsos.pbw import AlgebraElement
from envsos.scalar import Scalar


def straighten_word(algebra: LieAlgebra, word) -> dict:
    """Normal form of x_{w1} x_{w2} ... by leftmost-descent rewriting.

    Returns {exponent tuple: Fraction}.  Straightens the *first* out-of-order
    adjacent pair each time, so the reduction order differs from the package's.
    """
    result: dict = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        pos = None
        for idx in range(len(w) - 1):
            if w[idx] > w[idx + 1]:
                pos = idx
                break
        if pos is None:
            mono = [0] * algebra.dim
            for g in w:
                mono[g] += 1
            key = tuple(mono)
            result[key] = result.get(key, Fraction(0)) + coeff
            continue
        j, i = w[pos], w[pos + 1]
        swapped = w[:pos] + (i, j) + w[pos + 2 :]
        stack.append((swapped, coeff))
        for k in range(algebra.dim):
            ck = algebra.c[j][i][k]
            if ck:
                contracted = w[:pos] + (k,) + w[pos + 2 :]
                stack.append((contracted, coeff * ck))
    return {m: q for m, q in result.items() if q}


def word_element(algebra: LieAlgebra, word, coeff=1) -> AlgebraElement:
    """AlgebraElement of a word, built through the oracle straightening."""
    terms = {m: Scalar(q) * Scalar.coerce(coeff) for m, q in straighten_word(algebra, word).items()}
    return AlgebraElement(algebra, terms)


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def random_element(algebra: LieAlgebra, rng: random.Random, max_degree: int = 4,
                   terms: int = 3) -> AlgebraElement:
    """Sparse random element with bounded total degree."""
    data = {}
    for _ in range(terms):
        deg = rng.randint(0, max_degree)
        mono = [0] * algebra.dim
        for _ in range(deg):
            mono[rng.randrange(algebra.dim)] += 1
        data[tuple(mono)] = random_scalar(rng)
    return AlgebraElement(algebra, data)


def random_hermitean(algebra: LieAlgebra, rng: random.Random, max_degree: int = 3,
                     terms: int = 3) -> AlgebraElement:
    e = random_element(algebra, rng, max_degree, terms)
    return e + e.star()


def char_poly(H) -> list:
    """Characteristic polynomial coefficients of a Scalar matrix.

    Faddeev-LeVerrier: returns [1, c1, ..., cn] with
    det(lambda I - H) = lambda^n + c1 lambda^{n-1} + ... + cn, exact.
    """
    n = len(H)
    coeffs = [Scalar(1)]
    N = [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    M = None
    for k in range(1, n + 1):
        M = [[sum((H[i][t] * N[t][j] for t in range(n)), Scalar(0)) for j in range(n)]
             for i in range(n)]
        trace = sum((M[i][i] for i in range(n)), Scalar(0))
        ck = -(trace / Scalar(k))
        coeffs.append(ck)
        N = [[M[i][j] + (ck if i == j else Scalar(0)) for j in range(n)] for i in range(n)]
    return coeffs


def psd_by_char_poly(H) -> bool:
    """Hermitian H is PSD iff (-1)^k c_k >= 0 for every k (real eigenvalues)."""
    coeffs = char_poly(H)
    for k, ck in enumerate(coeffs):
        assert ck.is_real(), "characteristic polynomial of a Hermitian matrix is real"
        if k % 2 == 0 and ck.re < 0:
            return False
        if k % 2 == 1 and ck.re > 0:
            return False
    return True


def commutative_product(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Multiplication oracle valid only in abelian algebras."""
    out: dict = {}
    for m1, s1 in e1.terms.items():
        for m2, s2 in e2.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Scalar(0)) + s1 * s2
    return AlgebraElement(e1.algebra, out)


def planted_gram_vector(layout, rng: random.Random):
    """Exact coordinates of positive definite blocks: n on the diagonal of a
    size-n block, off-diagonal parts in [-1/2, 1/2] (diagonally dominant)."""
    g = [Fraction(0)] * layout.nvars
    for (b, p, q, _), col in layout.index.items():
        g[col] = Fraction(layout.block_sizes[b]) if p == q else Fraction(rng.randint(-2, 2), 4)
    return g


def planted_target(skeleton, rng: random.Random) -> AlgebraElement:
    """A target with a positive definite Gram on the skeleton: its rows applied to one."""
    g = planted_gram_vector(skeleton.layout, rng)
    values = [sum(x * y for x, y in zip(row, g) if x) for row in skeleton.rows]
    return AlgebraElement(skeleton.algebra, {
        mono: Scalar(re, im)
        for mono, re, im in zip(skeleton.row_monomials, values[::2], values[1::2])})
