"""Exact arithmetic of the benchmark's own, kept apart from the envsos package.

Everything a workload feeds to the program (targets, generators, forms) and
everything it checks afterwards (certificate re-expansion, Gram positivity,
witness signs, principal symbols) goes through this module, so that a defect
in the package cannot hide itself by agreeing with its own checker.

* Enveloping-algebra elements are dicts {exponent tuple: (re, im)} with
  Fraction parts.  Products are straightened by leftmost-descent rewriting on
  explicit words (the package peels the rightmost generator instead).
* Commutative forms are dicts {exponent tuple: Fraction}; products are plain
  exponent addition.
* Gram positivity is decided by fraction-free (Bareiss) symmetric elimination
  over the integers on the real embedding [[A, -B], [B, A]] of A + iB, not by
  the package's LDL over Gaussian rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

ZERO = (Fraction(0), Fraction(0))

# Structure constants of the builtin algebras: {(i, j): {k: coeff}} for
# [x_i, x_j] = sum_k coeff x_k with i < j (zero-based), as stated in the
# package documentation.
BRACKETS = {
    "abelian(3)": (3, {}),
    "su2": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    "heisenberg3": (3, {(0, 1): {2: 1}}),
    "affine_line": (2, {(0, 1): {1: 1}}),
    "sl2r": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
}


# -- Gaussian rationals -----------------------------------------------------------


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


_SCALAR = re.compile(r"^(?:(-?\d+(?:/\d+)?)(?=[+-]|$))?(?:([+-]?)(\d+(?:/\d+)?)? ?i)?$")


def parse_scalar(text: str):
    """Gaussian rational from the certificate format "p/q", "r/s i", "p/q+r/s i"."""
    s = text.strip()
    m = _SCALAR.match(s)
    if not m or not s:
        raise ValueError(f"unreadable scalar {text!r}")
    re_part, sign, im_part = m.groups()
    re_val = Fraction(re_part) if re_part else Fraction(0)
    if not s.endswith("i"):
        return (re_val, Fraction(0))
    im_val = Fraction(im_part) if im_part else Fraction(1)
    return (re_val, -im_val if sign == "-" else im_val)


# -- enveloping algebra -----------------------------------------------------------


class Straightener:
    """Normal forms of words in an enveloping algebra, by leftmost descent.

    nf(word) straightens the *first* out-of-order adjacent pair x_j x_i (j > i)
    into x_i x_j + [x_j, x_i], recursively, memoized on the word.
    Coefficients stay integers because every builtin has integer constants.
    """

    def __init__(self, name: str):
        self.dim, table = BRACKETS[name]
        # swap[(j, i)] = {k: coeff} with [x_j, x_i] = sum coeff x_k, for j > i
        self.swap = {(j, i): {k: -v for k, v in terms.items()} for (i, j), terms in table.items()}
        self._memo: dict = {}

    def nf(self, word: tuple) -> dict:
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        pos = next((p for p in range(len(word) - 1) if word[p] > word[p + 1]), None)
        if pos is None:
            mono = [0] * self.dim
            for g in word:
                mono[g] += 1
            out = {tuple(mono): 1}
        else:
            j, i = word[pos], word[pos + 1]
            out = dict(self.nf(word[:pos] + (i, j) + word[pos + 2:]))
            for k, coeff in self.swap.get((j, i), {}).items():
                for mono, v in self.nf(word[:pos] + (k,) + word[pos + 2:]).items():
                    out[mono] = out.get(mono, 0) + coeff * v
            out = {m: v for m, v in out.items() if v}
        self._memo[word] = out
        return out

    def element(self, terms) -> dict:
        """Normal form of sum coeff * word over (word, Gaussian coeff) pairs."""
        out: dict = {}
        for word, coeff in terms:
            for mono, v in self.nf(tuple(word)).items():
                out[mono] = cadd(out.get(mono, ZERO), (coeff[0] * v, coeff[1] * v))
        return {m: v for m, v in out.items() if v != ZERO}

    def mul(self, x: dict, y: dict) -> dict:
        return self.element(
            (word_of(m1) + word_of(m2), cmul(c1, c2))
            for m1, c1 in x.items() for m2, c2 in y.items()
        )


def word_of(mono) -> tuple:
    return tuple(g for g, e in enumerate(mono) for _ in range(e))


def el_add(*xs) -> dict:
    out: dict = {}
    for x in xs:
        for m, c in x.items():
            out[m] = cadd(out.get(m, ZERO), c)
    return {m: c for m, c in out.items() if c != ZERO}


def el_scale(x: dict, s) -> dict:
    return {m: v for m, v in ((m, cmul(c, s)) for m, c in x.items()) if v != ZERO}


def generator(dim: int, k: int) -> dict:
    mono = [0] * dim
    mono[k] = 1
    return {tuple(mono): (Fraction(1), Fraction(0))}


def unit(dim: int) -> dict:
    return {(0,) * dim: (Fraction(1), Fraction(0))}


def canonical_a(dim: int) -> dict:
    """1 - x_1^2 - ... - x_d^2; x_k^2 is already a normal-form monomial."""
    out = unit(dim)
    for k in range(dim):
        mono = [0] * dim
        mono[k] = 2
        out[tuple(mono)] = (Fraction(-1), Fraction(0))
    return out


def monomials_up_to(dim: int, deg: int) -> list:
    out = []
    for total in range(deg + 1):
        out.extend(_compositions(dim, total))
    return out


def _compositions(dim: int, total: int):
    if dim == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(dim - 1, total - first):
            yield (first,) + rest


def parse_monomial(text: str, names) -> tuple:
    """Exponent tuple of a basis string such as "1", "x2" or "x1^2*x3"."""
    mono = [0] * len(names)
    if text.strip() == "1":
        return tuple(mono)
    for factor in text.split("*"):
        name, _, exp = factor.strip().partition("^")
        mono[names.index(name)] += int(exp) if exp else 1
    return tuple(mono)


# -- integer views of Gram matrices -----------------------------------------------


def integer_gram(rows):
    """(A, B, L) with gram = (A + iB) / L, A and B integer matrices."""
    entries = [[parse_scalar(v) for v in row] for row in rows]
    den = 1
    for row in entries:
        for re_, im_ in row:
            den = lcm(den, re_.denominator, im_.denominator)
    A = [[int(v[0] * den) for v in row] for row in entries]
    B = [[int(v[1] * den) for v in row] for row in entries]
    return A, B, den


def is_hermitian(A, B) -> bool:
    n = len(A)
    return all(len(A[i]) == n for i in range(n)) and all(
        A[i][j] == A[j][i] and B[i][j] == -B[j][i] for i in range(n) for j in range(n)
    )


def psd_bareiss(M) -> bool:
    """Exact PSD decision for a symmetric integer matrix.

    Fraction-free symmetric elimination with largest-diagonal pivots.  After
    each step every remaining entry is a bordered principal minor, so the
    exact division by the previous pivot is valid and the sign of a remaining
    diagonal entry is the sign of the Schur complement's diagonal.
    """
    M = [row[:] for row in M]
    active = list(range(len(M)))
    prev = 1
    while active:
        if any(M[r][r] < 0 for r in active):
            return False
        p = max(active, key=lambda r: M[r][r])
        if M[p][p] == 0:
            # PSD with a zero diagonal forces the whole remainder to vanish
            return all(M[r][s] == 0 for r in active for s in active)
        active.remove(p)
        piv = M[p][p]
        for r in active:
            Mr, mrp = M[r], M[r][p]
            for s in active:
                Mr[s] = (piv * Mr[s] - mrp * M[p][s]) // prev
        prev = piv
    return True


def psd_hermitian(A, B) -> bool:
    """A + iB is PSD iff its real embedding [[A, -B], [B, A]] is."""
    n = len(A)
    if not any(any(row) for row in B):
        return psd_bareiss(A)
    M = [A[i] + [-v for v in B[i]] for i in range(n)] + [B[i] + A[i] for i in range(n)]
    return psd_bareiss(M)


def gram_den_bits(rows) -> int:
    """Bit length of the largest denominator among the Gram entries."""
    bits = 0
    for row in rows:
        for v in row:
            re_, im_ = parse_scalar(v)
            bits = max(bits, re_.denominator.bit_length(), im_.denominator.bit_length())
    return bits


def gram_expansion(straightener: Straightener, basis, A, B, den: int, gen: dict) -> dict:
    """sum_pq G_pq w_p^* f w_q for G = (A + iB) / den, by the benchmark's straightening."""
    # generator coefficients over a common denominator, so the inner loop adds
    # integers only
    gden = lcm(*(x.denominator for c in gen.values() for x in c))
    gen_terms = [(word_of(m), int(c[0] * gden), int(c[1] * gden)) for m, c in gen.items()]
    acc: dict = {}
    for p, wp in enumerate(basis):
        left = tuple(reversed(word_of(wp)))
        sign = -1 if sum(wp) % 2 else 1
        for q, wq in enumerate(basis):
            a, b = sign * A[p][q], sign * B[p][q]
            if not (a or b):
                continue
            right = word_of(wq)
            for gword, gre, gim in gen_terms:
                cre, cim = a * gre - b * gim, a * gim + b * gre
                for mono, v in straightener.nf(left + gword + right).items():
                    old = acc.get(mono, (0, 0))
                    acc[mono] = (old[0] + cre * v, old[1] + cim * v)
    scale = den * gden
    out = {m: (Fraction(re_, scale), Fraction(im_, scale)) for m, (re_, im_) in acc.items()}
    return {m: v for m, v in out.items() if v != ZERO}


def check_weighted_certificate(data: dict, straightener: Straightener, names,
                               target: dict, generators) -> str | None:
    """Independent check of a weighted certificate against the intended claim.

    Re-expands sum_l sum_pq G_pq w_p^* f_l w_q with the benchmark's own
    straightening and compares it with the benchmark's own target and
    generators (not the ones the file states); decides every Gram block PSD
    by Bareiss elimination.  Returns None when the certificate holds, else
    the reason it does not.
    """
    blocks = sorted(data["blocks"], key=lambda blk: blk["l"])
    if len(blocks) != len(generators):
        return "block count differs from the generator count"
    total: dict = {}
    for blk, gen in zip(blocks, generators):
        basis = [parse_monomial(t, names) for t in blk["basis"]]
        A, B, den = integer_gram(blk["gram"])
        if len(A) != len(basis) or not is_hermitian(A, B):
            return f"block {blk['l']} is not a Hermitian matrix over its basis"
        if basis and not psd_hermitian(A, B):
            return f"block {blk['l']} Gram is not PSD"
        total = el_add(total, gram_expansion(straightener, basis, A, B, den, gen))
    if total != {m: v for m, v in target.items() if v != ZERO}:
        return "re-expansion differs from the intended target"
    return None


# -- commutative forms --------------------------------------------------------------


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: Fraction(c) for m, c in out.items() if c}


def squared_norm(nvars: int) -> dict:
    out = {}
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = 2
        out[tuple(mono)] = Fraction(1)
    return out


def poly_eval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, mono):
            term *= Fraction(x) ** e
        total += term
    return total


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:t\d+(?:\^\d+)?\*?)*)$")


def parse_form(text: str, nvars: int) -> dict:
    """Commutative form from the package's rendering, e.g. "t1^4 + 2*t1^2*t2^2"."""
    out: dict = {}
    body = text.replace(" ", "")
    for sign, term in re.findall(r"([+-]?)([^+-]+)", body):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"unreadable term {term!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        mono = [0] * nvars
        for factor in filter(None, m.group(2).split("*")):
            name, _, exp = factor.partition("^")
            mono[int(name[1:]) - 1] += int(exp) if exp else 1
        out[tuple(mono)] = out.get(tuple(mono), 0) + (-coeff if sign == "-" else coeff)
    return {k: v for k, v in out.items() if v}


def check_commutative_certificate(data: dict, target: dict) -> str | None:
    """Plain polynomial re-expansion of sum G_pq t^(a_p + a_q) and a PSD test."""
    basis = [tuple(m) for m in data["basis"]]
    A, B, den = integer_gram(data["gram"])
    if len(A) != len(basis) or any(any(row) for row in B) or not is_hermitian(A, B):
        return "Gram is not a real symmetric matrix over its basis"
    if basis and not psd_bareiss(A):
        return "Gram is not PSD"
    acc: dict = {}
    for p, ap in enumerate(basis):
        for q, aq in enumerate(basis):
            if A[p][q]:
                mono = tuple(x + y for x, y in zip(ap, aq))
                acc[mono] = acc.get(mono, 0) + A[p][q]
    got = {m: Fraction(v, den) for m, v in acc.items() if v}
    if got != {m: v for m, v in target.items() if v}:
        return "re-expansion differs from the intended target"
    return None
