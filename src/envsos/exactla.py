"""Exact linear algebra over rationals and Gaussian rationals.

Real rows are {column: value} mappings and every complex matrix is a
GaussMatrix.  Everything here is arbitrary-precision; these routines back
the certificate verifier, the representation positivity decision, facial
reduction, the pivot completion of the SDP layer's affine systems and the
operator audits.

Rationals are cleared to integers by one helper, `clear` (and `cleared` for
Gaussian rationals on top of it), and both kernels run in integers.
EchelonAccumulator is the one row-reduction loop: fraction-free over Z, rows
kept sparse and primitive, each read as {column: int or Fraction} of its
nonzeros.  Callers that only need span membership, or the reduced rows in
integers (the affine operator's one elimination, which selects rows and
completes their pivots), use it directly.  nullspace takes a GaussMatrix
and returns its kernel as one.  One helper, `realified`, lays (re, im)
pairs out as a real row, re at column 2k and im at 2k + 1: nullspace uses
it on a complex matrix's rows, and the auditor's span tests on a matrix's
numerators.  inverse reads A^-1 off the kernel of [A | -I].  The exact
LDL^* decision, the one Hermitian PSD routine, is a fraction-free (Bareiss)
symmetric factorization over Gaussian integers.  It trusts its input to be
exactly Hermitian (see ldl_hermitian).

GaussMatrix is the one complex matrix form: integer re and im rows over one
positive denominator, in lowest terms.  Its product is the one complex matrix
product loop.  Representations and the images they keep, the operator
audits, kernels, the faces of the Gram problems and the Gram blocks (from the
layout through the certificates to the LDL^* decision) hold their complex
matrices in this form.  Forced face vectors are rows of Scalars with mixed
denominators, cleared by from_scalars in sos.find_certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .scalar import Scalar


def clear(values):
    """(ints, den): ints or Fractions as integers over their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def cleared(values):
    """Gaussian rationals as integer pairs [(re, im), ...] over their least common denominator."""
    ints, den = clear([x for s in values for x in (s.re, s.im)])
    return list(zip(ints[::2], ints[1::2])), den


class EchelonAccumulator:
    """Incremental row echelon form over Q, kept in integers.

    A row is a mapping {column: value} of its nonzero int or Fraction
    entries; it is never changed.  It is cleared once to integers, {column:
    int}, and reduced against the stored rows by cross-multiplication; what
    is left is stored primitive (content divided out, pivot entry positive)
    as a (pivot, row) pair.  A stored row is zero left of its pivot and in the
    pivot columns of earlier rows, which is all insert and contains need;
    reduced_rows() back-substitutes only when the reduced form is asked for.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, dict]] = []  # (pivot, row), in insertion order

    def insert(self, vec, pivot_below=None) -> bool:
        """Store what is left of vec; False when nothing is left, or nothing left of pivot_below."""
        return _append(_integer_row(vec), self.rows, pivot_below)

    def contains(self, vec) -> bool:
        return not _reduce(_integer_row(vec), self.rows)

    def reduced_rows(self):
        """The reduced echelon form in integers: primitive (pivot, row) pairs, pivots ascending.

        Rows are taken by descending pivot and each is reduced against the
        finished rows of larger pivot; a row is already zero left of its own
        pivot, so every other pivot column ends up clear.
        """
        done = []
        for _, row in sorted(self.rows, key=lambda pr: -pr[0]):
            _append(dict(row), done)
        return done[::-1]


def _integer_row(vec) -> dict:
    """vec cleared to integers, as a new mapping."""
    ints, _ = clear(list(vec.values()))
    return dict(zip(vec, ints))


def _reduce(v: dict, rows) -> dict:
    """v reduced in place against rows in order.

    At a row's pivot pc, v <- a v - b row with a / b = row[pc] / v[pc] in lowest terms.
    """
    for pc, row in rows:
        b = v.get(pc)
        if b:
            g = gcd(row[pc], b)
            a, b = row[pc] // g, b // g
            if a != 1:
                for j in v:
                    v[j] *= a
            for j, x in row.items():
                v[j] = v.get(j, 0) - b * x
                if not v[j]:
                    del v[j]
    return v


def _append(v: dict, rows, pivot_below=None) -> bool:
    """Reduce v against rows and store what is left, primitive; False as insert says."""
    if not _reduce(v, rows):
        return False
    pc = min(v)
    if pivot_below is not None and pc >= pivot_below:
        return False
    content = gcd(*v.values()) if v[pc] > 0 else -gcd(*v.values())
    rows.append((pc, {j: x // content for j, x in v.items()}))
    return True


def nullspace(M: GaussMatrix, ncols: int) -> GaussMatrix:
    """Exact basis of {v : M v = 0}, as the rows of a GaussMatrix, one per free column.

    The row of free column f is e_f minus the reduced rows' entries at f,
    placed on their pivots, all over one denominator; with no rows it is the
    identity.  A complex M is realified: column j becomes columns 2j (real
    part) and 2j + 1 (imaginary part), each row r goes in with i r, and the
    even pivots are M's pivots.  A real M (every im zero) stays real.
    """
    step = 2 if any(map(any, M.im)) else 1
    acc = EchelonAccumulator(step * ncols)
    for re, im in zip(M.re, M.im):
        if step == 1:
            acc.insert({j: x for j, x in enumerate(re) if x})
        else:  # r and i r = -im + i re
            acc.insert(realified(zip(re, im)))
            acc.insert(realified(zip((-x for x in im), re)))
    pivots = [(pc // step, row) for pc, row in acc.reduced_rows() if pc % step == 0]
    den = lcm(*(row[step * c] for c, row in pivots))
    pivot_columns = {c for c, _ in pivots}
    re, im = [], []
    for f in range(ncols):
        if f in pivot_columns:
            continue
        vr, vi = [0] * ncols, [0] * ncols
        vr[f] = den
        for c, row in pivots:
            s = den // row[step * c]
            vr[c] = -s * row.get(step * f, 0)
            if step == 2:
                vi[c] = -s * row.get(2 * f + 1, 0)
        re.append(vr)
        im.append(vi)
    return GaussMatrix(re, im, den)


def realified(pairs) -> dict:
    """The (re, im) pairs as a row {column: value}: re at 2k, im at 2k + 1, no zeros."""
    out = {}
    for k, (a, b) in enumerate(pairs):
        if a:
            out[2 * k] = a
        if b:
            out[2 * k + 1] = b
    return out


def inverse(A: GaussMatrix) -> GaussMatrix:
    """A^-1 from the kernel of [A | -I].

    The kernel row of column n + j is (A^-1 e_j, e_j), so A^-1 is the
    transpose of the kernel's left half.  A is singular exactly when the
    right half is not I, and then ValueError is raised.
    """
    n = len(A.re)
    minus_identity = [[-A.den * (i == j) for j in range(n)] for i in range(n)]
    K = nullspace(GaussMatrix([a + b for a, b in zip(A.re, minus_identity)],
                              [row + [0] * n for row in A.im], A.den), 2 * n)
    identity = [[K.den * (i == j) for j in range(n)] for i in range(n)]
    if [row[n:] for row in K.re] != identity or any(any(row[n:]) for row in K.im):
        raise ValueError("matrix is singular")
    return GaussMatrix([list(col) for col in zip(*(row[:n] for row in K.re))],
                       [list(col) for col in zip(*(row[:n] for row in K.im))], K.den)


# -- Gaussian-rational (complex) matrices ----------------------------------------


class GaussMatrix:
    """A Gaussian-rational matrix held as Gaussian-integer rows over one denominator.

    The matrix is (re + i im) / den: re and im are lists of int rows and den
    is a positive int, kept in lowest terms (gcd(den, every numerator) = 1),
    so the zero matrix is the one whose numerators are all 0.  Products,
    sums, scaling and the metric adjoint run on Python ints; from_scalars and
    scalars are the boundary with Scalar matrices.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im, den: int = 1):
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            re = [[x // g for x in row] for row in re]
            im = [[x // g for x in row] for row in im]
        self.re, self.im, self.den = re, im, den // g

    @classmethod
    def from_scalars(cls, M) -> "GaussMatrix":
        """M (rows of Scalar, Fraction or int entries) over one denominator, each row at its length."""
        pairs, den = cleared([Scalar.coerce(x) for row in M for x in row])
        pairs = iter(pairs)
        rows = [[next(pairs) for _ in row] for row in M]
        return cls([[a for a, _ in row] for row in rows], [[b for _, b in row] for row in rows], den)

    @classmethod
    def zero(cls, n: int) -> "GaussMatrix":
        return cls([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "GaussMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)])

    def scalars(self):
        """The matrix as rows of Scalars."""
        d = self.den
        return [[Scalar(Fraction(a, d), Fraction(b, d)) for a, b in zip(ra, ia)]
                for ra, ia in zip(self.re, self.im)]

    def numerators(self):
        """(re, im) integer numerators of the entries, row by row."""
        return zip(chain.from_iterable(self.re), chain.from_iterable(self.im))

    def is_zero(self) -> bool:
        return not any(map(any, self.re)) and not any(map(any, self.im))

    def is_hermitian(self) -> bool:
        """True when the (square) matrix equals its conjugate transpose."""
        re, im = self.re, self.im
        return all(re[i][j] == re[j][i] and im[i][j] == -im[j][i]
                   for i in range(len(re)) for j in range(i, len(re)))

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        """The product; each nonzero entry of self meets only the nonzero entries of a row of other."""
        m = len(other.re[0]) if other.re else 0
        rows = [[(j, c, d) for j, (c, d) in enumerate(zip(br, bi)) if c or d]
                for br, bi in zip(other.re, other.im)]
        re, im = [], []
        for ar, ai in zip(self.re, self.im):
            rr, ri = [0] * m, [0] * m
            for a, b, row in zip(ar, ai, rows):
                if a or b:
                    for j, c, d in row:
                        rr[j] += a * c - b * d
                        ri[j] += a * d + b * c
            re.append(rr)
            im.append(ri)
        return GaussMatrix(re, im, self.den * other.den)

    def _combine(self, other: "GaussMatrix", sign: int) -> "GaussMatrix":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)

        def combined(A, B):
            return [[f * x + g * y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]

        return GaussMatrix(combined(self.re, other.re), combined(self.im, other.im), den)

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "GaussMatrix") -> "GaussMatrix":
        return self._combine(other, -1)

    def scale(self, s) -> "GaussMatrix":
        """s * self for a Gaussian rational (or Fraction, or int) s."""
        [(p, q)], r = cleared([Scalar.coerce(s)])
        return GaussMatrix([[p * a - q * b for a, b in zip(ra, ia)] for ra, ia in zip(self.re, self.im)],
                           [[p * b + q * a for a, b in zip(ra, ia)] for ra, ia in zip(self.re, self.im)],
                           self.den * r)

    def adjoint(self, metric) -> "GaussMatrix":
        """S^-1 M^H S for the positive diagonal metric S = diag(metric).

        Entry (p, q) is s_q conj(M_qp) / s_p, with the metric cleared to
        integers s (their common denominator cancels) and every 1 / s_p
        written as (L / s_p) / L, L = lcm(s).
        """
        s, _ = clear(metric)
        L = lcm(*s)
        w = [L // x for x in s]
        n = len(s)
        return GaussMatrix([[s[q] * w[p] * self.re[q][p] for q in range(n)] for p in range(n)],
                           [[-s[q] * w[p] * self.im[q][p] for q in range(n)] for p in range(n)],
                           self.den * L)


def cmat_identity(n):
    return [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]


# -- Hermitian PSD decision -------------------------------------------------------


class LdlResult:
    """Outcome of the exact LDL^* factorization of a Hermitian matrix; true iff PSD.

    When positive semidefinite: perm, diag and lower describe the factorization
    P M P^T = L D L^* (lower is built from ldl_hermitian's step records when
    first read).  Otherwise `witness` is a rational vector v with v^* M v < 0
    and `witness_value` that negative number.
    """

    def __init__(self, psd: bool, perm=None, diag=None, lower=None,
                 witness=None, witness_value=None):
        self.psd = psd
        self.perm = perm
        self.diag = diag
        self._lower = lower
        self._steps = ()
        self.witness = witness
        self.witness_value = witness_value

    @property
    def lower(self):
        if self._lower is None and self.psd:
            order = {orig: k for k, orig in enumerate(self.perm)}
            self._lower = cmat_identity(len(order))
            for k, (_, p, col) in enumerate(self._steps):
                for r, (a, b) in col.items():
                    self._lower[order[r]][k] = Scalar(Fraction(a, p), Fraction(b, p))
        return self._lower

    def __bool__(self):
        return self.psd

    def is_positive_definite(self) -> bool:
        return self.psd and all(d > 0 for d in self.diag)


def ldl_hermitian(M: GaussMatrix) -> LdlResult:
    """Exact LDL^* by fraction-free (Bareiss) elimination over Gaussian integers.

    M must be exactly Hermitian; only its diagonal is checked.  Callers
    guarantee the rest: certs._block_factors runs GaussMatrix.is_hermitian
    first, and FiniteDimRep.is_positive factors S * pi(e) for a hermitean e,
    which the representation's exact skew-adjointness check makes Hermitian.

    M's integers over its one denominator den are copied once.  A nonzero pivot
    p turns the whole active upper triangle into (p A_rs - A_r,pivot
    conj(A_s,pivot)) // prev, exact division by the previous nonzero pivot,
    so it stays the true Schur complement times prev * den > 0.  The pivot
    is the largest diagonal entry; a zero pivot with a zero column is a
    skipped step, and a zero pivot with a nonzero column or a negative pivot
    certifies indefiniteness.  A step is recorded once as (pivot index,
    scaled pivot, integer column); rationals are built for diag and a witness.
    """
    n, den = len(M.re), M.den
    if any(M.im[i][i] for i in range(n)):
        raise ValueError("matrix is not Hermitian: complex diagonal")
    re, im = [row[:] for row in M.re], [row[:] for row in M.im]
    active, steps, diag, prev = list(range(n)), [], [], 1

    def indefinite(v, vden, value):
        """Lift v ({index: (re, im)} over vden) of value v^* A v < 0 to the original frame.

        A step replaced row r by r - (col_r / p) * (pivot row); subtracting
        conj(col / p) . v on the pivot coordinate undoes it, keeping the value.
        """
        for pivot, p, col in reversed(steps):
            cre = sum(a * v[r][0] + b * v[r][1] for r, (a, b) in col.items() if r in v)
            cim = sum(a * v[r][1] - b * v[r][0] for r, (a, b) in col.items() if r in v)
            if cre or cim:
                v = {r: (p * x, p * y) for r, (x, y) in v.items()}
                x, y = v.get(pivot, (0, 0))
                v[pivot], vden = (x - cre, y - cim), vden * p
        return LdlResult(False, witness=[Scalar(Fraction(x, vden), Fraction(y, vden))
                                         for x, y in (v.get(i, (0, 0)) for i in range(n))],
                         witness_value=value)

    while active:
        pivot = max(active, key=lambda r: re[r][r])
        p = re[pivot][pivot]
        active.remove(pivot)
        scale = prev * den
        if p < 0:
            return indefinite({pivot: (1, 0)}, 1, Fraction(p, scale))
        col = {}
        for r in active:  # below the diagonal A_r,pivot is conj(A_pivot,r)
            a, b = (re[r][pivot], im[r][pivot]) if r < pivot else (re[pivot][r], -im[pivot][r])
            if a or b:
                col[r] = (a, b)
        if p == 0 and col:
            # [[0, m*], [m, A_rr]] is indefinite: e_r + t conj(m) e_pivot with
            # t = (-1 - A_rr) / (2|m|^2) has value -1.
            r, (a, b) = next(iter(col.items()))
            norm2, c = 2 * (a * a + b * b), scale + re[r][r]
            return indefinite({r: (norm2, 0), pivot: (-c * a, c * b)}, norm2, Fraction(-1))
        steps.append((pivot, p, col))
        diag.append(Fraction(p, scale))
        if p:
            column = [col.get(r, (0, 0)) for r in active]
            for i, r in enumerate(active):
                (a, b), Rr, Ir = column[i], re[r], im[r]
                for s, (c, d) in zip(active[i:], column[i:]):
                    Rr[s] = (p * Rr[s] - a * c - b * d) // prev
                    Ir[s] = (p * Ir[s] - b * c + a * d) // prev
            prev = p
    result = LdlResult(True, perm=[pivot for pivot, _, _ in steps], diag=diag)
    result._steps = steps
    return result

