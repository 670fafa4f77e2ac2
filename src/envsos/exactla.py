"""Exact linear algebra over rationals and Gaussian rationals.

Real matrices, and the complex ones of the row-reduction helpers, are plain
lists of lists (Fraction or Scalar entries); every other complex matrix is a
GaussMatrix.  Everything here is arbitrary-precision; these routines back the
certificate verifier, the representation positivity decision, the pivot
completion of the SDP layer's affine systems and the operator audits.

Rationals are cleared to integers by one helper, `clear` (and `cleared` for
Gaussian rationals on top of it), and both kernels run in integers.
EchelonAccumulator is the one row-reduction loop: fraction-free over Z,
rows kept sparse and primitive, complex rows realified into (re, im) column
pairs; it reads a row as {column: value} of its nonzeros.  rref, nullspace
and invert_exact (whose one caller is the audit context's inverse) are built
on it and convert back to Fractions, or Scalars for complex input, only at
the end.  Callers that only need span membership, or the reduced rows in
integers (the affine operator's one elimination, which selects rows and
completes their pivots), use it directly.  The exact LDL^* decision, the
one Hermitian PSD routine, is a fraction-free (Bareiss) symmetric
factorization over Gaussian integers.  It trusts its input to be exactly
Hermitian (see ldl_hermitian).

GaussMatrix is the one complex matrix form: integer re and im rows over one
positive denominator, in lowest terms.  Its product is the one complex matrix
product loop.  Representations, the operator audits, Gram faces and blocks
and the LDL^* decision all hold their complex matrices in this form; Scalar
matrices appear only at the boundary, through from_scalars and scalars.
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
    """Incremental row echelon form over Q or Q(i), kept in integers.

    A row is a mapping {column: value} of its nonzero int, Fraction or Scalar
    entries; it is never changed.  It is cleared once to integers, {column:
    int}, and reduced against the stored rows by cross-multiplication; what
    is left is stored primitive (content divided out, pivot entry positive)
    as a (pivot, row) pair.  A stored row is zero left of its pivot and in the
    pivot columns of earlier rows, which is all insert and contains need;
    reduced() back-substitutes only when a reduced form is asked for.
    Complex rows are realified: column j becomes columns 2j (real part) and
    2j + 1 (imaginary part), and a row r is stored with i r.  The first Scalar
    entry moves the rows stored so far to those columns, each with its i r.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.complex = False
        self.rows: list[tuple[int, dict]] = []  # (pivot, row), in insertion order

    def _integer_row(self, vec) -> dict:
        """vec cleared to integers, over the realified columns once any Scalar was read."""
        if not self.complex and any(isinstance(x, Scalar) for x in vec.values()):
            self.complex = True
            self.rows = [(2 * pc + k, {2 * j + k: x for j, x in row.items()})
                         for pc, row in self.rows for k in (0, 1)]
        if self.complex:  # a new mapping: the caller's is never changed
            vec = {2 * j + k: y for j, x in vec.items()
                   for k, y in enumerate((x.re, x.im) if isinstance(x, Scalar) else (x, 0)) if y}
        ints, _ = clear(list(vec.values()))
        return dict(zip(vec, ints))

    def insert(self, vec, pivot_below=None) -> bool:
        """Store what is left of vec; False when nothing is left, or nothing left of pivot_below."""
        v = self._integer_row(vec)
        if not _append(v, self.rows, pivot_below):
            return False
        if self.complex:  # i v: (re, im) -> (-im, re) in each column pair
            _append({j ^ 1: -x if j & 1 else x for j, x in v.items()}, self.rows)
        return True

    def contains(self, vec) -> bool:
        return not _reduce(self._integer_row(vec), self.rows)

    def reduced_rows(self):
        """The reduced echelon form in integers: primitive (pivot, row) pairs, pivots ascending.

        Rows are taken by descending pivot and each is reduced against the
        finished rows of larger pivot; a row is already zero left of its own
        pivot, so every other pivot column ends up clear.  Columns are the
        realified ones once a Scalar was read.
        """
        done = []
        for _, row in sorted(self.rows, key=lambda pr: -pr[0]):
            _append(dict(row), done)
        return done[::-1]

    def reduced(self):
        """(R, pivots): the reduced row echelon form of the span, pivots ascending.

        Entries are Fractions, or Scalars from the realified form's rows of
        even pivot.
        """
        step, zero = (2 if self.complex else 1), Fraction(0)
        kept = [(pc, v) for pc, v in self.reduced_rows() if pc % step == 0]
        R = [[Fraction(v[j], v[pc]) if j in v else zero for j in range(step * self.ncols)]
             for pc, v in kept]
        if self.complex:
            R = [[Scalar(a, b) for a, b in zip(row[::2], row[1::2])] for row in R]
        return R, [pc // step for pc, _ in kept]


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


def _entry_type(matrix):
    """Scalar when any entry is a Scalar, else Fraction: the type of every result entry."""
    return Scalar if any(isinstance(x, Scalar) for row in matrix for x in row) else Fraction


def rref(matrix):
    """Reduced row echelon form; returns (R, pivot_columns).

    R has as many rows as the matrix: the reduced rows, then zero rows.
    """
    field = _entry_type(matrix)
    ncols = len(matrix[0]) if matrix else 0
    acc = EchelonAccumulator(ncols)
    for row in matrix:
        acc.insert({j: x for j, x in enumerate(row) if x})
    R, pivots = acc.reduced()
    return R + [[field(0)] * ncols for _ in range(len(matrix) - len(R))], pivots


def nullspace(rows, ncols: int):
    """Exact basis of {v : rows v = 0}, one vector per free column.

    With no rows every column is free and the basis is the identity.
    """
    field = _entry_type(rows)
    R, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field(0)] * ncols
        v[f] = field(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


def invert_exact(A):
    """Inverse of a nonsingular matrix, from the reduced form of [A | I]."""
    n = len(A)
    aug = [list(A[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


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
        """M (rows of Scalar, Fraction or int entries) cleared to one denominator."""
        pairs, den = cleared([Scalar.coerce(x) for row in M for x in row])
        m = len(M[0]) if M else 0
        rows = [pairs[i * m:(i + 1) * m] for i in range(len(M))]
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

