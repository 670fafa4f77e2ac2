"""Exact linear algebra over rationals and Gaussian rationals.

Matrices are plain lists of lists (Fraction entries for real matrices,
Scalar entries for complex Hermitian work).  Everything here is
arbitrary-precision; these routines back the certificate verifier, the
representation positivity decision, the affine projector of the SDP layer and
the operator audits.

EchelonAccumulator is the one elimination loop: rref, nullspace and
invert_exact are built on it, and callers that only need span membership use
it directly.  It takes Fraction or Scalar entries (ints are read as
Fractions), and results keep the entry type of the input.  The exact LDL^*
decision, the one Hermitian PSD routine, is separate: a fraction-free
(Bareiss) symmetric factorization over Gaussian integers of its input
cleared by `cleared`, the helper the certificate re-expansion shares.  It
trusts its input to be exactly Hermitian (see ldl_hermitian).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalar import Scalar


class EchelonAccumulator:
    """Incremental row echelon form over Q or Q(i).

    Rows are inserted one at a time: insert() reduces the row against the
    stored rows and, when something is left, scales its leftmost nonzero entry
    to 1 and stores it, reporting whether the row enlarged the span.  A stored
    row is zero left of its pivot and in the pivot columns of earlier rows,
    which is all insert and contains need; reduced() back-substitutes only
    when a reduced form is asked for.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []  # stored rows, in insertion order
        self.pivot_cols: list[int] = []

    def reduce(self, vec):
        v = [x if isinstance(x, (Fraction, Scalar)) else Fraction(x) for x in vec]
        for row, pc in zip(self.rows, self.pivot_cols):
            if v[pc]:
                f = v[pc]
                for j in range(pc, self.ncols):
                    if row[j]:
                        v[j] -= f * row[j]
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        for c in range(self.ncols):
            if v[c]:
                inv = 1 / v[c]
                v = [x * inv for x in v]
                self.rows.append(v)
                self.pivot_cols.append(c)
                return True
        return False

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduced(self):
        """(R, pivots): the reduced row echelon form of the span, pivots ascending.

        Rows are taken by descending pivot and each is reduced against the
        finished rows of larger pivot; a row is already zero left of its own
        pivot, so every other pivot column ends up clear.
        """
        done = EchelonAccumulator(self.ncols)
        for i in sorted(range(self.rank), key=self.pivot_cols.__getitem__, reverse=True):
            done.rows.append(done.reduce(self.rows[i]))
            done.pivot_cols.append(self.pivot_cols[i])
        return done.rows[::-1], done.pivot_cols[::-1]


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
        acc.insert(row)
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
    field = _entry_type(A)
    aug = [list(A[i]) + [field(1) if i == j else field(0) for j in range(n)] for i in range(n)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


# -- Gaussian-rational (complex) matrices ----------------------------------------


def cmat_zero(n, m=None):
    m = n if m is None else m
    return [[Scalar(0) for _ in range(m)] for _ in range(n)]


def cmat_identity(n):
    return [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]


def cmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_scale(s, A):
    s = Scalar.coerce(s)
    return [[s * a for a in row] for row in A]


def cmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[Scalar(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    if Bt[j]:
                        Oi[j] = Oi[j] + a * Bt[j]
    return out


def cmat_is_zero(A) -> bool:
    return all(not a for row in A for a in row)


def cmat_is_hermitian(A) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i].conj() for i in range(n) for j in range(i, n))


# -- Hermitian PSD decision -------------------------------------------------------


def cleared(values):
    """Gaussian rationals as integer pairs [(re, im), ...] over their least common denominator."""
    den = lcm(*{x.denominator for s in values for x in (s.re, s.im)})
    return [(s.re.numerator * (den // s.re.denominator), s.im.numerator * (den // s.im.denominator))
            for s in values], den


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


def ldl_hermitian(M) -> LdlResult:
    """Exact LDL^* by fraction-free (Bareiss) elimination over Gaussian integers.

    M must be exactly Hermitian; only its diagonal is checked.  Callers
    guarantee the rest: certs._block_factors runs cmat_is_hermitian first,
    and FiniteDimRep.is_positive factors S * pi(e) for a hermitean e, which
    the representation's exact skew-adjointness check makes Hermitian.

    M is cleared once to integers over one denominator den.  A nonzero pivot
    p turns the whole active upper triangle into (p A_rs - A_r,pivot
    conj(A_s,pivot)) // prev, exact division by the previous nonzero pivot,
    so it stays the true Schur complement times prev * den > 0.  The pivot
    is the largest diagonal entry; a zero pivot with a zero column is a
    skipped step, and a zero pivot with a nonzero column or a negative pivot
    certifies indefiniteness.  A step is recorded once as (pivot index,
    scaled pivot, integer column); rationals are built for diag and a witness.
    """
    n = len(M)
    if not all(M[i][i].is_real() for i in range(n)):
        raise ValueError("matrix is not Hermitian: complex diagonal")
    pairs, den = cleared([s for row in M for s in row])
    re, im = ([[pair[k] for pair in pairs[i * n:(i + 1) * n]] for i in range(n)] for k in (0, 1))
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


def hermitian_form(M, v):
    """v^* M v as a Scalar (real for Hermitian M)."""
    n = len(M)
    total = Scalar(0)
    for i in range(n):
        if not v[i]:
            continue
        for j in range(n):
            if v[j]:
                total = total + v[i].conj() * M[i][j] * v[j]
    return total
