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
decision for Hermitian matrices is separate: it is a symmetric factorization,
not row reduction, and keeps one record per elimination step (pivot index,
real pivot, multiplier column).  It trusts its input to be exactly Hermitian;
its callers guarantee that (see ldl_hermitian).
"""

from __future__ import annotations

from fractions import Fraction

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
    return all(A[i][j] == A[j][i].conj() for i in range(n) for j in range(n))


# -- Hermitian PSD decision -------------------------------------------------------


class LdlResult:
    """Outcome of the exact LDL^* factorization of a Hermitian matrix.

    When positive semidefinite: perm, diag and lower describe the factorization
    P M P^T = L D L^*.  Otherwise `witness` is a rational vector v with
    v^* M v < 0 and `witness_value` that negative number.
    """

    def __init__(self, psd: bool, perm=None, diag=None, lower=None,
                 witness=None, witness_value=None):
        self.psd = psd
        self.perm = perm
        self.diag = diag
        self.lower = lower
        self.witness = witness
        self.witness_value = witness_value

    def is_positive_definite(self) -> bool:
        return self.psd and all(d > 0 for d in self.diag)


def ldl_hermitian(M) -> LdlResult:
    """Exact LDL^* with diagonal pivoting and the zero-pivot column rule.

    M must be exactly Hermitian; only its diagonal is checked.  Each Schur
    entry is computed once, in the upper triangle, and mirrored as its
    conjugate.  Callers guarantee the precondition: certs._block_factors runs
    cmat_is_hermitian first, and FiniteDimRep.is_positive factors S * pi(e)
    for a hermitean e, which the representation's exact skew-adjointness
    check makes Hermitian.

    Each step is recorded once as (pivot index, real pivot, multiplier column
    by original row); perm, diag, lower and the witness lift read these
    records.  The pivot is the largest remaining diagonal entry.  A zero pivot
    with a zero column is a step with an empty column; a zero pivot with a
    nonzero column certifies indefiniteness, as does a negative pivot.
    """
    n = len(M)
    A = [list(row) for row in M]
    if not all(A[i][i].is_real() for i in range(n)):
        raise ValueError("matrix is not Hermitian: complex diagonal")
    active = list(range(n))
    steps: list[tuple[int, Fraction, dict]] = []

    def indefinite(vec, value):
        """Lift a current-frame vector of value v^* A v < 0 to the original frame.

        Each step replaced row r by r - L_r * (pivot row); subtracting L^* v
        on the pivot coordinate undoes it and keeps the value.
        """
        v = dict(vec)
        for pivot, _, col in reversed(steps):
            correction = Scalar(0)
            for r, lv in col.items():
                if r in v:
                    correction = correction + lv.conj() * v[r]
            if correction:
                v[pivot] = v.get(pivot, Scalar(0)) - correction
        return LdlResult(False, witness=[v.get(i, Scalar(0)) for i in range(n)],
                         witness_value=value)

    while active:
        pivot = max(active, key=lambda r: A[r][r].re)
        piv = A[pivot][pivot].re
        active.remove(pivot)
        if piv < 0:
            return indefinite({pivot: Scalar(1)}, piv)
        rows = [r for r in active if A[r][pivot]]
        if piv == 0 and rows:
            # 2x2 block [[0, m*],[m, A_rr]] is indefinite: phi = e_r +
            # t*conj(m)*e_pivot with m = A[r][pivot] has value A_rr + 2t|m|^2;
            # pick t so the value is -1.
            r = rows[0]
            m = A[r][pivot]
            norm = (m * m.conj()).re
            t = (-1 - A[r][r].re) / (2 * norm)
            return indefinite({r: Scalar(1), pivot: Scalar(t) * m.conj()},
                              A[r][r].re + 2 * t * norm)
        col = {r: Scalar(A[r][pivot].re / piv, A[r][pivot].im / piv) for r in rows}
        steps.append((pivot, piv, col))
        # Schur update A_rs -= L_r * piv * conj(L_s) = A_r,pivot * conj(L_s)
        for i, r in enumerate(rows):
            Ar, a = A[r], A[r][pivot]
            for s in rows[i:]:
                x = Ar[s] - a * col[s].conj()
                Ar[s] = x
                A[s][r] = x.conj()

    perm = [pivot for pivot, _, _ in steps]
    order = {orig: k for k, orig in enumerate(perm)}
    L = cmat_identity(n)
    for k, (_, _, col) in enumerate(steps):
        for r, val in col.items():
            L[order[r]][k] = val
    return LdlResult(True, perm=perm, diag=[piv for _, piv, _ in steps], lower=L)


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
