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
not row reduction.
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

    Pivots are chosen as the largest remaining diagonal entry.  A zero pivot
    whose row is not identically zero certifies indefiniteness, as does any
    negative diagonal entry of the Schur complement.
    """
    n = len(M)
    A = [[M[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if not A[i][i].is_real():
            raise ValueError("matrix is not Hermitian: complex diagonal")
    perm: list[int] = []  # perm[k] = original index processed at step k
    active = list(range(n))
    diag: list[Fraction] = []
    # lower_cols[k] holds the multiplier column at step k, indexed by original row
    lower_cols: list[dict] = []

    def negative_witness(step_vectors, vec_in_current):
        """Undo the elimination steps to express the witness in original frame."""
        # vec_in_current: {original_index: Scalar} in the current Schur frame.
        v = dict(vec_in_current)
        for col, pivot_idx in reversed(step_vectors):
            # elimination replaced rows r by r - L[r]*pivot_row; the quadratic
            # form witness lifts by subtracting L^* components on the pivot.
            correction = Scalar(0)
            for r, lv in col.items():
                if r in v:
                    correction = correction + lv.conj() * v[r]
            if correction:
                v[pivot_idx] = v.get(pivot_idx, Scalar(0)) - correction
        out = [Scalar(0)] * n
        for idx, val in v.items():
            out[idx] = val
        return out

    steps = []  # (multiplier column dict, pivot original index)
    while active:
        # diagonal pivoting: take the largest remaining diagonal entry
        pivot = max(active, key=lambda r: A[r][r].re)
        piv_val = A[pivot][pivot].re
        if piv_val < 0:
            w = negative_witness(steps, {pivot: Scalar(1)})
            return LdlResult(False, witness=w, witness_value=piv_val)
        if piv_val == 0:
            for r in active:
                if r != pivot and A[r][pivot]:
                    # 2x2 block [[0, m*],[m, A_rr]] is indefinite:
                    # phi = e_r + t*conj(m)*e_pivot with m = A[r][pivot] gives
                    # value A_rr + 2t|m|^2; pick t so the value is -1.
                    m = A[r][pivot]
                    norm = (m * m.conj()).re
                    t = (-1 - A[r][r].re) / (2 * norm)
                    vec = {r: Scalar(1), pivot: Scalar(t) * m.conj()}
                    value = A[r][r].re + 2 * t * norm
                    w = negative_witness(steps, vec)
                    return LdlResult(False, witness=w, witness_value=value)
            active.remove(pivot)
            perm.append(pivot)
            diag.append(Fraction(0))
            lower_cols.append({})
            continue
        active.remove(pivot)
        perm.append(pivot)
        col = {}
        for r in active:
            if A[r][pivot]:
                col[r] = A[r][pivot] / Scalar(piv_val)
        # Schur update: A_rs -= L_r * piv * conj(L_s)
        for r in active:
            lr = col.get(r)
            if lr is None:
                continue
            for s in active:
                ls = col.get(s)
                if ls is None:
                    continue
                A[r][s] = A[r][s] - lr * Scalar(piv_val) * ls.conj()
        diag.append(piv_val)
        lower_cols.append(col)
        steps.append((col, pivot))

    # assemble L in the permuted frame for the stored factorization
    order = {orig: k for k, orig in enumerate(perm)}
    L = cmat_identity(n)
    for k, col in enumerate(lower_cols):
        for orig, val in col.items():
            if order[orig] > k:
                L[order[orig]][k] = val
    return LdlResult(True, perm=perm, diag=diag, lower=L)


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
