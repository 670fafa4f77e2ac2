"""Exact linear algebra over rationals and Gaussian rationals.

Matrices are plain lists of lists (Fraction entries for real matrices,
Scalar entries for complex Hermitian work).  Everything here is
arbitrary-precision; these routines back the certificate verifier, the
representation positivity decision and the affine projector of the SDP layer.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar

# -- rational matrices ---------------------------------------------------------


def rref(matrix):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [row[:] for row in matrix]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if R[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = 1 / R[r][c]
        R[r] = [v * inv for v in R[r]]
        for rr in range(rows):
            if rr != r and R[rr][c]:
                f = R[rr][c]
                R[rr] = [v - f * w for v, w in zip(R[rr], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def nullspace(rows, ncols: int):
    """Exact rational basis of {v : rows v = 0}, one vector per free column.

    With no rows every column is free and the basis is the identity.
    """
    R, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


def solve_exact(A, b):
    """One solution of A x = b over the rationals, or None if inconsistent."""
    rows = len(A)
    if rows == 0:
        return []
    cols = len(A[0])
    aug = [A[i][:] + [Fraction(b[i])] for i in range(rows)]
    R, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = R[r][cols]
    return x


def invert_exact(A):
    """Inverse of a nonsingular rational matrix via Gauss-Jordan."""
    n = len(A)
    aug = [A[i][:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


class EchelonAccumulator:
    """Incremental row-space tracker for selecting independent rows.

    Rows are inserted one at a time; insert() reports whether the row enlarged
    the span.  Used both to pick independent constraint rows and to decide
    exact membership of a vector in a growing span.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []  # reduced rows
        self.pivot_cols: list[int] = []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, pc in zip(self.rows, self.pivot_cols):
            if v[pc]:
                f = v[pc]
                for j in range(self.ncols):
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


def cmat_conj_transpose(A):
    n, m = len(A), len(A[0])
    return [[A[i][j].conj() for i in range(n)] for j in range(m)]


def cmat_eq(A, B) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def cmat_is_zero(A) -> bool:
    return all(not a for row in A for a in row)


def cmat_is_hermitian(A) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i].conj() for i in range(n) for j in range(n))


def cmat_inverse(A):
    """Inverse of a nonsingular Scalar matrix via Gauss-Jordan."""
    n = len(A)
    aug = [[A[i][j] for j in range(n)] + [Scalar(1) if i == j else Scalar(0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Scalar(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
