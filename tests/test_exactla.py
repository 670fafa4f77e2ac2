import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envsos.exactla import (
    EchelonAccumulator,
    cmat_identity,
    cmat_mul,
    hermitian_form,
    invert_exact,
    ldl_hermitian,
    nullspace,
    rref,
)
from envsos.gram import AffineSystem
from envsos.poly import CommutativePoly
from envsos.scalar import Scalar
from envsos.sos import commutative_sos

from oracles import psd_by_char_poly


def rand_frac(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def random_hermitian(rng, n):
    M = [[Scalar(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        M[i][i] = Scalar(rand_frac(rng))
        for j in range(i + 1, n):
            z = Scalar(rand_frac(rng), rand_frac(rng))
            M[i][j] = z
            M[j][i] = z.conj()
    return M


def random_psd(rng, n, rank=None):
    rank = rank if rank is not None else n
    cols = [[Scalar(rand_frac(rng), rand_frac(rng)) for _ in range(n)] for _ in range(rank)]
    M = [[Scalar(0) for _ in range(n)] for _ in range(n)]
    for v in cols:
        for i in range(n):
            for j in range(n):
                M[i][j] = M[i][j] + v[i] * v[j].conj()
    return M


def test_exact_linear_infeasibility():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    conflict = AffineSystem(A, [3, 7], [1, 1])
    assert conflict.degenerate
    assert conflict.exact_infeasibility_combination() == [-2, 1]
    consistent = AffineSystem(A, [3, 6], [1, 1])
    assert not consistent.degenerate
    assert consistent.independent == [0]
    assert consistent.exact_infeasibility_combination() is None
    # a "verified zero" of t1^2 + t2^2 at (1, 0) forces the whole Gram to vanish
    report = commutative_sos(CommutativePoly(2, {(2, 0): 1, (0, 2): 1}), 0,
                             presampled=(None, [(1, 0)]))
    assert report.status == "numeric-infeasible-evidence"
    dual = report.to_json_dict()["numeric"]["dual"]
    assert dual["kind"] == "exact-linear"
    assert dual["combination"] == ["1", "0"]


def test_invert_exact_roundtrip():
    rng = random.Random(2)
    for n in (1, 2, 4):
        while True:
            A = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
            R, pivots = rref([row[:] for row in A])
            if len(pivots) == n:
                break
        Ainv = invert_exact(A)
        prod = [
            [sum(A[i][k] * Ainv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


# -- the elimination kernel against a plain Gauss-Jordan reference -----------------


def reference_rref(matrix):
    """Textbook Gauss-Jordan: first nonzero row of each column as pivot."""
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


def reference_nullspace(rows, ncols):
    R, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -R[r][f]
            basis.append(v)
    return basis


fractions = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
gaussian = st.builds(Scalar, fractions, fractions)


@st.composite
def matrices(draw, entries, max_rows=4, max_cols=5, square=False):
    """Small matrices; some rows are combinations of earlier ones, so ranks vary."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    M = []
    for _ in range(nrows):
        if M and draw(st.booleans()):
            c = [draw(entries) for _ in M]
            M.append([sum((ci * row[j] for ci, row in zip(c, M)), 0 * M[0][j])
                      for j in range(ncols)])
        else:
            M.append([draw(entries) for _ in range(ncols)])
    return M


def all_of_type(rows, kind):
    return all(isinstance(x, kind) for row in rows for x in row)


@settings(deadline=None)
@given(st.one_of(matrices(fractions), matrices(gaussian)))
def test_rref_and_nullspace_match_reference(M):
    kind = Scalar if isinstance(M[0][0], Scalar) else Fraction
    R, pivots = rref(M)
    assert (R, pivots) == reference_rref(M)
    assert len(R) == len(M) and all_of_type(R, kind)
    basis = nullspace(M, len(M[0]))
    assert basis == reference_nullspace(M, len(M[0]))
    assert all_of_type(basis, kind)


@settings(deadline=None)
@given(st.one_of(matrices(fractions, square=True), matrices(gaussian, square=True)))
def test_invert_exact_against_reference(A):
    n = len(A)
    R, pivots = reference_rref(A)
    if len(pivots) < n:
        with pytest.raises(ValueError):
            invert_exact(A)
        return
    Ainv = invert_exact(A)
    if isinstance(A[0][0], Scalar):
        assert all_of_type(Ainv, Scalar)
        assert cmat_mul(Ainv, A) == cmat_identity(n)
    else:
        assert all_of_type(Ainv, Fraction)
    I = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R, _ = reference_rref([row + e for row, e in zip(A, I)])
    assert Ainv == [row[n:] for row in R]


@settings(deadline=None)
@given(st.one_of(matrices(fractions, max_rows=6), matrices(gaussian, max_rows=6)))
def test_echelon_insert_tracks_reference_rank(M):
    acc = EchelonAccumulator(len(M[0]))
    for k, row in enumerate(M):
        before = len(reference_rref(M[:k])[1]) if k else 0
        grows = len(reference_rref(M[:k + 1])[1]) > before
        assert acc.contains(row) == (not grows)
        assert acc.insert(row) == grows
        assert acc.rank == before + grows


def test_kernel_accepts_ints():
    R, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1] and all_of_type(R, Fraction)
    assert invert_exact([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    assert nullspace([[1, 1]], 2) == [[-1, 1]]
    assert rref([]) == ([], []) and nullspace([], 2) == [[1, 0], [0, 1]]


def test_echelon_accumulator_rank():
    acc = EchelonAccumulator(3)
    assert acc.insert([1, 0, 0])
    assert acc.insert([1, 1, 0])
    assert not acc.insert([2, 1, 0])
    assert acc.rank == 2
    assert acc.contains([5, 3, 0])
    assert not acc.contains([0, 0, 1])


def test_ldl_agrees_with_char_poly_oracle():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(8):
            M = random_hermitian(rng, n)
            assert ldl_hermitian(M).psd == psd_by_char_poly(M)
        for _ in range(4):
            M = random_psd(rng, n, rank=max(1, n - 1))
            res = ldl_hermitian(M)
            assert res.psd
            assert psd_by_char_poly(M)


def test_ldl_witness_is_exact_negative_direction():
    rng = random.Random(8)
    found = 0
    for n in range(2, 6):
        for _ in range(10):
            M = random_hermitian(rng, n)
            res = ldl_hermitian(M)
            if not res.psd:
                found += 1
                val = hermitian_form(M, res.witness)
                assert val.is_real() and val.re < 0
                assert val.re == res.witness_value
    assert found > 5


def test_ldl_zero_pivot_rule():
    # [[0, 1], [1, 0]] is indefinite even though the diagonal vanishes
    M = [[Scalar(0), Scalar(1)], [Scalar(1), Scalar(0)]]
    res = ldl_hermitian(M)
    assert not res.psd
    val = hermitian_form(M, res.witness)
    assert val.re < 0
    # genuinely zero row is fine
    Z = [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(1)]]
    assert ldl_hermitian(Z).psd


def test_ldl_factorization_reconstructs():
    rng = random.Random(13)
    for n in (2, 3, 5):
        M = random_psd(rng, n)
        res = ldl_hermitian(M)
        assert res.psd
        # P M P^T = L D L^*
        perm = res.perm
        PMPT = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        D = [[Scalar(res.diag[i]) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
        Lh = [[res.lower[j][i].conj() for j in range(n)] for i in range(n)]
        recon = cmat_mul(cmat_mul(res.lower, D), Lh)
        assert recon == PMPT


def test_positive_definite_flag():
    I2 = cmat_identity(2)
    assert ldl_hermitian(I2).is_positive_definite()
    sing = [[Scalar(1), Scalar(1)], [Scalar(1), Scalar(1)]]
    res = ldl_hermitian(sing)
    assert res.psd and not res.is_positive_definite()
