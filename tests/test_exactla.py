import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envsos.certs import RoundingFailed, round_and_verify
from envsos.exactla import (
    EchelonAccumulator,
    GaussMatrix,
    inverse,
    ldl_hermitian,
    nullspace,
)
from envsos.driver import window_members
from envsos.gram import AffineOperator, AffineSystem, CommGramProblem, GramSkeleton
from envsos.lie import builtin
from envsos.pbw import AlgebraElement, canonical_a
from envsos.poly import CommutativePoly
from envsos.reps import make_spin_rep
from envsos.scalar import Scalar
from envsos.sos import commutative_sos, forced_face_vectors, sample_sign_information

from oracles import (
    ReferenceEchelonAccumulator,
    cmat_add,
    cmat_identity,
    cmat_scale,
    cmat_sub,
    cmat_zero,
    echelon_rank,
    hermitian_form,
    planted_gram_vector,
    psd_by_char_poly,
    random_hermitean,
    reference_cmat_mul,
    reference_ldl_hermitian,
    reference_metric_adjoint,
    reference_nullspace,
    reference_rref,
    residual_exact,
)


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
    A = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    conflict = AffineSystem(AffineOperator(A, [1, 1]), [3, 7])
    assert conflict.degenerate
    assert conflict.exact_infeasibility_combination() == [-2, 1]
    consistent = AffineSystem(AffineOperator(A, [1, 1]), [3, 6])
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


def _dense(row, nvars):
    return [row.get(j, Fraction(0)) for j in range(nvars)]


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _per_target_reference(rows, rhs, nvars):
    """The selection the shared operator replaced, rebuilt for every rhs: greedy
    selection on [A | b] by the frozen Fraction echelon.  The system is degenerate
    when that selects a row whose A part depends on the rows selected before it."""
    rows = [_dense(row, nvars) for row in rows]
    rhs = [Fraction(v) for v in rhs]
    acc, on_a = ReferenceEchelonAccumulator(nvars + 1), ReferenceEchelonAccumulator(nvars)
    independent = [i for i, row in enumerate(rows) if acc.insert(list(row) + [rhs[i]])]
    return independent, not all(on_a.insert(rows[i]) for i in independent)


def _consistent_rhs(rows, rng, layout):
    g = planted_gram_vector(layout, rng)
    return [sum(x * g[j] for j, x in row.items()) for row in rows]


def _assert_matches_reference(system, rng):
    """Selection and degeneracy as the per-target reference; then pivot completion
    keeps the free coordinates, meets every selected row (every row when the system
    is consistent) exactly, and changes nothing when applied twice."""
    op = system.operator
    independent, degenerate = _per_target_reference(op.rows, system.rhs, op.nvars)
    assert system.degenerate == degenerate
    if degenerate:
        # [A | b] selects one row more than A alone: the one whose rhs conflicts
        assert set(system.independent) < set(independent)
        assert len(independent) == len(system.independent) + 1
    else:
        assert system.independent == independent
    point = [rand_frac(rng) for _ in range(op.nvars)]
    projected = system.project_exact(point)
    pivots = {c for c, _, _, _ in op.pivot_rows}
    assert len(pivots) == len(op.independent)
    assert [x for j, x in enumerate(projected) if j not in pivots] == \
        [x for j, x in enumerate(point) if j not in pivots]
    residual = residual_exact(system, projected)
    met = op.independent if degenerate else range(len(op.rows))
    assert all(residual[i] == 0 for i in met)
    assert system.project_exact(projected) == projected


def test_shared_operator_matches_per_target_construction():
    rng = random.Random(83)
    su2 = builtin("su2")
    unit = AlgebraElement.unit(su2)
    f = [unit, unit.scale(2) + AlgebraElement.monomial(su2, (1, 0, 0), Scalar(0, 1))]
    skeleton = GramSkeleton(su2, f, 4)
    for _ in range(3):
        rhs = _consistent_rhs(skeleton.rows, rng, skeleton.layout)
        system = AffineSystem(skeleton.operator, rhs)
        _assert_matches_reference(system, rng)
        # a conflicting rhs on a row that the others determine, and on a selected row
        for i in (skeleton.operator.dependent[-1], skeleton.operator.independent[-1]):
            bad = list(rhs)
            bad[i] += Fraction(1, 3)
            conflict = AffineSystem(skeleton.operator, bad)
            _assert_matches_reference(conflict, rng)
    assert len(skeleton.operator.independent) == 35


def test_faced_and_commutative_operators_match_per_target_construction():
    rng = random.Random(84)
    su2 = builtin("su2")
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    margin = a * a - unit
    skeleton = GramSkeleton(su2, [unit], 4)
    members = window_members(su2, [unit], Fraction(3)).values()
    forced, = forced_face_vectors(margin, [unit], skeleton.bases, members)
    faced = skeleton.problem_for(margin, [nullspace(forced, len(skeleton.bases[0]))])
    form = CommutativePoly(3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1})
    _, zeros = sample_sign_information(form)
    comm = CommGramProblem(form, kernel_points=zeros, level=1)
    for problem in (faced, comm):
        system, weights = problem.system, problem.layout.weights
        rows = system.operator.rows
        _assert_matches_reference(system, rng)
        bad = list(system.rhs)
        bad[system.operator.dependent[0]] += 1
        conflict = AffineSystem(AffineOperator(rows, weights), bad)
        _assert_matches_reference(conflict, rng)


MOTZKIN = CommutativePoly(3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1})


def _motzkin_problem(level):
    _, zeros = sample_sign_information(MOTZKIN)
    return CommGramProblem(MOTZKIN, kernel_points=zeros, level=level)


def test_float_views_are_float_of_the_exact_operator():
    """float_data() reads float() of A_ind bit for bit, and N inverts A_ind W^-1 A_ind^T."""
    su2 = builtin("su2")
    unit = AlgebraElement.unit(su2)
    f = [unit, unit.scale(2) + AlgebraElement.monomial(su2, (1, 0, 0), Scalar(0, 1))]
    skeleton = GramSkeleton(su2, f, 4)
    margin = canonical_a(su2) * canonical_a(su2) - unit
    unit_skeleton = GramSkeleton(su2, [unit], 4)
    members = window_members(su2, [unit], Fraction(3)).values()
    forced, = forced_face_vectors(margin, [unit], unit_skeleton.bases, members)
    faced = unit_skeleton.problem_for(margin, [nullspace(forced, len(unit_skeleton.bases[0]))])
    cases = [(skeleton.operator, skeleton.layout.weights),
             (faced.system.operator, faced.layout.weights)]
    cases += [(p.system.operator, p.layout.weights) for p in map(_motzkin_problem, (0, 1))]
    shapes = []
    for op, weights in cases:
        m = len(op.independent)
        A = [_dense(op.rows[i], op.nvars) for i in op.independent]
        gram = [[sum(x * y / w for x, y, w in zip(ra, rb, weights) if x and y) for rb in A]
                for ra in A]
        A_float, N_float, _ = op.float_data()
        assert np.array_equal(A_float, np.array([[float(x) for x in row] for row in A])
                              .reshape(m, op.nvars))
        gram_float = np.array([[float(x) for x in row] for row in gram]).reshape(m, m)
        assert np.allclose(N_float @ gram_float, np.eye(m), rtol=0, atol=1e-9)
        shapes.append(N_float.shape)
    assert shapes[0] == (35, 35) and (0, 0) in shapes


def test_an_operator_with_no_selected_row_needs_no_special_case():
    for rows in ([], [{}]):
        op = AffineOperator(rows, [Fraction(2), Fraction(4)])
        assert op.independent == [] and op.float_data()[1].shape == (0, 0)
        g = [Fraction(1, 3), Fraction(-2)]
        for rhs, degenerate in (([0] * len(rows), False), ([3] * len(rows), bool(rows))):
            system = AffineSystem(op, rhs)
            assert system.degenerate == degenerate
            assert system.project_exact(g) == g
            assert system.residual_float(np.array([1.0, -1.0])) == 0.0
            assert np.array_equal(system.min_norm_point_float(), np.zeros(2))
            assert np.array_equal(system.project_float(np.array([1.5, 2.0])), [1.5, 2.0])
            expected = [Fraction(1, 3)] if degenerate else None
            assert system.exact_infeasibility_combination() == expected


def test_integer_weights_keep_the_projection_exact():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}]
    system = AffineSystem(AffineOperator(rows, [1, 1]), [1, 1])
    assert system.project_exact([Fraction(0), Fraction(0)]) == [Fraction(1, 5), Fraction(2, 5)]


def test_rounding_a_degenerate_problem_fails():
    motzkin = _motzkin_problem(0)  # every monomial killed: a 0 x 0 operator, four rows
    # a face that drops t2^2 leaves the t2^4 term of t1^4 + t2^4 unreachable
    quartic = CommGramProblem(CommutativePoly(2, {(4, 0): 1, (0, 4): 1}), kernel_points=[(0, 1)])
    for problem in (motzkin, quartic):
        assert problem.system.degenerate
        with pytest.raises(RoundingFailed):
            round_and_verify(problem, np.ones(problem.layout.nvars))
    assert not motzkin.system.independent and quartic.system.independent


def test_inverse_roundtrip():
    rng = random.Random(2)
    for n in (1, 2, 4):
        while True:
            A = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
            if len(reference_rref(A)[1]) == n:
                break
        G = GaussMatrix.from_scalars(A)
        assert (G @ inverse(G)).scalars() == cmat_identity(n)


# -- the elimination kernel against a plain Gauss-Jordan reference -----------------


# small entries make dependent rows common; 70-bit ones exercise content division
fractions = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                      st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**70)))
gaussian = st.builds(Scalar, fractions, fractions)


@st.composite
def matrices(draw, entries, max_rows=4, max_cols=9, square=False):
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


@settings(deadline=None)
@given(st.one_of(matrices(fractions), matrices(gaussian)))
def test_nullspace_matches_reference(M):
    n = len(M[0])
    for rows in (M, []):  # with no rows the kernel is the identity
        K = nullspace(GaussMatrix.from_scalars(rows), n)
        assert_lowest_terms(K)
        assert K.scalars() == reference_nullspace(rows, n)


@settings(deadline=None)
@given(st.one_of(matrices(fractions, square=True), matrices(gaussian, square=True)))
def test_inverse_matches_reference(A):
    n = len(A)
    G = GaussMatrix.from_scalars(A)
    if len(reference_rref(A)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(G)
        return
    Ainv = inverse(G)
    assert_lowest_terms(Ainv)
    assert (Ainv @ G).scalars() == cmat_identity(n)
    I = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R, _ = reference_rref([row + e for row, e in zip(A, I)])
    assert Ainv.scalars() == [row[n:] for row in R]


@settings(deadline=None)
@given(st.one_of(matrices(fractions, max_rows=6), matrices(gaussian, max_rows=6)))
def test_echelon_insert_tracks_reference_rank(M):
    """The integer accumulator against the frozen Fraction one, row by row; a complex
    matrix, which the accumulator reads only realified inside nullspace, has a kernel of
    ncols minus its reference rank rows."""
    n = len(M[0])
    acc, ref = EchelonAccumulator(n), ReferenceEchelonAccumulator(n)
    if isinstance(M[0][0], Scalar):
        for row in M:
            ref.insert(row)
        assert len(nullspace(GaussMatrix.from_scalars(M), n).re) == n - ref.rank
        return
    for row in M:
        grows = not ref.contains(row)
        assert acc.contains(_sparse(row)) == (not grows)
        assert acc.insert(_sparse(row)) == ref.insert(row) == grows
        assert echelon_rank(acc) == ref.rank
    reduced = acc.reduced_rows()
    assert ([[Fraction(row.get(j, 0), row[pc]) for j in range(n)] for pc, row in reduced],
            [pc for pc, _ in reduced]) == ref.reduced()


# -- GaussMatrix against the frozen Scalar product and adjoint ----------------------


def assert_lowest_terms(G: GaussMatrix):
    assert G.den > 0
    assert gcd(G.den, *(x for pair in G.numerators() for x in pair)) == 1


@st.composite
def gaussian_matrix(draw, rows, cols):
    return [[draw(gaussian) for _ in range(cols)] for _ in range(rows)]


@st.composite
def gaussian_matrices(draw):
    """(A, B, C, s): A n x k, B k x m, C n x k and a scale s, entries up to 70 bits."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return (draw(gaussian_matrix(n, k)), draw(gaussian_matrix(k, m)),
            draw(gaussian_matrix(n, k)), draw(gaussian))


@settings(deadline=None)
@given(gaussian_matrices())
def test_gauss_matrix_matches_scalar_arithmetic(case):
    A, B, C, s = case
    GA, GB, GC = (GaussMatrix.from_scalars(M) for M in (A, B, C))
    results = {
        "round trip": (GA, A),
        "product": (GA @ GB, reference_cmat_mul(A, B)),
        "sum": (GA + GC, cmat_add(A, C)),
        "difference": (GA - GC, cmat_sub(A, C)),
        "scale": (GA.scale(s), cmat_scale(s, A)),
    }
    for name, (G, expected) in results.items():
        assert_lowest_terms(G)
        assert G.scalars() == expected, name
        assert G.is_zero() == all(not x for row in expected for x in row), name
    assert (GA - GA).is_zero() and (GA - GA).den == 1


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    gaussian_matrix(n, n),
    st.lists(st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)),
             min_size=n, max_size=n))))
def test_gauss_matrix_adjoint_matches_the_scalar_adjoint(case):
    M, metric = case
    G = GaussMatrix.from_scalars(M).adjoint(metric)
    assert_lowest_terms(G)
    assert G.scalars() == reference_metric_adjoint(metric, M)


def test_gauss_matrix_identity_and_zero():
    assert GaussMatrix.identity(3).scalars() == cmat_identity(3)
    assert GaussMatrix.zero(3).scalars() == cmat_zero(3)
    assert GaussMatrix.zero(3).is_zero() and not GaussMatrix.identity(3).is_zero()


def test_kernel_accepts_ints():
    G = GaussMatrix.from_scalars([[2, 0], [0, 4]])
    assert inverse(G).scalars() == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    assert inverse(GaussMatrix.from_scalars([[2, 4], [1, 3]])).scalars() == \
        [[Fraction(3, 2), -2], [Fraction(-1, 2), 1]]
    K = nullspace(GaussMatrix([[1, 1]], [[0, 0]]), 2)
    assert (K.re, K.im, K.den) == ([[-1, 1]], [[0, 0]], 1)
    assert nullspace(GaussMatrix([], []), 2).scalars() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="singular"):
        inverse(GaussMatrix([[1, 2], [2, 4]], [[0, 0], [0, 0]]))


def test_echelon_accumulator_rank():
    acc = EchelonAccumulator(3)
    assert acc.insert({0: 1})
    assert acc.insert({0: 1, 1: 1})
    assert not acc.insert({0: 2, 1: 1})
    assert echelon_rank(acc) == 2
    assert acc.contains({0: 5, 1: 3})
    assert not acc.contains({2: 1})


def test_ldl_agrees_with_char_poly_oracle():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(8):
            M = random_hermitian(rng, n)
            assert ldl_hermitian(GaussMatrix.from_scalars(M)).psd == psd_by_char_poly(M)
        for _ in range(4):
            M = random_psd(rng, n, rank=max(1, n - 1))
            res = ldl_hermitian(GaussMatrix.from_scalars(M))
            assert res.psd
            assert psd_by_char_poly(M)


def test_ldl_witness_is_exact_negative_direction():
    rng = random.Random(8)
    found = 0
    for n in range(2, 6):
        for _ in range(10):
            M = random_hermitian(rng, n)
            res = ldl_hermitian(GaussMatrix.from_scalars(M))
            if not res.psd:
                found += 1
                val = hermitian_form(M, res.witness)
                assert val.is_real() and val.re < 0
                assert val.re == res.witness_value
    assert found > 5


def test_ldl_zero_pivot_rule():
    # [[0, 1], [1, 0]] is indefinite even though the diagonal vanishes
    M = [[Scalar(0), Scalar(1)], [Scalar(1), Scalar(0)]]
    res = ldl_hermitian(GaussMatrix.from_scalars(M))
    assert not res.psd
    val = hermitian_form(M, res.witness)
    assert val.re < 0
    # genuinely zero row is fine
    Z = [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(1)]]
    assert ldl_hermitian(GaussMatrix.from_scalars(Z)).psd


def test_ldl_factorization_reconstructs():
    rng = random.Random(13)
    for n in (2, 3, 5):
        M = random_psd(rng, n)
        res, ref = ldl_hermitian(GaussMatrix.from_scalars(M)), reference_ldl_hermitian(M)
        assert res.psd
        assert (res.perm, res.diag) == (ref.perm, ref.diag)
        # P M P^T = L D L^*, with the reference's L
        perm = res.perm
        PMPT = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        D = [[Scalar(res.diag[i]) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
        Lh = [[ref.lower[j][i].conj() for j in range(n)] for i in range(n)]
        recon = reference_cmat_mul(reference_cmat_mul(ref.lower, D), Lh)
        assert recon == PMPT


def test_positive_definite_flag():
    I2 = cmat_identity(2)
    assert ldl_hermitian(GaussMatrix.from_scalars(I2)).is_positive_definite()
    sing = [[Scalar(1), Scalar(1)], [Scalar(1), Scalar(1)]]
    res = ldl_hermitian(GaussMatrix.from_scalars(sing))
    assert res.psd and not res.is_positive_definite()


# -- differential check against the frozen earlier LDL^* ------------------------


def assert_same_ldl(M):
    new, ref = ldl_hermitian(GaussMatrix.from_scalars(M)), reference_ldl_hermitian(M)
    assert (new.psd, new.perm, new.diag) == (ref.psd, ref.perm, ref.diag)
    assert (new.witness, new.witness_value) == (ref.witness, ref.witness_value)
    if not new.psd:
        assert new.witness_value == hermitian_form(M, new.witness).re < 0
    return new


def with_schur_complement(rng, m, tail):
    """[[P, B], [B^*, B^* P^-1 B + tail]]: its Schur complement after P is `tail`.

    P = 50 I + (random PSD) keeps every pivot of P the largest diagonal entry,
    so P is eliminated first and the factorization then meets `tail` exactly.
    """
    k = len(tail)
    P = random_psd(rng, m)
    for i in range(m):
        P[i][i] = P[i][i] + 50
    B = [[Scalar(rand_frac(rng), rand_frac(rng)) for _ in range(k)] for _ in range(m)]
    Bh = [[B[i][j].conj() for i in range(m)] for j in range(k)]
    Pinv = [row[m:] for row in reference_rref([row + [Scalar(int(i == j)) for j in range(m)]
                                                for i, row in enumerate(P)])[0]]
    Z = reference_cmat_mul(reference_cmat_mul(Bh, Pinv), B)
    n = m + k
    M = cmat_zero(n)
    for i in range(n):
        for j in range(n):
            if i < m:
                M[i][j] = P[i][j] if j < m else B[i][j - m]
            else:
                M[i][j] = Bh[i - m][j] if j < m else Z[i - m][j - m] + tail[i - m][j - m]
    return M


def zero_diagonal(M):
    return [[Scalar(0) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]


def test_ldl_matches_reference_on_positive_definite_and_rank_deficient_psd():
    rng = random.Random(21)
    for n in range(1, 7):
        for _ in range(4):
            res = assert_same_ldl(random_psd(rng, n))
            assert res.is_positive_definite()
            res = assert_same_ldl(random_psd(rng, n, rank=max(1, n - 2)))
            assert res.psd and res.is_positive_definite() == (n == 1)
    # a rank-deficient Schur complement: zero pivots after nonzero steps
    for m, k in ((1, 2), (2, 3), (3, 2)):
        res = assert_same_ldl(with_schur_complement(rng, m, cmat_zero(k)))
        assert res.psd and res.diag[m:] == [0] * k


def test_ldl_matches_reference_on_negative_schur_pivots():
    rng = random.Random(22)
    for m, k in ((1, 1), (2, 2), (3, 3)):
        for _ in range(4):
            tail = random_hermitian(rng, k)
            tail[0][0] = Scalar(-1 - abs(tail[0][0].re))
            res = assert_same_ldl(with_schur_complement(rng, m, tail))
            assert not res.psd and res.witness[:m] != [Scalar(0)] * m
    # random Hermitian matrices with a positive diagonal fail, if at all, at a later pivot
    for n in range(2, 7):
        for _ in range(6):
            M = random_hermitian(rng, n)
            for i in range(n):
                M[i][i] = Scalar(1 + abs(M[i][i].re))
            assert_same_ldl(M)


def test_ldl_matches_reference_on_zero_diagonal_with_off_diagonal_entries():
    rng = random.Random(23)
    for n in range(2, 7):
        for _ in range(4):
            res = assert_same_ldl(zero_diagonal(random_hermitian(rng, n)))
            assert not res.psd
    # the zero pivot met inside the Schur complement, lifted through the earlier steps
    for m, k in ((1, 2), (2, 2), (3, 4)):
        for _ in range(3):
            tail = zero_diagonal(random_hermitian(rng, k))
            tail[0][1] = Scalar(1, 1)
            tail[1][0] = Scalar(1, -1)
            res = assert_same_ldl(with_schur_complement(rng, m, tail))
            # the zero-pivot rule chooses its witness to have value -1
            assert not res.psd and res.witness_value == -1


def test_is_positive_witness_value_is_the_form_at_the_witness():
    rng = random.Random(24)
    su2 = builtin("su2")
    found = 0
    for l in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        rep = make_spin_rep(l)
        for _ in range(6):
            e = random_hermitean(su2, rng, max_degree=2)
            verdict = rep.is_positive(e)
            H = rep.weighted_matrix(e).scalars()
            assert_same_ldl(H)
            if not verdict:
                found += 1
                assert verdict.witness_value == hermitian_form(H, verdict.witness).re < 0
    assert found > 5


# -- the fraction-free LDL^* against the frozen reference, generated blocks ------

DENOMINATORS = [1, 2, 3, 5, 7, 35, 3 * 2**40, 2**30, 2**60]


def entries(real):
    part = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-50, 50), st.sampled_from(DENOMINATORS)))
    return st.builds(Scalar, part, st.just(Fraction(0)) if real else part)


def hermitian_from(draw, n, entry, diagonal):
    M = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = Scalar(draw(diagonal))
        for j in range(i + 1, n):
            M[i][j] = draw(entry)
            M[j][i] = M[i][j].conj()
    return M


@st.composite
def ldl_blocks(draw):
    """PD, rank-deficient, indefinite, zero-diagonal and skipped-zero-pivot blocks.

    A skipped zero pivot: the tail [[0, 0], [0, T]] with T's diagonal <= 0
    follows m positive pivots, so its zero row is taken (and skipped) before
    T's zero or negative pivots, with an earlier nonzero pivot to divide by.
    """
    n = draw(st.integers(0, 6))
    entry = entries(draw(st.booleans()))
    kind = draw(st.sampled_from(["gram", "hermitian", "zero_diagonal", "skipped_zero"]))
    if kind == "gram":  # rank 0..n, so both positive definite and rank-deficient
        vectors = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        return [[sum((v[i] * v[j].conj() for v in vectors), Scalar(0)) for j in range(n)]
                for i in range(n)]
    if kind == "hermitian":
        return hermitian_from(draw, n, entry, st.builds(lambda s: s.re, entry))
    if kind == "zero_diagonal":
        return hermitian_from(draw, n, entry, st.just(Fraction(0)))
    tail = hermitian_from(draw, max(n, 1), entry, st.builds(lambda s: -abs(s.re), entry))
    for j in range(len(tail)):
        tail[0][j] = tail[j][0] = Scalar(0)
    m = draw(st.integers(0, 3))
    return with_schur_complement(random.Random(draw(st.integers(0, 99))), m, tail) if m else tail


@settings(deadline=None, max_examples=150)
@given(ldl_blocks())
def test_ldl_matches_reference_on_generated_blocks(M):
    assert_same_ldl(M)


def test_ldl_matches_reference_on_edge_blocks():
    tiny = Scalar(Fraction(1, 2**60), Fraction(-3, 2**60))
    cases = [
        [],
        [[Scalar(Fraction(5, 7))]],
        [[Scalar(0)]],
        [[Scalar(Fraction(-1, 2**60))]],
        # coprime mixed denominators and dyadic entries down to 2^-60
        [[Scalar(Fraction(1, 3)), Scalar(Fraction(1, 5), Fraction(1, 7))],
         [Scalar(Fraction(1, 5), Fraction(-1, 7)), Scalar(Fraction(2, 35))]],
        [[Scalar(1), tiny], [tiny.conj(), Scalar(Fraction(1, 2**59))]],
        # a zero pivot skipped first, then a zero pivot with a nonzero column
        [[Scalar(0), Scalar(0), Scalar(0)],
         [Scalar(0), Scalar(0), Scalar(1, 1)],
         [Scalar(0), Scalar(1, -1), Scalar(0)]],
        # a zero pivot skipped first, then a negative pivot
        [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(Fraction(-1, 3))]],
        # only zero pivots: every step skipped
        cmat_zero(3),
    ]
    for M in cases:
        assert_same_ldl(M)
    rng = random.Random(25)
    # the zero pivot skipped after positive pivots, then a negative one
    res = assert_same_ldl(with_schur_complement(
        rng, 2, [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(-2)]]))
    assert not res.psd and res.witness_value == -2
    res = assert_same_ldl(with_schur_complement(rng, 3, cmat_zero(2)))
    assert res.psd and res.diag[3:] == [0, 0]


def test_ldl_builds_no_scalar_unless_lower_is_read(monkeypatch):
    M = random_psd(random.Random(26), 10)
    G = GaussMatrix.from_scalars(M)
    built = []
    init = Scalar.__init__

    def counting_init(self, re=0, im=0):
        built.append(self)
        init(self, re, im)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    res = ldl_hermitian(G)
    assert res.is_positive_definite() and len(res.perm) == 10
    assert built == []
