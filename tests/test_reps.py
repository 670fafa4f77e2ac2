import random
from fractions import Fraction

import pytest

from envsos.errors import ContextInvalid, NotAbelian, NotHermitean
from envsos.exactla import cmat_identity
from envsos.exprs import parse, render
from envsos.lie import builtin
from envsos.pbw import AlgebraElement, canonical_a
from envsos.reps import (
    FiniteDimRep,
    direct_sum,
    make_point_rep,
    make_spin_rep,
    scan_dual_window,
    spin_window,
)
from envsos.scalar import Scalar

from oracles import (
    ReferenceRep,
    cmat_is_zero,
    cmat_sub,
    psd_by_char_poly,
    random_element,
    random_hermitean,
    reference_cmat_mul,
    reference_ldl_hermitian,
)


def half(n):
    return Fraction(n, 2)


def test_spin_rep_canonical_element(su2):
    a = canonical_a(su2)
    for l2 in range(0, 7):
        l = half(l2)
        rep = make_spin_rep(l)
        A = rep.evaluate(a)
        expect = l * l + l + 1
        n = rep.dim_rep
        assert all(A[i][i] == Scalar(expect) for i in range(n))
        assert all(not A[i][j] for i in range(n) for j in range(n) if i != j)


def test_spin_half_is_two_dimensional():
    rep = make_spin_rep(half(1))
    assert rep.dim_rep == 2
    assert rep.evaluate(canonical_a(rep.algebra))[0][0] == Scalar(Fraction(7, 4))


def test_spin_zero_trivial():
    rep = make_spin_rep(0)
    assert rep.dim_rep == 1
    assert all(rep.mats[k].is_zero() for k in range(3))
    assert rep.metric == [Fraction(1)]


def test_spin_weight_operator_diagonal(su2):
    # the image of -i x1 is diag(j), j = -l..l, in integer steps
    from envsos.exprs import parse

    H = parse("-i*x1", su2)
    for l2 in (1, 2, 3, 4):
        l = half(l2)
        rep = make_spin_rep(l)
        M = rep.evaluate(H)
        diag = [M[i][i] for i in range(rep.dim_rep)]
        assert diag == [Scalar(-l + k) for k in range(rep.dim_rep)]
        assert all(not M[i][j] for i in range(rep.dim_rep) for j in range(rep.dim_rep) if i != j)


def test_constructor_rejects_broken_bracket(su2):
    rep = make_spin_rep(1)
    bad = rep.mats[0].scalars()
    bad[0][0] = bad[0][0] + Scalar(1)
    with pytest.raises(ContextInvalid):
        FiniteDimRep(su2, [bad, rep.mats[1].scalars(), rep.mats[2].scalars()], rep.metric)


def test_constructor_rejects_bad_metric(su2):
    rep = make_spin_rep(1)
    with pytest.raises(ContextInvalid):
        FiniteDimRep(su2, [M.scalars() for M in rep.mats], [1, 2, 1])


def _spin_one_mats():
    return [M.scalars() for M in make_spin_rep(1).mats]


def _short_row(mats):
    mats[2] = [mats[2][0], mats[2][1][:2], mats[2][2]]
    return mats


def _ragged_rows(mats):
    # rows of 2, 4 and 3 entries: nine in all, as many as a 3 x 3 matrix has
    row0, row1, row2 = mats[1]
    mats[1] = [row0[:2], row1 + [row0[2]], row2]
    return mats


@pytest.mark.parametrize("change, message", [
    (lambda mats: mats[:2], "need one matrix per generator"),
    (lambda mats: mats + [mats[0]], "need one matrix per generator"),
    (lambda mats: [mats[0][:2]] + mats[1:], "matrix shape does not match the metric length"),
    (lambda mats: [[row[:2] for row in mats[0][:2]]] + mats[1:],
     "matrix shape does not match the metric length"),
    (_short_row, "matrix shape does not match the metric length"),
    (_ragged_rows, "matrix shape does not match the metric length"),
], ids=["too few", "too many", "too few rows", "too small", "short row", "ragged rows"])
def test_constructor_rejects_wrong_shapes(su2, change, message):
    metric = make_spin_rep(1).metric
    with pytest.raises(ContextInvalid, match=f"^{message}$"):
        FiniteDimRep(su2, change(_spin_one_mats()), metric)


def _reference_cases(rng):
    """(algebra, mats, metric): spins 0..5/2, direct sums, abelian points and perturbed copies.

    Each representation also comes with one generator entry changed and with
    one metric entry scaled (by 2, 1/3, 0 or -1).
    """
    spins = [make_spin_rep(half(k)) for k in range(6)]
    reps = spins + [direct_sum(spins[1], spins[2]), direct_sum(spins[0], spins[3], spins[1])]
    for d in (1, 2, 3):
        algebra = builtin(f"abelian({d})")
        for _ in range(2):
            reps.append(make_point_rep(
                algebra, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]))
    cases = []
    for rep in reps:
        mats, n = [M.scalars() for M in rep.mats], rep.dim_rep
        cases.append((rep.algebra, mats, rep.metric))
        bent = [[row[:] for row in M] for M in mats]
        k, p, q = rng.randrange(len(bent)), rng.randrange(n), rng.randrange(n)
        bent[k][p][q] = bent[k][p][q] + rng.choice([Scalar(1), Scalar(0, -2), Scalar(1, 1)])
        cases.append((rep.algebra, bent, rep.metric))
        metric = list(rep.metric)
        metric[rng.randrange(n)] *= rng.choice([2, Fraction(1, 3), 0, -1])
        cases.append((rep.algebra, mats, metric))
    return cases


def test_integer_representations_match_the_frozen_scalar_reference():
    rng = random.Random(47)
    cases, accepted, messages = _reference_cases(rng), 0, set()
    for algebra, mats, metric in cases:
        verdicts = []
        for cls in (FiniteDimRep, ReferenceRep):
            try:
                verdicts.append((cls(algebra, mats, metric), None))
            except ContextInvalid as exc:
                verdicts.append((None, str(exc)))
        (rep, message), (ref, ref_message) = verdicts
        assert message == ref_message
        if message is not None:
            messages.add(message.split(" ")[0])
            continue
        accepted += 1
        elements = [AlgebraElement.zero(algebra), AlgebraElement.unit(algebra),
                    canonical_a(algebra)]
        elements += [random_element(algebra, rng, max_degree=3) for _ in range(3)]
        for e in elements:
            assert rep.evaluate(e) == ref.evaluate(e)
            assert rep.weighted_matrix(e).scalars() == ref.weighted_matrix(e)
        for _ in range(4):
            h = random_hermitean(algebra, rng, max_degree=2)
            got, want = rep.is_positive(h), reference_ldl_hermitian(ref.weighted_matrix(h))
            assert (got.psd, got.perm, got.diag) == (want.psd, want.perm, want.diag)
            assert (got.witness, got.witness_value) == (want.witness, want.witness_value)
    # every unperturbed representation is accepted, and most perturbed copies are not
    assert 14 <= accepted <= len(cases) - 14
    assert messages == {"commutator", "generator", "metric"}


def test_point_rep_values():
    ab = builtin("abelian(2)")
    rep = make_point_rep(ab, [1, 2])
    a = canonical_a(ab)
    assert rep.evaluate(a)[0][0] == Scalar(6)
    zero = make_point_rep(ab, [0, 0])
    assert zero.evaluate(a)[0][0] == Scalar(1)


def test_point_rep_square_convention():
    ab = builtin("abelian(1)")
    rep = make_point_rep(ab, [1])
    x1 = AlgebraElement.generator(ab, 0)
    assert rep.evaluate(x1.star() * x1)[0][0] == Scalar(1)


def test_point_rep_requires_abelian(su2):
    with pytest.raises(NotAbelian):
        make_point_rep(su2, [1, 0, 0])


def test_evaluate_is_homomorphism(builtins, su2):
    rng = random.Random(31)
    reps = [make_spin_rep(half(k)) for k in (1, 2, 3)]
    ab = builtin("abelian(2)")
    reps.append(make_point_rep(ab, [1, -2]))
    for rep in reps:
        alg = rep.algebra
        for _ in range(12):
            u = random_element(alg, rng, max_degree=2)
            v = random_element(alg, rng, max_degree=2)
            left = rep.evaluate(u * v)
            right = reference_cmat_mul(rep.evaluate(u), rep.evaluate(v))
            assert left == right
        assert rep.evaluate(AlgebraElement.unit(alg)) == cmat_identity(rep.dim_rep)


def test_an_element_rebuilt_equal_finds_the_kept_image():
    rng = random.Random(41)
    rep = make_spin_rep(half(3))
    for _ in range(8):
        e = random_element(rep.algebra, rng, max_degree=3)
        twin = parse(render(e), rep.algebra)
        assert twin is not e and twin == e and hash(twin) == hash(e)
        first = rep.image(e)
        assert rep.image(twin) is first
        assert rep.evaluate(twin) == first.scalars()
    # each kept image is the one a fresh representation forms
    fresh = make_spin_rep(half(3))
    assert all(fresh.image(e).scalars() == M.scalars() for e, M in rep._images.items())


def test_evaluate_respects_involution():
    rng = random.Random(37)
    rep = make_spin_rep(half(3))
    for _ in range(10):
        e = random_element(rep.algebra, rng, max_degree=3)
        left = rep.weighted_matrix(e.star()).scalars()
        right = rep.weighted_matrix(e).scalars()
        n = rep.dim_rep
        assert all(left[i][j] == right[j][i].conj() for i in range(n) for j in range(n))


def test_is_positive_requires_hermitean():
    rep = make_spin_rep(1)
    x1 = AlgebraElement.generator(rep.algebra, 0)
    with pytest.raises(NotHermitean):
        rep.is_positive(x1)


def test_is_positive_a_minus_one():
    a = canonical_a(builtin("su2"))
    one = AlgebraElement.unit(a.algebra)
    for l2 in range(0, 9):
        rep = make_spin_rep(half(l2))
        assert rep.is_positive(a - one)


def test_is_positive_weight_bound(su2):
    from envsos.exprs import parse

    e = parse("2 - H", su2, aliases={"H": "-i*x1"})
    # spectrum of the weight operator is -l..l, so 2-H >= 0 exactly when l <= 2
    for l2 in range(0, 9):
        rep = make_spin_rep(half(l2))
        verdict = rep.is_positive(e)
        assert bool(verdict) == (half(l2) <= 2)
        if not verdict:
            assert verdict.witness_value < 0


def test_is_positive_matches_char_poly_oracle():
    rng = random.Random(41)
    reps = [make_spin_rep(half(k)) for k in (1, 2, 3, 4)]
    for rep in reps:
        for _ in range(8):
            e = random_hermitean(rep.algebra, rng, max_degree=2)
            H = rep.weighted_matrix(e).scalars()
            assert bool(rep.is_positive(e)) == psd_by_char_poly(H)


def test_centrality_in_every_spin_rep(su2):
    rng = random.Random(43)
    a = canonical_a(su2)
    for l2 in (1, 2, 4):
        rep = make_spin_rep(half(l2))
        for _ in range(5):
            z = random_element(su2, rng, max_degree=2)
            res = cmat_sub(rep.evaluate(z * a), rep.evaluate(a * z))
            assert cmat_is_zero(res)


def test_direct_sum_blocks():
    r1 = make_spin_rep(half(1))
    r2 = make_spin_rep(1)
    ds = direct_sum(r1, r2)
    assert ds.dim_rep == 5
    A = ds.evaluate(canonical_a(ds.algebra))
    assert A[0][0] == Scalar(Fraction(7, 4))
    assert A[4][4] == Scalar(3)


def test_scan_trivial_generator_list(su2):
    unit = AlgebraElement.unit(su2)
    res = scan_dual_window(su2, [unit], spin_window(3))
    assert res.members() == res.window


def test_scan_weight_cutoff(su2):
    from envsos.exprs import parse

    unit = AlgebraElement.unit(su2)
    f2 = parse("2 - H", su2, aliases={"H": "-i*x1"})
    res = scan_dual_window(su2, [unit, f2], spin_window(3))
    assert res.members() == ["0", "1/2", "1", "3/2", "2"]
    assert "5/2" in res.witnesses
    assert res.witnesses["5/2"]["generator"] == 2


def test_scan_casimir_pin(su2):
    # -(a - 3)^2 >= 0 only where the canonical element evaluates to 3 (spin 1)
    from envsos.exprs import parse

    unit = AlgebraElement.unit(su2)
    f2 = parse("-(1 - x1^2 - x2^2 - x3^2 - 3)^2", su2)
    res = scan_dual_window(su2, [unit, f2], spin_window(3))
    assert res.members() == ["1"]


def test_scan_requires_unit_first(su2):
    from envsos.exprs import parse

    f2 = parse("2 - H", su2, aliases={"H": "-i*x1"})
    with pytest.raises(ValueError):
        scan_dual_window(su2, [f2], spin_window(2))


def test_scan_rejects_non_hermitean(su2):
    unit = AlgebraElement.unit(su2)
    x1 = AlgebraElement.generator(su2, 0)
    with pytest.raises(NotHermitean):
        scan_dual_window(su2, [unit, x1], spin_window(2))


def test_scan_abelian_grid():
    ab = builtin("abelian(2)")
    unit = AlgebraElement.unit(ab)
    a = canonical_a(ab)
    three = AlgebraElement.unit(ab, 3)
    # 3 - a = 2 - t1^2 - t2^2 at the point (t1, t2)
    res = scan_dual_window(ab, [unit, three - a], [(0, 0), (1, 1), (2, 0)])
    assert res.members() == ["(0, 0)", "(1, 1)"]
