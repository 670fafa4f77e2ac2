import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envsos import certs, lie
from envsos.certs import (
    CommutativeSosCertificate,
    WeightedSosCertificate,
    certificate_from_json,
    verify_certificate,
    verify_certificate_json,
    verify_commutative_certificate,
)
from envsos.errors import CertificateFormatError, NotHermitean, OddDegreeTarget
from envsos.exactla import ldl_hermitian
from envsos.gram import GramSkeleton, build_gram_problem, monomials_of_degree, monomials_up_to
from envsos.lie import builtin
from envsos.numeric import SolveOptions
from envsos.pbw import AlgebraElement, canonical_a, conjugate_by
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.exprs import parse
from envsos.scalar import Scalar
from envsos.sos import _sample_points, commutative_sos, find_certificate, sample_sign_information


MOTZKIN = CommutativePoly(3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1})


def su2_unit():
    su2 = builtin("su2")
    return su2, AlgebraElement.unit(su2)


# -- problem construction -------------------------------------------------------


def test_gram_problem_shapes(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    problem = build_gram_problem(a, [unit], 2)
    assert [len(b) for b in problem.skeleton.bases] == [4]  # 1, x1, x2, x3


def test_diag_gram_solves_canonical_instance(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    problem = build_gram_problem(a, [unit], 2)
    # variable vector of the identity Gram
    g = [Fraction(0)] * problem.layout.nvars
    for p in range(4):
        g[problem.layout.index[(0, p, p, "re")]] = Fraction(1)
    assert all(r == 0 for r in problem.system.residual_exact(g))
    blocks = problem.gram_blocks_exact(g)
    assert problem.expansion(blocks) == a


def test_constraints_match_brute_force_expansion(builtins):
    rng = random.Random(51)
    for alg in list(builtins.values())[:3]:
        unit = AlgebraElement.unit(alg)
        skeleton = GramSkeleton(alg, [unit], 2)
        layout = skeleton.layout
        for _ in range(5):
            g = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(layout.nvars)]
            blocks = layout.gram_blocks_exact(g)
            expansion = skeleton.expansion(blocks)
            residual = [
                sum(row[j] * g[j] for j in range(layout.nvars))
                for row in skeleton.rows
            ]
            # A g reproduces the coefficients of the brute-force expansion
            for mono, re_im in zip(skeleton.row_monomials, zip(residual[::2], residual[1::2])):
                coeff = expansion.coefficient(mono)
                assert coeff.re == re_im[0]
                assert coeff.im == re_im[1]


def test_odd_degree_window_rejected(su2):
    unit = AlgebraElement.unit(su2)
    with pytest.raises(OddDegreeTarget):
        GramSkeleton(su2, [unit], 3)


def test_non_hermitean_rejected(su2):
    unit = AlgebraElement.unit(su2)
    x1 = AlgebraElement.generator(su2, 0)
    with pytest.raises(NotHermitean):
        GramSkeleton(su2, [unit, x1], 2)
    with pytest.raises(NotHermitean):
        build_gram_problem(x1, [unit], 2)


# -- end to end -----------------------------------------------------------------


def test_canonical_element_certificate(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    report = find_certificate(a, [unit], 2)
    assert report.status == "certificate"
    cert = report.certificate
    assert verify_certificate(cert, a, [unit])
    G = cert.grams[0]
    assert all(G[p][p] == Scalar(1) for p in range(4))
    assert all(not G[p][q] for p in range(4) for q in range(4) if p != q)


def test_negative_constant_infeasible(su2):
    unit = AlgebraElement.unit(su2)
    report = find_certificate(AlgebraElement.unit(su2, -1), [unit], 0)
    assert report.status == "numeric-infeasible-evidence"
    assert report.numeric.dual["dual_value"] < -1e-3


def test_certificate_tampering_detected(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    cert = find_certificate(a, [unit], 2).certificate
    cert.grams[0][0][0] = cert.grams[0][0][0] + Scalar(Fraction(1, 10**6))
    assert not verify_certificate(cert, a, [unit])


def test_certificate_against_wrong_target(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    cert = find_certificate(a, [unit], 2).certificate
    assert not verify_certificate(cert, a + unit, [unit])


def test_certificate_json_roundtrip(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    cert = find_certificate(a, [unit], 2).certificate
    data = cert.to_json_dict()
    assert data["schema_version"] == 1
    assert verify_certificate_json(data)
    loaded, target, gens = certificate_from_json(data)
    assert target == a
    data["blocks"][0]["gram"][1][1] = "2"
    assert not verify_certificate_json(data)


def test_loader_rejects_non_canonical_basis_entry(su2):
    # "x2*x1" normalizes to -x3 + x1*x2; it must not be read as x3
    unit = AlgebraElement.unit(su2)
    data = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    basis = data["blocks"][0]["basis"]
    assert basis == ["1", "x1", "x2", "x3"]
    for entry in ("x2*x1", "x1*x1", "x3^1", "2*x3", "x3 + 5"):
        basis[3] = entry
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(data)


def test_loader_rejects_unknown_schema_version(su2):
    unit = AlgebraElement.unit(su2)
    weighted = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    commutative = commutative_sos(squared_norm_poly(2) ** 2, 0).certificate.to_json_dict()
    for data in (weighted, commutative):
        data["schema_version"] = 99
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(data)


def test_verifier_rejects_basis_outside_degree_window(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    cert = find_certificate(a, [unit], 2).certificate
    data = cert.to_json_dict()
    data["degree"] = 0
    assert not verify_certificate_json(data)
    cert.degree = 0
    assert not verify_certificate(cert, a, [unit])


def test_each_block_factored_once_per_stage(su2, monkeypatch):
    calls = []

    def counting_ldl(M):
        calls.append(len(M))
        return ldl_hermitian(M)

    monkeypatch.setattr(certs, "ldl_hermitian", counting_ldl)
    unit = AlgebraElement.unit(su2)
    cert = find_certificate(canonical_a(su2), [unit], 2).certificate
    assert calls == [4]  # emission: the verifier's factor is kept as the witness
    assert cert.ldl_results[0].is_positive_definite()
    data = cert.to_json_dict()
    certificate_from_json(data)
    assert calls == [4]  # loading decides nothing
    assert verify_certificate_json(data)
    assert calls == [4, 4]  # re-verification factors from scratch


# t1^4 + t2^4 on (t1^2, t1 t2, t2^2): for every lam the Gram re-expands exactly,
# since the 2*lam from the corners cancels the -2*lam in the middle
def _quartic_gram(lam):
    return [[Scalar(1), Scalar(0), Scalar(lam)],
            [Scalar(0), Scalar(-2 * lam), Scalar(0)],
            [Scalar(lam), Scalar(0), Scalar(1)]]


def _gram_json(gram):
    return [[str(v.re) for v in row] for row in gram]


@pytest.mark.parametrize("lam, valid", [(0, True), (1, False)])
def test_commutative_verifier_decides_psd_after_exact_expansion(lam, valid):
    target = CommutativePoly(2, {(4, 0): 1, (0, 4): 1})
    basis = [(2, 0), (1, 1), (0, 2)]
    gram = _quartic_gram(lam)
    expansion = CommutativePoly(2, {})
    for p in range(3):
        for q in range(3):
            mono = tuple(x + y for x, y in zip(basis[p], basis[q]))
            expansion = expansion + CommutativePoly(2, {mono: gram[p][q].re})
    assert expansion == target
    assert ldl_hermitian(gram).psd == valid
    cert = CommutativeSosCertificate(target, 0, basis, gram)
    assert verify_commutative_certificate(cert, target) == valid
    data = {
        "schema_version": 1, "kind": "commutative_sos", "level": 0, "nvars": 2,
        "target": target.render(),
        "target_coeffs": [{"exponents": [4, 0], "coeff": "1"},
                          {"exponents": [0, 4], "coeff": "1"}],
        "basis": [list(m) for m in basis],
        "gram": _gram_json(gram),
    }
    assert verify_certificate_json(data) == valid


@pytest.mark.parametrize("lam, valid", [(0, True), (1, False)])
def test_weighted_verifier_decides_psd_after_exact_expansion(lam, valid):
    ab = builtin("abelian(2)")
    unit = AlgebraElement.unit(ab)
    target = parse("x1^4 + x2^4", ab)
    basis = [(2, 0), (1, 1), (0, 2)]
    gram = _quartic_gram(lam)
    expansion = AlgebraElement.zero(ab)
    for p in range(3):
        for q in range(3):
            w_p, w_q = (AlgebraElement.monomial(ab, m) for m in (basis[p], basis[q]))
            expansion = expansion + (w_p.star() * w_q).scale(gram[p][q])
    assert expansion == target
    assert ldl_hermitian(gram).psd == valid
    cert = WeightedSosCertificate(ab, 4, target, [unit], [basis], [gram])
    assert verify_certificate(cert, target, [unit]) == valid
    data = {
        "schema_version": 1, "kind": "weighted_sos", "degree": 4,
        "algebra": lie.to_json_dict(ab), "target": "x1^4 + x2^4", "generators": ["1"],
        "blocks": [{"l": 1, "basis": ["x1^2", "x1*x2", "x2^2"], "gram": _gram_json(gram)}],
    }
    assert verify_certificate_json(data) == valid


def planted_instance(su2, rng, skeleton):
    """Random explicit membership combination with full-rank blocks."""
    unit = AlgebraElement.unit(su2)
    f2 = parse("2 - H", su2, aliases={"H": "-i*x1"})
    c = AlgebraElement.zero(su2)
    for block, gen in zip(skeleton.bases, (unit, f2)):
        count = len(block) + 2
        for _ in range(count):
            z = AlgebraElement(su2, {
                mono: Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                             Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                for mono in block
            })
            c = c + z.star() * gen * z
    return c


def test_planted_instances_roundtrip(su2):
    rng = random.Random(61)
    unit = AlgebraElement.unit(su2)
    f2 = parse("2 - H", su2, aliases={"H": "-i*x1"})
    skeleton = GramSkeleton(su2, [unit, f2], 4)
    successes = 0
    for k in range(5):
        c = planted_instance(su2, rng, skeleton)
        report = find_certificate(c, [unit, f2], 4, skeleton=skeleton,
                                  opts=SolveOptions(seed=k))
        assert report.status in ("certificate", "inconclusive")
        if report.status == "certificate":
            assert verify_certificate(report.certificate, c, [unit, f2])
            successes += 1
    assert successes >= 4


def test_boundary_plant_never_invalid(su2):
    # rank-one plant with an exact zero eigenvalue in every feasible Gram
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    c = conjugate_by(a, unit)  # a^2, boundary-free; plus a genuinely singular one
    report = find_certificate(c, [unit], 4)
    assert report.status in ("certificate", "inconclusive")
    if report.status == "certificate":
        assert verify_certificate(report.certificate, c, [unit])
    shifted = a * a - unit  # vanishes in the trivial representation
    report2 = find_certificate(shifted, [unit], 4)
    assert report2.status in ("certificate", "inconclusive", "numeric-infeasible-evidence")
    if report2.status == "certificate":
        assert verify_certificate(report2.certificate, shifted, [unit])


# -- commutative mode --------------------------------------------------------------


def test_square_is_certified():
    p = squared_norm_poly(3) ** 2
    report = commutative_sos(p, 0)
    assert report.status == "certificate"
    assert report.certificate.ldl.is_positive_definite()


def test_commutative_certificate_json_roundtrip():
    p = squared_norm_poly(2) ** 2
    report = commutative_sos(CommutativePoly(2, dict(p.coeffs)), 0)
    assert report.status == "certificate"
    data = report.certificate.to_json_dict()
    assert data["kind"] == "commutative_sos"
    assert verify_certificate_json(data)
    data["gram"][0][0] = "7"
    assert not verify_certificate_json(data)


def test_motzkin_level0_infeasible_level1_certified():
    r0 = commutative_sos(MOTZKIN, 0)
    assert r0.status == "numeric-infeasible-evidence"
    assert r0.numeric.dual["dual_value"] < -1e-3
    r1 = commutative_sos(MOTZKIN, 1)
    assert r1.status == "certificate"
    target = squared_norm_poly(3) * MOTZKIN
    assert verify_commutative_certificate(r1.certificate, target)


def test_commutative_certificate_target_text_and_level_are_checked():
    report = commutative_sos(squared_norm_poly(2) ** 2, 0)
    data = report.certificate.to_json_dict()
    assert verify_certificate_json(data)
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(dict(data, target="t1^4 - 7*t2^4"))
    # (t1^2+t2^2)^5 does not divide a quartic
    assert not verify_certificate_json(dict(data, level=5))
    # a true claim: (t1^2+t2^2)^2 = (t1^2+t2^2)^1 * (t1^2+t2^2)
    assert verify_certificate_json(dict(data, level=1))
    assert verify_certificate_json(dict(data, level=2))
    for level in (-1, 1.0, "1", True, None):
        assert not verify_certificate_json(dict(data, level=level))


def test_commutative_verifier_rejects_level_that_does_not_divide():
    target = CommutativePoly(2, {(4, 0): 1, (0, 4): 1})
    basis = [(2, 0), (1, 1), (0, 2)]
    assert verify_commutative_certificate(
        CommutativeSosCertificate(target, 0, basis, _quartic_gram(0)), target)
    # t1^4 + t2^4 is not a multiple of t1^2 + t2^2
    assert not verify_commutative_certificate(
        CommutativeSosCertificate(target, 1, basis, _quartic_gram(0)), target)


def test_negative_form_short_circuits():
    p = CommutativePoly(2, {(2, 0): -1, (0, 2): -1})
    report = commutative_sos(p, 3)
    assert report.status == "not-positive"
    assert report.witness_point is not None


def test_odd_degree_commutative():
    p = CommutativePoly(2, {(1, 0): 1})
    assert commutative_sos(p, 0).status == "not-positive"


def test_non_homogeneous_rejected():
    p = CommutativePoly(2, {(2, 0): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        commutative_sos(p, 0)


def test_kernel_constraints_keep_expansion_exact():
    # a boundary square: (t1^2 - t2^2)^2 vanishes on the diagonal lines
    p = CommutativePoly(2, {(4, 0): 1, (2, 2): -2, (0, 4): 1})
    report = commutative_sos(p, 0)
    assert report.status == "certificate"
    assert verify_commutative_certificate(report.certificate, p)


def test_abelian_coincidence_with_commutative_mode():
    """Both pipelines must agree on shared homogeneous instances."""
    rng = random.Random(71)
    ab = builtin("abelian(2)")
    unit = AlgebraElement.unit(ab)
    agreements = 0
    for k in range(10):
        # half planted sums of squares, half indefinite forms
        if k % 2 == 0:
            q1 = CommutativePoly(2, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)})
            q2 = CommutativePoly(2, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(1, 3)})
            Q = q1 * q1 + q2 * q2
        else:
            Q = CommutativePoly(2, {(2, 0): rng.randint(-3, -1), (0, 2): rng.randint(1, 3)})
        deg = Q.degree()
        m = deg // 2
        sign = Fraction(-1) ** m
        c = AlgebraElement(ab, {mono: Scalar(sign * v) for mono, v in Q.coeffs.items()})
        assert c.is_hermitean()
        comm = commutative_sos(Q, 0, opts=SolveOptions(seed=k))
        noncomm = find_certificate(c, [unit], deg, opts=SolveOptions(seed=k))
        comm_feasible = comm.status == "certificate"
        noncomm_feasible = noncomm.status == "certificate"
        comm_negative = comm.status in ("not-positive", "numeric-infeasible-evidence")
        noncomm_negative = noncomm.status == "numeric-infeasible-evidence"
        assert comm_feasible == noncomm_feasible
        assert comm_negative == noncomm_negative
        agreements += 1
    assert agreements == 10


# -- exact integer evaluation and the sign scan ---------------------------------


def _reference_value(p, point):
    """Term-by-term Fraction evaluation."""
    total = Fraction(0)
    for m, q in p.coeffs.items():
        term = q
        for x, e in zip(point, m):
            term *= Fraction(x) ** e
        total += term
    return total


def _reference_scan(p, seed):
    """The sign scan with Fraction values, over the sampler's own points."""
    zeros = []
    seen = set()
    for t in _sample_points(p.nvars, seed=seed):
        if t in seen:
            continue
        seen.add(t)
        v = _reference_value(p, t)
        if v < 0:
            return t, zeros
        if v == 0 and any(t):
            zeros.append(t)
    return None, zeros


@st.composite
def _polys(draw, nvars, max_degree):
    homogeneous = draw(st.booleans())
    deg = draw(st.integers(0, max_degree))
    monos = monomials_of_degree(nvars, deg) if homogeneous else monomials_up_to(nvars, deg)
    chosen = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return CommutativePoly(nvars, {m: draw(coeffs) for m in chosen})


_coordinates = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-9, max_value=9, max_denominator=40))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_evaluate_matches_fraction_reference(data):
    nvars = data.draw(st.integers(1, 5))
    p = data.draw(_polys(nvars, 6))
    point = data.draw(st.lists(_coordinates, min_size=nvars, max_size=nvars))
    value = p.evaluate(point)
    assert isinstance(value, Fraction)
    assert value == _reference_value(p, point)
    assert p.sign_at(point) == (value > 0) - (value < 0)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_sign_scan_matches_fraction_reference(data):
    nvars = data.draw(st.integers(1, 5))
    p = data.draw(_polys(nvars, 4))
    seed = data.draw(st.integers(0, 3))
    assert sample_sign_information(p, seed=seed) == _reference_scan(p, seed)


@pytest.mark.parametrize("p", [
    # fractional coefficients
    CommutativePoly(3, {(2, 0, 0): Fraction(1, 3), (0, 2, 0): Fraction(5, 7),
                        (0, 0, 2): Fraction(1, 2), (1, 1, 0): Fraction(-2, 9)}),
    CommutativePoly(2, {(4, 0): Fraction(1, 6), (2, 2): Fraction(-1, 3), (0, 4): Fraction(1, 6)}),
    # not homogeneous
    CommutativePoly(2, {(2, 0): 1, (0, 1): 1, (0, 0): Fraction(-1, 4)}),
    # constants and zero
    CommutativePoly.constant(3, 3),
    CommutativePoly.constant(2, Fraction(-2, 5)),
    CommutativePoly.zero(2),
    CommutativePoly.zero(5),
    # five variables: unit vectors and random points only
    squared_norm_poly(5) ** 2,
    squared_norm_poly(5) - CommutativePoly(5, {(1, 1, 0, 0, 0): 3}),
    CommutativePoly(5, {(2, 0, 0, 0, 0): 1, (0, 0, 0, 0, 2): -1}),
    MOTZKIN,
], ids=["fractional-quadric", "fractional-quartic", "non-homogeneous", "constant",
        "negative-constant", "zero", "zero-5-vars", "5-vars-square", "5-vars-indefinite",
        "5-vars-saddle", "motzkin"])
def test_sign_scan_matches_reference_on_fixed_forms(p):
    for seed in (0, 1):
        assert sample_sign_information(p, seed=seed) == _reference_scan(p, seed)


def test_sign_scan_reports_zeros_seen_before_the_first_negative_point():
    p = CommutativePoly(2, {(2, 2): -1})
    negative, zeros = sample_sign_information(p)
    F = Fraction
    assert negative == (F(1), F(1))
    assert zeros == [(F(0), F(1)), (F(0), F(-1)), (F(0), F(1, 2)), (F(0), F(-1, 2)),
                     (F(0), F(2)), (F(0), F(-2)), (F(1), F(0))]
    assert (negative, zeros) == _reference_scan(p, 0)
