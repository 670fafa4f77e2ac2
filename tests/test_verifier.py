"""The verifiers' integer re-expansion, against frozen copies of the earlier verifiers.

Certificates are built directly: random Hermitian Gram blocks over the
skeleton bases (PSD by diagonal dominance unless a diagonal entry is made
negative), and the target they re-expand to under the reference expansion,
perturbed or not.  Both verifiers must reach the same verdict, and the
verdict must be the one the construction implies.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envsos import lie
from envsos.certs import (
    CommutativeSosCertificate,
    WeightedSosCertificate,
    verify_certificate,
    verify_certificate_json,
    verify_commutative_certificate,
)
from envsos.errors import CertificateFormatError
from envsos.exactla import GaussMatrix
from envsos.gram import GramSkeleton, monomials_of_degree, monomials_up_to
from envsos.lie import builtin
from envsos.pbw import AlgebraElement
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.scalar import Scalar
from envsos.reps import make_point_rep
from envsos.sos import commutative_sos, find_certificate

from oracles import (
    planted_target,
    reference_expansion,
    reference_verify_certificate,
    reference_verify_commutative_certificate,
)


def _affine_half():
    """The affine line with [x1, x2] = 1/2 x2: non-integer structure constants."""
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][1], c[1][0][1] = Fraction(1, 2), Fraction(-1, 2)
    return lie.validate(2, ["x1", "x2"], c)


ALGEBRAS = {"su2": builtin("su2"), "heisenberg3": builtin("heisenberg3"),
            "sl2r": builtin("sl2r"), "affine_half": _affine_half()}


def _generators(algebra, kind):
    """[1], [1, 2 + i/3 x1], or [1, 2 + i/3 x1, 1 + x1^5] (whose block is empty at D <= 4)."""
    unit = AlgebraElement.unit(algebra)
    x1 = [0] * algebra.dim
    x1[0] = 1
    gaussian = unit.scale(2) + AlgebraElement.monomial(algebra, x1, Scalar(0, Fraction(1, 3)))
    if kind == "unit":
        return [unit]
    if kind == "gaussian":
        return [unit, gaussian]
    x1[0] = 5
    return [unit, gaussian, unit + AlgebraElement.monomial(algebra, x1)]


def _gram(rng, n, den, zeros, real=False):
    """A Hermitian n x n block with entries over den, some exactly zero,
    diagonally dominant, hence PSD."""
    G = [[Scalar(0)] * n for _ in range(n)]
    for p in range(n):
        G[p][p] = Scalar(n + Fraction(rng.randint(0, den), den))
        for q in range(p + 1, n):
            if rng.random() < zeros:
                continue
            re = Fraction(rng.randint(-den, den), den)
            im = 0 if real else Fraction(rng.randint(-den, den), den)
            G[p][q], G[q][p] = Scalar(re, im), Scalar(re, -im)
    return G


def _perturbed(element, rng, part):
    """element changed by 1/7 in the real or imaginary part of one of its monomials."""
    mono = rng.choice(sorted(element.terms) or [(0,) * element.algebra.dim])
    delta = Scalar(Fraction(1, 7)) if part == "re" else Scalar(0, Fraction(1, 7))
    return element + AlgebraElement.monomial(element.algebra, mono, delta)


def _weighted_case(name, gens_kind, degree, seed, dens, zeros=0.3, part=None, psd=True):
    """(certificate, target, generators, expected verdict); dens holds one Gram
    denominator per block."""
    algebra = ALGEBRAS[name]
    rng = random.Random(seed)
    gens = _generators(algebra, gens_kind)
    bases = [monomials_up_to(algebra.dim, (degree - gen.degree()) // 2) for gen in gens]
    grams = [_gram(rng, len(basis), den, zeros) for basis, den in zip(bases, dens)]
    if not psd:
        grams[0][0][0] = Scalar(-1)
    target = reference_expansion(algebra, bases, grams, gens)
    if part is not None:
        target = _perturbed(target, rng, part)
    cert = WeightedSosCertificate(algebra, degree, target, gens, bases,
                                  [GaussMatrix.from_scalars(G) for G in grams])
    return cert, target, gens, psd and part is None


def _assert_same_verdict(cert, target, gens, expected):
    assert reference_verify_certificate(cert, target, gens) is expected
    assert verify_certificate(cert, target, gens) is expected


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("gens_kind", ["unit", "gaussian"])
def test_planted_certificates_verify_like_the_reference(name, gens_kind):
    _assert_same_verdict(*_weighted_case(name, gens_kind, 4, 11, [4, 3]))


@pytest.mark.parametrize("part", ["re", "im"])
def test_perturbed_targets_fail_like_the_reference(part):
    for name in sorted(ALGEBRAS):
        _assert_same_verdict(*_weighted_case(name, "gaussian", 4, 12, [4, 3], part=part))


def test_empty_block_and_zero_entries_verify_like_the_reference():
    cert, target, gens, expected = _weighted_case("su2", "empty", 4, 13, [5, 2, 1], zeros=1)
    assert cert.bases[2] == [] and cert.grams[2].scalars() == []
    G = cert.grams[0].scalars()
    assert all(not G[p][q] for p in range(10) for q in range(10) if p != q)
    _assert_same_verdict(cert, target, gens, expected)


def test_blocks_with_different_denominators_verify_like_the_reference():
    for dens in ([1, 9], [8, 3], [6, 1]):
        _assert_same_verdict(*_weighted_case("sl2r", "gaussian", 4, 14, dens))


def test_indefinite_block_fails_like_the_reference():
    _assert_same_verdict(*_weighted_case("affine_half", "gaussian", 4, 15, [2, 2], psd=False))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(ALGEBRAS)), st.sampled_from(["unit", "gaussian", "empty"]),
       st.sampled_from([2, 4]), st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 12), min_size=3, max_size=3),
       st.sampled_from([None, "re", "im"]), st.booleans())
def test_weighted_verdicts_match_the_reference(name, gens_kind, degree, seed, dens, part, psd):
    _assert_same_verdict(*_weighted_case(name, gens_kind, degree, seed, dens, part=part,
                                         psd=psd))


def _commutative_case(nvars, half, seed, den, part=None, level=0, real=True):
    rng = random.Random(seed)
    basis = monomials_of_degree(nvars, half)
    gram = _gram(rng, len(basis), den, 0.3, real=real)
    out = {}
    for p, wp in enumerate(basis):
        for q, wq in enumerate(basis):
            mono = tuple(a + b for a, b in zip(wp, wq))
            out[mono] = out.get(mono, Fraction(0)) + gram[p][q].re
    target = CommutativePoly(nvars, out)
    if part is not None:
        target = target + CommutativePoly.monomial(nvars, rng.choice(sorted(target.coeffs)),
                                                   Fraction(1, 7))
    cert = CommutativeSosCertificate(target, level, basis, GaussMatrix.from_scalars(gram))
    real = all(s.is_real() for row in gram for s in row)
    return cert, target, real and part is None and level == 0


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from([None, "re"]), st.sampled_from([0, 1]), st.booleans())
def test_commutative_verdicts_match_the_reference(nvars, half, seed, den, part, level, real):
    cert, target, expected = _commutative_case(nvars, half, seed, den, part, level, real)
    if level:  # the form need not be divisible by t_1^2 + ... + t_d^2
        expected = reference_verify_commutative_certificate(cert, target)
    assert reference_verify_commutative_certificate(cert, target) is expected
    assert verify_commutative_certificate(cert, target) is expected


# -- the emitted claim and the cost of one verification ----------------------------


@pytest.fixture(scope="module")
def planted_su2():
    """An emitted su(2) certificate at D = 4 with generators 1 and 2 + i x1."""
    su2 = builtin("su2")
    unit = AlgebraElement.unit(su2)
    f = [unit, unit.scale(2) + AlgebraElement.monomial(su2, (1, 0, 0), Scalar(0, 1))]
    skeleton = GramSkeleton(su2, f, 4)
    target = planted_target(skeleton, random.Random(85))
    report = find_certificate(target, f, 4, skeleton=skeleton)
    assert report.status == "certificate"
    return report.certificate, target, f


def _copy(cert):
    return WeightedSosCertificate(cert.algebra, cert.degree, cert.target, cert.generators,
                                  cert.bases, cert.grams)


def test_verifier_checks_the_claim_it_writes(planted_su2):
    cert, target, f = planted_su2
    su2 = cert.algebra
    assert verify_certificate(_copy(cert), target, f)
    other_gens = _copy(cert)
    other_gens.generators = [f[0], f[1] + AlgebraElement.unit(su2)]  # 3 + i x1
    other_algebra = _copy(cert)
    other_algebra.algebra = builtin("heisenberg3")
    for wrong in (other_gens, other_algebra):
        assert not verify_certificate(wrong, target, f)
        assert not verify_certificate_json(wrong.to_json_dict())


def test_one_verification_builds_no_element_per_gram_entry(planted_su2, monkeypatch):
    cert, target, f = planted_su2
    counts = {"init": 0, "add": 0}
    init, add = AlgebraElement.__init__, AlgebraElement.__add__

    def counting_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(AlgebraElement, "__init__", counting_init)
    monkeypatch.setattr(AlgebraElement, "__add__", counting_add)
    assert verify_certificate(_copy(cert), target, f)
    rows = sum(len(basis) for basis in cert.bases)
    assert counts["init"] + counts["add"] <= rows + 4


# the upper triangle of [[1, 0], [4, 1]] is the identity, so only the Hermitian test rejects it
NOT_HERMITIAN = [[Scalar(1), Scalar(0)], [Scalar(4), Scalar(1)]]


def test_a_block_that_is_not_hermitian_is_rejected():
    ab = builtin("abelian(2)")
    unit = AlgebraElement.unit(ab)
    x1, x2 = (AlgebraElement.generator(ab, k) for k in range(2))
    # sum_pq G_pq w_p^* w_q with x_k^* = -x_k, which is negative at the point (1, -1)
    target = -(x1 * x1 + (x1 * x2).scale(4) + x2 * x2)
    assert not make_point_rep(ab, (1, -1)).is_positive(target)
    cert = WeightedSosCertificate(ab, 2, target, [unit], [[(1, 0), (0, 1)]],
                                  [GaussMatrix.from_scalars(NOT_HERMITIAN)])
    assert not verify_certificate(cert, target, [unit])
    assert not verify_certificate_json(cert.to_json_dict())


def test_a_commutative_block_that_is_not_symmetric_is_rejected():
    p = CommutativePoly(2, {(2, 0): 1, (1, 1): 4, (0, 2): 1})
    assert p.evaluate((1, -1)) == -2
    cert = CommutativeSosCertificate(p, 0, [(1, 0), (0, 1)],
                                     GaussMatrix.from_scalars(NOT_HERMITIAN))
    assert not verify_commutative_certificate(cert, p)
    assert not verify_certificate_json(cert.to_json_dict())


def _zero_padded_json(kind):
    """A certificate of x1^2 (t1^2) over the basis [x1, x2] whose Gram has a zero last row."""
    gram = GaussMatrix.from_scalars([[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]])
    if kind == "commutative":
        p = CommutativePoly(2, {(2, 0): 1})
        return CommutativeSosCertificate(p, 0, [(1, 0), (0, 1)], gram).to_json_dict()
    ab = builtin("abelian(2)")
    x1 = AlgebraElement.generator(ab, 0)
    unit = AlgebraElement.unit(ab)
    return WeightedSosCertificate(ab, 2, -(x1 * x1), [unit], [[(1, 0), (0, 1)]],
                                  [gram]).to_json_dict()


@pytest.mark.parametrize("shape", ["ragged", "not square"])
@pytest.mark.parametrize("kind", ["weighted", "commutative"])
def test_a_malformed_block_in_json_is_rejected(kind, shape):
    # dropping a zero entry or the zero last row leaves the re-expansion unchanged
    data = _zero_padded_json(kind)
    assert verify_certificate_json(data)
    holder = data["blocks"][0] if kind == "weighted" else data
    gram = holder["gram"]
    holder["gram"] = [gram[0], gram[1][:-1]] if shape == "ragged" else gram[:-1]
    assert verify_certificate_json(data) is False


# texts that read as 1 but are not its canonical "1"
NONCANONICAL_ONES = ["1.0", "1e0", "2/2", " 1", "+1", "01", "1+0 i"]


def _one_written_canonically(where):
    """A certificate JSON that verifies, and the (holder, key) of one of its entries written "1"."""
    if where == "weighted gram":
        data = _zero_padded_json("weighted")
        return data, data["blocks"][0]["gram"][0], 0
    data = commutative_sos(squared_norm_poly(2) ** 2, 0).certificate.to_json_dict()
    if where == "commutative gram":
        return data, data["gram"][0], 0
    return data, data["target_coeffs"][0], "coeff"


@pytest.mark.parametrize("text", NONCANONICAL_ONES)
@pytest.mark.parametrize("where", ["commutative gram", "target_coeffs", "weighted gram"])
def test_a_number_not_written_canonically_is_a_format_error(where, text):
    data, holder, key = _one_written_canonically(where)
    assert holder[key] == "1"
    assert verify_certificate_json(data)
    holder[key] = text
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(data)
