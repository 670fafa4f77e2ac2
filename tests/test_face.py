"""Facial reduction of weighted Gram problems from exact representations."""

import json
from fractions import Fraction

from envsos.certs import WeightedSosCertificate, round_and_verify, verify_certificate_json
from envsos.driver import window_members
from envsos.exactla import GaussMatrix
from envsos.exprs import parse
from envsos.gram import GramSkeleton
from envsos.lie import builtin
from envsos.numeric import solve_feasibility
from envsos.pbw import AlgebraElement, canonical_a
from envsos.reps import make_point_rep, make_spin_rep
from envsos.scalar import Scalar
from envsos.sos import find_certificate, forced_face_vectors

from oracles import residual_exact


def _explicit_margin_gram(su2, basis):
    """A Gram of a^2 - 1 = (a-1)^*(a-1) + 2 sum x_k^* x_k with a - 1 = -sum x_k^2."""
    index = {w: p for p, w in enumerate(basis)}
    n = len(basis)
    G = [[Scalar(0)] * n for _ in range(n)]
    squares = [index[tuple(2 if j == k else 0 for j in range(3))] for k in range(3)]
    for p in squares:
        for q in squares:
            G[p][q] = Scalar(1)  # conj(-1) * (-1)
    for k in range(3):
        p = index[tuple(1 if j == k else 0 for j in range(3))]
        G[p][p] = Scalar(2)
    return G


def test_forced_vectors_are_annihilated_by_an_explicit_margin_gram(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    target = a * a - unit
    skeleton = GramSkeleton(su2, [unit], 4)
    basis = skeleton.bases[0]
    G = _explicit_margin_gram(su2, basis)
    problem = skeleton.problem_for(target)
    # the explicit Gram is a certificate of the target over the unreduced basis
    g = [Fraction(0)] * problem.layout.nvars
    for p in range(len(basis)):
        g[problem.layout.index[(0, p, p, "re")]] = G[p][p].re
        for q in range(p + 1, len(basis)):
            g[problem.layout.index[(0, p, q, "re")]] = G[p][q].re
    assert all(r == 0 for r in residual_exact(problem.system, g))
    members = window_members(su2, [unit], Fraction(3))
    forced, = forced_face_vectors(target, [unit], skeleton.bases, members.values())
    # only spin 0 maps a^2 - 1 to a singular matrix; it forces out the constant monomial
    assert len(forced) == 1
    assert [bool(x) for x in forced[0]] == [w == (0, 0, 0) for w in basis]
    for z in forced:
        assert all(not sum((G[p][q] * z[q] for q in range(len(basis))), Scalar(0))
                   for p in range(len(basis)))


def test_margin_target_certified_on_the_face(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    target = a * a - unit
    members = window_members(su2, [unit], Fraction(3))
    report = find_certificate(target, [unit], 4, reps=list(members.values()))
    assert report.status == "certificate"
    cert = report.certificate
    # the certificate is over the full monomial basis, with the forced row zero
    assert [len(G.re) for G in cert.grams] == [10]
    const = cert.bases[0].index((0, 0, 0))
    assert all(not v for v in cert.grams[0].scalars()[const])
    data = json.loads(json.dumps(cert.to_json_dict()))
    assert verify_certificate_json(data)


def test_abelian_point_forces_out_the_constant_monomial():
    ab = builtin("abelian(2)")
    unit = AlgebraElement.unit(ab)
    # x1^* x1 + x2^* x2 vanishes at the point 0, where x1 and x2 act as 0
    c = parse("-x1^2 - x2^2", ab)
    origin = make_point_rep(ab, (0, 0))
    skeleton = GramSkeleton(ab, [unit], 2)
    forced, = forced_face_vectors(c, [unit], skeleton.bases, [origin])
    assert forced == [[Scalar(1), Scalar(0), Scalar(0)]]
    assert skeleton.bases[0][0] == (0, 0)
    report = find_certificate(c, [unit], 2, reps=[origin, make_point_rep(ab, (1, -1))])
    assert report.status == "certificate"
    data = report.certificate.to_json_dict()
    assert data["blocks"][0]["basis"] == ["1", "x1", "x2"]
    assert data["blocks"][0]["gram"][0] == ["0", "0", "0"]
    assert verify_certificate_json(data)


def test_representation_with_non_psd_generator_contributes_nothing(su2):
    unit = AlgebraElement.unit(su2)
    # a acts as 7/4 on spin 1/2, where -i*x1 has the eigenvalues 1/2 and -1/2
    c = canonical_a(su2) - AlgebraElement.unit(su2, Fraction(7, 4))
    h = parse("-i*x1", su2)
    spin_half = make_spin_rep(Fraction(1, 2), su2)
    assert not spin_half.is_positive(h)
    bases = GramSkeleton(su2, [unit, h], 2).bases
    assert forced_face_vectors(c, [unit, h], bases, [spin_half]) == [[], []]
    # the same kernel with only the unit generator does force vectors
    assert forced_face_vectors(c, [unit], bases[:1], [spin_half]) != [[]]


def test_representations_without_kernel_change_nothing(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    reps = [make_spin_rep(Fraction(l, 2), su2) for l in range(5)]
    assert forced_face_vectors(a, [unit], GramSkeleton(su2, [unit], 2).bases, reps) == [[]]
    plain = find_certificate(a, [unit], 2).certificate.to_json_dict()
    with_reps = find_certificate(a, [unit], 2, reps=reps).certificate.to_json_dict()
    assert json.dumps(with_reps) == json.dumps(plain)


def test_composed_rows_match_the_full_expansion(su2):
    # a generic complex face: the reduced rows at g' must be the full rows at Q^H G' Q
    unit = AlgebraElement.unit(su2)
    skeleton = GramSkeleton(su2, [unit], 2)
    Q = GaussMatrix.from_scalars([[Scalar(1), Scalar(0, 1), Scalar(0), Scalar(2)],
                                  [Scalar(0), Scalar(1, -1), Scalar(Fraction(1, 3)), Scalar(0)]])
    reduced = skeleton.problem_for(AlgebraElement.zero(su2), [Q])
    assert reduced.layout.block_sizes == [2]
    g = [Fraction(k + 1, 7) for k in range(reduced.layout.nvars)]
    blocks = [G.scalars() for G in reduced.gram_blocks_exact(g)]
    assert len(blocks[0]) == 4
    target = AlgebraElement.zero(su2)
    for p, wp in enumerate(skeleton.bases[0]):
        for q, wq in enumerate(skeleton.bases[0]):
            term = AlgebraElement.monomial(su2, wp).star() * AlgebraElement.monomial(su2, wq)
            target = target + term.scale(blocks[0][p][q])
    assert all(r == 0 for r in residual_exact(skeleton.problem_for(target, [Q]).system, g))
    shifted = skeleton.problem_for(target + unit, [Q])
    assert any(r != 0 for r in residual_exact(shifted.system, g))


def test_the_empty_face_leaves_no_variable(su2):
    # every Gram on the empty face is zero: the zero target is met with no
    # iteration and the all-zero block verifies, the unit target is exactly
    # inconsistent
    unit = AlgebraElement.unit(su2)
    skeleton = GramSkeleton(su2, [unit], 2)
    empty = GaussMatrix([], [], 1)
    zero = skeleton.problem_for(AlgebraElement.zero(su2), [empty])
    assert zero.layout.block_sizes == [0] and zero.layout.nvars == 0
    outcome = solve_feasibility(zero)
    assert (outcome.status, outcome.iterations) == ("candidate", 0)
    cert = round_and_verify(zero, outcome.g)
    assert isinstance(cert, WeightedSosCertificate)
    assert [G.scalars() for G in cert.grams] == [[[Scalar(0)] * 4 for _ in range(4)]]
    outcome = solve_feasibility(skeleton.problem_for(unit, [empty]))
    assert outcome.status == "infeasible-evidence"
    assert outcome.dual["kind"] == "exact-linear"


def test_complex_face_from_spin_one_half(su2):
    # (a - 7/4)^2 is zero on spin 1/2; its forced vectors have complex entries
    unit = AlgebraElement.unit(su2)
    shift = canonical_a(su2) - AlgebraElement.unit(su2, Fraction(7, 4))
    c = shift * shift
    members = window_members(su2, [unit], Fraction(3))
    skeleton = GramSkeleton(su2, [unit], 4)
    forced, = forced_face_vectors(c, [unit], skeleton.bases, members.values())
    assert len(forced) == 4 and any(x.im for z in forced for x in z)
    report = find_certificate(c, [unit], 4, skeleton=skeleton, reps=list(members.values()))
    assert report.status == "certificate"
    G = report.certificate.grams[0].scalars()
    for z in forced:
        assert all(not sum((G[p][q] * z[q] for q in range(len(z))), Scalar(0))
                   for p in range(len(z)))
    assert verify_certificate_json(json.loads(json.dumps(report.certificate.to_json_dict())))


def test_generator_image_weights_the_forced_rows(su2):
    # g = 1/2 - i*x1 acts on spin 1/2 as diag(0, 1): PSD with the kernel of g itself
    unit = AlgebraElement.unit(su2)
    g = parse("1/2 - i*x1", su2)
    spin_half = make_spin_rep(Fraction(1, 2), su2)
    bases = GramSkeleton(su2, [unit, g], 2).bases
    assert [len(b) for b in bases] == [4, 1]
    forced_unit, forced_g = forced_face_vectors(g, [unit, g], bases, [spin_half])
    assert len(forced_unit) == 2
    # pi(g) maps the kernel to 0, so the rows of S pi(g) U force nothing on block 2;
    # the rows of U alone would force out the only certificate, g = 1^* g 1
    assert forced_g == []
    report = find_certificate(g, [unit, g], 2, reps=[spin_half])
    assert report.status == "certificate"
    data = report.certificate.to_json_dict()
    assert data["blocks"][1]["gram"] == [["1"]]
    assert verify_certificate_json(data)
