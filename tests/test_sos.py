import hashlib
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envsos import certs, exactla, gram, lie, numeric, sos
from envsos.certs import (
    CommutativeSosCertificate,
    WeightedSosCertificate,
    certificate_from_json,
    verify_certificate,
    verify_certificate_json,
    verify_commutative_certificate,
)
from envsos.errors import CertificateFormatError, NotHermitean, OddDegreeTarget
from envsos.exactla import GaussMatrix, ldl_hermitian
from envsos.driver import window_members
from envsos.exactla import nullspace
from envsos.gram import (
    CommGramProblem,
    GramSkeleton,
    VariableLayout,
    build_gram_problem,
    monomials_of_degree,
    monomials_up_to,
)
from envsos.lie import builtin
from envsos.numeric import SolveOptions, solve_feasibility
from envsos.pbw import AlgebraElement, canonical_a, conjugate_by
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.exprs import parse
from envsos.scalar import Scalar
from envsos.sos import (
    _sample_points,
    commutative_sos,
    find_certificate,
    forced_face_vectors,
    sample_sign_information,
)

from oracles import planted_target, residual_exact


MOTZKIN = CommutativePoly(3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1})


def su2_unit():
    su2 = builtin("su2")
    return su2, AlgebraElement.unit(su2)


def brute_force_expansion(skeleton, blocks):
    """sum_l sum_{p,q} (G_l)_{pq} w_p^* f_l w_q, straightened afresh term by term."""
    algebra = skeleton.algebra
    total = AlgebraElement.zero(algebra)
    for basis, gram, gen in zip(skeleton.bases, blocks, skeleton.generators):
        for p, wp in enumerate(basis):
            left = AlgebraElement.monomial(algebra, wp).star() * gen
            for q, wq in enumerate(basis):
                if gram[p][q]:
                    total = total + (left * AlgebraElement.monomial(algebra, wq)).scale(gram[p][q])
    return total


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
    assert all(r == 0 for r in residual_exact(problem.system, g))
    blocks = [G.scalars() for G in problem.gram_blocks_exact(g)]
    assert brute_force_expansion(problem.skeleton, blocks) == a


def test_constraints_match_brute_force_expansion(builtins):
    rng = random.Random(51)
    for alg in list(builtins.values())[:3]:
        unit = AlgebraElement.unit(alg)
        skeleton = GramSkeleton(alg, [unit], 2)
        layout = skeleton.layout
        for _ in range(5):
            g = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(layout.nvars)]
            blocks = [G.scalars() for G in layout.gram_blocks_exact(g)]
            expansion = brute_force_expansion(skeleton, blocks)
            residual = [sum(x * g[j] for j, x in row.items()) for row in skeleton.rows]
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
    G = cert.grams[0].scalars()
    assert all(G[p][p] == Scalar(1) for p in range(4))
    assert all(not G[p][q] for p in range(4) for q in range(4) if p != q)


def test_negative_constant_infeasible(su2):
    unit = AlgebraElement.unit(su2)
    report = find_certificate(AlgebraElement.unit(su2, -1), [unit], 0)
    assert report.status == "numeric-infeasible-evidence"
    assert report.numeric.dual["dual_value"] < -1e-3


def test_separating_evidence_reports_what_it_keeps(su2):
    unit = AlgebraElement.unit(su2)
    numeric = find_certificate(AlgebraElement.unit(su2, -1), [unit], 0).numeric
    assert set(numeric.dual) == {"kind", "dual_value", "min_eigenvalue_S"}
    assert numeric.report_dict()["dual"] == numeric.dual


def test_certificate_tampering_detected(su2):
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    cert = find_certificate(a, [unit], 2).certificate
    G = cert.grams[0].scalars()
    G[0][0] = G[0][0] + Scalar(Fraction(1, 10**6))
    cert.grams[0] = GaussMatrix.from_scalars(G)
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
    assert data["schema_version"] == 2
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


@pytest.mark.parametrize("field, text", [
    ("target", "-x1^2 + 3"), ("target", "3 - x1*x1"), ("target", "1 + 2 - x1^2"),
    ("target", "(3 - x1^2)"), ("target", " 3 - x1^2"),
    ("generators", ["2 - 1"]), ("generators", ["1*1"]), ("generators", ["(1)"]),
])
def test_loader_rejects_non_canonical_target_and_generator_texts(su2, field, text):
    # each text parses to the emitted element, so read loosely it would still verify
    unit = AlgebraElement.unit(su2)
    data = find_certificate(parse("3 - x1^2", su2), [unit], 2).certificate.to_json_dict()
    assert (data["target"], data["generators"]) == ("3 - x1^2", ["1"])
    assert verify_certificate_json(data)
    with pytest.raises(CertificateFormatError, match="canonical"):
        verify_certificate_json(dict(data, **{field: text}))


def test_loader_rejects_unknown_schema_version(su2):
    unit = AlgebraElement.unit(su2)
    weighted = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    commutative = commutative_sos(squared_norm_poly(2) ** 2, 0).certificate.to_json_dict()
    for data in (weighted, commutative):
        data["schema_version"] = 99
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(data)


def test_schema_2_drops_ldl_witness_and_version_1_still_reads(su2):
    unit = AlgebraElement.unit(su2)
    weighted = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    commutative = commutative_sos(squared_norm_poly(2) ** 2, 0).certificate.to_json_dict()
    assert "ldl_witness" not in weighted["blocks"][0] and "ldl_witness" not in commutative
    old_witness = {"perm": [0], "diag": ["1"], "lower": [["1"]]}  # never read back
    for data in (weighted, commutative):
        assert data["schema_version"] == 2 and verify_certificate_json(data)
        version_1 = json.loads(json.dumps(data))
        version_1["schema_version"] = 1
        for holder in version_1.get("blocks", [version_1]):
            holder["ldl_witness"] = old_witness
        assert verify_certificate_json(version_1)
        for version in (3, True, 2.0, "2"):
            with pytest.raises(CertificateFormatError):
                verify_certificate_json(dict(data, schema_version=version))


def _quartic_certificate_json():
    data = commutative_sos(squared_norm_poly(2) ** 2, 0).certificate.to_json_dict()
    assert verify_certificate_json(data)
    return data


def test_loader_rejects_non_integer_exponents():
    # (3.0, 1.0) == (3, 1): read loosely, [1.5, 0.5] squares to t1^3*t2, which is -1 at (1, -1)
    data = dict(_quartic_certificate_json(), target="t1^3*t2",
                target_coeffs=[{"exponents": [3, 1], "coeff": "1"}],
                basis=[[1.5, 0.5]], gram=[["1"]])
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(data)
    for exponents in ([3.0, 1.0], [True, 3], ["3", "1"], [-1, 5]):
        bad = dict(data, basis=[[2, 1]], target_coeffs=[{"exponents": exponents, "coeff": "1"}])
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(bad)


def test_loader_rejects_exponent_lists_of_wrong_length():
    data = _quartic_certificate_json()
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(dict(data, basis=[list(m) + [0] for m in data["basis"]]))
    short = [dict(e, exponents=e["exponents"][:1]) for e in data["target_coeffs"]]
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(dict(data, target_coeffs=short))


def test_loader_rejects_non_integer_nvars():
    data = _quartic_certificate_json()
    for nvars in (2.9, 2.0, True, "2", -2):
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(dict(data, nvars=nvars))


def test_loader_rejects_non_integer_degree(su2):
    unit = AlgebraElement.unit(su2)
    data = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    assert verify_certificate_json(data)
    for degree in (2.0, 2.5, True, "2"):
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(dict(data, degree=degree))


def test_loader_rejects_repeated_or_zero_target_coeffs():
    data = _quartic_certificate_json()
    # read loosely, the repeated [4, 0] is overwritten by the real entry and dropped
    repeated = [{"exponents": [4, 0], "coeff": "-9"}] + data["target_coeffs"]
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(dict(data, target_coeffs=repeated))
    zero = [{"exponents": [3, 1], "coeff": "0"}] + data["target_coeffs"]
    with pytest.raises(CertificateFormatError):
        verify_certificate_json(dict(data, target_coeffs=zero))


def test_loader_checks_weighted_block_indices(su2):
    unit = AlgebraElement.unit(su2)
    data = find_certificate(canonical_a(su2), [unit], 2).certificate.to_json_dict()
    assert [blk["l"] for blk in data["blocks"]] == [1] and verify_certificate_json(data)
    block = data["blocks"][0]
    for blocks in ([dict(block, l=7)], [block, dict(block)], [dict(block, l=True)],
                   [dict(block, l=1.0)], []):
        with pytest.raises(CertificateFormatError):
            verify_certificate_json(dict(data, blocks=blocks))


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
        calls.append(len(M.re))
        return ldl_hermitian(M)

    monkeypatch.setattr(certs, "ldl_hermitian", counting_ldl)
    unit = AlgebraElement.unit(su2)
    cert = find_certificate(canonical_a(su2), [unit], 2).certificate
    assert calls == [4]  # emission: the verifier's factor is kept as the witness
    assert cert.factors[0].is_positive_definite()
    data = cert.to_json_dict()
    certificate_from_json(data)
    assert calls == [4]  # loading decides nothing
    assert verify_certificate_json(data)
    assert calls == [4, 4]  # re-verification factors from scratch


def _planted_skeleton(su2):
    """su(2) with generators 1 and 2 + i x1 at D = 4."""
    unit = AlgebraElement.unit(su2)
    f = [unit, unit.scale(2) + AlgebraElement.monomial(su2, (1, 0, 0), Scalar(0, 1))]
    return f, GramSkeleton(su2, f, 4)


def test_planted_targets_share_one_affine_operator(su2, monkeypatch):
    accumulators = []

    class CountingAccumulator(exactla.EchelonAccumulator):
        def __init__(self, ncols):
            accumulators.append(ncols)
            super().__init__(ncols)

    monkeypatch.setattr(gram, "EchelonAccumulator", CountingAccumulator)
    assert not hasattr(gram, "invert_exact")  # N is formed in floats only
    f, skeleton = _planted_skeleton(su2)
    rows = [dict(row) for row in skeleton.rows]
    rng = random.Random(85)
    after_first = None
    for _ in range(40):
        report = find_certificate(planted_target(skeleton, rng), f, 4, skeleton=skeleton)
        assert report.status == "certificate"
        after_first = after_first or list(accumulators)
    # one elimination of [A | I] for the unreduced rows, whatever the target
    assert accumulators == after_first
    assert accumulators == [skeleton.layout.nvars + len(skeleton.rows)]
    assert len(skeleton.operator.independent) == 35
    assert skeleton.rows == rows


def test_pivot_completion_keeps_gram_denominators_small(su2):
    """su(2) a^3 at D=6: every Gram entry has a denominator of at most 32 bits.

    The W-metric projection through the exact N gave 68-bit denominators here."""
    a = canonical_a(su2)
    report = find_certificate(a * a * a, [AlgebraElement.unit(su2)], 6)
    assert report.status == "certificate"
    bits = [x.denominator.bit_length() for G in report.certificate.grams
            for row in G.scalars() for s in row for x in (s.re, s.im)]
    assert max(bits) <= 32


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["su2_a3_D6_w_metric.json", "quartic_w_metric.json"])
def test_certificates_from_the_w_metric_projection_still_verify(name):
    """Certificates emitted by the W-metric projection (su(2) a^3 at D=6, whose
    68-bit denominators come from the exact N, and a 4-variable planted quartic)
    keep verifying; one changed Gram entry makes them fail."""
    data = json.loads((DATA / name).read_text(encoding="utf-8"))
    assert verify_certificate_json(data)
    weighted = "blocks" in data
    gram = data["blocks"][0]["gram"] if weighted else data["gram"]
    if weighted:
        assert max(Fraction(x).denominator.bit_length() for row in gram for x in row
                   if "i" not in x) == 68
    gram[1][1] = str(Fraction(gram[1][1]) + 1)
    assert not verify_certificate_json(data)


def _embed_reference(layout, g):
    """embed_float as one loop over the layout's index: the Hermitian block U + iV."""
    mats = []
    for b, n in enumerate(layout.block_sizes):
        U, V = np.zeros((n, n)), np.zeros((n, n))
        for p in range(n):
            U[p, p] = g[layout.index[(b, p, p, "re")]]
            for q in range(p + 1, n):
                U[p, q] = U[q, p] = g[layout.index[(b, p, q, "re")]]
                if layout.complex_blocks:
                    V[p, q] = -g[layout.index[(b, p, q, "im")]]
                    V[q, p] = g[layout.index[(b, p, q, "im")]]
        mats.append(U + 1j * V if layout.complex_blocks else U)
    return mats


def _unembed_reference(layout, mats):
    g = np.zeros(layout.nvars)
    for b, n in enumerate(layout.block_sizes):
        M = mats[b]
        if layout.complex_blocks:
            U, V = 0.5 * (M.real + M.real.T), 0.5 * (M.imag - M.imag.T)
        else:
            U, V = 0.5 * (M + M.T), None
        for p in range(n):
            g[layout.index[(b, p, p, "re")]] = U[p, p]
            for q in range(p + 1, n):
                g[layout.index[(b, p, q, "re")]] = U[p, q]
                if V is not None:
                    g[layout.index[(b, p, q, "im")]] = V[q, p]
    return g


@pytest.mark.parametrize("complex_blocks", [True, False])
def test_float_embedding_matches_the_loop_reference(complex_blocks):
    rng = np.random.default_rng(86)
    layout = VariableLayout([4, 1, 0, 3], complex_blocks)
    g = rng.standard_normal(layout.nvars)
    mats = layout.embed_float(g)
    for M, R in zip(mats, _embed_reference(layout, g)):
        assert M.shape == R.shape and np.array_equal(M, R)
    noisy = [M + rng.standard_normal(M.shape) for M in mats]
    assert np.array_equal(layout.unembed_float(noisy), _unembed_reference(layout, noisy))


@pytest.mark.parametrize("complex_blocks", [True, False])
def test_psd_projection_clips_hermitian_blocks_at_the_floor(complex_blocks):
    rng = np.random.default_rng(87)
    floor = 1e-3
    for n in (0, 1, 4, 7):
        X = rng.standard_normal((n, n))
        if complex_blocks:
            X = X + 1j * rng.standard_normal((n, n))
        P, = numeric._project_psd([X + X.conj().T], floor)
        assert P.shape == (n, n) and np.iscomplexobj(P) == complex_blocks
        assert np.allclose(P, P.conj().T, rtol=0, atol=1e-12)
        assert n == 0 or np.linalg.eigvalsh(P)[0] >= floor - 1e-12
        # a block whose eigenvalues are all at least the floor stays where it is
        Y = X @ X.conj().T + 2 * floor * np.eye(n)
        Z, = numeric._project_psd([Y], floor)
        assert np.allclose(Z, Y, rtol=0, atol=1e-12)


def test_dual_norm_is_the_frobenius_norm_of_the_real_embedding(su2, monkeypatch):
    """The dual value is b.y over the Frobenius norm of S's real 2n x 2n embedding
    [[Re S, -Im S], [Im S, Re S]], which counts every entry of S twice."""
    problem = GramSkeleton(su2, [AlgebraElement.unit(su2)], 2).problem_for(-canonical_a(su2))
    calls = []
    dual_evidence = numeric._dual_evidence

    def recording(*args):
        calls.append(args)
        return dual_evidence(*args)

    monkeypatch.setattr(numeric, "_dual_evidence", recording)
    outcome = solve_feasibility(problem)
    assert outcome.status == "infeasible-evidence" and len(calls) == 1
    system, layout, _, g_psd, _ = calls[0]
    A, b, N, winv = system.float_data()
    y = N @ (A @ g_psd - b)
    S_blocks = layout.embed_float(winv * (A.T @ y))
    embedded = [np.block([[S.real, -S.imag], [S.imag, S.real]]) for S in S_blocks]
    norm = np.sqrt(sum(np.sum(E * E) for E in embedded))
    assert outcome.dual["dual_value"] == pytest.approx(float(b @ y) / norm, rel=1e-12)
    min_eig = min(np.linalg.eigvalsh(E)[0] for E in embedded)
    assert outcome.dual["min_eigenvalue_S"] == pytest.approx(min_eig / norm, rel=1e-9, abs=1e-12)


def _iterate_digest(problem, opts=None):
    outcome = solve_feasibility(problem, opts)
    return outcome.status, outcome.iterations, hashlib.sha256(outcome.g.tobytes()).hexdigest()[:16]


# (status, iterations, sha256 of the final iterate's bytes, first 16 hex digits)
RECORDED_DIGESTS = {
    "planted": ("candidate", 26, "0be91bff826d8061"),
    "margin face": ("candidate", 17, "a940627d48ae5fb4"),
    "robinson level 1": ("candidate", 1, "899dad4dcd5fe022"),
    "margin, 400 iterations": ("inconclusive", 400, "8d3af4b2075f09cd"),
}


def _numeric_digests(su2):
    f, skeleton = _planted_skeleton(su2)
    # len(basis) + 2 random squares z^* f_l z per block: an interior point, but
    # not a diagonally dominant one, so the search takes a few dozen steps
    rng = random.Random(8)
    target = AlgebraElement.zero(su2)
    for basis, gen in zip(skeleton.bases, f):
        for _ in range(len(basis) + 2):
            z = AlgebraElement(su2, {w: Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                                     for w in basis})
            target = target + z.star() * gen * z
    planted = skeleton.problem_for(target)
    unit = AlgebraElement.unit(su2)
    a = canonical_a(su2)
    margin = a * a - unit
    margin_skeleton = GramSkeleton(su2, [unit], 4)
    members = window_members(su2, [unit], Fraction(3)).values()
    forced, = forced_face_vectors(margin, [unit], margin_skeleton.bases, members)
    face = margin_skeleton.problem_for(
        margin, [nullspace(GaussMatrix.from_scalars(forced), len(margin_skeleton.bases[0]))])
    robinson = CommutativePoly(3, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1, (4, 2, 0): -1,
                                   (2, 4, 0): -1, (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1,
                                   (0, 2, 4): -1, (2, 2, 2): 3})
    _, zeros = sample_sign_information(robinson)
    level_one = CommGramProblem(robinson, kernel_points=zeros, level=1)
    return {
        "planted": _iterate_digest(planted),
        "margin face": _iterate_digest(face),
        "robinson level 1": _iterate_digest(level_one),
        # the unreduced margin problem has no interior: 400 iterations of real work
        "margin, 400 iterations": _iterate_digest(margin_skeleton.problem_for(margin),
                                                  SolveOptions(max_iters=400)),
    }


def test_numeric_iterates_match_recorded_values(su2):
    """Every numeric iterate is bit-identical to the recorded values.

    All four were recorded afresh when the float N became numpy's inverse
    of A_ind W^-1 A_ind^T instead of the rounded exact inverse, which kept
    their statuses and iteration counts.  All on Python 3.11, numpy 2.4.6
    with OpenBLAS, x86-64; another LAPACK build may round eigh or inv
    differently and need them recorded afresh.
    """
    assert _numeric_digests(su2) == RECORDED_DIGESTS


def test_stall_without_dual_evidence_reports_where_the_search_stopped(su2, monkeypatch):
    """-a has no Gram at D=2: the gap stalls at iteration 401.  With the dual
    evidence withheld the outcome is inconclusive at that iteration, and the
    stalled vectors are tried for dual evidence once, not again at the cap."""
    problem = GramSkeleton(su2, [AlgebraElement.unit(su2)], 2).problem_for(-canonical_a(su2))
    assert solve_feasibility(problem).status == "infeasible-evidence"
    calls = []
    monkeypatch.setattr(numeric, "_dual_evidence", lambda *args: calls.append(args[-1]))
    outcome = solve_feasibility(problem)
    assert (outcome.status, outcome.iterations, calls) == ("inconclusive", 401, [401])


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
    assert ldl_hermitian(GaussMatrix.from_scalars(gram)).psd == valid
    cert = CommutativeSosCertificate(target, 0, basis, GaussMatrix.from_scalars(gram))
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
    assert ldl_hermitian(GaussMatrix.from_scalars(gram)).psd == valid
    cert = WeightedSosCertificate(ab, 4, target, [unit], [basis], [GaussMatrix.from_scalars(gram)])
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
    assert report.certificate.factors[0].is_positive_definite()


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
    gram = GaussMatrix.from_scalars(_quartic_gram(0))
    assert verify_commutative_certificate(
        CommutativeSosCertificate(target, 0, basis, gram), target)
    # t1^4 + t2^4 is not a multiple of t1^2 + t2^2
    assert not verify_commutative_certificate(
        CommutativeSosCertificate(target, 1, basis, gram), target)


def test_commutative_verifier_rejects_a_target_the_certificate_does_not_state():
    stated = CommutativePoly(2, {(4, 0): 1, (0, 4): 1})
    other = CommutativePoly(2, {(4, 0): 1, (0, 4): 2})
    basis = [(2, 0), (1, 1), (0, 2)]
    gram = GaussMatrix.from_scalars(
        [[Scalar(x if p == q else 0) for q in range(3)] for p, x in enumerate((1, 0, 2))])
    # the Gram is a true certificate of other, but the certificate states another target
    assert verify_commutative_certificate(CommutativeSosCertificate(other, 0, basis, gram), other)
    assert not verify_commutative_certificate(
        CommutativeSosCertificate(stated, 0, basis, gram), other)


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


@pytest.mark.parametrize("level", [-1, True, 1.5])
@pytest.mark.parametrize("p", [CommutativePoly(2, {}), squared_norm_poly(2)],
                         ids=["zero", "square"])
def test_commutative_level_must_be_a_nonnegative_int(p, level):
    with pytest.raises(ValueError, match="level"):
        commutative_sos(p, level)


def test_zero_form_certificate_is_returned_only_when_it_verifies(monkeypatch):
    zero = CommutativePoly(2, {})
    report = commutative_sos(zero, 1)
    assert report.status == "certificate"
    assert verify_certificate_json(report.certificate.to_json_dict())
    monkeypatch.setattr(sos, "verify_commutative_certificate", lambda cert, target: False)
    report = commutative_sos(zero, 1)
    assert report.status == "inconclusive" and report.certificate is None


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


def _su2_a():
    su2 = builtin("su2")
    return canonical_a(su2), [AlgebraElement.unit(su2)]


@pytest.mark.parametrize("build, size", [
    (lambda: find_certificate(*_su2_a(), 2), 4),
    (lambda: GramSkeleton(builtin("su2"), _su2_a()[1], 2).problem_for(
        _su2_a()[0], faces=[GaussMatrix.from_scalars([[1, 0, 0, 0], [0, 1, 0, 0]])]), 2),
    (lambda: commutative_sos(CommutativePoly(2, {(2, 0): 1, (0, 2): 1}), 0), 2),
], ids=["unreduced", "faced", "commutative"])
def test_block_cap_is_checked_before_the_affine_operator_is_built(monkeypatch, build, size):
    def never_built(self, rows, weights):
        raise AssertionError("the affine operator was built")

    monkeypatch.setattr(numeric, "BLOCK_CAP", 1)
    monkeypatch.setattr(gram.AffineOperator, "__init__", never_built)
    with pytest.raises(ValueError, match=rf"^a Gram block of size {size} exceeds the cap 1$"):
        build()
