from fractions import Fraction

import pytest

from envsos import auditor, exactla
from envsos.auditor import (
    IdealSpan,
    OperatorAlgebraContext,
    audit_cleared_commutator,
    audit_cleared_degree2,
    audit_r_relations,
    full_audit,
)
from envsos.errors import ContextInvalid
from envsos.exactla import GaussMatrix
from envsos.exprs import parse
from envsos.lie import builtin
from envsos.reps import direct_sum, make_point_rep, make_spin_rep
from envsos.scalar import Scalar

from oracles import ReferenceEchelonAccumulator, echelon_rank, reference_cmat_mul

ALL = ["su2", "abelian(3)", "heisenberg3", "affine_line", "sl2r"]


def test_cleared_commutator_all_builtins():
    for name in ALL:
        report = audit_cleared_commutator(builtin(name), name)
        assert report.passed, name


def test_cleared_degree2_all_builtins():
    for name in ALL:
        report = audit_cleared_degree2(builtin(name), name)
        assert report.passed, name


def test_affine_intermediate_value():
    aff = builtin("affine_line")
    report = audit_cleared_commutator(aff, "affine_line")
    assert report.intermediates[2] == parse("2*x1*x2 - x2", aff)


def test_printed_forms_deviate_exactly_when_b_nonzero():
    # the printed correction has the opposite sign, so it matches only when
    # the b tensor vanishes (full antisymmetry) and deviates otherwise
    expectations = {
        "su2": True,
        "abelian(3)": True,
        "heisenberg3": False,
        "affine_line": False,
        "sl2r": False,
    }
    for name, matches in expectations.items():
        report = audit_cleared_commutator(builtin(name), name)
        assert all(v.is_zero() for v in report.printed_deviations.values()) == matches, name


def test_abelian_everything_degenerates_to_zero():
    ab = builtin("abelian(3)")
    report = audit_cleared_commutator(ab)
    assert all(v.is_zero() for v in report.intermediates.values())


def test_su2_context_relations():
    ctx = OperatorAlgebraContext(direct_sum(make_spin_rep(Fraction(1, 2)), make_spin_rep(1)))
    # the inverse is block scalar: 4/7 on the spin-1/2 block, 1/3 on spin-1
    Y = ctx.Y.scalars()
    assert Y[0][0] == Scalar(Fraction(4, 7))
    assert Y[4][4] == Scalar(Fraction(1, 3))
    report = audit_r_relations(ctx)
    assert all(entry["status"] == "pass" for entry in report.values())
    assert report["r4"]["first_form"] and report["r4"]["second_form"]
    assert report["r6"]["spans_equal"]


def test_abelian_point_context_relations():
    ab = builtin("abelian(2)")
    ctx = OperatorAlgebraContext(make_point_rep(ab, [1, 2]))
    assert ctx.Y.scalars()[0][0] == Scalar(Fraction(1, 6))
    report = audit_r_relations(ctx)
    assert all(entry["status"] == "pass" for entry in report.values())


def test_abelian_sum_context_relations():
    ab = builtin("abelian(2)")
    ctx = OperatorAlgebraContext(direct_sum(
        make_point_rep(ab, [0, 0]), make_point_rep(ab, [1, -1]), make_point_rep(ab, [2, 3])
    ))
    report = audit_r_relations(ctx)
    assert all(entry["status"] == "pass" for entry in report.values())


def test_full_audit_shape():
    su2 = builtin("su2")
    ctx = OperatorAlgebraContext(make_spin_rep(Fraction(1, 2)))
    out = full_audit(su2, [ctx], label="su2")
    assert out["cleared_commutator"]["status"] == "pass"
    assert out["cleared_degree2"]["status"] == "pass"
    assert out["contexts"][0]["relations"]["r1"]["status"] == "pass"


def _flat(M):
    return [x for row in M for v in row for x in (v.re, v.im)]


def _spin_sum(*spins):
    return direct_sum(*(make_spin_rep(Fraction(s)) for s in spins))


@pytest.mark.parametrize("rep", [
    make_spin_rep(Fraction(1, 2)),
    _spin_sum(Fraction(1, 2), 1),
    make_point_rep(builtin("abelian(2)"), [1, 2]),
], ids=["spin 1/2", "spins 1/2+1", "abelian(2) at (1,2)"])
def test_ideal_span_matches_brute_force_enumeration(rep):
    # every product u*g, g*v and u*g*v over the whole family, level by level
    ctx = OperatorAlgebraContext(rep)
    n = rep.dim_rep
    gens = [M.scalars() for k in range(ctx.algebra.dim + 1)
            for M in (ctx.left[k][0], ctx.right[0][k])]
    family = [u.scalars() for u in ctx.family_elements()]
    levels = [
        gens,
        [reference_cmat_mul(u, g) for u in family for g in gens],
        [reference_cmat_mul(g, v) for g in gens for v in family],
        [reference_cmat_mul(reference_cmat_mul(u, g), v)
         for u in family for g in gens for v in family],
    ]
    brute = ReferenceEchelonAccumulator(2 * n * n)
    span = IdealSpan(ctx)
    for level, products in enumerate(levels):
        for M in products:
            brute.insert(_flat(M))
        span.ensure_level(level)
        assert echelon_rank(span.acc) == brute.rank, level
        assert all(brute.contains(_flat(M.scalars())) for M in span.basis_matrices), level
        assert all(span.acc.contains({j: x for j, x in enumerate(row) if x})
                   for row in brute.rows), level


def test_ideal_span_on_spins_one_and_two_is_built_from_bases(monkeypatch):
    calls = []
    insert = exactla.EchelonAccumulator.insert

    def counting_insert(self, vec):
        calls.append(len(vec))
        return insert(self, vec)

    ctx = OperatorAlgebraContext(_spin_sum(1, 2))
    monkeypatch.setattr(exactla.EchelonAccumulator, "insert", counting_insert)
    span = IdealSpan(ctx)
    span.ensure_level(3)
    assert echelon_rank(span.acc) == 68  # the rank of the full u*g*v enumeration
    # the 33 x 8 x 33 two-sided products alone would be 8712 inserts
    assert len(calls) <= 1000


def test_r_relations_read_the_stored_adjoints(monkeypatch):
    # the context checks adjoint(left[k][l]) == right[l][k] once per pair; the
    # audit reads right[l][k] and recomputes no adjoint.  The representation is
    # built first: its own skew-adjointness check takes adjoints too.
    rep = _spin_sum(Fraction(1, 2), 1)
    calls = []
    adjoint = GaussMatrix.adjoint

    def counting_adjoint(self, metric):
        calls.append(len(metric))
        return adjoint(self, metric)

    monkeypatch.setattr(GaussMatrix, "adjoint", counting_adjoint)
    ctx = OperatorAlgebraContext(rep)
    pairs = (ctx.algebra.dim + 1) ** 2
    assert len(calls) == pairs
    report = audit_r_relations(ctx)
    assert all(entry["status"] == "pass" for entry in report.values())
    assert len(calls) == pairs


def test_context_fails_closed_on_a_singular_canonical_image(monkeypatch):
    def singular(A):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(auditor, "cmat_inverse", singular)
    with pytest.raises(ContextInvalid, match="not invertible"):
        OperatorAlgebraContext(make_spin_rep(1))


def test_context_fails_closed_when_the_inverse_check_fails(monkeypatch):
    cmat_inverse = auditor.cmat_inverse
    monkeypatch.setattr(auditor, "cmat_inverse", lambda A: cmat_inverse(A).scale(2))
    with pytest.raises(ContextInvalid, match="inverse sanity check failed"):
        OperatorAlgebraContext(_spin_sum(Fraction(1, 2), 1))


def test_context_fails_closed_when_the_adjoint_exchange_rule_fails():
    # spin 1 has metric (1, 1/2, 1); for the flat metric X_2 and X_3 are not
    # skew-adjoint, so the first pair that meets them breaks the rule
    rep = make_spin_rep(1)
    rep.metric = [Fraction(1)] * rep.dim_rep
    with pytest.raises(ContextInvalid, match=r"adjoint exchange rule fails for indices \(0,2\)"):
        OperatorAlgebraContext(rep)
