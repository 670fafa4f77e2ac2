import json
from fractions import Fraction

import pytest

from envsos.certs import verify_certificate
from envsos.driver import (
    TheoremInstance,
    check_assumption_i,
    check_assumption_ii,
    search_certificate,
)
from envsos.errors import NonCentralA, NotHermitean
from envsos.exprs import parse
from envsos.gram import GramSkeleton
from envsos.lie import builtin
from envsos.numeric import SolveOptions
from envsos.pbw import AlgebraElement, canonical_a, conjugate_by, reduce_odd
from envsos.poly import CommutativePoly
from envsos.scalar import Scalar


def test_assumption_ii_square_of_casimir(su2):
    a = canonical_a(su2)
    verdict = check_assumption_ii(a * a)
    assert verdict["status"] == "certified-positive"
    assert verdict["level"] == 0
    assert verdict["strict_proof"]


def test_assumption_ii_counterexample(su2):
    verdict = check_assumption_ii(canonical_a(su2))
    assert verdict["status"] == "counterexample"


def test_assumption_ii_boundary_symbol():
    # element of abelian(3) whose symbol is the Motzkin form: zeros, not strict
    ab = builtin("abelian(3)")
    motzkin = {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1}
    sign = Fraction(-1) ** 3  # degree 6, so the hermitean lift carries (-1)^m
    c = AlgebraElement(ab, {m: Scalar(sign * v) for m, v in motzkin.items()})
    assert c.is_hermitean()
    sym = c.principal_symbol(6)
    assert sym == CommutativePoly(3, {m: sign * v for m, v in motzkin.items()})
    verdict = check_assumption_ii(c.scale(sign))  # flip so the symbol is Motzkin itself
    assert verdict["status"] == "not-strictly-positive"


def test_assumption_i_evidence_passes(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    out = check_assumption_i(a * a, [unit], Fraction(1), window=Fraction(3),
                             attempt_proof=False)
    assert out["evidence"] == "pass"
    assert out["label"] == "evidence"


def test_assumption_i_fails_for_zero_target(su2):
    unit = AlgebraElement.unit(su2)
    out = check_assumption_i(AlgebraElement.zero(su2), [unit], Fraction(1),
                             window=Fraction(2), attempt_proof=False)
    assert out["label"] == "failed"
    assert "0" in out["failures"]


def test_assumption_i_proof_for_canonical_shift(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    out = check_assumption_i(a, [unit], Fraction(1), window=Fraction(3))
    assert out["label"] == "proof"


def test_assumption_i_proof_for_a_squared_margin(su2):
    # a^2 - 1 is zero on spin 0, so only the face without the constant monomial is feasible
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    out = check_assumption_i(a * a, [unit], 1, window=3)
    assert out["label"] == "proof"
    assert out["proof_degree"] == 4
    assert "proof_attempt" not in out


def test_theorem_instance_validation(su2):
    unit = AlgebraElement.unit(su2)
    x1 = AlgebraElement.generator(su2, 0)
    with pytest.raises(NotHermitean):
        TheoremInstance(su2, x1, [unit], Fraction(1))
    with pytest.raises(ValueError):
        TheoremInstance(su2, canonical_a(su2), [], Fraction(1))
    with pytest.raises(ValueError):
        TheoremInstance(su2, canonical_a(su2), [unit], Fraction(-1))


def test_search_a_squared_succeeds(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    inst = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=2, d_max=8,
                           solver=SolveOptions(seed=3))
    transcript = search_certificate(inst)
    assert transcript.status == "found"
    assert transcript.attempts[-1][:2] == (0, 4)
    # exact re-verification against the independently recomputed target
    target = conjugate_by(AlgebraElement.unit(su2), a * a)
    assert verify_certificate(transcript.certificate, target, [unit])


def test_search_exhausts_small_caps(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    inst = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=0, d_max=2)
    transcript = search_certificate(inst)
    assert transcript.status == "exhausted"
    assert transcript.attempts == []


def test_search_refuses_symbol_counterexample(su2):
    unit = AlgebraElement.unit(su2)
    inst = TheoremInstance(su2, canonical_a(su2), [unit], Fraction(1))
    transcript = search_certificate(inst)
    assert transcript.status == "assumption-failed"
    assert transcript.assumption_ii["status"] == "counterexample"
    # window evidence is still reported alongside
    assert transcript.assumption_i is not None


def test_search_refuses_window_failure(su2):
    unit = AlgebraElement.unit(su2)
    c = parse("H^2 - 1", su2, aliases={"H": "-i*x1"})
    inst = TheoremInstance(su2, c, [unit], Fraction(1, 2), window=Fraction(2))
    transcript = search_certificate(inst)
    assert transcript.status == "assumption-failed"
    assert transcript.assumption_i["label"] == "failed"
    assert "0" in transcript.assumption_i["failures"]


def test_noncentral_power_family_rejected():
    aff = builtin("affine_line")
    unit = AlgebraElement.unit(aff)
    x1 = AlgebraElement.generator(aff, 0)
    c = unit - x1 * x1  # hermitean of degree 2 with positive symbol t1^2... sign:
    c = AlgebraElement.unit(aff) + x1.star() * x1  # 1 - x1^2, strictly positive symbol
    inst = TheoremInstance(aff, c, [unit], Fraction(1, 2))
    with pytest.raises(NonCentralA):
        search_certificate(inst)


def test_explicit_conjugator_family():
    # no dual window exists for the affine algebra: evidence is reported as
    # unavailable and the search still runs over the supplied conjugators
    aff = builtin("affine_line")
    unit = AlgebraElement.unit(aff)
    a = canonical_a(aff)
    inst = TheoremInstance(aff, a * a, [unit], Fraction(1, 2),
                           ore_family=[unit], n_max=0, d_max=4,
                           solver=SolveOptions(seed=9))
    transcript = search_certificate(inst)
    assert transcript.assumption_i["evidence"] == "unavailable"
    assert transcript.status in ("found", "exhausted")
    assert transcript.attempts and transcript.attempts[0][:2] == (0, 4)
    if transcript.certificate is not None:
        assert verify_certificate(transcript.certificate, a * a, [unit])


def test_constant_targets(su2):
    unit = AlgebraElement.unit(su2)
    pos = TheoremInstance(su2, AlgebraElement.unit(su2, 2), [unit], Fraction(1))
    out = search_certificate(pos)
    assert out.status == "found"
    neg = TheoremInstance(su2, AlgebraElement.unit(su2, -1), [unit], Fraction(1))
    assert search_certificate(neg).status == "assumption-failed"


def test_reduce_odd_branch_planted(su2):
    # m = 1 is odd; the generator -(a-1)^2 pins the dual set to the trivial
    # class, and the reduction (8-a)a = -(a-1)^2 + 6a + 1 is a planted member
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    c = AlgebraElement.unit(su2, 8) - a
    f2 = -((a - unit) * (a - unit))
    cprime = reduce_odd(c)
    assert cprime == (AlgebraElement.unit(su2, 8) - a) * a
    assert cprime == f2 + a.scale(6) + unit
    inst = TheoremInstance(su2, c, [unit, f2], Fraction(1, 2), n_max=1, d_max=4,
                           window=Fraction(2), solver=SolveOptions(seed=5))
    transcript = search_certificate(inst)
    assert transcript.status == "found"
    assert transcript.assumption_i["members"] == ["0"]
    n, D, _ = transcript.attempts[-1]
    expected_target = conjugate_by(a ** n, cprime)
    assert verify_certificate(transcript.certificate, expected_target, [unit, f2])


def test_theorem_run_builds_one_skeleton_per_degree(su2, monkeypatch):
    # criterion 12's run: the a^2 - 1 margin proof and the search both work at D=4
    degrees = []
    init = GramSkeleton.__init__

    def counting_init(self, algebra, generators, degree):
        degrees.append(degree)
        init(self, algebra, generators, degree)

    monkeypatch.setattr(GramSkeleton, "__init__", counting_init)
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    inst = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=2, d_max=8,
                           window=Fraction(3), solver=SolveOptions(seed=12))
    transcript = search_certificate(inst)
    assert transcript.status == "found"
    assert transcript.assumption_i["label"] == "proof"
    assert degrees == [4]


def test_transcript_determinism(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)

    def run():
        inst = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=1, d_max=6,
                               solver=SolveOptions(seed=11))
        return json.dumps(search_certificate(inst).to_json_dict(), indent=2, sort_keys=True)

    assert run() == run()


def test_monotone_caps(su2):
    a = canonical_a(su2)
    unit = AlgebraElement.unit(su2)
    small = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=0, d_max=4,
                            solver=SolveOptions(seed=2))
    big = TheoremInstance(su2, a * a, [unit], Fraction(1), n_max=2, d_max=8,
                          solver=SolveOptions(seed=2))
    t_small = search_certificate(small)
    t_big = search_certificate(big)
    assert t_small.status == "found" and t_big.status == "found"
    assert t_big.attempts[-1][:2] <= t_small.attempts[-1][:2]
