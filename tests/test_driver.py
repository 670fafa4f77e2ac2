import json
import math
from fractions import Fraction

import pytest

from envsos import driver
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
from envsos.reps import FiniteDimRep
from envsos.scalar import Scalar

from oracles import reference_check_assumption_ii


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


def _abelian3(form):
    """The abelian(3) element with the coefficients of form; its symbol is form."""
    return AlgebraElement(builtin("abelian(3)"), {m: Scalar(v) for m, v in form.items()})


MOTZKIN = {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1}
# (t1^2+t2^2+t3^2)^3 / 100: added to the Motzkin form it is strictly positive
CUBED_NORM = {(2 * i, 2 * j, 6 - 2 * i - 2 * j): Fraction(6, 100 * math.factorial(i)
              * math.factorial(j) * math.factorial(3 - i - j))
              for i in range(4) for j in range(4 - i)}
PERTURBED_MOTZKIN = {m: MOTZKIN.get(m, 0) + CUBED_NORM.get(m, 0) for m in {*MOTZKIN, *CUBED_NORM}}
SU2_A = canonical_a(builtin("su2"))
# name: (target, level_cap, status).  The symbols of both certified cases, of the indefinite
# quartic and of the perturbed Motzkin form are positive on the axes: they solve level 0 first
SYMBOL_CASES = {
    "su2 a^2": (SU2_A * SU2_A, 2, "certified-positive"),
    "(t1^2+t2^2+t3^2)^2": (_abelian3({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 2,
                                      (2, 0, 2): 2, (0, 2, 2): 2}), 2, "certified-positive"),
    "su2 a": (SU2_A, 2, "counterexample"),
    "t1^4+t2^4+t3^4-3t1^2t2^2": (_abelian3({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
                                            (2, 2, 0): -3}), 2, "counterexample"),
    "motzkin": (_abelian3(MOTZKIN), 2, "not-strictly-positive"),
    "t1^2t2^2": (_abelian3({(2, 2, 0): 1}), 2, "not-strictly-positive"),
    "perturbed motzkin, level cap 0": (_abelian3(PERTURBED_MOTZKIN), 0, "inconclusive"),
}


@pytest.mark.parametrize("name", list(SYMBOL_CASES))
def test_assumption_ii_agrees_with_the_scan_first_order(name):
    c, level_cap, status = SYMBOL_CASES[name]
    opts = SolveOptions(seed=4)
    verdict = check_assumption_ii(c, level_cap=level_cap, opts=opts)
    assert verdict == reference_check_assumption_ii(c, level_cap=level_cap, opts=opts)
    assert verdict["status"] == status


def test_criterion_12_symbol_is_proved_without_sampling(su2, monkeypatch):
    samples, levels = [], []
    sample, solve = driver.sample_sign_information, driver.commutative_sos

    def counting_sample(*args, **kwargs):
        samples.append(args)
        return sample(*args, **kwargs)

    def counting_solve(p, level=0, **kwargs):
        levels.append(level)
        return solve(p, level, **kwargs)

    monkeypatch.setattr(driver, "sample_sign_information", counting_sample)
    monkeypatch.setattr(driver, "commutative_sos", counting_solve)
    a = canonical_a(su2)
    inst = TheoremInstance(su2, a * a, [AlgebraElement.unit(su2)], Fraction(1), n_max=2,
                           d_max=8, window=Fraction(3), solver=SolveOptions(seed=12))
    transcript = search_certificate(inst)
    assert transcript.status == "found"
    assert transcript.assumption_ii["level"] == 0 and transcript.assumption_ii["strict_proof"]
    assert samples == [] and levels == [0]


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


def test_search_images_each_target_once_per_member(su2, monkeypatch):
    # with no solver iterations the target (a - 1)^2 + 1 walks D = 4 and D = 6 uncertified
    unit = AlgebraElement.unit(su2)
    target = (canonical_a(su2) - unit) * (canonical_a(su2) - unit) + unit
    images = []  # the images of the target actually formed: misses of the kept images
    image = FiniteDimRep.image

    def counting_image(self, e):
        if e == target and e not in self._images:
            images.append(self.label)
        return image(self, e)

    monkeypatch.setattr(FiniteDimRep, "image", counting_image)
    inst = TheoremInstance(su2, target, [unit], Fraction(1, 4), n_max=0, d_max=6,
                           window=Fraction(3), solver=SolveOptions(max_iters=0))
    transcript = search_certificate(inst)
    assert transcript.status == "exhausted"
    assert [(n, D) for n, D, _ in transcript.attempts] == [(0, 4), (0, 6)]
    assert len(transcript.assumption_i["members"]) == 7
    assert sorted(images) == sorted(f"spin {label}" for label in transcript.assumption_i["members"])
