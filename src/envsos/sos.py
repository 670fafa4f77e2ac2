"""End-to-end membership pipeline: build, solve, round, verify.

find_certificate builds the Gram problem of one (target, generators, degree)
instance; commutative_sos builds the one of a level of the sphere multiplier
hierarchy for homogeneous polynomials, with grid sampling first: a negative
sample point settles the question before any solver work, and exact zeros
found by sampling become kernel constraints that make boundary Gram matrices
roundable.  Both hand their problem to one tail: the numeric solver, then the
exact rounding gate of certs.round_and_verify, then a FeasibilityReport.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .certs import (
    CommutativeSosCertificate,
    RoundingFailed,
    round_and_verify,
    verify_commutative_certificate,
)
from .gram import CommGramProblem, GramSkeleton, build_gram_problem
from .numeric import NumericOutcome, SolveOptions, solve_feasibility
from .pbw import AlgebraElement
from .poly import CommutativePoly

# perfbench/spans.py still wraps this name when tracing the commutative path
round_and_verify_commutative = round_and_verify


class FeasibilityReport:
    """Outcome of one membership attempt.

    status: 'certificate' | 'numeric-infeasible-evidence' | 'inconclusive'
            | 'not-positive' (commutative mode only, sample witness attached)
    """

    def __init__(self, status: str, certificate=None, numeric: NumericOutcome | None = None,
                 witness_point=None, detail: str = ""):
        self.status = status
        self.certificate = certificate
        self.numeric = numeric
        self.witness_point = witness_point
        self.detail = detail

    def to_json_dict(self):
        out = {"status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.numeric is not None:
            out["numeric"] = self.numeric.report_dict()
        if self.witness_point is not None:
            out["witness_point"] = [str(v) for v in self.witness_point]
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        return out


def find_certificate(c: AlgebraElement, f, degree: int,
                     opts: SolveOptions | None = None,
                     skeleton: GramSkeleton | None = None) -> FeasibilityReport:
    """Attempt an exactly verified weighted SOS certificate for c at degree D."""
    return _solve_and_round(build_gram_problem(c, f, degree, skeleton=skeleton), opts)


def _solve_and_round(problem, opts: SolveOptions | None) -> FeasibilityReport:
    """The shared tail: numeric search, exact rounding gate, report."""
    outcome = solve_feasibility(problem, opts)
    if outcome.status == "candidate":
        try:
            cert = round_and_verify(problem, outcome.g)
            return FeasibilityReport("certificate", certificate=cert, numeric=outcome)
        except RoundingFailed as exc:
            return FeasibilityReport("inconclusive", numeric=outcome, detail=str(exc))
    if outcome.status == "infeasible-evidence":
        return FeasibilityReport("numeric-infeasible-evidence", numeric=outcome)
    return FeasibilityReport("inconclusive", numeric=outcome)


# -- commutative positivity -------------------------------------------------------


def _sample_points(nvars: int, seed: int = 0, random_count: int = 200):
    """Structured rational points plus seeded random directions."""
    pts = []
    small = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)]
    if nvars <= 4:
        for combo in itertools.product(small, repeat=nvars):
            if any(combo):
                pts.append(combo)
    else:
        for i in range(nvars):
            e = [Fraction(0)] * nvars
            e[i] = Fraction(1)
            pts.append(tuple(e))
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        v = rng.standard_normal(nvars)
        v = v / max(np.max(np.abs(v)), 1e-12)
        pts.append(tuple(Fraction(float(x)).limit_denominator(64) for x in v))
    return pts


def sample_sign_information(p: CommutativePoly, seed: int = 0):
    """Exact sign scan: returns (negative_point | None, verified_zero_points).

    All candidate points are rational, so each verdict is exact; only the
    candidate generation is heuristic.
    """
    zeros = []
    seen = set()
    for t in _sample_points(p.nvars, seed=seed):
        if t in seen:
            continue
        seen.add(t)
        v = p.evaluate(t)
        if v < 0:
            return t, zeros
        if v == 0 and any(t):
            zeros.append(t)
    return None, zeros


def commutative_sos(p: CommutativePoly, level: int = 0,
                    opts: SolveOptions | None = None,
                    presampled=None) -> FeasibilityReport:
    """Test whether (t_1^2+...+t_d^2)^level * p is an exact sum of squares.

    A certificate at any level proves p >= 0 everywhere (and > 0 away from 0
    when the Gram matrix is positive definite); sampling runs first and a
    negative point short-circuits the hierarchy.
    """
    if not p.is_homogeneous():
        raise ValueError("the multiplier hierarchy expects a homogeneous polynomial")
    if p.is_zero():
        # the empty Gram certifies 0; verifying it stores its (empty) LDL factor
        cert = CommutativeSosCertificate(p, level, [], [])
        verify_commutative_certificate(cert, p)
        return FeasibilityReport("certificate", certificate=cert)
    if p.degree() % 2:
        return FeasibilityReport("not-positive", detail="odd degree cannot be a sum of squares")
    opts = opts or SolveOptions()
    if presampled is None:
        negative, zeros = sample_sign_information(p, seed=opts.seed)
    else:
        negative, zeros = presampled
    if negative is not None:
        return FeasibilityReport("not-positive", witness_point=negative,
                                 detail="sampled point with negative value")
    return _solve_and_round(CommGramProblem(p, kernel_points=zeros, level=level), opts)
