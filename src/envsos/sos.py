"""End-to-end membership pipeline: build, solve, round, verify.

find_certificate builds the Gram problem of one (target, generators, degree)
instance.  Given exact representations (the driver passes the members of
the dual window), it first derives the vectors every Gram certificate must
annihilate from those that map the target to a singular matrix, reading the
images each representation keeps, and restricts the problem to that face;
without such a vector the problem is unreduced.
commutative_sos builds the one of a level of the sphere multiplier
hierarchy for homogeneous polynomials, with grid sampling first: a negative
sample point settles the question before any solver work, and exact zeros
found by sampling become kernel constraints that make boundary Gram matrices
roundable.  Sampling stays exact: the sign at each rational point is the sign
of an integer computed by CommutativePoly's integer evaluation kernel.  Both
hand their problem to one tail: the numeric solver, then the exact rounding
gate of certs.round_and_verify, then a FeasibilityReport.
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
from .errors import nonnegative_int
from .exactla import GaussMatrix, nullspace
from .gram import CommGramProblem, GramSkeleton
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
                     skeleton: GramSkeleton | None = None,
                     reps=()) -> FeasibilityReport:
    """Attempt an exactly verified weighted SOS certificate for c at degree D.

    `reps` are exact representations, typically the members of a dual
    window.  Where one maps c to a matrix with a kernel, the vectors of
    forced_face_vectors restrict each Gram block to the face that every
    certificate must lie on, and the search and the rounding run there.  With
    no such vector the problem is the unreduced one.
    """
    if skeleton is None:
        skeleton = GramSkeleton(c.algebra, f, degree)
    forced = forced_face_vectors(c, f, skeleton.bases, reps)
    faces = [nullspace(GaussMatrix.from_scalars(z), len(basis)) if z else None
             for z, basis in zip(forced, skeleton.bases)]
    return _solve_and_round(skeleton.problem_for(c, faces), opts)


def forced_face_vectors(c: AlgebraElement, f, bases, reps):
    """Per block l, exact vectors z with G_l z = 0 for every Gram certificate of c.

    A representation pi is used only when it maps c to a matrix with a kernel
    and every pi(f_l) is PSD (decided exactly, on the images pi keeps, so c
    is imaged once per pi at every degree).  For v in that kernel, with S
    the metric, H_l = S pi(f_l) and U_l the matrix whose column q is
    pi(w_q) v over the basis of block l,

        0 = <pi(c) v, v>_S = sum_l sum_pq (G_l)_pq (pi(w_p) v)^H H_l (pi(w_q) v),

    a sum of traces of products of PSD matrices, so every term vanishes and
    G_l annihilates each row of H_l U_l.  Zero rows are left out.
    """
    forced = [[] for _ in bases]
    for rep in reps:
        K = nullspace(rep.image(c), rep.dim_rep)
        if not K.re or not all(rep.is_positive(g) for g in f):
            continue
        kernel = [GaussMatrix([[x] for x in re], [[y] for y in im], K.den)
                  for re, im in zip(K.re, K.im)]
        for gen, basis, vectors in zip(f, bases, forced):
            H = rep.weighted_matrix(gen)
            HW = [H @ rep.image(AlgebraElement.monomial(c.algebra, w)) for w in basis]
            for v in kernel:
                columns = [(M @ v).scalars() for M in HW]  # column q of H_l U_l
                HU = ([col[j][0] for col in columns] for j in range(rep.dim_rep))
                vectors.extend(z for z in HU if any(z))
    return forced


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


def _sample_points(nvars: int, seed: int = 0):
    """Structured rational points plus 200 seeded random directions."""
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
    for _ in range(200):
        v = rng.standard_normal(nvars)
        v = v / max(np.max(np.abs(v)), 1e-12)
        pts.append(tuple(Fraction(float(x)).limit_denominator(64) for x in v))
    return pts


def sample_sign_information(p: CommutativePoly, seed: int = 0):
    """Exact sign scan: returns (negative_point | None, verified_zero_points).

    All candidate points are rational and each sign is read exactly from the
    integer kernel of CommutativePoly (no Fraction value is formed), so each
    verdict is exact; only the candidate generation is heuristic.  Points are
    scanned one at a time in generation order, repeats skipped.
    """
    zeros = []
    seen = set()
    for t in _sample_points(p.nvars, seed=seed):
        if t in seen:
            continue
        seen.add(t)
        sign = p.sign_at(t)
        if sign < 0:
            return t, zeros
        if sign == 0 and any(t):
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
    level = nonnegative_int(level, "level")
    if not p.is_homogeneous():
        raise ValueError("the multiplier hierarchy expects a homogeneous polynomial")
    if p.is_zero():
        # the empty Gram certifies 0; verifying it stores its (empty) LDL factor
        cert = CommutativeSosCertificate(p, level, [], GaussMatrix.zero(0))
        if verify_commutative_certificate(cert, p):
            return FeasibilityReport("certificate", certificate=cert)
        return FeasibilityReport("inconclusive", detail="the zero form's empty Gram did not verify")
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
