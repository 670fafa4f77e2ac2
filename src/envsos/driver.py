"""Search for conjugated membership certificates.

Given a hermitean c of even degree 2m, generators f and a margin epsilon, the
search checks the two hypotheses (positive principal symbol; membership of
c - epsilon on the window of the dual), then walks conjugators s from the
power family a^n (or a user-supplied list) and degree windows D, attempting a
certificate for s* c s (m even) or for s* c' s with c' the square-sum
reduction (m odd).  The first exactly verified certificate wins; exhaustion of
the caps is an ordinary outcome, not an error.

Each exact fact is decided once.  The symbol check tries the level-0 sum of
squares before it samples when the symbol is positive on the coordinate axes:
a positive-definite exact Gram proves strict positivity, and no scan runs.
The window members' representations are built once per search and handed to
the margin proof and to every search attempt, where those that map the
target to a singular matrix restrict the Gram blocks to a face (see
sos.find_certificate).  A representation keeps the image of each element it
forms, so c - epsilon is imaged once per member for both the evidence and
the margin proof, and each target once per member however many degrees D
it tries.  An element keeps its hermitean verdict, so a target is
straightened into its star once however many members check it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NonCentralA, NotHermitean, nonnegative_int
from .exprs import render
from .gram import GramSkeleton
from .numeric import SolveOptions
from .pbw import AlgebraElement, canonical_a, conjugate_by, reduce_odd
from .reps import is_su2_standard, scan_dual_window, spin_window
# kept only so that perfbench/spans.py can wrap this name under --trace 1
from .reps import make_spin_rep  # noqa: F401
from .scalar import format_fraction
from .sos import commutative_sos, find_certificate, sample_sign_information

SCHEMA_VERSION = 1


class TheoremInstance:
    def __init__(self, algebra, c: AlgebraElement, f, epsilon: Fraction,
                 n_max: int = 2, d_max: int = 8, level_cap: int = 2,
                 ore_family=None, window=None, allow_evidence: bool = True,
                 solver: SolveOptions | None = None):
        self.algebra = algebra
        self.c = c
        self.f = list(f)
        self.epsilon = Fraction(epsilon)
        self.n_max = nonnegative_int(n_max, "n_max")
        self.d_max = nonnegative_int(d_max, "d_max")
        self.level_cap = nonnegative_int(level_cap, "level_cap")
        self.ore_family = ore_family  # None: powers of the canonical element
        self.window = window          # su(2): max spin; abelian: list of points
        if type(allow_evidence) is not bool:
            raise ValueError(f"allow_evidence must be a boolean, not {allow_evidence!r}")
        self.allow_evidence = allow_evidence
        self.solver = solver or SolveOptions()
        self._validate()

    def _validate(self):
        if not self.c.is_hermitean():
            raise NotHermitean("the target must be hermitean")
        unit = AlgebraElement.unit(self.algebra)
        if not self.f or self.f[0] != unit:
            raise ValueError("the generator list must start with the unit")
        for g in self.f:
            if not g.is_hermitean():
                raise NotHermitean("all generators must be hermitean")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        deg = self.c.degree()
        if deg is not None and deg % 2 == 1:
            raise ValueError("the target must have even degree")
        window_labels(self.algebra, self.window)

    def config_dict(self):
        return {
            "target": render(self.c),
            "generators": [render(g) for g in self.f],
            "epsilon": format_fraction(self.epsilon),
            "n_max": self.n_max,
            "d_max": self.d_max,
            "level_cap": self.level_cap,
            "ore_family": (
                "canonical_powers" if self.ore_family is None
                else [render(s) for s in self.ore_family]
            ),
            "window": _window_json(self.window),
            "allow_evidence": self.allow_evidence,
            "solver": {"tol": self.solver.tol, "seed": self.solver.seed,
                       "max_iters": self.solver.max_iters},
        }


def _window_json(window):
    if window is None:
        return None
    if isinstance(window, (int, Fraction)):
        return format_fraction(Fraction(window))
    return [[format_fraction(Fraction(v)) for v in point] for point in window]


class SearchTranscript:
    def __init__(self, status: str, config: dict, assumption_ii=None,
                 assumption_i=None, attempts=None, certificate=None, detail: str = ""):
        self.status = status  # found | exhausted | assumption-failed
        self.config = config
        self.assumption_ii = assumption_ii
        self.assumption_i = assumption_i
        self.attempts = attempts or []
        self.certificate = certificate
        self.detail = detail

    def to_json_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "config": self.config,
            "assumption_ii": self.assumption_ii,
            "assumption_i": self.assumption_i,
            "attempts": [
                {"n": n, "degree": D, "status": status} for (n, D, status) in self.attempts
            ],
        }
        if self.detail:
            out["detail"] = self.detail
        out["certificate"] = self.certificate.to_json_dict() if self.certificate else None
        return out


# -- assumption checks -------------------------------------------------------------


def check_assumption_ii(c: AlgebraElement, level_cap: int = 2,
                        opts: SolveOptions | None = None) -> dict:
    """Decide strict positivity of the principal symbol away from the origin.

    When every t_i^deg coefficient of the symbol p is positive (p(e_i) > 0,
    which strict positivity needs), the level-0 sum of squares is tried
    first: a positive-definite exact Gram over all monomials of half the
    degree proves p > 0 away from 0, and the answer is that proof with no
    sampling.  Otherwise sampling decides next; an exact negative point is a
    counterexample and an exact nontrivial zero already refutes strictness.
    Then the sphere multiplier hierarchy is tried up to the level cap, reusing
    the level-0 report when there is one; a positive-definite exact Gram
    upgrades the verdict to a strictness proof.  The answer is the one that
    sampling first would give: the solver reads no sample, and a proven
    strictly positive symbol has no negative point or nontrivial zero.
    """
    opts = opts or SolveOptions()
    deg = c.degree()
    if deg is None or deg == 0:
        return {"status": "degenerate", "detail": "constant target has no symbol condition"}
    symbol = c.principal_symbol(deg)
    reports = {}  # level: the report of commutative_sos at that level, once solved
    if _positive_on_axes(symbol, deg):
        reports[0] = commutative_sos(symbol, 0, opts=opts, presampled=(None, []))
        if _strict(reports[0]):
            return _certified(symbol, 0, strict_proof=True)
    negative, zeros = sample_sign_information(symbol, seed=opts.seed)
    if negative is not None:
        return {
            "status": "counterexample",
            "point": [format_fraction(v) for v in negative],
            "value": format_fraction(symbol.evaluate(negative)),
        }
    if zeros:
        return {
            "status": "not-strictly-positive",
            "point": [format_fraction(v) for v in zeros[0]],
            "detail": "symbol vanishes at a nonzero point",
        }
    for level in range(level_cap + 1):
        report = reports.get(level) or commutative_sos(symbol, level, opts=opts,
                                                       presampled=(None, []))
        if report.status == "certificate":
            return _certified(symbol, level, strict_proof=_strict(report))
    return {"status": "inconclusive", "detail": f"no certificate up to level {level_cap}"}


def _positive_on_axes(symbol, deg: int) -> bool:
    """p(e_i) > 0 for every unit vector e_i: each t_i^deg coefficient is positive."""
    n = symbol.nvars
    return all(symbol.coeffs.get(tuple(deg if j == i else 0 for j in range(n)), 0) > 0
               for i in range(n))


def _strict(report) -> bool:
    """True when report is a certificate whose exact Gram is positive definite."""
    return report.status == "certificate" and report.certificate.factors[0].is_positive_definite()


def _certified(symbol, level: int, strict_proof: bool) -> dict:
    return {"status": "certified-positive", "level": level, "strict_proof": strict_proof,
            "symbol": symbol.render()}


def window_labels(algebra, window):
    """The labels of the algebra's dual window to scan, or None when it has no window.

    An abelian algebra takes points (by default a small rational grid around
    the origin) and standard su(2) a spin window l_max (by default 3); a
    window of the other kind, or any window on another algebra, is a ValueError.
    """
    spins = isinstance(window, (int, Fraction))
    if algebra.is_abelian():
        if spins:
            raise ValueError("an abelian algebra takes window points, not a spin window (l_max)")
        if window is not None:
            return window
        vals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        if algebra.dim == 1:
            return [(v,) for v in vals]
        return list(itertools.product(vals[:3], repeat=algebra.dim))
    if is_su2_standard(algebra):
        if window is not None and not spins:
            raise ValueError("su(2) takes a spin window (l_max), not window points")
        return spin_window(Fraction(3) if window is None else window)
    if window is not None:
        raise ValueError("this algebra has no concrete dual window; give neither l_max "
                         "nor window_points")
    return None


def window_members(algebra, f, window=None):
    """{label: rep} for the members of the window's semialgebraic dual set.

    Members are the labels of window_labels whose representation maps every
    generator to a PSD matrix (decided exactly by scan_dual_window).  None
    when the algebra has no concrete dual window.
    """
    labels = window_labels(algebra, window)
    if labels is None:
        return None
    scan = scan_dual_window(algebra, f, labels)
    return {label: scan.reps[label] for label in scan.members()}


def check_assumption_i(c: AlgebraElement, f, epsilon: Fraction, window=None,
                       opts: SolveOptions | None = None, attempt_proof: bool = True,
                       members=None, skeletons=None) -> dict:
    """Necessary evidence plus an optional direct proof for c - eps membership.

    Evidence: on every window member of the semialgebraic dual set, the image
    of c - eps*1 must be positive semidefinite (exact check).  Proof: a direct
    certificate attempt for c - eps*1 at the smallest even window covering its
    degree.  Members whose image of c - eps*1 has a kernel restrict the Gram
    blocks of that attempt to the face every certificate lies on, which is
    what lets a target such as su(2)'s a^2 - 1 (zero on spin 0) converge.
    The report labels which of the two was achieved.  `members` is
    window_members(algebra, f, window) when the caller already has it, and
    `skeletons` the caller's {degree: GramSkeleton} cache for (algebra, f),
    which the proof attempt reads and fills.
    """
    opts = opts or SolveOptions()
    algebra = c.algebra
    shifted = c - AlgebraElement.unit(algebra, epsilon)
    if members is None:
        members = window_members(algebra, f, window)
    if members is None:
        # no concrete dual window exists for this algebra; only a proof can help
        out = {"members": [], "evidence": "unavailable", "failures": {}}
        fallback = "unavailable"
        members = {}
    else:
        failures = {}
        for label, rep in members.items():
            verdict = rep.is_positive(shifted)
            if not verdict:
                failures[label] = {
                    "value": format_fraction(verdict.witness_value),
                }
        out = {
            "members": list(members),
            "evidence": "fail" if failures else "pass",
            "failures": failures,
        }
        fallback = "failed" if failures else "evidence"
    if fallback != "failed" and attempt_proof:
        deg = shifted.degree() or 0
        degree = deg + (deg % 2)
        proof = find_certificate(shifted, f, degree, opts=opts,
                                 skeleton=_skeleton(skeletons, algebra, f, degree),
                                 reps=list(members.values()))
        if proof.status == "certificate":
            out["label"] = "proof"
            out["proof_degree"] = degree
            return out
        out["proof_attempt"] = proof.status
    out["label"] = fallback
    return out


def _skeleton(skeletons, algebra, f, degree: int) -> GramSkeleton:
    """The skeleton of (algebra, f) at degree, from the cache when it has one."""
    if skeletons is None:
        return GramSkeleton(algebra, f, degree)
    if degree not in skeletons:
        skeletons[degree] = GramSkeleton(algebra, f, degree)
    return skeletons[degree]


# -- the search --------------------------------------------------------------------


def search_certificate(inst: TheoremInstance) -> SearchTranscript:
    config = inst.config_dict()
    algebra = inst.algebra
    deg = inst.c.degree()

    # constants bypass the symbol machinery: direct sign / trivial certificate
    if deg is None or deg == 0:
        lam = inst.c.coefficient((0,) * algebra.dim)
        if deg is not None and lam.re > 0:
            report = find_certificate(inst.c, inst.f, 0, opts=inst.solver)
            status = "found" if report.status == "certificate" else "exhausted"
            return SearchTranscript(status, config,
                                    assumption_ii={"status": "degenerate-constant"},
                                    assumption_i={"label": "degenerate-constant"},
                                    attempts=[(0, 0, report.status)],
                                    certificate=report.certificate,
                                    detail="constant target handled by direct sign check")
        return SearchTranscript("assumption-failed", config,
                                assumption_ii={"status": "degenerate-constant"},
                                detail="constant target is not strictly positive")

    m = deg // 2
    # conjugator family
    if inst.ore_family is None:
        a = canonical_a(algebra)
        if not a.is_central():
            raise NonCentralA()
        family = [a ** n for n in range(inst.n_max + 1)]
    else:
        family = list(inst.ore_family)[: inst.n_max + 1]

    # both hypotheses are always checked and reported, even if the first fails
    verdict_ii = check_assumption_ii(inst.c, level_cap=inst.level_cap, opts=inst.solver)
    ii_failed = verdict_ii["status"] in ("counterexample", "not-strictly-positive")
    members = window_members(algebra, inst.f, inst.window)
    # one skeleton per degree, shared by the margin proof and every attempt
    skeletons: dict[int, GramSkeleton] = {}
    verdict_i = check_assumption_i(inst.c, inst.f, inst.epsilon, window=inst.window,
                                   opts=inst.solver, attempt_proof=not ii_failed,
                                   members=members, skeletons=skeletons)
    if ii_failed:
        return SearchTranscript("assumption-failed", config, assumption_ii=verdict_ii,
                                assumption_i=verdict_i,
                                detail="principal symbol is not strictly positive")
    if verdict_i["label"] == "failed":
        return SearchTranscript("assumption-failed", config, assumption_ii=verdict_ii,
                                assumption_i=verdict_i,
                                detail="window evidence refutes the margin hypothesis")
    if verdict_i["label"] in ("evidence", "unavailable") and not inst.allow_evidence:
        return SearchTranscript("assumption-failed", config, assumption_ii=verdict_ii,
                                assumption_i=verdict_i,
                                detail="no direct proof of the margin hypothesis and "
                                       "evidence alone was not accepted")

    base = inst.c if m % 2 == 0 else reduce_odd(inst.c)
    window_reps = list((members or {}).values())
    attempts = []
    certificate = None
    for n, s in enumerate(family):
        target = conjugate_by(s, base)
        tdeg = target.degree() or 0
        start = tdeg + (tdeg % 2)
        for D in range(start, inst.d_max + 1, 2):
            report = find_certificate(target, inst.f, D, opts=inst.solver,
                                      skeleton=_skeleton(skeletons, algebra, inst.f, D),
                                      reps=window_reps)
            attempts.append((n, D, report.status))
            if report.status == "certificate":
                certificate = report.certificate
                break
        if certificate is not None:
            break
    status = "found" if certificate is not None else "exhausted"
    return SearchTranscript(status, config, assumption_ii=verdict_ii,
                            assumption_i=verdict_i, attempts=attempts,
                            certificate=certificate)
