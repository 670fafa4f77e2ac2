"""Exact certificates and the rounding layer that produces them.

Two certificate kinds share one pipeline.  A weighted certificate stores, per
generator block, the monomial basis and an exact Hermitian PSD Gram matrix; a
commutative one stores one real symmetric Gram over the monomials of a form.
round_and_verify is the only path that emits either kind, so nothing
unverified ever escapes.

Rounding follows Peyrl & Parrilo: snap the numeric Gram entries to rationals
with denominator 2^k, project exactly onto the affine constraint subspace,
take the exact blocks from the problem and gate on the verifier; k escalates
until success or exhaustion.

The two verifiers differ only in how they re-expand a certificate.  They share
one block check (square shapes, Hermitian entries, then an exact LDL of every
block before any re-expansion), which always factors the certificate's
current Gram blocks and never reads factors stored on it.  On success the
verifier stores those fresh factors as the certificate's LDL witness, so each
block is factored once per stage: once on emission, none on loading, once on
re-verification.
"""

from __future__ import annotations

from fractions import Fraction

from . import lie
from .errors import CertificateFormatError
from .exactla import ldl_hermitian
from .exprs import parse, render
from .gram import CommGramProblem
from .pbw import AlgebraElement
from .poly import CommutativePoly
from .scalar import Scalar, format_fraction, format_scalar, parse_scalar

SCHEMA_VERSION = 1
ROUNDING_EXPONENTS = (10, 20, 30, 40, 50, 60)


class WeightedSosCertificate:
    def __init__(self, algebra, degree, target, generators, bases, grams, ldl_results=None):
        self.algebra = algebra
        self.degree = degree
        self.target = target
        self.generators = list(generators)
        self.bases = [list(b) for b in bases]
        self.grams = grams
        self.ldl_results = ldl_results

    def to_json_dict(self) -> dict:
        blocks = []
        for bidx, (basis, gram, ldl) in enumerate(
            zip(self.bases, self.grams, self.ldl_results)
        ):
            blocks.append(
                {
                    "l": bidx + 1,
                    "basis": [_render_monomial_text(self.algebra, m) for m in basis],
                    "gram": [[format_scalar(v) for v in row] for row in gram],
                    "ldl_witness": _ldl_to_json(ldl),
                }
            )
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "weighted_sos",
            "degree": self.degree,
            "algebra": lie.to_json_dict(self.algebra),
            "target": render(self.target),
            "generators": [render(g) for g in self.generators],
            "blocks": blocks,
        }


class CommutativeSosCertificate:
    def __init__(self, target: CommutativePoly, level: int, basis, gram, ldl=None):
        self.target = target          # the polynomial actually decomposed
        self.level = level
        self.basis = list(basis)
        self.gram = gram
        self.ldl = ldl

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "commutative_sos",
            "level": self.level,
            "nvars": self.target.nvars,
            "target": self.target.render(),
            "target_coeffs": _poly_to_json(self.target),
            "basis": [list(m) for m in self.basis],
            "gram": [[format_scalar(v) for v in row] for row in self.gram],
            "ldl_witness": _ldl_to_json(self.ldl),
        }


def _ldl_to_json(ldl) -> dict:
    return {
        "perm": list(ldl.perm),
        "diag": [format_fraction(d) for d in ldl.diag],
        "lower": [[format_scalar(v) for v in row] for row in ldl.lower],
    }


def _poly_to_json(p: CommutativePoly):
    return [
        {"exponents": list(m), "coeff": format_fraction(q)}
        for m, q in sorted(p.coeffs.items())
    ]


def _poly_from_json(nvars, entries) -> CommutativePoly:
    return CommutativePoly(
        nvars, {tuple(e["exponents"]): Fraction(e["coeff"]) for e in entries}
    )


def _render_monomial_text(algebra, mono) -> str:
    if not any(mono):
        return "1"
    parts = []
    for idx, e in enumerate(mono):
        if e == 1:
            parts.append(algebra.names[idx])
        elif e > 1:
            parts.append(f"{algebra.names[idx]}^{e}")
    return "*".join(parts)


# -- rounding ---------------------------------------------------------------------


class RoundingFailed(Exception):
    pass


def _round_vector(g, k: int):
    scale = 1 << k
    return [Fraction(round(float(x) * scale), scale) for x in g]


def round_and_verify(problem, g_numeric, exponents=ROUNDING_EXPONENTS):
    """Turn a numeric Gram candidate into an exact verified certificate.

    An SdpProblem yields a WeightedSosCertificate and a CommGramProblem a
    CommutativeSosCertificate; the verifier's factors become its LDL witness.
    Raises RoundingFailed when no denominator 2^k in the schedule produces an
    exactly feasible PSD point.
    """
    for k in exponents:
        g = problem.system.project_exact(_round_vector(g_numeric, k))
        if any(r != 0 for r in problem.system.residual_exact(g)):
            continue  # inconsistent system cannot round (caught earlier anyway)
        blocks = problem.gram_blocks_exact(g)
        if isinstance(problem, CommGramProblem):
            cert = CommutativeSosCertificate(problem.target, problem.level, problem.basis,
                                             blocks[0])
            if verify_commutative_certificate(cert, problem.target):
                return cert
        else:
            cert = WeightedSosCertificate(problem.algebra, problem.degree, problem.target,
                                          problem.generators, problem.skeleton.bases, blocks)
            if verify_certificate(cert, problem.target, problem.generators):
                return cert
    raise RoundingFailed("no dyadic rounding produced an exact PSD solution")


# -- verification ------------------------------------------------------------------


def _block_factors(grams, sizes):
    """Exact LDL factors of every block, or None when a block is malformed or not PSD.

    Checks square shapes and Hermitian entries first, then factors each
    block from scratch.
    """
    if len(grams) != len(sizes):
        return None
    for gram, n in zip(grams, sizes):
        if len(gram) != n or any(len(row) != n for row in gram):
            return None
        if any(gram[p][q] != gram[q][p].conj() for p in range(n) for q in range(p, n)):
            return None
    factors = []
    for gram in grams:
        res = ldl_hermitian(gram)
        if not res.psd:
            return None
        factors.append(res)
    return factors


def verify_certificate(cert: WeightedSosCertificate, target: AlgebraElement,
                       generators) -> bool:
    """Recompute the certificate's claim from scratch, exactly.

    Independent of how the certificate was produced: every basis monomial must
    fit the degree window, PSD is re-decided by a fresh LDL and the
    re-expansion identity is recomputed term by term.  On success the fresh
    factors are stored as the certificate's ldl_results.
    """
    generators = list(generators)
    if len(cert.bases) != len(generators) or cert.target != target:
        return False
    for basis, gen in zip(cert.bases, generators):
        if any(2 * sum(w) + (gen.degree() or 0) > cert.degree for w in basis):
            return False
    factors = _block_factors(cert.grams, [len(basis) for basis in cert.bases])
    if factors is None:
        return False
    algebra = target.algebra
    total = AlgebraElement.zero(algebra)
    for basis, gram, gen in zip(cert.bases, cert.grams, generators):
        for p, wp in enumerate(basis):
            left = AlgebraElement.monomial(algebra, wp).star() * gen
            for q, wq in enumerate(basis):
                if gram[p][q]:
                    total = total + (left * AlgebraElement.monomial(algebra, wq)).scale(gram[p][q])
    if total != target:
        return False
    cert.ldl_results = factors
    return True


def verify_commutative_certificate(cert: CommutativeSosCertificate,
                                   target: CommutativePoly) -> bool:
    """The commutative analogue: a real symmetric PSD Gram that re-expands to target.

    On success the fresh factor is stored as the certificate's ldl.
    """
    if cert.target != target:
        return False
    if not all(s.is_real() for row in cert.gram for s in row):
        return False
    factors = _block_factors([cert.gram], [len(cert.basis)])
    if factors is None:
        return False
    out: dict = {}
    for p, wp in enumerate(cert.basis):
        for q, wq in enumerate(cert.basis):
            s = cert.gram[p][q]
            if s:
                mono = tuple(a + b for a, b in zip(wp, wq))
                out[mono] = out.get(mono, Fraction(0)) + s.re
    if CommutativePoly(target.nvars, out) != target:
        return False
    cert.ldl = factors[0]
    return True


# -- JSON loading -------------------------------------------------------------------


def _parse_gram(rows):
    return [[parse_scalar(v) for v in row] for row in rows]


def _parse_monomial(text: str, algebra):
    """Exponents of a basis entry, which must be a canonical monomial string."""
    terms = parse(text, algebra).terms
    if len(terms) == 1:
        (mono, coeff), = terms.items()
        if coeff == Scalar(1) and _render_monomial_text(algebra, mono) == text:
            return tuple(mono)
    raise CertificateFormatError(f"basis entry {text!r} is not a canonical monomial")


def certificate_from_json(data: dict):
    """Parse a certificate JSON document (either kind) without deciding anything.

    Only schema version 1 and canonical monomial basis strings are accepted.
    Gram blocks are read as written; positivity is left to the verifier.
    """
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise CertificateFormatError(
                f"unsupported schema_version {data['schema_version']!r}")
        kind = data["kind"]
        if kind == "weighted_sos":
            algebra = lie.from_json_dict(data["algebra"])
            target = parse(data["target"], algebra)
            generators = [parse(g, algebra) for g in data["generators"]]
            blocks = sorted(data["blocks"], key=lambda blk: blk["l"])
            bases = [[_parse_monomial(t, algebra) for t in blk["basis"]] for blk in blocks]
            grams = [_parse_gram(blk["gram"]) for blk in blocks]
            return WeightedSosCertificate(
                algebra, int(data["degree"]), target, generators, bases, grams
            ), target, generators
        if kind == "commutative_sos":
            nvars = int(data["nvars"])
            target = _poly_from_json(nvars, data["target_coeffs"])
            basis = [tuple(m) for m in data["basis"]]
            cert = CommutativeSosCertificate(target, int(data["level"]), basis,
                                             _parse_gram(data["gram"]))
            return cert, target, None
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    except CertificateFormatError:
        raise
    except Exception as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc


def verify_certificate_json(data: dict) -> bool:
    cert, target, generators = certificate_from_json(data)
    if isinstance(cert, WeightedSosCertificate):
        return verify_certificate(cert, target, generators)
    return verify_commutative_certificate(cert, target)
