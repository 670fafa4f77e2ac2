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
current Gram blocks.  On success the verifier keeps those fresh factors on
the in-memory certificate (a strict symbol proof reads them), so each block
is factored once per stage: once on emission, none on loading, once on
re-verification.  The JSON form carries no factors: schema version 2 dropped
the ldl_witness field, which no reader used; version-1 files are still read
and the field is ignored.

Loading is strict: counts, degrees and exponents must be JSON integers
(nonnegative, not booleans or floats), every exponent list has one entry per
variable, and basis entries of weighted certificates are canonical monomials.
A commutative target_coeffs lists each exponent list once with a nonzero
coefficient; a weighted certificate has one block per generator, with block
indices l exactly 1..r.
"""

from __future__ import annotations

from fractions import Fraction

from . import lie
from .errors import CertificateFormatError
from .exactla import cmat_is_hermitian, ldl_hermitian
from .exprs import parse, render
from .gram import CommGramProblem
from .pbw import AlgebraElement
from .poly import CommutativePoly, squared_norm_poly
from .scalar import Scalar, format_fraction, format_scalar, parse_scalar

SCHEMA_VERSION = 2
# version 1 also stored an LDL factor per block, which was never read back
READABLE_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)
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
        for bidx, (basis, gram) in enumerate(zip(self.bases, self.grams)):
            blocks.append(
                {
                    "l": bidx + 1,
                    "basis": [_render_monomial_text(self.algebra, m) for m in basis],
                    "gram": [[format_scalar(v) for v in row] for row in gram],
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
        }


def _poly_to_json(p: CommutativePoly):
    return [
        {"exponents": list(m), "coeff": format_fraction(q)}
        for m, q in sorted(p.coeffs.items())
    ]


def _poly_from_json(nvars, entries) -> CommutativePoly:
    """The polynomial of target_coeffs: each exponent list once, no zero coefficient."""
    coeffs = {}
    for e in entries:
        mono = _exponents(e["exponents"], nvars)
        if mono in coeffs:
            raise CertificateFormatError(f"exponent list {list(mono)} appears twice")
        coeff = Fraction(e["coeff"])
        if not coeff:
            raise CertificateFormatError(f"exponent list {list(mono)} has a zero coefficient")
        coeffs[mono] = coeff
    return CommutativePoly(nvars, coeffs)


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
    CommutativeSosCertificate; the verifier's factors stay on it in memory.
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
        if not cmat_is_hermitian(gram):
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

    The stated level must be a nonnegative integer k with (t_1^2+...+t_d^2)^k
    dividing the target exactly, so the certificate proves what it claims
    about the form target / (t_1^2+...+t_d^2)^k.  On success the fresh factor
    is stored as the certificate's ldl.
    """
    if cert.target != target:
        return False
    level = cert.level
    if type(level) is not int or level < 0:
        return False
    # the degree test first: a huge stated level is rejected before any power is formed
    if not target.is_zero() and (
        2 * level > target.degree()
        or target.exact_quotient(squared_norm_poly(target.nvars) ** level) is None
    ):
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


def _nonnegative_int(value, what: str) -> int:
    """value itself when it is a nonnegative int; a bool, float or string is rejected."""
    if type(value) is not int or value < 0:
        raise CertificateFormatError(f"{what} must be a nonnegative integer, not {value!r}")
    return value


def _exponents(entry, nvars: int) -> tuple:
    """An exponent list as a tuple: one nonnegative int per variable."""
    exponents = tuple(entry)
    if len(exponents) != nvars:
        raise CertificateFormatError(f"exponent list {entry!r} does not have {nvars} entries")
    return tuple(_nonnegative_int(e, "an exponent") for e in exponents)


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

    Only schema versions 1 and 2, integer counts and exponents, canonical
    monomial basis strings, canonical target_coeffs and block indices 1..r
    are accepted.  Gram blocks are read as written; positivity is left to
    the verifier.
    """
    try:
        version = data["schema_version"]
        if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
            raise CertificateFormatError(f"unsupported schema_version {version!r}")
        kind = data["kind"]
        if kind == "weighted_sos":
            algebra = lie.from_json_dict(data["algebra"])
            target = parse(data["target"], algebra)
            generators = [parse(g, algebra) for g in data["generators"]]
            blocks = data["blocks"]
            labels = [blk["l"] for blk in blocks]
            if (any(type(l) is not int for l in labels)
                    or sorted(labels) != list(range(1, len(generators) + 1))):
                raise CertificateFormatError(
                    f"block indices {labels!r} are not 1..{len(generators)}, once each")
            blocks = sorted(blocks, key=lambda blk: blk["l"])
            bases = [[_parse_monomial(t, algebra) for t in blk["basis"]] for blk in blocks]
            grams = [_parse_gram(blk["gram"]) for blk in blocks]
            degree = _nonnegative_int(data["degree"], "degree")
            return WeightedSosCertificate(
                algebra, degree, target, generators, bases, grams
            ), target, generators
        if kind == "commutative_sos":
            nvars = _nonnegative_int(data["nvars"], "nvars")
            target = _poly_from_json(nvars, data["target_coeffs"])
            if data["target"] != target.render():
                raise CertificateFormatError(
                    f"target {data['target']!r} is not the rendering of target_coeffs")
            basis = [_exponents(m, nvars) for m in data["basis"]]
            # the level is passed on as written; the verifier decides it
            cert = CommutativeSosCertificate(target, data["level"], basis,
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
