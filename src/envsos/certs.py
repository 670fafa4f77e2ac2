"""Exact certificates and the rounding layer that produces them.

Two certificate kinds share one pipeline.  A weighted certificate stores, per
generator block, the monomial basis and an exact Hermitian PSD Gram matrix; a
commutative one stores one real symmetric Gram over the monomials of a form.
round_and_verify emits both kinds from a numeric candidate; the one other
path, sos.commutative_sos for the zero form, builds the empty certificate
and runs it through verify_commutative_certificate itself.  Nothing
unverified ever escapes.

Rounding follows Peyrl & Parrilo: snap the numeric Gram entries to rationals
with denominator 2^k, project exactly onto the affine constraint subspace,
take the exact blocks from the problem and gate on the verifier; k escalates
until success or exhaustion.

A Gram block is a GaussMatrix from the problem's layout to both verifiers;
Scalar rows exist only in JSON writing (_gram_to_json) and reading
(_parse_gram).  The two verifiers share one block check (square shapes on the
re rows, Hermitian entries, then an exact LDL of every block before any
re-expansion), which always factors the certificate's current Gram blocks,
and one integer re-expansion kernel, which reads each block's integers and
clears its rows NF(w_p^* f_l) to Gaussian integers over one denominator,
multiplies by w_q through the normal-form straightening (exponent addition
for a commutative certificate), accumulates [re, im] integer pairs in one
dict over one common denominator and compares that sum with the target.  A
certificate must state the algebra, target and generators it is checked
against, so the claim the JSON form writes is the claim that was checked.
Every call starts from nothing: no state is kept between calls but the
algebra's straightening memo; loading shares one algebra per exact
structure, a normal-form memo and not verifier state.

On success the verifier keeps the fresh factors on the in-memory certificate
as its `factors`, one per block (a strict symbol proof reads them), so each
block is factored once per stage: once on emission, none on loading, once on
re-verification.  The JSON form carries no factors: schema version 2
dropped the ldl_witness field, which no reader used; version-1 files are
still read and the field is ignored.

Loading is strict: counts, degrees and exponents must be JSON integers
(nonnegative, not booleans or floats), every exponent list has one entry per
variable, and basis entries of weighted certificates are canonical monomials.
Every other field must have the JSON type the writer gives it (strings for
expressions, coefficients and Gram entries, arrays for lists), and the
algebra of a weighted certificate must be the canonical JSON of the algebra
it describes, so no field is read loosely or left unread.  Gram entries and
coefficients must be their values' format_scalar and format_fraction texts
("1.0", "2/2" or " 1" is a format error, not a 1).  A commutative
target_coeffs lists each exponent list once with a nonzero coefficient; a
weighted certificate has one block per generator, with block indices l
exactly 1..r.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from math import lcm

from . import lie
from .errors import CertificateFormatError, nonnegative_int
from .exactla import GaussMatrix, cleared, ldl_hermitian
from .exprs import _render_monomial, parse, render
from .gram import CommGramProblem
from .pbw import AlgebraElement, _mul_monomials, _mul_terms, _star_monomial
from .poly import CommutativePoly, squared_norm_poly
from .scalar import ONE, Scalar, format_fraction, format_scalar, parse_scalar

SCHEMA_VERSION = 2
# version 1 also stored an LDL factor per block, which was never read back
READABLE_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)
ROUNDING_EXPONENTS = (10, 20, 30, 40, 50, 60)


class WeightedSosCertificate:
    def __init__(self, algebra, degree, target, generators, bases, grams):
        self.algebra = algebra
        self.degree = degree
        self.target = target
        self.generators = list(generators)
        self.bases = [list(b) for b in bases]
        self.grams = grams

    def to_json_dict(self) -> dict:
        blocks = [{"l": bidx + 1,
                   "basis": [_render_monomial(m, self.algebra.names) or "1" for m in basis],
                   "gram": _gram_to_json(gram)}
                  for bidx, (basis, gram) in enumerate(zip(self.bases, self.grams))]
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
    def __init__(self, target: CommutativePoly, level: int, basis, gram):
        self.target = target          # the polynomial actually decomposed
        self.level = level
        self.basis = list(basis)
        self.gram = gram

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "commutative_sos",
            "level": self.level,
            "nvars": self.target.nvars,
            "target": self.target.render(),
            "target_coeffs": _poly_to_json(self.target),
            "basis": [list(m) for m in self.basis],
            "gram": _gram_to_json(self.gram),
        }


def _poly_to_json(p: CommutativePoly):
    return [
        {"exponents": list(m), "coeff": format_fraction(q)}
        for m, q in sorted(p.coeffs.items())
    ]


def _gram_to_json(G: GaussMatrix):
    """A Gram block's JSON rows: each entry's format_scalar text."""
    return [[format_scalar(v) for v in row] for row in G.scalars()]


def _poly_from_json(nvars, entries) -> CommutativePoly:
    """The polynomial of target_coeffs: each exponent list once, no zero coefficient."""
    coeffs = {}
    for e in _typed(entries, list, "target_coeffs"):
        mono = _exponents(e["exponents"], nvars)
        if mono in coeffs:
            raise CertificateFormatError(f"exponent list {list(mono)} appears twice")
        coeff = _canonical(e["coeff"], Fraction, format_fraction, "a coefficient")
        if not coeff:
            raise CertificateFormatError(f"exponent list {list(mono)} has a zero coefficient")
        coeffs[mono] = coeff
    return CommutativePoly(nvars, coeffs)


# -- rounding ---------------------------------------------------------------------


class RoundingFailed(Exception):
    pass


def _round_vector(g, k: int):
    scale = 1 << k
    return [Fraction(round(float(x) * scale), scale) for x in g]


def round_and_verify(problem, g_numeric):
    """Turn a numeric Gram candidate into an exact verified certificate.

    An SdpProblem yields a WeightedSosCertificate and a CommGramProblem a
    CommutativeSosCertificate; the verifier's factors stay on it in memory.
    Each rounding keeps the dyadic entries on the free columns and solves
    every pivot entry exactly from its reduced row (pivot completion), so it
    meets every row of a consistent system by construction.  The verifier
    re-decides the identity from scratch, so no residual is checked in
    between: on an inconsistent system every rounding fails at the verifier.
    Raises RoundingFailed when no denominator 2^k in the schedule produces
    an exactly feasible PSD point.
    """
    for k in ROUNDING_EXPONENTS:
        g = problem.system.project_exact(_round_vector(g_numeric, k))
        blocks = problem.gram_blocks_exact(g)
        if isinstance(problem, CommGramProblem):
            cert = CommutativeSosCertificate(problem.target, problem.level, problem.monomials,
                                             blocks[0])
            if verify_commutative_certificate(cert, problem.target):
                return cert
        else:
            sk = problem.skeleton
            cert = WeightedSosCertificate(sk.algebra, sk.degree, problem.target, sk.generators,
                                          sk.bases, blocks)
            if verify_certificate(cert, problem.target, sk.generators):
                return cert
    raise RoundingFailed("no dyadic rounding produced an exact PSD solution")


# -- verification ------------------------------------------------------------------


def _block_factors(grams, sizes):
    """The LDL^* factors of the GaussMatrix blocks, or None when one is malformed or not PSD.

    Checks every block's shape on its re rows (a ragged JSON block stays
    ragged) and that it is Hermitian, then factors each block from scratch.
    """
    if len(grams) != len(sizes):
        return None
    for G, n in zip(grams, sizes):
        if len(G.re) != n or any(len(row) != n for row in G.re) or not G.is_hermitian():
            return None
    factors = []
    for G in grams:
        res = ldl_hermitian(G)
        if not res.psd:
            return None
        factors.append(res)
    return factors


def _reexpand(blocks, multiply):
    """sum_l sum_pq (G_l)_pq row_lp * w_q as integers ({monomial: [re, im]}, den) over one den.

    blocks yields (rows, basis, gram) with row_lp = NF(w_p^* f_l) as {monomial: Scalar}
    and gram the GaussMatrix block checked by _block_factors; multiply(m, w) is the normal form
    of x^m x^w as {monomial: rational}.  Each block's rows are cleared to Gaussian
    integers over one denominator; for every w_q the combination sum_p (G_l)_pq row_lp
    is formed in integers and multiplied out once.  The running sum lives in one dict of [re, im] pairs over den,
    rescaled in place whenever a new denominator does not divide den.
    """
    acc: dict = {}
    den = 1
    for rows, basis, gram in blocks:
        values, rden = cleared([s for row in rows for s in row.values()])
        values = iter(values)
        cleared_rows = [[(m, next(values)) for m in row] for row in rows]
        block_den = gram.den * rden
        for q, wq in enumerate(basis):
            combination: dict = {}
            for p, (gre, gim) in enumerate(zip(gram.re, gram.im)):
                a, b = gre[q], gim[q]
                if not (a or b):
                    continue
                for m, (c, d) in cleared_rows[p]:
                    re, im = a * c - b * d, a * d + b * c
                    v = combination.get(m)
                    if v is None:
                        combination[m] = [re, im]
                    else:
                        v[0] += re
                        v[1] += im
            for m, (re, im) in combination.items():
                if not (re or im):
                    continue
                product = multiply(m, wq)
                pden = lcm(*(x.denominator for x in product.values()))
                term_den = block_den * pden
                if den % term_den:
                    factor = lcm(den, term_den) // den
                    for v in acc.values():
                        v[0] *= factor
                        v[1] *= factor
                    den *= factor
                scale = den // term_den
                for m2, x in product.items():
                    x = x.numerator * (pden // x.denominator) * scale
                    v = acc.get(m2)
                    if v is None:
                        acc[m2] = [re * x, im * x]
                    else:
                        v[0] += re * x
                        v[1] += im * x
    return acc, den


def _matches(expansion, target_terms) -> bool:
    """True when the integer expansion (acc, den) equals target_terms ({monomial: Scalar})."""
    acc, den = expansion
    values, tden = cleared(list(target_terms.values()))
    target = dict(zip(target_terms, values))
    for m, (re, im) in acc.items():
        t_re, t_im = target.pop(m, (0, 0))
        if re * tden != t_re * den or im * tden != t_im * den:
            return False
    return not any(re or im for re, im in target.values())


def verify_certificate(cert: WeightedSosCertificate, target: AlgebraElement,
                       generators) -> bool:
    """Recompute the certificate's claim from scratch, exactly.

    Independent of how the certificate was produced: the certificate must
    state this algebra, target and generators, every basis monomial must fit
    the degree window, PSD is re-decided by a fresh LDL, and the identity
    sum_l sum_pq (G_l)_pq w_p^* f_l w_q = target is recomputed by _reexpand in
    Gaussian integers over one common denominator.  Nothing is kept between
    calls but the algebra's straightening memo.  On success the fresh factors
    are stored as the certificate's factors, one per block.
    """
    generators = list(generators)
    algebra = target.algebra
    if (cert.algebra != algebra or cert.generators != generators
            or any(gen.algebra != algebra for gen in generators)
            or len(cert.bases) != len(generators) or cert.target != target):
        return False
    for basis, gen in zip(cert.bases, generators):
        if any(2 * sum(w) + (gen.degree() or 0) > cert.degree for w in basis):
            return False
    factors = _block_factors(cert.grams, [len(basis) for basis in cert.bases])
    if factors is None:
        return False
    blocks = (([_mul_terms(algebra, _star_monomial(algebra, wp), gen.terms) for wp in basis],
               basis, gram)
              for basis, gram, gen in zip(cert.bases, cert.grams, generators))
    if not _matches(_reexpand(blocks, partial(_mul_monomials, algebra)), target.terms):
        return False
    cert.factors = factors
    return True


def verify_commutative_certificate(cert: CommutativeSosCertificate,
                                   target: CommutativePoly) -> bool:
    """The commutative analogue: a real symmetric PSD Gram that re-expands to target.

    The stated level must be a nonnegative integer k with (t_1^2+...+t_d^2)^k
    dividing the target exactly, so the certificate proves what it claims
    about the form target / (t_1^2+...+t_d^2)^k.  The identity
    sum_pq G_pq t^(w_p + w_q) = target goes through the same integer kernel
    as the weighted verifier, with rows t^(w_p) and exponent addition as the
    product; nothing is kept between calls.  On success the fresh factor is
    stored as the certificate's factors, a list of one.
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
    if any(map(any, cert.gram.im)):
        return False
    factors = _block_factors([cert.gram], [len(cert.basis)])
    if factors is None:
        return False
    blocks = [([{tuple(wp): ONE} for wp in cert.basis], cert.basis, cert.gram)]
    expansion = _reexpand(blocks, lambda m, w: {tuple(a + b for a, b in zip(m, w)): 1})
    if not _matches(expansion, {m: Scalar(q) for m, q in target.coeffs.items()}):
        return False
    cert.factors = factors
    return True


# -- JSON loading -------------------------------------------------------------------


def _typed(value, expected: type, what: str):
    """value itself when its JSON type is expected; a bool is no int."""
    if type(value) is not expected:
        raise CertificateFormatError(f"{what} must be a {expected.__name__}, not {value!r}")
    return value


def _canonical_algebra(data):
    """The algebra of a weighted certificate, whose JSON must be its canonical form."""
    algebra = lie.from_json_dict(_typed(data, dict, "algebra"))
    if json.dumps(lie.to_json_dict(algebra), sort_keys=True) != json.dumps(data, sort_keys=True):
        raise CertificateFormatError("algebra is not in the canonical form of its JSON")
    return algebra


def _exponents(entry, nvars: int) -> tuple:
    """An exponent list as a tuple: one nonnegative int per variable."""
    exponents = tuple(_typed(entry, list, "an exponent list"))
    if len(exponents) != nvars:
        raise CertificateFormatError(f"exponent list {entry!r} does not have {nvars} entries")
    return tuple(nonnegative_int(e, "an exponent") for e in exponents)


def _canonical(text, read, write, what: str):
    """read(text) for a JSON string that write gives back exactly."""
    value = read(_typed(text, str, what))
    if write(value) != text:
        raise CertificateFormatError(f"{what} {text!r} is not the canonical {write(value)!r}")
    return value


def _parse_gram(rows) -> GaussMatrix:
    """A Gram block of canonical entries (format_scalar texts), each row at its own length."""
    return GaussMatrix.from_scalars([[_canonical(v, parse_scalar, format_scalar, "a Gram entry")
                                      for v in _typed(row, list, "a Gram row")]
                                     for row in _typed(rows, list, "a Gram block")])


def _parse_canonical(text, algebra, what: str) -> AlgebraElement:
    """The element of an expression text, which must be the rendering of that element."""
    return _canonical(text, lambda t: parse(t, algebra), render, what)


def _parse_monomial(text: str, algebra):
    """Exponents of a basis entry, which must be a canonical monomial string."""
    terms = _parse_canonical(text, algebra, "a basis entry").terms
    if len(terms) != 1 or ONE not in terms.values():
        raise CertificateFormatError(f"basis entry {text!r} is not a canonical monomial")
    return next(iter(terms))


def certificate_from_json(data: dict):
    """Parse a certificate JSON document (either kind) without deciding anything.

    Only schema versions 1 and 2, integer counts and exponents, canonical
    monomial basis strings, canonical target and generator texts, canonical
    target_coeffs, canonical Gram entries, a canonical algebra, block indices
    1..r and fields of the writer's JSON types are accepted.  Gram blocks are
    read as written, each row at its own length; shape and positivity are
    left to the verifier.
    """
    try:
        version = data["schema_version"]
        if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
            raise CertificateFormatError(f"unsupported schema_version {version!r}")
        kind = data["kind"]
        if kind == "weighted_sos":
            algebra = _canonical_algebra(data["algebra"])
            target = _parse_canonical(data["target"], algebra, "target")
            generators = [_parse_canonical(g, algebra, "a generator")
                          for g in _typed(data["generators"], list, "generators")]
            blocks = [_typed(blk, dict, "a block")
                      for blk in _typed(data["blocks"], list, "blocks")]
            labels = [blk["l"] for blk in blocks]
            if (any(type(l) is not int for l in labels)
                    or sorted(labels) != list(range(1, len(generators) + 1))):
                raise CertificateFormatError(
                    f"block indices {labels!r} are not 1..{len(generators)}, once each")
            blocks = sorted(blocks, key=lambda blk: blk["l"])
            bases = [[_parse_monomial(_typed(t, str, "a basis entry"), algebra)
                      for t in _typed(blk["basis"], list, "a basis")] for blk in blocks]
            grams = [_parse_gram(blk["gram"]) for blk in blocks]
            degree = nonnegative_int(data["degree"], "degree")
            return WeightedSosCertificate(
                algebra, degree, target, generators, bases, grams
            ), target, generators
        if kind == "commutative_sos":
            nvars = nonnegative_int(data["nvars"], "nvars")
            target = _poly_from_json(nvars, data["target_coeffs"])
            if data["target"] != target.render():
                raise CertificateFormatError(
                    f"target {data['target']!r} is not the rendering of target_coeffs")
            basis = [_exponents(m, nvars) for m in _typed(data["basis"], list, "basis")]
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
