"""Mutated certificate JSON is rejected: verify_certificate_json returns False
or raises CertificateFormatError, and never returns True or raises otherwise."""

import json
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from envsos.certs import verify_certificate_json
from envsos.errors import CertificateFormatError
from envsos.exprs import parse, render
from envsos.lie import builtin
from envsos.pbw import AlgebraElement, canonical_a
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.scalar import format_fraction
from envsos.sos import commutative_sos, find_certificate


@lru_cache(maxsize=None)
def _emitted_text(kind: str) -> str:
    if kind == "weighted":
        # two blocks: a = sum_k x_k^* x_k on the unit, plus 1 * (2 - H) * 1
        su2 = builtin("su2")
        f2 = parse("2 - H", su2, aliases={"H": "-i*x1"})
        cert = find_certificate(canonical_a(su2) + f2, [AlgebraElement.unit(su2), f2], 2)
    else:
        cert = commutative_sos(squared_norm_poly(2) ** 2, 0)
    data = cert.certificate.to_json_dict()
    assert verify_certificate_json(data)
    return json.dumps(data)


def _emitted(kind: str) -> dict:
    return json.loads(_emitted_text(kind))  # a fresh copy to mutate


def _rejected(data) -> bool:
    try:
        return verify_certificate_json(data) is False
    except CertificateFormatError:
        return True


_kinds = st.sampled_from(["weighted", "commutative"])
_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@settings(deadline=None, max_examples=150)
@given(_kinds, st.data(), _nonzero)
def test_changed_target_coefficient_is_rejected(kind, data, delta):
    doc = _emitted(kind)
    if kind == "weighted":
        algebra = builtin("su2")
        target = parse(doc["target"], algebra)
        mono = data.draw(st.sampled_from(sorted(target.terms)))
        doc["target"] = render(target + AlgebraElement.monomial(algebra, mono).scale(delta))
    else:
        entries = doc["target_coeffs"]
        entry = data.draw(st.sampled_from(entries))
        coeff = Fraction(entry["coeff"]) + delta
        entries.remove(entry)
        if coeff:
            entries.append(dict(entry, coeff=format_fraction(coeff)))
        entries.sort(key=lambda e: e["exponents"])
        doc["target"] = CommutativePoly(doc["nvars"], {
            tuple(e["exponents"]): Fraction(e["coeff"]) for e in entries}).render()
    # the document is well formed, so the verifier itself must say no
    assert verify_certificate_json(doc) is False


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4)
    | st.sampled_from(["", "0", "1", "2", "x1", "1/27 i", "weighted_sos"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)


def _fields(node, path=()):
    """(path, value) for every dict entry and list item below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


@settings(deadline=None, max_examples=400)
@given(_kinds, st.data())
def test_field_of_another_json_type_is_rejected(kind, data):
    doc = _emitted(kind)
    path, old = data.draw(st.sampled_from(list(_fields(doc))))
    new = data.draw(_json_values.filter(lambda v: _json_type(v) != _json_type(old)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = new
    assert _rejected(doc)
