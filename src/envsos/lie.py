"""Lie algebras given by structure constants, with exact validation.

An algebra is described by its dimension, basis names and the rational tensor
c[i][j][k] such that [x_i, x_j] = sum_k c[i][j][k] x_k (indices 0-based in
code, 1-based in JSON files).  Validation enforces antisymmetry and the Jacobi
identity exactly; everything downstream assumes both.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import AntisymmetryViolation, JacobiViolation, UnknownAlgebra
from .scalar import format_fraction, parse_fraction

SCHEMA_VERSION = 1


class LieAlgebra:
    """A validated finite-dimensional real Lie algebra with a fixed basis.

    Instances are immutable after construction; the basis order fixes the
    normal-form monomial order used everywhere else.
    """

    def __init__(self, dim: int, names: list[str] | tuple[str, ...], c):
        if dim < 1:
            raise AlgebraShapeError("dimension must be at least 1")
        if len(names) != dim:
            raise AlgebraShapeError("need one basis name per dimension")
        self.dim = dim
        self.names = tuple(str(n) for n in names)
        self.c = tuple(
            tuple(tuple(Fraction(c[i][j][k]) for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )
        _check_antisymmetry(self.c, dim)
        _check_jacobi(self.c, dim)
        # sparse bracket table: (i, j) -> {k: coeff}, only nonzero, only i < j
        table = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                entries = {k: self.c[i][j][k] for k in range(dim) if self.c[i][j][k]}
                if entries:
                    table[(i, j)] = entries
        self.bracket_table = table
        # straightening caches, keyed by (exponent tuple, generator index)
        self._mulgen_cache: dict = {}

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.names == other.names and self.c == other.c

    def __hash__(self):
        return hash((self.dim, self.names))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, names={list(self.names)})"

    def is_abelian(self) -> bool:
        return not self.bracket_table

    def name_index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None


class AlgebraShapeError(ValueError):
    pass


def _check_antisymmetry(c, dim):
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c[i][j][k] != -c[j][i][k]:
                    raise AntisymmetryViolation(i + 1, j + 1, k + 1)


def _check_jacobi(c, dim):
    # sum_m c^m_ij c^l_mk + c^m_jk c^l_mi + c^m_ki c^l_mj = 0
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    s = Fraction(0)
                    for m in range(dim):
                        s += (
                            c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if s != 0:
                        raise JacobiViolation(i + 1, j + 1, k + 1, l + 1, s)


def validate(dim: int, names, c) -> LieAlgebra:
    """Build an algebra, raising AntisymmetryViolation or JacobiViolation."""
    return LieAlgebra(dim, names, c)


_SHARED: dict = {}  # (dim, names, constants) -> LieAlgebra


def _shared(dim: int, names, c) -> LieAlgebra:
    """The one algebra of an exact structure, validated when first made; a failure is not kept."""
    key = (dim, tuple(names), tuple(tuple(tuple(row) for row in plane) for plane in c))
    if key not in _SHARED:
        _SHARED[key] = LieAlgebra(dim, names, c)
    return _SHARED[key]


def b_constants(algebra: LieAlgebra):
    """The derived tensor b[i][j][k] = c[i][j][k] + c[i][k][j].

    In index notation b^k_{ij} = c^k_{ij} + c^j_{ik}; it measures the failure
    of the structure constants to be fully antisymmetric and vanishes for
    abelian algebras and for su(2).
    """
    d = algebra.dim
    c = algebra.c
    return tuple(
        tuple(tuple(c[i][j][k] + c[i][k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


# -- builtin catalog ---------------------------------------------------------


def _zeros(d):
    return [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]


def _set_bracket(c, i, j, terms):
    """Set [x_i, x_j] = sum terms (0-based), antisymmetric completion."""
    for k, v in terms.items():
        c[i][j][k] = Fraction(v)
        c[j][i][k] = -Fraction(v)


def builtin(name: str) -> LieAlgebra:
    """Catalog: abelian(d), su2, heisenberg3, affine_line, sl2r.

    Shared with from_json_dict, one per exact structure: an algebra is
    immutable, and its straightening memo only ever holds normal forms.
    """
    name = name.strip()
    if name.startswith("abelian(") and name.endswith(")"):
        try:
            d = int(name[len("abelian(") : -1])
        except ValueError:
            raise UnknownAlgebra(name) from None
        if d < 1:
            raise UnknownAlgebra(name)
        return _shared(d, [f"x{i+1}" for i in range(d)], _zeros(d))
    if name == "su2":
        c = _zeros(3)
        _set_bracket(c, 0, 1, {2: 1})   # [x1,x2] = x3
        _set_bracket(c, 1, 2, {0: 1})   # [x2,x3] = x1
        _set_bracket(c, 2, 0, {1: 1})   # [x3,x1] = x2
        return _shared(3, ["x1", "x2", "x3"], c)
    if name == "heisenberg3":
        c = _zeros(3)
        _set_bracket(c, 0, 1, {2: 1})   # [x1,x2] = x3, x3 central
        return _shared(3, ["x1", "x2", "x3"], c)
    if name == "affine_line":
        c = _zeros(2)
        _set_bracket(c, 0, 1, {1: 1})   # [x1,x2] = x2
        return _shared(2, ["x1", "x2"], c)
    if name == "sl2r":
        # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
        c = _zeros(3)
        _set_bracket(c, 0, 1, {1: 2})
        _set_bracket(c, 0, 2, {2: -2})
        _set_bracket(c, 1, 2, {0: 1})
        return _shared(3, ["x1", "x2", "x3"], c)
    raise UnknownAlgebra(name)


# -- JSON interchange --------------------------------------------------------


def to_json_dict(algebra: LieAlgebra) -> dict:
    brackets = []
    for (i, j), terms in sorted(algebra.bracket_table.items()):
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "terms": [
                    {"k": k + 1, "coeff": format_fraction(v)} for k, v in sorted(terms.items())
                ],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": algebra.dim,
        "names": list(algebra.names),
        "brackets": brackets,
    }


# the identifiers of the expression grammar (exprs), where "i" is the imaginary unit
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _json_index(value, dim: int, what: str) -> int:
    """A 1-based index, which must be a JSON integer in 1..dim, as a 0-based one."""
    if type(value) is not int or not 1 <= value <= dim:  # a bool is no int
        raise AlgebraShapeError(f"{what} must be a JSON integer in 1..{dim}, not {value!r}")
    return value - 1


def _json_objects(value, what: str) -> list:
    """value, which must be a JSON list of JSON objects."""
    if type(value) is not list or not all(type(v) is dict for v in value):
        raise AlgebraShapeError(f"{what} must be a JSON list of objects, not {value!r}")
    return value


def from_json_dict(data: dict) -> LieAlgebra:
    """Read an algebra file strictly, as its shared algebra; malformed input raises AlgebraShapeError.

    The file is an object, `brackets` and each bracket's `terms` are lists of
    objects and each `coeff` is a string.  Each unordered pair of distinct
    indices has at most one bracket, in either orientation, naming each k at
    most once; antisymmetry implies the mirror.
    """
    if type(data) is not dict:
        raise AlgebraShapeError(f"an algebra file must be a JSON object, not {data!r}")
    d = data["dim"]
    if type(d) is not int or d < 1:
        raise AlgebraShapeError(f"dim must be a positive JSON integer, not {d!r}")
    names = data.get("names", [f"x{i+1}" for i in range(d)])
    if (type(names) is not list or len(names) != d
            or not all(type(n) is str and _NAME_RE.fullmatch(n) and n != "i" for n in names)
            or len(set(names)) != d):
        raise AlgebraShapeError(f"names must be {d} distinct identifiers other than i: {names!r}")
    c = _zeros(d)
    pairs = set()
    for entry in _json_objects(data.get("brackets", []), "brackets"):
        i, j = (_json_index(entry[key], d, f"bracket index {key}") for key in "ij")
        if i == j or (min(i, j), max(i, j)) in pairs:
            raise AlgebraShapeError(f"bracket [{i+1}, {j+1}] repeats a pair or an index")
        pairs.add((min(i, j), max(i, j)))
        terms = _json_objects(entry["terms"], f"bracket [{i+1}, {j+1}] terms")
        ks = [_json_index(term["k"], d, "bracket target k") for term in terms]
        if len(set(ks)) != len(ks):
            raise AlgebraShapeError(f"bracket [{i+1}, {j+1}] names a target k twice")
        for k, term in zip(ks, terms):
            if type(term["coeff"]) is not str:
                raise AlgebraShapeError(f"coeff must be a JSON string, not {term['coeff']!r}")
            # antisymmetric completion: the mirror entry is implied
            c[i][j][k] = parse_fraction(term["coeff"])
            c[j][i][k] = -c[i][j][k]
    return _shared(d, names, c)


def load(path_or_name: str) -> LieAlgebra:
    """Load an algebra from a JSON file, falling back to the builtin catalog."""
    import os

    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return from_json_dict(json.load(fh))
    return builtin(path_or_name)
