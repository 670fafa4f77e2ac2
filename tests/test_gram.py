"""GramSkeleton assembly against the frozen star-based assembly in oracles."""

import pytest

from envsos.gram import GramSkeleton
from envsos.lie import builtin
from envsos.pbw import AlgebraElement
from envsos.scalar import Scalar

from oracles import reference_skeleton_rows


def _generators(algebra, kind):
    unit = AlgebraElement.unit(algebra)
    if kind == "unit":
        return [unit]
    # 2 + i x1 is hermitean: (i x1)^* = (-i)(-x1)
    return [unit, unit.scale(2) + AlgebraElement.generator(algebra, 0).scale(Scalar(0, 1))]


@pytest.mark.parametrize("name", ["abelian(3)", "su2", "heisenberg3", "affine_line", "sl2r"])
@pytest.mark.parametrize("kind", ["unit", "non-unit"])
@pytest.mark.parametrize("degree", [0, 2, 4, 6])
def test_skeleton_rows_match_the_star_based_assembly(name, kind, degree):
    algebra = builtin(name)
    f = _generators(algebra, kind)
    assert all(g.is_hermitean() for g in f)
    skeleton = GramSkeleton(algebra, f, degree)
    row_monomials, rows = reference_skeleton_rows(algebra, f, degree)
    assert skeleton.row_monomials == row_monomials
    assert skeleton.rows == rows
    assert all(type(x) is type(y) for r, s in zip(skeleton.rows, rows) for x, y in zip(r, s))


def test_skeleton_stars_basis_monomials_only(monkeypatch):
    algebra = builtin("su2")
    f = _generators(algebra, "non-unit")
    starred = []
    star = AlgebraElement.star

    def recording_star(self):
        starred.append(self)
        return star(self)

    monkeypatch.setattr(AlgebraElement, "star", recording_star)
    skeleton = GramSkeleton(algebra, f, 4)
    # the hermitean checks star each generator once; every other star is of a basis monomial
    monomials = [e for e in starred if not any(e is g for g in f)]
    assert len(starred) - len(monomials) == len(f)
    assert [next(iter(e.terms)) for e in monomials] == [w for b in skeleton.bases for w in b]
    assert all(e == AlgebraElement.monomial(algebra, next(iter(e.terms))) for e in monomials)
