"""Gram assembly against frozen earlier constructions in oracles.

GramSkeleton against the star-based assembly, CommGramProblem against the
construction that multiplied every pair of reduced basis polynomials and
expanded forced kernel vectors in Fractions, faced problems against the
row composition and congruence in Scalar arithmetic, the layout's
GaussMatrix blocks against the Scalar rows it built before, and
AffineOperator against the two-pass selection and completion.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envsos.certs import WeightedSosCertificate, round_and_verify, verify_certificate
from envsos.driver import window_members
from envsos.exactla import GaussMatrix, nullspace
from envsos.gram import (
    CommGramProblem,
    GramSkeleton,
    VariableLayout,
    _forced_kernel_vectors,
    _line_expansion,
    monomials_of_degree,
)
from envsos.lie import builtin
from envsos.numeric import solve_feasibility
from envsos.pbw import AlgebraElement, canonical_a
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.scalar import Scalar
from envsos.sos import forced_face_vectors, sample_sign_information

from oracles import (
    ReferenceCommProblem,
    reference_compose_rows,
    reference_congruence,
    reference_gram_blocks_exact,
    reference_line_expansion,
    reference_operator_pivots,
    reference_skeleton_rows,
)


def _dense(rows, nvars):
    """Dense Fraction rows, once every row is {column: value} with ascending
    int columns below nvars and no zero value."""
    for row in rows:
        assert type(row) is dict and list(row) == sorted(row)
        assert all(type(j) is int and 0 <= j < nvars and x for j, x in row.items())
    return [[row.get(j, Fraction(0)) for j in range(nvars)] for row in rows]


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
    dense = _dense(skeleton.rows, skeleton.layout.nvars)
    assert dense == rows
    assert all(type(x) is type(y) for r, s in zip(dense, rows) for x, y in zip(r, s))


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


PSD_NOT_SOS = {
    "motzkin": CommutativePoly(3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1}),
    "choi-lam-S": CommutativePoly(3, {(4, 2, 0): 1, (0, 4, 2): 1, (2, 0, 4): 1, (2, 2, 2): -3}),
    "robinson": CommutativePoly(3, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1, (4, 2, 0): -1,
                                    (2, 4, 0): -1, (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1,
                                    (0, 2, 4): -1, (2, 2, 2): 3}),
}


def _planted_quartics(seed=1, count=8):
    """The planted quartics of the sphere-forms benchmark: sums of 12 squares of quadrics."""
    rng = random.Random(seed)
    quadrics = sorted((m for m in itertools.product(range(3), repeat=4) if sum(m) == 2),
                      reverse=True)
    forms = []
    for _ in range(count):
        form = CommutativePoly(4)
        for _ in range(len(quadrics) + 2):
            q = CommutativePoly(4, {m: rng.randint(-3, 3) for m in quadrics})
            form = form + q * q
        forms.append(form)
    return forms


def _assert_matches_reference(form, zeros, level):
    problem = CommGramProblem(form, kernel_points=zeros, level=level)
    ref = ReferenceCommProblem(form, kernel_points=zeros, level=level)
    assert problem.row_monomials == ref.row_monomials
    dense = _dense(problem.system.operator.rows, problem.layout.nvars)
    assert dense == ref.rows
    assert all(type(x) is type(y) for r, s in zip(dense, ref.rows) for x, y in zip(r, s))
    assert problem.system.rhs == ref.rhs
    assert all(type(x) is type(y) for x, y in zip(problem.system.rhs, ref.rhs))
    n = len(problem.monomials)
    if problem.Q is None:  # the reference's identity
        assert ref.Q == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    else:
        assert problem.Q.scalars() == ref.Q
    assert problem.layout.block_sizes == ref.layout.block_sizes
    assert [b.coeffs for b in problem.basis_polys] == [b.coeffs for b in ref.basis_polys]
    g = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(problem.layout.nvars)]
    assert [G.scalars() for G in problem.gram_blocks_exact(g)] == ref.gram_blocks_exact(g)
    return problem


@pytest.mark.parametrize("name", sorted(PSD_NOT_SOS))
@pytest.mark.parametrize("level", [0, 1, 2])
def test_comm_problem_matches_the_pairwise_product_construction(name, level):
    form = PSD_NOT_SOS[name]
    _, zeros = sample_sign_information(form)
    problem = _assert_matches_reference(form, zeros, level)
    if level == 0:  # the zeros force the whole kernel: an empty face, not "nothing forced"
        assert problem.Q.re == [] and problem.layout.block_sizes == [0]


def test_forced_kernel_vectors_expand_each_zero_line_once():
    # the sampled zeros of the Motzkin form include multiples of one another;
    # each line through the origin is expanded once (the face is checked above)
    form = PSD_NOT_SOS["motzkin"]
    _, zeros = sample_sign_information(form)
    assert len(_forced_kernel_vectors(form, monomials_of_degree(3, 3), zeros)) == 28


def test_comm_problem_matches_on_the_planted_quartics():
    for form in _planted_quartics():
        negative, zeros = sample_sign_information(form)
        assert negative is None
        _assert_matches_reference(form, zeros, 0)


@pytest.mark.parametrize("level", [0, 1])
def test_comm_problem_matches_on_a_square_of_a_quadric(level):
    # (t1^2 - t2^2)^2 vanishes to second order across the lines t1 = +-t2
    form = CommutativePoly(2, {(4, 0): 1, (2, 2): -2, (0, 4): 1})
    _, zeros = sample_sign_information(form)
    assert zeros
    _assert_matches_reference(form, zeros, level)


def test_comm_problem_matches_with_a_given_point():
    form = CommutativePoly(2, {(2, 0): 1, (0, 2): 1})
    problem = _assert_matches_reference(form, [(Fraction(1), Fraction(0))], 0)
    assert problem.Q.scalars() == [[0, 1]]  # v(1, 0) over (t1, t2) is (1, 0)
    assert _assert_matches_reference(form, [], 0).Q is None


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("nvars, point", [(2, (Fraction(1, 2), Fraction(1))),
                                          (3, (Fraction(0), Fraction(1), Fraction(0)))],
                         ids=["fractional-zero", "fractional-direction"])
def test_comm_problem_matches_on_fractional_lines(nvars, point, level):
    # (2 t1 - t_d)^2 (t1^2 + ... + t_d^2) vanishes on the hyperplane t_d = 2 t1.  In two
    # variables the zero (1/2, 1) is cleared to (1, 2); in three the zero (0, 1, 0) has
    # the Hessian null direction (1/2, 0, 1) in the hyperplane, cleared to (1, 0, 2)
    line = CommutativePoly(nvars, {(1,) + (0,) * (nvars - 1): 2, (0,) * (nvars - 1) + (1,): -1})
    form = line * line * squared_norm_poly(nvars)
    _assert_matches_reference(form, [point], level)


def test_integer_line_expansion_is_the_fraction_one_scaled():
    """On cleared t0 = d0 t and u = du v, order m gains the factor d0^(h-m) du^m."""
    rng = random.Random(14)

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))

    for _ in range(300):
        nvars = rng.randint(1, 4)
        mono = tuple(rng.randint(0, 3) for _ in range(nvars))
        h = sum(mono)
        t, v = [rational() for _ in mono], [rational() for _ in mono]
        d0 = math.lcm(*(x.denominator for x in t))
        du = math.lcm(*(x.denominator for x in v))
        max_order = rng.randint(0, h + 2)
        got = _line_expansion(mono, [int(x * d0) for x in t], [int(x * du) for x in v], max_order)
        expected = reference_line_expansion(mono, t, v, max_order)
        assert all(type(c) is int for c in got)
        assert got == [c * Fraction(d0) ** (h - m) * du ** m for m, c in enumerate(expected)]


@pytest.mark.parametrize("level", [-1, True, 1.5])
def test_comm_problem_rejects_a_level_that_is_not_a_nonnegative_int(level):
    form = CommutativePoly(2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError, match="level must be a nonnegative integer"):
        CommGramProblem(form, level=level)


def _window_face(target):
    """The su(2) problem at D=4 of target(a, 1) on the face forced by the dual window a <= 3."""
    su2 = builtin("su2")
    unit = AlgebraElement.unit(su2)
    target = target(canonical_a(su2), unit)
    skeleton = GramSkeleton(su2, [unit], 4)
    members = window_members(su2, [unit], Fraction(3)).values()
    forced, = forced_face_vectors(target, [unit], skeleton.bases, members)
    return skeleton.problem_for(target, [nullspace(GaussMatrix.from_scalars(forced),
                                                   len(skeleton.bases[0]))])


def _su2_face(degree, faces, generators="unit"):
    """The su(2) problem of the zero target on the given faces (rows, or None for a whole block)."""
    su2 = builtin("su2")
    skeleton = GramSkeleton(su2, _generators(su2, generators), degree)
    faces = [None if Q is None else GaussMatrix.from_scalars(Q) for Q in faces]
    return skeleton.problem_for(AlgebraElement.zero(su2), faces)


def _comm_face(name, level):
    _, zeros = sample_sign_information(PSD_NOT_SOS[name])
    return CommGramProblem(PSD_NOT_SOS[name], kernel_points=zeros, level=level)


# name -> a faced SdpProblem or CommGramProblem, one per kind of face
FACED_PROBLEMS = {
    "su2 margin D=4": lambda: _window_face(lambda a, one: a * a - one),
    # (a - 7/4)^2 is zero on spin 1/2, and its forced vectors have complex entries
    "su2 spin-1/2 complex face": lambda: _window_face(
        lambda a, one: (a - one.scale(Fraction(7, 4))) * (a - one.scale(Fraction(7, 4)))),
    "generic complex face": lambda: _su2_face(2, [[
        [Scalar(1), Scalar(0, 1), Scalar(0), Scalar(2)],
        [Scalar(0), Scalar(1, -1), Scalar(Fraction(1, 3)), Scalar(0)]]]),
    "int-list face": lambda: _su2_face(2, [[[1, 0, 0, 0], [0, 1, 0, 0]]]),
    "empty face beside a whole block": lambda: _su2_face(2, [[], None], "non-unit"),
    "motzkin level 0 (empty face)": lambda: _comm_face("motzkin", 0),
    "motzkin level 1": lambda: _comm_face("motzkin", 1),
    "robinson level 1": lambda: _comm_face("robinson", 1),
}


def _reference_rows_and_blocks(problem, g):
    """The composed rows and the exact blocks at g by the frozen Scalar construction."""
    if isinstance(problem, CommGramProblem):
        whole = CommGramProblem(problem.target)  # every row monomial meets a column
        full, faces, sizes = whole.layout, [problem.Q.scalars()], [len(problem.monomials)]
        rows = reference_compose_rows(whole.system.operator.rows, full, problem.layout, faces)
        rows = [row for row, mono in zip(rows, whole.row_monomials)
                if row or mono in problem.target.coeffs]
    else:
        skeleton = problem.skeleton
        full, sizes = skeleton.layout, [len(b) for b in skeleton.bases]
        faces = [None if Q is None else Q.scalars() for Q in problem.faces]
        rows = reference_compose_rows(skeleton.rows, full, problem.layout, faces)
    blocks = [G.scalars() if Q is None else reference_congruence(Q, G.scalars(), n)
              for G, Q, n in zip(problem.layout.gram_blocks_exact(g), faces, sizes)]
    return rows, blocks


@pytest.mark.parametrize("name", list(FACED_PROBLEMS))
def test_faced_rows_and_blocks_match_the_scalar_congruence(name):
    problem = FACED_PROBLEMS[name]()
    g = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(problem.layout.nvars)]
    rows, blocks = _reference_rows_and_blocks(problem, g)
    got = problem.system.operator.rows
    assert [list(r.items()) for r in got] == [list(r.items()) for r in rows]
    got = problem.gram_blocks_exact(g)
    assert [G.scalars() for G in got] == blocks
    assert all(type(G) is GaussMatrix for G in got)


ENTRIES = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 5), max_size=3), st.booleans(), st.booleans(), st.data())
def test_layout_blocks_match_the_scalar_construction(sizes, complex_blocks, zero, data):
    layout = VariableLayout(sizes, complex_blocks)
    n = layout.nvars
    g = [0] * n if zero else data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    blocks = layout.gram_blocks_exact(g)
    assert all(type(G) is GaussMatrix for G in blocks)
    assert [G.scalars() for G in blocks] == reference_gram_blocks_exact(layout, g)


def test_rounding_on_a_face_forms_no_scalar_block(monkeypatch):
    # the su(2) margin face at D=4: every block stays a GaussMatrix from the
    # layout through the congruence and the verifier
    problem = FACED_PROBLEMS["su2 margin D=4"]()
    outcome = solve_feasibility(problem)
    assert outcome.status == "candidate"
    calls = []
    from_scalars, scalars = GaussMatrix.from_scalars.__func__, GaussMatrix.scalars

    def counting_from_scalars(cls, M):
        calls.append("from_scalars")
        return from_scalars(cls, M)

    def counting_scalars(self):
        calls.append("scalars")
        return scalars(self)

    monkeypatch.setattr(GaussMatrix, "from_scalars", classmethod(counting_from_scalars))
    monkeypatch.setattr(GaussMatrix, "scalars", counting_scalars)
    cert = round_and_verify(problem, outcome.g)
    assert calls == []
    assert isinstance(cert, WeightedSosCertificate)
    assert verify_certificate(cert, problem.target, problem.skeleton.generators)
    assert cert.factors[0].psd


@pytest.mark.parametrize("name", ["su2 unit D=6"] + list(FACED_PROBLEMS))
def test_one_elimination_matches_the_two_pass_operator(name):
    if name == "su2 unit D=6":
        su2 = builtin("su2")
        op = GramSkeleton(su2, [AlgebraElement.unit(su2)], 6).operator
    else:
        op = FACED_PROBLEMS[name]().system.operator
    assert (op.independent, op.dependent, op.pivot_rows) == \
        reference_operator_pivots(op.rows, op.nvars)
