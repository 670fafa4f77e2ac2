"""Gram-matrix feasibility problems for weighted sum-of-squares membership.

Given a hermitean target c, generators f = (1, f_2, ..., f_r) and an even
degree window D, the problem asks for Hermitian PSD blocks G_l with

    sum_l sum_{p,q} (G_l)_{pq} * NF(w_p^* f_l w_q) = c,

where W_l collects the normal-form monomials w with 2 deg(w) + deg(f_l) <= D.
Coefficient matching, with each NF(w_p^* f_l w_q) formed as the product
(w_p^* f_l) w_q for every ordered pair (p, q), yields an exact rational linear
system over the real variable vector (diagonal entries, then re/im parts of
off-diagonal entries).  Every constraint row is a dict {column: Fraction} of
its nonzeros, int columns ascending, from where it is built to elimination.

Facial reduction.  When exact vectors are known that every feasible G_l
must annihilate, a problem can be restricted to the face G_l = Q_l^H G'_l
Q_l, where the rows of Q_l span the vectors q with q z = 0 for every forced
z.  Both problems take their faces this way: sos.forced_face_vectors derives
them from representations that map c to a singular matrix, and the
commutative analogue used for symbol positivity from exact zeros of the
form.  No feasible point is lost, and a target with no interior Gram (su(2)'s
a^2 - 1, zero on spin 0) gets one on the face.  _FacedProblem is the one
restriction and the one map back, for both: the reduced rows are the full
rows composed with that linear map (so a skeleton stays target-independent),
and congruence() maps a reduced block back to the full basis.  Each face
Q_l is a GaussMatrix, the exact kernel of exactla.nullspace, and both maps
run on its Gaussian integers.  All constraint data is exact; float copies
are derived once for the numeric solver, whose affine projections use the
Frobenius metric of the underlying (reduced) matrices: in variable
coordinates, the diagonal weight W stored alongside the system.

Only the rhs b of A g = b depends on the target.  An AffineOperator holds
what does not: the rows selected on A alone and their pivot completion,
both from one elimination of [A | I] in integers, and the float copies of
A_ind, W^-1 and N = (A_ind W^-1 A_ind^T)^-1.  A GramSkeleton builds one for
its unreduced rows and every unreduced target shares it; a faced or
commutative problem builds its own.  AffineSystem(op, rhs) is one target's
system: its rhs, the particular solution of the pivot rows and an exact
consistency check.  The exact projection keeps a rounded point on the free
columns and solves each pivot entry from its row, so it meets every row of a
consistent system.  A row is a consequence of the selected rows on [A | b] exactly
when it is one on A and the system is consistent, so the selection is the
same as selecting on [A | b] per target.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import NotHermitean, OddDegreeTarget, nonnegative_int
from .exactla import EchelonAccumulator, GaussMatrix, clear, nullspace
from .lie import LieAlgebra
from .numeric import check_block_cap
from .pbw import AlgebraElement, term_sort_key
from .poly import CommutativePoly, squared_norm_poly


def monomials_up_to(dim: int, max_deg: int):
    """All exponent tuples of total degree <= max_deg, canonical order."""
    flat = []
    for deg in range(max_deg + 1):
        flat.extend(_monomials_of_degree(dim, deg))
    return sorted(flat, key=term_sort_key)


def _monomials_of_degree(dim: int, deg: int):
    if dim == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _monomials_of_degree(dim - 1, deg - first):
            yield (first,) + rest


def monomials_of_degree(dim: int, deg: int):
    return sorted(_monomials_of_degree(dim, deg), key=term_sort_key)


class VariableLayout:
    """Real coordinates for a list of Hermitian (or symmetric) blocks."""

    def __init__(self, block_sizes, complex_blocks: bool):
        self.block_sizes = list(block_sizes)
        self.complex_blocks = complex_blocks
        self.index = {}  # (block, p, q, part) -> column
        self.weights = []  # Frobenius weight of each coordinate
        col = 0
        for b, n in enumerate(self.block_sizes):
            for p in range(n):
                for q in range(p, n):
                    if p == q:
                        self.index[(b, p, p, "re")] = col
                        self.weights.append(Fraction(2 if complex_blocks else 1))
                        col += 1
                    else:
                        self.index[(b, p, q, "re")] = col
                        self.weights.append(Fraction(4 if complex_blocks else 2))
                        col += 1
                        if complex_blocks:
                            self.index[(b, p, q, "im")] = col
                            self.weights.append(Fraction(4))
                            col += 1
        self.nvars = col
        # per block: diagonal positions and columns, then the strict upper
        # triangle's rows, columns and its re and im variable columns
        self._float_index = []
        for b, n in enumerate(self.block_sizes):
            p, q = np.triu_indices(n, 1)
            diag = [self.index[(b, i, i, "re")] for i in range(n)]
            re = [self.index[(b, i, j, "re")] for i, j in zip(p, q)]
            im = [self.index[(b, i, j, "im")] for i, j in zip(p, q)] if complex_blocks else []
            self._float_index.append((np.arange(n), np.array(diag, dtype=np.intp), p, q,
                                      np.array(re, dtype=np.intp), np.array(im, dtype=np.intp)))

    def gram_blocks_exact(self, g):
        """The GaussMatrix blocks of an exact vector g, cleared once; G[p][q] = re + i im, p < q."""
        ints, den = clear(g)
        blocks = []
        for b, n in enumerate(self.block_sizes):
            re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
            for p in range(n):
                re[p][p] = ints[self.index[(b, p, p, "re")]]
                for q in range(p + 1, n):
                    re[p][q] = re[q][p] = ints[self.index[(b, p, q, "re")]]
                    if self.complex_blocks:
                        im[p][q] = ints[self.index[(b, p, q, "im")]]
                        im[q][p] = -im[p][q]
            blocks.append(GaussMatrix(re, im, den))
        return blocks

    def embed_float(self, g):
        """The n x n float blocks: complex Hermitian, or real symmetric for a real layout.

        An off-diagonal pair p < q reads H[p,q] = re - i*im and H[q,p] = re + i*im.
        """
        mats = []
        for n, (d, dcols, p, q, re, im) in zip(self.block_sizes, self._float_index):
            H = np.zeros((n, n), dtype=complex if self.complex_blocks else float)
            H[d, d] = g[dcols]
            H[p, q] = g[re] - 1j * g[im] if self.complex_blocks else g[re]
            H[q, p] = H[p, q].conj()
            mats.append(H)
        return mats

    def unembed_float(self, mats):
        """Back from n x n blocks, reading the Hermitian part 0.5 (M + M^H)."""
        g = np.zeros(self.nvars)
        for M, (d, dcols, p, q, re, im) in zip(mats, self._float_index):
            H = 0.5 * (M + M.conj().T)
            g[dcols] = H[d, d].real
            g[re] = H[p, q].real
            if self.complex_blocks:
                g[im] = H[q, p].imag
        return g


class AffineOperator:
    """The target-independent half of A g = b: selected rows and their pivot completion.

    One elimination reduces [A_ind | I]: row i goes in as {**A_i, n + k: 1},
    k the rows selected so far, and is selected (stored) when its A part is
    left over.  Reduced row r reads p g[c] + sum_j e_j g[j] = t . b_ind in
    integers, with pivot column c, pivot entry p > 0, entries e_j on free
    columns and t the row that maps b_ind to its rhs, so on every solution
    the pivot entries are fixed by the free ones.  Rows are {column: value}
    of their nonzeros.  The float N = (A_ind W^-1 A_ind^T)^-1 of the numeric
    search is formed in floats; with no selected row it is 0 x 0.
    """

    def __init__(self, rows, weights):
        self.rows = rows
        self.nvars = n = len(weights)
        acc = EchelonAccumulator(n + len(rows))
        self.independent, self.dependent = [], []
        for i, row in enumerate(rows):
            selected = acc.insert({**row, n + len(self.independent): 1}, pivot_below=n)
            (self.independent if selected else self.dependent).append(i)
        self.winv = [1 / Fraction(w) for w in weights]
        # (c, p, e, t) per reduced row; a row is zero left of c and in other pivot columns
        self.pivot_rows = [(c, row[c], {j: x for j, x in row.items() if c < j < n},
                            {j - n: x for j, x in row.items() if j >= n})
                           for c, row in acc.reduced_rows()]
        self._float_cache = None

    def row_value(self, i, g):
        """Row i of A applied to g."""
        return sum(x * g[j] for j, x in self.rows[i].items())

    def float_data(self):
        """A_ind, N and W^-1 as float arrays, built on first use."""
        if self._float_cache is None:
            A = np.zeros((len(self.independent), self.nvars))
            for k, i in enumerate(self.independent):
                for j, x in self.rows[i].items():
                    A[k, j] = float(x)
            winv = np.array([float(v) for v in self.winv])
            self._float_cache = (A, np.linalg.inv((A * winv) @ A.T), winv)
        return self._float_cache


class AffineSystem:
    """Exact system A g = b plus its pivot completion.

    The operator `op` (row selection, pivot rows, float copies) depends only
    on the rows and may be shared.  What is per target is the rhs, the
    particular solution (free entries 0, each pivot entry from its reduced
    rhs t . b_ind) and an exact consistency check: the system is consistent
    iff the particular solution satisfies the rows that were not selected.
    """

    def __init__(self, op: AffineOperator, rhs):
        self.operator = op
        self.rhs = [Fraction(v) for v in rhs]
        self.independent = op.independent
        self.b_ind = [self.rhs[i] for i in op.independent]
        b_num, den = clear(self.b_ind)
        self.particular = [0] * op.nvars  # free entries 0, each pivot entry t . b_ind / p
        for c, p, _, t in op.pivot_rows:
            self.particular[c] = Fraction(sum(x * b_num[k] for k, x in t.items()), den * p)
        self.degenerate = any(op.row_value(i, self.particular) != self.rhs[i]
                              for i in op.dependent)
        self._b_float = None

    def project_exact(self, g):
        """g kept on the free columns, each pivot entry solved exactly from its row."""
        g_num, den = clear(g)
        out = list(g)
        for c, p, e, _ in self.operator.pivot_rows:
            free = sum(x * g_num[j] for j, x in e.items())
            out[c] = self.particular[c] - Fraction(free, den * p)
        return out

    def exact_infeasibility_combination(self):
        """A rational y with y^T A = 0 and y^T b = 1, when the rows conflict.

        Returns None when the system is consistent.
        """
        rows, n = self.operator.rows, self.operator.nvars
        # row-reduce the sparse rows of [A | b | I]; a pivot in the rhs column reads 0 = 1
        acc = EchelonAccumulator(n + 1 + len(rows))
        for i, (row, b) in enumerate(zip(rows, self.rhs)):
            acc.insert({**row, n: b, n + 1 + i: 1} if b else {**row, n + 1 + i: 1})
        for c, row in acc.reduced_rows():
            if c == n:
                return [Fraction(row.get(j, 0), row[n]) for j in range(n + 1, n + 1 + len(rows))]
        return None

    # -- float views -----------------------------------------------------------

    def float_data(self):
        A, N, winv = self.operator.float_data()
        if self._b_float is None:
            self._b_float = np.array([float(v) for v in self.b_ind])
        return A, self._b_float, N, winv

    def project_float(self, g):
        A, b, N, winv = self.float_data()
        lam = N @ (A @ g - b)
        return g - winv * (A.T @ lam)

    def residual_float(self, g):
        A, b, _, _ = self.float_data()
        return float(np.max(np.abs(A @ g - b), initial=0.0))

    def min_norm_point_float(self):
        A, b, N, winv = self.float_data()
        return winv * (A.T @ (N @ b))


class _FacedProblem:
    """The face restriction and the map back to full blocks, shared by both Gram problems."""

    def _restrict(self, rows, full: VariableLayout, faces):
        """(layout, rows) on faces, one GaussMatrix Q_l or None (a whole block) per block.

        Checks the block cap on the reduced sizes before any row is composed,
        and returns full and rows untouched when no block has a face.
        """
        self.faces, self._full_sizes = faces, full.block_sizes
        sizes = [n if Q is None else len(Q.re) for n, Q in zip(full.block_sizes, faces)]
        check_block_cap(sizes)
        if all(Q is None for Q in faces):
            return full, rows
        reduced = VariableLayout(sizes, full.complex_blocks)
        return reduced, _compose_rows(rows, full, reduced, faces)

    def gram_blocks_exact(self, g):
        """The exact blocks over the full bases: Q_l^H G'_l Q_l on a face, G_l on a whole block."""
        return [G if Q is None else congruence(Q, G, n)
                for G, Q, n in zip(self.layout.gram_blocks_exact(g), self.faces, self._full_sizes)]


class SdpProblem(_FacedProblem):
    """Exact Gram feasibility problem for one target on a skeleton (algebra, generators, D).

    `faces` (None: no face) restricts block l to G_l = Q_l^H G'_l Q_l.  The
    system is then written in the coordinates of the G'_l: the skeleton's
    rows composed with that linear map, with no new normal forms.  An
    unfaced problem shares the skeleton's operator.
    """

    def __init__(self, target: AlgebraElement, skeleton: "GramSkeleton", faces=None):
        self.target = target
        self.skeleton = skeleton
        rhs = []
        for mono in skeleton.row_monomials:
            cm = target.coefficient(mono)
            rhs.append(cm.re)
            rhs.append(cm.im)
        self.layout, rows = self._restrict(skeleton.rows, skeleton.layout,
                                           list(faces or [None] * len(skeleton.bases)))
        op = (skeleton.operator if self.layout is skeleton.layout
              else AffineOperator(rows, self.layout.weights))
        self.system = AffineSystem(op, rhs)


def congruence(Q: GaussMatrix, Gp: GaussMatrix, n: int) -> GaussMatrix:
    """Q^H G' Q: the n x n block over the full basis of a Gram G' on the rows of Q."""
    if not Q.re:  # the empty face
        return GaussMatrix.zero(n)
    QH = GaussMatrix(list(map(list, zip(*Q.re))), [[-x for x in c] for c in zip(*Q.im)], Q.den)
    return QH @ Gp @ Q


def _compose_rows(rows, full: VariableLayout, reduced: VariableLayout, faces):
    """Rows over the full coordinates composed with G'_l -> Q_l^H G'_l Q_l.

    faces holds each Q_l cleared to a GaussMatrix (re + i im) / d, or None.
    Reduced coordinate (p, q) moves the upper triangle of T + T^H (T alone
    when p = q), T = conj(Q_p)^T s Q_q, s = 1 (re) or i (im), formed in
    integers over d^2 from the nonzeros of rows p and q.  A composed row then
    reads only its own nonzeros and keeps no entry that cancels to zero.
    """
    moved_by = {}  # full column -> [(reduced column, coefficient)]
    supports = [None if Q is None else [[(j, a, b) for j, (a, b) in enumerate(zip(ra, ia)) if a or b]
                                        for ra, ia in zip(Q.re, Q.im)] for Q in faces]
    for (b, p, q, part), col in reduced.index.items():
        if faces[b] is None:
            moved_by.setdefault(full.index[(b, p, q, part)], []).append((col, Fraction(1)))
            continue
        Sq = supports[b][q] if part == "re" else [(k, -d, c) for k, c, d in supports[b][q]]
        T = {(j, k): (a * c + bj * d, a * d - bj * c)  # conj(a + i bj) (c + i d)
             for j, a, bj in supports[b][p] for k, c, d in Sq}
        for j, k in {(min(jk), max(jk)) for jk in T}:
            re, im = T.get((j, k), (0, 0))
            if p != q:
                re2, im2 = T.get((k, j), (0, 0))
                re, im = re + re2, im - im2
            for x, coordinate in ((re, "re"), (im, "im")):
                if x:  # im is zero on the diagonal
                    moved_by.setdefault(full.index[(b, j, k, coordinate)], []).append(
                        (col, Fraction(x, faces[b].den ** 2)))
    out = []
    for row in rows:
        composed = {}
        for c, x in row.items():
            for col, v in moved_by.get(c, ()):
                composed[col] = composed.get(col, 0) + x * v
        out.append({col: composed[col] for col in sorted(composed) if composed[col]})
    return out


class GramSkeleton:
    """Target-independent part: bases, the normal forms NF(w_p^* f_l w_q), each the
    product (w_p^* f_l) w_q for an ordered pair (p, q), the constraint matrix and,
    from the first unreduced target on, the AffineOperator of its rows."""

    def __init__(self, algebra: LieAlgebra, generators, degree: int):
        if degree % 2 != 0 or degree < 0:
            raise OddDegreeTarget("the degree window must be even and nonnegative")
        unit = AlgebraElement.unit(algebra)
        generators = list(generators)
        if not generators or generators[0] != unit:
            raise ValueError("the first generator must be the unit element")
        for gidx, gen in enumerate(generators):
            if gen.is_zero():
                raise ValueError(f"generator {gidx + 1} is zero")
            if not gen.is_hermitean():
                raise NotHermitean(f"generator {gidx + 1} is not hermitean")
        self.algebra = algebra
        self.generators = generators
        self.degree = degree
        self.bases = []
        for gen in generators:
            gdeg = gen.degree()
            cap = (degree - gdeg) // 2
            basis = monomials_up_to(algebra.dim, cap) if cap >= 0 else []
            self.bases.append(basis)
        self.layout = VariableLayout([len(b) for b in self.bases], complex_blocks=True)
        # NF(w_p^* f_l w_q) = left_p * w_q for every ordered pair, left_p = w_p^* f_l.
        # (column, e, times_i): the column's coefficients are e, or i e when times_i
        columns = []
        index = self.layout.index
        for b, (basis, gen) in enumerate(zip(self.bases, self.generators)):
            monos = [AlgebraElement.monomial(algebra, w) for w in basis]
            nf = [[left * w for w in monos] for left in [w.star() * gen for w in monos]]
            for p, nf_p in enumerate(nf):
                columns.append((index[(b, p, p, "re")], nf_p[p], False))
                for q in range(p + 1, len(basis)):
                    columns.append((index[(b, p, q, "re")], nf_p[q] + nf[q][p], False))
                    columns.append((index[(b, p, q, "im")], nf_p[q] - nf[q][p], True))
        # one row pair (real part, imaginary part) per monomial; each column is
        # scattered once, in ascending order
        support = set(monomials_up_to(algebra.dim, degree))
        for _, e, _ in columns:
            support.update(e.terms)
        self.row_monomials = sorted(support, key=term_sort_key)
        at = {m: 2 * i for i, m in enumerate(self.row_monomials)}
        self.rows = [{} for _ in range(2 * len(at))]
        for col, e, times_i in columns:
            for m, s in e.terms.items():
                re, im = (-s.im, s.re) if times_i else (s.re, s.im)
                if re:
                    self.rows[at[m]][col] = re
                if im:
                    self.rows[at[m] + 1][col] = im

    @functools.cached_property
    def operator(self) -> AffineOperator:
        """The AffineOperator of the unreduced rows, built for the first unreduced target."""
        return AffineOperator(self.rows, self.layout.weights)

    def problem_for(self, target: AlgebraElement, faces=None) -> SdpProblem:
        if target.algebra != self.algebra:
            raise ValueError("target belongs to a different algebra")
        deg = target.degree()
        if deg is not None and deg > self.degree:
            raise ValueError("target degree exceeds the window")
        if not target.is_hermitean():
            raise NotHermitean("target must be hermitean")
        return SdpProblem(target, self, faces)


def build_gram_problem(c: AlgebraElement, f, degree: int,
                       skeleton: GramSkeleton | None = None) -> SdpProblem:
    """Assemble the exact coefficient-matching system for c against f at D."""
    if skeleton is None:
        skeleton = GramSkeleton(c.algebra, f, degree)
    return skeleton.problem_for(c)


# -- commutative variant ---------------------------------------------------------


class CommGramProblem(_FacedProblem):
    """Plain sum-of-squares feasibility for a homogeneous real polynomial.

    At level k the polynomial decomposed is (t_1^2+...+t_d^2)^k * form; it is
    stored as `target`.  The rows are built unreduced, over the monomials w
    of half its degree: column (p, q) meets only the row of t^(w_p + w_q).
    Verified zeros of the form force every feasible Gram to annihilate exact
    vectors; the rows are then restricted to the face G = Q^T G' Q, which
    restores a relative interior and makes dyadic rounding land on boundary
    instances, and a row is dropped when it is zero where the target has no
    term.  Q is None when nothing is forced.  A level that is not a
    nonnegative int is a ValueError.
    """

    def __init__(self, form: CommutativePoly, kernel_points=None, level: int = 0):
        level = nonnegative_int(level, "level")
        if not form.is_homogeneous():
            raise ValueError("commutative mode expects a homogeneous target")
        target = squared_norm_poly(form.nvars) ** level * form if level else form
        deg = target.degree() or 0
        if deg % 2 != 0:
            raise OddDegreeTarget("a sum of squares has even degree")
        self.target = target
        self.level = level
        self.monomials = monomials_of_degree(target.nvars, deg // 2)
        n = len(self.monomials)
        full = VariableLayout([n], complex_blocks=False)
        row_monomials = monomials_of_degree(target.nvars, deg)
        at = {mono: i for i, mono in enumerate(row_monomials)}
        rows = [{} for _ in row_monomials]
        for (_, p, q, _), col in full.index.items():  # ascending columns
            mono = tuple(a + b for a, b in zip(self.monomials[p], self.monomials[q]))
            rows[at[mono]][col] = Fraction(1 if p == q else 2)  # off-diagonal entries appear twice
        kernel_vectors = _forced_kernel_vectors(target, self.monomials, kernel_points or [])
        self.Q = (nullspace(GaussMatrix(kernel_vectors, [[0] * n for _ in kernel_vectors]), n)
                  if kernel_vectors else None)
        self.layout, rows = self._restrict(rows, full, [self.Q])
        # working basis: b_p(t) = sum_j Q[p][j] t^{w_j}, Q[p][j] = Q.re[p][j] / Q.den
        self.basis_polys = ([CommutativePoly.monomial(target.nvars, w) for w in self.monomials]
                            if self.Q is None else
                            [CommutativePoly(target.nvars, {w: Fraction(x, self.Q.den)
                                                            for w, x in zip(self.monomials, row)})
                             for row in self.Q.re])
        kept = [i for i, mono in enumerate(row_monomials) if rows[i] or mono in target.coeffs]
        self.row_monomials = [row_monomials[i] for i in kept]
        rhs = [target.coeffs.get(mono, Fraction(0)) for mono in self.row_monomials]
        op = AffineOperator([rows[i] for i in kept], self.layout.weights)
        self.system = AffineSystem(op, rhs)


def _line_expansion(mono, t0, u, max_order: int):
    """Coefficients of s^0..s^max_order in prod_k (t0_k + s u_k)^{e_k}, for integer t0 and u."""
    coeffs = [1] + [0] * max_order
    for a, b, e in zip(t0, u, mono):
        if e:
            row = [math.comb(e, i) * a ** (e - i) * b ** i for i in range(min(e, max_order) + 1)]
            coeffs = [sum(coeffs[m - i] * r for i, r in enumerate(row[:m + 1]))
                      for m in range(max_order + 1)]
    return coeffs


def _forced_kernel_vectors(target: CommutativePoly, monomials, kernel_points):
    """Exact vectors annihilated by every feasible Gram of the target.

    At a verified zero t0, every square in a decomposition vanishes, so the
    monomial evaluation vector v(t0) is in the common kernel.  Along a line
    t0 + s u on which the target vanishes to order nu, the leading coefficient
    of sum q_j(s)^2 is itself a sum of squares, so every q_j vanishes to order
    ceil(nu/2); the directional derivative vectors of the monomial basis up to
    that order are then forced kernel vectors too.  Null directions of the
    exact Hessian at t0 are the candidates worth expanding.

    t0 is cleared to integers, and u is an integer row of the Hessian's
    kernel (over its one denominator).  Every monomial has degree h, so
    this scales each order-m vector by one factor d0^(h-m) du^m and leaves
    nu, and the span of the vectors, unchanged.  As the target is homogeneous,
    lambda t0 gives t0's vectors times lambda^(h-m), so a zero on the line of
    one expanded before (same primitive integer direction up to sign) is skipped.
    """
    if not kernel_points:
        return []
    nvars = target.nvars
    grads = [target.differentiate(k) for k in range(nvars)]
    hessians = [[grads[j].differentiate(k) for k in range(nvars)] for j in range(nvars)]
    deg = target.degree() or 0
    vectors, expanded = [], set()
    for point in kernel_points:
        t0, _ = clear(point)
        g = math.gcd(*t0) or 1
        ray = max(tuple(a // g for a in t0), tuple(-a // g for a in t0))  # first nonzero > 0
        if ray in expanded:
            continue
        expanded.add(ray)
        vectors.append([math.prod(a ** e for a, e in zip(t0, mono)) for mono in monomials])
        H = [[hessians[j][k].evaluate(t0) for k in range(nvars)] for j in range(nvars)]
        for u in nullspace(GaussMatrix.from_scalars(H), nvars).re:
            # exact univariate expansion of the target along t0 + s u
            line = [(q, _line_expansion(mono, t0, u, deg)) for mono, q in target.coeffs.items()]
            nu = next((m for m in range(deg + 1) if sum(q * e[m] for q, e in line)), None)
            kappa = deg // 2 + 1 if nu is None else (nu + 1) // 2
            if kappa < 2:
                continue
            # truncation keeps the low orders exact: one expansion per monomial
            # at order kappa - 1 serves every m below kappa
            expansions = [_line_expansion(mono, t0, u, kappa - 1) for mono in monomials]
            for m in range(1, kappa):
                vec = [coeffs[m] for coeffs in expansions]
                if any(vec):
                    vectors.append(vec)
    return vectors
