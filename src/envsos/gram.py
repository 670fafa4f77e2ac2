"""Gram-matrix feasibility problems for weighted sum-of-squares membership.

Given a hermitean target c, generators f = (1, f_2, ..., f_r) and an even
degree window D, the problem asks for Hermitian PSD blocks G_l with

    sum_l sum_{p,q} (G_l)_{pq} * NF(w_p^* f_l w_q) = c,

where W_l collects the normal-form monomials w with 2 deg(w) + deg(f_l) <= D.
Coefficient matching yields an exact rational linear system over the real
variable vector (diagonal entries, then re/im parts of off-diagonal entries).

Facial reduction.  When exact vectors are known that every feasible G_l
must annihilate (sos.forced_face_vectors derives them from representations
that map c to a singular matrix), a problem can be restricted to the face
G_l = Q_l^H G'_l Q_l, where the rows of Q_l span the vectors q with q z = 0
for every forced z.  No feasible point is lost, and a target with no
interior Gram (su(2)'s a^2 - 1, zero on spin 0) gets one on the face.  The
reduced rows are the shared skeleton's rows composed with that linear map,
so the skeleton stays target-independent; congruence() maps a reduced block
back to the full monomial basis, for certificates of both kinds.

The module also carries the commutative analogue used for symbol positivity,
which quotients out the kernel vectors forced by exact zeros of the form in
the same way.  All constraint data is exact; float copies are derived once
for the numeric solver.  Projections onto the affine subspace use the
Frobenius metric of the underlying (reduced) matrices, which in variable
coordinates is the diagonal weight W stored alongside the system.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NotHermitean, OddDegreeTarget
from .exactla import EchelonAccumulator, invert_exact, nullspace, rref
from .lie import LieAlgebra
from .pbw import AlgebraElement, term_sort_key
from .poly import CommutativePoly, squared_norm_poly
from .scalar import Scalar


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

    def gram_blocks_exact(self, g):
        """Rational/Scalar Hermitian blocks from an exact variable vector."""
        blocks = []
        for b, n in enumerate(self.block_sizes):
            G = [[Scalar(0) for _ in range(n)] for _ in range(n)]
            for p in range(n):
                G[p][p] = Scalar(Fraction(g[self.index[(b, p, p, "re")]]))
                for q in range(p + 1, n):
                    re = Fraction(g[self.index[(b, p, q, "re")]])
                    im = Fraction(g[self.index[(b, p, q, "im")]]) if self.complex_blocks else Fraction(0)
                    G[p][q] = Scalar(re, im)
                    G[q][p] = Scalar(re, -im)
            blocks.append(G)
        return blocks

    def embed_float(self, g):
        """Real symmetric block matrices (embedded 2n x 2n when complex)."""
        mats = []
        for b, n in enumerate(self.block_sizes):
            if self.complex_blocks:
                U = np.zeros((n, n))
                V = np.zeros((n, n))
                for p in range(n):
                    U[p, p] = g[self.index[(b, p, p, "re")]]
                    for q in range(p + 1, n):
                        U[p, q] = U[q, p] = g[self.index[(b, p, q, "re")]]
                        v = g[self.index[(b, p, q, "im")]]
                        V[p, q] = -v
                        V[q, p] = v
                M = np.block([[U, -V], [V, U]])
            else:
                M = np.zeros((n, n))
                for p in range(n):
                    M[p, p] = g[self.index[(b, p, p, "re")]]
                    for q in range(p + 1, n):
                        M[p, q] = M[q, p] = g[self.index[(b, p, q, "re")]]
            mats.append(M)
        return mats

    def unembed_float(self, mats):
        """Back from embedded blocks, averaging the redundant copies."""
        g = np.zeros(self.nvars)
        for b, n in enumerate(self.block_sizes):
            M = mats[b]
            if self.complex_blocks:
                U = 0.5 * (M[:n, :n] + M[n:, n:])
                V = 0.5 * (M[n:, :n] - M[:n, n:])
                U = 0.5 * (U + U.T)
                V = 0.5 * (V - V.T)
                for p in range(n):
                    g[self.index[(b, p, p, "re")]] = U[p, p]
                    for q in range(p + 1, n):
                        g[self.index[(b, p, q, "re")]] = U[p, q]
                        g[self.index[(b, p, q, "im")]] = V[q, p]
            else:
                M = 0.5 * (M + M.T)
                for p in range(n):
                    g[self.index[(b, p, p, "re")]] = M[p, p]
                    for q in range(p + 1, n):
                        g[self.index[(b, p, q, "re")]] = M[p, q]
        return g


class AffineSystem:
    """Exact system A g = b plus the W-metric projector onto its solutions."""

    def __init__(self, rows, rhs, weights):
        self.rows = rows            # list of Fraction rows
        self.rhs = [Fraction(v) for v in rhs]
        self.weights = weights      # Frobenius weights per variable
        self.nvars = len(weights)
        acc = EchelonAccumulator(self.nvars + 1)
        self.independent: list[int] = []
        for i, row in enumerate(rows):
            if acc.insert(row + [self.rhs[i]]):
                self.independent.append(i)
        # drop rows that are linear consequences *including* their rhs;
        # a later exact consistency check distinguishes genuine conflicts
        self.A_ind = [rows[i] for i in self.independent]
        self.b_ind = [self.rhs[i] for i in self.independent]
        winv = [1 / w for w in weights]
        self._winv = winv
        if self.A_ind:
            gram = [
                [
                    sum(ra[j] * rb[j] * winv[j] for j in range(self.nvars) if ra[j] and rb[j])
                    for rb in self.A_ind
                ]
                for ra in self.A_ind
            ]
            try:
                self.N = invert_exact(gram)
                self.degenerate = False
            except ValueError:
                # rows dependent only through the rhs column: system infeasible
                self.N = None
                self.degenerate = True
        else:
            self.N = None
            self.degenerate = False
        self._float_cache = None

    def project_exact(self, g):
        """W-metric projection of an exact vector onto {A x = b}."""
        if not self.A_ind:
            return list(g)
        r = [
            sum(row[j] * g[j] for j in range(self.nvars) if row[j]) - bi
            for row, bi in zip(self.A_ind, self.b_ind)
        ]
        lam = [sum(self.N[i][j] * r[j] for j in range(len(r)) if r[j]) for i in range(len(r))]
        out = list(g)
        for i, row in enumerate(self.A_ind):
            li = lam[i]
            if li:
                for j in range(self.nvars):
                    if row[j]:
                        out[j] -= self._winv[j] * row[j] * li
        return out

    def residual_exact(self, g):
        """Exact residuals of the *full* row set at g."""
        return [
            sum(row[j] * g[j] for j in range(self.nvars) if row[j]) - bi
            for row, bi in zip(self.rows, self.rhs)
        ]

    def exact_infeasibility_combination(self):
        """A rational y with y^T A = 0 and y^T b = 1, when the rows conflict.

        Returns None when the system is consistent.
        """
        m = len(self.rows)
        if m == 0:
            return None
        # row-reduce [A | b | I] and look for a row reading 0 = 1
        aug = [
            self.rows[i] + [self.rhs[i]] + [Fraction(1 if k == i else 0) for k in range(m)]
            for i in range(m)
        ]
        R, pivots = rref(aug)
        for r, c in enumerate(pivots):
            if c == self.nvars:  # pivot in the rhs column: inconsistent
                return R[r][self.nvars + 1 :]
        return None

    # -- float views -----------------------------------------------------------

    def float_data(self):
        if self._float_cache is None:
            A = np.array([[float(v) for v in row] for row in self.A_ind]) if self.A_ind else np.zeros((0, self.nvars))
            b = np.array([float(v) for v in self.b_ind]) if self.A_ind else np.zeros(0)
            N = (
                np.array([[float(v) for v in row] for row in self.N])
                if self.N is not None
                else np.zeros((0, 0))
            )
            winv = np.array([float(v) for v in self._winv])
            self._float_cache = (A, b, N, winv)
        return self._float_cache

    def project_float(self, g):
        A, b, N, winv = self.float_data()
        if A.shape[0] == 0:
            return g
        lam = N @ (A @ g - b)
        return g - winv * (A.T @ lam)

    def residual_float(self, g):
        A, b, _, _ = self.float_data()
        if A.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(A @ g - b)))

    def min_norm_point_float(self):
        A, b, N, winv = self.float_data()
        if A.shape[0] == 0:
            return np.zeros(self.nvars)
        return winv * (A.T @ (N @ b))


class SdpProblem:
    """Exact Gram feasibility problem for one target and generator list.

    `faces` optionally restricts block l to G_l = Q_l^H G'_l Q_l (None keeps
    a block whole).  The system is then written in the coordinates of the
    G'_l: the skeleton's rows composed with that linear map, with no new
    normal forms.  gram_blocks_exact always returns blocks over the full
    monomial bases.
    """

    def __init__(self, algebra: LieAlgebra, target: AlgebraElement,
                 generators, degree: int, skeleton: "GramSkeleton", faces=None):
        self.algebra = algebra
        self.target = target
        self.generators = list(generators)
        self.degree = degree
        self.skeleton = skeleton
        rhs = []
        for mono in skeleton.row_monomials:
            cm = target.coefficient(mono)
            rhs.append(cm.re)
            rhs.append(cm.im)
        if faces is None:
            self.faces = [None] * len(skeleton.bases)
            self.layout = skeleton.layout
            rows = skeleton.rows
        else:
            self.faces = list(faces)
            self.layout = VariableLayout(
                [len(b) if Q is None else len(Q) for b, Q in zip(skeleton.bases, self.faces)],
                complex_blocks=True)
            rows = _compose_rows(skeleton.rows, skeleton.layout, self.layout, self.faces)
        self.system = AffineSystem(rows, rhs, self.layout.weights)

    def gram_blocks_exact(self, g):
        return [
            G if Q is None else congruence(Q, G, len(basis))
            for G, Q, basis in zip(self.layout.gram_blocks_exact(g), self.faces,
                                   self.skeleton.bases)
        ]


def congruence(Q, Gp, n: int):
    """Q^H G' Q: the n x n block over the full basis of a Gram G' on the rows of Q."""
    zero = Scalar(0)  # Scalars are never changed in place, so one zero serves every entry
    out = [[zero] * n for _ in range(n)]
    support = [[(j, Scalar.coerce(x)) for j, x in enumerate(row) if x] for row in Q]
    for p, Sp in enumerate(support):
        for q, Sq in enumerate(support):
            s = Gp[p][q]
            if not s:
                continue
            for j, x in Sp:
                left = x.conj() * s
                row = out[j]
                for k, y in Sq:
                    row[k] = row[k] + left * y
    return out


def _compose_rows(rows, full: VariableLayout, reduced: VariableLayout, faces):
    """Rows over the full coordinates composed with G'_l -> Q_l^H G'_l Q_l.

    Each reduced coordinate is pushed through the map once, giving the full
    coordinates it moves; a composed row then reads only its own nonzeros.
    """
    moved_by = {}  # full column -> [(reduced column, coefficient)]
    for (b, p, q, part), col in reduced.index.items():
        Q = faces[b]
        if Q is None:
            moved_by.setdefault(full.index[(b, p, q, part)], []).append((col, Fraction(1)))
            continue
        # the Hermitian G' whose only coordinate is this one, set to 1
        Gp = [[Scalar(0)] * len(Q) for _ in Q]
        Gp[p][q] = Scalar(1) if part == "re" else Scalar(0, 1)
        Gp[q][p] = Gp[p][q].conj()
        for c, v in _coordinates(congruence(Q, Gp, full.block_sizes[b]), b, full).items():
            moved_by.setdefault(c, []).append((col, v))
    out = []
    for row in rows:
        composed = [Fraction(0)] * reduced.nvars
        for c, x in enumerate(row):
            if x:
                for col, v in moved_by.get(c, ()):
                    composed[col] += x * v
        out.append(composed)
    return out


def _coordinates(G, b: int, layout: VariableLayout):
    """The nonzero real coordinates of Hermitian block b, as {column: value}."""
    out = {}
    for p in range(len(G)):
        for q in range(p, len(G)):
            if G[p][q].re:
                out[layout.index[(b, p, q, "re")]] = G[p][q].re
            if p != q and G[p][q].im:
                out[layout.index[(b, p, q, "im")]] = G[p][q].im
    return out


class GramSkeleton:
    """Target-independent part: bases, normal forms and the constraint matrix."""

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
        # normal forms NF(w_p^* f_l w_q) for p <= q; the q<p entries follow by involution
        nf: list[dict] = []
        for basis, gen in zip(self.bases, self.generators):
            table = {}
            for p, wp in enumerate(basis):
                wp_star = AlgebraElement.monomial(algebra, wp).star()
                left = wp_star * gen
                for q in range(p, len(basis)):
                    table[(p, q)] = left * AlgebraElement.monomial(algebra, basis[q])
            nf.append(table)
        # assemble rows: coefficient matching per monomial, real and imaginary part
        combos = {}  # column -> {monomial: Scalar coefficient}
        for b, basis in enumerate(self.bases):
            for p in range(len(basis)):
                for q in range(p, len(basis)):
                    e_pq = nf[b][(p, q)]
                    if p == q:
                        col = self.layout.index[(b, p, p, "re")]
                        combos[col] = dict(e_pq.terms)
                    else:
                        e_qp = e_pq.star()
                        sum_re = e_pq + e_qp
                        diff = e_pq - e_qp
                        col = self.layout.index[(b, p, q, "re")]
                        combos[col] = dict(sum_re.terms)
                        col_im = self.layout.index[(b, p, q, "im")]
                        combos[col_im] = {m: Scalar(0, 1) * s for m, s in diff.terms.items()}
        support = set()
        for terms in combos.values():
            support.update(terms.keys())
        support.update(monomials_up_to(algebra.dim, degree))
        self.row_monomials = sorted(support, key=term_sort_key)
        nvars = self.layout.nvars
        self.rows = []
        for mono in self.row_monomials:
            row_re = [Fraction(0)] * nvars
            row_im = [Fraction(0)] * nvars
            for col, terms in combos.items():
                s = terms.get(mono)
                if s is not None:
                    row_re[col] = s.re
                    row_im[col] = s.im
            self.rows.append(row_re)
            self.rows.append(row_im)

    def problem_for(self, target: AlgebraElement, faces=None) -> SdpProblem:
        if target.algebra != self.algebra:
            raise ValueError("target belongs to a different algebra")
        deg = target.degree()
        if deg is not None and deg > self.degree:
            raise ValueError("target degree exceeds the window")
        if not target.is_hermitean():
            raise NotHermitean("target must be hermitean")
        return SdpProblem(self.algebra, target, self.generators, self.degree, self, faces)


def build_gram_problem(c: AlgebraElement, f, degree: int,
                       skeleton: GramSkeleton | None = None) -> SdpProblem:
    """Assemble the exact coefficient-matching system for c against f at D."""
    if skeleton is None:
        skeleton = GramSkeleton(c.algebra, f, degree)
    return skeleton.problem_for(c)


# -- commutative variant ---------------------------------------------------------


class CommGramProblem:
    """Plain sum-of-squares feasibility for a homogeneous real polynomial.

    At level k the polynomial decomposed is (t_1^2+...+t_d^2)^k * form; it is
    stored as `target`.  Verified zeros of the form force every feasible Gram
    to annihilate the corresponding monomial evaluation vectors.  Those exact
    rational kernel vectors are quotiented out up front (the working Gram
    lives on a basis of their orthogonal complement), which restores a
    relative interior and makes dyadic rounding land on boundary instances.
    """

    def __init__(self, form: CommutativePoly, kernel_points=None, level: int = 0):
        if not form.is_homogeneous():
            raise ValueError("commutative mode expects a homogeneous target")
        target = squared_norm_poly(form.nvars) ** level * form if level else form
        deg = target.degree()
        if deg is None:
            deg = 0
        if deg % 2 != 0:
            raise OddDegreeTarget("a sum of squares has even degree")
        self.target = target
        self.level = level
        self.monomials = monomials_of_degree(target.nvars, deg // 2)
        n = len(self.monomials)
        # reduction matrix Q: rows span the complement of the forced kernel
        kernel_vectors = _forced_kernel_vectors(target, self.monomials, kernel_points or [])
        self.Q = nullspace(kernel_vectors, n)
        # working basis: polynomials b_p(t) = sum_j Q[p][j] t^{alpha_j}
        self.basis_polys = [
            CommutativePoly(target.nvars, {self.monomials[j]: self.Q[p][j]
                                           for j in range(n) if self.Q[p][j]})
            for p in range(len(self.Q))
        ]
        m = len(self.basis_polys)
        self.layout = VariableLayout([m], complex_blocks=False)
        products = {}
        for p in range(m):
            for q in range(p, m):
                prod = self.basis_polys[p] * self.basis_polys[q]
                if p != q:
                    prod = prod.scale(2)  # off-diagonal entries appear twice
                products[(p, q)] = prod
        support = set(target.coeffs.keys())
        for prod in products.values():
            support.update(prod.coeffs.keys())
        self.row_monomials = sorted(support, key=term_sort_key)
        row_of = {mono: i for i, mono in enumerate(self.row_monomials)}
        rows = [[Fraction(0)] * self.layout.nvars for _ in self.row_monomials]
        for (p, q), prod in products.items():
            col = self.layout.index[(0, p, q, "re")]
            for mono, coeff in prod.coeffs.items():
                rows[row_of[mono]][col] = coeff
        rhs = [target.coeffs.get(mono, Fraction(0)) for mono in self.row_monomials]
        self.rows = rows
        self.system = AffineSystem(rows, rhs, self.layout.weights)

    def gram_blocks_exact(self, g):
        """The one exact block over the *monomial* basis: Q^T G' Q from the reduced vars."""
        return [congruence(self.Q, self.layout.gram_blocks_exact(g)[0], len(self.monomials))]

    @property
    def basis(self):
        return self.monomials


def _line_expansion(mono, t0, u, max_order: int):
    """Coefficients of s^0..s^max_order in prod_k (t0_k + s u_k)^{e_k}."""
    zero = Fraction(0)
    coeffs = [Fraction(1)]
    for k, e in enumerate(mono):
        if not e:
            continue
        a, b = Fraction(t0[k]), Fraction(u[k])
        if not a and not b:
            return [zero] * (max_order + 1)
        for _ in range(e):
            nxt = [zero] * min(len(coeffs) + 1, max_order + 1)
            for m, cm in enumerate(coeffs):
                if not cm:
                    continue
                if a and m < len(nxt):
                    nxt[m] += cm * a
                if b and m + 1 < len(nxt):
                    nxt[m + 1] += cm * b
            coeffs = nxt
    coeffs += [zero] * (max_order + 1 - len(coeffs))
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
    """
    if not kernel_points:
        return []
    nvars = target.nvars
    grads = [target.differentiate(k) for k in range(nvars)]
    hessians = [[grads[j].differentiate(k) for k in range(nvars)] for j in range(nvars)]
    deg = target.degree() or 0
    half_deg = deg // 2
    monomial_polys = [CommutativePoly.monomial(nvars, mono) for mono in monomials]
    vectors = []
    for t0 in kernel_points:
        vectors.append([w.evaluate(t0) for w in monomial_polys])
        H = [[hessians[j][k].evaluate(t0) for k in range(nvars)] for j in range(nvars)]
        for u in nullspace(H, nvars):
            # exact univariate expansion of the target along t0 + s u
            line = [Fraction(0)] * (deg + 1)
            for mono, q in target.coeffs.items():
                for m, cm in enumerate(_line_expansion(mono, t0, u, deg)):
                    if cm:
                        line[m] += q * cm
            nu = next((m for m, cm in enumerate(line) if cm), None)
            kappa = half_deg + 1 if nu is None else (nu + 1) // 2
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
