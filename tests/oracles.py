"""Independent oracles used to cross-check the implementation.

These deliberately avoid the code paths they test: word straightening uses a
leftmost-descent rewriting on explicit words (the package peels the rightmost
generator), and the PSD oracle goes through characteristic polynomial
coefficient signs instead of LDL.  reference_ldl_hermitian is a frozen copy of
an earlier LDL^* implementation, and reference_verify_certificate and
reference_verify_commutative_certificate are frozen copies of the earlier
verifiers, which re-expanded a certificate term by term in AlgebraElement and
Fraction arithmetic; they are the references for differential tests.
ReferenceEchelonAccumulator is a frozen copy of the earlier row echelon
accumulator, which eliminated in Fraction and Scalar arithmetic, and
reference_rref and reference_nullspace are textbook Gauss-Jordan in the
entries' own arithmetic.
hermitian_form and residual_exact evaluate v^* M v and the residuals of an
affine system's full row set, and echelon_rank reads an EchelonAccumulator's
rank, for checks only.  reference_cmat_mul and
reference_metric_adjoint are frozen copies of the earlier complex matrix
product and metric adjoint, which ran in Scalar arithmetic, and cmat_zero,
cmat_add, cmat_sub, cmat_scale, cmat_is_zero and cmat_is_hermitian are the
earlier Scalar matrix helpers.  ReferenceRep is a frozen copy of the earlier
representation checks and evaluation, which held the generator matrices as
Scalars.
reference_mul_monomial_gen, reference_mul_monomials and
reference_star_monomial are frozen copies of the earlier straightening loops,
each with its own generator-step loop and a memo passed in, and
reference_skeleton_rows is the earlier Gram skeleton assembly, which took
NF(w_q^* f w_p) as the star of NF(w_p^* f w_q) and scanned every column per
row monomial.  reference_comm_problem is the earlier commutative Gram
construction: it expanded forced kernel vectors in Fractions
(reference_line_expansion), multiplied every pair of reduced basis
polynomials and wrote their coefficients into the rows.
reference_congruence, reference_compose_rows and reference_coordinates are
frozen copies of the earlier facial-reduction maps, which built a Scalar G'
per reduced coordinate and multiplied Q^H G' Q in Scalar arithmetic;
reference_gram_blocks_exact is the earlier layout map from a variable vector
to Gram blocks, which built them as Scalar rows; and
reference_operator_pivots is the earlier two-pass AffineOperator: a row
selection on A alone, then a second elimination of [A_ind | I].
reference_check_assumption_ii is the earlier symbol check, which ran the exact
sign scan before any level of the sphere hierarchy.  reference_poly_render is
the earlier CommutativePoly.render, with its own term order and coefficient
text instead of the element renderer.
"""

from __future__ import annotations

import random
from fractions import Fraction

from envsos.errors import AlgebraMismatch, ContextInvalid
from envsos.exactla import (
    EchelonAccumulator,
    GaussMatrix,
    LdlResult,
    cmat_identity,
    ldl_hermitian,
)
from envsos.gram import VariableLayout, monomials_of_degree, monomials_up_to
from envsos.lie import LieAlgebra
from envsos.numeric import SolveOptions
from envsos.pbw import AlgebraElement, term_sort_key
from envsos.poly import CommutativePoly, squared_norm_poly
from envsos.scalar import Scalar, format_fraction
from envsos.sos import commutative_sos, sample_sign_information


def straighten_word(algebra: LieAlgebra, word) -> dict:
    """Normal form of x_{w1} x_{w2} ... by leftmost-descent rewriting.

    Returns {exponent tuple: Fraction}.  Straightens the *first* out-of-order
    adjacent pair each time, so the reduction order differs from the package's.
    """
    result: dict = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        pos = None
        for idx in range(len(w) - 1):
            if w[idx] > w[idx + 1]:
                pos = idx
                break
        if pos is None:
            mono = [0] * algebra.dim
            for g in w:
                mono[g] += 1
            key = tuple(mono)
            result[key] = result.get(key, Fraction(0)) + coeff
            continue
        j, i = w[pos], w[pos + 1]
        swapped = w[:pos] + (i, j) + w[pos + 2 :]
        stack.append((swapped, coeff))
        for k in range(algebra.dim):
            ck = algebra.c[j][i][k]
            if ck:
                contracted = w[:pos] + (k,) + w[pos + 2 :]
                stack.append((contracted, coeff * ck))
    return {m: q for m, q in result.items() if q}


def word_element(algebra: LieAlgebra, word, coeff=1) -> AlgebraElement:
    """AlgebraElement of a word, built through the oracle straightening."""
    terms = {m: Scalar(q) * Scalar.coerce(coeff) for m, q in straighten_word(algebra, word).items()}
    return AlgebraElement(algebra, terms)


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def random_element(algebra: LieAlgebra, rng: random.Random, max_degree: int = 4,
                   terms: int = 3) -> AlgebraElement:
    """Sparse random element with bounded total degree."""
    data = {}
    for _ in range(terms):
        deg = rng.randint(0, max_degree)
        mono = [0] * algebra.dim
        for _ in range(deg):
            mono[rng.randrange(algebra.dim)] += 1
        data[tuple(mono)] = random_scalar(rng)
    return AlgebraElement(algebra, data)


def random_hermitean(algebra: LieAlgebra, rng: random.Random, max_degree: int = 3,
                     terms: int = 3) -> AlgebraElement:
    e = random_element(algebra, rng, max_degree, terms)
    return e + e.star()


def char_poly(H) -> list:
    """Characteristic polynomial coefficients of a Scalar matrix.

    Faddeev-LeVerrier: returns [1, c1, ..., cn] with
    det(lambda I - H) = lambda^n + c1 lambda^{n-1} + ... + cn, exact.
    """
    n = len(H)
    coeffs = [Scalar(1)]
    N = [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    M = None
    for k in range(1, n + 1):
        M = [[sum((H[i][t] * N[t][j] for t in range(n)), Scalar(0)) for j in range(n)]
             for i in range(n)]
        trace = sum((M[i][i] for i in range(n)), Scalar(0))
        ck = -(trace / Scalar(k))
        coeffs.append(ck)
        N = [[M[i][j] + (ck if i == j else Scalar(0)) for j in range(n)] for i in range(n)]
    return coeffs


def psd_by_char_poly(H) -> bool:
    """Hermitian H is PSD iff (-1)^k c_k >= 0 for every k (real eigenvalues)."""
    coeffs = char_poly(H)
    for k, ck in enumerate(coeffs):
        assert ck.is_real(), "characteristic polynomial of a Hermitian matrix is real"
        if k % 2 == 0 and ck.re < 0:
            return False
        if k % 2 == 1 and ck.re > 0:
            return False
    return True


def commutative_product(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Multiplication oracle valid only in abelian algebras."""
    out: dict = {}
    for m1, s1 in e1.terms.items():
        for m2, s2 in e2.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Scalar(0)) + s1 * s2
    return AlgebraElement(e1.algebra, out)


def planted_gram_vector(layout, rng: random.Random):
    """Exact coordinates of positive definite blocks: n on the diagonal of a
    size-n block, off-diagonal parts in [-1/2, 1/2] (diagonally dominant)."""
    g = [Fraction(0)] * layout.nvars
    for (b, p, q, _), col in layout.index.items():
        g[col] = Fraction(layout.block_sizes[b]) if p == q else Fraction(rng.randint(-2, 2), 4)
    return g


def planted_target(skeleton, rng: random.Random) -> AlgebraElement:
    """A target with a positive definite Gram on the skeleton: its rows applied to one."""
    g = planted_gram_vector(skeleton.layout, rng)
    values = [sum(x * g[j] for j, x in row.items()) for row in skeleton.rows]
    return AlgebraElement(skeleton.algebra, {
        mono: Scalar(re, im)
        for mono, re, im in zip(skeleton.row_monomials, values[::2], values[1::2])})


def reference_ldl_hermitian(M) -> LdlResult:
    """Frozen copy of the earlier exact LDL^*, kept as a differential reference.

    It keeps a multiplier dict per step, a separate (column, pivot) log for
    the witness lift and updates the full Schur complement square; the
    package's ldl_hermitian must return the same perm, diag, lower, witness
    and witness_value on exactly Hermitian input.

    Pivots are chosen as the largest remaining diagonal entry.  A zero pivot
    whose row is not identically zero certifies indefiniteness, as does any
    negative diagonal entry of the Schur complement.
    """
    n = len(M)
    A = [[M[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if not A[i][i].is_real():
            raise ValueError("matrix is not Hermitian: complex diagonal")
    perm: list[int] = []  # perm[k] = original index processed at step k
    active = list(range(n))
    diag: list[Fraction] = []
    # lower_cols[k] holds the multiplier column at step k, indexed by original row
    lower_cols: list[dict] = []

    def negative_witness(step_vectors, vec_in_current):
        """Undo the elimination steps to express the witness in original frame."""
        # vec_in_current: {original_index: Scalar} in the current Schur frame.
        v = dict(vec_in_current)
        for col, pivot_idx in reversed(step_vectors):
            # elimination replaced rows r by r - L[r]*pivot_row; the quadratic
            # form witness lifts by subtracting L^* components on the pivot.
            correction = Scalar(0)
            for r, lv in col.items():
                if r in v:
                    correction = correction + lv.conj() * v[r]
            if correction:
                v[pivot_idx] = v.get(pivot_idx, Scalar(0)) - correction
        out = [Scalar(0)] * n
        for idx, val in v.items():
            out[idx] = val
        return out

    steps = []  # (multiplier column dict, pivot original index)
    while active:
        # diagonal pivoting: take the largest remaining diagonal entry
        pivot = max(active, key=lambda r: A[r][r].re)
        piv_val = A[pivot][pivot].re
        if piv_val < 0:
            w = negative_witness(steps, {pivot: Scalar(1)})
            return LdlResult(False, witness=w, witness_value=piv_val)
        if piv_val == 0:
            for r in active:
                if r != pivot and A[r][pivot]:
                    # 2x2 block [[0, m*],[m, A_rr]] is indefinite:
                    # phi = e_r + t*conj(m)*e_pivot with m = A[r][pivot] gives
                    # value A_rr + 2t|m|^2; pick t so the value is -1.
                    m = A[r][pivot]
                    norm = (m * m.conj()).re
                    t = (-1 - A[r][r].re) / (2 * norm)
                    vec = {r: Scalar(1), pivot: Scalar(t) * m.conj()}
                    value = A[r][r].re + 2 * t * norm
                    w = negative_witness(steps, vec)
                    return LdlResult(False, witness=w, witness_value=value)
            active.remove(pivot)
            perm.append(pivot)
            diag.append(Fraction(0))
            lower_cols.append({})
            continue
        active.remove(pivot)
        perm.append(pivot)
        col = {}
        for r in active:
            if A[r][pivot]:
                col[r] = A[r][pivot] / Scalar(piv_val)
        # Schur update: A_rs -= L_r * piv * conj(L_s)
        for r in active:
            lr = col.get(r)
            if lr is None:
                continue
            for s in active:
                ls = col.get(s)
                if ls is None:
                    continue
                A[r][s] = A[r][s] - lr * Scalar(piv_val) * ls.conj()
        diag.append(piv_val)
        lower_cols.append(col)
        steps.append((col, pivot))

    # assemble L in the permuted frame for the stored factorization
    order = {orig: k for k, orig in enumerate(perm)}
    L = cmat_identity(n)
    for k, col in enumerate(lower_cols):
        for orig, val in col.items():
            if order[orig] > k:
                L[order[orig]][k] = val
    return LdlResult(True, perm=perm, diag=diag, lower=L)


def _reference_block_factors(grams, sizes):
    if len(grams) != len(sizes):
        return None
    for gram, n in zip(grams, sizes):
        if len(gram) != n or any(len(row) != n for row in gram):
            return None
        if not cmat_is_hermitian(gram):
            return None
    factors = []
    for gram in grams:
        res = ldl_hermitian(GaussMatrix.from_scalars(gram))
        if not res.psd:
            return None
        factors.append(res)
    return factors


def reference_expansion(algebra, bases, grams, generators) -> AlgebraElement:
    """sum_l sum_pq (G_l)_pq w_p^* f_l w_q, one AlgebraElement per term."""
    total = AlgebraElement.zero(algebra)
    for basis, gram, gen in zip(bases, grams, generators):
        for p, wp in enumerate(basis):
            left = AlgebraElement.monomial(algebra, wp).star() * gen
            for q, wq in enumerate(basis):
                if gram[p][q]:
                    total = total + (left * AlgebraElement.monomial(algebra, wq)).scale(gram[p][q])
    return total


def reference_verify_certificate(cert, target: AlgebraElement, generators) -> bool:
    """Frozen copy of the earlier weighted verifier; it stores no factors."""
    generators = list(generators)
    if len(cert.bases) != len(generators) or cert.target != target:
        return False
    for basis, gen in zip(cert.bases, generators):
        if any(2 * sum(w) + (gen.degree() or 0) > cert.degree for w in basis):
            return False
    grams = [G.scalars() for G in cert.grams]
    if _reference_block_factors(grams, [len(basis) for basis in cert.bases]) is None:
        return False
    return reference_expansion(target.algebra, cert.bases, grams, generators) == target


def reference_verify_commutative_certificate(cert, target: CommutativePoly) -> bool:
    """Frozen copy of the earlier commutative verifier; it stores no factor."""
    if cert.target != target:
        return False
    level = cert.level
    if type(level) is not int or level < 0:
        return False
    if not target.is_zero() and (
        2 * level > target.degree()
        or target.exact_quotient(squared_norm_poly(target.nvars) ** level) is None
    ):
        return False
    gram = cert.gram.scalars()
    if not all(s.is_real() for row in gram for s in row):
        return False
    if _reference_block_factors([gram], [len(cert.basis)]) is None:
        return False
    out: dict = {}
    for p, wp in enumerate(cert.basis):
        for q, wq in enumerate(cert.basis):
            s = gram[p][q]
            if s:
                mono = tuple(a + b for a, b in zip(wp, wq))
                out[mono] = out.get(mono, Fraction(0)) + s.re
    return CommutativePoly(target.nvars, out) == target


def reference_mul_monomial_gen(algebra: LieAlgebra, mono, g: int, cache: dict) -> dict:
    """Frozen copy of the earlier pbw._mul_monomial_gen, memoized in `cache`."""
    key = (mono, g)
    hit = cache.get(key)
    if hit is not None:
        return hit
    j = -1
    for idx in range(algebra.dim - 1, -1, -1):
        if mono[idx]:
            j = idx
            break
    if j <= g:
        lst = list(mono)
        lst[g] += 1
        result = {tuple(lst): Fraction(1)}
        cache[key] = result
        return result
    head = list(mono)
    head[j] -= 1
    head = tuple(head)
    result: dict = {}
    for m1, q1 in reference_mul_monomial_gen(algebra, head, g, cache).items():
        for m2, q2 in reference_mul_monomial_gen(algebra, m1, j, cache).items():
            q = q1 * q2
            prev = result.get(m2)
            result[m2] = q if prev is None else prev + q
    for k in range(algebra.dim):
        ck = algebra.c[j][g][k]
        if ck:
            for m1, q1 in reference_mul_monomial_gen(algebra, head, k, cache).items():
                q = ck * q1
                prev = result.get(m1)
                result[m1] = q if prev is None else prev + q
    result = {m: q for m, q in result.items() if q}
    cache[key] = result
    return result


def reference_mul_monomials(algebra: LieAlgebra, left, right, cache: dict) -> dict:
    """Frozen copy of the earlier pbw._mul_monomials, memoized in `cache`."""
    acc = None
    for g in range(algebra.dim):
        for _ in range(right[g]):
            if acc is None:
                acc = reference_mul_monomial_gen(algebra, left, g, cache)
                continue
            nxt: dict = {}
            for m, q in acc.items():
                for m2, q2 in reference_mul_monomial_gen(algebra, m, g, cache).items():
                    v = q * q2
                    prev = nxt.get(m2)
                    nxt[m2] = v if prev is None else prev + v
            acc = nxt
    return {left: Fraction(1)} if acc is None else acc


def reference_star_monomial(algebra: LieAlgebra, mono, cache: dict) -> dict:
    """Frozen copy of the earlier pbw._star_monomial, memoized in `cache`."""
    acc = {(0,) * algebra.dim: Fraction(-1 if sum(mono) % 2 else 1)}
    for g in range(algebra.dim - 1, -1, -1):
        for _ in range(mono[g]):
            nxt: dict = {}
            for m, q in acc.items():
                for m2, q2 in reference_mul_monomial_gen(algebra, m, g, cache).items():
                    v = q * q2
                    prev = nxt.get(m2)
                    nxt[m2] = v if prev is None else prev + v
            acc = nxt
    return acc


def reference_skeleton_rows(algebra: LieAlgebra, generators, degree: int):
    """Frozen copy of the earlier GramSkeleton assembly, as (row_monomials, rows).

    NF(w_p^* f_l w_q) is formed for p <= q only and the q < p entries are its
    star; every row monomial then scans every column.
    """
    bases = []
    for gen in generators:
        cap = (degree - gen.degree()) // 2
        bases.append(monomials_up_to(algebra.dim, cap) if cap >= 0 else [])
    layout = VariableLayout([len(b) for b in bases], complex_blocks=True)
    nf: list[dict] = []
    for basis, gen in zip(bases, generators):
        table = {}
        for p, wp in enumerate(basis):
            left = AlgebraElement.monomial(algebra, wp).star() * gen
            for q in range(p, len(basis)):
                table[(p, q)] = left * AlgebraElement.monomial(algebra, basis[q])
        nf.append(table)
    combos = {}
    for b, basis in enumerate(bases):
        for p in range(len(basis)):
            for q in range(p, len(basis)):
                e_pq = nf[b][(p, q)]
                if p == q:
                    combos[layout.index[(b, p, p, "re")]] = dict(e_pq.terms)
                else:
                    e_qp = e_pq.star()
                    combos[layout.index[(b, p, q, "re")]] = dict((e_pq + e_qp).terms)
                    combos[layout.index[(b, p, q, "im")]] = {
                        m: Scalar(0, 1) * s for m, s in (e_pq - e_qp).terms.items()}
    support = set()
    for terms in combos.values():
        support.update(terms.keys())
    support.update(monomials_up_to(algebra.dim, degree))
    row_monomials = sorted(support, key=term_sort_key)
    rows = []
    for mono in row_monomials:
        row_re = [Fraction(0)] * layout.nvars
        row_im = [Fraction(0)] * layout.nvars
        for col, terms in combos.items():
            s = terms.get(mono)
            if s is not None:
                row_re[col] = s.re
                row_im[col] = s.im
        rows.append(row_re)
        rows.append(row_im)
    return row_monomials, rows


def reference_line_expansion(mono, t0, u, max_order: int):
    """Frozen earlier Fraction expansion: s^0..s^max_order of prod_k (t0_k + s u_k)^{e_k}."""
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


def _reference_forced_kernel_vectors(target: CommutativePoly, monomials, kernel_points):
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
        for u in reference_nullspace(H, nvars):
            line = [Fraction(0)] * (deg + 1)
            for mono, q in target.coeffs.items():
                for m, cm in enumerate(reference_line_expansion(mono, t0, u, deg)):
                    if cm:
                        line[m] += q * cm
            nu = next((m for m, cm in enumerate(line) if cm), None)
            kappa = half_deg + 1 if nu is None else (nu + 1) // 2
            if kappa < 2:
                continue
            expansions = [reference_line_expansion(mono, t0, u, kappa - 1) for mono in monomials]
            for m in range(1, kappa):
                vec = [coeffs[m] for coeffs in expansions]
                if any(vec):
                    vectors.append(vec)
    return vectors


def reference_rref(matrix):
    """Textbook Gauss-Jordan: first nonzero row of each column as pivot."""
    R = [row[:] for row in matrix]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if R[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = 1 / R[r][c]
        R[r] = [v * inv for v in R[r]]
        for rr in range(rows):
            if rr != r and R[rr][c]:
                f = R[rr][c]
                R[rr] = [v - f * w for v, w in zip(R[rr], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def reference_nullspace(rows, ncols):
    R, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -R[r][f]
            basis.append(v)
    return basis


class ReferenceEchelonAccumulator:
    """Incremental row echelon form over Q or Q(i).

    Rows are inserted one at a time: insert() reduces the row against the
    stored rows and, when something is left, scales its leftmost nonzero entry
    to 1 and stores it, reporting whether the row enlarged the span.  A stored
    row is zero left of its pivot and in the pivot columns of earlier rows,
    which is all insert and contains need; reduced() back-substitutes only
    when a reduced form is asked for.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []  # stored rows, in insertion order
        self.pivot_cols: list[int] = []

    def reduce(self, vec):
        v = [x if isinstance(x, (Fraction, Scalar)) else Fraction(x) for x in vec]
        for row, pc in zip(self.rows, self.pivot_cols):
            if v[pc]:
                f = v[pc]
                for j in range(pc, self.ncols):
                    if row[j]:
                        v[j] -= f * row[j]
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        for c in range(self.ncols):
            if v[c]:
                inv = 1 / v[c]
                v = [x * inv for x in v]
                self.rows.append(v)
                self.pivot_cols.append(c)
                return True
        return False

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduced(self):
        """(R, pivots): the reduced row echelon form of the span, pivots ascending.

        Rows are taken by descending pivot and each is reduced against the
        finished rows of larger pivot; a row is already zero left of its own
        pivot, so every other pivot column ends up clear.
        """
        done = ReferenceEchelonAccumulator(self.ncols)
        for i in sorted(range(self.rank), key=self.pivot_cols.__getitem__, reverse=True):
            done.rows.append(done.reduce(self.rows[i]))
            done.pivot_cols.append(self.pivot_cols[i])
        return done.rows[::-1], done.pivot_cols[::-1]


def hermitian_form(M, v):
    """v^* M v as a Scalar (real for Hermitian M)."""
    n = len(M)
    total = Scalar(0)
    for i in range(n):
        if not v[i]:
            continue
        for j in range(n):
            if v[j]:
                total = total + v[i].conj() * M[i][j] * v[j]
    return total


def reference_cmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[Scalar(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    if Bt[j]:
                        Oi[j] = Oi[j] + a * Bt[j]
    return out


def reference_metric_adjoint(metric, M):
    """Adjoint with respect to the metric inner product: S^-1 M^H S."""
    n = len(metric)
    return [
        [Scalar(metric[q]) * M[q][p].conj() / Scalar(metric[p]) for q in range(n)]
        for p in range(n)
    ]


def cmat_zero(n):
    return [[Scalar(0) for _ in range(n)] for _ in range(n)]


def cmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_scale(s, A):
    s = Scalar.coerce(s)
    return [[s * a for a in row] for row in A]


def cmat_is_zero(A) -> bool:
    return all(not a for row in A for a in row)


def cmat_is_hermitian(A) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i].conj() for i in range(n) for j in range(i, n))


class ReferenceRep:
    """Frozen copy of the earlier FiniteDimRep checks and evaluation, in Scalar arithmetic."""

    def __init__(self, algebra, mats, metric):
        self.algebra = algebra
        self.dim_rep = len(metric)
        self.mats = [[[Scalar.coerce(v) for v in row] for row in mat] for mat in mats]
        self.metric = [Fraction(s) for s in metric]
        self._eval_cache: dict = {}
        self._validate()

    def _validate(self):
        n = self.dim_rep
        if len(self.mats) != self.algebra.dim:
            raise ContextInvalid("need one matrix per generator")
        for mat in self.mats:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ContextInvalid("matrix shape does not match the metric length")
        if any(s <= 0 for s in self.metric):
            raise ContextInvalid("metric entries must be positive")
        d = self.algebra.dim
        for i in range(d):
            for j in range(i + 1, d):
                lhs = cmat_sub(reference_cmat_mul(self.mats[i], self.mats[j]),
                               reference_cmat_mul(self.mats[j], self.mats[i]))
                rhs = cmat_zero(n)
                for k in range(d):
                    ck = self.algebra.c[i][j][k]
                    if ck:
                        rhs = cmat_add(rhs, cmat_scale(ck, self.mats[k]))
                if not cmat_is_zero(cmat_sub(lhs, rhs)):
                    raise ContextInvalid(
                        f"commutator of generators {i+1},{j+1} violates the structure constants"
                    )
        for k in range(d):
            sx = self._metric_weighted(self.mats[k])
            for p in range(n):
                for q in range(n):
                    if sx[p][q] != -(sx[q][p].conj()):
                        raise ContextInvalid(
                            f"generator {k+1} is not skew-adjoint for the metric"
                        )

    def _metric_weighted(self, M):
        return [[Scalar(self.metric[p]) * M[p][q] for q in range(self.dim_rep)]
                for p in range(self.dim_rep)]

    def _monomial_matrix(self, mono):
        cached = self._eval_cache.get(mono)
        if cached is not None:
            return cached
        if not any(mono):
            out = cmat_identity(self.dim_rep)
        else:
            last = max(i for i, e in enumerate(mono) if e)
            prefix = list(mono)
            prefix[last] -= 1
            out = reference_cmat_mul(self._monomial_matrix(tuple(prefix)), self.mats[last])
        self._eval_cache[mono] = out
        return out

    def evaluate(self, e: AlgebraElement):
        if e.algebra != self.algebra:
            raise AlgebraMismatch("element and representation algebras differ")
        n = self.dim_rep
        out = cmat_zero(n)
        for mono, coeff in e.terms.items():
            mat = self._monomial_matrix(mono)
            for p in range(n):
                row = mat[p]
                orow = out[p]
                for q in range(n):
                    if row[q]:
                        orow[q] = orow[q] + coeff * row[q]
        return out

    def weighted_matrix(self, e: AlgebraElement):
        return self._metric_weighted(self.evaluate(e))


def echelon_rank(acc) -> int:
    """The rank of an EchelonAccumulator's span: one stored row per independent row."""
    return len(acc.rows)


def residual_exact(system, g):
    """Exact residuals of the *full* row set of an AffineSystem at g."""
    return [system.operator.row_value(i, g) - bi for i, bi in enumerate(system.rhs)]


class ReferenceCommProblem:
    """Frozen copy of the earlier CommGramProblem construction (no affine system).

    Q is the identity when nothing is forced; each row reads the coefficients
    of the products b_p b_q (doubled off the diagonal) of the reduced basis.
    """

    def __init__(self, form: CommutativePoly, kernel_points=None, level: int = 0):
        target = squared_norm_poly(form.nvars) ** level * form if level else form
        deg = target.degree() or 0
        self.monomials = monomials_of_degree(target.nvars, deg // 2)
        n = len(self.monomials)
        vectors = _reference_forced_kernel_vectors(target, self.monomials, kernel_points or [])
        self.Q = reference_nullspace(vectors, n)
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
                products[(p, q)] = prod.scale(2) if p != q else prod
        support = set(target.coeffs.keys())
        for prod in products.values():
            support.update(prod.coeffs.keys())
        self.row_monomials = sorted(support, key=term_sort_key)
        row_of = {mono: i for i, mono in enumerate(self.row_monomials)}
        self.rows = [[Fraction(0)] * self.layout.nvars for _ in self.row_monomials]
        for (p, q), prod in products.items():
            col = self.layout.index[(0, p, q, "re")]
            for mono, coeff in prod.coeffs.items():
                self.rows[row_of[mono]][col] = coeff
        self.rhs = [target.coeffs.get(mono, Fraction(0)) for mono in self.row_monomials]

    def gram_blocks_exact(self, g):
        """Q^T G' Q over the monomial basis, as (Q^T G') Q summed entry by entry."""
        Gp = self.layout.gram_blocks_exact(g)[0].scalars()
        n, m, Q = len(self.monomials), len(self.Q), self.Q
        left = [[sum((Gp[p][q] * Q[p][j] for p in range(m)), Scalar(0)) for q in range(m)]
                for j in range(n)]
        return [[[sum((left[j][q] * Q[q][k] for q in range(m)), Scalar(0)) for k in range(n)]
                 for j in range(n)]]


def reference_gram_blocks_exact(layout, g):
    """Frozen copy of the earlier VariableLayout.gram_blocks_exact: Scalar rows, entry by entry."""
    blocks = []
    for b, n in enumerate(layout.block_sizes):
        G = [[Scalar(0) for _ in range(n)] for _ in range(n)]
        for p in range(n):
            G[p][p] = Scalar(Fraction(g[layout.index[(b, p, p, "re")]]))
            for q in range(p + 1, n):
                re = Fraction(g[layout.index[(b, p, q, "re")]])
                im = (Fraction(g[layout.index[(b, p, q, "im")]]) if layout.complex_blocks
                      else Fraction(0))
                G[p][q] = Scalar(re, im)
                G[q][p] = Scalar(re, -im)
        blocks.append(G)
    return blocks


def reference_congruence(Q, Gp, n: int):
    """Frozen copy of the earlier congruence: Q^H G' Q summed in Scalar arithmetic."""
    zero = Scalar(0)
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


def reference_compose_rows(rows, full: VariableLayout, reduced: VariableLayout, faces):
    """Frozen copy of the earlier row composition, with Q as rows of Fractions or Scalars:
    one Scalar G' per reduced coordinate, pushed through reference_congruence."""
    moved_by = {}
    for (b, p, q, part), col in reduced.index.items():
        Q = faces[b]
        if Q is None:
            moved_by.setdefault(full.index[(b, p, q, part)], []).append((col, Fraction(1)))
            continue
        Gp = [[Scalar(0)] * len(Q) for _ in Q]
        Gp[p][q] = Scalar(1) if part == "re" else Scalar(0, 1)
        Gp[q][p] = Gp[p][q].conj()
        G = reference_congruence(Q, Gp, full.block_sizes[b])
        for c, v in reference_coordinates(G, b, full).items():
            moved_by.setdefault(c, []).append((col, v))
    out = []
    for row in rows:
        composed = {}
        for c, x in row.items():
            for col, v in moved_by.get(c, ()):
                composed[col] = composed.get(col, 0) + x * v
        out.append({col: composed[col] for col in sorted(composed) if composed[col]})
    return out


def reference_coordinates(G, b: int, layout: VariableLayout):
    """Frozen copy of the earlier reader of the nonzero real coordinates of block b."""
    out = {}
    for p in range(len(G)):
        for q in range(p, len(G)):
            if G[p][q].re:
                out[layout.index[(b, p, q, "re")]] = G[p][q].re
            if p != q and G[p][q].im:
                out[layout.index[(b, p, q, "im")]] = G[p][q].im
    return out


def reference_operator_pivots(rows, nvars: int):
    """Frozen copy of the earlier two-pass AffineOperator construction:
    (independent, dependent, pivot_rows) from a selection on A alone and a
    second elimination of [A_ind | I]."""
    acc = EchelonAccumulator(nvars)
    independent = [i for i, row in enumerate(rows) if acc.insert(row)]
    dependent = [i for i in range(len(rows)) if i not in set(independent)]
    completion = EchelonAccumulator(nvars + len(independent))
    for k, i in enumerate(independent):
        completion.insert({**rows[i], nvars + k: 1})
    pivot_rows = [(c, row[c], {j: x for j, x in row.items() if c < j < nvars},
                   {j - nvars: x for j, x in row.items() if j >= nvars})
                  for c, row in completion.reduced_rows()]
    return independent, dependent, pivot_rows


def reference_check_assumption_ii(c: AlgebraElement, level_cap: int = 2,
                                  opts: SolveOptions | None = None) -> dict:
    """Frozen copy of the earlier driver.check_assumption_ii: the sign scan
    first, then levels 0..level_cap of the sphere hierarchy."""
    opts = opts or SolveOptions()
    deg = c.degree()
    if deg is None or deg == 0:
        return {"status": "degenerate", "detail": "constant target has no symbol condition"}
    symbol = c.principal_symbol(deg)
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
        report = commutative_sos(symbol, level, opts=opts, presampled=(None, []))
        if report.status == "certificate":
            return {
                "status": "certified-positive",
                "level": level,
                "strict_proof": report.certificate.factors[0].is_positive_definite(),
                "symbol": symbol.render(),
            }
    return {"status": "inconclusive", "detail": f"no certificate up to level {level_cap}"}


def reference_poly_render(p) -> str:
    """Frozen copy of the earlier CommutativePoly.render."""
    if not p.coeffs:
        return "0"
    parts = []
    for m, q in sorted(p.coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))):
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f"t{i+1}")
            elif e > 1:
                factors.append(f"t{i+1}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append((q, str(abs(q))))
        elif abs(q) == 1:
            parts.append((q, body))
        else:
            parts.append((q, f"{abs(q)}*{body}"))
    text = ""
    for q, body in parts:
        if not text:
            text = body if q > 0 else f"-{body}"
        else:
            text += f" + {body}" if q > 0 else f" - {body}"
    return text
