"""Mechanical audits of the operator-algebra relations.

Two layers.  First, identities that live purely in the enveloping algebra:
clearing the inverse from the commutation rules against the canonical element
leaves polynomial identities that normal-form arithmetic can check exactly.
The identity actually audited is rederived from first principles,

    x_k a - a x_k = sum_{i,j} c^j_{ik} (x_i x_j + x_j x_i),

and its degree-2 companion via [x_k x_l, a] = x_k [x_l, a] + [x_k, a] x_l.
The printed source forms (under the natural index repair) are compared
against the rederivation and any deviation is reported, never patched.

Second, operator identities in a finite-dimensional context where the image A
of the canonical element is invertible, so Y = A^{-1} is an exact matrix.
Relations r1-r4 are exact matrix equalities; r5-r8 assert membership in the
two-sided star-ideal generated by the Y_{k0}, decided by exact linear algebra
over a span of ideal elements that grows level by level: the generators g,
then u g, g v and u g v with u, v from the context's operator family.  Each
level is spanned from bases, never from every product: the family is reduced
to a basis once, and the two-sided level uses the exact identity

    span{u g v} = span{u w : w in a basis of span{g v}},

so the span at each level, and with it every membership verdict, is the one
the full enumeration of products gives.  A candidate not in the span at level
3 is unresolved.

Every matrix the audit forms lies in the context's block algebra: the
matrices supported on the blocks, the connected components of the nonzero
pattern of X_1..X_d and Y, of real dimension N = 2 sum |B|^2.  A span of rank
N is that whole algebra (BlockSpan), so it forms no further products and a
membership test reads the candidate's entries outside the blocks, with no
reduction.  Before that, insertion and membership reduce against the echelon.

A context takes the representation's matrices as they are, each an
exactla.GaussMatrix of Gaussian-integer rows over one denominator; every
product, sum and zero test of the audit runs on those integers, and a span
test reads a matrix's integer numerators alone.  Y = exactla.inverse(A) is a
GaussMatrix too; it is called as this module's cmat_inverse, so that a
wrapper of that name sees every call.
"""

from __future__ import annotations

from .errors import ContextInvalid
from .exactla import EchelonAccumulator, GaussMatrix, realified
from .exactla import inverse as cmat_inverse
from .exprs import render
from .lie import LieAlgebra, b_constants
from .pbw import AlgebraElement, canonical_a
from .reps import FiniteDimRep
from .scalar import Scalar

# -- cleared identities in the enveloping algebra -----------------------------------


def commutator_with_canonical(algebra: LieAlgebra, k: int) -> AlgebraElement:
    """x_k a - a x_k, the left side of the cleared commutation rule."""
    a = canonical_a(algebra)
    xk = AlgebraElement.generator(algebra, k)
    return xk * a - a * xk


def rederived_commutator_rhs(algebra: LieAlgebra, k: int) -> AlgebraElement:
    """sum_{i,j} c^j_{ik} (x_i x_j + x_j x_i), derived from [x_k, x_m^2] directly."""
    out = AlgebraElement.zero(algebra)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            coeff = algebra.c[i][k][j]
            if coeff:
                xi = AlgebraElement.generator(algebra, i)
                xj = AlgebraElement.generator(algebra, j)
                out = out + (xi * xj + xj * xi).scale(coeff)
    return out


def printed_commutator_rhs(algebra: LieAlgebra, k: int) -> AlgebraElement:
    """The printed correction sum_{i,j} b^j_{ki} x_i x_j under the index repair."""
    b = b_constants(algebra)
    out = AlgebraElement.zero(algebra)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            coeff = b[k][i][j]
            if coeff:
                xi = AlgebraElement.generator(algebra, i)
                xj = AlgebraElement.generator(algebra, j)
                out = out + (xi * xj).scale(coeff)
    return out


class ClearedIdentityReport:
    def __init__(self, algebra_label: str, residuals: dict, printed_deviations: dict,
                 intermediates: dict | None = None):
        self.algebra_label = algebra_label
        self.residuals = residuals                  # key -> AlgebraElement (expected 0)
        self.printed_deviations = printed_deviations
        self.intermediates = intermediates or {}
        self.passed = all(r.is_zero() for r in residuals.values())

    def to_json_dict(self):
        return {
            "algebra": self.algebra_label,
            "status": "pass" if self.passed else "fail",
            "residuals": {str(k): render(v) for k, v in self.residuals.items()},
            "printed_form_matches": {
                str(k): v.is_zero() for k, v in self.printed_deviations.items()
            },
        }


def audit_cleared_commutator(algebra: LieAlgebra, label: str = "") -> ClearedIdentityReport:
    residuals = {}
    deviations = {}
    intermediates = {}
    for k in range(algebra.dim):
        lhs = commutator_with_canonical(algebra, k)
        rhs = rederived_commutator_rhs(algebra, k)
        residuals[k + 1] = lhs - rhs
        deviations[k + 1] = lhs - printed_commutator_rhs(algebra, k)
        intermediates[k + 1] = lhs
    return ClearedIdentityReport(label or repr(algebra), residuals, deviations, intermediates)


def audit_cleared_degree2(algebra: LieAlgebra, label: str = "") -> ClearedIdentityReport:
    """Degree-2 companion: [x_k x_l, a] = x_k [x_l, a] + [x_k, a] x_l, exactly."""
    a = canonical_a(algebra)
    b = b_constants(algebra)
    gens = [AlgebraElement.generator(algebra, i) for i in range(algebra.dim)]
    gamma = [commutator_with_canonical(algebra, m) for m in range(algebra.dim)]
    residuals = {}
    deviations = {}
    for k in range(algebra.dim):
        for l in range(algebra.dim):
            word = gens[k] * gens[l]
            lhs = word * a - a * word
            rhs = gens[k] * gamma[l] + gamma[k] * gens[l]
            residuals[(k + 1, l + 1)] = lhs - rhs
            printed = AlgebraElement.zero(algebra)
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    bli = b[l][i][j]
                    if bli:
                        printed = printed + (gens[k] * gens[i] * gens[j]).scale(bli)
                    bki = b[k][i][j]
                    if bki:
                        printed = printed + (gens[i] * gens[j] * gens[l]).scale(bki)
            deviations[(k + 1, l + 1)] = lhs - printed
    return ClearedIdentityReport(label or repr(algebra), residuals, deviations)


# -- operator contexts ---------------------------------------------------------------


class OperatorAlgebraContext:
    """A representation whose canonical-element image is exactly invertible.

    Supplies the operator family X_0 = i I, X_1..X_d, Y = A^{-1} and
    Y_{kl} = X_k X_l Y together with their adjoint partners Y X_l X_k; the
    adjoint exchange rule between the two families is checked on construction.
    Every matrix is a GaussMatrix; the X_k are the representation's own, and
    each X_k X_l is formed once for both families.

    The blocks of the basis are the connected components of the joint
    nonzero pattern of X_1..X_d and Y.  The matrices supported on the blocks
    form an algebra that holds X_0, X_1..X_d and Y, so every matrix the audit
    forms lies in it.  Its real dimension is block_dim = 2 * sum |B|^2, and
    off_block lists the positions (i, j) outside every block.
    """

    def __init__(self, rep: FiniteDimRep):
        self.rep = rep
        algebra = rep.algebra
        self.algebra = algebra
        d = algebra.dim
        n = rep.dim_rep
        self.A = rep.image(canonical_a(algebra))
        try:
            self.Y = cmat_inverse(self.A)
        except ValueError as exc:
            raise ContextInvalid("canonical element is not invertible in this context") from exc
        if not (self.A @ self.Y - GaussMatrix.identity(n)).is_zero():
            raise ContextInvalid("inverse sanity check failed")
        self.X = [GaussMatrix.identity(n).scale(Scalar(0, 1)), *rep.mats]
        block = _block_labels(n, [*rep.mats, self.Y])
        self.block_dim = 2 * sum(block.count(b) ** 2 for b in set(block))
        self.off_block = [(i, j) for i in range(n) for j in range(n) if block[i] != block[j]]
        XX = [[self.X[k] @ self.X[l] for l in range(d + 1)] for k in range(d + 1)]
        # left[k][l] = X_k X_l Y ; right[l][k] = Y X_l X_k (the negative indices)
        self.left = [[XX[k][l] @ self.Y for l in range(d + 1)] for k in range(d + 1)]
        self.right = [[self.Y @ XX[l][k] for k in range(d + 1)] for l in range(d + 1)]
        for k in range(d + 1):
            for l in range(d + 1):
                if not (self.left[k][l].adjoint(rep.metric) - self.right[l][k]).is_zero():
                    raise ContextInvalid(
                        f"adjoint exchange rule fails for indices ({k},{l})"
                    )

    def family_elements(self):
        """Identity plus both Y-operator families; spans the small products."""
        d = self.algebra.dim
        out = [GaussMatrix.identity(self.rep.dim_rep)]
        for k in range(d + 1):
            for l in range(d + 1):
                out.append(self.left[k][l])
                out.append(self.right[l][k])
        return out

    def in_blocks(self, M: GaussMatrix) -> bool:
        """True when M has no nonzero entry outside the blocks."""
        return not any(M.re[i][j] or M.im[i][j] for i, j in self.off_block)


def _block_labels(n: int, mats) -> list:
    """One label per basis index, equal exactly within a connected component of
    the joint nonzero pattern of mats (union-find over the nonzero entries)."""
    label = list(range(n))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    for M in mats:
        for i in range(n):
            for j in range(n):
                if M.re[i][j] or M.im[i][j]:
                    label[root(i)] = root(j)
    return [root(i) for i in range(n)]


def _vec(M: GaussMatrix) -> dict:
    """M's numerators as one row (exactla.realified); M's denominator leaves its span unchanged."""
    return realified(M.numerators())


class BlockSpan:
    """Exact real span of matrices of a context's block algebra.

    Insertion and membership reduce against an echelon until its rank reaches
    the context's block_dim.  The span then is the whole block algebra, since
    everything inserted lies in it: insertion is a no-op, and M is a member
    exactly when it has no nonzero entry outside the blocks.
    """

    def __init__(self, ctx: OperatorAlgebraContext):
        self.ctx = ctx
        self.acc = EchelonAccumulator(2 * ctx.rep.dim_rep ** 2)

    @property
    def full(self) -> bool:
        return len(self.acc.rows) == self.ctx.block_dim

    def insert(self, M) -> bool:
        """Add M; False when it is already in the span."""
        return not self.full and self.acc.insert(_vec(M))

    def contains(self, M) -> bool:
        return self.ctx.in_blocks(M) if self.full else self.acc.contains(_vec(M))


class IdealSpan(BlockSpan):
    """Growing exact span of the evaluated two-sided star-ideal.

    Levels: 0 the generators g themselves, 1 adds the left products u*g, 2 the
    right products g*v, 3 the two-sided products u*g*v, with u, v drawn from
    the context's spanning family.  Each level is spanned from bases rather
    than from every product.  The family is reduced to a basis once, which
    spans the same products by linearity.  Level 2 keeps the g*v that are
    independent among themselves as a right-factor basis W, and level 3 uses

        span{u g v} = span{u w : w in W},

    so the span at every level is the one of the full enumeration, and only
    the spanning matrices kept in basis_matrices differ.  Membership of a
    residual is a reduction against the accumulated echelon.  Once the span
    fills the block algebra (BlockSpan) no level forms another product, and
    membership is read off the residual's support.
    """

    def __init__(self, ctx: OperatorAlgebraContext):
        super().__init__(ctx)
        d = ctx.algebra.dim
        self.gens = []
        for k in range(d + 1):
            self.gens.append(ctx.left[k][0])    # X_k X_0 Y
            self.gens.append(ctx.right[0][k])   # Y X_0 X_k
        family = BlockSpan(ctx)
        self.family = [u for u in ctx.family_elements() if family.insert(u)]
        self.basis_matrices = []
        self.right_basis = []   # a basis of span{g v}, filled at level 2
        self.level = -1

    def _products(self, level: int):
        """The spanning products of one level, formed one at a time."""
        if level == 0:
            yield from self.gens
        elif level == 1:
            yield from (u @ g for u in self.family for g in self.gens)
        elif level == 2:
            right = BlockSpan(self.ctx)
            for g in self.gens:
                for v in self.family:
                    gv = g @ v
                    if right.insert(gv):
                        self.right_basis.append(gv)
                    yield gv
        elif level == 3:
            yield from (u @ w for u in self.family for w in self.right_basis)

    def ensure_level(self, level: int):
        while self.level < level:
            self.level += 1
            if self.full:
                continue
            for M in self._products(self.level):
                if self.insert(M):
                    self.basis_matrices.append(M)
                    if self.full:
                        break

    def contains(self, M) -> bool:
        """Membership of M in the span, growing it level by level up to level 3."""
        while not super().contains(M):
            if self.level == 3:
                return False
            self.ensure_level(self.level + 1)
        return True


def audit_r_relations(ctx: OperatorAlgebraContext) -> dict:
    """Exact audit of the eight operator relations in the given context.

    r1-r4 are matrix equalities (residuals must vanish identically); r5-r8 are
    ideal memberships decided by exact linear algebra.  The r4 identity is
    audited in both printed orientations.  Each product is formed once: r1-r4
    read one table of the Y*_{k0} Y_{l0}, r2 one of the Y Y_{j0}, and r5, r7
    and r8 ask one candidate of each pair M, -M, whose verdicts agree; the
    span grows only until the first of the two is in, so the levels it
    reaches do not change either.
    """
    algebra = ctx.algebra
    d = algebra.dim
    n = ctx.rep.dim_rep
    b = b_constants(algebra)
    # Y*_{kl} is ctx.right[l][k]: the context checked that equality exactly
    report: dict = {}
    # Y*_{k0} Y_{l0} for k = l = 0 and for k, l in 1..d; Y Y_{j0} for j in 1..d
    star = {(k, l): ctx.right[0][k] @ ctx.left[l][0]
            for k in range(d + 1) for l in range(d + 1) if (k == 0) == (l == 0)}
    y_left = {j: ctx.Y @ ctx.left[j][0] for j in range(1, d + 1)}

    # r1: sum_k Y*_{k0} Y_{k0} = Y
    acc = GaussMatrix.zero(n)
    for k in range(d + 1):
        acc = acc + star[k, k]
    report["r1"] = _relation_entry(acc - ctx.Y)

    # r2: Y*_{k0} Y_{l0} - Y*_{l0} Y_{k0} = -i sum_j c^j_{lk} Y Y_{j0}
    worst = None
    ok = True
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            lhs = star[k, l] - star[l, k]
            rhs = GaussMatrix.zero(n)
            for j in range(1, d + 1):
                coeff = algebra.c[l - 1][k - 1][j - 1]
                if coeff:
                    rhs = rhs + y_left[j].scale(Scalar(0, -coeff))
            if not (lhs - rhs).is_zero():
                ok = False
                worst = (k, l)
    report["r2"] = {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else f"indices {worst}"}

    # r3: Y*_{k0} - Y_{k0} = i sum_{j,l} b^j_{kl} Y*_{j0} Y_{l0}
    ok = True
    worst = None
    for k in range(1, d + 1):
        lhs = ctx.right[0][k] - ctx.left[k][0]
        rhs = GaussMatrix.zero(n)
        for j in range(1, d + 1):
            for l in range(1, d + 1):
                coeff = b[k - 1][l - 1][j - 1]
                if coeff:
                    rhs = rhs + star[j, l].scale(Scalar(0, coeff))
        if not (lhs - rhs).is_zero():
            ok = False
            worst = k
    report["r3"] = {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else f"index {worst}"}

    # r4: sum_{k,l=0}^d Y*_{kl} Y_{kl} = I + i sum b^l_{jk} Y*_{j0} Y_{kl}
    #                                  = I - i sum b^l_{jk} Y*_{kl} Y_{j0}
    e1 = acc  # the l = 0 terms are r1's
    for k in range(d + 1):
        for l in range(1, d + 1):
            e1 = e1 + ctx.right[l][k] @ ctx.left[k][l]
    e2 = GaussMatrix.identity(n)
    e3 = GaussMatrix.identity(n)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            for l in range(1, d + 1):
                coeff = b[j - 1][k - 1][l - 1]
                if coeff:
                    e2 = e2 + (ctx.right[0][j] @ ctx.left[k][l]).scale(Scalar(0, coeff))
                    e3 = e3 + (ctx.right[l][k] @ ctx.left[j][0]).scale(Scalar(0, -coeff))
    r4_first = (e1 - e2).is_zero()
    r4_second = (e1 - e3).is_zero()
    report["r4"] = {
        "status": "pass" if (r4_first and r4_second) else "fail",
        "residual_norm": "0" if (r4_first and r4_second) else "nonzero",
        "first_form": r4_first,
        "second_form": r4_second,
    }

    # ideal memberships
    span = IdealSpan(ctx)
    span.ensure_level(0)

    def member(M):
        if M.is_zero():
            return True
        return span.contains(M)

    # Y_{kl} - Y_{lk} for l < k is minus the candidate of (l, k), and zero for l = k
    ok5 = True
    for k in range(d + 1):
        for l in range(d + 1):
            if not member(ctx.left[k][l] - ctx.right[l][k]):
                ok5 = False
            if k < l and not member(ctx.left[k][l] - ctx.left[l][k]):
                ok5 = False
    report["r5"] = _ideal_entry(ok5)

    # r6: Y x - x Y in Y*ideal, ideal*Y; spans compared both ways
    span.ensure_level(1)
    y_ideal = BlockSpan(ctx)
    ideal_y = BlockSpan(ctx)
    y_basis = [ctx.Y @ M for M in span.basis_matrices]
    basis_y = [M @ ctx.Y for M in span.basis_matrices]
    for YM, MY in zip(y_basis, basis_y):
        y_ideal.insert(YM)
        ideal_y.insert(MY)
    ok6 = True
    # the residual is linear in x, so the family basis decides as the family would
    for x in span.family:
        R = ctx.Y @ x - x @ ctx.Y
        if not (y_ideal.contains(R) and ideal_y.contains(R)):
            ok6 = False
    spans_equal = all(ideal_y.contains(YM) for YM in y_basis) and \
        all(y_ideal.contains(MY) for MY in basis_y)
    report["r6"] = {**_ideal_entry(ok6), "spans_equal": spans_equal}

    # every Y_{kl} Y_{ij} with indices 1..d, formed once for both relations; the
    # r7 candidate of (i, j, k, l) is minus that of (k, l, i, j), and the r8
    # candidate of (k, i, l, j) minus that of (k, l, i, j)
    prod = {(k, l, i, j): ctx.left[k][l] @ ctx.left[i][j]
            for k in range(1, d + 1) for l in range(1, d + 1)
            for i in range(1, d + 1) for j in range(1, d + 1)}
    ok7 = True
    ok8 = True
    for (k, l, i, j), P in prod.items():
        if (k, l) < (i, j) and not member(P - prod[i, j, k, l]):
            ok7 = False
        if l < i and not member(P - prod[k, i, l, j]):
            ok8 = False
    report["r7"] = _ideal_entry(ok7)
    report["r8"] = _ideal_entry(ok8)
    return report


def _relation_entry(residual):
    ok = residual.is_zero()
    return {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else "nonzero"}


def _ideal_entry(ok: bool):  # r5-r8
    return {"status": "pass" if ok else "unresolved",
            "residual_norm": "0" if ok else "not reduced to the ideal"}


def full_audit(algebra: LieAlgebra, contexts=None, label: str = "") -> dict:
    """Cleared identities plus r-relation audits over the given contexts."""
    out = {
        "cleared_commutator": audit_cleared_commutator(algebra, label).to_json_dict(),
        "cleared_degree2": audit_cleared_degree2(algebra, label).to_json_dict(),
    }
    if contexts:
        out["contexts"] = []
        for ctx in contexts:
            entry = {"label": ctx.rep.label, "relations": audit_r_relations(ctx)}
            out["contexts"].append(entry)
    return out
