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
over a growing spanning set of ideal elements.
"""

from __future__ import annotations

from .errors import ContextInvalid
from .exactla import (
    EchelonAccumulator,
    cmat_add,
    cmat_identity,
    cmat_is_zero,
    cmat_mul,
    cmat_scale,
    cmat_sub,
    cmat_zero,
    invert_exact,
)
from .exprs import render
from .lie import LieAlgebra, b_constants
from .pbw import AlgebraElement, canonical_a
from .reps import FiniteDimRep
from .scalar import Scalar

# perfbench/spans.py still wraps this name when tracing the operator contexts
cmat_inverse = invert_exact

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
    """

    def __init__(self, rep: FiniteDimRep):
        self.rep = rep
        algebra = rep.algebra
        self.algebra = algebra
        d = algebra.dim
        n = rep.dim_rep
        self.A = rep.evaluate(canonical_a(algebra))
        try:
            self.Y = invert_exact(self.A)
        except ValueError as exc:
            raise ContextInvalid("canonical element is not invertible in this context") from exc
        if not cmat_is_zero(cmat_sub(cmat_mul(self.A, self.Y), cmat_identity(n))):
            raise ContextInvalid("inverse sanity check failed")
        self.X = [cmat_scale(Scalar(0, 1), cmat_identity(n))]
        self.X.extend(rep.mats)
        # left[k][l] = X_k X_l Y ; right[l][k] = Y X_l X_k (the negative indices)
        self.left = [[cmat_mul(cmat_mul(self.X[k], self.X[l]), self.Y)
                      for l in range(d + 1)] for k in range(d + 1)]
        self.right = [[cmat_mul(self.Y, cmat_mul(self.X[l], self.X[k]))
                       for k in range(d + 1)] for l in range(d + 1)]
        for k in range(d + 1):
            for l in range(d + 1):
                if not cmat_is_zero(cmat_sub(rep.adjoint(self.left[k][l]), self.right[l][k])):
                    raise ContextInvalid(
                        f"adjoint exchange rule fails for indices ({k},{l})"
                    )

    def adjoint(self, M):
        return self.rep.adjoint(M)

    def family_elements(self):
        """Identity plus both Y-operator families; spans the small products."""
        d = self.algebra.dim
        out = [cmat_identity(self.rep.dim_rep)]
        for k in range(d + 1):
            for l in range(d + 1):
                out.append(self.left[k][l])
                out.append(self.right[l][k])
        return out


def _vec(M):
    out = []
    for row in M:
        for v in row:
            out.append(v.re)
            out.append(v.im)
    return out


class IdealSpan:
    """Growing exact span of the evaluated two-sided star-ideal.

    Batches: the generators themselves, then one-sided products u*g and g*v,
    then two-sided u*g*v, with u, v drawn from the context's spanning family.
    Membership of a residual is a reduction against the accumulated echelon.
    """

    def __init__(self, ctx: OperatorAlgebraContext):
        self.ctx = ctx
        d = ctx.algebra.dim
        n = ctx.rep.dim_rep
        self.gens = []
        for k in range(d + 1):
            self.gens.append(ctx.left[k][0])    # X_k X_0 Y
            self.gens.append(ctx.right[0][k])   # Y X_0 X_k
        self.family = ctx.family_elements()
        self.acc = EchelonAccumulator(2 * n * n)
        self.basis_matrices = []
        self.level = -1

    def _insert(self, M):
        if self.acc.insert(_vec(M)):
            self.basis_matrices.append(M)

    def ensure_level(self, level: int):
        while self.level < level:
            self.level += 1
            if self.level == 0:
                for g in self.gens:
                    self._insert(g)
            elif self.level == 1:
                for u in self.family:
                    for g in self.gens:
                        self._insert(cmat_mul(u, g))
            elif self.level == 2:
                for g in self.gens:
                    for v in self.family:
                        self._insert(cmat_mul(g, v))
            elif self.level == 3:
                for u in self.family:
                    for g in self.gens:
                        ug = cmat_mul(u, g)
                        for v in self.family:
                            self._insert(cmat_mul(ug, v))
            else:
                break

    def contains(self, M, max_level: int = 3) -> bool:
        vec = _vec(M)
        if self.acc.contains(vec):
            return True
        while self.level < max_level:
            self.ensure_level(self.level + 1)
            if self.acc.contains(vec):
                return True
        return False


def audit_r_relations(ctx: OperatorAlgebraContext, max_level: int = 3) -> dict:
    """Exact audit of the eight operator relations in the given context.

    r1-r4 are matrix equalities (residuals must vanish identically); r5-r8 are
    ideal memberships decided by exact linear algebra.  The r4 identity is
    audited in both printed orientations.
    """
    algebra = ctx.algebra
    d = algebra.dim
    n = ctx.rep.dim_rep
    b = b_constants(algebra)
    adj = ctx.adjoint
    report: dict = {}

    # r1: sum_k Y*_{k0} Y_{k0} = Y
    acc = cmat_zero(n)
    for k in range(d + 1):
        yk0 = ctx.left[k][0]
        acc = cmat_add(acc, cmat_mul(adj(yk0), yk0))
    report["r1"] = _relation_entry(cmat_sub(acc, ctx.Y))

    # r2: Y*_{k0} Y_{l0} - Y*_{l0} Y_{k0} = -i sum_j c^j_{lk} Y Y_{j0}
    worst = None
    ok = True
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            lhs = cmat_sub(
                cmat_mul(adj(ctx.left[k][0]), ctx.left[l][0]),
                cmat_mul(adj(ctx.left[l][0]), ctx.left[k][0]),
            )
            rhs = cmat_zero(n)
            for j in range(1, d + 1):
                coeff = algebra.c[l - 1][k - 1][j - 1]
                if coeff:
                    rhs = cmat_add(rhs, cmat_scale(Scalar(0, -coeff),
                                                   cmat_mul(ctx.Y, ctx.left[j][0])))
            res = cmat_sub(lhs, rhs)
            if not cmat_is_zero(res):
                ok = False
                worst = (k, l)
    report["r2"] = {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else f"indices {worst}"}

    # r3: Y*_{k0} - Y_{k0} = i sum_{j,l} b^j_{kl} Y*_{j0} Y_{l0}
    ok = True
    worst = None
    for k in range(1, d + 1):
        lhs = cmat_sub(adj(ctx.left[k][0]), ctx.left[k][0])
        rhs = cmat_zero(n)
        for j in range(1, d + 1):
            for l in range(1, d + 1):
                coeff = b[k - 1][l - 1][j - 1]
                if coeff:
                    rhs = cmat_add(rhs, cmat_scale(Scalar(0, coeff),
                                                   cmat_mul(adj(ctx.left[j][0]), ctx.left[l][0])))
        res = cmat_sub(lhs, rhs)
        if not cmat_is_zero(res):
            ok = False
            worst = k
    report["r3"] = {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else f"index {worst}"}

    # r4: sum_{k,l=0}^d Y*_{kl} Y_{kl} = I + i sum b^l_{jk} Y*_{j0} Y_{kl}
    #                                  = I - i sum b^l_{jk} Y*_{kl} Y_{j0}
    e1 = cmat_zero(n)
    for k in range(d + 1):
        for l in range(d + 1):
            e1 = cmat_add(e1, cmat_mul(adj(ctx.left[k][l]), ctx.left[k][l]))
    e2 = cmat_identity(n)
    e3 = cmat_identity(n)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            for l in range(1, d + 1):
                coeff = b[j - 1][k - 1][l - 1]
                if coeff:
                    e2 = cmat_add(e2, cmat_scale(Scalar(0, coeff),
                                                 cmat_mul(adj(ctx.left[j][0]), ctx.left[k][l])))
                    e3 = cmat_add(e3, cmat_scale(Scalar(0, -coeff),
                                                 cmat_mul(adj(ctx.left[k][l]), ctx.left[j][0])))
    r4_first = cmat_is_zero(cmat_sub(e1, e2))
    r4_second = cmat_is_zero(cmat_sub(e1, e3))
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
        if cmat_is_zero(M):
            return True
        return span.contains(M, max_level=max_level)

    ok5 = True
    for k in range(d + 1):
        for l in range(d + 1):
            if not member(cmat_sub(ctx.left[k][l], adj(ctx.left[k][l]))):
                ok5 = False
            if not member(cmat_sub(ctx.left[k][l], ctx.left[l][k])):
                ok5 = False
    report["r5"] = {"status": "pass" if ok5 else "unresolved",
                    "residual_norm": "0" if ok5 else "not reduced to the ideal"}

    # r6: Y x - x Y in Y*ideal, ideal*Y; spans compared both ways
    span.ensure_level(1)
    y_ideal = EchelonAccumulator(2 * n * n)
    ideal_y = EchelonAccumulator(2 * n * n)
    for M in span.basis_matrices:
        y_ideal.insert(_vec(cmat_mul(ctx.Y, M)))
        ideal_y.insert(_vec(cmat_mul(M, ctx.Y)))
    ok6 = True
    for x in ctx.family_elements():
        res = cmat_sub(cmat_mul(ctx.Y, x), cmat_mul(x, ctx.Y))
        vec = _vec(res)
        if not (y_ideal.contains(vec) and ideal_y.contains(vec)):
            ok6 = False
    spans_equal = all(ideal_y.contains(_vec(cmat_mul(ctx.Y, M))) for M in span.basis_matrices) and \
        all(y_ideal.contains(_vec(cmat_mul(M, ctx.Y))) for M in span.basis_matrices)
    report["r6"] = {"status": "pass" if ok6 else "unresolved",
                    "residual_norm": "0" if ok6 else "not reduced to the ideal",
                    "spans_equal": spans_equal}

    ok7 = True
    ok8 = True
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    ykl, yij = ctx.left[k][l], ctx.left[i][j]
                    if not member(cmat_sub(cmat_mul(ykl, yij), cmat_mul(yij, ykl))):
                        ok7 = False
                    yki, ylj = ctx.left[k][i], ctx.left[l][j]
                    if not member(cmat_sub(cmat_mul(ykl, yij), cmat_mul(yki, ylj))):
                        ok8 = False
    report["r7"] = {"status": "pass" if ok7 else "unresolved",
                    "residual_norm": "0" if ok7 else "not reduced to the ideal"}
    report["r8"] = {"status": "pass" if ok8 else "unresolved",
                    "residual_norm": "0" if ok8 else "not reduced to the ideal"}
    return report


def _relation_entry(residual):
    ok = cmat_is_zero(residual)
    return {"status": "pass" if ok else "fail", "residual_norm": "0" if ok else "nonzero"}


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
