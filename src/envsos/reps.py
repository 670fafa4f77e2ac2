"""Finite-dimensional exact star-representations.

A representation stores one Scalar matrix per basis generator together with a
positive diagonal rational metric S; the inner product is
<phi, psi> = sum_n S_n phi_n conj(psi_n).  Construction checks, exactly, that
the matrices satisfy the algebra's commutation relations and that every
generator image is skew-adjoint for the metric.

The rational weight basis keeps spin representation entries in Q(i); the
metric absorbs the usual square roots.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, ContextInvalid, NotAbelian, NotHermitean
from .exactla import (
    LdlResult,
    cmat_add,
    cmat_identity,
    cmat_is_zero,
    cmat_mul,
    cmat_scale,
    cmat_sub,
    cmat_zero,
    hermitian_form,
    ldl_hermitian,
)
from .lie import LieAlgebra, builtin
from .pbw import AlgebraElement
from .scalar import Scalar, format_fraction, format_scalar


class FiniteDimRep:
    """Exact matrices for the generators plus a diagonal positive metric."""

    def __init__(self, algebra: LieAlgebra, mats, metric, label: str = ""):
        self.algebra = algebra
        self.dim_rep = len(metric)
        self.mats = [
            [[Scalar.coerce(v) for v in row] for row in mat] for mat in mats
        ]
        self.metric = [Fraction(s) for s in metric]
        self.label = label
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
        # bracket compatibility: [X_i, X_j] = sum_k c^k_ij X_k, exactly
        d = self.algebra.dim
        for i in range(d):
            for j in range(i + 1, d):
                lhs = cmat_sub(
                    cmat_mul(self.mats[i], self.mats[j]),
                    cmat_mul(self.mats[j], self.mats[i]),
                )
                rhs = cmat_zero(n)
                for k in range(d):
                    ck = self.algebra.c[i][j][k]
                    if ck:
                        rhs = cmat_add(rhs, cmat_scale(ck, self.mats[k]))
                if not cmat_is_zero(cmat_sub(lhs, rhs)):
                    raise ContextInvalid(
                        f"commutator of generators {i+1},{j+1} violates the structure constants"
                    )
        # metric skew-adjointness: S X_k = -(S X_k)^H
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

    def adjoint(self, M):
        """Adjoint with respect to the metric inner product: S^-1 M^H S."""
        n = self.dim_rep
        return [
            [Scalar(self.metric[q]) * M[q][p].conj() / Scalar(self.metric[p]) for q in range(n)]
            for p in range(n)
        ]

    # -- evaluation -----------------------------------------------------------

    def _monomial_matrix(self, mono):
        cached = self._eval_cache.get(mono)
        if cached is not None:
            return cached
        n = self.dim_rep
        if not any(mono):
            out = cmat_identity(n)
        else:
            # peel the last generator to reuse cached prefixes
            last = max(i for i, e in enumerate(mono) if e)
            prefix = list(mono)
            prefix[last] -= 1
            out = cmat_mul(self._monomial_matrix(tuple(prefix)), self.mats[last])
        self._eval_cache[mono] = out
        return out

    def evaluate(self, e: AlgebraElement):
        """Matrix of an element; an algebra homomorphism by construction."""
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
        """S * evaluate(e); Hermitian exactly when e is hermitean."""
        return self._metric_weighted(self.evaluate(e))

    def is_positive(self, e: AlgebraElement) -> "PositivityVerdict":
        """Decide <dU(e) phi, phi> >= 0 for all phi, with an exact witness."""
        if not e.is_hermitean():
            raise NotHermitean("positivity is only defined for hermitean elements")
        H = self.weighted_matrix(e)
        ldl = ldl_hermitian(H)
        if ldl.psd:
            return PositivityVerdict(True, ldl=ldl)
        value = hermitian_form(H, ldl.witness)
        return PositivityVerdict(False, witness=ldl.witness, witness_value=value.re, ldl=ldl)

    def __repr__(self):
        return f"FiniteDimRep({self.label or 'unnamed'}, N={self.dim_rep})"


class PositivityVerdict:
    def __init__(self, positive: bool, witness=None, witness_value=None, ldl: LdlResult | None = None):
        self.positive = positive
        self.witness = witness
        self.witness_value = witness_value
        self.ldl = ldl

    def __bool__(self):
        return self.positive


# -- constructions -------------------------------------------------------------


def make_spin_rep(l: Fraction | int, algebra: LieAlgebra | None = None) -> FiniteDimRep:
    """Spin-l representation of su(2) in the rational weight basis.

    Weight vectors e_j, j = -l..l carry J3 = diag(j); the integer-entry ladder
    operators E e_j = (l-j) e_{j+1} and F e_j = (l+j) e_{j-1} together with the
    compensating metric make the images skew-adjoint.  The generators are
    X1 = i J3, X2 = -i (E+F)/2, X3 = i (E-F)/(2i) = (E-F)/2.

    The image of the canonical element is (l^2+l+1) times the identity.
    """
    l = Fraction(l)
    if l < 0 or (2 * l).denominator != 1:
        raise ValueError("spin label must be a nonnegative half-integer")
    algebra = algebra or builtin("su2")
    n = int(2 * l) + 1
    js = [(-l + k) for k in range(n)]
    X1 = cmat_zero(n)
    X2 = cmat_zero(n)
    X3 = cmat_zero(n)
    for idx, j in enumerate(js):
        X1[idx][idx] = Scalar(0, j)
        if idx + 1 < n:
            up = l - j  # E e_j = (l-j) e_{j+1}
            X2[idx + 1][idx] = Scalar(0, -Fraction(up, 2))
            X3[idx + 1][idx] = Scalar(Fraction(up, 2))
        if idx - 1 >= 0:
            down = l + j  # F e_j = (l+j) e_{j-1}
            X2[idx - 1][idx] = Scalar(0, -Fraction(down, 2))
            X3[idx - 1][idx] = Scalar(-Fraction(down, 2))
    metric = [Fraction(1)] * n
    for idx in range(1, n):
        j = js[idx - 1]
        # s_{j+1}/s_j = (l+j+1)/(l-j) restores E^adj = F
        metric[idx] = metric[idx - 1] * Fraction(l + j + 1, 1) / Fraction(l - j, 1)
    return FiniteDimRep(algebra, [X1, X2, X3], metric, label=f"spin {format_fraction(l)}")


def make_point_rep(algebra: LieAlgebra, t) -> FiniteDimRep:
    """One-dimensional representation of an abelian algebra at a point.

    Generators map to i*t_j so that the images are skew-adjoint; the point
    evaluation of hermitean elements is then real.
    """
    if not algebra.is_abelian():
        raise NotAbelian("point representations require an abelian algebra")
    t = [Fraction(v) for v in t]
    if len(t) != algebra.dim:
        raise ValueError("point length must match the algebra dimension")
    mats = [[[Scalar(0, tj)]] for tj in t]
    label = "point (" + ", ".join(format_fraction(v) for v in t) + ")"
    return FiniteDimRep(algebra, mats, [Fraction(1)], label=label)


def direct_sum(*reps: FiniteDimRep) -> FiniteDimRep:
    """Block-diagonal sum of representations of the same algebra."""
    if not reps:
        raise ValueError("need at least one representation")
    algebra = reps[0].algebra
    for rep in reps[1:]:
        if rep.algebra != algebra:
            raise AlgebraMismatch("direct sum requires a common algebra")
    total = sum(r.dim_rep for r in reps)
    mats = []
    for k in range(algebra.dim):
        mat = cmat_zero(total)
        offset = 0
        for rep in reps:
            n = rep.dim_rep
            for p in range(n):
                for q in range(n):
                    mat[offset + p][offset + q] = rep.mats[k][p][q]
            offset += n
        mats.append(mat)
    metric = [s for rep in reps for s in rep.metric]
    label = " + ".join(r.label or "?" for r in reps)
    return FiniteDimRep(algebra, mats, metric, label=label)


# -- dual windows ----------------------------------------------------------------


class DualWindowResult:
    """Membership verdicts for a finite window of the unitary dual."""

    def __init__(self, window_labels, membership, witnesses, reps):
        self.window = window_labels          # list of label strings
        self.membership = membership         # label -> bool
        self.witnesses = witnesses           # label -> witness dict (for non-members)
        self.reps = reps                     # label -> the FiniteDimRep scanned

    def members(self):
        return [lab for lab in self.window if self.membership[lab]]

    def to_json_dict(self):
        return {
            "window": list(self.window),
            "members": self.members(),
            "witnesses": self.witnesses,
        }


def is_su2_standard(algebra: LieAlgebra) -> bool:
    """True when the structure constants are exactly the cyclic su(2) ones."""
    if algebra.dim != 3:
        return False
    return algebra.c == builtin("su2").c


def spin_window(l_max: Fraction | int):
    """Labels 0, 1/2, ..., l_max of the su(2) dual."""
    l_max = Fraction(l_max)
    out = []
    step = Fraction(1, 2)
    l = Fraction(0)
    while l <= l_max:
        out.append(l)
        l += step
    return out


def scan_dual_window(
    algebra: LieAlgebra,
    f: list[AlgebraElement],
    window,
) -> DualWindowResult:
    """Check dU(f_j) >= 0 for each dual label in the window.

    `window` is either a list of spin labels (su(2)) or, for abelian algebras,
    a list of rational points.  The first generator must be the unit and every
    generator must be hermitean.
    """
    if not f:
        raise ValueError("generator list must be nonempty")
    unit = AlgebraElement.unit(algebra)
    if f[0] != unit:
        raise ValueError("the first generator must be the unit element")
    for g in f:
        if not g.is_hermitean():
            raise NotHermitean("window scans require hermitean generators")
    labels = []
    reps = []
    if algebra.is_abelian():
        for point in window:
            rep = make_point_rep(algebra, point)
            labels.append("(" + ", ".join(format_fraction(Fraction(v)) for v in point) + ")")
            reps.append(rep)
    elif is_su2_standard(algebra):
        for l in window:
            rep = make_spin_rep(Fraction(l), algebra)
            labels.append(format_fraction(Fraction(l)))
            reps.append(rep)
    else:
        raise NotAbelian(
            "dual windows are implemented only for abelian grids and the standard su(2) basis"
        )
    membership = {}
    witnesses = {}
    for label, rep in zip(labels, reps):
        verdict_ok = True
        for gi, g in enumerate(f):
            verdict = rep.is_positive(g)
            if not verdict:
                verdict_ok = False
                witnesses[label] = {
                    "generator": gi + 1,
                    "vector": [format_scalar(v) for v in verdict.witness],
                    "value": format_fraction(verdict.witness_value),
                }
                break
        membership[label] = verdict_ok
    return DualWindowResult(labels, membership, witnesses, dict(zip(labels, reps)))


def rep_to_json_dict(rep: FiniteDimRep) -> dict:
    return {
        "algebra_dim": rep.algebra.dim,
        "dim_rep": rep.dim_rep,
        "label": rep.label,
        "metric": [format_fraction(s) for s in rep.metric],
        "matrices": [
            [[format_scalar(v) for v in row] for row in mat] for mat in rep.mats
        ],
    }
