"""Finite-dimensional exact star-representations.

A representation stores one generator matrix per basis generator together
with a positive diagonal rational metric S; the inner product is
<phi, psi> = sum_n S_n phi_n conj(psi_n).  Each generator matrix is cleared
once to an exactla.GaussMatrix, Gaussian-integer rows over one denominator,
after its shape is checked.  Construction then checks, exactly and on those
integers, that the matrices satisfy the algebra's commutation relations and
that every generator image is skew-adjoint for the metric.  Images of
elements are formed in the same form, once per element: an AlgebraElement
never changes, so each image is kept and shared by is_positive,
weighted_matrix, evaluate (its Scalar view) and the forced faces of sos.

The rational weight basis keeps spin representation entries in Q(i); the
metric absorbs the usual square roots.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, ContextInvalid, NotAbelian, NotHermitean
from .exactla import GaussMatrix, LdlResult, clear, ldl_hermitian
from .lie import LieAlgebra, builtin
from .pbw import AlgebraElement
from .scalar import Scalar, format_fraction, format_scalar


class FiniteDimRep:
    """Exact matrices for the generators plus a diagonal positive metric."""

    def __init__(self, algebra: LieAlgebra, mats, metric, label: str = ""):
        self.algebra = algebra
        self.dim_rep = len(metric)
        self.metric = [Fraction(s) for s in metric]
        self.label = label
        self._eval_cache: dict = {}
        self._images: dict = {}
        n = self.dim_rep
        if len(mats) != algebra.dim:
            raise ContextInvalid("need one matrix per generator")
        for mat in mats:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ContextInvalid("matrix shape does not match the metric length")
        self.mats = [GaussMatrix.from_scalars(mat) for mat in mats]
        self._validate()

    def _validate(self):
        if any(s <= 0 for s in self.metric):
            raise ContextInvalid("metric entries must be positive")
        # bracket compatibility: [X_i, X_j] = sum_k c^k_ij X_k, exactly
        X, d = self.mats, self.algebra.dim
        for i in range(d):
            for j in range(i + 1, d):
                residual = X[i] @ X[j] - X[j] @ X[i]
                for k in range(d):
                    ck = self.algebra.c[i][j][k]
                    if ck:
                        residual = residual - X[k].scale(ck)
                if not residual.is_zero():
                    raise ContextInvalid(
                        f"commutator of generators {i+1},{j+1} violates the structure constants"
                    )
        # metric skew-adjointness: X_k^adj = S^-1 X_k^H S = -X_k
        for k in range(d):
            if not (X[k] + X[k].adjoint(self.metric)).is_zero():
                raise ContextInvalid(f"generator {k+1} is not skew-adjoint for the metric")

    # -- evaluation -----------------------------------------------------------

    def _monomial_matrix(self, mono) -> GaussMatrix:
        cached = self._eval_cache.get(mono)
        if cached is not None:
            return cached
        if not any(mono):
            out = GaussMatrix.identity(self.dim_rep)
        else:
            # peel the last generator to reuse cached prefixes
            last = max(i for i, e in enumerate(mono) if e)
            prefix = list(mono)
            prefix[last] -= 1
            out = self._monomial_matrix(tuple(prefix)) @ self.mats[last]
        self._eval_cache[mono] = out
        return out

    def image(self, e: AlgebraElement) -> GaussMatrix:
        """pi(e), an algebra homomorphism by construction; formed once per element."""
        if e.algebra != self.algebra:
            raise AlgebraMismatch("element and representation algebras differ")
        out = self._images.get(e)
        if out is None:
            out = GaussMatrix.zero(self.dim_rep)
            for mono, coeff in e.terms.items():
                out = out + self._monomial_matrix(mono).scale(coeff)
            self._images[e] = out
        return out

    def evaluate(self, e: AlgebraElement):
        """pi(e) as rows of Scalars."""
        return self.image(e).scalars()

    def weighted_matrix(self, e: AlgebraElement) -> GaussMatrix:
        """S * pi(e); Hermitian exactly when e is hermitean."""
        M = self.image(e)
        s, sden = clear(self.metric)
        return GaussMatrix([[w * x for x in row] for w, row in zip(s, M.re)],
                           [[w * x for x in row] for w, row in zip(s, M.im)], M.den * sden)

    def is_positive(self, e: AlgebraElement) -> LdlResult:
        """Decide <dU(e) phi, phi> >= 0 for all phi, with an exact witness.

        The result is the factorization of H = S * pi(e), true exactly when H
        is PSD.  H is exactly Hermitian (e is hermitean and every generator
        image is skew-adjoint for S), so its witness_value is exactly
        <dU(e) phi, phi> = phi^* H phi at its witness phi.
        """
        if not e.is_hermitean():
            raise NotHermitean("positivity is only defined for hermitean elements")
        return ldl_hermitian(self.weighted_matrix(e))

    def __repr__(self):
        return f"FiniteDimRep({self.label or 'unnamed'}, N={self.dim_rep})"


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
    X1, X2, X3 = ([[Scalar(0)] * n for _ in range(n)] for _ in range(3))
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
        mat = [[Scalar(0)] * total for _ in range(total)]
        offset = 0
        for rep in reps:
            for p, row in enumerate(rep.mats[k].scalars()):
                mat[offset + p][offset:offset + len(row)] = row
            offset += rep.dim_rep
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
