"""Commutative polynomials with rational coefficients.

These carry principal symbols and the commutative sum-of-squares mode.  The
representation mirrors AlgebraElement: sparse map from exponent tuples to
Fractions, but multiplication is plain exponent addition.

Evaluation is exact and runs in integer arithmetic.  The coefficient
denominators are cleared once per polynomial (integer c_m, common
denominator L, cached on the instance, so instances are never mutated after
construction); a rational point is written n/d with d the lcm of its
coordinate denominators.  Then

    p(n/d) = S / (L * d^deg),   S = sum_m c_m * n^m * d^(deg - |m|),

with S built from per-variable power tables.  The denominator is positive,
so the sign of p at the point is the sign of the integer S.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import clear
from .scalar import Scalar


class CommutativePoly:
    __slots__ = ("nvars", "coeffs", "_integer_form")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self.nvars = nvars
        clean = {}
        if coeffs:
            for m, q in coeffs.items():
                q = q if isinstance(q, Fraction) else Fraction(q)
                if q:
                    clean[tuple(m)] = q
        self.coeffs = clean
        self._integer_form = None

    @staticmethod
    def zero(nvars: int) -> "CommutativePoly":
        return CommutativePoly(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "CommutativePoly":
        return CommutativePoly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, idx: int) -> "CommutativePoly":
        mono = [0] * nvars
        mono[idx] = 1
        return CommutativePoly(nvars, {tuple(mono): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, mono, coeff=1) -> "CommutativePoly":
        return CommutativePoly(nvars, {tuple(mono): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        if not self.coeffs:
            return None
        return max(sum(m) for m in self.coeffs)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.coeffs}
        return len(degrees) <= 1

    def __eq__(self, other):
        if not isinstance(other, CommutativePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "CommutativePoly") -> "CommutativePoly":
        out = dict(self.coeffs)
        for m, q in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + q
        return CommutativePoly(self.nvars, out)

    def __sub__(self, other: "CommutativePoly") -> "CommutativePoly":
        return self + (-other)

    def __neg__(self) -> "CommutativePoly":
        return CommutativePoly(self.nvars, {m: -q for m, q in self.coeffs.items()})

    def scale(self, factor) -> "CommutativePoly":
        factor = Fraction(factor)
        return CommutativePoly(self.nvars, {m: factor * q for m, q in self.coeffs.items()})

    def __mul__(self, other: "CommutativePoly") -> "CommutativePoly":
        out: dict = {}
        for m1, q1 in self.coeffs.items():
            for m2, q2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + q1 * q2
        return CommutativePoly(self.nvars, out)

    def __pow__(self, n: int) -> "CommutativePoly":
        result = CommutativePoly.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def exact_quotient(self, divisor: "CommutativePoly") -> "CommutativePoly | None":
        """self / divisor when the divisor divides exactly, else None.

        Long division on lexicographic leading terms; one divisor is a
        Groebner basis of the ideal it generates, so a zero remainder
        decides divisibility.
        """
        if divisor.is_zero():
            return CommutativePoly(self.nvars) if self.is_zero() else None
        lead = max(divisor.coeffs)
        lead_coeff = divisor.coeffs[lead]
        rest = dict(self.coeffs)
        quotient = {}
        while rest:
            m = max(rest)
            if any(a < b for a, b in zip(m, lead)):
                return None
            qm = tuple(a - b for a, b in zip(m, lead))
            qc = rest[m] / lead_coeff
            quotient[qm] = qc
            for dm, dc in divisor.coeffs.items():
                mm = tuple(a + b for a, b in zip(qm, dm))
                v = rest.get(mm, 0) - qc * dc
                if v:
                    rest[mm] = v
                else:
                    rest.pop(mm, None)
        return CommutativePoly(self.nvars, quotient)

    def differentiate(self, idx: int) -> "CommutativePoly":
        out = {}
        for m, q in self.coeffs.items():
            e = m[idx]
            if e:
                mm = list(m)
                mm[idx] -= 1
                out[tuple(mm)] = out.get(tuple(mm), Fraction(0)) + q * e
        return CommutativePoly(self.nvars, out)

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point."""
        s, den = self._integer_value(point)
        return Fraction(s, den)

    def sign_at(self, point) -> int:
        """Exact sign (-1, 0 or 1) of the value at a rational point."""
        s, _ = self._integer_value(point)
        return (s > 0) - (s < 0)

    def _integer_value(self, point):
        """(S, L * d^deg): the value at point is S / (L * d^deg), the denominator positive."""
        if self._integer_form is None:
            nums, common = clear(list(self.coeffs.values()))
            deg = self.degree() or 0
            terms = [
                (c, [(i, e) for i, e in enumerate(m) if e], deg - sum(m))
                for m, c in zip(self.coeffs, nums)
            ]
            top = [max((m[i] for m in self.coeffs), default=0) for i in range(self.nvars)]
            self._integer_form = (common, deg, terms, top)
        common, deg, terms, top = self._integer_form
        ns, d = clear([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point])
        powers = []
        for n, e_max in zip(ns, top):
            row = [1]
            for _ in range(e_max):
                row.append(row[-1] * n)
            powers.append(row)
        d_powers = [1]
        for _ in range(deg):
            d_powers.append(d_powers[-1] * d)
        s = 0
        for c, factors, gap in terms:
            for i, e in factors:
                c *= powers[i][e]
            s += c * d_powers[gap]
        return s, common * d_powers[deg]

    def __repr__(self):
        return f"CommutativePoly({self.nvars}, {self.coeffs!r})"

    def render(self) -> str:
        """The canonical text of AlgebraElement's renderer, over the names t1..tn."""
        from .exprs import render_terms

        return render_terms({m: Scalar(q) for m, q in self.coeffs.items()},
                            [f"t{i + 1}" for i in range(self.nvars)])


def squared_norm_poly(nvars: int) -> CommutativePoly:
    """t_1^2 + ... + t_d^2, the sphere multiplier of the hierarchy."""
    out = CommutativePoly.zero(nvars)
    for i in range(nvars):
        v = CommutativePoly.variable(nvars, i)
        out = out + v * v
    return out
