"""Exact Gaussian-rational scalars.

All coefficient arithmetic in the package runs over Q(i) so that normal forms,
representations and certificate checks are bit-exact.  Floating point is
confined to the numeric feasibility solver.
"""

from __future__ import annotations

from fractions import Fraction


class Scalar:
    """A Gaussian rational re + im*i with arbitrary-precision parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        other = Scalar.coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.coerce(other) / self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- text --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ONE = Scalar(1)
I = Scalar(0, 1)


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def format_scalar(z: Scalar) -> str:
    """Compact form used in JSON matrices: "p/q", "r/s i" or "p/q+r/s i"."""
    if z.im == 0:
        return format_fraction(z.re)
    imag = f"{format_fraction(abs(z.im))} i"
    if z.re == 0:
        return imag if z.im > 0 else f"-{imag}"
    sign = "+" if z.im > 0 else "-"
    return f"{format_fraction(z.re)}{sign}{imag}"


def parse_scalar(text: str) -> Scalar:
    """Inverse of :func:`format_scalar`; tolerant of optional whitespace."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if not s.endswith("i"):
        return Scalar(Fraction(s))
    body = s[:-1]
    # split at the sign that separates real and imaginary parts, if any
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "/+-":
            re_part, im_part = body[:pos], body[pos:]
            im = Fraction(1) if im_part in ("+", "-") else Fraction(im_part)
            if im_part == "-":
                im = Fraction(-1)
            return Scalar(Fraction(re_part), im)
    if body in ("", "+"):
        return Scalar(0, 1)
    if body == "-":
        return Scalar(0, -1)
    return Scalar(0, Fraction(body))
