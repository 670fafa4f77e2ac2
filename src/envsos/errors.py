"""Exception types shared across the package, and the nonnegative-integer input check."""


class EnvSosError(Exception):
    """Base class for all package errors."""


class AlgebraValidationError(EnvSosError):
    """Structure constants fail a defining identity."""


class AntisymmetryViolation(AlgebraValidationError):
    def __init__(self, i: int, j: int, k: int):
        self.indices = (i, j, k)
        super().__init__(f"c^{k}_{{{i},{j}}} != -c^{k}_{{{j},{i}}}")


class JacobiViolation(AlgebraValidationError):
    def __init__(self, i: int, j: int, k: int, l: int, residual):
        self.indices = (i, j, k, l)
        self.residual = residual
        super().__init__(f"Jacobi sum for (i,j,k,l)=({i},{j},{k},{l}) is {residual}, not 0")


class UnknownAlgebra(EnvSosError):
    pass


class AlgebraMismatch(EnvSosError):
    """Operands belong to different algebras."""


class ExprSyntaxError(EnvSosError):
    """Malformed element expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifier(ExprSyntaxError):
    def __init__(self, name: str, position: int):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", position)


class NegativeExponent(ExprSyntaxError):
    def __init__(self, position: int):
        super().__init__("exponent must be a nonnegative integer", position)


class CyclicAlias(EnvSosError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"alias '{name}' expands through itself")


class DegreeMismatch(EnvSosError):
    pass


class NonRealSymbol(EnvSosError):
    """Principal symbol of a supposedly hermitean element has imaginary coefficients."""


class NotAbelian(EnvSosError):
    pass


class NotHermitean(EnvSosError):
    pass


class ContextInvalid(EnvSosError):
    """Operator-algebra context fails a constructor invariant."""


class OddDegreeTarget(EnvSosError):
    """Gram problems are built for an even degree window."""


class NonCentralA(EnvSosError):
    def __init__(self):
        super().__init__(
            "the canonical element is not central in this algebra; the power family a^n "
            "is unavailable, supply explicit conjugators instead"
        )


class CertificateFormatError(EnvSosError):
    """Certificate JSON does not match the documented schema."""


def nonnegative_int(value, what: str) -> int:
    """value itself when it is a nonnegative int; a bool, float or string is a ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, not {value!r}")
    return value
