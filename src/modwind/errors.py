"""Exception types shared across the package."""


class ModwindError(Exception):
    """Base class for all library errors."""


class NotHyperbolic(ModwindError):
    """Matrix has |trace| <= 2 (or is upper triangular) where a hyperbolic one is required."""


class NotPrimitive(ModwindError):
    """Matrix is a proper power of another group element."""


class NonPositiveModulus(ModwindError):
    """Dedekind sum requested with modulus k < 1."""


class OddLength(ModwindError):
    """Cyclic word has odd length."""


class NonPositiveEntry(ModwindError):
    """Cyclic word contains an entry < 1."""


class ResourceError(ModwindError):
    """Insufficient data, numerical failure or a refused cap: exit 3."""


class CapExceeded(ResourceError):
    """A configured resource cap (length bound, trace cap) was exceeded."""


class InsufficientData(ResourceError):
    """Not enough geodesic records for a meaningful statistic."""


class QuadratureFailure(ResourceError):
    """Numerical integration did not converge to the requested accuracy."""


class StepTooCoarse(ResourceError):
    """Argument tracking step produced an increment >= pi/2."""


class ResidualTooLarge(ResourceError):
    """Winding total was too far from an integer multiple of 2*pi."""


class NonPositiveImaginary(ModwindError):
    """Point is not in the upper half-plane."""


class DomainError(ModwindError):
    """Argument outside the mathematical domain of the function."""
