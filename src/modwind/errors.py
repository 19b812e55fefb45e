"""Exception types shared across the package."""


class ModwindError(Exception):
    """Base class for all library errors."""


class DomainError(ModwindError, ValueError):
    """Argument outside the mathematical domain of the function.

    Also a ValueError, so code that catches ValueError around a Mat2, a
    CyclicWord or a generator power keeps catching it.
    """


class NotHyperbolic(ModwindError):
    """Matrix has |trace| <= 2 (or is upper triangular) where a hyperbolic one is required."""


class NotPrimitive(ModwindError):
    """Matrix is a proper power of another group element."""


class ResourceError(ModwindError):
    """Insufficient data, numerical failure or a refused cap: exit 3."""


class CapExceeded(ResourceError):
    """A configured resource cap (length bound, trace cap) was exceeded."""


class InsufficientData(ResourceError):
    """Not enough geodesic records for a meaningful statistic."""


class QuadratureFailure(ResourceError):
    """A numerical route's own check did not meet its tolerance."""
