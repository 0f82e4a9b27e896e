"""Exception types shared across the package."""


class ReesmultError(Exception):
    """Base class for all package errors."""


class ParseError(ReesmultError, ValueError):
    """Malformed input: JSON shape, rational syntax, CLI arguments."""


class DomainError(ReesmultError, ValueError):
    """Input outside an operation's mathematical domain."""


class ResourceLimitError(ReesmultError, RuntimeError):
    """A desk-scale guard (rank or enumeration volume) was exceeded."""


class NotNormalError(DomainError):
    """The ideal is not normal, so its (extended) Rees algebra is not toric."""
