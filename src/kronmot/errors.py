"""Exceptions shared across the package, and the default size cap of the
one enumeration that has one."""

# ballot paths ``tamari`` enumerates at most, unless told otherwise
DEFAULT_MAX_PATHS = 10000


class KronmotError(Exception):
    """Base class for all errors raised by this package."""


class NonPolynomialError(KronmotError):
    """An exact polynomial division left a remainder."""


class NotInvertibleError(KronmotError):
    """Series inversion requires the constant term 1."""


class NonZeroConstantError(KronmotError):
    """The difference-operator inversion needs a vanishing constant term."""


class ExactDivisionError(KronmotError):
    """A division that must be exact (quantum-integer prefactors) failed."""


class NoConvergenceError(KronmotError):
    """The solved F failed the check against the untelescoped functional
    equation."""


class NonIntegerError(KronmotError):
    """A closed-form expression failed to reduce to an integer."""


class NonCoprimeError(KronmotError):
    """Moduli motives are only defined here for coprime dimension vectors."""


class InsufficientBoundError(KronmotError):
    """The precomputed table does not reach far enough for the request."""


class ResourceLimitError(KronmotError):
    """An enumeration would exceed the configured size cap."""
