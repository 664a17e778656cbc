"""Exception types shared across the library."""

__all__ = ["DomainError", "InversionError", "EnumerationCapError"]


class DomainError(ValueError):
    """A point violates the domain a generator is defined on."""


class InversionError(RuntimeError):
    """A dual point could not be mapped back into the primal domain."""


class EnumerationCapError(RuntimeError):
    """Exact ensemble enumeration would exceed the atom cap, ``ENSEMBLE_ATOM_CAP``."""
