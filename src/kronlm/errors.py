"""Exception types shared across the package, and the integer and real-number
argument checks."""

import numbers


def _check_int(name: str, value, low: int | None = None) -> None:
    """Raises ValueError naming ``name`` unless ``value`` is an int (not a
    bool) of at least ``low``; with ``low`` None only the type is checked."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_real(name: str, value) -> None:
    """Raises ValueError naming ``name`` unless ``value`` is a real number
    (not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class KronlmError(Exception):
    """Base class for all library errors."""


class ShapeError(KronlmError):
    """Operands have incompatible dimensions. The message names both shapes."""


class PlanningError(KronlmError):
    """No valid factor-shape split exists for the requested compression."""


class TokenIdError(KronlmError):
    """A token id falls outside the vocabulary. The message names the id."""


class NonFiniteLossError(KronlmError):
    """A loss component went NaN/Inf. The message names the component."""


class ArchiveError(KronlmError):
    """Base class for checkpoint container failures."""


class BadMagicError(ArchiveError):
    pass


class BadVersionError(ArchiveError):
    pass


class CrcError(ArchiveError):
    pass


class TruncationError(ArchiveError):
    pass


class DuplicateNameError(ArchiveError):
    pass
