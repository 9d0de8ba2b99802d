"""Exception types shared across the package."""


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
