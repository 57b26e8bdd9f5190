"""Exception types shared across the package."""


class CellmatchError(Exception):
    """Base class for all cellmatch errors."""


class InvalidComplexError(CellmatchError):
    """A complex description violates the data-model invariants."""


class InvalidSubcomplexError(CellmatchError):
    """A cell set is not closed under hyperfaces, or names unknown cells."""


class InvalidLoopError(CellmatchError):
    """An alternating dual cycle violates its invariants."""


class InvalidMatchingError(CellmatchError):
    """An operation requiring a valid matching received an invalid one."""


class InvalidSubdivisionError(CellmatchError):
    """A subdivision map violates the carrier invariants."""


class PreconditionError(CellmatchError):
    """An operation's stated precondition does not hold for the input."""


class HomologyNonzeroError(PreconditionError):
    """A homology precondition failed; carries the offending Betti vector."""

    def __init__(self, message, betti):
        super().__init__(message)
        self.betti = betti


class NotTransverseError(PreconditionError):
    """The direction field is degenerate; carries the offending simplices."""

    def __init__(self, message, simplices):
        super().__init__(message)
        self.simplices = tuple(simplices)


class BruteForceBoundError(CellmatchError):
    """The instance has more cells than the configured size bound."""


class SearchBudgetExceededError(CellmatchError):
    """A bounded search ran out of budget before reaching a verdict."""


class FileFormatError(CellmatchError):
    """A JSON artifact does not conform to its declared format."""
