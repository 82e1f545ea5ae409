"""Exception types shared across the package."""


class PermatchError(Exception):
    """Base class for all package-specific failures."""


class BadParamsError(PermatchError, ValueError):
    """A constructor or operation was called with out-of-contract parameters."""


class TooLargeError(PermatchError):
    """The instance exceeds the size cap of an exact/exhaustive routine."""


class SelfLoopError(PermatchError):
    pass


class OutOfRangeError(PermatchError):
    pass


class GraphSyntaxError(PermatchError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotOnGraphError(PermatchError):
    """A permutation moves some vertex along a missing arc."""


class NotDerangementError(PermatchError):
    pass


class NotInImageError(PermatchError):
    """The permutation has no preimage under the cycle-breaking injection."""


class CounterexampleError(PermatchError):
    """A statement this package treats as proven just failed on a concrete instance."""
