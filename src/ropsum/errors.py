"""Exception hierarchy shared across the package.

Parse failures and precondition violations are kept apart so the CLI can
map them to distinct exit codes (2 and 3 respectively).
"""


class RopsumError(Exception):
    """Base class for all package errors."""


class ParseError(RopsumError):
    """Malformed textual input; the message gives the offending token's
    position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


class PreconditionError(RopsumError):
    """A documented precondition was violated by the caller."""


class FieldMismatch(PreconditionError):
    """Operands live in different fields."""


class DivisionByZero(PreconditionError, ZeroDivisionError):
    """Division or inversion of a zero field element."""


class IndexOutOfRange(PreconditionError):
    """Variable index outside 1..n."""


class PreconditionViolated(PreconditionError):
    """Any other broken precondition; the message names it."""
