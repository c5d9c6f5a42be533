"""Exception hierarchy shared by all trajreeb modules."""


class TrajreebError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TrajreebError):
    """Malformed input file: bad header, wrong column layout, unsorted rows."""


class ParseError(TrajreebError):
    """Structurally valid file with bad content (e.g. a NaN or infinite coordinate)."""


class UnsupportedFormatError(FormatError):
    """File declares a layout variant this package does not read."""


class ContractError(TrajreebError):
    """An internal precondition was violated by the caller."""


class InvalidTransitionError(TrajreebError):
    """FSM received an event that is not incident to the current state."""
