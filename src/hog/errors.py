"""Exception hierarchy shared by every module.

Two branches so scripts can tell failure classes apart by exit code:
``InputError`` (CLI exit 2) covers unparseable files and broken references,
``DomainError`` (CLI exit 1) covers well-formed inputs that simply lack the
property an operation needs (not Eulerian, not strongly connected, ...).
``InvariantError`` (CLI exit 1) is neither: an internal check that valid
input cannot fail, raised instead of a bare ``AssertionError``.
"""


class HogError(Exception):
    """Base class for all library errors."""


class InvariantError(HogError):
    """An internal invariant failed: a fault in hog, not in its input."""


class InputError(HogError):
    """Malformed input: parse failures, duplicate or dangling references."""


class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


class DuplicateIdError(ValidationError):
    pass


class DanglingEndpointError(ValidationError):
    pass


class UnknownNodeError(ValidationError):
    pass


class UnknownArcError(ValidationError):
    pass


class SameNodeError(ValidationError):
    pass


class InvalidMorphismError(ValidationError):
    pass


class CoefficientError(ValidationError):
    """A chain coefficient that is not an int (bools included)."""


class DomainError(HogError):
    """Structurally valid input without the property the operation requires."""


class EmptyGraphError(DomainError):
    pass


class NoArcsError(DomainError):
    pass


class NotEulerianError(DomainError):
    pass


class NotConnectedError(DomainError):
    pass


class NotStronglyConnectedError(DomainError):
    pass


class CapExceededError(DomainError):
    pass


class NoConvergenceError(DomainError):
    pass


class LengthMismatchError(DomainError):
    pass


class EndpointMismatchError(DomainError):
    pass


class NotSimpleError(DomainError):
    pass


class NegativeCoefficientError(DomainError):
    pass


class NonzeroBoundaryError(DomainError):
    pass
