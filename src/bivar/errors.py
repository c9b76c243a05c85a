"""Exception types shared across the package."""


class BivarError(Exception):
    """Base class for all library errors."""


class RankOutOfRange(BivarError):
    """Algebra rank violates the validity bounds of its family."""


class LengthMismatch(BivarError):
    """Weight vector has the wrong number of coordinates."""


class NotDominant(BivarError):
    """Operation requires a dominant weight."""


class InvalidHighestWeight(BivarError):
    """Highest-weight parameters must satisfy k >= l >= 0."""


class ShapeContentMismatch(BivarError):
    """Tableau content does not fill the shape."""


class UnsupportedFamily(BivarError, ValueError):
    """The operation has no formula for this algebra family."""


class NotAnInteger(BivarError, TypeError):
    """An input that must be an integer is a float, a string or another non-int."""
