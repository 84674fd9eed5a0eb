"""Exception types shared across the package.

Every construction draws any input that meets its preconditions, and every
recognizer answers yes or no, so an operation fails only on a
PreconditionError, a malformed file (fileio.FileFormatError), or a bug.
"""


class SpannerDrawError(Exception):
    """Base class for all package errors."""


class PreconditionError(SpannerDrawError):
    """The input does not meet the operation's preconditions."""


class InstanceTooLarge(PreconditionError):
    """Raised when an exact exponential-time routine is asked to exceed its size limit."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"instance has {n} vertices, exact routine limited to {limit}")


class NotConnectedError(PreconditionError):
    """Input graph is not connected."""


class NotPlanarError(PreconditionError):
    """Input graph is not planar."""


class NotATreeError(PreconditionError):
    """Input graph is not a tree."""


class TooSmallError(PreconditionError):
    """Input graph is below the minimum size for the operation."""


class DisconnectedDrawingError(PreconditionError):
    """Metric is undefined because the drawn graph is disconnected."""


class NoEdgesError(PreconditionError):
    """Metric is undefined because the drawing has no edges."""


class ZeroLengthEdgeError(PreconditionError):
    """A measure normalized by an edge length is undefined: the edge has length 0."""


class PrecisionExhausted(PreconditionError):
    """No enclosure up to the precision cap meets the requested tolerance."""
