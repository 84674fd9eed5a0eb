"""Exception types shared across the package."""


class SpannerDrawError(Exception):
    """Base class for all package errors."""


class InstanceTooLarge(SpannerDrawError):
    """Raised when an exact exponential-time routine is asked to exceed its size limit."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"instance has {n} vertices, exact routine limited to {limit}")


class NotConnectedError(SpannerDrawError):
    """Input graph is not connected."""


class NotPlanarError(SpannerDrawError):
    """Input graph is not planar."""


class NotATreeError(SpannerDrawError):
    """Input graph is not a tree."""


class TooSmallError(SpannerDrawError):
    """Input graph is below the minimum size for the operation."""


class DisconnectedDrawingError(SpannerDrawError):
    """Metric is undefined because the drawn graph is disconnected."""


class NoEdgesError(SpannerDrawError):
    """Metric is undefined because the drawing has no edges."""


class ZeroLengthEdgeError(SpannerDrawError):
    """A measure normalized by an edge length is undefined: the edge has length 0."""


class DegreeTargetMissed(SpannerDrawError):
    """Local search produced a spanning tree whose maximum degree exceeds the target.

    The tree itself is still valid and attached, so callers may accept it.
    """

    def __init__(self, achieved: int, target: int, tree=None):
        self.achieved = achieved
        self.target = target
        self.tree = tree
        super().__init__(
            f"spanning tree max degree {achieved} exceeds target {target}"
        )
