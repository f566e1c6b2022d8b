"""Exception types shared across the package, and the one JSON integer test
the input checks raise them on."""


def _json_int(v) -> bool:
    # a JSON integer: Python's bool is an int, but JSON's true is no number
    return isinstance(v, int) and not isinstance(v, bool)


class GeometryError(ValueError):
    """Base class for geometric input problems."""


class DegenerateSegment(GeometryError):
    """A segment whose two endpoints coincide."""


class DegenerateHull(GeometryError):
    """Hull requested for fewer than three points, or an all-collinear set."""


class NotGeneralPosition(GeometryError):
    """Operation requires no three collinear points and the input has some."""


class SegmentOverlap(GeometryError):
    """Two input segments share a collinear subsegment where that is not allowed."""


class DisconnectedVisibility(GeometryError):
    """A visibility graph that should be connected is not."""
