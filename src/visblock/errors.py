"""Exception types shared across the package, and the JSON type checks the
input checks raise them on: `_json_int`, the one JSON integer test, and
`_expect`, the one type check of JSON read from outside the program, which
words its error "<what> must be <a type>, got <value>"."""

_JSON_KINDS = {int: "an integer", bool: "a boolean", dict: "an object", list: "a list",
               str: "a string"}


def _json_int(v) -> bool:
    # a JSON integer: Python's bool is an int, but JSON's true is no number
    return isinstance(v, int) and not isinstance(v, bool)


def _expect(value, kind: type, what: str):
    """value, if it has the JSON type kind (a boolean is no integer); else
    the input is malformed."""
    if not (_json_int(value) if kind is int else isinstance(value, kind)):
        raise GeometryError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


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
