"""Exact rational plane geometry: points, point sets, line structure.

Everything in this module is tolerance-free. Coordinates are Fractions,
predicates reduce to integer sign computations, and equality means exact
value equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DegenerateHull, DegenerateSegment, GeometryError

Rational = Union[int, str, Fraction]


def _frac(v: Rational) -> Fraction:
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise GeometryError(f"zero denominator in coordinate {v!r}") from None
    except (ValueError, TypeError):
        raise GeometryError(f"bad rational literal {v!r}") from None


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, order=True)
class Point:
    """A plane point with exact rational coordinates.

    Fraction keeps numerator/denominator coprime with positive denominator,
    so equality and hashing are exact value identity.
    """

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, f: Rational) -> "Point":
        f = Fraction(f)
        return Point(self.x * f, self.y * f)

    def to_obj(self) -> list:
        return [_frac_str(self.x), _frac_str(self.y)]

    @classmethod
    def from_obj(cls, obj) -> "Point":
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise GeometryError(f"point must be a 2-element list, got {obj!r}")
        return cls(_frac(obj[0]), _frac(obj[1]))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the determinant of (q-p, r-p): +1 ccw, -1 cw, 0 collinear."""
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def collinear(p: Point, q: Point, r: Point) -> bool:
    return orientation(p, q, r) == 0


def on_open_segment(x: Point, a: Point, b: Point) -> bool:
    """True iff x lies strictly between a and b on the segment (endpoints out)."""
    if a == b:
        raise DegenerateSegment(f"segment endpoints coincide at {a}")
    if x == a or x == b or orientation(a, b, x) != 0:
        return False
    if a.x != b.x:
        lo, hi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
        return lo < x.x < hi
    lo, hi = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    return lo < x.y < hi


def _first_blockers(
    segments: Iterable[tuple[Point, Point]], blockers: Sequence[Point]
) -> Iterator[Optional[int]]:
    """Per segment, lazily, the index of the first blocker strictly inside
    it, or None."""
    return (
        next((k for k, x in enumerate(blockers) if on_open_segment(x, a, b)), None)
        for a, b in segments
    )


@dataclass(frozen=True)
class SegmentMeet:
    """Intersection outcome of two segments: kind in {empty, point, overlap}.

    kind == "point" carries the meeting point; it is interior to at least one
    of the two segments. A touch of two endpoints counts as empty, and two
    collinear segments sharing a whole open subsegment count as overlap.
    """

    kind: str
    point: Optional[Point] = None


_EMPTY = SegmentMeet("empty")
_OVERLAP = SegmentMeet("overlap")


def _cross(ax: Fraction, ay: Fraction, bx: Fraction, by: Fraction) -> Fraction:
    return ax * by - ay * bx


def segment_intersection(a1: Point, b1: Point, a2: Point, b2: Point) -> SegmentMeet:
    if a1 == b1 or a2 == b2:
        raise DegenerateSegment("degenerate segment in intersection query")
    d1x, d1y = b1.x - a1.x, b1.y - a1.y
    d2x, d2y = b2.x - a2.x, b2.y - a2.y
    wx, wy = a2.x - a1.x, a2.y - a1.y
    denom = _cross(d1x, d1y, d2x, d2y)
    if denom == 0:
        if _cross(wx, wy, d1x, d1y) != 0:
            return _EMPTY  # parallel, different lines
        # collinear: compare parameter intervals along segment 1
        dd = d1x * d1x + d1y * d1y
        ta = ((a2.x - a1.x) * d1x + (a2.y - a1.y) * d1y) / dd
        tb = ((b2.x - a1.x) * d1x + (b2.y - a1.y) * d1y) / dd
        lo2, hi2 = (ta, tb) if ta <= tb else (tb, ta)
        if min(Fraction(1), hi2) > max(Fraction(0), lo2):
            return _OVERLAP
        return _EMPTY  # disjoint, or endpoint-to-endpoint touch
    t = _cross(wx, wy, d2x, d2y) / denom
    s = _cross(wx, wy, d1x, d1y) / denom
    if not (0 <= t <= 1 and 0 <= s <= 1):
        return _EMPTY
    interior1 = 0 < t < 1
    interior2 = 0 < s < 1
    if not (interior1 or interior2):
        return _EMPTY  # the segments just touch endpoint to endpoint
    return SegmentMeet("point", Point(a1.x + t * d1x, a1.y + t * d1y))


def _scale(pts: Sequence[Point]) -> tuple[int, tuple[tuple[int, int], ...]]:
    # (L, (L*p for p)) with L the lcm of every coordinate denominator: a
    # positive scaling, so incidences, orders and sum coincidences carry over
    den = lcm(*(d for p in pts for d in (p.x.denominator, p.y.denominator)))
    return den, tuple(
        (p.x.numerator * (den // p.x.denominator), p.y.numerator * (den // p.y.denominator))
        for p in pts
    )


def _unscaled(coords: Iterable[tuple[int, int]], den: int) -> Iterator[Point]:
    # back from an integer view: the points (x/den, y/den)
    return (Point(Fraction(x, den), Fraction(y, den)) for x, y in coords)


@dataclass(frozen=True)
class LineRecord:
    """A maximal collinear subset of a point set, by index.

    member_indices is sorted by index; direction is a primitive integer
    vector along the line.
    """

    member_indices: tuple[int, ...]
    direction: tuple[int, int]

    def __len__(self) -> int:
        return len(self.member_indices)


@dataclass(frozen=True)
class PointSet:
    """Ordered duplicate-free list of points; index i names a point for good."""

    points: tuple[Point, ...]
    name: str = ""

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        seen = set()
        for p in pts:
            if not isinstance(p, Point):
                raise GeometryError(f"PointSet entries must be Points, got {p!r}")
            if p in seen:
                raise GeometryError(f"duplicate point {p.to_obj()} in set {self.name!r}")
            seen.add(p)

    @classmethod
    def build(cls, coords: Iterable[tuple[Rational, Rational]], name: str = "") -> "PointSet":
        return cls(tuple(Point(x, y) for x, y in coords), name)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def lines(self) -> tuple[LineRecord, ...]:
        return lines_of(self)

    @cached_property
    def integer_view(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return _scale(self.points)

    def to_obj(self) -> dict:
        return {"name": self.name, "points": [p.to_obj() for p in self.points]}

    @classmethod
    def from_obj(cls, obj) -> "PointSet":
        if not isinstance(obj, dict) or "points" not in obj:
            raise GeometryError("point set object needs a 'points' field")
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise GeometryError("point set 'name' must be a string")
        pts = obj["points"]
        if not isinstance(pts, list):
            raise GeometryError("'points' must be a list")
        return cls(tuple(Point.from_obj(p) for p in pts), name)


def lines_of(ps: PointSet) -> tuple[LineRecord, ...]:
    """All maximal collinear subsets of size >= 2, one record per line.

    Records are ordered by their member index tuples, so the line through
    the smallest indices comes first.
    """
    _, xy = ps.integer_view
    n = len(xy)
    if n < 2:
        raise GeometryError("need at least 2 points for line structure")
    # Fan out from each i over j > i by primitive sign-fixed direction; a
    # fan is a whole line the first time its (direction, offset) key shows,
    # and then i is its smallest member. Records come out sorted: by i,
    # then by the first j of each fan.
    records = []
    seen: set[tuple[int, int, int]] = set()
    for i, (xi, yi) in enumerate(xy):
        fan: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, n):
            xj, yj = xy[j]
            dx, dy = xj - xi, yj - yi
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            members = fan.get((dx, dy))
            if members is None:
                fan[dx, dy] = [i, j]
            else:
                members.append(j)
        for (dx, dy), members in fan.items():
            key = (dx, dy, dy * xi - dx * yi)
            if key not in seen:
                seen.add(key)
                records.append(LineRecord(tuple(members), (dx, dy)))
    return tuple(records)


def sorted_along_line(ps: PointSet, rec: LineRecord) -> list[int]:
    """Member indices of rec reordered by position along the line."""
    _, xy = ps.integer_view
    dx, dy = rec.direction
    return sorted(rec.member_indices, key=lambda i: xy[i][0] * dx + xy[i][1] * dy)


def max_collinear(ps: PointSet) -> int:
    return max(len(r) for r in ps.lines)


def is_general_position(ps: PointSet) -> bool:
    return max_collinear(ps) <= 2


def _hull_vertices(pts: Sequence[Point]) -> list[Point]:
    # monotone chain, strict turns only: corners of the hull, ccw
    srt = sorted(set(pts), key=lambda p: (p.x, p.y))
    if len(srt) < 3:
        return srt
    lower: list[Point] = []
    for p in srt:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(srt):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull_size(ps: PointSet) -> int:
    """Number of points on the convex hull boundary.

    Points interior to hull edges count too; only points strictly inside
    the hull are excluded. Needs at least 3 points not all on one line.
    """
    pts = list(ps)
    if len(pts) < 3:
        raise DegenerateHull("hull needs at least 3 points")
    if max_collinear(ps) == len(pts):
        raise DegenerateHull("all points collinear, hull is degenerate")
    hull = _hull_vertices(pts)
    k = len(hull)
    on_boundary = 0
    for p in pts:
        if all(orientation(hull[i], hull[(i + 1) % k], p) > 0 for i in range(k)):
            continue  # strictly inside
        on_boundary += 1
    return on_boundary
