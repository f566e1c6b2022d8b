"""Exact rational plane geometry: points, point sets, line structure.

Everything in this module is tolerance-free. Coordinates are Fractions,
predicates reduce to integer sign computations, and equality means exact
value equality. The segment predicates (`orientation`, `on_open_segment`,
`segment_intersection`) take integer pairs of a scaled view (`_scale`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DegenerateHull, GeometryError, _expect

Rational = Union[int, str, Fraction]


def _frac(v: Rational) -> Fraction:
    if type(v) is Fraction:  # already exact and reduced
        return v
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise GeometryError(f"zero denominator in coordinate {v!r}") from None
    except (ValueError, TypeError, OverflowError):  # OverflowError: an infinite float
        raise GeometryError(f"bad rational literal {v!r}") from None


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _obj(v):
    # a dict field (generator params, budgets) is JSON already and kept as is
    if isinstance(v, Record):
        return v.to_obj()
    if isinstance(v, (tuple, list)):
        return [_obj(x) for x in v]
    return v


class Record:
    """Base of the dataclasses written out as JSON: each field under its own
    name, a nested record by its own to_obj, a tuple or list item by item,
    any other value as it is. A record whose JSON shape differs overrides
    to_obj."""

    def to_obj(self):
        return {f.name: _obj(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, order=True)
class Point(Record):
    """A plane point with exact rational coordinates.

    Fraction keeps numerator/denominator coprime with positive denominator,
    so equality and hashing are exact value identity.
    """

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))

    def to_obj(self) -> list:
        return [_frac_str(self.x), _frac_str(self.y)]

    @classmethod
    def from_obj(cls, obj) -> "Point":
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise GeometryError(f"point must be a 2-element list, got {obj!r}")
        if any(isinstance(v, bool) for v in obj):
            raise GeometryError(f"point coordinates must be numbers, not booleans: {obj!r}")
        return cls(_frac(obj[0]), _frac(obj[1]))


def orientation(p: tuple[int, int], q: tuple[int, int], r: tuple[int, int]) -> int:
    """Sign of the determinant of (q-p, r-p) on integer pairs: +1 ccw, -1 cw,
    0 collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def on_open_segment(x: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> bool:
    """x strictly between a and b on integer pairs: on the line ab, and
    projecting strictly inside (0, |b - a|^2)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    ux, uy = x[0] - a[0], x[1] - a[1]
    return ux * dy == uy * dx and 0 < ux * dx + uy * dy < dx * dx + dy * dy


def _first_blockers(
    vertices: Sequence[Point], segments: Iterable[tuple[int, int]], blockers: Iterable[Point]
) -> Iterator[Optional[int]]:
    """Per segment, a pair of distinct vertex indices, lazily: the index of
    the first blocker strictly inside it, or None."""
    # one lcm over every blocker grows with their number: each blocker is
    # instead put at (X/e, Y/e) on the vertex view and tested against that
    # view scaled by its own e, one scaled copy per distinct e
    den, xy = _scale(vertices)
    views = {1: xy}
    placed = []
    for b in blockers:
        q = lcm(b.x.denominator, b.y.denominator)
        e = q // gcd(den, q)  # the least e that makes den * e * b integral
        if e not in views:
            views[e] = tuple((e * u, e * v) for u, v in xy)
        s = den * e
        x = (b.x.numerator * (s // b.x.denominator), b.y.numerator * (s // b.y.denominator))
        placed.append((x, views[e]))
    for i, j in segments:
        yield next((k for k, (x, v) in enumerate(placed) if on_open_segment(x, v[i], v[j])), None)


# segment_intersection's outcome for segments sharing a whole open subsegment
_OVERLAP = (0, 0, 0)


def segment_intersection(
    a1: tuple[int, int], b1: tuple[int, int], a2: tuple[int, int], b2: tuple[int, int]
) -> Optional[tuple[int, int, int]]:
    """How segments a1b1 and a2b2 meet, on integer pairs with a1 != b1 and
    a2 != b2: None when they miss or touch endpoint to endpoint, _OVERLAP
    when they are collinear and share a whole open subsegment, else the
    meeting point (X/D, Y/D) as the reduced triple (X, Y, D) with D > 0. The
    point is interior to at least one of the two segments."""
    d1x, d1y = b1[0] - a1[0], b1[1] - a1[1]
    d2x, d2y = b2[0] - a2[0], b2[1] - a2[1]
    wx, wy = a2[0] - a1[0], a2[1] - a1[1]
    den = d1x * d2y - d1y * d2x
    if den == 0:
        if wx * d1y - wy * d1x != 0:
            return None  # parallel, different lines
        # collinear: parameter interval of segment 2 along segment 1, times |d1|^2
        ta = wx * d1x + wy * d1y
        tb = (b2[0] - a1[0]) * d1x + (b2[1] - a1[1]) * d1y
        lo, hi = (ta, tb) if ta <= tb else (tb, ta)
        if min(d1x * d1x + d1y * d1y, hi) > max(0, lo):
            return _OVERLAP
        return None  # disjoint, or endpoint-to-endpoint touch
    t = wx * d2y - wy * d2x
    s = wx * d1y - wy * d1x
    if den < 0:
        den, t, s = -den, -t, -s
    if not (0 <= t <= den and 0 <= s <= den) or not (0 < t < den or 0 < s < den):
        return None  # apart, or the segments just touch endpoint to endpoint
    x, y = a1[0] * den + t * d1x, a1[1] * den + t * d1y
    g = gcd(x, y, den)
    return x // g, y // g, den // g


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
class PointSet(Record):
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

    @classmethod
    def from_obj(cls, obj) -> "PointSet":
        if not isinstance(obj, dict) or "points" not in obj:
            raise GeometryError("point set object needs a 'points' field")
        name = _expect(obj.get("name", ""), str, "point set 'name'")
        pts = _expect(obj["points"], list, "point set 'points'")
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
    # Fan out from each i over j > i by primitive sign-fixed direction,
    # skipping each j that shares a recorded line of 3+ points with i. The
    # line through i and an unskipped j has no member below i, as a line of
    # 3+ points is recorded at its lowest member, so every fan is a new
    # whole line. Records come out sorted: by i, then by the first j of
    # each fan.
    records = []
    shared = [0] * n  # shared[i]: the points on a recorded line of 3+ with i
    for i, (xi, yi) in enumerate(xy):
        fan: dict[tuple[int, int], list[int]] = {}
        skip = shared[i]
        for j in range(i + 1, n):
            if skip >> j & 1:
                continue
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
        for direction, members in fan.items():
            if len(members) > 2:
                line = sum(1 << k for k in members)
                for k in members:
                    shared[k] |= line
            records.append(LineRecord(tuple(members), direction))
    return tuple(records)


def sorted_along_line(ps: PointSet, rec: LineRecord) -> list[int]:
    """Member indices of rec reordered by position along the line."""
    _, xy = ps.integer_view
    dx, dy = rec.direction
    return sorted(rec.member_indices, key=lambda i: xy[i][0] * dx + xy[i][1] * dy)


def max_collinear(ps: PointSet) -> int:
    return max(len(r.member_indices) for r in ps.lines)


def is_general_position(ps: PointSet) -> bool:
    return max_collinear(ps) <= 2


def _hull_vertices(xy: Sequence[tuple[int, int]]) -> list[int]:
    # monotone chain on an integer view, strict turns only: indices of the
    # corners of the hull, ccw
    srt = sorted(range(len(xy)), key=xy.__getitem__)
    lower: list[int] = []
    for i in srt:
        while len(lower) >= 2 and orientation(xy[lower[-2]], xy[lower[-1]], xy[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(srt):
        while len(upper) >= 2 and orientation(xy[upper[-2]], xy[upper[-1]], xy[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def convex_hull_size(ps: PointSet) -> int:
    """Number of points on the convex hull boundary.

    Points interior to hull edges count too; only points strictly inside
    the hull are excluded. Needs at least 3 points not all on one line.
    """
    if len(ps) < 3:
        raise DegenerateHull("hull needs at least 3 points")
    if max_collinear(ps) == len(ps):
        raise DegenerateHull("all points collinear, hull is degenerate")
    _, xy = ps.integer_view
    hull = [xy[i] for i in _hull_vertices(xy)]
    k = len(hull)
    on_boundary = 0
    for p in xy:
        if all(orientation(hull[i], hull[(i + 1) % k], p) > 0 for i in range(k)):
            continue  # strictly inside
        on_boundary += 1
    return on_boundary
