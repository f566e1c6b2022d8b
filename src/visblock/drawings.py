"""The two-semicircle drawing of the complete graph with collinear blockers.

Vertex i sits at (i, 0). The edge between i < j is drawn as the upper
semicircle from (i, 0) to (-i-j, 0) followed by the lower semicircle from
(-i-j, 0) to (j, 0), so the whole curve meets the x-axis exactly at its two
endpoints and the pivot (-i-j, 0). The pivots range over [-(2n-1), -3], which
is why the 2n-3 points (-k, 0), k in [3, 2n-1], block every edge.

All intersection counting is exact: circles here have half-integer centers
and radii, decided in doubled integers, and common points are identified by
the Fraction tag (x, sign(y), y^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import GeometryError
from .geometry import Point, Record, _frac_str


@dataclass(frozen=True)
class Arc(Record):
    """Semicircle with center on the x-axis; half = +1 keeps y >= 0, -1 keeps y <= 0.

    Center and radius are half-integers, so the arc also has an integer
    view: the doubled center and the squared doubled radius.
    """

    center_x: Fraction
    radius: Fraction
    half: int

    @cached_property
    def _doubled(self) -> tuple[int, int]:
        """(2c, (2r)^2) as Python ints."""
        c, r = 2 * self.center_x, 2 * self.radius
        if c.denominator != 1 or r.denominator != 1:
            raise GeometryError("arc center and radius must be half-integers")
        return c.numerator, r.numerator ** 2

    def contains(self, p: Point) -> bool:
        c, s = self._doubled
        if not p.y:  # axis point, on both halves: decided in integers
            x, rem = divmod(2 * p.x.numerator, p.x.denominator)
            return rem == 0 and (x - c) ** 2 == s
        if (2 * p.x - c) ** 2 + 4 * p.y ** 2 != s:
            return False
        return p.y >= 0 if self.half > 0 else p.y <= 0

    def to_obj(self) -> dict:
        return {
            "center": [_frac_str(self.center_x), "0/1"],
            "radius_squared": _frac_str(self.radius ** 2),
            "half": "upper" if self.half > 0 else "lower",
        }


@dataclass(frozen=True)
class ArcEdge(Record):
    i: int
    j: int
    upper: Arc
    lower: Arc

    @property
    def pivot(self) -> Point:
        return Point(-(self.i + self.j), 0)

    def contains(self, p: Point) -> bool:
        return self.upper.contains(p) or self.lower.contains(p)

    def to_obj(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "pivot": self.pivot.to_obj(),
            "arcs": [self.upper.to_obj(), self.lower.to_obj()],
        }


@dataclass(frozen=True)
class ArcDrawing(Record):
    n: int
    vertices: tuple[Point, ...]
    edges: tuple[ArcEdge, ...]
    blockers: tuple[Point, ...]


def construct_kn_arc_drawing(n: int) -> ArcDrawing:
    if n < 2:
        raise GeometryError("arc drawing needs n >= 2")
    vertices = tuple(Point(i, 0) for i in range(1, n + 1))
    edges = []
    for i, j in combinations(range(1, n + 1), 2):
        upper = Arc(Fraction(-j, 2), Fraction(2 * i + j, 2), +1)
        lower = Arc(Fraction(-i, 2), Fraction(i + 2 * j, 2), -1)
        edges.append(ArcEdge(i, j, upper, lower))
    blockers = tuple(Point(-k, 0) for k in range(3, 2 * n))
    return ArcDrawing(n, vertices, tuple(edges), blockers)


def _arc_common_points(a1: Arc, a2: Arc) -> set[tuple]:
    """Common points of two semicircles, as exact tags (x, sign(y), y^2).

    Decided in the doubled integers: with den = 2(c2 - c1) and
    num = s1 - s2 + c2^2 - c1^2 (c, s the doubled view), the radical line
    is x = num / (2 den) and y^2 = disc / (4 den^2) there. Fractions are
    built only for a common point."""
    c1, s1 = a1._doubled
    c2, s2 = a2._doubled
    if c1 == c2:
        if s1 == s2:
            raise GeometryError("two edge arcs share a full circle; the realization is broken")
        return set()
    den = 2 * (c2 - c1)
    num = s1 - s2 + c2 * c2 - c1 * c1
    disc = s1 * den * den - (num - c1 * den) ** 2
    if disc < 0:
        return set()
    if disc == 0:
        return {(Fraction(num, 2 * den), 0, Fraction(0))}  # touch on the axis
    if a1.half == a2.half:
        return {(Fraction(num, 2 * den), a1.half, Fraction(disc, 4 * den * den))}
    return set()


def edge_common_points(e1: ArcEdge, e2: ArcEdge) -> set[tuple]:
    out: set[tuple] = set()
    for a1 in (e1.upper, e1.lower):
        for a2 in (e2.upper, e2.lower):
            out |= _arc_common_points(a1, a2)
    return out


@dataclass(frozen=True)
class DrawingBlockCheck(Record):
    ok: bool
    failures: tuple[str, ...]


def verify_drawing_blocking(d: ArcDrawing) -> DrawingBlockCheck:
    """Each edge must contain exactly its pivot blocker, no other blocker,
    and no vertex other than its own endpoints; blockers avoid vertices."""
    failures = []
    vset = set(d.vertices)
    for b in d.blockers:
        if b in vset:
            failures.append(f"blocker {b.to_obj()} coincides with a vertex")
    bset = set(d.blockers)
    for e in d.edges:
        hits = [b for b in d.blockers if e.contains(b)]
        if e.pivot not in bset:
            failures.append(f"edge ({e.i},{e.j}) has pivot outside the blocker set")
        if set(hits) != {e.pivot}:
            failures.append(
                f"edge ({e.i},{e.j}) meets blockers {[b.to_obj() for b in hits]}, "
                f"expected exactly its pivot {e.pivot.to_obj()}"
            )
        for v in d.vertices:
            if v in (Point(e.i, 0), Point(e.j, 0)):
                continue
            if e.contains(v):
                failures.append(f"edge ({e.i},{e.j}) passes through vertex {v.to_obj()}")
    return DrawingBlockCheck(not failures, tuple(failures))


@dataclass(frozen=True)
class SimplicityReport(Record):
    ok: bool
    max_pairwise_intersections: int
    violating_pairs: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "max_pairwise_intersections": self.max_pairwise_intersections,
            "violating_pairs": [
                {"edges": [list(a), list(b)], "count": c} for a, b, c in self.violating_pairs
            ],
        }


def verify_simplicity(d: ArcDrawing) -> SimplicityReport:
    """Exact census of pairwise edge-curve intersections.

    Shared endpoints count, so a clean drawing shows at most one common
    point for every pair of edges."""
    worst = 0
    bad = []
    for e1, e2 in combinations(d.edges, 2):
        count = len(edge_common_points(e1, e2))
        if count > worst:
            worst = count
        if count > 1:
            bad.append(((e1.i, e1.j), (e2.i, e2.j), count))
    return SimplicityReport(not bad, worst, tuple(bad))

