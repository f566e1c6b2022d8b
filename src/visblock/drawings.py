"""The two-semicircle drawing of the complete graph with collinear blockers.

Vertex i sits at (i, 0). The edge between i < j is drawn as the upper
semicircle from (i, 0) to (-i-j, 0) followed by the lower semicircle from
(-i-j, 0) to (j, 0), so the whole curve meets the x-axis exactly at its two
endpoints and the pivot (-i-j, 0). The pivots range over [-(2n-1), -3], which
is why the 2n-3 points (-k, 0), k in [3, 2n-1], block every edge.

All intersection counting is exact and runs on integers: an arc holds its
doubled center and radius, a point (X/L, Y/L) of a scaled view lies on it
when (2X - cL)^2 + (2Y)^2 = (rL)^2 on the right side of the axis, and common
points are identified by the Fraction tag (x, sign(y), y^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import GeometryError
from .geometry import Point, Record, _frac_str, _scale


@dataclass(frozen=True)
class Arc(Record):
    """Semicircle with center (c/2, 0) and radius r/2, for integers c and r;
    half = +1 keeps y >= 0, -1 keeps y <= 0."""

    c: int
    r: int
    half: int

    def holds(self, x: int, y: int, den: int) -> bool:
        """Whether the point (x/den, y/den) lies on the arc."""
        on_circle = (2 * x - self.c * den) ** 2 + 4 * y * y == (self.r * den) ** 2
        return on_circle and self.half * y >= 0

    def to_obj(self) -> dict:
        return {
            "center": [_frac_str(Fraction(self.c, 2)), "0/1"],
            "radius_squared": _frac_str(Fraction(self.r * self.r, 4)),
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

    def holds(self, x: int, y: int, den: int) -> bool:
        return self.upper.holds(x, y, den) or self.lower.holds(x, y, den)

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
        edges.append(ArcEdge(i, j, Arc(-j, 2 * i + j, +1), Arc(-i, i + 2 * j, -1)))
    blockers = tuple(Point(-k, 0) for k in range(3, 2 * n))
    return ArcDrawing(n, vertices, tuple(edges), blockers)


def _arc_common_points(a1: Arc, a2: Arc) -> set[tuple]:
    """Common points of two semicircles, as exact tags (x, sign(y), y^2).

    Decided in integers: with s = r^2, den = 2(c2 - c1) and
    num = s1 - s2 + c2^2 - c1^2, the radical line is x = num / (2 den) and
    y^2 = disc / (4 den^2) there. Fractions are built only for a common
    point."""
    c1, s1 = a1.c, a1.r * a1.r
    c2, s2 = a2.c, a2.r * a2.r
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
    and no vertex other than its own endpoints; blockers avoid vertices.

    Decided on one integer view of the vertices and blockers; a Point is
    built only for a failure message."""
    failures = []
    den, view = _scale(d.vertices + d.blockers)
    verts, blocks = view[: len(d.vertices)], view[len(d.vertices) :]
    vset = set(verts)
    for b, q in zip(d.blockers, blocks):
        if q in vset:
            failures.append(f"blocker {b.to_obj()} coincides with a vertex")
    bset = set(blocks)
    for e in d.edges:
        pivot = (-(e.i + e.j) * den, 0)
        hits = [k for k, (x, y) in enumerate(blocks) if e.holds(x, y, den)]
        if pivot not in bset:
            failures.append(f"edge ({e.i},{e.j}) has pivot outside the blocker set")
        if {blocks[k] for k in hits} != {pivot}:
            failures.append(
                f"edge ({e.i},{e.j}) meets blockers {[d.blockers[k].to_obj() for k in hits]}, "
                f"expected exactly its pivot {e.pivot.to_obj()}"
            )
        ends = ((e.i * den, 0), (e.j * den, 0))
        for v, (x, y) in zip(d.vertices, verts):
            if (x, y) not in ends and e.holds(x, y, den):
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

