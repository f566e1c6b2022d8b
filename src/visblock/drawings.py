"""The two-semicircle drawing of the complete graph with collinear blockers.

Vertex i sits at (i, 0). The edge between i < j is drawn as the upper
semicircle from (i, 0) to (-i-j, 0) followed by the lower semicircle from
(-i-j, 0) to (j, 0), so the whole curve meets the x-axis exactly at its two
endpoints and the pivot (-i-j, 0). The pivots range over [-(2n-1), -3], which
is why the 2n-3 points (-k, 0), k in [3, 2n-1], block every edge.

All intersection counting is exact and runs on integers: an arc holds its
doubled center and radius, and a point (X/L, Y/L) of a scaled view lies on
it when (2X - cL)^2 + (2Y)^2 = (rL)^2 on the right side of the axis. On
the axis, Y = 0, that equation says 2X = (c - r)L or 2X = (c + r)L: an arc
meets the axis only at the two ends of its diameter. So the blocking check
indexes the vertices and blockers on the axis by 2X and looks up the four
diameter ends of each edge there; only a point off the axis is tried on the
circle equations. Common points of edges are counted from the arcs'
diameters alone: two circles centred on the axis cross off it exactly when
their diameters strictly interleave, once in each half, and meet on it
exactly at a shared diameter end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cliques import _bits
from .errors import GeometryError
from .geometry import Point, Record, _frac_str, _scale


@dataclass(frozen=True)
class Arc(Record):
    """Semicircle with center (c/2, 0) and radius r/2, for integers c and r;
    half = +1 keeps y >= 0, -1 keeps y <= 0."""

    c: int
    r: int
    half: int

    def __post_init__(self):
        if self.r <= 0:
            raise GeometryError(f"arc radius must be positive, got r={self.r}")
        if self.half not in (1, -1):
            raise GeometryError(f"arc half must be +1 or -1, got {self.half!r}")

    @property
    def span(self) -> tuple[int, int]:
        """The doubled ends (c - r, c + r) of the arc's diameter."""
        return self.c - self.r, self.c + self.r

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

    def __post_init__(self):
        # the simplicity census counts one off-axis crossing per half and
        # pair of edges, which needs exactly one arc of each edge per half
        if self.upper.half != 1:
            raise GeometryError(f"edge ({self.i},{self.j}): its upper arc must have half +1")
        if self.lower.half != -1:
            raise GeometryError(f"edge ({self.i},{self.j}): its lower arc must have half -1")

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


@dataclass(frozen=True)
class DrawingBlockCheck(Record):
    ok: bool
    failures: tuple[str, ...]


def verify_drawing_blocking(d: ArcDrawing) -> DrawingBlockCheck:
    """Each edge must contain exactly its pivot blocker, no other blocker,
    and no vertex other than its own endpoints; blockers avoid vertices.

    Decided on one integer view of the vertices and blockers; a Point is
    built only for a failure message; points on the axis are looked up at
    the edges' diameter ends."""
    failures = []
    den, view = _scale(d.vertices + d.blockers)
    verts, blocks = view[: len(d.vertices)], view[len(d.vertices) :]
    vset = set(verts)
    for b, q in zip(d.blockers, blocks):
        if q in vset:
            failures.append(f"blocker {b.to_obj()} coincides with a vertex")
    bset = set(blocks)
    block_index, vert_index = _axis_index(blocks), _axis_index(verts)
    for e in d.edges:
        pivot = (-(e.i + e.j) * den, 0)
        hits = _on_edge(e, den, blocks, block_index)
        if pivot not in bset:
            failures.append(f"edge ({e.i},{e.j}) has pivot outside the blocker set")
        if {blocks[k] for k in hits} != {pivot}:
            failures.append(
                f"edge ({e.i},{e.j}) meets blockers {[d.blockers[k].to_obj() for k in hits]}, "
                f"expected exactly its pivot {e.pivot.to_obj()}"
            )
        ends = ((e.i * den, 0), (e.j * den, 0))
        for k in _on_edge(e, den, verts, vert_index):
            if verts[k] not in ends:
                v = d.vertices[k].to_obj()
                failures.append(f"edge ({e.i},{e.j}) passes through vertex {v}")
    return DrawingBlockCheck(not failures, tuple(failures))


def _axis_index(view) -> tuple[dict[int, list[int]], list[int]]:
    """The indices of the points on the x-axis by doubled x, and the
    indices of the points off it."""
    axis: dict[int, list[int]] = {}
    off = []
    for k, (x, y) in enumerate(view):
        if y:
            off.append(k)
        else:
            axis.setdefault(2 * x, []).append(k)
    return axis, off


def _on_edge(e: ArcEdge, den: int, view, index) -> list[int]:
    """The indices, in order, of the points of view on the edge e; index is
    the _axis_index of view."""
    axis, off = index
    ends = {x * den for x in e.upper.span + e.lower.span}
    hits = [k for x in ends for k in axis.get(x, ())]
    hits += [k for k in off if e.holds(*view[k], den)]
    return sorted(hits)


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


def _interleaving(spans: list[tuple[int, int]]) -> list[int]:
    """Bit l of entry k is set when spans k and l strictly interleave: one
    starts strictly inside the other and ends strictly beyond it."""
    order = sorted(range(len(spans)), key=lambda k: spans[k][0])
    starts = [spans[k][0] for k in order]
    start_mask = [0]
    for k in order:
        start_mask.append(start_mask[-1] | 1 << k)
    order.sort(key=lambda k: spans[k][1])
    ends = [spans[k][1] for k in order]
    end_mask = [0]
    for k in order:
        end_mask.append(end_mask[-1] | 1 << k)
    full = end_mask[-1]
    out = []
    for a, b in spans:
        start_inside = start_mask[bisect_left(starts, b)] & ~start_mask[bisect_right(starts, a)]
        end_inside = end_mask[bisect_left(ends, b)] & ~end_mask[bisect_right(ends, a)]
        ends_beyond = full & ~end_mask[bisect_right(ends, b)]
        starts_before = start_mask[bisect_left(starts, a)]
        out.append(start_inside & ends_beyond | end_inside & starts_before)
    return out


def verify_simplicity(d: ArcDrawing) -> SimplicityReport:
    """Exact census of pairwise edge-curve intersections.

    Shared endpoints count, so a clean drawing shows at most one common
    point for every pair of edges. Two edges meet once at each axis point
    their arcs' diameters share, and once in a half where their arcs'
    diameters strictly interleave; an "at least two" carry over these
    masks picks the pairs that need an exact count."""
    edges = d.edges
    owner: dict[tuple[int, int], int] = {}
    ends = []
    at: dict[int, int] = {}
    for k, e in enumerate(edges):
        for a in (e.upper, e.lower):
            if owner.setdefault((a.c, a.r), k) != k:
                raise GeometryError("two edge arcs share a full circle; the realization is broken")
        ends.append(frozenset(e.upper.span + e.lower.span))
        for x in ends[k]:
            at[x] = at.get(x, 0) | 1 << k
    upper = _interleaving([e.upper.span for e in edges])
    lower = _interleaving([e.lower.span for e in edges])
    worst = 0
    bad = []
    for k, e in enumerate(edges):
        shift = k + 1  # later edges only, in combinations order
        once = twice = 0
        for mask in (upper[k], lower[k], *(at[x] for x in ends[k])):
            mask >>= shift
            twice |= once & mask
            once |= mask
        if once and not worst:
            worst = 1
        for t in _bits(twice):
            l = t + shift
            count = len(ends[k] & ends[l]) + (upper[k] >> l & 1) + (lower[k] >> l & 1)
            if count > worst:
                worst = count
            bad.append(((e.i, e.j), (edges[l].i, edges[l].j), count))
    return SimplicityReport(not bad, worst, tuple(bad))
