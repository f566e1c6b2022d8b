"""Blocking sets: the hitting-set instance, verification, exact minima via
cliques.min_cover, lower bounds and the blocked K_{n,n} constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import or_
from typing import Iterable, Optional, Sequence, Union

from .cliques import _deadline, min_cover
from .errors import DegenerateSegment, GeometryError, NotGeneralPosition, SegmentOverlap, _expect
from .geometry import (
    Point,
    PointSet,
    Record,
    _OVERLAP,
    _first_blockers,
    _scale,
    _unscaled,
    convex_hull_size,
    is_general_position,
    segment_intersection,
    sorted_along_line,
)
from .midpoints import _pair_sums


@dataclass(frozen=True)
class BlockingInstance:
    """Hitting-set universe: open segments, as pairs of vertex indices, plus
    candidate blocker points.

    Bit s of masks[c] is set exactly when candidates[c] lies inside the open
    segment s. No candidate coincides with a vertex.
    """

    vertices: tuple[Point, ...]
    segments: tuple[tuple[int, int], ...]
    candidates: tuple[Point, ...]
    masks: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.segments)


def _private_params():
    # deterministic schedule of interior parameters num/den: midpoint first,
    # then proper fractions by growing denominator
    yield 1, 2
    den = 3
    while True:
        for num in range(1, den):
            if gcd(num, den) == 1:
                yield num, den
        den += 1


def _build_instance(
    vertices: Sequence[Point],
    view: tuple[int, Sequence[tuple[int, int]]],
    segments: Iterable[tuple[int, int]],
    gap_segments: Iterable[int],
    drawing: bool,
) -> BlockingInstance:
    """Shared candidate construction, one pass over the segment pairs.

    view is the integer view (L, xy) of the vertices, and segments are
    distinct pairs of distinct vertex indices. gap_segments lists the
    segment indices that need a schedule-placed candidate of their own (gaps
    of multi-point lines, private positions of drawing edges); pairwise
    meeting points contribute the rest. A drawing's edges must not overlap
    along a line; all-pairs segments may.

    Covers come from the pair pass. A meeting point of two segments that is
    not a vertex lies inside both, and they are not parallel, so every
    segment through it meets one of them there. A placed point avoids every
    meeting point, so only its gap and the segments overlapping the gap hold
    it. Drawings have no overlaps; an all-pairs gap holds no vertex, so a
    segment overlapping it contains all of it.

    A candidate is keyed by its reduced triple (X, Y, D), the point
    (X / (D L), Y / (D L)), and is a vertex iff D = 1 and (X, Y) is one.
    """
    den, xy = view
    segs = tuple(segments)
    ends = [(xy[a], xy[b]) for a, b in segs]
    taken = {(x, y, 1) for x, y in xy}
    covers: dict[tuple[int, int, int], int] = {}
    overlaps = [0] * len(segs)
    for i, j in combinations(range(len(segs)), 2):
        m = segment_intersection(*ends[i], *ends[j])
        if m is None:
            continue
        if m is _OVERLAP:
            if drawing:
                raise SegmentOverlap(
                    f"segments {i} and {j} overlap along a line; "
                    "blocked drawings must have interior-disjoint collinear edges"
                )
            overlaps[i] |= 1 << j
            overlaps[j] |= 1 << i
        elif m not in taken:
            covers[m] = covers.get(m, 0) | 1 << i | 1 << j
    for s in gap_segments:
        (ax, ay), (bx, by) = ends[s]
        for num, d in _private_params():
            x, y = (d - num) * ax + num * bx, (d - num) * ay + num * by
            g = gcd(x, y, d)
            key = (x // g, y // g, d // g)
            if key not in taken and key not in covers:
                covers[key] = 1 << s | overlaps[s]
                break
    # candidates in Point order, (x, y), sorted by integer keys: two
    # distinct X / d, X' / d' with d, d' < 2^b differ by more than 2^-2b, so
    # floor(2^2b X / d) orders them as the fractions do (scaling by the lcm
    # of the d's would too, but that reaches 10^5 bits on 30 random points)
    shift = 2 * max((d for _, _, d in covers), default=1).bit_length()
    keys = sorted(covers, key=lambda t: ((t[0] << shift) // t[2], (t[1] << shift) // t[2]))
    cands = tuple(Point(Fraction(x, d * den), Fraction(y, d * den)) for x, y, d in keys)
    return BlockingInstance(tuple(vertices), segs, cands, tuple(covers[t] for t in keys))


def all_pairs_instance(ps: PointSet) -> BlockingInstance:
    """Hitting-set instance over every pair of the set, collinear pairs
    included: blockers must come from outside the set, so a pair whose
    segment already holds other set points still needs covering."""
    n = len(ps)
    if n < 2:
        raise GeometryError("need at least 2 points")
    segments = list(combinations(range(n), 2))
    seg_index = {lab: k for k, lab in enumerate(segments)}
    gap_segments = []
    for rec in ps.lines:
        order = sorted_along_line(ps, rec)
        for a, b in zip(order, order[1:]):
            gap_segments.append(seg_index[(a, b) if a < b else (b, a)])
    return _build_instance(ps.points, ps.integer_view, segments, gap_segments, drawing=False)


def _edge_pairs(
    edges: Iterable[tuple[Point, Point]],
) -> tuple[tuple[Point, ...], list[tuple[int, int]]]:
    """The endpoints of the edges in first-seen order, and each edge as a
    pair of their indices; the edges must be pairwise distinct and proper."""
    edges = list(edges)
    if len({(a, b) for a, b in edges}) != len(edges):
        raise GeometryError("instance segments must be pairwise distinct")
    for k, (a, b) in enumerate(edges):
        if a == b:
            raise DegenerateSegment(f"segment {k} has both endpoints at {a.to_obj()}")
    vertices = tuple(dict.fromkeys(p for e in edges for p in e))  # ordered set
    index = {p: i for i, p in enumerate(vertices)}
    return vertices, [(index[a], index[b]) for a, b in edges]


def drawing_instance(edges: Iterable[tuple[Point, Point]]) -> BlockingInstance:
    vertices, segments = _edge_pairs(edges)
    return _build_instance(vertices, _scale(vertices), segments, range(len(segments)),
                           drawing=True)


def candidate_blockers(
    source: Union[PointSet, BlockingInstance, Sequence[tuple[Point, Point]]],
) -> BlockingInstance:
    if isinstance(source, BlockingInstance):
        return source
    if isinstance(source, PointSet):
        return all_pairs_instance(source)
    return drawing_instance(source)


@dataclass(frozen=True)
class BlockingSet(Record):
    points: tuple[Point, ...]
    covers: tuple[tuple[int, int], ...]  # (segment index, blocker index)
    optimal: bool
    lower_bound: int

    @property
    def size(self) -> int:
        return len(self.points)

    def to_obj(self) -> dict:
        obj = super().to_obj()
        obj["blockers"] = obj.pop("points")
        obj["size"] = self.size
        return obj


@dataclass(frozen=True)
class BlockCheck(Record):
    ok: bool
    uncovered: Optional[tuple[int, int]] = None
    vertex_clash: Optional[Point] = None


def _check_blocked(
    vertices: Sequence[Point],
    segments: Sequence[tuple[int, int]],
    labels: Sequence[tuple[int, int]],
    blockers: Iterable[Point],
) -> BlockCheck:
    bl = list(blockers)
    vset = set(vertices)
    for b in bl:
        if b in vset:
            return BlockCheck(False, vertex_clash=b)
    for label, owner in zip(labels, _first_blockers(vertices, segments, bl)):
        if owner is None:
            return BlockCheck(False, uncovered=label)
    return BlockCheck(True)


def is_blocking_set(ps: PointSet, blockers: Iterable[Point]) -> BlockCheck:
    """Certificate check: blockers avoid the set and cover every pair."""
    pairs = list(combinations(range(len(ps)), 2))
    return _check_blocked(ps.points, pairs, pairs, blockers)


def min_blocking_set(
    source: Union[PointSet, BlockingInstance, Sequence[tuple[Point, Point]]],
    budget_ms: Optional[int] = None,
) -> BlockingSet:
    """Minimum hitting set over the candidate space, branch and bound.

    Budget exhaustion returns the best feasible set found with optimal=False
    and the best proven lower bound. When no candidate lies inside three
    segments, it returns instead the m - nu blockers read off the root
    matching, optimal by Gallai's identity b = m - nu.
    """
    deadline = _deadline(budget_ms)
    inst = candidate_blockers(source)
    covered = reduce(or_, inst.masks, 0)
    missing = [s for s in range(inst.m) if not covered >> s & 1]
    if missing:
        raise GeometryError(f"segments {missing} have no candidate blocker")
    chosen, optimal, lower = min_cover(inst.masks, inst.m, deadline)
    chosen_sorted = sorted(set(chosen))
    masks = [inst.masks[c] for c in chosen_sorted]
    covers = tuple(
        (s, next(bi for bi, mask in enumerate(masks) if mask >> s & 1)) for s in range(inst.m)
    )
    return BlockingSet(tuple(inst.candidates[c] for c in chosen_sorted), covers, optimal, lower)


def triangulation_lower_bound(ps: PointSet) -> int:
    """Edge count of any triangulation: 3n - 3 - t with t hull points; every
    edge needs its own blocker, so this bounds the blocking number below."""
    n = len(ps)
    if n < 3:
        raise GeometryError("lower bound needs at least 3 points")
    if not is_general_position(ps):
        raise NotGeneralPosition("triangulation bound assumes no 3 collinear points")
    return 3 * n - 3 - convex_hull_size(ps)


def midpoint_blocking_set(ps: PointSet) -> BlockingSet:
    """All pairwise midpoints; a valid blocking set in general position."""
    if not is_general_position(ps):
        raise NotGeneralPosition("midpoints can collide with the set when 3 points are collinear")
    # doubled midpoints 2L*m; sorting them sorts the midpoints, as 2L > 0
    den, sums, _ = _pair_sums(ps)
    distinct = sorted(set(sums))
    index = {t: k for k, t in enumerate(distinct)}
    covers = tuple((s, index[t]) for s, t in enumerate(sums))
    return BlockingSet(tuple(_unscaled(distinct, 2 * den)), covers, False, 0)


_BUNDLE_KEYS = ("n", "left", "right", "edges", "blockers")  # "name" may be left out


@dataclass(frozen=True)
class BipartiteDrawing(Record):
    """Straight-line K_{n,n} with its stated blocker list."""

    n: int
    left: tuple[Point, ...]
    right: tuple[Point, ...]
    edges: tuple[tuple[Point, Point], ...]
    blockers: tuple[Point, ...]
    name: str

    def check(self) -> BlockCheck:
        """Blocking certificate of the stated blockers; uncovered is (k, k)
        for edge index k."""
        vertices, segments = _edge_pairs(self.edges)
        labels = [(k, k) for k in range(len(segments))]
        return _check_blocked(vertices, segments, labels, self.blockers)

    @classmethod
    def from_obj(cls, obj: dict) -> "BipartiteDrawing":
        for key in _BUNDLE_KEYS:
            if key not in obj:
                raise GeometryError(f"drawing bundle missing {key!r}")
        n = _expect(obj["n"], int, "drawing bundle 'n'")
        name = _expect(obj.get("name", ""), str, "drawing bundle 'name'")
        try:
            d = cls(
                n,
                tuple(Point.from_obj(p) for p in obj["left"]),
                tuple(Point.from_obj(p) for p in obj["right"]),
                tuple((Point.from_obj(a), Point.from_obj(b)) for a, b in obj["edges"]),
                tuple(Point.from_obj(p) for p in obj["blockers"]),
                name,
            )
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"malformed drawing bundle: {exc}") from exc
        if not (len(d.left) == len(d.right) == n
                and sorted(d.edges) == sorted(product(d.left, d.right))):
            raise GeometryError(
                f"drawing bundle with n = {n} needs {n} left and {n} right points and "
                f"the {n * n} edges left x right; got {len(d.left)}, {len(d.right)} "
                f"and {len(d.edges)}"
            )
        for side, pts in (("left", d.left), ("right", d.right)):
            if len(set(pts)) < n:
                raise GeometryError(f"drawing bundle {side!r} repeats a point")
        return d


def construct_knn_grid(n: int) -> BipartiteDrawing:
    """Two horizontal rows: left points at (2i, 0), right at (2j, 2); the
    2n - 1 points (k, 1) for k in [2, 2n] block everything, edge (i, j)
    through (i + j, 1)."""
    if n < 1:
        raise GeometryError("n must be at least 1")
    left = tuple(Point(2 * i, 0) for i in range(1, n + 1))
    right = tuple(Point(2 * j, 2) for j in range(1, n + 1))
    edges = tuple((v, w) for v in left for w in right)
    blockers = tuple(Point(k, 1) for k in range(2, 2 * n + 1))
    return BipartiteDrawing(n, left, right, edges, blockers, f"knn-grid-{n}")


def construct_knn_parabola(n: int) -> BipartiteDrawing:
    """Both sides on y = x^2: left at (-2^i, 2^(2i)), right at (2^j, 2^(2j));
    edge (i, j) crosses the y-axis at (0, 2^(i+j)), so the 2n - 1 points
    (0, 2^k), k in [2, 2n], block everything. Vertices are automatically in
    general position (a line meets a parabola at most twice)."""
    if n < 1:
        raise GeometryError("n must be at least 1")
    left = tuple(Point(-(2 ** i), 2 ** (2 * i)) for i in range(1, n + 1))
    right = tuple(Point(2 ** j, 2 ** (2 * j)) for j in range(1, n + 1))
    ps = PointSet(left + right, f"knn-parabola-{n}-vertices")
    if n >= 2 and not is_general_position(ps):
        raise GeometryError("parabola vertices unexpectedly collinear")
    edges = tuple((v, w) for v in left for w in right)
    blockers = tuple(Point(0, 2 ** k) for k in range(2, 2 * n + 1))
    return BipartiteDrawing(n, left, right, edges, blockers, f"knn-parabola-{n}")
