"""Midpoint counts, sum sets, and progressions.

Midpoints come from distinct pairs only; the sum set keeps the doubled
points 2x. That asymmetry is what leaves m(P) <= |P+P| <= m(P) + |P| with
slack exactly |P| on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GeometryError
from .geometry import Point, PointSet, _unscaled


def midpoint_set(ps: PointSet) -> frozenset[Point]:
    den, xy = ps.integer_view
    if len(xy) < 2:
        raise GeometryError("midpoints need at least two points")
    sums = {(x1 + x2, y1 + y2) for (x1, y1), (x2, y2) in combinations(xy, 2)}
    return frozenset(_unscaled(sums, 2 * den))


def sum_set(ps: PointSet) -> frozenset[Point]:
    den, xy = ps.integer_view
    sums = {(x1 + x2, y1 + y2) for (x1, y1) in xy for (x2, y2) in xy}
    return frozenset(_unscaled(sums, den))


@dataclass(frozen=True)
class Progression:
    """v0 plus integer combinations x_t * g_t with x_t in [1, n_t]."""

    v0: Point
    generators: tuple[Point, ...]
    extents: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.extents):
            raise GeometryError("one extent per generator")
        if any(n < 1 for n in self.extents):
            raise GeometryError("extents must be positive")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def nominal_size(self) -> int:
        s = 1
        for n in self.extents:
            s *= n
        return s


@dataclass(frozen=True)
class ProgressionPoints:
    points: PointSet
    collisions: int


def progression_points(g: Progression, name: str = "") -> ProgressionPoints:
    if g.dimension < 1:
        raise GeometryError("need at least one generator")
    coords = [g.v0]
    for gen, n in zip(g.generators, g.extents):
        coords = [base + gen.scaled(k) for base in coords for k in range(1, n + 1)]
    pts = set(coords)
    ordered = tuple(sorted(pts))
    return ProgressionPoints(PointSet(ordered, name=name), g.nominal_size() - len(pts))
