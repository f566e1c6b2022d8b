"""Midpoint and sum sets, on the integer view of a point set.

Midpoints come from distinct pairs only; the sum set keeps the doubled
points 2x. That asymmetry is what leaves m(P) <= |P+P| <= m(P) + |P| with
slack exactly |P| on the right.
"""

from __future__ import annotations

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
