"""Midpoint and sum sets, on the integer view of a point set.

Midpoints come from distinct pairs only; the sum set keeps the doubled
points 2x. That asymmetry is what leaves m(P) <= |P+P| <= m(P) + |P| with
slack exactly |P| on the right.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GeometryError
from .geometry import Point, PointSet, _unscaled


def _pair_sums(ps: PointSet) -> tuple[int, list[tuple[int, int]], set[tuple[int, int]]]:
    """(L, the sums p + q of distinct points in combinations order, the
    doubled points 2p) on the integer view of scale L: P + P =
    {p + q : p != q} u {2p} is the union of both over L."""
    den, xy = ps.integer_view
    pairs = [(x1 + x2, y1 + y2) for (x1, y1), (x2, y2) in combinations(xy, 2)]
    return den, pairs, {(2 * x, 2 * y) for x, y in xy}


def midpoint_set(ps: PointSet) -> frozenset[Point]:
    if len(ps) < 2:
        raise GeometryError("midpoints need at least two points")
    den, pairs, _ = _pair_sums(ps)
    return frozenset(_unscaled(set(pairs), 2 * den))


def sum_set(ps: PointSet) -> frozenset[Point]:
    den, pairs, doubles = _pair_sums(ps)
    return frozenset(_unscaled(doubles.union(pairs), den))
