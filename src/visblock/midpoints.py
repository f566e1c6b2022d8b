"""Midpoint counts, sum and product sets, progressions, and heuristic search
for point sets with few midpoints.

Midpoints come from distinct pairs only; the sum set keeps the doubled
points 2x. That asymmetry is what leaves m(P) <= |P+P| <= m(P) + |P| with
slack exactly |P| on the right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import GeometryError
from .geometry import Point, PointSet, midpoint, _primitive


def midpoint_set(ps: PointSet | Sequence[Point]) -> frozenset[Point]:
    pts = list(ps)
    if len(pts) < 2:
        raise GeometryError("midpoints need at least two points")
    return frozenset(midpoint(p, q) for p, q in combinations(pts, 2))


def sum_set(ps: PointSet | Sequence[Point]) -> frozenset[Point]:
    pts = list(ps)
    out = set()
    for p in pts:
        for q in pts:
            out.add(p + q)
    return frozenset(out)


def product_set(values: Iterable[int]) -> frozenset[int]:
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise GeometryError("product set needs distinct values")
    if any(v <= 0 for v in vals):
        raise GeometryError("product set needs positive values")
    return frozenset(a * b for a in vals for b in vals)


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


def _line_load_through(p: Point, others: Sequence[Point]) -> int:
    """Largest count of points collinear with p, p included."""
    groups: dict[tuple[int, int], int] = {}
    for q in others:
        d = q - p
        key = _primitive(d.x, d.y)
        groups[key] = groups.get(key, 0) + 1
    return 1 + max(groups.values(), default=0)


@dataclass(frozen=True)
class MidpointSearchResult:
    points: PointSet
    midpoints: int
    strategy: str
    seed: int
    evaluations: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.midpoints, len(self.points))


def _eval_key(pts: Sequence[Point]) -> tuple[int, tuple[Point, ...]]:
    return (len(midpoint_set(pts)), tuple(sorted(pts)))


def _seed_admissible(rng: random.Random, n: int, ell: int, side: int) -> Optional[list[Point]]:
    pts: list[Point] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 200 * n:
            return None
        cand = Point(rng.randrange(side), rng.randrange(side))
        if cand in pts:
            continue
        if _line_load_through(cand, pts) >= ell:
            continue
        pts.append(cand)
    return pts


def _search_random_restart(n: int, ell: int, budget_evals: int, rng: random.Random,
                           side: int) -> tuple[Optional[tuple], int]:
    best = None
    evals = 0
    while evals < budget_evals:
        pts = _seed_admissible(rng, n, ell, side)
        if pts is None:
            break
        key = _eval_key(pts)
        evals += 1
        if best is None or key < best:
            best = key
        # local moves: relocate one point, keep strict improvements
        stale = 0
        while stale < 8 * n and evals < budget_evals:
            i = rng.randrange(n)
            cand = Point(rng.randrange(side), rng.randrange(side))
            rest = pts[:i] + pts[i + 1:]
            if cand in rest or _line_load_through(cand, rest) >= ell:
                stale += 1
                continue
            trial = rest + [cand]
            tkey = _eval_key(trial)
            evals += 1
            if tkey[0] < key[0]:
                pts, key, stale = trial, tkey, 0
                if key < best:
                    best = key
            else:
                stale += 1
        if key < best:
            best = key
    return best, evals


def _search_projected_grid(n: int, ell: int, budget_evals: int, rng: random.Random,
                           side: int) -> tuple[Optional[tuple], int]:
    """Repeatedly draw admissible subsets of the side x side grid, greedily,
    and keep the best. Grids share many midpoints, which is the point."""
    cells = [Point(x, y) for x in range(side) for y in range(side)]
    best = None
    evals = 0
    while evals < budget_evals:
        rng.shuffle(cells)
        pts: list[Point] = []
        for cand in cells:
            if len(pts) == n:
                break
            if _line_load_through(cand, pts) < ell:
                pts.append(cand)
        if len(pts) < n:
            continue
        key = _eval_key(pts)
        evals += 1
        if best is None or key < best:
            best = key
    return best, evals


STRATEGIES = ("random-restart", "projected-grid")


def low_midpoint_search(n: int, ell: int, strategy: str = "random-restart",
                        budget_evals: int = 400, seed: int = 0,
                        grid_side: Optional[int] = None) -> MidpointSearchResult:
    """Best-effort search for n points with max_collinear < ell and few
    midpoints. Deterministic for a given (strategy, seed, budget_evals)."""
    if ell < 3:
        raise GeometryError("collinearity bound must be at least 3")
    if n < 2:
        raise GeometryError("need at least two points")
    if strategy not in STRATEGIES:
        raise GeometryError(f"unknown strategy {strategy!r}, pick one of {STRATEGIES}")
    if budget_evals < 1:
        raise GeometryError("budget must allow at least one evaluation")
    side = grid_side if grid_side is not None else max(3, n)
    rng = random.Random(seed)
    if strategy == "random-restart":
        best, evals = _search_random_restart(n, ell, budget_evals, rng, side)
    else:
        best, evals = _search_projected_grid(n, ell, budget_evals, rng, side)
    if best is None:
        raise GeometryError(
            f"no admissible {n}-point set with fewer than {ell} collinear found "
            f"on a {side}x{side} grid; enlarge the grid"
        )
    m, pts = best
    name = f"search-n{n}-l{ell}-{strategy}-s{seed}"
    return MidpointSearchResult(PointSet(pts, name=name), m, strategy, seed, evals)
