"""Crossing structure of straight-line drawings on a point set, clique covers
of the crossing relation, circle-graph covers, and the regular polygon
intersection census.

Two segments cross only if they meet in a single point interior to both;
sharing an endpoint never counts. The census part works on irrational
coordinates and is kept self-contained here: numeric values only ever
propose clusters, every coincidence is settled exactly in the cyclotomic
ring, and nothing approximate leaks into the rational modules.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .cliques import _deadline, chromatic_number
from .errors import GeometryError, NotGeneralPosition
from .geometry import (
    Point,
    PointSet,
    _hull_vertices,
    is_general_position,
    on_open_segment,
    orientation,
)


def proper_crossing(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd meet in one interior point of both."""
    if len({a, b, c, d}) < 4:
        return False
    return (
        orientation(a, b, c) * orientation(a, b, d) < 0
        and orientation(c, d, a) * orientation(c, d, b) < 0
    )


@dataclass(frozen=True)
class CrossingGraph:
    segments: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]
    source: PointSet

    @property
    def m(self) -> int:
        return len(self.segments)

    def crosses(self, s: int, t: int) -> bool:
        return bool(self.adj[s] >> t & 1)

    def crossing_pairs(self) -> list[tuple[int, int]]:
        return [(s, t) for s in range(self.m) for t in range(s + 1, self.m)
                if self.adj[s] >> t & 1]


def crossing_graph(ps: PointSet) -> CrossingGraph:
    if not is_general_position(ps):
        raise NotGeneralPosition(
            "crossing relation needs general position; collinear overlaps are ambiguous"
        )
    segs = list(combinations(range(len(ps)), 2))
    m = len(segs)
    adj = [0] * m
    for s, t in combinations(range(m), 2):
        (i, j), (k, l) = segs[s], segs[t]
        if proper_crossing(ps[i], ps[j], ps[k], ps[l]):
            adj[s] |= 1 << t
            adj[t] |= 1 << s
    return CrossingGraph(tuple(segs), tuple(adj), ps)


@dataclass(frozen=True)
class CrossingFamilyPartition:
    classes: tuple[tuple[int, ...], ...]
    exact: bool

    @property
    def size(self) -> int:
        return len(self.classes)

    def to_obj(self) -> dict:
        return {"classes": [list(c) for c in self.classes], "exact": self.exact}


def partition_size_floor(n: int) -> int:
    """No crossing family on n points holds more than floor(n/2) segments,
    so any partition has at least ceil(C(n,2) / floor(n/2)) classes."""
    if n < 2:
        return 0
    return -(- (n * (n - 1) // 2) // (n // 2))


def _check_partition(g: CrossingGraph, classes: Sequence[Sequence[int]]) -> None:
    seen: set[int] = set()
    for cls in classes:
        for s, t in combinations(cls, 2):
            if not g.crosses(s, t):
                raise GeometryError(
                    f"segments {g.segments[s]} and {g.segments[t]} share a class "
                    "but do not cross"
                )
        seen.update(cls)
    if seen != set(range(g.m)):
        raise GeometryError("classes do not partition the segments")
    n = len(g.source)
    if len(classes) < partition_size_floor(n):
        raise GeometryError("partition smaller than the counting floor; solver bug")


def _min_clique_cover(adj: Sequence[int], budget_ms: Optional[int],
                      ) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Minimum clique cover as an exact colouring of the complement graph;
    returns (classes ordered by colour, exact)."""
    m = len(adj)
    full = (1 << m) - 1
    comp = tuple(full ^ adj[s] ^ (1 << s) for s in range(m))
    _, colouring, exact, _, _ = chromatic_number(m, comp, _deadline(budget_ms))
    buckets: dict[int, list[int]] = {}
    for s, c in enumerate(colouring):
        buckets.setdefault(c, []).append(s)
    return tuple(tuple(sorted(b)) for _, b in sorted(buckets.items())), exact


def crossing_family_partition(ps: PointSet, budget_ms: Optional[int] = None,
                              ) -> CrossingFamilyPartition:
    """Minimum partition of all segments into pairwise-crossing classes,
    found as an exact colouring of the complement of the crossing graph.
    On budget exhaustion the best greedy partition is returned, exact=False."""
    g = crossing_graph(ps)
    classes, exact = _min_clique_cover(g.adj, budget_ms)
    _check_partition(g, classes)
    return CrossingFamilyPartition(classes, exact)


def cover_from_blockers(ps: PointSet, blockers: Sequence[Point]) -> CrossingFamilyPartition:
    """Group segments by a blocker lying on them. Segments through one common
    interior point pairwise cross, so a blocking set yields a crossing-family
    partition of the same size or smaller; this is the witness behind
    comparing partition sizes with blocking numbers."""
    g = crossing_graph(ps)
    classes: dict[int, list[int]] = {}
    for s, (i, j) in enumerate(g.segments):
        owner = next(
            (b for b, blk in enumerate(blockers) if on_open_segment(blk, ps[i], ps[j])),
            None,
        )
        if owner is None:
            raise GeometryError(f"segment {g.segments[s]} is not blocked; cover impossible")
        classes.setdefault(owner, []).append(s)
    out = tuple(tuple(cls) for _, cls in sorted(classes.items()))
    _check_partition(g, out)
    return CrossingFamilyPartition(out, False)


# circle graphs: chords of a cycle, adjacency by interleaving

def _interleaves(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    if len({a[0], a[1], b[0], b[1]}) < 4:
        return False
    i, k = a
    gap = (k - i) % n
    return sum(1 for x in b if 0 < (x - i) % n < gap) == 1


def circle_graph_cover(n: int, chords: Sequence[tuple[int, int]],
                       budget_ms: Optional[int] = None) -> CrossingFamilyPartition:
    """Minimum clique cover of the interleaving relation of chords on a cycle
    of n positions. Coordinate-free twin of crossing_family_partition for
    convex position."""
    if n < 2:
        raise GeometryError("cycle needs at least 2 positions")
    seen = set()
    for c in chords:
        i, j = c
        if i == j:
            raise GeometryError(f"chord {c} has equal endpoints")
        if not (0 <= i < n and 0 <= j < n):
            raise GeometryError(f"chord {c} outside cycle positions 0..{n - 1}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GeometryError(f"duplicate chord {c}")
        seen.add(key)
    m = len(chords)
    adj = [0] * m
    for s, t in combinations(range(m), 2):
        if _interleaves(tuple(chords[s]), tuple(chords[t]), n):
            adj[s] |= 1 << t
            adj[t] |= 1 << s
    classes, exact = _min_clique_cover(adj, budget_ms)
    for cls in classes:
        for s, t in combinations(cls, 2):
            if not (adj[s] >> t & 1):
                raise GeometryError("cover class contains non-interleaving chords")
    return CrossingFamilyPartition(classes, exact)


def cyclic_order_of_convex(ps: PointSet) -> list[int]:
    """Indices of a convex-position set in hull walk order."""
    hull = _hull_vertices(list(ps))
    if len(hull) != len(ps):
        raise GeometryError("points are not in convex position")
    index = {p: i for i, p in enumerate(ps)}
    return [index[p] for p in hull]


# Regular polygon census. Positions 0..n-1 on the unit circle; every 4-subset
# i<j<k<l contributes exactly one crossing event, between chords (i,k) and
# (j,l). The meeting point z satisfies conj(z) = (z_i+z_k-z_j-z_l)/(z_i z_k -
# z_j z_l) with z_t the circle points, so with z_t = zeta^t equality of two
# events is divisibility of an integer polynomial by the nth cyclotomic
# polynomial. Floating point only proposes clusters; divisibility decides.

def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    num = list(num)
    dn = len(den) - 1
    out = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dn] = c
        for k in range(dn + 1):
            num[i - dn + k] -= c * den[k]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic(d)))
            if any(rem):
                raise AssertionError("cyclotomic division must be exact")
    return tuple(num)


def _event_fraction(ev: tuple[int, int, int, int], n: int) -> tuple[list[int], list[int]]:
    i, j, k, l = ev
    num = [0] * n
    num[i] += 1
    num[k] += 1
    num[j] -= 1
    num[l] -= 1
    den = [0] * n
    den[(i + k) % n] += 1
    den[(j + l) % n] -= 1
    return num, den


def _mul_mod_xn(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def _events_equal(e1, e2, n: int, phi: list[int]) -> bool:
    n1, d1 = _event_fraction(e1, n)
    n2, d2 = _event_fraction(e2, n)
    diff = [x - y for x, y in zip(_mul_mod_xn(n1, d2, n), _mul_mod_xn(n2, d1, n))]
    _, rem = _poly_divmod_monic(diff, phi)
    return not any(rem)


@dataclass(frozen=True)
class NgonCensus:
    n: int
    center_multiplicity: int
    max_multiplicity_excluding_center: int
    certified: bool
    ambiguous_clusters: tuple[tuple[tuple[int, int, int, int], ...], ...] = ()

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "center_multiplicity": self.center_multiplicity,
            "max_multiplicity_excluding_center": self.max_multiplicity_excluding_center,
            "certified": self.certified,
        }


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# float64 clustering on a grid of side 2^-_CELL_EXP. Crossing chords have
# |den| = |1 - zeta^(j+l-i-k)| >= 2 sin(pi/n) and |conj(z)| <= 1, so the float
# error is a few ulp / 2 sin(pi/n) (2.3e-15 at n = 24, 30, 40 against a 120-bit
# reference), far below the cell side 9.3e-10. Equal events thus land in the
# same or adjacent cells; all occupants of a cell share a union-find root, so
# equal events share a cluster and the exact checks see every coincidence.
_CELL_EXP = 30
_CHECK_BUDGET = 2_000_000


def _numeric_clusters(events, n: int) -> list[list[int]]:
    uf = _UnionFind(len(events))
    cells: dict[tuple[int, int], int] = {}
    zeta = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    scale = 2.0 ** _CELL_EXP
    for idx, (i, j, k, l) in enumerate(events):
        num = zeta[i] + zeta[k] - zeta[j] - zeta[l]
        den = zeta[i] * zeta[k] - zeta[j] * zeta[l]
        zbar = num / den
        cx = math.floor(zbar.real * scale)
        cy = math.floor(-zbar.imag * scale)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = cells.get((cx + dx, cy + dy))
                if other is not None:
                    uf.union(other, idx)
        cells[(cx, cy)] = idx
    groups: dict[int, list[int]] = {}
    for idx in range(len(events)):
        groups.setdefault(uf.find(idx), []).append(idx)
    return list(groups.values())


def regular_ngon_multiplicity(n: int) -> NgonCensus:
    """Census of interior chord intersections of the regular polygon with n
    vertices. Diameter pairs meet at the center and are counted separately;
    all other coincidences are certified in exact arithmetic."""
    if n < 4:
        raise GeometryError("census needs n >= 4")
    events = []
    half = n // 2
    for i, j, k, l in combinations(range(n), 4):
        if n % 2 == 0 and k - i == half and l - j == half:
            continue  # two diameters, meeting at the center
        events.append((i, j, k, l))
    center_mult = half if n % 2 == 0 else 0
    phi = list(cyclotomic(n))
    checks = 0
    ambiguous: list[tuple] = []
    max_excl = 0
    for cluster in _numeric_clusters(events, n):
        members: list[list[int]] = []
        overran = False
        for idx in cluster:
            for grp in members:
                checks += 1
                if checks > _CHECK_BUDGET:
                    overran = True
                    break
                if _events_equal(events[idx], events[grp[0]], n, phi):
                    grp.append(idx)
                    break
            else:
                members.append([idx])
            if overran:
                break
        if overran:
            ambiguous.append(tuple(events[idx] for idx in cluster))
            continue
        for grp in members:
            chords = set()
            for idx in grp:
                i, j, k, l = events[idx]
                chords.add((i, k))
                chords.add((j, l))
            mult = len(chords)
            if len(grp) != mult * (mult - 1) // 2:
                raise AssertionError("event count inconsistent with chord coincidence")
            max_excl = max(max_excl, mult)
    return NgonCensus(n, center_mult, max_excl, not ambiguous, tuple(ambiguous))
