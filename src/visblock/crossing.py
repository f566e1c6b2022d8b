"""Crossing structure of straight-line drawings on a point set, clique covers
of the crossing relation, and the regular polygon intersection census.

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
from itertools import chain, combinations
from operator import lshift
from typing import Optional, Sequence

from .blocking import triangulation_lower_bound
from .cliques import _deadline, chromatic_number
from .errors import GeometryError, NotGeneralPosition
from .geometry import (
    Point,
    PointSet,
    Record,
    _first_blockers,
    is_general_position,
    orientation,
)


@dataclass(frozen=True)
class CrossingGraph:
    """smaller_side[s] counts the points on the smaller side of segment s's
    line: s is a j-edge for j = smaller_side[s]."""

    segments: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]
    smaller_side: tuple[int, ...]
    source: PointSet

    @property
    def m(self) -> int:
        return len(self.segments)

    def crossing_pairs(self) -> list[tuple[int, int]]:
        return [(s, t) for s in range(self.m) for t in range(s + 1, self.m)
                if self.adj[s] >> t & 1]


def crossing_graph(ps: PointSet) -> CrossingGraph:
    if not is_general_position(ps):
        raise NotGeneralPosition(
            "crossing relation needs general position; collinear overlaps are ambiguous"
        )
    # Segments ij and kl on four distinct indices cross iff k, l lie on
    # opposite sides of ij and i, j on opposite sides of kl; in general
    # position no third point is on a segment's line, so a bit row of the
    # points left of each segment decides every pair.
    _, xy = ps.integer_view
    segs = list(combinations(range(len(ps)), 2))
    left = [
        sum(1 << k for k, p in enumerate(xy) if orientation(xy[i], xy[j], p) > 0)
        for i, j in segs
    ]
    n, m = len(ps), len(segs)
    adj = [0] * m
    for s, t in combinations(range(m), 2):
        (i, j), (k, l) = segs[s], segs[t]
        if (
            len({i, j, k, l}) == 4
            and (left[s] >> k ^ left[s] >> l) & 1
            and (left[t] >> i ^ left[t] >> j) & 1
        ):
            adj[s] |= 1 << t
            adj[t] |= 1 << s
    smaller = tuple(min(row.bit_count(), n - 2 - row.bit_count()) for row in left)
    return CrossingGraph(tuple(segs), tuple(adj), smaller, ps)


@dataclass(frozen=True)
class CrossingFamilyPartition(Record):
    classes: tuple[tuple[int, ...], ...]
    exact: bool

    @property
    def size(self) -> int:
        return len(self.classes)


def partition_size_floor(n: int) -> int:
    """No crossing family on n points holds more than floor(n/2) segments,
    so any partition has at least ceil(C(n,2) / floor(n/2)) classes."""
    if n < 2:
        return 0
    return -(- (n * (n - 1) // 2) // (n // 2))


def _check_partition(g: CrossingGraph, classes: Sequence[Sequence[int]]) -> None:
    for cls in classes:
        for s, t in combinations(cls, 2):
            if not g.adj[s] >> t & 1:
                raise GeometryError(
                    f"{g.segments[s]} and {g.segments[t]} share a class but do not cross"
                )
    if sorted(s for cls in classes for s in cls) != list(range(g.m)):
        raise GeometryError("classes do not partition the segments")


def _j_edge_weights(g: CrossingGraph) -> tuple[list[int], int]:
    """(weights, den): the fractional clique w_s = 1 / (1 + smaller_side[s])
    of the non-crossing graph, as integers over their common denominator.

    The other members of a crossing family holding s each cross s, so they
    have one endpoint on either side of its line, and no two share one: the
    family holds at most 1 + smaller_side[s] segments and weighs at most 1."""
    den = math.lcm(*(1 + j for j in g.smaller_side))
    return [den // (1 + j) for j in g.smaller_side], den


def _classes(g: CrossingGraph, labels: Sequence[int], exact: bool) -> CrossingFamilyPartition:
    """Segment s in class labels[s], classes in label order, checked to cross."""
    buckets: dict[int, list[int]] = {}
    for s, label in enumerate(labels):
        buckets.setdefault(label, []).append(s)
    classes = tuple(tuple(b) for _, b in sorted(buckets.items()))
    _check_partition(g, classes)
    return CrossingFamilyPartition(classes, exact)


def _min_partition(g: CrossingGraph, deadline: Optional[float]) -> CrossingFamilyPartition:
    full = (1 << g.m) - 1
    comp = tuple(full ^ a ^ (1 << s) for s, a in enumerate(g.adj))
    # a clique of comp is a non-crossing segment set; on n >= 3 points in
    # general position every maximal one is a triangulation
    lower = triangulation_lower_bound(g.source) if len(g.source) >= 3 else g.m
    colouring, exact, _, _ = chromatic_number(comp, lower, deadline, _j_edge_weights(g))
    return _classes(g, colouring, exact)


def crossing_family_partition(
    ps: PointSet, budget_ms: Optional[int] = None
) -> CrossingFamilyPartition:
    """Minimum partition of all segments into pairwise-crossing classes,
    found as an exact colouring of the complement of the crossing graph,
    classes ordered by colour, bounded below by the j-edge fractional
    clique (Erdős, Lovász, Simmons & Straus, "Dissection graphs of planar
    point sets", 1973). On budget exhaustion the best greedy partition is
    returned, exact=False. The budget counts the graph's build."""
    deadline = _deadline(budget_ms)
    return _min_partition(crossing_graph(ps), deadline)


def cover_from_blockers(ps: PointSet, blockers: Sequence[Point]) -> CrossingFamilyPartition:
    """Group segments by a blocker lying on them. Segments through one common
    interior point pairwise cross, so a blocking set yields a crossing-family
    partition of the same size or smaller; this is the witness behind
    comparing partition sizes with blocking numbers."""
    g = crossing_graph(ps)
    owners = list(_first_blockers(ps.points, g.segments, blockers))
    for s, owner in enumerate(owners):
        if owner is None:
            raise GeometryError(f"segment {g.segments[s]} is not blocked; cover impossible")
    return _classes(g, owners, False)


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


def _packed_residues(n: int) -> tuple[int, list[int]]:
    """(width, res): res[e] is x^e mod Phi_n for e = 0..3n-1, its coefficients
    packed low degree first into one int as signed digits of width bits;
    Phi_n divides x^n - 1, so the n rows repeat three times.

    An equality check adds 16 of these with signs. If every coefficient is
    at most M in size, each digit of that sum is below 16 M < 2^(width - 1)
    in size, so the sum is a balanced base-2^width number whose digits are
    exactly the coefficients of the sum of the residues, and it is 0 iff
    that polynomial is 0."""
    phi = cyclotomic(n)
    r = [1] + [0] * (len(phi) - 2)
    rows = [r]
    for _ in range(1, n):
        top = r[-1]  # x r is r shifted plus top x^d; x^d - Phi_n has degree < d
        r = [0] + r[:-1]
        if top:
            r = [c - top * p for c, p in zip(r, phi)]
        rows.append(r)
    bound = 16 * max(map(abs, chain.from_iterable(rows)))
    width = bound.bit_length() + 1
    return width, [sum(map(lshift, row, range(0, width * len(row), width))) for row in rows] * 3


def _events_equal(e1, e2, res: list[int]) -> bool:
    """Whether two events meet at one point: with num = x^i + x^k - x^j - x^l
    and den = x^(i+k) - x^(j+l), num1 den2 - num2 den1 vanishes mod Phi_n.
    Every exponent is below 3n, so the product is a signed sum of 16
    entries of res."""
    i1, j1, k1, l1 = e1
    i2, j2, k2, l2 = e2
    s1, t1, s2, t2 = i1 + k1, j1 + l1, i2 + k2, j2 + l2
    return not (
        res[i1 + s2] + res[k1 + s2] - res[j1 + s2] - res[l1 + s2]
        - res[i1 + t2] - res[k1 + t2] + res[j1 + t2] + res[l1 + t2]
        - res[i2 + s1] - res[k2 + s1] + res[j2 + s1] + res[l2 + s1]
        + res[i2 + t1] + res[k2 + t1] - res[j2 + t1] - res[l2 + t1]
    )


@dataclass(frozen=True)
class NgonCensus(Record):
    """histogram holds the pairs (k, a_k), a_k > 0 the number of interior
    points where exactly k chords meet, centre included; it is not part of
    the JSON shape. Every census is certified."""

    n: int
    center_multiplicity: int
    max_multiplicity_excluding_center: int
    certified: bool
    histogram: tuple[tuple[int, int], ...]

    def to_obj(self) -> dict:
        obj = super().to_obj()
        del obj["histogram"]
        return obj


# float64 proposals, one chord (0, k) at a time: the events sorted by
# Re(conj z), neighbours at most 2^-_GAP_EXP apart chained into a cluster.
# Crossing chords have |den| = |1 - zeta^(j+l-i-k)| >= 2 sin(pi/n) and
# |conj(z)| <= 1, so the float error of conj(z) is a few ulp / 2 sin(pi/n);
# projecting onto the real axis cannot increase it. Against a 120-bit
# reference the real part is off by at most 1.12e-14 for n = 4..120 (worst at
# n = 89) and 1.78e-14 at n = 210. Two equal events thus lie at most about
# 3.6e-14 apart, and so does every event sorted between them; each step of
# that stretch is far below the gap 9.3e-10, so equal events always share a
# cluster and the exact checks see every coincidence.
_GAP_EXP = 30


def _chord_clusters(k: int, zeta: list[complex],
                    ) -> tuple[int, list[list[tuple[int, int, int, int]]]]:
    """The float clusters of the events (0, j, k, l) on the chord (0, k):
    the number of one-event clusters, and the other clusters in key order,
    each with its events in key order, ties by (j, l). zeta[t] is the root
    of unity at vertex t of the n-gon, n = len(zeta). A key is
    Re((((z0 + zk) - zj) - zl) / (z0 zk - zj zl)), the same IEEE operations
    in the same order whichever sums a row shares."""
    n = len(zeta)
    diameter = 2 * k == n
    s = zeta[0] + zeta[k]
    p = zeta[0] * zeta[k]
    tail = zeta[k + 1:]
    keys: list[float] = []
    for j in range(1, k):
        zj = zeta[j]
        a = s - zj
        row = [((a - z) / (p - zj * z)).real for z in tail]
        if diameter:
            del row[j - 1]  # (0, j, k, j + k): two diameters, meeting at the center
        keys += row
    width = n - k - 2 if diameter else n - k - 1  # events per j

    def event(i: int) -> tuple[int, int, int, int]:
        j, t = divmod(i, width)
        l = k + 1 + t
        if diameter and l > j + k:
            l += 1
        return (0, j + 1, k, l)

    gap = 2.0 ** -_GAP_EXP
    clusters: list[list[tuple[int, int, int, int]]] = []
    prev, last, cluster = -math.inf, 0, None
    # a stable sort keeps equal keys in (j, l) order
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        x = keys[i]
        if x - prev > gap:
            cluster = None
        elif cluster is None:
            cluster = [event(last), event(i)]
            clusters.append(cluster)
        else:
            cluster.append(event(i))
        prev, last = x, i
    return len(keys) - sum(map(len, clusters)), clusters


def regular_ngon_multiplicity(n: int) -> NgonCensus:
    """Census of interior chord intersections of the regular polygon with n
    vertices. Diameter pairs meet at the center and are counted separately;
    all other coincidences are certified in exact arithmetic.

    Rotation maps every off-center point, with its multiplicity, onto a chord
    through vertex 0, and two such chords meet only at the vertex. So only
    the events (0, j, k, l) are examined, and a point of multiplicity m on
    the chord (0, k) is one group of m - 1 of them. The reflection
    t -> -t mod n fixes vertex 0 and maps the event (0, j, k, l) onto
    (0, n-l, n-k, n-j), so chord (0, n-k) carries the groups of chord (0, k)
    with the same multiplicities: only the chords with k <= n/2 are
    examined, and each group counts twice except on the diameter k = n/2."""
    if n < 4:
        raise GeometryError("census needs n >= 4")
    center_mult = n // 2 if n % 2 == 0 else 0
    _, res = _packed_residues(n)
    zeta = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    groups_by_mult: dict[int, int] = {}
    for k in range(2, n // 2 + 1):
        weight = 1 if 2 * k == n else 2
        singles, clusters = _chord_clusters(k, zeta)
        if singles:
            groups_by_mult[2] = groups_by_mult.get(2, 0) + weight * singles
        for cluster in clusters:
            members: list[list[tuple[int, int, int, int]]] = []
            for ev in cluster:
                for grp in members:
                    if _events_equal(ev, grp[0], res):
                        grp.append(ev)
                        break
                else:
                    members.append([ev])
            for grp in members:
                mult = len(grp) + 1
                groups_by_mult[mult] = groups_by_mult.get(mult, 0) + weight
    # A point of multiplicity m has 2m distinct chord endpoints, so exactly
    # 2m points of its rotation orbit lie on chords through vertex 0.
    histogram: dict[int, int] = {}
    for mult, count in groups_by_mult.items():
        if count % (2 * mult):
            raise AssertionError(
                f"{count} points of multiplicity {mult} on the chords through "
                f"vertex 0, not a multiple of {2 * mult}"
            )
        histogram[mult] = count * n // (2 * mult)
    if center_mult:
        histogram[center_mult] = histogram.get(center_mult, 0) + 1
    # each 4-subset of the vertices is one crossing pair of chords
    pairs = sum(a * k * (k - 1) // 2 for k, a in histogram.items())
    if pairs != math.comb(n, 4):
        raise AssertionError(
            f"the histogram holds {pairs} crossing chord pairs, not C({n}, 4) = "
            f"{math.comb(n, 4)}"
        )
    max_excl = max(groups_by_mult, default=0)
    return NgonCensus(n, center_mult, max_excl, True, tuple(sorted(histogram.items())))
