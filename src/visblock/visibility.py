"""Visibility graphs of point sets and the graph checks that run on them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import Optional

from . import cliques
from .cliques import _bits
from .errors import DisconnectedVisibility, GeometryError
from .geometry import (
    LineRecord,
    PointSet,
    Record,
    _first_blockers,
    max_collinear,
    sorted_along_line,
)


@dataclass(frozen=True)
class VisibilityGraph:
    """Graph on point indices; edge iff the open segment is clear of the set.

    adj[i] is the neighbour bitmask of vertex i. Irreflexive and symmetric by
    construction.
    """

    adj: tuple[int, ...]
    source: PointSet

    def __post_init__(self):
        n = len(self.adj)
        for i, mask in enumerate(self.adj):
            if (mask >> i) & 1:
                raise GeometryError(f"self-loop at vertex {i}")
            if mask >> n:
                raise GeometryError(f"adjacency mask of {i} out of range")

    @property
    def n(self) -> int:
        return len(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, a in enumerate(self.adj) for j in _bits(a >> i << i)]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def visibility_graph(ps: PointSet) -> VisibilityGraph:
    """Adjacency by line structure: along each maximal line only consecutive
    points see each other; pairs on different lines are always visible."""
    n = len(ps)
    if n < 2:
        raise GeometryError("visibility graph needs at least 2 points")
    full = (1 << n) - 1
    adj = [full & ~(1 << i) for i in range(n)]
    for rec in ps.lines:
        if len(rec.member_indices) < 3:
            continue
        order = sorted_along_line(ps, rec)
        bits = [0, *(1 << i for i in order), 0]
        line = sum(bits)
        for a, i in enumerate(order, 1):
            # on its own line, i sees only the members next to it
            adj[i] &= bits[a - 1] | bits[a + 1] | ~line
    return VisibilityGraph(tuple(adj), ps)


def diameter(g: VisibilityGraph) -> int:
    """Longest shortest path; a disconnected graph raises, loudly, because a
    visibility graph on >= 2 points can never be disconnected."""
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    worst = 0
    for s in range(n):
        # bitset BFS: each level is the union of the frontier's neighbour
        # masks minus what is already seen; d counts the non-empty levels.
        # Once the union covers every vertex, the level is every unseen
        # vertex, so the rest of the frontier is not read.
        seen = frontier = 1 << s
        d = 0
        while seen != full:
            reach = seen
            for v in _bits(frontier):
                reach |= adj[v]
                if reach == full:
                    break
            frontier = reach ^ seen
            if not frontier:
                missing = [v for v in range(n) if not (seen >> v) & 1]
                raise DisconnectedVisibility(
                    f"visibility graph disconnected: {missing} unreachable from {s}; "
                    "this indicates a geometry bug"
                )
            seen = reach
            d += 1
        worst = max(worst, d)
    return worst


@dataclass(frozen=True)
class CliqueResult(Record):
    omega: int
    witness: tuple[int, ...]
    exact: bool


def clique_number(g: VisibilityGraph, deadline: Optional[float] = None) -> CliqueResult:
    size, witness, exact = cliques.max_clique(g.n, g.adj, deadline)
    return CliqueResult(size, tuple(witness), exact)


@dataclass(frozen=True)
class Colouring(Record):
    """Colour ids 1..k assigned per point index."""

    k: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise GeometryError("colour count must be at least 1")
        for i, c in enumerate(self.colours):
            if not isinstance(c, int) or not 1 <= c <= self.k:
                raise GeometryError(f"colour {c!r} at index {i} outside [1, {self.k}]")

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.colours):
            out.setdefault(c, []).append(i)
        return out


@dataclass(frozen=True)
class ChromaticResult(Record):
    chi: int
    colouring: Colouring
    exact: bool
    lower: int
    upper: int


def chromatic_number(
    g: VisibilityGraph, clique: CliqueResult, deadline: Optional[float] = None
) -> ChromaticResult:
    """Exact chromatic number unless the deadline cuts in. clique, the result
    of clique_number(g), bounds it from below, even when its search was cut."""
    colours, exact, lower, upper = cliques.chromatic_number(g.n, g.adj, clique.omega, deadline)
    return ChromaticResult(upper, Colouring(max(colours), tuple(colours)), exact, lower, upper)


@dataclass(frozen=True)
class BigLineBigCliqueVerdict(Record):
    kind: str  # "line" | "clique" | "neither" | "unknown"
    line: Optional[LineRecord] = None
    clique: tuple[int, ...] = ()
    message: str = ""

    def to_obj(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.line is not None:
            obj["line"] = list(self.line.member_indices)
        if self.clique:
            obj["clique"] = list(self.clique)
        if self.message:
            obj["message"] = self.message
        return obj


def big_line_big_clique_check(
    g: VisibilityGraph, k: int, ell: int, clique: CliqueResult
) -> BigLineBigCliqueVerdict:
    """Find ell collinear points of g.source or, from clique, the result of
    clique_number(g), k pairwise visible ones; lines win ties. The verdict is
    "unknown" if that clique search ran out of budget."""
    if k < 2 or ell < 3:
        raise GeometryError("need k >= 2 and ell >= 3")
    for rec in g.source.lines:
        if len(rec) >= ell:
            return BigLineBigCliqueVerdict("line", line=rec)
    if clique.omega >= k:
        return BigLineBigCliqueVerdict("clique", clique=clique.witness[:k])
    if not clique.exact:
        return BigLineBigCliqueVerdict(
            "unknown", message="clique search budget exhausted before a verdict"
        )
    return BigLineBigCliqueVerdict("neither")


@dataclass(frozen=True)
class Prop1Report(Record):
    proper: bool
    violations: tuple[tuple[int, int], ...]
    max_collinear: int
    largest_class_colour: int
    largest_class: tuple[int, ...]
    s: int
    s_lower: int
    is_blocked: Optional[bool]
    uncovered_pair: Optional[tuple[int, int]]


def proposition1_check(g: VisibilityGraph, col: Colouring) -> Prop1Report:
    """Certificate for the colouring-to-blocking reduction on g.source.

    Verifies the colouring is proper for the visibility graph g, that the
    largest colour class S has size >= ceil(n/k), and that the rest of the
    set blocks S: every pair of S has a point of P outside S strictly inside
    its segment. Improper colourings are reported with their violations.
    """
    ps = g.source
    n = len(ps)
    if len(col.colours) != n:
        raise GeometryError(f"colouring has {len(col.colours)} entries for {n} points")
    violations = tuple((i, j) for i, j in g.edges() if col.colours[i] == col.colours[j])
    mc = max_collinear(ps)
    classes = col.classes()
    largest_colour = min(classes, key=lambda c: (-len(classes[c]), c))
    largest = tuple(classes[largest_colour])
    s = len(largest)
    s_lower = ceil(n / col.k)
    if violations:
        return Prop1Report(False, violations, mc, largest_colour, largest, s, s_lower, None, None)
    others = [ps[i] for i in range(n) if col.colours[i] != largest_colour]
    pairs = list(combinations(largest, 2))
    owners = _first_blockers(ps.points, pairs, others)
    uncovered = next((pair for pair, owner in zip(pairs, owners) if owner is None), None)
    return Prop1Report(
        True, (), mc, largest_colour, largest, s, s_lower, uncovered is None, uncovered
    )


def monochromatic_line_check(ps: PointSet, col: Colouring) -> Optional[LineRecord]:
    """First maximal line whose members all share a colour, if any."""
    if len(col.colours) != len(ps):
        raise GeometryError("colouring length does not match point set")
    for rec in ps.lines:
        first = col.colours[rec.member_indices[0]]
        if all(col.colours[i] == first for i in rec.member_indices[1:]):
            return rec
    return None
