import cProfile
import dataclasses
import pstats
from fractions import Fraction
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visblock.crossing import partition_size_floor
from visblock.drawings import (
    Arc,
    ArcDrawing,
    ArcEdge,
    construct_kn_arc_drawing,
    verify_drawing_blocking,
    verify_simplicity,
)
from visblock.errors import GeometryError
from visblock.geometry import Point, _scale

import oracles
from oracles import edge_common_points


def holds(shape, p):
    """Arc or edge membership of a Point, through its own integer view."""
    den, ((x, y),) = _scale([p])
    return shape.holds(x, y, den)


# Independent oracle: classify two circles with centers on the x-axis purely
# by comparing the center distance with the radii, then locate tangencies by
# testing x = c1 +- r1 directly. No radical-axis formula involved.

def circle_relation(c1, r1, c2, r2):
    d = abs(c1 - c2)
    if d == 0:
        return ("none", None)
    if d > r1 + r2 or d < abs(r1 - r2):
        return ("none", None)
    if d == r1 + r2 or d == abs(r1 - r2):
        for x in (c1 + r1, c1 - r1):
            if abs(x - c2) == r2:
                return ("tangent", x)
        raise AssertionError("tangent circles must touch on the center line")
    return ("two", None)


def oracle_common_count(e1, e2):
    tangency_xs = set()
    proper = 0
    for a1 in (e1.upper, e1.lower):
        for a2 in (e2.upper, e2.lower):
            kind, x = circle_relation(
                Fraction(a1.c, 2), Fraction(a1.r, 2), Fraction(a2.c, 2), Fraction(a2.r, 2)
            )
            if kind == "tangent":
                tangency_xs.add(x)
            elif kind == "two" and a1.half == a2.half:
                proper += 1
    return len(tangency_xs) + proper


class TestConstruction:
    def test_smallest_drawing(self):
        d = construct_kn_arc_drawing(2)
        assert len(d.edges) == 1
        assert d.blockers == (Point(-3, 0),)
        e = d.edges[0]
        assert (e.i, e.j) == (1, 2)
        assert e.upper == Arc(-2, 4, +1)
        assert e.lower == Arc(-1, 5, -1)

    @pytest.mark.parametrize("n,edges,blockers", [(2, 1, 1), (7, 21, 11), (10, 45, 17)])
    def test_counts(self, n, edges, blockers):
        d = construct_kn_arc_drawing(n)
        assert len(d.edges) == edges
        assert len(d.blockers) == blockers == 2 * n - 3
        assert len(d.vertices) == n

    def test_rejects_small_n(self):
        with pytest.raises(GeometryError):
            construct_kn_arc_drawing(1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_arc_endpoints(self, n):
        # upper runs (i,0) to (-i-j,0), lower runs (-i-j,0) to (j,0), in
        # doubled coordinates
        for e in construct_kn_arc_drawing(n).edges:
            assert {e.upper.c - e.upper.r, e.upper.c + e.upper.r} == {2 * e.i, -2 * (e.i + e.j)}
            assert {e.lower.c - e.lower.r, e.lower.c + e.lower.r} == {2 * e.j, -2 * (e.i + e.j)}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pivots_cover_blocker_range(self, n):
        d = construct_kn_arc_drawing(n)
        sums = {e.i + e.j for e in d.edges}
        assert sums == set(range(3, 2 * n))
        assert {b.x for b in d.blockers} == {-s for s in sums}

    def test_pivot_map_not_injective(self):
        d = construct_kn_arc_drawing(4)
        shared = [e for e in d.edges if e.pivot == Point(-5, 0)]
        assert {(e.i, e.j) for e in shared} == {(1, 4), (2, 3)}


# arcs of any doubled centre and radius, and of the drawing itself
ARCS = st.one_of(
    st.builds(Arc, st.integers(-40, 40), st.integers(1, 40), st.sampled_from([1, -1])),
    st.integers(2, 12).flatmap(
        lambda n: st.sampled_from(
            [a for e in construct_kn_arc_drawing(n).edges for a in (e.upper, e.lower)]
        )
    ),
)
RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def circle_point(a, t):
    # the rational parametrisation of the arc's circle; t < 0 gives y < 0
    q = 1 + t * t
    return Point((a.c + a.r * (1 - t * t) / q) / 2, a.r * t / q)


POINTS = st.one_of(
    st.tuples(ARCS, RATIONALS).map(lambda at: (at[0], circle_point(*at))),
    st.tuples(
        ARCS,
        st.builds(Fraction, st.integers(-90, 90), st.sampled_from([1, 2, 3])).map(
            lambda x: Point(x, 0)
        ),
    ),
    st.tuples(ARCS, st.builds(Point, RATIONALS, RATIONALS)),
)


class TestArcMembership:
    def test_contains_endpoints_and_top(self):
        a = Arc(-2, 4, +1)
        assert holds(a, Point(1, 0))
        assert holds(a, Point(-3, 0))
        assert holds(a, Point(-1, 2))
        assert not holds(a, Point(-1, -2))
        assert not holds(a, Point(0, 0))

    def test_lower_half_sign(self):
        a = Arc(0, 2, -1)
        assert holds(a, Point(0, -1))
        assert not holds(a, Point(0, 1))

    def test_half_integer_axis_points(self):
        a = Arc(-1, 5, -1)
        assert holds(a, Point(-3, 0)) and holds(a, Point(2, 0))
        assert not holds(a, Point(Fraction(5, 2), 0))
        assert not holds(a, Point(Fraction(7, 3), 0))

    @settings(max_examples=400, deadline=None)
    @given(POINTS, st.integers(1, 6))
    def test_matches_the_fraction_oracle(self, arc_point, m):
        # m scales the view beyond the point's own denominator, as a
        # verifier's common denominator does
        a, p = arc_point
        den, ((x, y),) = _scale([p])
        assert a.holds(m * x, m * y, m * den) == oracles.fraction_arc_contains(a, p.x, p.y)

    def test_parametrised_points_lie_on_their_half(self):
        a = Arc(-3, 7, +1)
        for t in (Fraction(1, 3), Fraction(2), Fraction(-1, 5)):
            p = circle_point(a, t)
            assert holds(a, p) == (t > 0)
            assert holds(dataclasses.replace(a, half=-1), p) == (t < 0)


class TestBlockingVerification:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_construction_blocks(self, n):
        report = verify_drawing_blocking(construct_kn_arc_drawing(n))
        assert report.ok, report.failures

    def test_missing_blocker_detected(self):
        d = construct_kn_arc_drawing(3)
        tampered = dataclasses.replace(
            d, blockers=tuple(b for b in d.blockers if b != Point(-3, 0))
        )
        assert verify_drawing_blocking(tampered).failures == (
            "edge (1,2) has pivot outside the blocker set",
            "edge (1,2) meets blockers [], expected exactly its pivot ['-3/1', '0/1']",
        )

    def test_blocker_on_vertex_detected(self):
        d = construct_kn_arc_drawing(3)
        tampered = dataclasses.replace(d, blockers=d.blockers + (Point(1, 0),))
        assert verify_drawing_blocking(tampered).failures == (
            "blocker ['1/1', '0/1'] coincides with a vertex",
            "edge (1,2) meets blockers [['-3/1', '0/1'], ['1/1', '0/1']], "
            "expected exactly its pivot ['-3/1', '0/1']",
            "edge (1,3) meets blockers [['-4/1', '0/1'], ['1/1', '0/1']], "
            "expected exactly its pivot ['-4/1', '0/1']",
        )

    @pytest.mark.parametrize("moved", [Point(-4, 1), Point(Fraction(-9, 2), 0), Point(-4, -1)])
    def test_blocker_moved_off_its_pivot_detected(self, moved):
        d = construct_kn_arc_drawing(4)
        tampered = dataclasses.replace(
            d, blockers=tuple(moved if b == Point(-4, 0) else b for b in d.blockers)
        )
        assert verify_drawing_blocking(tampered).failures == (
            "edge (1,3) has pivot outside the blocker set",
            "edge (1,3) meets blockers [], expected exactly its pivot ['-4/1', '0/1']",
        )

    def test_stray_blocker_on_edge_detected(self):
        d = construct_kn_arc_drawing(3)
        # top of the (1,2) upper arc
        tampered = dataclasses.replace(d, blockers=d.blockers + (Point(-1, 2),))
        assert verify_drawing_blocking(tampered).failures == (
            "edge (1,2) meets blockers [['-3/1', '0/1'], ['-1/1', '2/1']], "
            "expected exactly its pivot ['-3/1', '0/1']",
        )

    def test_extra_vertex_on_an_edge_detected(self):
        d = construct_kn_arc_drawing(3)
        # top of the (1,2) upper arc
        tampered = dataclasses.replace(d, vertices=d.vertices + (Point(-1, 2),))
        assert verify_drawing_blocking(tampered).failures == (
            "edge (1,2) passes through vertex ['-1/1', '2/1']",
        )

    def test_extra_vertex_at_diameter_ends_detected(self):
        d = construct_kn_arc_drawing(4)
        # (-5, 0) is the pivot, a diameter end, of both (1,4) and (2,3);
        # (-9/2, 0) lies between diameter ends and on no edge
        tampered = dataclasses.replace(
            d, vertices=d.vertices + (Point(-5, 0), Point(Fraction(-9, 2), 0))
        )
        assert verify_drawing_blocking(tampered).failures == (
            "blocker ['-5/1', '0/1'] coincides with a vertex",
            "edge (1,4) passes through vertex ['-5/1', '0/1']",
            "edge (2,3) passes through vertex ['-5/1', '0/1']",
        )

    def test_few_fractions_at_n20(self):
        # a deterministic work counter: the verifier decides on one integer
        # view and builds a Fraction only for a failure message (the
        # Fraction version built 16,720 here)
        d = construct_kn_arc_drawing(20)
        prof = cProfile.Profile()
        prof.enable()
        report = verify_drawing_blocking(d)
        prof.disable()
        calls = sum(
            stat[0]
            for (path, _, name), stat in pstats.Stats(prof).stats.items()
            if name == "__new__" and path.endswith("fractions.py")
        )
        assert report.ok and calls < 1_000

    def test_no_circle_checks_at_n20(self):
        # a deterministic work counter: every vertex and blocker lies on the
        # axis and is looked up at the diameter ends (the circle version
        # made 10,450 ArcEdge.holds calls here)
        d = construct_kn_arc_drawing(20)
        prof = cProfile.Profile()
        prof.enable()
        report = verify_drawing_blocking(d)
        prof.disable()
        calls = sum(
            stat[0]
            for (path, _, name), stat in pstats.Stats(prof).stats.items()
            if name == "holds" and path.endswith("drawings.py")
        )
        assert report.ok and calls == 0


class TestSimplicity:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_at_most_one_common_point(self, n):
        report = verify_simplicity(construct_kn_arc_drawing(n))
        assert report.ok
        assert report.max_pairwise_intersections <= 1
        assert report.violating_pairs == ()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_circle_relation_oracle(self, n):
        d = construct_kn_arc_drawing(n)
        for e1, e2 in combinations(d.edges, 2):
            assert len(edge_common_points(e1, e2)) == oracle_common_count(e1, e2)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_tags_match_the_fraction_oracle(self, n):
        d = construct_kn_arc_drawing(n)
        for e1, e2 in combinations(d.edges, 2):
            want = set()
            for a1 in (e1.upper, e1.lower):
                for a2 in (e2.upper, e2.lower):
                    want |= oracles.fraction_arc_common_points(a1, a2)
            assert edge_common_points(e1, e2) == want

    def test_shared_vertex_is_the_single_meeting(self):
        d = construct_kn_arc_drawing(4)
        by_pair = {(e.i, e.j): e for e in d.edges}
        pts = edge_common_points(by_pair[(1, 2)], by_pair[(1, 3)])
        assert pts == {(Fraction(1), 0, Fraction(0))}

    def test_shared_pivot_is_the_single_meeting(self):
        d = construct_kn_arc_drawing(4)
        by_pair = {(e.i, e.j): e for e in d.edges}
        pts = edge_common_points(by_pair[(1, 4)], by_pair[(2, 3)])
        assert pts == {(Fraction(-5), 0, Fraction(0))}

    def test_tags_lie_on_both_edges(self):
        d = construct_kn_arc_drawing(6)
        for e1, e2 in combinations(d.edges, 2):
            for x, sign, ysq in edge_common_points(e1, e2):
                if sign == 0:
                    assert ysq == 0
                    p = Point(x, 0)
                    assert holds(e1, p) and holds(e2, p)
                else:
                    # y^2 must fit both supporting circles
                    arcs = [a for a in (e1.upper, e1.lower) if a.half == sign]
                    arcs += [a for a in (e2.upper, e2.lower) if a.half == sign]
                    assert len(arcs) == 2
                    for a in arcs:
                        assert (x - Fraction(a.c, 2)) ** 2 + ysq == Fraction(a.r, 2) ** 2


class TestArcGuards:
    # the simplicity census needs proper semicircles and one arc of each
    # edge in each half: with two arcs of one edge in one half, three
    # circles can share an off-axis point that a per-pair sum counts twice

    @pytest.mark.parametrize("r", [0, -3])
    def test_radius_must_be_positive(self, r):
        with pytest.raises(GeometryError, match="arc radius must be positive"):
            Arc(0, r, 1)

    @pytest.mark.parametrize("half", [0, 2, -2])
    def test_half_must_be_a_sign(self, half):
        with pytest.raises(GeometryError, match=r"arc half must be \+1 or -1"):
            Arc(0, 2, half)

    def test_upper_arc_must_be_upper(self):
        with pytest.raises(GeometryError, match=r"edge \(1,2\): its upper arc must have half \+1"):
            ArcEdge(1, 2, Arc(-2, 4, -1), Arc(-1, 5, -1))

    def test_lower_arc_must_be_lower(self):
        with pytest.raises(GeometryError, match=r"edge \(1,2\): its lower arc must have half -1"):
            ArcEdge(1, 2, Arc(-2, 4, 1), Arc(-1, 5, 1))


def random_drawing(rng):
    # 1..10 edges of random arcs, doubled centres in [-8, 8] and doubled
    # radii in [1, 8]: shared diameter ends, interleavings and shared
    # circles are all common at this size
    edges = tuple(
        ArcEdge(k, k + 1, Arc(rng.randint(-8, 8), rng.randint(1, 8), 1),
                Arc(rng.randint(-8, 8), rng.randint(1, 8), -1))
        for k in range(rng.randint(1, 10))
    )
    return ArcDrawing(len(edges) + 1, (), edges, ())


class TestSimplicityCensus:
    """verify_simplicity against the pairwise circle algebra of the oracle."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_construction_matches_the_pairwise_oracle(self, n):
        d = construct_kn_arc_drawing(n)
        assert verify_simplicity(d).to_obj() == oracles.simplicity_census(d.edges)

    def test_random_drawings_match_the_pairwise_oracle(self):
        rng = random.Random(22)
        outcomes = {"ok": 0, "violations": 0, "shared circle": 0}
        for _ in range(2_000):
            d = random_drawing(rng)
            try:
                want = oracles.simplicity_census(d.edges)
            except ValueError:
                with pytest.raises(GeometryError, match="two edge arcs share a full circle"):
                    verify_simplicity(d)
                outcomes["shared circle"] += 1
                continue
            assert verify_simplicity(d).to_obj() == want
            outcomes["ok" if want["ok"] else "violations"] += 1
        assert min(outcomes.values()) >= 300, outcomes

    def test_counts_each_kind_of_meeting(self):
        # (1,2) and (3,4): upper spans (-4, 4) and (-2, 6) interleave,
        # lower spans (-6, 2) and (-2, 4) interleave, and the axis point
        # x = 2 (doubled 4) ends the first upper and the second lower arc;
        # (5,6) only touches both at that point
        e1 = ArcEdge(1, 2, Arc(0, 4, 1), Arc(-2, 4, -1))
        e2 = ArcEdge(3, 4, Arc(2, 4, 1), Arc(1, 3, -1))
        e3 = ArcEdge(5, 6, Arc(2, 2, 1), Arc(40, 2, -1))
        rep = verify_simplicity(ArcDrawing(0, (), (e1, e2, e3), ()))
        assert oracles.simplicity_census((e1, e2, e3)) == rep.to_obj()
        assert rep.violating_pairs == (((1, 2), (3, 4), 3),)
        assert rep.max_pairwise_intersections == 3


class TestVerifiedConstructor:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_passes(self, n):
        d = construct_kn_arc_drawing(n)
        assert len(d.edges) == n * (n - 1) // 2
        assert verify_drawing_blocking(d).ok and verify_simplicity(d).ok


class TestTrivialBound:
    # A point blocks at most floor(n/2) edges of a drawing on n vertices, so
    # partition_size_floor(n) = ceil(C(n,2) / floor(n/2)) blockers are needed;
    # n - 1 is the weaker round number usually quoted.
    @pytest.mark.parametrize("n,linear,exact", [(2, 1, 1), (4, 3, 3), (7, 6, 7), (10, 9, 9)])
    def test_values(self, n, linear, exact):
        assert (n - 1, partition_size_floor(n)) == (linear, exact)

    @pytest.mark.parametrize("n", range(2, 40))
    def test_ceiling_dominates(self, n):
        assert partition_size_floor(n) >= n - 1
        # and the 2n-3 blockers actually used are enough headroom
        assert 2 * n - 3 >= partition_size_floor(n)


class TestExport:
    def test_json_shape(self):
        d = construct_kn_arc_drawing(2)
        obj = d.to_obj()
        assert obj["n"] == 2
        assert obj["vertices"] == [["1/1", "0/1"], ["2/1", "0/1"]]
        assert obj["blockers"] == [["-3/1", "0/1"]]
        (edge,) = obj["edges"]
        assert edge["i"] == 1 and edge["j"] == 2
        assert edge["pivot"] == ["-3/1", "0/1"]
        up, lo = edge["arcs"]
        assert up == {"center": ["-1/1", "0/1"], "radius_squared": "4/1", "half": "upper"}
        assert lo["half"] == "lower"
        assert lo["radius_squared"] == "25/4"
