import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from visblock.crossing import partition_size_floor
from visblock.drawings import (
    Arc,
    construct_kn_arc_drawing,
    edge_common_points,
    verify_drawing_blocking,
    verify_simplicity,
)
from visblock.errors import GeometryError
from visblock.geometry import Point

import oracles


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
            kind, x = circle_relation(a1.center_x, a1.radius, a2.center_x, a2.radius)
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
        assert e.upper == Arc(Fraction(-1), Fraction(2), +1)
        assert e.lower == Arc(Fraction(-1, 2), Fraction(5, 2), -1)

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
        # upper runs (i,0) to (-i-j,0), lower runs (-i-j,0) to (j,0)
        for e in construct_kn_arc_drawing(n).edges:
            assert {e.upper.center_x - e.upper.radius, e.upper.center_x + e.upper.radius} == {
                Fraction(e.i),
                Fraction(-(e.i + e.j)),
            }
            assert {e.lower.center_x - e.lower.radius, e.lower.center_x + e.lower.radius} == {
                Fraction(e.j),
                Fraction(-(e.i + e.j)),
            }

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


class TestArcMembership:
    def test_contains_endpoints_and_top(self):
        a = Arc(Fraction(-1), Fraction(2), +1)
        assert a.contains(Point(1, 0))
        assert a.contains(Point(-3, 0))
        assert a.contains(Point(-1, 2))
        assert not a.contains(Point(-1, -2))
        assert not a.contains(Point(0, 0))

    def test_lower_half_sign(self):
        a = Arc(Fraction(0), Fraction(1), -1)
        assert a.contains(Point(0, -1))
        assert not a.contains(Point(0, 1))

    def test_half_integer_axis_points(self):
        a = Arc(Fraction(-1, 2), Fraction(5, 2), -1)
        assert a.contains(Point(-3, 0)) and a.contains(Point(2, 0))
        assert not a.contains(Point(Fraction(5, 2), 0))
        assert not a.contains(Point(Fraction(7, 3), 0))

    def test_integer_view_needs_half_integers(self):
        with pytest.raises(GeometryError):
            Arc(Fraction(1, 3), Fraction(2), +1).contains(Point(0, 0))


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
        report = verify_drawing_blocking(tampered)
        assert not report.ok
        assert any("(1,2)" in f for f in report.failures)

    def test_blocker_on_vertex_detected(self):
        d = construct_kn_arc_drawing(3)
        tampered = dataclasses.replace(d, blockers=d.blockers + (Point(1, 0),))
        report = verify_drawing_blocking(tampered)
        assert not report.ok
        assert any("coincides with a vertex" in f for f in report.failures)

    @pytest.mark.parametrize("moved", [Point(-4, 1), Point(Fraction(-9, 2), 0), Point(-4, -1)])
    def test_blocker_moved_off_its_pivot_detected(self, moved):
        d = construct_kn_arc_drawing(4)
        tampered = dataclasses.replace(
            d, blockers=tuple(moved if b == Point(-4, 0) else b for b in d.blockers)
        )
        report = verify_drawing_blocking(tampered)
        assert not report.ok
        assert any("(1,3)" in f and "pivot" in f for f in report.failures)

    def test_stray_blocker_on_edge_detected(self):
        d = construct_kn_arc_drawing(3)
        # top of the (1,2) upper arc
        tampered = dataclasses.replace(d, blockers=d.blockers + (Point(-1, 2),))
        report = verify_drawing_blocking(tampered)
        assert not report.ok


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
                    assert e1.contains(p) and e2.contains(p)
                else:
                    # y^2 must fit both supporting circles
                    arcs = [a for a in (e1.upper, e1.lower) if a.half == sign]
                    arcs += [a for a in (e2.upper, e2.lower) if a.half == sign]
                    assert len(arcs) == 2
                    for a in arcs:
                        assert (x - a.center_x) ** 2 + ysq == a.radius ** 2


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
