import logging
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from visblock.cli import task_midpoints
from visblock.errors import GeometryError
from visblock.generators import GeneratorSpec, generate
from visblock.geometry import Point, PointSet, is_general_position, max_collinear
from visblock.midpoints import midpoint_set, sum_set

import oracles

SQUARE = PointSet.build([(0, 0), (2, 0), (0, 2), (2, 2)])


def small_point_sets(min_size=2, max_size=6):
    return st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    ).map(lambda cs: PointSet.build(cs))


class TestMidpointSet:
    def test_two_points(self):
        assert midpoint_set(PointSet.build([(0, 0), (4, 2)])) == {Point(2, 1)}

    def test_square_center_counted_once(self):
        mids = midpoint_set(SQUARE)
        assert len(mids) == 5
        assert Point(1, 1) in mids

    def test_collinear_four(self):
        mids = midpoint_set(PointSet.build([(0, 0), (1, 0), (2, 0), (3, 0)]))
        assert {p.x for p in mids} == {Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)}

    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            midpoint_set(PointSet.build([(0, 0)]))

    @given(small_point_sets(min_size=3, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_general_position_keeps_midpoints_outside(self, ps):
        if not is_general_position(ps):
            return
        assert midpoint_set(ps).isdisjoint(set(ps))


class TestSumSet:
    def test_two_points(self):
        a, b = Point(0, 0), Point(1, 2)
        assert sum_set(PointSet((a, b))) == {Point(0, 0), Point(1, 2), Point(2, 4)}

    def test_square(self):
        assert len(sum_set(SQUARE)) == 9

    @given(small_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_sandwich(self, ps):
        m = len(midpoint_set(ps))
        s = len(sum_set(ps))
        assert m <= s <= m + len(ps)

    def test_lower_bound_with_equality_exactly_on_line_aps(self):
        # exhaustive over 3x3 grid subsets of sizes 2..5
        grid = [Point(x, y) for x in range(3) for y in range(3)]
        checked_eq = 0
        for size in (2, 3, 4, 5):
            for sub in combinations(grid, size):
                s = len(sum_set(PointSet(sub)))
                assert s >= 2 * size - 1
                if s == 2 * size - 1:
                    checked_eq += 1
                    assert _is_line_ap(sub)
                elif _is_line_ap(sub):
                    pytest.fail(f"line AP {sub} should hit the bound")
        assert checked_eq > 0


class TestTaskCounts:
    """task_midpoints counts sums on the integer view; its counts and its
    check must be those of the Point sets."""

    @staticmethod
    def assert_counts_match(ps):
        result = task_midpoints(ps, None).result
        mids = midpoint_set(ps)
        assert result["midpoints"] == len(mids)
        assert result["sumset"] == len(sum_set(ps))
        avoid = mids.isdisjoint(set(ps)) if is_general_position(ps) else None
        assert result["checks"]["midpoints_avoid_set"] is avoid

    @given(small_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_small_sets(self, ps):
        self.assert_counts_match(ps)

    @pytest.mark.parametrize("coords", [
        [(x, 0) for x in range(7)],
        [(x, 3 * x) for x in (4, 0, 1, 9)],
        [(x, y) for x in range(4) for y in range(5)],
        [(x, x * x) for x in range(-4, 5)],
        [(Fraction(1, 3), 0), (0, Fraction(1, 2)), (1, 1), (Fraction(-2, 5), 3)],
    ])
    def test_collinear_and_general_position_sets(self, coords):
        self.assert_counts_match(PointSet.build(coords))


def _is_line_ap(pts) -> bool:
    spts = sorted(pts)
    if len(spts) <= 2:
        return True
    if any(oracles.orientation(spts[0], spts[1], p) for p in spts[2:]):
        return False
    step = (spts[1].x - spts[0].x, spts[1].y - spts[0].y)
    return all(
        (spts[k + 1].x - spts[k].x, spts[k + 1].y - spts[k].y) == step
        for k in range(len(spts) - 1)
    )


def progression_spec(v0, gens, extents):
    return GeneratorSpec("progression", {"v0": v0, "generators": gens, "extents": extents})


_COLLAPSED = re.compile(r"progression generator: (\d+) collisions collapsed")


def progression(caplog, v0, gens, extents):
    """The progression kind through generate: the point set, and the
    collision count its log line reports (0 when there is no line)."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="visblock"):
        ps = generate(progression_spec(v0, gens, extents))
    counts = [int(c) for c in _COLLAPSED.findall(caplog.text)]
    assert len(counts) <= 1
    return ps, sum(counts)


RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 12))
RATIONAL_POINTS = st.lists(RATIONALS, min_size=2, max_size=2)


class TestProgression:
    def test_validation(self):
        with pytest.raises(GeometryError):
            generate(progression_spec([0, 0], [[1, 0]], [1, 2]))
        with pytest.raises(GeometryError):
            generate(progression_spec([0, 0], [[1, 0]], [0]))

    @pytest.mark.parametrize("v0,gens,extents,message", [
        ([0, 0, 0], [[1, 0]], [0], "malformed progression parameters: "),
        ([0, 0], [[1, 0]], [2, 0], "progression extent must be a positive integer, got 0"),
        ([0, 0], [], [0], "progression extent must be a positive integer, got 0"),
        ([0, 0], [], [2], "one extent per generator"),
        ([0, 0], [[1, 0], [0, 1]], [2], "one extent per generator"),
        ([0, 0], [], [], "need at least one generator"),
    ], ids=["malformed", "extent", "extent-first", "count", "count-short", "none"])
    def test_validation_order(self, v0, gens, extents, message):
        with pytest.raises(GeometryError, match=re.escape(message)):
            generate(progression_spec(v0, gens, extents))

    def test_zero_dimension_rejected_at_generation(self):
        with pytest.raises(GeometryError):
            generate(progression_spec([0, 0], [], []))

    def test_one_dimensional_run(self, caplog):
        points, collisions = progression(caplog, [0, 0], [[1, 0]], [4])
        assert list(points) == [Point(1, 0), Point(2, 0), Point(3, 0), Point(4, 0)]
        assert collisions == 0
        assert max_collinear(points) == 4

    def test_unit_grid_translate(self, caplog):
        points, collisions = progression(caplog, [0, 0], [[1, 0], [0, 1]], [3, 3])
        assert len(points) == 9
        assert collisions == 0
        assert set(points) == {Point(x, y) for x in (1, 2, 3) for y in (1, 2, 3)}

    def test_parallel_generators_two_by_two_all_distinct(self, caplog):
        # x = k1 + 2*k2 over k in {1,2}^2 gives {3,4,5,6}: four distinct points
        points, collisions = progression(caplog, [0, 0], [[1, 0], [2, 0]], [2, 2])
        assert len(points) == 4
        assert collisions == 0
        assert {p.x for p in points} == {3, 4, 5, 6}

    def test_parallel_generators_with_real_collision(self, caplog):
        # x = k1 + 2*k2, k1 in {1..3}, k2 in {1,2}: x=5 arises twice
        points, collisions = progression(caplog, [0, 0], [[1, 0], [2, 0]], [3, 2])
        assert len(points) == 5
        assert collisions == 1

    @given(
        st.integers(-2, 2), st.integers(-2, 2),
        st.integers(-2, 2), st.integers(-2, 2),
        st.integers(1, 4), st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_size_never_exceeds_nominal(self, caplog, ax, ay, bx, by, n1, n2):
        points, collisions = progression(caplog, [0, 0], [[ax, ay], [bx, by]], [n1, n2])
        assert len(points) + collisions == n1 * n2
        assert len(points) <= n1 * n2

    @given(
        RATIONAL_POINTS,
        st.lists(st.tuples(RATIONAL_POINTS, st.integers(1, 4)), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_fraction_oracle(self, caplog, v0, steps):
        gens = [g for g, _ in steps]
        extents = [n for _, n in steps]
        points, collisions = progression(caplog, v0, gens, extents)
        want, want_collisions = oracles.fraction_progression_points(v0, gens, extents)
        assert [(p.x, p.y) for p in points] == want
        assert collisions == want_collisions
        assert points.name == "progression"


class TestSearch:
    """Fewest midpoints of k points with no three collinear, by exhaustive
    search over a small grid."""

    def test_triangle_floor(self):
        # any 3 points in general position give exactly 3 distinct midpoints
        grid = [Point(x, y) for x in range(3) for y in range(3)]
        subsets = (PointSet(sub) for sub in combinations(grid, 3))
        best = min(len(midpoint_set(ps)) for ps in subsets if max_collinear(ps) < 3)
        assert best == 3

    def test_four_point_exhaustive_floor(self):
        grid = [Point(x, y) for x in range(5) for y in range(5)]
        subsets = (PointSet(sub) for sub in combinations(grid, 4))
        best = min(len(midpoint_set(ps)) for ps in subsets if max_collinear(ps) < 3)
        assert best == 5
