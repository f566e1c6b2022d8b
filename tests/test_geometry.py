import cProfile
import json
import pstats
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visblock.blocking import BipartiteDrawing, drawing_instance
from visblock.errors import DegenerateHull, DegenerateSegment, GeometryError
from visblock.generators import GeneratorSpec, generate, grid_set
from visblock.geometry import (
    _OVERLAP,
    Point,
    PointSet,
    _first_blockers,
    _scale,
    convex_hull_size,
    is_general_position,
    lines_of,
    max_collinear,
    on_open_segment,
    orientation,
    segment_intersection,
    sorted_along_line,
)
from visblock.midpoints import midpoint_set, sum_set

import oracles

P = Point


def pset(*coords, name=""):
    return PointSet.build(coords, name)

TRIANGLE = pset((0, 0), (1, 0), (0, 1), name="triangle")
SQUARE = pset((0, 0), (2, 0), (0, 2), (2, 2), name="square")
GRID33 = pset(*[(x, y) for y in range(3) for x in range(3)], name="grid-3x3")


# independent oracle: maximal lines straight from triple collinearity
def brute_lines(pts):
    n = len(pts)
    out = set()
    for i, j in combinations(range(n), 2):
        members = tuple(
            k for k in range(n)
            if k in (i, j) or oracles.orientation(pts[i], pts[j], pts[k]) == 0
        )
        out.add(members)
    return out


def _kernel_orient(p, q, r):
    """geometry.orientation of three Points, on their scaled view."""
    return orientation(*_scale([p, q, r])[1])


def _kernel_inside(x, a, b):
    """geometry.on_open_segment of a Point and a segment, on their scaled view."""
    return on_open_segment(*_scale([x, a, b])[1])


def _kernel_meet(a1, b1, a2, b2):
    """geometry.segment_intersection on the scaled view of four Points, read
    back as (kind, Point) like the Fraction oracle."""
    den, xy = _scale([a1, b1, a2, b2])
    m = segment_intersection(*xy)
    if m is None:
        return "empty", None
    if m is _OVERLAP:
        return "overlap", None
    x, y, d = m
    return "point", P(Fraction(x, d * den), Fraction(y, d * den))


class TestOrientation:
    def test_collinear(self):
        assert _kernel_orient(P(0, 0), P(1, 0), P(2, 0)) == 0

    def test_ccw(self):
        assert _kernel_orient(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_cw(self):
        assert _kernel_orient(P(0, 0), P(0, 1), P(1, 0)) == -1

    @given(st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=8)] * 6))
    def test_antisymmetry_and_rotation(self, c):
        p, q, r = P(c[0], c[1]), P(c[2], c[3]), P(c[4], c[5])
        assert _kernel_orient(p, q, r) == -_kernel_orient(p, r, q)
        assert _kernel_orient(p, q, r) == _kernel_orient(q, r, p)
        assert _kernel_orient(p, q, r) == oracles.orientation(p, q, r)


class TestOpenSegment:
    def test_midpoint_inside(self):
        assert _kernel_inside(P(1, 1), P(0, 0), P(2, 2))

    def test_endpoint_excluded(self):
        assert not _kernel_inside(P(0, 0), P(0, 0), P(2, 2))

    def test_beyond_endpoint(self):
        assert not _kernel_inside(P(3, 3), P(0, 0), P(2, 2))

    def test_off_line(self):
        assert not _kernel_inside(P(1, 0), P(0, 0), P(2, 2))

    def test_vertical_segment(self):
        assert _kernel_inside(P(0, 1), P(0, 0), P(0, 3))
        assert not _kernel_inside(P(0, 4), P(0, 0), P(0, 3))

    def test_degenerate(self):
        msg = r"segment 0 has both endpoints at \['2/1', '2/1'\]"
        d = BipartiteDrawing(1, (P(2, 2),), (P(2, 2),), ((P(2, 2), P(2, 2)),), (P(1, 1),), "")
        with pytest.raises(DegenerateSegment, match=msg):
            d.check()

    @given(st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * 6))
    def test_membership_implies_collinear(self, c):
        x, a, b = P(c[0], c[1]), P(c[2], c[3]), P(c[4], c[5])
        if a == b:
            return
        assert _kernel_inside(x, a, b) == oracles.on_open_segment(x, a, b)
        if _kernel_inside(x, a, b):
            assert _kernel_orient(a, b, x) == 0
            assert x != a and x != b


class TestSegmentIntersection:
    def test_square_diagonals(self):
        m = _kernel_meet(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
        assert m == ("point", P(1, 1))

    def test_disjoint_collinear(self):
        m = _kernel_meet(P(0, 0), P(1, 0), P(2, 0), P(3, 0))
        assert m[0] == "empty"

    def test_nested_collinear(self):
        m = _kernel_meet(P(0, 0), P(4, 0), P(1, 0), P(2, 0))
        assert m[0] == "overlap"

    def test_endpoint_endpoint_touch(self):
        m = _kernel_meet(P(0, 0), P(1, 0), P(1, 0), P(1, 1))
        assert m[0] == "empty"

    def test_collinear_endpoint_touch(self):
        m = _kernel_meet(P(0, 0), P(1, 0), P(1, 0), P(2, 0))
        assert m[0] == "empty"

    def test_interior_endpoint_touch(self):
        # T-shape: an endpoint of one segment interior to the other
        m = _kernel_meet(P(0, 0), P(2, 0), P(1, 0), P(1, 1))
        assert m == ("point", P(1, 0))

    def test_parallel(self):
        m = _kernel_meet(P(0, 0), P(2, 0), P(0, 1), P(2, 1))
        assert m[0] == "empty"

    def test_degenerate(self):
        # segment_intersection takes proper segments; the instance build rejects the rest
        with pytest.raises(DegenerateSegment):
            drawing_instance([(P(0, 0), P(0, 0)), (P(1, 0), P(2, 0))])

    @given(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 8))
    def test_symmetry(self, c):
        a1, b1 = P(c[0], c[1]), P(c[2], c[3])
        a2, b2 = P(c[4], c[5]), P(c[6], c[7])
        if a1 == b1 or a2 == b2:
            return
        assert _kernel_meet(a1, b1, a2, b2) == _kernel_meet(a2, b2, a1, b1)

    @given(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 8))
    def test_point_result_lies_on_both(self, c):
        a1, b1 = P(c[0], c[1]), P(c[2], c[3])
        a2, b2 = P(c[4], c[5]), P(c[6], c[7])
        if a1 == b1 or a2 == b2:
            return
        kind, x = _kernel_meet(a1, b1, a2, b2)
        if kind == "point":
            on1 = _kernel_inside(x, a1, b1) or x in (a1, b1)
            on2 = _kernel_inside(x, a2, b2) or x in (a2, b2)
            assert on1 and on2
            assert _kernel_inside(x, a1, b1) or _kernel_inside(x, a2, b2)


class TestLines:
    def test_three_collinear(self):
        recs = lines_of(pset((0, 0), (1, 0), (2, 0)))
        assert len(recs) == 1
        assert recs[0].member_indices == (0, 1, 2)

    def test_triangle(self):
        recs = lines_of(TRIANGLE)
        assert len(recs) == 3
        assert all(len(r) == 2 for r in recs)

    def test_grid33_census(self):
        recs = GRID33.lines
        assert len(recs) == 20
        sizes = sorted(len(r) for r in recs)
        assert sizes == [2] * 12 + [3] * 8

    def test_canonical_order(self):
        recs = lines_of(pset((0, 0), (1, 0), (5, 7)))
        assert [r.member_indices for r in recs] == sorted(r.member_indices for r in recs)

    def test_too_few(self):
        with pytest.raises(GeometryError):
            lines_of(pset((0, 0)))

    def test_sorted_along_line(self):
        ps = pset((4, 0), (0, 0), (2, 0), (1, 5))
        rec = next(r for r in ps.lines if len(r) == 3)
        order = sorted_along_line(ps, rec)
        assert order == [1, 2, 0]

    def test_matches_brute_force_on_grid(self):
        assert {r.member_indices for r in GRID33.lines} == brute_lines(list(GRID33))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                              st.integers(min_value=0, max_value=6)),
                    min_size=2, max_size=8, unique=True))
    @settings(max_examples=60)
    def test_matches_brute_force(self, coords):
        ps = PointSet.build(coords)
        assert {r.member_indices for r in ps.lines} == brute_lines(list(ps))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                              st.integers(min_value=0, max_value=8)),
                    min_size=2, max_size=9, unique=True))
    @settings(max_examples=60)
    def test_pair_count_identity(self, coords):
        # every pair lies on exactly one line
        ps = PointSet.build(coords)
        n = len(ps)
        assert sum(len(r) * (len(r) - 1) // 2 for r in ps.lines) == n * (n - 1) // 2

    def test_maximality_exhaustive(self):
        for ps in (GRID33, TRIANGLE, SQUARE, pset((0, 0), (1, 1), (2, 2), (3, 0), (0, 3))):
            pts = list(ps)
            for rec in ps.lines:
                members = set(rec.member_indices)
                i, j = rec.member_indices[:2]
                for k in range(len(pts)):
                    if k not in members:
                        assert oracles.orientation(pts[i], pts[j], pts[k]) != 0


# small integers make collinear triples common; the fractions bring
# negative values and mixed denominators up to 12
COORD = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
RATIONAL_COORDS = st.lists(st.tuples(COORD, COORD), min_size=2, max_size=9, unique=True)


def _as_tuples(points):
    return frozenset((p.x, p.y) for p in points)


class TestIntegerView:
    """The integer routines against the Fraction oracles, and the positive
    affine maps that the integer view relies on."""

    @given(RATIONAL_COORDS)
    @settings(max_examples=150, deadline=None)
    def test_lines_match_fraction_oracle(self, coords):
        ps = PointSet.build(coords)
        recs = lines_of(ps)
        assert [(r.member_indices, r.direction) for r in recs] == oracles.fraction_lines_of(ps)
        for r in recs:
            want = oracles.fraction_sorted_along_line(ps, r.member_indices, r.direction)
            assert sorted_along_line(ps, r) == want

    @pytest.mark.parametrize("w, h", [(3, 3), (4, 6), (5, 5), (7, 3), (8, 8)])
    def test_grid_lines_match_fraction_oracle(self, w, h):
        # most pairs of a grid lie on a line of 3+ recorded before them,
        # which lines_of skips
        recs = lines_of(grid_set(w, h))
        assert [(r.member_indices, r.direction) for r in recs] == (
            oracles.fraction_lines_of(grid_set(w, h))
        )

    @given(RATIONAL_COORDS)
    @settings(max_examples=150, deadline=None)
    def test_sums_match_fraction_oracle(self, coords):
        ps = PointSet.build(coords)
        assert _as_tuples(midpoint_set(ps)) == oracles.fraction_midpoint_set(ps)
        assert _as_tuples(sum_set(ps)) == oracles.fraction_sum_set(ps)

    @given(
        RATIONAL_COORDS,
        st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_affine_map_invariance(self, coords, scale, tx, ty):
        def f(p):
            return P(p.x * scale + tx, p.y * scale + ty)

        ps = PointSet.build(coords)
        image = PointSet(tuple(f(p) for p in ps))
        assert lines_of(image) == lines_of(ps)
        assert midpoint_set(image) == {f(m) for m in midpoint_set(ps)}

    @given(st.lists(st.tuples(COORD, COORD), min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_meet_matches_fraction_oracle(self, c):
        a1, b1, a2, b2 = (P(x, y) for x, y in c)
        if a1 != b1 and a2 != b2:
            kind, p = oracles.segment_intersection(*((q.x, q.y) for q in (a1, b1, a2, b2)))
            assert _kernel_meet(a1, b1, a2, b2) == (kind, p and P(*p))

    @given(RATIONAL_COORDS, st.lists(st.tuples(COORD, COORD), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_first_blockers_match_fraction_oracle(self, coords, extra):
        # the set's own points and some pair midpoints make hits common
        ps = PointSet.build(coords)
        pts = [(p.x, p.y) for p in ps]
        pairs = list(combinations(range(len(pts)), 2))
        segments = [(pts[i], pts[j]) for i, j in pairs]
        mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in segments[::3]]
        blockers = extra + mids + pts
        want = [
            next((k for k, x in enumerate(blockers) if oracles.strictly_between(x, a, b)), None)
            for a, b in segments
        ]
        got = _first_blockers(ps.points, pairs, [P(*x) for x in blockers])
        assert list(got) == want

    @given(RATIONAL_COORDS)
    @settings(max_examples=100, deadline=None)
    def test_hull_matches_fraction_oracle(self, coords):
        ps = PointSet.build(coords)
        if len(ps) >= 3 and max_collinear(ps) < len(ps):
            assert convex_hull_size(ps) == oracles.brute_hull_size([(p.x, p.y) for p in ps])

    def test_few_fractions_on_the_16x16_grid(self):
        # a deterministic work counter: the integer view builds two
        # Fractions per distinct result point (3,836 here, 746,248 pairwise)
        ps = grid_set(16, 16)
        prof = cProfile.Profile()
        prof.enable()
        lines_of(ps)
        midpoint_set(ps)
        sum_set(ps)
        prof.disable()
        calls = sum(
            stat[0]
            for (path, _, name), stat in pstats.Stats(prof).stats.items()
            if name == "__new__" and path.endswith("fractions.py")
        )
        assert 0 < calls < 5_000


class TestMaxCollinear:
    def test_triangle(self):
        assert max_collinear(TRIANGLE) == 2

    def test_grid(self):
        assert max_collinear(GRID33) == 3

    def test_parabola(self):
        ps = pset(*[(i, i * i) for i in range(5)])
        assert max_collinear(ps) == 2
        assert is_general_position(ps)


class TestConvexHull:
    def test_square(self):
        assert convex_hull_size(SQUARE) == 4

    def test_square_plus_center(self):
        ps = pset((0, 0), (2, 0), (0, 2), (2, 2), (1, 1))
        assert convex_hull_size(ps) == 4

    def test_grid33(self):
        assert convex_hull_size(GRID33) == 8

    def test_edge_interior_points_count(self):
        ps = pset((0, 0), (4, 0), (0, 4), (2, 0))
        assert convex_hull_size(ps) == 4

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateHull):
            convex_hull_size(pset((0, 0), (1, 0), (2, 0)))

    def test_too_few(self):
        with pytest.raises(DegenerateHull):
            convex_hull_size(pset((0, 0), (1, 0)))


class TestPointSet:
    def test_duplicate_rejected(self):
        with pytest.raises(GeometryError):
            pset((0, 0), (1, 1), (0, 0))

    def test_non_point_rejected(self):
        with pytest.raises(GeometryError, match="must be Points"):
            PointSet((P(0, 0), (1, 1)))

    def test_fraction_normalisation(self):
        p = P(Fraction(2, 4), Fraction(-3, -6))
        assert p.x.denominator == 2 and p.x.numerator == 1
        assert p.x == p.y

    def test_json_round_trip(self):
        ps = pset((Fraction(3, 2), -7), (0, 1), name="pair")
        obj = json.loads(json.dumps(ps.to_obj()))
        assert PointSet.from_obj(obj) == ps
        assert obj["points"][0] == ["3/2", "-7/1"]

    def test_zero_denominator_rejected(self):
        with pytest.raises(GeometryError):
            PointSet.from_obj({"name": "bad", "points": [["1/0", "2/1"]]})

    def test_duplicate_in_json_rejected(self):
        obj = {"name": "dup", "points": [["1/1", "2/1"], ["2/2", "4/2"]]}
        with pytest.raises(GeometryError):
            PointSet.from_obj(obj)

    @pytest.mark.parametrize("point", [[True, 2], [1, False]])
    def test_boolean_coordinate_rejected(self, point):
        # Fraction(True) == 1, so a JSON boolean would pass for a coordinate
        with pytest.raises(GeometryError, match="booleans"):
            PointSet.from_obj({"points": [[0, 0], [1, 1], point]})

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(GeometryError):
            PointSet.from_obj({"name": "x"})
        with pytest.raises(GeometryError):
            PointSet.from_obj({"points": [["1/1"]]})
        path = tmp_path / "points.json"
        path.write_text("not json at all")
        with pytest.raises(GeometryError, match="not valid JSON"):
            generate(GeneratorSpec("file", {"path": str(path)}))
