import cProfile
import os
import pstats
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from visblock import blocking, cliques, geometry
from visblock.blocking import (
    BlockingInstance,
    BlockingSet,
    candidate_blockers,
    construct_knn_grid,
    construct_knn_parabola,
    drawing_instance,
    is_blocking_set,
    midpoint_blocking_set,
    min_blocking_set,
    triangulation_lower_bound,
)
from visblock.cliques import max_matching
from visblock.errors import GeometryError, NotGeneralPosition, SegmentOverlap
from visblock.generators import (
    convex_parabola_set,
    grid_set,
    random_general_position_set,
    regular_ngon_set,
)
from visblock.geometry import Point, PointSet

import oracles
from test_geometry import RATIONAL_COORDS

P = Point


def pset(*coords, name=""):
    return PointSet.build(coords, name)


TRIANGLE = pset((0, 0), (2, 0), (0, 2), name="triangle")
SQUARE = pset((0, 0), (2, 0), (0, 2), (2, 2), name="square")


def tri_midpoints():
    return [
        P((TRIANGLE[i].x + TRIANGLE[j].x) / 2, (TRIANGLE[i].y + TRIANGLE[j].y) / 2)
        for i, j in combinations(range(3), 2)
    ]


class TestIsBlockingSet:
    def test_triangle_midpoints(self):
        assert is_blocking_set(TRIANGLE, tri_midpoints()).ok

    def test_triangle_two_midpoints(self):
        chk = is_blocking_set(TRIANGLE, tri_midpoints()[:2])
        assert not chk.ok
        assert chk.uncovered == (1, 2)
        assert chk.to_obj() == {"ok": False, "uncovered": [1, 2], "vertex_clash": None}

    def test_square_five(self):
        blockers = [P(1, 1), P(1, 0), P(0, 1), P(2, 1), P(1, 2)]
        assert is_blocking_set(SQUARE, blockers).ok

    def test_blocker_inside_set_rejected(self):
        chk = is_blocking_set(TRIANGLE, [P(0, 0), P(1, 1)])
        assert not chk.ok and chk.vertex_clash == P(0, 0)
        assert chk.to_obj() == {"ok": False, "uncovered": None, "vertex_clash": ["0/1", "0/1"]}

    def test_check_works_on_small_integers(self, monkeypatch):
        # each blocker is tested on the vertex view scaled by its own
        # denominator, not by one lcm over all the blockers
        ps = random_general_position_set(12, None, 0)
        cands = candidate_blockers(ps).candidates
        widest = []
        on_open_segment = geometry.on_open_segment

        def spy(x, a, b):
            widest.append(max(abs(c).bit_length() for q in (x, a, b) for c in q))
            return on_open_segment(x, a, b)

        monkeypatch.setattr(geometry, "on_open_segment", spy)
        assert len(cands) == 426
        assert is_blocking_set(ps, cands).ok
        assert widest and max(widest) < 64


class TestCandidateBlockers:
    def test_triangle_only_privates(self):
        inst = candidate_blockers(TRIANGLE)
        assert inst.m == 3
        assert len(inst.candidates) == 3
        assert all(mask.bit_count() == 1 for mask in inst.masks)

    def test_square_center_covers_diagonals(self):
        inst = candidate_blockers(SQUARE)
        center = [mask for p, mask in zip(inst.candidates, inst.masks) if p == P(1, 1)]
        assert len(center) == 1
        labels = list(combinations(range(len(SQUARE)), 2))
        covered = [labels[s] for s in sorted(oracles.mask_set(center[0]))]
        assert covered == [(0, 3), (1, 2)]
        # the 4 sides and 2 diagonals all get a candidate of their own too
        assert len(inst.candidates) == 7

    def test_k22_grid_candidate(self):
        d = construct_knn_grid(2)
        inst = candidate_blockers(list(d.edges))
        multi = [p for p, mask in zip(inst.candidates, inst.masks) if mask.bit_count() == 2]
        assert len(multi) == 1 and multi[0] == P(3, 1)

    def test_coverage_exact(self):
        for ps in (TRIANGLE, SQUARE, pset((0, 0), (4, 0), (0, 4), (4, 4), (2, 1))):
            inst = candidate_blockers(ps)
            for p, mask in zip(inst.candidates, inst.masks):
                for s, (i, j) in enumerate(inst.segments):
                    a, b = inst.vertices[i], inst.vertices[j]
                    inside = oracles.strictly_between(_xy(p), _xy(a), _xy(b))
                    assert inside == bool(mask >> s & 1)

    def test_no_candidate_at_vertices(self):
        for ps in (SQUARE, pset(*[(x, y) for x in range(3) for y in range(3)])):
            inst = candidate_blockers(ps)
            vset = set(inst.vertices)
            assert all(p not in vset for p in inst.candidates)

    def test_collinear_gap_structure(self):
        # 4 collinear points: 3 gap candidates covering nested pair bundles
        ps = pset((0, 0), (1, 0), (2, 0), (3, 0))
        inst = candidate_blockers(ps)
        assert inst.m == 6
        assert len(inst.candidates) == 3
        sizes = sorted(mask.bit_count() for mask in inst.masks)
        assert sizes == [3, 3, 4]  # middle gap spans 2*2 pairs, outer gaps 1*3

    def test_overlap_rejected_for_drawings(self):
        edges = [(P(0, 0), P(4, 0)), (P(1, 0), P(2, 0))]
        with pytest.raises(SegmentOverlap):
            drawing_instance(edges)

    def test_duplicate_segments_rejected(self):
        edges = [(P(0, 0), P(1, 1)), (P(0, 0), P(1, 1))]
        with pytest.raises(GeometryError):
            drawing_instance(edges)

    def test_degenerate_edge_rejected(self):
        # in a child process: a lone degenerate edge once looped forever
        code = (
            "from visblock.blocking import drawing_instance\n"
            "from visblock.errors import DegenerateSegment\n"
            "from visblock.geometry import Point\n"
            "try:\n"
            "    drawing_instance([(Point(0, 0), Point(0, 0))])\n"
            "except DegenerateSegment as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(blocking.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "segment 0 has both endpoints at ['0/1', '0/1']\n"


def _xy(p):
    return (p.x, p.y)


class TestScanOracle:
    """The one-pass build against a cover scan over every candidate and
    segment (oracles.scan_blocking_instance)."""

    @staticmethod
    def assert_matches(inst, segments, gap_segments):
        vertices, cands = oracles.scan_blocking_instance(segments, gap_segments)
        xy = [_xy(p) for p in inst.vertices]
        assert [(xy[i], xy[j]) for i, j in inst.segments] == segments
        assert xy == vertices
        assert [(_xy(p), oracles.mask_set(mask))
                for p, mask in zip(inst.candidates, inst.masks)] == cands

    @given(RATIONAL_COORDS)
    @settings(max_examples=150, deadline=None)
    def test_rational_sets(self, coords):
        ps = PointSet.build(coords)
        pts = [_xy(p) for p in ps]
        segments = [(pts[i], pts[j]) for i, j in combinations(range(len(pts)), 2)]
        # gaps: pairs with no set point strictly between them
        gaps = [
            s for s, (a, b) in enumerate(segments)
            if not any(oracles.strictly_between(x, a, b) for x in pts)
        ]
        self.assert_matches(candidate_blockers(ps), segments, gaps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_knn_bundles(self, n):
        for d in (construct_knn_grid(n), construct_knn_parabola(n)):
            segments = [(_xy(a), _xy(b)) for a, b in d.edges]
            inst = candidate_blockers(list(d.edges))
            self.assert_matches(inst, segments, range(len(segments)))

    def test_no_cover_scan_on_the_4x4_grid(self):
        # a deterministic work counter: one segment_intersection per pair of
        # the 120 segments and no on_open_segment (50,760 with a cover scan)
        prof = cProfile.Profile()
        prof.enable()
        candidate_blockers(grid_set(4, 4))
        prof.disable()
        calls = {
            name: stat[0]
            for (path, _, name), stat in pstats.Stats(prof).stats.items()
            if path.endswith("geometry.py")
        }
        assert calls.get("on_open_segment", 0) == 0
        assert calls["segment_intersection"] == 7140

    def test_few_fractions_on_the_4x4_grid(self):
        # a deterministic work counter: the integer kernel builds two
        # Fractions for each of the 423 candidate Points and no others
        # (133,554 in Fraction geometry)
        ps = grid_set(4, 4)
        prof = cProfile.Profile()
        prof.enable()
        inst = candidate_blockers(ps)
        prof.disable()
        calls = sum(
            stat[0]
            for (path, _, name), stat in pstats.Stats(prof).stats.items()
            if name == "__new__" and path.endswith("fractions.py")
        )
        assert len(inst.candidates) == 423
        assert 0 < calls <= 2 * len(inst.candidates)


class TestMinBlockingSet:
    def test_triangle(self):
        bs = min_blocking_set(TRIANGLE)
        assert bs.size == 3 and bs.optimal and bs.lower_bound == 3

    def test_square(self):
        bs = min_blocking_set(SQUARE)
        assert bs.size == 5 and bs.optimal

    def test_result_is_blocking_set(self):
        for ps in (TRIANGLE, SQUARE, pset((0, 0), (5, 0), (1, 4), (4, 4), (2, 2))):
            bs = min_blocking_set(ps)
            assert is_blocking_set(ps, bs.points).ok

    def test_covers_map_valid(self):
        bs = min_blocking_set(SQUARE)
        inst = candidate_blockers(SQUARE)
        covered = set()
        for s, bi in bs.covers:
            i, j = inst.segments[s]
            assert oracles.on_open_segment(bs.points[bi], inst.vertices[i], inst.vertices[j])
            covered.add(s)
        assert covered == set(range(inst.m))

    def test_collinear_run(self):
        for n in (2, 3, 4, 5):
            ps = pset(*[(i, 0) for i in range(n)], name=f"collinear-{n}")
            bs = min_blocking_set(ps)
            assert bs.size == n - 1 and bs.optimal
            assert is_blocking_set(ps, bs.points).ok

    def test_matches_enumeration_small(self):
        sets = [
            TRIANGLE,
            SQUARE,
            pset((0, 0), (4, 0), (0, 4), (1, 1)),
            pset((0, 0), (4, 0), (2, 3), (2, 1), (3, 2)),
            pset((0, 0), (4, 0), (4, 4), (0, 4), (2, 1)),
        ]
        for ps in sets:
            inst = candidate_blockers(ps)
            covers = [oracles.mask_set(mask) for mask in inst.masks]
            want = oracles.brute_min_hitting_set(inst.m, covers)
            got = min_blocking_set(ps)
            assert got.optimal and got.size == want

    def test_bipartite_matches_enumeration(self):
        for n in (1, 2, 3):
            for d in (construct_knn_grid(n), construct_knn_parabola(n)):
                inst = drawing_instance(list(d.edges))
                covers = [oracles.mask_set(mask) for mask in inst.masks]
                want = oracles.brute_min_hitting_set(inst.m, covers)
                got = min_blocking_set(inst)
                assert got.optimal and got.size == want

    def test_budget_degrades_honestly(self):
        # 5 candidates cover three segments each; greedy takes 27 blockers,
        # above the root bound 22
        ps = regular_ngon_set(10)
        bs = min_blocking_set(ps, budget_ms=0)
        assert not bs.optimal
        assert bs.lower_bound <= bs.size
        assert is_blocking_set(ps, bs.points).ok

    def test_segment_without_candidate_rejected(self):
        inst = candidate_blockers(SQUARE)
        inst = BlockingInstance(inst.vertices, inst.segments, inst.candidates[1:], inst.masks[1:])
        with pytest.raises(GeometryError, match=r"segments \[\d+\] have no candidate blocker"):
            min_blocking_set(inst)

    def test_lower_bound_meets_triangulation(self):
        for ps in (TRIANGLE, SQUARE, pset((0, 0), (4, 0), (0, 4), (1, 1))):
            bs = min_blocking_set(ps)
            assert bs.size >= triangulation_lower_bound(ps)


def gallai_number(inst):
    """m - nu(H), H joining two segments when one candidate covers both."""
    share = [0] * inst.m
    for mask in inst.masks:
        covers = oracles.mask_set(mask)
        for s in covers:
            for t in covers:
                if s != t:
                    share[s] |= 1 << t
    mate, _ = max_matching(inst.m, share)
    return inst.m - sum(t >= 0 for t in mate) // 2


class TestMatchingBound:
    @pytest.mark.parametrize("n, want", [(8, 18), (9, 23), (10, 27), (11, 33), (12, 40)])
    def test_random_sets_solved(self, n, want):
        ps = random_general_position_set(n, None, 0)
        inst = candidate_blockers(ps)
        bs = min_blocking_set(inst)
        assert bs.optimal and bs.size == bs.lower_bound == want
        assert is_blocking_set(ps, bs.points).ok
        assert all(mask.bit_count() <= 2 for mask in inst.masks)
        assert gallai_number(inst) == want

    @pytest.mark.parametrize("n, seed, want", [
        (20, 0, 102), (20, 1, 101), (20, 2, 101), (24, 0, 145), (24, 1, 147), (24, 2, 145)])
    def test_large_random_sets_solved(self, n, seed, want):
        ps = random_general_position_set(n, None, seed)
        bs = min_blocking_set(ps)
        assert bs.optimal and bs.size == bs.lower_bound == want
        assert is_blocking_set(ps, bs.points).ok

    @pytest.mark.parametrize("n", range(4, 21))
    def test_convex_sets(self, n):
        ps = convex_parabola_set(n)
        inst = candidate_blockers(ps)
        bs = min_blocking_set(inst)
        want = n + -(-n * (n - 3) // 4)
        assert bs.optimal and bs.size == want
        assert is_blocking_set(ps, bs.points).ok
        assert all(mask.bit_count() <= 2 for mask in inst.masks)
        assert gallai_number(inst) == want

    @pytest.mark.parametrize("n", range(21, 31))
    def test_convex_identity(self, n):
        # m - nu = n + ceil(n(n - 3) / 4), checked without the search
        inst = candidate_blockers(convex_parabola_set(n))
        assert all(mask.bit_count() <= 2 for mask in inst.masks)
        assert gallai_number(inst) == n + -(-n * (n - 3) // 4)

    def test_budget_keeps_the_root_bound(self):
        bs = min_blocking_set(regular_ngon_set(10), budget_ms=0)
        assert not bs.optimal and bs.lower_bound == 22 < bs.size

    def test_budget_without_big_candidates_is_exact(self):
        # no candidate covers three segments, so the cut search returns the
        # m - nu blockers read off the root matching; greedy takes 24
        ps = random_general_position_set(9, None, 8)
        inst = candidate_blockers(ps)
        assert all(mask.bit_count() <= 2 for mask in inst.masks)
        bs = min_blocking_set(inst, budget_ms=0)
        assert bs.optimal and bs.size == bs.lower_bound == gallai_number(inst) == 22
        assert is_blocking_set(ps, bs.points).ok

    def test_same_leaves_without_the_matching_bound(self, monkeypatch):
        # a valid bound prunes only subtrees without a better leaf, so the
        # search meets the same improving leaves and returns the same set
        sources = [random_general_position_set(n, None, s) for n in (6, 7) for s in range(5)]
        sources += [random_general_position_set(8, None, s) for s in range(3)]
        sources += [convex_parabola_set(n) for n in (4, 5, 6, 7)]
        sources += [regular_ngon_set(6), grid_set(3, 3)]
        sources += [list(d.edges) for d in (construct_knn_grid(3), construct_knn_parabola(3))]
        with_bound = [min_blocking_set(src).to_obj() for src in sources]
        monkeypatch.setattr(cliques, "_matching_bound", lambda *args: 0)
        assert [min_blocking_set(src).to_obj() for src in sources] == with_bound

    def test_root_matching_is_certified(self, monkeypatch):
        # a matching one edge short of maximum fails the barrier check
        def short(n, adj):
            mate, barrier = max_matching(n, adj)
            v = next(v for v in range(n) if mate[v] >= 0)
            mate[mate[v]] = mate[v] = -1
            return mate, barrier

        monkeypatch.setattr(cliques, "max_matching", short)
        with pytest.raises(AssertionError, match="barrier"):
            min_blocking_set(SQUARE)


class TestTriangulationBound:
    def test_triangle(self):
        assert triangulation_lower_bound(TRIANGLE) == 3

    def test_square(self):
        assert triangulation_lower_bound(SQUARE) == 5

    def test_triangle_plus_interior(self):
        assert triangulation_lower_bound(pset((0, 0), (4, 0), (0, 4), (1, 1))) == 6

    def test_non_general_position_rejected(self):
        with pytest.raises(NotGeneralPosition):
            triangulation_lower_bound(pset((0, 0), (1, 0), (2, 0), (0, 1)))

    def test_too_few_rejected(self):
        with pytest.raises(GeometryError, match="at least 3 points"):
            triangulation_lower_bound(pset((0, 0), (1, 0)))


class TestMidpointBlockingSet:
    def test_triangle(self):
        bs = midpoint_blocking_set(TRIANGLE)
        assert bs.size == 3
        assert set(bs.points) == set(tri_midpoints())

    def test_square_dedupes_center(self):
        bs = midpoint_blocking_set(SQUARE)
        assert bs.size == 5

    def test_passes_check(self):
        for ps in (TRIANGLE, SQUARE, pset((0, 0), (5, 1), (3, 4), (1, 3))):
            bs = midpoint_blocking_set(ps)
            assert is_blocking_set(ps, bs.points).ok

    def test_collinear_rejected(self):
        with pytest.raises(NotGeneralPosition):
            midpoint_blocking_set(pset((0, 0), (1, 0), (2, 0)))

    def test_b_at_most_m(self):
        for ps in (TRIANGLE, SQUARE, pset((0, 0), (4, 1), (1, 4), (3, 3))):
            assert min_blocking_set(ps).size <= midpoint_blocking_set(ps).size

    def test_matches_fraction_oracle(self):
        rational = pset((Fraction(-1, 3), 0), (Fraction(5, 4), Fraction(1, 6)),
                        (0, Fraction(7, 12)), (Fraction(2, 5), Fraction(-3, 2)), (1, 1))
        sets = [random_general_position_set(n, None, seed)
                for n in range(3, 10) for seed in range(4)]
        for ps in sets + [rational, SQUARE, regular_ngon_set(8)]:
            mids, covers = oracles.fraction_midpoint_blocking_set(ps)
            want = BlockingSet(tuple(P(x, y) for x, y in mids), covers, False, 0)
            assert midpoint_blocking_set(ps).to_obj() == want.to_obj()


class TestKnnConstructions:
    def test_grid_n1(self):
        d = construct_knn_grid(1)
        assert len(d.edges) == 1
        assert d.blockers == (P(2, 1),)
        assert d.check().ok

    def test_grid_n2(self):
        d = construct_knn_grid(2)
        assert len(d.edges) == 4
        assert d.blockers == (P(2, 1), P(3, 1), P(4, 1))
        assert d.check().ok

    def test_grid_stated_blocker_per_edge(self):
        d = construct_knn_grid(4)
        for i in range(1, 5):
            for j in range(1, 5):
                v, w = P(2 * i, 0), P(2 * j, 2)
                assert oracles.on_open_segment(P(i + j, 1), v, w)

    def test_grid_n7(self):
        d = construct_knn_grid(7)
        assert len(d.edges) == 49 and len(d.blockers) == 13
        assert d.check().ok

    def test_parabola_n1(self):
        d = construct_knn_parabola(1)
        assert d.edges == ((P(-2, 4), P(2, 4)),)
        assert d.blockers == (P(0, 4),)
        assert d.check().ok

    def test_parabola_n3(self):
        d = construct_knn_parabola(3)
        assert len(d.edges) == 9 and len(d.blockers) == 5
        assert d.check().ok

    def test_parabola_general_position(self):
        from visblock.geometry import is_general_position
        d = construct_knn_parabola(5)
        assert is_general_position(PointSet(d.left + d.right))

    def test_blockers_avoid_vertices(self):
        for n in (1, 3, 6):
            for d in (construct_knn_grid(n), construct_knn_parabola(n)):
                assert not set(d.blockers) & set(d.left + d.right)

    @pytest.mark.parametrize("construct", [construct_knn_grid, construct_knn_parabola])
    def test_bad_n(self, construct):
        with pytest.raises(GeometryError):
            construct(0)
