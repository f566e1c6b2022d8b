import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from visblock import crossing
from visblock.blocking import min_blocking_set
from visblock.cliques import max_clique
from visblock.crossing import (
    cover_from_blockers,
    crossing_family_partition,
    crossing_graph,
    cyclotomic,
    partition_size_floor,
    regular_ngon_multiplicity,
)
from visblock.errors import GeometryError, NotGeneralPosition
from visblock.generators import random_general_position_set, regular_ngon_set
from visblock.geometry import Point, PointSet, is_general_position

from oracles import (
    a006561,
    brute_hull_size,
    brute_min_clique_cover,
    chord_clusters,
    circle_graph_cover,
    convex_cyclic_order,
    events_equal_by_division,
    full_chord_histogram,
    proper_crossing,
)
from test_geometry import RATIONAL_COORDS

SQUARE = PointSet.build([(0, 0), (2, 0), (2, 2), (0, 2)])
TRIANGLE = PointSet.build([(0, 0), (4, 0), (0, 4)])


def convex_parabola(n):
    return PointSet.build([(i, i * i) for i in range(n)])


class TestProperCrossing:
    def test_diagonals_cross(self):
        assert proper_crossing(Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2))

    def test_shared_endpoint_never_crosses(self):
        assert not proper_crossing(Point(0, 0), Point(2, 2), Point(0, 0), Point(2, 0))

    def test_touching_interior_to_one_only(self):
        # endpoint of one segment interior to the other: not a proper crossing
        assert not proper_crossing(Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3))


class TestCrossingGraph:
    def test_square(self):
        g = crossing_graph(SQUARE)
        assert g.m == 6
        pairs = g.crossing_pairs()
        assert len(pairs) == 1
        s, t = pairs[0]
        assert {g.segments[s], g.segments[t]} == {(0, 2), (1, 3)}

    def test_triangle_empty(self):
        assert crossing_graph(TRIANGLE).crossing_pairs() == []

    def test_pentagon_five_pairs(self):
        assert len(crossing_graph(convex_parabola(5)).crossing_pairs()) == 5

    def test_sharing_endpoint_not_adjacent(self):
        g = crossing_graph(convex_parabola(6))
        for s, t in combinations(range(g.m), 2):
            if set(g.segments[s]) & set(g.segments[t]):
                assert not g.adj[s] >> t & 1

    def test_non_general_position_rejected(self):
        with pytest.raises(NotGeneralPosition):
            crossing_graph(PointSet.build([(0, 0), (1, 0), (2, 0), (0, 1)]))

    @given(RATIONAL_COORDS)
    @settings(max_examples=100, deadline=None)
    def test_matches_proper_crossing_oracle(self, coords):
        ps = PointSet.build(coords)
        if not is_general_position(ps):
            return
        g = crossing_graph(ps)
        for s, t in combinations(range(g.m), 2):
            (i, j), (k, l) = g.segments[s], g.segments[t]
            assert bool(g.adj[s] >> t & 1) == proper_crossing(ps[i], ps[j], ps[k], ps[l])


class TestFamilyPartition:
    def test_square_five_classes(self):
        p = crossing_family_partition(SQUARE)
        assert p.size == 5 and p.exact
        sizes = sorted(len(c) for c in p.classes)
        assert sizes == [1, 1, 1, 1, 2]

    def test_triangle_singletons(self):
        p = crossing_family_partition(TRIANGLE)
        assert p.size == 3
        assert all(len(c) == 1 for c in p.classes)

    @pytest.mark.parametrize("n,expected", [(5, 8), (6, 10), (7, 13)])
    def test_convex_exact_sizes(self, n, expected):
        p = crossing_family_partition(convex_parabola(n), budget_ms=120_000)
        assert p.exact
        assert p.size == expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_brute_cover(self, n):
        ps = convex_parabola(n)
        g = crossing_graph(ps)
        expected = brute_min_clique_cover(g.m, g.crossing_pairs())
        p = crossing_family_partition(ps, budget_ms=120_000)
        assert p.exact and p.size == expected

    def test_floor_holds(self):
        for n in range(3, 8):
            p = crossing_family_partition(convex_parabola(n), budget_ms=120_000)
            assert p.size >= partition_size_floor(n) >= n - 1
        assert [partition_size_floor(n) for n in range(4)] == [0, 0, 1, 3]

    def test_budget_zero_still_valid(self):
        p = crossing_family_partition(convex_parabola(6), budget_ms=0)
        # classes must still partition and pairwise cross (checked internally)
        assert p.size >= 10

    def test_json_shape(self):
        obj = crossing_family_partition(TRIANGLE).to_obj()
        assert obj == {"classes": [[0], [1], [2]], "exact": True}


def crossing_families(g):
    """Every non-empty crossing family of g, as a list of segment indices:
    every clique of the crossing graph."""
    out = []

    def grow(family, cand):
        out.append(family)
        while cand:
            s = (cand & -cand).bit_length() - 1
            cand ^= 1 << s
            grow(family + [s], cand & g.adj[s])

    for s in range(g.m):
        grow([s], g.adj[s] >> (s + 1) << (s + 1))
    return out


def j_edge_bound(n):
    """The j-edge bound on convex n points in closed form: n H_((n-1)/2) for
    odd n, n H_(n/2-1) + 1 for even n, H_r the r-th harmonic number."""
    def harmonic(r):
        return sum(Fraction(1, i) for i in range(1, r + 1))

    return n * harmonic((n - 1) // 2) if n % 2 else n * harmonic(n // 2 - 1) + 1


WEIGHT_SETS = (
    [("random", n, seed) for n in range(3, 9) for seed in range(4)]
    + [("convex", n, None) for n in range(3, 10)]
)


class TestJEdgeWeights:
    """w_s = 1 / (1 + j_s), j_s the points on the smaller side of segment
    s's line, load every crossing family by at most 1, so the partition
    needs at least ceil(sum w_s) classes."""

    @pytest.mark.parametrize("kind,n,seed", WEIGHT_SETS)
    def test_every_crossing_family_weighs_at_most_one(self, kind, n, seed):
        ps = random_general_position_set(n, None, seed) if kind == "random" else convex_parabola(n)
        g = crossing_graph(ps)
        for s, (i, j) in enumerate(g.segments):
            a, b = ps[i], ps[j]
            left = sum((b.x - a.x) * (p.y - a.y) > (b.y - a.y) * (p.x - a.x) for p in ps)
            assert g.smaller_side[s] == min(left, n - 2 - left)
        weights, den = crossing._j_edge_weights(g)
        families = crossing_families(g)
        assert len(families) >= g.m
        for family in families:
            assert sum(weights[s] for s in family) <= den, family

    def test_convex_bound_closed_form(self):
        for n in range(4, 31):
            weights, den = crossing._j_edge_weights(crossing_graph(convex_parabola(n)))
            assert Fraction(sum(weights), den) == j_edge_bound(n), n

    @pytest.mark.parametrize("n,size", [(4, 5), (5, 8), (6, 10), (7, 13), (8, 16), (9, 19),
                                        (10, 22), (11, 26), (12, 29)])
    def test_convex_partitions_meet_the_bound(self, n, size):
        ps = convex_parabola(n)
        p = crossing_family_partition(ps, budget_ms=120_000)
        assert p.exact and p.size == size == math.ceil(j_edge_bound(n))
        g = crossing_graph(ps)
        for cls in p.classes:
            for s, t in combinations(cls, 2):
                (i, j), (k, l) = g.segments[s], g.segments[t]
                assert proper_crossing(ps[i], ps[j], ps[k], ps[l])

    def test_weights_keep_every_partition(self, monkeypatch):
        # the weights prune only subtrees without a leaf, so the first leaf
        # and every finished partition stay as they were without them
        sets = [convex_parabola(n) for n in range(4, 12)]
        sets += [random_general_position_set(n, None, seed)
                 for n in range(4, 11) for seed in range(4)]
        weighted = [crossing_family_partition(ps).to_obj() for ps in sets]
        colour = crossing.chromatic_number
        monkeypatch.setattr(crossing, "chromatic_number", lambda n, adj, lower, deadline, _:
                            colour(n, adj, lower, deadline))
        assert [crossing_family_partition(ps).to_obj() for ps in sets] == weighted


TRIANGULATION_SETS = (
    [("random", n, seed) for n in range(3, 11) for seed in range(6)]
    + [("convex", n, None) for n in range(3, 10)]
    + [("ngon", n, None) for n in range(3, 11)]
)


class TestNonCrossingClique:
    """crossing_family_partition starts its colouring at 3n - 3 - h: on
    points in general position every maximal set of pairwise non-crossing
    segments is a triangulation, so that is the clique number of the
    complement of the crossing graph."""

    @pytest.mark.parametrize("kind,n,seed", TRIANGULATION_SETS)
    def test_largest_non_crossing_set_is_a_triangulation(self, kind, n, seed):
        if kind == "random":
            ps = random_general_position_set(n, None, seed)
        elif kind == "convex":
            ps = convex_parabola(n)
        else:
            ps = regular_ngon_set(n)
        g = crossing_graph(ps)
        full = (1 << g.m) - 1
        comp = [full ^ a ^ (1 << s) for s, a in enumerate(g.adj)]
        size, _, exact = max_clique(g.m, comp)
        assert exact
        assert size == 3 * n - 3 - brute_hull_size([(p.x, p.y) for p in ps])


class TestCheckPartition:
    # square segments: 0 (0,1), 1 (0,2), 2 (0,3), 3 (1,2), 4 (1,3), 5 (2,3);
    # only the diagonals 1 and 4 cross
    def test_valid_partition_passes(self):
        crossing._check_partition(crossing_graph(SQUARE), ((0,), (1, 4), (2,), (3,), (5,)))

    @pytest.mark.parametrize("classes,message", [
        (((0, 1), (2,), (3,), (4,), (5,)),
         r"\(0, 1\) and \(0, 2\) share a class but do not cross"),
        (((0,), (1, 4), (2,), (3,)), "classes do not partition the segments"),
        (((0,), (1, 4), (2,), (3,), (4,), (5,)), "classes do not partition the segments"),
    ], ids=["non-crossing-pair", "missing-segment", "repeated-segment"])
    def test_rejected(self, classes, message):
        with pytest.raises(GeometryError, match=message):
            crossing._check_partition(crossing_graph(SQUARE), classes)


class TestCoverFromBlockers:
    def test_square_blockers_give_cover(self):
        bs = min_blocking_set(SQUARE)
        cover = cover_from_blockers(SQUARE, bs.points)
        assert cover.size <= bs.size
        t = crossing_family_partition(SQUARE).size
        assert t <= cover.size

    def test_pentagon_partition_at_most_blocking(self):
        ps = convex_parabola(5)
        bs = min_blocking_set(ps)
        assert bs.optimal
        cover = cover_from_blockers(ps, bs.points)
        t = crossing_family_partition(ps, budget_ms=120_000).size
        assert t <= cover.size <= bs.size

    def test_unblocked_input_rejected(self):
        with pytest.raises(GeometryError):
            cover_from_blockers(SQUARE, [Point(1, 1)])  # center misses the sides


class TestCircleGraph:
    def test_all_four_position_chords(self):
        chords = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        cov = circle_graph_cover(4, chords)
        assert cov.size == 5 and cov.exact

    def test_non_interleaving_all_singletons(self):
        cov = circle_graph_cover(6, [(0, 1), (2, 3), (4, 5)])
        assert cov.size == 3
        cov = circle_graph_cover(6, [(0, 3), (1, 2)])  # nested
        assert cov.size == 2

    def test_interleaving_pair_shares_class(self):
        cov = circle_graph_cover(4, [(0, 2), (1, 3)])
        assert cov.size == 1

    @pytest.mark.parametrize("n", range(4, 11))
    def test_agrees_with_geometry_on_convex(self, n):
        # chords in segment order: the interleaving graph is the crossing
        # graph, so both routes colour the same graph into the same classes
        ps = convex_parabola(n)
        order = convex_cyclic_order(ps.points)
        pos = {v: i for i, v in enumerate(order)}
        chords = [(pos[i], pos[j]) for i, j in crossing_graph(ps).segments]
        cov = circle_graph_cover(n, chords)
        geo = crossing_family_partition(ps, budget_ms=120_000)
        assert cov.exact and geo.exact
        assert cov.classes == geo.classes


# Float oracle for the polygon census: build chords with trig, intersect
# pairs with the schoolbook line-line formula, cluster by distance. Entirely
# separate from the cyclotomic path.

def float_census(n):
    pts = [(math.cos(2 * math.pi * t / n), math.sin(2 * math.pi * t / n)) for t in range(n)]
    events = []
    for i, j, k, l in combinations(range(n), 4):
        (x1, y1), (x2, y2) = pts[i], pts[k]
        (x3, y3), (x4, y4) = pts[j], pts[l]
        den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
        s = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
        px, py = x1 + s * (x2 - x1), y1 + s * (y2 - y1)
        if px * px + py * py < 1e-18:
            continue  # center
        events.append((px, py, (i, k), (j, l)))
    clusters = []
    for ev in events:
        for cl in clusters:
            if abs(cl[0][0] - ev[0]) < 1e-7 and abs(cl[0][1] - ev[1]) < 1e-7:
                cl.append(ev)
                break
        else:
            clusters.append([ev])
    best = 0
    for cl in clusters:
        chords = {c for ev in cl for c in (ev[2], ev[3])}
        best = max(best, len(chords))
    return best


def unpack_signed(v, width, d):
    """The d balanced digits of v in base 2^width, low first."""
    half, digits = 1 << (width - 1), []
    for _ in range(d):
        c = (v + half) % (1 << width) - half
        digits.append(c)
        v = (v - c) >> width
    assert v == 0
    return digits


def split_first_cluster(monkeypatch, on_chord):
    """Make _chord_clusters split the first multi-event cluster on a chord
    (0, k) with on_chord(n, k) into its first event and the rest; returns
    the list that receives the split cluster."""
    census_clusters = crossing._chord_clusters
    split = []

    def split_first(n, k, zeta):
        singles, clusters = census_clusters(n, k, zeta)
        if clusters and not split and on_chord(n, k):
            cl = clusters[0]
            split.append(cl)
            return singles, [cl[:1], cl[1:], *clusters[1:]]
        return singles, clusters

    monkeypatch.setattr(crossing, "_chord_clusters", split_first)
    return split


class TestNgonCensus:
    @pytest.mark.parametrize(
        "n,center,excl",
        [(4, 2, 0), (5, 0, 2), (6, 3, 2), (8, 4, 3), (12, 6, 4)],
    )
    def test_small_values(self, n, center, excl):
        c = regular_ngon_multiplicity(n)
        assert c.certified
        assert c.center_multiplicity == center
        assert c.max_multiplicity_excluding_center == excl

    @pytest.mark.parametrize("n", range(5, 14))
    def test_against_float_oracle(self, n):
        c = regular_ngon_multiplicity(n)
        assert c.max_multiplicity_excluding_center == float_census(n)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15])
    def test_odd_polygons_have_no_concurrences(self, n):
        c = regular_ngon_multiplicity(n)
        assert c.center_multiplicity == 0
        assert c.max_multiplicity_excluding_center == 2

    def test_thirty_reaches_seven(self):
        c = regular_ngon_multiplicity(30)
        assert c.certified
        assert c.max_multiplicity_excluding_center == 7

    def test_rejects_small(self):
        with pytest.raises(GeometryError):
            regular_ngon_multiplicity(3)

    def test_needs_no_mpmath(self):
        code = (
            "import sys\n"
            "from visblock.crossing import regular_ngon_multiplicity\n"
            "assert regular_ngon_multiplicity(12).certified\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(crossing.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_result_does_not_hinge_on_the_grid(self, monkeypatch):
        base = [regular_ngon_multiplicity(n).to_obj() for n in range(4, 31)]
        for exp in (24, 36):
            monkeypatch.setattr(crossing, "_GAP_EXP", exp)
            assert [regular_ngon_multiplicity(n).to_obj() for n in range(4, 31)] == base

    @pytest.mark.parametrize("n", [*range(41, 61), 84, 90, 120])
    def test_poonen_rubinstein_maximum(self, n):
        # off-center maximum for n >= 13, Poonen & Rubinstein (1998)
        expected = 2 if n % 2 else 3 if n % 6 else 7 if n % 30 == 0 else 5
        c = regular_ngon_multiplicity(n)
        assert c.certified
        assert c.max_multiplicity_excluding_center == expected

    def test_split_cluster_breaks_the_rotation_count(self, monkeypatch):
        split = split_first_cluster(monkeypatch, lambda n, k: True)
        with pytest.raises(AssertionError, match="not a multiple of"):
            regular_ngon_multiplicity(12)
        assert split

    def test_split_diameter_cluster_breaks_the_rotation_count(self, monkeypatch):
        # the diameter (0, 6) is its own mirror, so its groups count once
        split = split_first_cluster(monkeypatch, lambda n, k: 2 * k == n)
        with pytest.raises(AssertionError, match="not a multiple of"):
            regular_ngon_multiplicity(12)
        assert split and split[0][0][2] == 6

    def test_lost_chord_breaks_the_chord_pair_count(self, monkeypatch):
        # for odd n every chord (0, k) with k < n/2 holds an even number of
        # events, so dropping one keeps the rotation count; the histogram
        # then misses crossing pairs
        census_clusters = crossing._chord_clusters
        monkeypatch.setattr(crossing, "_chord_clusters", lambda n, k, zeta:
                            (0, []) if k == 3 else census_clusters(n, k, zeta))
        with pytest.raises(AssertionError, match="crossing chord pairs, not C"):
            regular_ngon_multiplicity(13)

    def test_chord_clusters_match_the_sorted_tuple_oracle(self):
        # one-event clusters are only counted; the others keep their events
        # and their order
        for n in range(4, 61):
            zeta = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
            for k in range(2, n // 2 + 1):
                expected = chord_clusters(n, k)
                singles = sum(len(cl) == 1 for cl in expected)
                assert crossing._chord_clusters(n, k, zeta) == \
                    (singles, [cl for cl in expected if len(cl) > 1]), (n, k)

    @pytest.mark.parametrize("exp", [0, -1])
    def test_floats_only_propose(self, monkeypatch, exp):
        # keys lie in [-1, 1]: a gap of 1.0 leaves 2 of the 14,105 events of
        # n = 4..30 on their own, and a gap of 2.0 makes every chord one
        # cluster, so that every event goes through the exact checks
        base = [regular_ngon_multiplicity(n) for n in range(4, 31)]
        census_clusters = crossing._chord_clusters
        singles = []

        def record(n, k, zeta):
            found = census_clusters(n, k, zeta)
            singles.append(found[0])
            return found

        monkeypatch.setattr(crossing, "_GAP_EXP", exp)
        monkeypatch.setattr(crossing, "_chord_clusters", record)
        for n, c in zip(range(4, 31), base):
            wide = regular_ngon_multiplicity(n)
            assert (wide.to_obj(), wide.histogram) == (c.to_obj(), c.histogram), n
        assert sum(singles) == (2 if exp == 0 else 0)

    def test_work_counters(self, monkeypatch):
        # one root table per call, the same exact checks as a census that
        # keyed each chord on its own; a cache surviving a call would cut
        # the second call's counts
        exps, checks = [], []
        exp, events_equal = cmath.exp, crossing._events_equal
        monkeypatch.setattr(crossing.cmath, "exp", lambda z: exps.append(z) or exp(z))
        monkeypatch.setattr(crossing, "_events_equal",
                            lambda *args: checks.append(args) or events_equal(*args))
        for n, expected in ((30, 608), (60, 2343)):
            for _ in range(2):
                exps.clear()
                checks.clear()
                regular_ngon_multiplicity(n)
                assert (len(exps), len(checks)) == (n, expected), n

    def test_histogram_matches_the_full_chord_oracle(self):
        for n in range(4, 61):
            _, res = crossing._packed_residues(n)
            oracle = full_chord_histogram(
                n, chord_clusters, lambda e1, e2: crossing._events_equal(e1, e2, res))
            assert dict(regular_ngon_multiplicity(n).histogram) == oracle, n

    def test_histogram_counts_a006561_points(self):
        # a006561(120) = 7,726,081 and a006561(210) = 76,524,421
        for n in [*range(4, 91), 120, 210]:
            c = regular_ngon_multiplicity(n)
            hist = dict(c.histogram)
            assert sum(hist.values()) == a006561(n), n
            assert sum(a * math.comb(k, 2) for k, a in hist.items()) == math.comb(n, 4), n
            assert max((k for k in hist if k != c.center_multiplicity), default=0) == \
                c.max_multiplicity_excluding_center
            assert hist.get(n // 2, 0) >= (n % 2 == 0)
            assert "histogram" not in c.to_obj()

    def test_packed_check_agrees_with_division(self):
        for n in range(4, 41):
            phi = cyclotomic(n)
            _, res = crossing._packed_residues(n)
            for k in range(2, n - 1):
                for cluster in chord_clusters(n, k):
                    for e1, e2 in combinations(cluster, 2):
                        assert crossing._events_equal(e1, e2, res) == \
                            events_equal_by_division(e1, e2, n, phi), (n, e1, e2)

    def test_packed_check_agrees_with_division_on_random_pairs(self):
        rng = random.Random(15)
        residues = {n: crossing._packed_residues(n)[1] for n in range(4, 121)}
        verdicts = []
        for _ in range(3000):
            n = rng.randrange(4, 121)
            e1, e2 = (tuple(rng.randrange(n) for _ in range(4)) for _ in range(2))
            # (j, i, l, k) negates num and den, so it is the same point
            for f in (e2, (e1[1], e1[0], e1[3], e1[2])):
                packed = crossing._events_equal(e1, f, residues[n])
                assert packed == events_equal_by_division(e1, f, n, cyclotomic(n)), (n, e1, f)
                verdicts.append(packed)
        assert verdicts.count(False) > 2500 and verdicts.count(True) >= 3000

    def test_residues_unpack_to_the_remainders(self):
        for n in range(4, 61):
            phi = list(cyclotomic(n))
            d = len(phi) - 1
            width, res = crossing._packed_residues(n)
            assert len(res) == 3 * n  # x^e for every exponent a check forms
            for e, r in enumerate(res):
                rem = crossing._poly_divmod_monic([0] * e + [1], phi)[1]
                coeffs = rem + [0] * (d - len(rem))
                assert unpack_signed(r, width, d) == coeffs, (n, e)
                # the widest digit sum a check forms still has its own digit
                for m in (16, -16):
                    assert unpack_signed(m * r, width, d) == [m * c for c in coeffs], (n, e, m)

    def test_census_matches_the_division_census(self, monkeypatch):
        base = [regular_ngon_multiplicity(n) for n in range(4, 31)]
        # res holds 3n rows
        monkeypatch.setattr(crossing, "_events_equal", lambda e1, e2, res:
                            events_equal_by_division(e1, e2, len(res) // 3,
                                                     cyclotomic(len(res) // 3)))
        for n, c in zip(range(4, 31), base):
            oracle = regular_ngon_multiplicity(n)
            assert (c.to_obj(), c.histogram) == (oracle.to_obj(), oracle.histogram)

    def test_cyclotomic_degrees(self):
        # degree = Euler phi; spot values
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert len(cyclotomic(30)) - 1 == 8
