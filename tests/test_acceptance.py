"""Release gate: one test per acceptance criterion, each printing one
PASS line with the measured numbers. Run with

    python3 -m pytest tests/test_acceptance.py -v -s

The corpus mixes exhaustive small-grid subsets with named constructions
and seeded random sets. Exact blocking solves are held at n <= 7, which
is where the branch and bound stays fast; larger sets in the corpus are
not in general position and exercise the other criteria.
"""

import math
import time
from itertools import combinations

import pytest

import oracles
from visblock.blocking import (
    candidate_blockers,
    construct_knn_grid,
    construct_knn_parabola,
    drawing_instance,
    is_blocking_set,
    midpoint_blocking_set,
    min_blocking_set,
    triangulation_lower_bound,
)
from visblock.crossing import (
    crossing_family_partition,
    crossing_graph,
    partition_size_floor,
    regular_ngon_multiplicity,
)
from visblock.drawings import (
    construct_kn_arc_drawing,
    verify_drawing_blocking,
    verify_simplicity,
)
from visblock.generators import (
    convex_parabola_set,
    grid_set,
    random_general_position_set,
    regular_ngon_set,
    symmetry_key,
)
from visblock.geometry import PointSet, is_general_position, max_collinear
from visblock.midpoints import midpoint_set, sum_set
from visblock.visibility import (
    Colouring,
    chromatic_number,
    clique_number,
    diameter,
    monochromatic_line_check,
    proposition1_check,
    visibility_graph,
)


def _pass(num: int, detail: str) -> None:
    print(f"\ncriterion {num:02d}: PASS  {detail}")


def build_corpus() -> dict[str, PointSet]:
    sets: dict[str, PointSet] = {}
    for size in (3, 4, 5, 6):
        subs = oracles.general_position_subsets(oracles.grid_points(3, 3), size)
        for i, coords in enumerate(subs):
            sets[f"grid9-{size}-{i:03d}"] = PointSet.build(coords)
    for n in range(3, 8):
        sets[f"parabola-{n}"] = convex_parabola_set(n)
    for n in (5, 6, 7):
        sets[f"ngon-{n}"] = regular_ngon_set(n)
    for n in range(3, 8):
        for seed in range(5):
            sets[f"random-{n}-s{seed}"] = random_general_position_set(n, None, seed)
    sets["triangle"] = PointSet.build([(0, 0), (1, 0), (0, 1)])
    sets["square"] = PointSet.build([(0, 0), (1, 0), (0, 1), (1, 1)])
    sets["grid-2x3"] = grid_set(2, 3)
    sets["grid-3x3"] = grid_set(3, 3)
    sets["grid-4x4"] = grid_set(4, 4)
    sets["collinear-5"] = PointSet.build([(i, 0) for i in range(5)])
    return sets


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


# Exact solves are shared across criteria; the first criterion that needs a
# value pays for it inside its own timer.
_BLOCKING_CACHE: dict[str, object] = {}
_COLOURING_CACHE: dict[str, tuple[PointSet, object]] = {}


def solved_blocking(label, ps):
    if label not in _BLOCKING_CACHE:
        _BLOCKING_CACHE[label] = min_blocking_set(ps)
    return _BLOCKING_CACHE[label]


def exact_colourings(corpus):
    if not _COLOURING_CACHE:
        for label, ps in corpus.items():
            if len(ps) < 2 or max_collinear(ps) == len(ps):
                continue
            g = visibility_graph(ps)
            ch = chromatic_number(g, clique_number(g))
            assert ch.exact, label
            _COLOURING_CACHE[label] = (ps, ch)
    return _COLOURING_CACHE


def gp_small(corpus):
    return {
        label: ps
        for label, ps in corpus.items()
        if 3 <= len(ps) <= 7 and is_general_position(ps)
    }


def test_criterion_01_blocking_lower_bound(corpus):
    t0 = time.perf_counter()
    pool = gp_small(corpus)
    assert len(pool) >= 100
    equalities = []
    for label, ps in pool.items():
        bs = solved_blocking(label, ps)
        lb = triangulation_lower_bound(ps)
        assert bs.optimal, label
        assert bs.size >= lb, (label, bs.size, lb)
        if bs.size == lb:
            equalities.append(label)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _pass(
        1,
        f"b >= 3n-3-hull on {len(pool)} general-position sets "
        f"(n 3..7), {len(equalities)} equalities, {elapsed:.1f}s",
    )


def test_criterion_02_solver_matches_enumeration(corpus):
    t0 = time.perf_counter()
    point_checked = 0
    for label, ps in sorted(corpus.items()):
        if not 3 <= len(ps) <= 5:
            continue
        inst = candidate_blockers(ps)
        assert inst.m <= 12
        covers = [oracles.mask_set(mask) for mask in inst.masks]
        want = oracles.brute_min_hitting_set(inst.m, covers)
        got = min_blocking_set(ps)
        assert got.optimal, label
        assert got.size == want, (label, got.size, want)
        point_checked += 1
    bundle_checked = 0
    for n in (1, 2, 3):
        for d in (construct_knn_grid(n), construct_knn_parabola(n)):
            inst = drawing_instance(list(d.edges))
            assert inst.m <= 12
            covers = [oracles.mask_set(mask) for mask in inst.masks]
            want = oracles.brute_min_hitting_set(inst.m, covers)
            got = min_blocking_set(inst)
            assert got.optimal and got.size == want, d.name
            bundle_checked += 1
    elapsed = time.perf_counter() - t0
    _pass(
        2,
        f"solver == enumeration on {point_checked} point sets and "
        f"{bundle_checked} bipartite bundles (<= 12 segments), {elapsed:.1f}s",
    )


def test_criterion_03_named_values(corpus):
    t0 = time.perf_counter()
    tri = solved_blocking("triangle", corpus["triangle"])
    sq = solved_blocking("square", corpus["square"])
    assert tri.optimal and tri.size == 3
    assert sq.optimal and sq.size == 5
    for n in range(1, 17):
        for d in (construct_knn_grid(n), construct_knn_parabola(n)):
            assert len(d.blockers) == 2 * n - 1, d.name
            chk = d.check()
            assert chk.ok and chk.uncovered is None, d.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _pass(
        3,
        f"b(triangle)=3, b(square)=5; complete bipartite drawings n 1..16 "
        f"blocked by exactly 2n-1 points, {elapsed:.1f}s",
    )


def test_criterion_04_arc_drawings():
    t0 = time.perf_counter()
    for n in range(2, 41):
        d = construct_kn_arc_drawing(n)
        assert len(d.blockers) == 2 * n - 3, n
        assert verify_drawing_blocking(d).ok, n
        rep = verify_simplicity(d)
        assert rep.ok and rep.max_pairwise_intersections <= 1, n
    assert len(construct_kn_arc_drawing(7).blockers) == 11
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _pass(
        4,
        f"arc drawings n 2..40: 2n-3 blockers (11 at n=7), blocking and "
        f"simplicity verified, {elapsed:.1f}s",
    )


def test_criterion_05_visibility(corpus):
    t0 = time.perf_counter()
    cols = exact_colourings(corpus)
    checked_pairs = 0
    for label, (ps, ch) in cols.items():
        g = visibility_graph(ps)
        assert diameter(g) <= 2, label
        om = clique_number(g)
        assert om.exact, label
        assert om.omega <= ch.chi, (label, om.omega, ch.chi)
        checked_pairs += 1
    assert visibility_graph(corpus["grid-3x3"]).edge_count() == 28
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _pass(
        5,
        f"diameter <= 2 and omega <= chi (both exact) on {checked_pairs} "
        f"non-collinear sets; 3x3 grid has 28 edges, {elapsed:.1f}s",
    )


def test_criterion_06_midpoint_sandwich(corpus):
    t0 = time.perf_counter()
    sandwich_checked = 0
    for label, ps in corpus.items():
        if len(ps) < 2:
            continue
        m, s, n = len(midpoint_set(ps)), len(sum_set(ps)), len(ps)
        assert m <= s <= m + n, label
        sandwich_checked += 1
    blocked_checked = 0
    for label, ps in corpus.items():
        if len(ps) < 3 or not is_general_position(ps):
            continue
        mbs = midpoint_blocking_set(ps)
        assert is_blocking_set(ps, mbs.points).ok, label
        b = solved_blocking(label, ps).size
        assert b <= len(midpoint_set(ps)), label
        blocked_checked += 1
    elapsed = time.perf_counter() - t0
    _pass(
        6,
        f"m <= |P+P| <= m+n on {sandwich_checked} sets; midpoints block and "
        f"b <= m on {blocked_checked} general-position sets, {elapsed:.1f}s",
    )


def _straddles(p, q, r, s):
    o = oracles.orient
    return (
        o(p, q, r) * o(p, q, s) < 0
        and o(r, s, p) * o(r, s, q) < 0
    )


def test_criterion_07_crossing_partition(corpus):
    t0 = time.perf_counter()
    pool = gp_small(corpus)
    for label, ps in pool.items():
        part = crossing_family_partition(ps)
        bs = solved_blocking(label, ps)
        assert part.exact and bs.optimal, label
        assert part.size <= bs.size, (label, part.size, bs.size)
        assert part.size >= partition_size_floor(len(ps)), label
        g = crossing_graph(ps)
        coords = [(p.x, p.y) for p in ps]
        for cls in part.classes:
            for a, b in combinations(cls, 2):
                (i, j), (k, l) = g.segments[a], g.segments[b]
                assert _straddles(coords[i], coords[j], coords[k], coords[l]), label
    convex_checked = 0
    for label in [f"parabola-{n}" for n in range(3, 8)] + [f"ngon-{n}" for n in (5, 6, 7)]:
        ps = corpus[label]
        n = len(ps)
        order = oracles.convex_cyclic_order(ps.points)
        pos = {v: i for i, v in enumerate(order)}
        chords = [(pos[i], pos[j]) for i, j in combinations(range(n), 2)]
        cov = oracles.circle_graph_cover(n, chords)
        geo = crossing_family_partition(ps)
        assert cov.exact and geo.exact and cov.size == geo.size, label
        convex_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _pass(
        7,
        f"partition <= b, classes pairwise crossing, floor respected on "
        f"{len(pool)} sets; circle graph agrees on {convex_checked} convex "
        f"instances, {elapsed:.1f}s",
    )


def test_criterion_08_ngon_census():
    t0 = time.perf_counter()
    by_n = {}
    for n in range(4, 31):
        c = regular_ngon_multiplicity(n)
        assert c.certified, n
        assert c.max_multiplicity_excluding_center <= 7, (n, c)
        by_n[n] = c
    assert by_n[6].center_multiplicity == 3
    assert by_n[6].max_multiplicity_excluding_center == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _pass(
        8,
        f"regular polygons n 4..30: off-center multiplicity <= 7, all "
        f"certified; n=6 gives (3, 2), {elapsed:.1f}s",
    )


def test_criterion_09_two_colour_lines():
    t0 = time.perf_counter()
    pts = [(x, y) for x in range(4) for y in range(4)]
    reps: dict = {}
    total = 0
    for size in (3, 4, 5, 6):
        for sub in combinations(pts, size):
            ps = PointSet.build(sub)
            if max_collinear(ps) == len(ps):
                continue
            total += 1
            # the 8 grid symmetries preserve collinearity, so one orbit
            # representative stands for all members
            reps.setdefault(symmetry_key(ps), ps)
    colourings = 0
    for ps in reps.values():
        n = len(ps)
        # swapping the two colours maps monochromatic lines to
        # monochromatic lines, so the first point's colour is fixed
        for bits in range(1 << (n - 1)):
            col = Colouring(2, (1,) + tuple(1 + (bits >> i & 1) for i in range(n - 1)))
            assert monochromatic_line_check(ps, col) is not None, (ps.points, col)
            colourings += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    _pass(
        9,
        f"monochromatic line present for all 2-colourings of all {total} "
        f"non-collinear 4x4-grid subsets with |P| <= 6 "
        f"({len(reps)} orbit representatives, {colourings} colourings), {elapsed:.1f}s",
    )


def test_criterion_10_largest_class_blocked(corpus):
    t0 = time.perf_counter()
    cols = exact_colourings(corpus)
    assert cols
    for label, (ps, ch) in cols.items():
        rep = proposition1_check(visibility_graph(ps), ch.colouring)
        assert rep.proper, label
        assert rep.s_lower == math.ceil(len(ps) / ch.chi), label
        assert rep.s >= rep.s_lower, (label, rep.s, rep.s_lower)
        assert rep.is_blocked, (label, rep.uncovered_pair)
    elapsed = time.perf_counter() - t0
    _pass(
        10,
        f"largest colour class has >= ceil(n/chi) points and is blocked by "
        f"the rest on {len(cols)} exact colourings, {elapsed:.1f}s",
    )
