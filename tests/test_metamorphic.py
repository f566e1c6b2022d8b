"""Metamorphic tests: every exact value the lab reports is a property of the
point set, not of its coordinates or its point order. An invertible affine
map, with a determinant of either sign, followed by a shuffle of the points
keeps them all. A map with a negative determinant flips every orientation,
so this catches a search or bound that depends on orientation, coordinates
or index order.

Witnesses may differ between the two sets; each witness of the mapped set
is checked on the mapped set. A search cut by its budget is compared only
by its bounds."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from visblock.blocking import is_blocking_set, min_blocking_set
from visblock.crossing import crossing_family_partition, crossing_graph
from visblock.geometry import PointSet, is_general_position, max_collinear
from visblock.midpoints import midpoint_set, sum_set
from visblock.visibility import chromatic_number, clique_number, diameter, visibility_graph

from oracles import proper_crossing

GRID_4X4 = [(x, y) for x in range(4) for y in range(4)]
RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=7)
# far above what any n <= 8 search takes, so a cut is rare but stays legal
BUDGET_MS = 2000


@st.composite
def mapped_pairs(draw):
    """(coords, image): a random rational set or a 4x4 grid subset with
    n <= 8 points, and its image under x -> M x / den + shift with an
    integer matrix M, det M != 0, listed in shuffled order."""
    n = draw(st.integers(2, 8))
    points = st.tuples(RATIONAL, RATIONAL) if draw(st.booleans()) else st.sampled_from(GRID_4X4)
    coords = draw(st.lists(points, min_size=n, max_size=n, unique=True))
    entry = st.integers(-3, 3)
    a, b, c, d = draw(st.tuples(entry, entry, entry, entry).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]))
    den = draw(st.integers(1, 6))
    sx, sy = draw(RATIONAL), draw(RATIONAL)
    image = [(Fraction(a * x + b * y, den) + sx, Fraction(c * x + d * y, den) + sy)
             for x, y in coords]
    order = draw(st.permutations(range(n)))
    return coords, [image[i] for i in order]


def exact_values(ps):
    """The invariants of ps with the witnesses behind them."""
    g = visibility_graph(ps)
    clique = clique_number(g)
    chromatic = chromatic_number(g, clique)
    out = {
        "edges": g.edge_count(),
        "diameter": diameter(g),
        "omega": clique,
        "chi": chromatic,
        "b": min_blocking_set(ps, BUDGET_MS),
        "m": len(midpoint_set(ps)),
        "sums": len(sum_set(ps)),
        "max_collinear": max_collinear(ps),
        "line_sizes": sorted(len(rec) for rec in ps.lines),
        "graph": g,
    }
    if len(ps) >= 3 and is_general_position(ps):
        out["t"] = crossing_family_partition(ps, BUDGET_MS)
    return out


def check_witnesses(ps, got):
    g = got["graph"]
    assert is_blocking_set(ps, got["b"].points).ok
    clique = got["omega"].witness
    assert len(clique) == got["omega"].omega
    assert all(g.adj[u] >> v & 1 for u, v in combinations(clique, 2))
    colours = got["chi"].colouring.colours
    assert len(set(colours)) == got["chi"].chi
    assert all(colours[u] != colours[v] for u, v in g.edges())
    if "t" in got:
        segments = crossing_graph(ps).segments
        for cls in got["t"].classes:
            for s, t in combinations(cls, 2):
                (i, j), (k, l) = segments[s], segments[t]
                assert proper_crossing(ps[i], ps[j], ps[k], ps[l])
        assert sorted(s for cls in got["t"].classes for s in cls) == list(range(len(segments)))


def assert_same_optimum(x, y, size, lower, exact):
    """Two results of one search: equal when both finished, and otherwise
    neither side's lower bound above the other side's size. A finished
    search proves its own size."""
    def proven(r):
        return size(r) if exact(r) else lower(r)

    assert proven(x) <= size(y) and proven(y) <= size(x)


class TestAffineInvariance:
    @given(mapped_pairs())
    @settings(max_examples=200, deadline=None)
    def test_exact_values_survive_an_affine_map(self, pair):
        coords, image = pair
        ps, qs = PointSet.build(coords), PointSet.build(image)
        before, after = exact_values(ps), exact_values(qs)
        check_witnesses(qs, after)
        for key in ("edges", "diameter", "m", "sums", "max_collinear", "line_sizes"):
            assert before[key] == after[key], key
        assert before["omega"].omega == after["omega"].omega
        assert before["omega"].exact and after["omega"].exact
        assert_same_optimum(before["chi"], after["chi"], lambda r: r.chi,
                            lambda r: r.lower, lambda r: r.exact)
        assert_same_optimum(before["b"], after["b"], lambda r: r.size,
                            lambda r: r.lower_bound, lambda r: r.optimal)
        assert ("t" in before) == ("t" in after)
        if "t" in before:
            # a cut partition reports no lower bound of its own
            assert_same_optimum(before["t"], after["t"], lambda r: r.size,
                                lambda r: 0, lambda r: r.exact)
