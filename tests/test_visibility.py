import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visblock.errors import DisconnectedVisibility, GeometryError
from visblock.generators import grid_set
from visblock.geometry import PointSet
from visblock.visibility import (
    Colouring,
    Prop1Report,
    VisibilityGraph,
    big_line_big_clique_check,
    chromatic_number,
    clique_number,
    diameter,
    monochromatic_line_check,
    proposition1_check,
    visibility_graph,
)

import oracles


def pset(*coords, name=""):
    return PointSet.build(coords, name)


TRIANGLE = pset((0, 0), (1, 0), (0, 1), name="triangle")
COLL3 = pset((0, 0), (1, 0), (2, 0), name="three-collinear")
GRID33 = pset(*[(x, y) for y in range(3) for x in range(3)], name="grid-3x3")


class TestVisibilityGraph:
    def test_collinear_path(self):
        g = visibility_graph(COLL3)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_triangle_complete(self):
        g = visibility_graph(TRIANGLE)
        assert g.edge_count() == 3

    def test_grid33_edge_count(self):
        g = visibility_graph(GRID33)
        assert g.edge_count() == 28

    @staticmethod
    def assert_edges_match_oracle_in_order(ps):
        want = oracles.brute_visibility_edges([(p.x, p.y) for p in ps])
        assert visibility_graph(ps).edges() == sorted(want)

    def test_grid33_matches_oracle(self):
        self.assert_edges_match_oracle_in_order(GRID33)

    def test_grid66_matches_oracle(self):
        self.assert_edges_match_oracle_in_order(grid_set(6, 6))

    def test_too_few(self):
        with pytest.raises(GeometryError):
            visibility_graph(pset((0, 0)))

    @pytest.mark.parametrize("adj, message", [
        ((0b010, 0b011, 0), "self-loop at vertex 1"),
        ((0b010, 0b1001, 0), "mask of 1 out of range"),
    ], ids=["self-loop", "past-n"])
    def test_bad_adjacency_rejected(self, adj, message):
        with pytest.raises(GeometryError, match=message):
            VisibilityGraph(adj, pset((0, 0), (1, 0), (2, 0)))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                              st.integers(min_value=0, max_value=6)),
                    min_size=2, max_size=8, unique=True))
    @settings(max_examples=80)
    def test_matches_oracle(self, coords):
        ps = PointSet.build(coords)
        g = visibility_graph(ps)
        assert g.edges() == sorted(oracles.brute_visibility_edges(coords))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=5)),
                    min_size=3, max_size=7, unique=True))
    @settings(max_examples=50)
    def test_removal_monotone(self, coords):
        # dropping a point never destroys visibility between the others
        edges = set(visibility_graph(PointSet.build(coords)).edges())
        for drop in range(len(coords)):
            rest = coords[:drop] + coords[drop + 1:]
            sub_edges = set(visibility_graph(PointSet.build(rest)).edges())

            def old_index(i):
                return i if i < drop else i + 1

            for i, j in combinations(range(len(rest)), 2):
                if (old_index(i), old_index(j)) in edges:
                    assert (i, j) in sub_edges


class TestDiameter:
    def test_triangle(self):
        assert diameter(visibility_graph(TRIANGLE)) == 1

    def test_collinear_path(self):
        assert diameter(visibility_graph(COLL3)) == 2

    def test_grid33(self):
        assert diameter(visibility_graph(GRID33)) == 2

    def test_matches_oracle_on_grid(self):
        g = visibility_graph(GRID33)
        assert diameter(g) == oracles.brute_diameter(g.n, g.edges())

    def test_isolated_vertex_raises(self):
        g = VisibilityGraph((0b010, 0b001, 0), pset((0, 0), (1, 0), (2, 0)))
        with pytest.raises(DisconnectedVisibility, match=r"\[2\] unreachable from 0"):
            diameter(g)

    @pytest.mark.parametrize("coords", [
        [(x, 0) for x in range(9)],
        [(x, 2 * x) for x in (5, 0, 3, 8, 1)],
        [(x, 0) for x in range(7)] + [(0, 1), (6, 1), (3, -2)],
        [(x, x) for x in range(5)] + [(x, 4 - x) for x in (0, 1, 3, 4)],
        [(x, 0) for x in range(5)] + [(0, y) for y in range(1, 5)],
        [(x, y) for x in range(4) for y in range(3)],
        [(x, y) for x in range(6) for y in range(2)],
    ])
    def test_matches_oracle_on_collinear_sets(self, coords):
        g = visibility_graph(PointSet.build(coords))
        assert diameter(g) == oracles.brute_diameter(g.n, g.edges())

    def test_matches_brute_force_on_random_connected_graphs(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(1, 13)
            p = rng.choice([0.0, 0.1, 0.3, 0.6])
            # a random spanning tree keeps the graph connected
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            edges |= {e for e in combinations(range(n), 2) if rng.random() < p}
            adj = [0] * n
            for a, b in edges:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            g = VisibilityGraph(tuple(adj), pset(*[(x, x * x) for x in range(n)]))
            assert diameter(g) == oracles.brute_diameter(n, sorted(edges))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=5)),
                    min_size=3, max_size=7, unique=True))
    @settings(max_examples=50)
    def test_non_collinear_diameter_at_most_2(self, coords):
        ps = PointSet.build(coords)
        from visblock.geometry import max_collinear
        if max_collinear(ps) == len(ps):
            return
        assert diameter(visibility_graph(ps)) <= 2


class TestCliqueAndChromatic:
    def test_triangle_clique(self):
        r = clique_number(visibility_graph(TRIANGLE))
        assert r.omega == 3 and r.exact

    def test_collinear_clique(self):
        r = clique_number(visibility_graph(COLL3))
        assert r.omega == 2 and r.exact

    def test_grid33_clique(self):
        g = visibility_graph(GRID33)
        r = clique_number(g)
        assert r.exact
        want, _ = oracles.brute_max_clique(g.n, g.edges())
        assert r.omega == want == 4
        for a, b in combinations(r.witness, 2):
            assert (a, b) in g.edges()

    def test_triangle_chromatic(self):
        g = visibility_graph(TRIANGLE)
        r = chromatic_number(g, clique_number(g))
        assert r.chi == 3 and r.exact

    def test_collinear_chromatic(self):
        g = visibility_graph(COLL3)
        r = chromatic_number(g, clique_number(g))
        assert r.chi == 2 and r.exact

    def test_grid33_chromatic(self):
        g = visibility_graph(GRID33)
        r = chromatic_number(g, clique_number(g))
        want, _ = oracles.brute_chromatic(g.n, g.edges())
        assert r.exact and r.chi == want == 4
        # returned colouring is proper and uses chi colours
        assert max(r.colouring.colours) == 4
        for i, j in g.edges():
            assert r.colouring.colours[i] != r.colouring.colours[j]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.integers(min_value=0, max_value=4)),
                    min_size=2, max_size=7, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracles(self, coords):
        ps = PointSet.build(coords)
        g = visibility_graph(ps)
        cq = clique_number(g)
        ch = chromatic_number(g, cq)
        ow, _ = oracles.brute_max_clique(g.n, g.edges())
        cw, _ = oracles.brute_chromatic(g.n, g.edges())
        assert cq.exact and cq.omega == ow
        assert ch.exact and ch.chi == cw
        assert cq.omega <= ch.chi


class TestBigLineBigClique:
    def test_grid_prefers_line(self):
        g = visibility_graph(GRID33)
        v = big_line_big_clique_check(g, 3, 3, clique_number(g))
        assert v.kind == "line"
        assert len(v.line.member_indices) >= 3

    def test_triangle_clique(self):
        g = visibility_graph(TRIANGLE)
        v = big_line_big_clique_check(g, 3, 3, clique_number(g))
        assert v.kind == "clique" and v.clique == (0, 1, 2)

    def test_parabola_neither(self):
        ps = pset(*[(i, i * i) for i in range(5)])
        g = visibility_graph(ps)
        v = big_line_big_clique_check(g, 6, 3, clique_number(g))
        assert v.kind == "neither"

    def test_budget_exhausted_is_unknown(self):
        ps = pset(*[(i, i * i) for i in range(5)])
        g = visibility_graph(ps)
        v = big_line_big_clique_check(g, 6, 3, clique_number(g, deadline=float("-inf")))
        assert v.to_obj() == {
            "kind": "unknown",
            "message": "clique search budget exhausted before a verdict",
        }

    def test_bad_params(self):
        g = visibility_graph(TRIANGLE)
        with pytest.raises(GeometryError):
            big_line_big_clique_check(g, 1, 3, clique_number(g))
        with pytest.raises(GeometryError):
            big_line_big_clique_check(g, 3, 2, clique_number(g))


class TestColouring:
    def test_validation(self):
        with pytest.raises(GeometryError):
            Colouring(2, (1, 3))
        with pytest.raises(GeometryError):
            Colouring(0, ())


class TestProposition1:
    def test_collinear_blocked(self):
        rep = proposition1_check(visibility_graph(COLL3), Colouring(2, (1, 2, 1)))
        assert rep.proper
        assert rep.largest_class == (0, 2)
        assert rep.s == 2 and rep.s_lower == 2
        assert rep.is_blocked is True

    def test_improper_reported(self):
        rep = proposition1_check(visibility_graph(TRIANGLE), Colouring(2, (1, 1, 2)))
        assert not rep.proper
        assert (0, 1) in rep.violations
        assert rep.is_blocked is None
        assert rep.to_obj() == {
            "proper": False,
            "violations": [[0, 1]],
            "max_collinear": 2,
            "largest_class_colour": 1,
            "largest_class": [0, 1],
            "s": 2,
            "s_lower": 2,
            "is_blocked": None,
            "uncovered_pair": None,
        }

    def test_uncovered_pair_json(self):
        # a proper colouring is always blocked (the point next to i on a
        # blocked segment ij sees i, so it has another colour); the failed
        # form is only pinned here
        rep = Prop1Report(True, (), 2, 1, (0, 2), 2, 2, False, (0, 2))
        assert rep.to_obj() == {
            "proper": True,
            "violations": [],
            "max_collinear": 2,
            "largest_class_colour": 1,
            "largest_class": [0, 2],
            "s": 2,
            "s_lower": 2,
            "is_blocked": False,
            "uncovered_pair": [0, 2],
        }

    def test_grid_chi_colouring(self):
        g = visibility_graph(GRID33)
        r = chromatic_number(g, clique_number(g))
        rep = proposition1_check(g, r.colouring)
        assert rep.proper
        assert rep.s >= rep.s_lower
        assert rep.is_blocked is True

    def test_length_mismatch(self):
        with pytest.raises(GeometryError):
            proposition1_check(visibility_graph(TRIANGLE), Colouring(2, (1, 2)))


class TestMonochromaticLine:
    def test_triangle_two_colours_always(self):
        for colours in product((1, 2), repeat=3):
            rec = monochromatic_line_check(TRIANGLE, Colouring(2, colours))
            assert rec is not None

    def test_collinear_alternating_absent(self):
        assert monochromatic_line_check(COLL3, Colouring(2, (1, 2, 1))) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(GeometryError, match="length"):
            monochromatic_line_check(COLL3, Colouring(2, (1, 2)))

    def test_grid_all_two_colourings(self):
        # every 2-colouring of the (non-collinear) grid has a monochromatic line
        for colours in product((1, 2), repeat=9):
            assert monochromatic_line_check(GRID33, Colouring(2, colours)) is not None
