import random
import sys
import types
from functools import cache
from itertools import combinations

import pytest

from visblock import cliques, crossing
from visblock.blocking import candidate_blockers
from visblock.cliques import (
    chromatic_number,
    greedy_colouring,
    k_colourable,
    max_clique,
    max_matching,
    min_cover,
)
from visblock.crossing import crossing_graph
from visblock.generators import (
    convex_parabola_set,
    grid_set,
    random_general_position_set,
    regular_ngon_set,
)

import oracles


def adjacency(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def random_graphs(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        yield n, [e for e in combinations(range(n), 2) if rng.random() < p]


def checked_size(n, edges):
    """Matching size after checking that mate is a matching of the graph
    and that the barrier meets the Tutte-Berge bound."""
    mate, barrier = max_matching(n, adjacency(n, edges))
    eset = {frozenset(e) for e in edges}
    for v, u in enumerate(mate):
        assert u < 0 or (mate[u] == v and frozenset((u, v)) in eset)
    size = sum(u >= 0 for u in mate) // 2
    assert barrier == sorted(set(barrier))
    assert size == oracles.tutte_berge_bound(n, edges, barrier)
    return size


class TestMaxMatching:
    def test_empty(self):
        assert max_matching(0, []) == ([], [])
        assert max_matching(3, [0, 0, 0]) == ([-1, -1, -1], [])

    def test_odd_cycle_needs_a_blossom(self):
        # C5 with a pendant 5 at vertex 0: the augmenting path from 5 runs
        # through the shrunk cycle
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]
        assert checked_size(6, edges) == 3

    def test_star_barrier_is_the_centre(self):
        mate, barrier = max_matching(4, adjacency(4, [(0, 1), (0, 2), (0, 3)]))
        assert mate == [1, 0, -1, -1] and barrier == [0]

    def test_lowest_index_tie_breaks(self):
        assert max_matching(3, adjacency(3, [(0, 1), (1, 2), (0, 2)]))[0] == [1, 0, -1]

    def test_matches_brute_force(self):
        for n, edges in random_graphs(0, 300, 9):
            assert checked_size(n, edges) == oracles.brute_max_matching(n, edges)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for n, edges in random_graphs(1, 300, 40):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges)
            want = len(nx.max_weight_matching(g, maxcardinality=True))
            assert checked_size(n, edges) == want


@cache
def ngon10_complement():
    """The complement of the 10-gon crossing graph: its colourings are the
    partitions into crossing families."""
    adj = crossing_graph(regular_ngon_set(10)).adj
    m = len(adj)
    return m, tuple(((1 << m) - 1) ^ a ^ (1 << s) for s, a in enumerate(adj))


@cache
def ngon10_fractional():
    """The j-edge weights of the 10-gon, a fractional clique of its
    complement: sum 21 5/6, so 22 colours at least."""
    weights, den = crossing._j_edge_weights(crossing_graph(regular_ngon_set(10)))
    return tuple(weights), den


def clique_weighted_graphs(seed, count):
    """(n, adj, weights, den): random graphs whose weights are a random
    integer combination of greedy maximal cliques and den the sum of its
    coefficients. An independent set meets each clique at most once, so
    it weighs at most den: the weights are a fractional clique."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(6, 17)
        p = rng.uniform(0.3, 0.9)
        adj = adjacency(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        weights, den = [0] * n, 0
        for _ in range(rng.randrange(1, 2 * n)):
            coef = rng.randrange(1, 4)
            den += coef
            cand = (1 << n) - 1
            for v in rng.sample(range(n), n):
                if cand >> v & 1:
                    weights[v] += coef
                    cand &= adj[v]
        yield n, adj, weights, den


def counting_clock(monkeypatch):
    """Replace the clock of cliques by one that returns how often it was
    read, and return that count as a one-element list."""
    reads = [0]

    def monotonic():
        reads[0] += 1
        return reads[0]

    monkeypatch.setattr(cliques, "time", types.SimpleNamespace(monotonic=monotonic))
    return reads


def spy_clique_weight(monkeypatch):
    """Log each walk of cliques._clique_weight as (mask, weights), in call
    order; the list is returned."""
    asked = []
    weigh = cliques._clique_weight

    def clique_weight(mask, adj, weights):
        asked.append((mask, tuple(weights)))
        return weigh(mask, adj, weights)

    monkeypatch.setattr(cliques, "_clique_weight", clique_weight)
    return asked


class TestMaxClique:
    """max_clique must visit the nodes of the recursive reference in its
    order and return what it returns."""

    @staticmethod
    def random_adjacencies(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randrange(0, 41)
            p = rng.random()
            yield n, adjacency(n, [e for e in combinations(range(n), 2) if rng.random() < p])

    def test_matches_the_recursive_reference(self):
        for n, adj in self.random_adjacencies(7, 1000):
            size, witness, _ = oracles.recursive_max_clique(n, adj)
            assert max_clique(n, adj) == (size, witness, True)

    def test_one_deadline_check_per_node(self, monkeypatch):
        for n, adj in self.random_adjacencies(8, 100):
            size, witness, nodes = oracles.recursive_max_clique(n, adj)
            reads = counting_clock(monkeypatch)
            assert max_clique(n, adj, deadline=float("inf")) == (size, witness, True)
            assert reads[0] == nodes

    def test_budget_hit(self, monkeypatch):
        adj = adjacency(6, list(combinations(range(6), 2)))
        assert max_clique(6, adj, deadline=0.0) == (0, [], False)
        # the clock is read once per node, so deadline 3.5 stops at the
        # fourth node, reached by taking 5, 4 and 3, before any leaf
        reads = counting_clock(monkeypatch)
        assert max_clique(6, adj, deadline=3.5) == (0, [], False)
        assert reads[0] == 4

    def test_complete_graph_deeper_than_the_recursion_limit(self):
        n = 1200
        adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
        assert max_clique(n, adj) == (n, list(range(n)), True)


class TestKColourable:
    """k_colourable must visit the vertices in the order of the oracle's
    DSATUR (saturation, degree, lowest index) and return what it returns."""

    def test_matches_the_dsatur_oracle(self):
        for n, edges in random_graphs(2, 300, 15):
            adj = adjacency(n, edges)
            for k in range(1, n + 1):
                assert k_colourable(n, adj, k) == oracles.dsatur_k_colourable(n, adj, k)

    def test_ngon10_clique_cover_complement(self):
        # 22 is the cover number; with or without the j-edge weights the
        # search meets the oracle's first leaf, or fails with it
        m, comp = ngon10_complement()
        for k in range(1, 26):
            want = oracles.dsatur_k_colourable(m, comp, k)
            assert k_colourable(m, comp, k) == want, k
            assert k_colourable(m, comp, k, fractional=ngon10_fractional()) == want, k

    def test_clique_weighted_graphs_match_the_dsatur_oracle(self, monkeypatch):
        # a fractional clique never cuts a subtree that holds a leaf; on
        # some calls the weight bound prunes below the root
        reads = counting_clock(monkeypatch)
        pruned = 0
        for n, adj, weights, den in clique_weighted_graphs(11, 300):
            for k in range(1, n + 1):
                want = oracles.dsatur_k_colourable(n, adj, k)
                reads[0] = 0
                assert k_colourable(n, adj, k, float("inf")) == want
                plain = reads[0]
                reads[0] = 0
                assert k_colourable(n, adj, k, float("inf"), (weights, den)) == want
                pruned += 1 < reads[0] < plain
        assert pruned > 0

    def test_dense_graphs_match_the_dsatur_oracle(self):
        # the capacity bound fires on dense graphs; it must never cut a
        # subtree that holds a leaf
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(8, 19)
            p = rng.uniform(0.2, 0.9)
            adj = adjacency(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            for k in range(1, n + 1):
                assert k_colourable(n, adj, k) == oracles.dsatur_k_colourable(n, adj, k)

    def test_one_deadline_check_per_node(self, monkeypatch):
        # the clock is read once per search node, pruned nodes included:
        # 2,221 nodes at k = 22 and 38 at k = 21 (62,669 and 4,369 without
        # the capacity bound)
        m, comp = ngon10_complement()
        for k, nodes in ((21, 38), (22, 2221)):
            reads = counting_clock(monkeypatch)
            colours, budget_hit = k_colourable(m, comp, k, deadline=float("inf"))
            assert (colours is not None, budget_hit) == (k == 22, False)
            assert reads[0] == nodes

    def test_weighted_node_count(self, monkeypatch):
        # a deterministic work counter: the j-edge weights of the 10-gon
        # prove k = 21 infeasible at the root, and cut k = 22 from 2,221
        # nodes to 287
        m, comp = ngon10_complement()
        for k, nodes in ((21, 1), (22, 287)):
            reads = counting_clock(monkeypatch)
            colours, budget_hit = k_colourable(m, comp, k, float("inf"), ngon10_fractional())
            assert (colours is not None, budget_hit) == (k == 22, False)
            assert reads[0] == nodes

    def test_weight_capacities_memoised(self, monkeypatch):
        # one memo for the unit weights and one for the fractional clique;
        # neither walks a mask twice
        m, comp = ngon10_complement()
        want = k_colourable(m, comp, 22)
        asked = spy_clique_weight(monkeypatch)
        assert k_colourable(m, comp, 22, fractional=ngon10_fractional()) == want
        assert {w for _, w in asked} == {(1,) * m, ngon10_fractional()[0]}
        assert len(asked) == len(set(asked))

    def test_capacity_counts_memoised(self, monkeypatch):
        # a deterministic work counter: the 2,221 nodes at k = 22 ask the
        # capacity bound 49,290 times about 742 distinct masks, all under
        # unit weights
        m, comp = ngon10_complement()
        want = k_colourable(m, comp, 22)  # the oracle's, by the test above
        asked = spy_clique_weight(monkeypatch)
        assert k_colourable(m, comp, 22) == want
        assert {w for _, w in asked} == {(1,) * m}
        assert 0 < len(asked) <= 1_000
        assert len(asked) == len(set(asked))

    @pytest.mark.parametrize("fractional", [None, ngon10_fractional()], ids=["unit", "weighted"])
    def test_capacity_memo_is_capped(self, monkeypatch, fractional):
        # with the cap at 16 each memo is cleared at every 16th miss, so its
        # misses come in runs of 16 distinct masks; runs of 17 would hold a
        # repeat here, so a memo cleared later, or never, fails
        m, comp = ngon10_complement()
        want = k_colourable(m, comp, 22)
        asked = spy_clique_weight(monkeypatch)
        monkeypatch.setattr(cliques, "_MEMO_CAP", 16)
        assert k_colourable(m, comp, 22, fractional=fractional) == want
        memos = {w for _, w in asked}
        assert len(memos) == (1 if fractional is None else 2)

        def runs(misses, size):
            return [misses[i:i + size] for i in range(0, len(misses), size)]

        for weights in memos:
            misses = [mask for mask, w in asked if w == weights]
            assert all(len(set(run)) == len(run) for run in runs(misses, 16))
            assert any(len(set(run)) < len(run) for run in runs(misses, 17))

    def test_empty_graph(self):
        assert k_colourable(0, [], 0) == ([], False)
        assert chromatic_number(0, [], 0) == ([], True, 0, 0)

    def test_budget_hit(self):
        adj = adjacency(6, list(combinations(range(6), 2)))
        assert k_colourable(6, adj, 3, deadline=0.0) == (None, True)

    def test_budget_hit_partway(self, monkeypatch):
        m, comp = ngon10_complement()
        reads = counting_clock(monkeypatch)
        assert k_colourable(m, comp, 22, deadline=1000.5) == (None, True)
        assert reads[0] == 1001  # it stops at the first late read

    def test_greedy_is_the_search_without_backtracking(self):
        # with k = n no colour runs out, so the search takes the first choice
        # at every step: the DSATUR greedy colouring
        for n, edges in random_graphs(3, 200, 15):
            adj = adjacency(n, edges)
            assert greedy_colouring(n, adj) == oracles.dsatur_k_colourable(n, adj, n)[0]


class TestChromaticNumber:
    def test_long_odd_cycle(self):
        # omega = 2 and greedy = 3, so the search at k = 2 runs around the
        # whole cycle before it fails: far deeper than the recursion limit
        n = 1201
        adj = adjacency(n, [(v, (v + 1) % n) for v in range(n)])
        colouring, exact, lower, upper = chromatic_number(n, adj, 2)
        assert (exact, lower, upper) == (True, 3, 3)
        assert max(colouring) == 3
        assert all(colouring[v] != colouring[(v + 1) % n] for v in range(n))

    def test_fractional_clique_raises_the_lower_bound(self, monkeypatch):
        # the 10-gon's weights sum to 21 5/6, so the search starts at 22
        # where the triangulation bound 17 would start it
        m, comp = ngon10_complement()
        tried = []

        def colourable(n, adj, k, deadline=None, fractional=None):
            tried.append(k)
            return search(n, adj, k, deadline, fractional)

        search = cliques.k_colourable
        monkeypatch.setattr(cliques, "k_colourable", colourable)
        plain = chromatic_number(m, comp, 17)
        assert tried[1:] == [17, 18, 19, 20, 21, 22]  # after the greedy colouring
        tried.clear()
        assert chromatic_number(m, comp, 17, None, ngon10_fractional()) == plain
        assert tried[1:] == [22] and plain[1:] == (True, 22, 22)

    def test_overweight_weights_rejected(self):
        # weights 2 / 1 on a triangle need 6 colours, and greedy uses 3:
        # no fractional clique weighs that much, so the bound would be false
        adj = adjacency(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="not a fractional clique"):
            chromatic_number(3, adj, 1, None, ([2, 2, 2], 1))
        assert chromatic_number(3, adj, 1, None, ([1, 1, 1], 1))[1:] == (True, 3, 3)

    def test_weights_do_not_change_the_result(self):
        for n, adj, weights, den in clique_weighted_graphs(23, 200):
            assert chromatic_number(n, adj, 1, None, (weights, den))[:2] == \
                chromatic_number(n, adj, 1)[:2]

    def test_result_does_not_depend_on_the_lower_bound(self):
        # every k below chi fails and the search at chi meets the same first
        # leaf, so the trivial bound 1 gives what the clique number gives
        for n, edges in random_graphs(22, 300, 14):
            adj = adjacency(n, edges)
            omega, _, exact = max_clique(n, adj)
            assert exact
            assert chromatic_number(n, adj, 1) == chromatic_number(n, adj, omega)


def random_set_systems(seed, count, max_m):
    """(m, masks): 8 to 20 masks over 0..m-1, 6 <= m <= max_m, that cover
    every element, most of them with three or more elements."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randrange(6, max_m + 1)
        masks = []
        for _ in range(rng.randrange(8, 21)):
            k = min(m, rng.choice([1, 2, 3, 3, 4, 5]))
            masks.append(sum(1 << s for s in rng.sample(range(m), k)))
        for s in range(m):
            if not any(cm >> s & 1 for cm in masks):
                masks[rng.randrange(len(masks))] |= 1 << s
        yield m, masks


class TestMinCover:
    @staticmethod
    def check(m, masks, deadline=None):
        """The optimal flag of min_cover, after checking that its cover and
        lower bound agree with the minimum size found by enumeration."""
        chosen, optimal, lower = min_cover(masks, m, deadline)
        union = 0
        for c in chosen:
            union |= masks[c]
        assert union == (1 << m) - 1 and len(set(chosen)) == len(chosen)
        want = oracles.brute_min_hitting_set(
            m, [frozenset(s for s in range(m) if cm >> s & 1) for cm in masks])
        assert lower <= want <= len(chosen)
        if optimal:
            assert lower == want == len(chosen)
        return optimal

    def test_matches_brute_force(self):
        systems = list(random_set_systems(4, 300, 12))
        # unlike most geometric instances, most masks here are big
        big = sum(cm.bit_count() >= 3 for _, masks in systems for cm in masks)
        assert big > sum(len(masks) for _, masks in systems) / 2
        for m, masks in systems:
            assert self.check(m, masks)

    def test_element_in_no_mask_rejected(self):
        with pytest.raises(ValueError, match=r"elements \[1\] lie in no mask"):
            min_cover([1], 2)
        with pytest.raises(ValueError, match=r"elements \[0\] lie in no mask"):
            min_cover([], 1)

    def test_deadline_in_the_past_keeps_the_bounds(self):
        optimal = [self.check(m, masks, deadline=0.0) for m, masks in random_set_systems(5, 300, 12)]
        assert optimal.count(False) >= 100  # the search is cut, not skipped

    def test_matches_the_recursive_reference(self, monkeypatch):
        # under a clock that advances once per read, min_cover must read it
        # as often as the recursion, so cut at the same node, grow as many
        # matchings, one per node past the first bound, and return what the
        # recursion returns
        matchings = [0]
        maximise = cliques._maximise

        def counted(*args):
            matchings[0] += 1
            maximise(*args)

        monkeypatch.setattr(cliques, "_maximise", counted)
        monkeypatch.setattr(oracles, "_maximise", counted)
        systems = list(random_set_systems(6, 300, 16))
        sources = [random_general_position_set(n, None, s) for n in (6, 7) for s in range(4)]
        sources += [convex_parabola_set(n) for n in (5, 6, 7)] + [grid_set(3, 3), regular_ngon_set(6)]
        systems += [(inst.m, inst.masks) for inst in map(candidate_blockers, sources)]
        cut = 0
        for m, masks in systems:
            for deadline in (None, 2.5, 7.5, float("inf")):
                ticks = [0]

                def tick():
                    ticks[0] += 1
                    return ticks[0]

                matchings[0] = 0
                want = oracles.recursive_min_cover(masks, m, deadline, tick)
                want_matchings, matchings[0] = matchings[0], 0
                reads = counting_clock(monkeypatch)
                assert min_cover(masks, m, deadline) == want
                assert (reads[0], matchings[0]) == (ticks[0], want_matchings)
                cut += not want[1]
        assert cut >= 80

    @staticmethod
    def traps(copies):
        """(m, masks): copies of six elements a..f with masks {b,c}, {a,b},
        {c,d}, {d,e}, {e,f}; greedy takes four masks a copy, the optimum three."""
        masks = []
        for k in range(copies):
            a, b, c, d, e, f = (1 << 6 * k + s for s in range(6))
            masks += [b | c, a | b, c | d, d | e, e | f]
        return 6 * copies, masks

    def test_cover_deeper_than_the_recursion_limit(self):
        # the search goes 180 masks deep; the limit sits 120 frames above this one
        m, masks = self.traps(60)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 120)
        try:
            chosen, optimal, lower = min_cover(masks, m)
        finally:
            sys.setrecursionlimit(limit)
        assert (len(chosen), optimal, lower) == (180, True, 180)
        assert sorted(chosen) == [c for c in range(len(masks)) if c % 5 in (1, 2, 4)]

    def test_deep_cover_cut_by_the_deadline(self, monkeypatch):
        # cut 50 reads in, the search still returns the greedy cover and a
        # bound no larger than the optimum; a mask {a, b, c} in the first
        # copy makes greedy take three masks there, and keeps the search
        # from the cover of the root matching
        m, masks = self.traps(60)
        masks.append(0b111)
        counting_clock(monkeypatch)
        chosen, optimal, lower = min_cover(masks, m, deadline=50.5)
        union = 0
        for c in chosen:
            union |= masks[c]
        assert union == (1 << m) - 1
        assert not optimal and lower == 180 < len(chosen) == 239

    def test_deep_cover_without_big_masks_cut_by_the_deadline(self, monkeypatch):
        # with no mask covering three elements, the cut search returns the
        # cover read off the root matching, m - nu masks, which is optimal
        m, masks = self.traps(60)
        counting_clock(monkeypatch)
        chosen, optimal, lower = min_cover(masks, m, deadline=50.5)
        union = 0
        for c in chosen:
            union |= masks[c]
        assert union == (1 << m) - 1 and len(set(chosen)) == len(chosen)
        assert optimal and lower == len(chosen) == 180
