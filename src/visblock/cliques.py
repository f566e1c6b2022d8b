"""Exact maximum clique, graph colouring, maximum matching and minimum
cover over bitmasks.

Shared search engine: visibility statistics and crossing-family covers
reduce to cliques and colourings, blocking sets to min_cover, whose nodes
are bounded by matchings. The clique search, the colouring search,
DSATUR (Brelaz, 1979), and the cover search run on explicit stacks, so
their depth is not bounded by the recursion limit; the greedy colouring is
the first leaf of the colouring search at k = n. That search backs up when
the k colours lack room for the free vertices, a colour holding at most
one vertex of each clique of a greedy clique partition of the free
vertices it may take. Graphs are given as lists of neighbour bitmasks, one
per vertex, so a graph's size is the length of its list; vertex v must not
appear in its own mask. All tie-breaking is by lowest index, so results
are deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence


def _deadline(budget_ms: Optional[int]) -> Optional[float]:
    return None if budget_ms is None else time.monotonic() + budget_ms / 1000.0


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_MEMO_CAP = 1 << 15  # masks in a capacity memo: 2.3 MiB full of 45-bit masks


def _clique_weight(mask: int, adj: Sequence[int], weights: Sequence[int]) -> int:
    """The largest weight in each clique of the greedy clique partition of
    mask, lowest index first, summed; an independent set weighs at most
    that inside mask. Under unit weights it counts the cliques."""
    total = 0
    while mask:
        top = 0
        cand = mask
        while cand:
            v = (cand & -cand).bit_length() - 1
            mask ^= 1 << v
            cand &= adj[v]
            if weights[v] > top:
                top = weights[v]
        total += top
    return total


def _capacities(adj: Sequence[int], weights: Sequence[int]) -> Callable[[int], int]:
    """_clique_weight under these weights, memoised by mask: the colouring
    search meets few distinct masks many times over. The memo is cleared
    when full, so its memory does not grow with the run time."""
    memo: dict[int, int] = {}

    def capacity(mask: int) -> int:
        cap = memo.get(mask)
        if cap is None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            cap = memo[mask] = _clique_weight(mask, adj, weights)
        return cap

    return capacity


def _greedy_colour_sort(p_mask: int, adj: Sequence[int]) -> tuple[list[int], list[int]]:
    # order candidates into greedy colour classes; colours come out ascending
    order: list[int] = []
    colours: list[int] = []
    uncoloured = p_mask
    colour = 0
    while uncoloured:
        colour += 1
        avail = uncoloured
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append(v)
            colours.append(colour)
            uncoloured &= ~(1 << v)
            avail &= ~(1 << v)
            avail &= ~adj[v]
    return order, colours


def max_clique(
    adj: Sequence[int], deadline: Optional[float] = None
) -> tuple[int, list[int], bool]:
    """Maximum clique size with witness; exact unless the deadline cuts in.

    Branch and bound with a greedy colouring upper bound, on an explicit
    stack: each node sorts its candidates into greedy colour classes and
    tries them from the last one back until the clique plus the colour can
    no longer beat the best. Reads the deadline once per node. Returns
    (size, sorted witness, exact).
    """
    if not adj:
        return 0, [], True
    best: list[int] = []
    best_size = 0
    clique: list[int] = []
    # one frame per open node below the current one: (its order, its
    # colours, the place of the vertex it is trying, its untried candidates)
    frames: list[tuple[list[int], list[int], int, int]] = []
    sub = (1 << len(adj)) - 1
    while True:
        if sub:  # open a node on the candidates sub
            if deadline is not None and time.monotonic() > deadline:
                return best_size, best, False
            order, colours = _greedy_colour_sort(sub, adj)
            i, m = len(order), sub
        i -= 1
        if i < 0 or len(clique) + colours[i] <= best_size:
            if not frames:
                return best_size, best, True
            order, colours, i, m = frames.pop()  # back up to the parent
            sub = 0
        else:
            clique.append(order[i])
            sub = m & adj[order[i]]
            if sub:
                frames.append((order, colours, i, m))
                continue
            if len(clique) > best_size:
                best_size = len(clique)
                best = sorted(clique)
        m &= ~(1 << clique.pop())


def greedy_colouring(adj: Sequence[int]) -> list[int]:
    """DSATUR greedy proper colouring; colours are 1-based. It is the first
    leaf of the colouring search at k = n, where no colour runs out."""
    return k_colourable(adj, len(adj))[0]


def k_colourable(
    adj: Sequence[int], k: int, deadline: Optional[float] = None,
    fractional: Optional[tuple[Sequence[int], int]] = None,
) -> tuple[Optional[list[int]], bool]:
    """Search for a proper colouring with at most k colours.

    Returns (colour list or None, budget_hit). DSATUR vertex choice; a fresh
    colour may only be opened one step past the largest in use, which kills
    colour-permutation symmetry. A node without room for its free vertices
    has no leaf below it, so backing up there keeps the first leaf found.
    fractional is an optional fractional clique (weights, den): integer
    weights under which every independent set weighs at most den. Then a
    colour also has room only for den less its class's weight.
    """
    n = len(adj)
    if n == 0:
        return [], False
    colours = [0] * n
    ncmask = [0] * n  # bit c-1 set iff some coloured neighbour has colour c
    sat = [0] * k  # sat[c-1]: the vertices whose ncmask holds colour c
    # DSATUR rank n * saturation + degree, saturation being the number of
    # colours in ncmask. A degree is below n, so max() over the ascending
    # free list takes the highest saturation, then the highest degree, then
    # the lowest index.
    rank = [a.bit_count() for a in adj]
    free = list(range(n))
    fmask = (1 << n) - 1  # the vertices in free
    # one frame per coloured vertex: (v, its place in free, colour bits not
    # yet tried, colours in use before it, the free neighbours it saturated)
    stack: list[tuple[int, int, int, int, int]] = []
    used = 0
    weights, den = fractional or ([0] * n, 1)
    total = sum(weights)
    # the weight bound pays off only when the k colours have less than one
    # colour's worth of weight to spare; elsewhere it almost never fires
    weighted = fractional is not None and k * den - total < den
    cw = [0] * k  # cw[c-1]: the weight of the vertices coloured c
    capacity = _capacities(adj, [1] * n)
    wcapacity = _capacities(adj, weights)

    while True:  # one pass per search node
        if deadline is not None and time.monotonic() > deadline:
            return None, True
        need = len(free)
        if not need:
            return colours, False
        # capacity bound: colour c can take at most one vertex of each clique
        # of the free vertices it may still go to, so the k colours must
        # have room for all of them; it cannot fire while k - used >= need
        room = need
        if k - used < need:
            room = (k - used) * capacity(fmask)
            for c in range(used):
                if room >= need:
                    break
                room += capacity(fmask & ~sat[c])
            if weighted and room >= need:
                # the same by weight: colour c takes at most den - cw[c-1]
                # more, and at most _clique_weight of the vertices it may
                # go to; the free vertices weigh total - sum(cw)
                wneed = total - sum(cw)
                wroom = (k - used) * min(den, wcapacity(fmask))
                for c in range(used):
                    if wroom >= wneed:
                        break
                    wroom += min(den - cw[c], wcapacity(fmask & ~sat[c]))
                if wroom < wneed:
                    room = 0
        v = max(free, key=rank.__getitem__)
        i = free.index(v)
        del free[i]
        fmask ^= 1 << v
        avail = ~ncmask[v] & ((1 << min(used + 1, k)) - 1) if room >= need else 0
        while not avail:  # no colour left or no room: back up to the last choice
            free.insert(i, v)
            fmask |= 1 << v
            if not stack:
                return None, False
            v, i, avail, used, tmask = stack.pop()
            bit = 1 << (colours[v] - 1)
            sat[colours[v] - 1] ^= tmask
            cw[colours[v] - 1] -= weights[v]
            while tmask:  # _bits inlined, here and below: the search's hot spot
                low = tmask & -tmask
                tmask ^= low
                u = low.bit_length() - 1
                ncmask[u] ^= bit
                rank[u] -= n
            colours[v] = 0
        bit = avail & -avail
        c = bit.bit_length()
        colours[v] = c
        cw[c - 1] += weights[v]
        tmask = adj[v] & fmask & ~sat[c - 1]
        sat[c - 1] |= tmask
        stack.append((v, i, avail ^ bit, used, tmask))
        while tmask:
            low = tmask & -tmask
            tmask ^= low
            u = low.bit_length() - 1
            ncmask[u] |= bit
            rank[u] += n
        if c > used:
            used = c


def chromatic_number(
    adj: Sequence[int], lower: int, deadline: Optional[float] = None,
    fractional: Optional[tuple[Sequence[int], int]] = None,
) -> tuple[list[int], bool, int, int]:
    """Exact chromatic number when the budget allows.

    lower is the size of a clique the caller holds, found by an exact
    search or not. fractional, a fractional clique (weights, den) as in
    k_colourable, raises lower to ceil(sum(weights) / den) and bounds the
    search; ValueError when that exceeds the greedy colouring, which only
    a set of weights that is no fractional clique can do. Returns
    (colouring, exact, lower, upper). When exact, lower == upper and the
    colouring uses that many colours; otherwise the colouring is the greedy
    upper-bound witness. The search fails at each k below the chromatic
    number and meets the same first leaf at it, so without a deadline the
    result does not depend on lower.
    """
    if not adj:
        return [], True, 0, 0
    greedy = greedy_colouring(adj)
    upper = max(greedy)
    if fractional is not None:
        weights, den = fractional
        bound = -(-sum(weights) // den)
        if bound > upper:
            raise ValueError(
                f"weights summing to {sum(weights)}/{den} need {bound} colours, more than "
                f"the {upper} of a greedy colouring: not a fractional clique"
            )
        lower = max(lower, bound)
    while lower < upper:
        result, budget_hit = k_colourable(adj, lower, deadline, fractional)
        if budget_hit:
            return greedy, False, lower, upper
        if result is not None:
            return result, True, lower, lower
        lower += 1
    return greedy, True, upper, upper


def _alternating_forest(
    adj: Sequence[int], mate: Sequence[int], roots: Sequence[int]
) -> tuple[int, list[int], list[bool]]:
    """Edmonds' search: grow alternating trees from the exposed roots,
    shrinking odd cycles (blossoms) onto their base.

    Returns (end, parent, even). end is an exposed vertex outside the forest
    next to an even vertex, so that end, parent[end], mate[parent[end]], ...
    is an augmenting path back to a root; it is -1 when there is none, and
    then even marks every vertex that an even alternating path reaches from
    a root.
    """
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    even = [False] * n
    for r in roots:
        even[r] = True
    queue = list(roots)

    def common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            if mate[b] < 0:
                raise AssertionError("two alternating trees touch: the matching is not maximum")
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # the queue grows while it is read
        nbrs = adj[v]
        while nbrs:  # _bits inlined: this loop is the matcher's hot spot
            low = nbrs & -nbrs
            nbrs ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or mate[v] == to:
                continue
            if even[to]:
                b = common_base(v, to)
                blossom = [False] * n
                mark_path(v, b, to, blossom)
                mark_path(to, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not even[i]:
                            even[i] = True
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    return to, parent, even
                even[mate[to]] = True
                queue.append(mate[to])
    return -1, parent, even


def _maximise(adj: Sequence[int], mate: list[int]) -> None:
    """Grow the matching mate, in place, to a maximum one: first each free
    vertex takes its lowest free neighbour, then one augmenting search runs
    from every vertex still exposed (a vertex with no augmenting path keeps
    none after later augmentations, so one pass suffices)."""
    free = 0
    for v, nbrs in enumerate(adj):
        if mate[v] < 0 and nbrs:
            free |= 1 << v
    for v in _bits(free):
        nbrs = adj[v] & free
        if (free >> v) & 1 and nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            mate[v], mate[u] = u, v
            free &= ~(1 << v | 1 << u)
    for root in _bits(free):
        if mate[root] >= 0:
            continue
        v, parent, _ = _alternating_forest(adj, mate, [root])
        while v >= 0:
            u = parent[v]
            nxt = mate[u]
            mate[v], mate[u] = u, v
            v = nxt


def max_matching(adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """Maximum-cardinality matching by Edmonds' blossom algorithm ("Paths,
    trees, and flowers", 1965).

    Returns (mate, barrier): mate[v] is the partner of v or -1, and barrier
    is the sorted Edmonds–Gallai set A, the vertices outside D next to D,
    where D holds the vertices some maximum matching leaves exposed. A is a
    Tutte–Berge barrier: the matching has (n + |A| - odd(G - A)) / 2 edges,
    odd(G - A) being the number of odd components of G - A.
    """
    n = len(adj)
    mate = [-1] * n
    _maximise(adj, mate)
    _, _, even = _alternating_forest(adj, mate, [v for v in range(n) if mate[v] < 0])
    d_mask = sum(1 << v for v in range(n) if even[v])
    barrier = [v for v in range(n) if not even[v] and adj[v] & d_mask]
    return mate, barrier


def _certified_matching_size(
    adj: Sequence[int], mate: Sequence[int], barrier: Sequence[int]
) -> int:
    """Size of the matching mate of the graph adj, proved maximum by the
    Tutte-Berge barrier S: every matching has at most
    (|V| + |S| - odd(H - S)) / 2 edges, so reaching that proves it.
    Recomputed here without the matcher; raises AssertionError on failure."""
    n = len(adj)
    for v, u in enumerate(mate):
        if u >= 0 and not (mate[u] == v and (adj[v] >> u) & 1):
            raise AssertionError(f"mate[{v}] = {u} is not a matching edge")
    size = (n - mate.count(-1)) // 2
    removed = sum(1 << v for v in barrier)
    seen = removed
    odd = 0
    for v in range(n):
        if (seen >> v) & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            grown = 0
            for u in _bits(frontier):
                grown |= adj[u]
            frontier = grown & ~comp & ~removed
            comp |= frontier
        seen |= comp
        odd += comp.bit_count() & 1
    if 2 * size != n + len(barrier) - odd:
        raise AssertionError(
            f"matching of size {size} is not certified by a barrier of {len(barrier)}"
        )
    return size


def _matching_bound(uncov: int, nu: int, big: Sequence[int]) -> int:
    """Masks needed to cover the uncovered elements U, given the matching
    number nu of H_U and the big masks.

    A cover of U gives each chosen mask c some k' <= k_c = |c & U| of its
    elements; pairing them up is a matching of H_U with sum floor(k'/2)
    edges, so m_U - nu <= sum of ceil(k'/2) over the chosen masks. With no
    big mask this is Gallai's b = m - nu."""
    excess = uncov.bit_count() - nu
    ks = [k for k in ((cm & uncov).bit_count() for cm in big) if k >= 3]
    if not ks:
        return excess
    spare = sum((k + 1) // 2 - 1 for k in ks)
    return max(excess - spare, -(-excess // ((max(ks) + 1) // 2)))


def min_cover(
    cover_masks: Sequence[int], m: int, deadline: Optional[float] = None
) -> tuple[list[int], bool, int]:
    """Fewest masks whose union is 0..m-1; returns (chosen mask indices,
    optimal, lower). At the deadline, chosen is the best cover found and
    lower the best proven bound, except when no mask covers three elements:
    then chosen is the cover read off the root matching, which is optimal.
    Raises ValueError when some element lies in no mask."""
    all_mask = (1 << m) - 1
    # cands_of[s]: the masks covering s, ascending; H joins elements s ~ t
    # when one mask covers both; big masks cover 3+
    cands_of: list[list[int]] = [[] for _ in range(m)]
    share = [0] * m
    for c, cm in enumerate(cover_masks):
        bits = cm
        while bits:
            low = bits & -bits
            bits ^= low
            s = low.bit_length() - 1
            cands_of[s].append(c)
            share[s] |= cm ^ low
    missing = [s for s in range(m) if not cands_of[s]]
    if missing:
        raise ValueError(f"elements {missing} lie in no mask")
    lb_order = sorted(range(m), key=lambda s: (len(cands_of[s]), s))
    big = [cm for cm in cover_masks if cm.bit_count() >= 3]

    def lower_bound(uncov: int) -> int:
        # elements pairwise non-adjacent in H need distinct masks
        near = 0
        lb = 0
        for s in lb_order:
            if (uncov >> s) & 1 and not (near >> s) & 1:
                lb += 1
                near |= share[s]
        return lb

    def matching_in(uncov: int, warm: list[int]) -> list[int]:
        # maximum matching of H_U, warm-started from the edges of an
        # ancestor's matching that stay inside U
        adj = [share[s] & uncov if (uncov >> s) & 1 else 0 for s in range(m)]
        mate = [t if t >= 0 and (adj[s] >> t) & 1 else -1 for s, t in enumerate(warm)]
        _maximise(adj, mate)
        return mate

    root_mate, barrier = max_matching(share)
    nu = _certified_matching_size(share, root_mate, barrier)
    root_lb = max(lower_bound(all_mask), _matching_bound(all_mask, nu, big))

    # greedy incumbent: most new coverage, lowest index on ties
    uncov = all_mask
    greedy: list[int] = []
    while uncov:
        gain = [(cm & uncov).bit_count() for cm in cover_masks]
        best_c = gain.index(max(gain))
        greedy.append(best_c)
        uncov &= ~cover_masks[best_c]
    best = greedy
    best_size = len(greedy)
    if not big and best_size > m - nu:
        # Gallai: with no big mask the optimum is m - nu, so only leaves of
        # that size are sought; a valid bound keeps the first such leaf
        best_size = m - nu + 1
    frontier_min: Optional[int] = None
    # one frame per open node: (its uncovered set, its matching, the masks
    # covering its first uncovered element, the place of the next to try);
    # the masks chosen so far are those just before the places
    frames: list[tuple[int, list[int], list[int], int]] = []

    def visit(uncov: int, mate: list[int]) -> None:
        nonlocal best, best_size, frontier_min
        depth = len(frames)
        if uncov == 0:
            if depth < best_size:
                best_size = depth
                best = [cands[i - 1] for _, _, cands, i in frames]
            return
        lb = lower_bound(uncov)
        if depth + lb >= best_size:
            return
        mate = matching_in(uncov, mate)
        lb = max(lb, _matching_bound(uncov, (m - mate.count(-1)) // 2, big))
        if depth + lb >= best_size:
            return
        if deadline is not None and time.monotonic() > deadline:
            frontier_min = depth + lb if frontier_min is None else min(frontier_min, depth + lb)
            return
        s = next(s for s in lb_order if (uncov >> s) & 1)
        frames.append((uncov, mate, cands_of[s], 0))  # the node stays open

    if best_size > root_lb:
        visit(all_mask, root_mate)
    while frames and best_size > root_lb:  # a cover of root_lb masks ends the search
        uncov, mate, cands, i = frames.pop()
        if i < len(cands):  # else every child is done: back up to the parent
            frames.append((uncov, mate, cands, i + 1))
            visit(uncov & ~cover_masks[cands[i]], mate)
    if frontier_min is None:
        return best, True, best_size
    if not big:
        # the lowest mask covering each matched pair, and the lowest mask
        # covering each exposed element: m - nu masks, distinct, as a mask
        # covers at most two elements and no two exposed elements share one
        cover = [
            cands_of[s][0] if t < 0 else next(c for c in cands_of[s] if (cover_masks[c] >> t) & 1)
            for s, t in enumerate(root_mate)
            if t < 0 or s < t
        ]
        return cover, True, m - nu
    return best, False, max(min(frontier_min, best_size), root_lb)
