"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: direct definitions, exhaustive
enumeration, no shared code with the implementation under test. Two
exceptions: the circle-graph oracle colours the interleaving complement
with the package's own `max_clique` and `chromatic_number`, because what
it checks is the geometry of the crossing graph (on convex points,
crossing is interleaving on the cycle), not the colouring search, and
equal graphs then give equal classes; and the recursive cover search
bounds its nodes with the package's matchings, because what it checks is
the order of the nodes and of the deadline reads, not the bounds.
"""

import cmath
import math
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import gcd

from visblock.cliques import (
    _matching_bound,
    _maximise,
    chromatic_number,
    max_clique,
    max_matching,
)
from visblock.crossing import CrossingFamilyPartition


def orient(p, q, r):
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def strictly_between(x, a, b):
    if x == a or x == b or orient(a, b, x) != 0:
        return False
    if a[0] != b[0]:
        return min(a[0], b[0]) < x[0] < max(a[0], b[0])
    return min(a[1], b[1]) < x[1] < max(a[1], b[1])


def _xy(p):
    return (p.x, p.y)


def orientation(p, q, r):
    """orient on Points with Fraction coordinates."""
    return orient(_xy(p), _xy(q), _xy(r))


def on_open_segment(x, a, b):
    """strictly_between on Points with Fraction coordinates."""
    return strictly_between(_xy(x), _xy(a), _xy(b))


def proper_crossing(a, b, c, d):
    """Open segments ab and cd (Points) meet in one interior point of both."""
    if len({a, b, c, d}) < 4:
        return False
    return (
        orientation(a, b, c) * orientation(a, b, d) < 0
        and orientation(c, d, a) * orientation(c, d, b) < 0
    )


def segment_intersection(a1, b1, a2, b2):
    """How segments a1b1 and a2b2 meet, in Fractions on (x, y) tuples:
    ("empty", None) when they miss or only touch endpoint to endpoint,
    ("overlap", None) when collinear with a common open subsegment, else
    ("point", p) with p the meeting point."""
    d1 = (b1[0] - a1[0], b1[1] - a1[1])
    d2 = (b2[0] - a2[0], b2[1] - a2[1])
    w = (a2[0] - a1[0], a2[1] - a1[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        if w[0] * d1[1] - w[1] * d1[0] != 0:
            return "empty", None
        dd = Fraction(d1[0] * d1[0] + d1[1] * d1[1])
        ta = (w[0] * d1[0] + w[1] * d1[1]) / dd
        tb = ((b2[0] - a1[0]) * d1[0] + (b2[1] - a1[1]) * d1[1]) / dd
        if min(1, max(ta, tb)) > max(0, min(ta, tb)):
            return "overlap", None
        return "empty", None
    t = Fraction(w[0] * d2[1] - w[1] * d2[0]) / den
    s = Fraction(w[0] * d1[1] - w[1] * d1[0]) / den
    if not (0 <= t <= 1 and 0 <= s <= 1) or not (0 < t < 1 or 0 < s < 1):
        return "empty", None
    return "point", (a1[0] + t * d1[0], a1[1] + t * d1[1])


def brute_visibility_edges(coords):
    """All visible pairs, index pairs i<j, by direct blocking check."""
    n = len(coords)
    edges = set()
    for i, j in combinations(range(n), 2):
        if not any(
            strictly_between(coords[k], coords[i], coords[j])
            for k in range(n)
            if k not in (i, j)
        ):
            edges.add((i, j))
    return edges


def brute_hull_size(coords):
    """Points on the hull boundary: p is on it iff some line through p and
    another point has every point on one closed side."""
    return sum(
        any(len({orient(p, q, r) for r in coords} - {0}) <= 1 for q in coords if q != p)
        for p in coords
    )


def brute_diameter(n, edges):
    """Floyd-Warshall; returns None when disconnected."""
    big = n + 1
    d = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for i, j in edges:
        d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    worst = max(max(row) for row in d)
    return None if worst >= big else worst


def brute_max_clique(n, edges):
    eset = {frozenset(e) for e in edges}
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(frozenset((a, b)) in eset for a, b in combinations(sub, 2)):
                return size, sub
    return 0, ()


def brute_chromatic(n, edges):
    """Smallest k admitting a proper colouring, by trying every assignment."""
    for k in range(1, n + 1):
        for assign in product(range(1, k + 1), repeat=n):
            if all(assign[i] != assign[j] for i, j in edges):
                return k, assign
    raise AssertionError("unreachable")


def mask_set(mask):
    """The indices of the set bits of mask, as a frozenset."""
    return frozenset(s for s in range(mask.bit_length()) if mask >> s & 1)


def brute_min_hitting_set(num_segments, candidate_covers):
    """Minimum subset of candidates covering all segments, by enumeration.

    candidate_covers: list of frozensets of segment indices. Returns the
    size, or None when even the full candidate set does not cover.
    """
    full = set().union(*candidate_covers) if candidate_covers else set()
    if full != set(range(num_segments)):
        return None
    idx = range(len(candidate_covers))
    for size in range(0, len(candidate_covers) + 1):
        for sub in combinations(idx, size):
            covered = set()
            for c in sub:
                covered |= candidate_covers[c]
            if len(covered) == num_segments:
                return size
    return None


def brute_min_clique_cover(n, edges):
    """Minimum partition of vertices into cliques = colouring of complement."""
    eset = {frozenset(e) for e in edges}
    comp = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if frozenset((i, j)) not in eset
    ]
    adj = [set() for _ in range(n)]
    for i, j in comp:
        adj[i].add(j)
        adj[j].add(i)

    def colourable(k):
        colours = [0] * n

        def bt(v, used):
            if v == n:
                return True
            for c in range(1, min(used + 1, k) + 1):
                if all(colours[u] != c for u in adj[v]):
                    colours[v] = c
                    if bt(v + 1, max(used, c)):
                        return True
                    colours[v] = 0
            return False

        return bt(0, 0)

    for k in range(1, n + 1):
        if colourable(k):
            return k
    return n


def grid_points(w, h):
    return [(x, y) for y in range(h) for x in range(w)]


def general_position_subsets(points, size):
    """All subsets of the given size with no 3 collinear, as coordinate tuples."""
    out = []
    for sub in combinations(points, size):
        if all(orient(a, b, c) != 0 for a, b, c in combinations(sub, 3)):
            out.append(sub)
    return out


def brute_max_matching(n, edges):
    """Largest set of pairwise disjoint edges, by trying every subset from
    the largest size down."""
    edges = [tuple(e) for e in edges]
    for size in range(n // 2, 0, -1):
        for sub in combinations(edges, size):
            ends = [v for e in sub for v in e]
            if len(set(ends)) == len(ends):
                return size
    return 0


def tutte_berge_bound(n, edges, removed):
    """(n + |S| - odd(G - S)) / 2 for S = removed: the Tutte-Berge upper
    bound on the matching number, components found by plain search."""
    removed = set(removed)
    nbrs = {v: set() for v in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen = set(removed)
    odd = 0
    for v in range(n):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for u in nbrs[stack.pop()] - removed - comp:
                comp.add(u)
                stack.append(u)
        seen |= comp
        odd += len(comp) % 2
    return (n + len(removed) - odd) // 2


def recursive_max_clique(n, adj):
    """The branch and bound of cliques.max_clique as plain recursion, without
    a deadline: the reference for the nodes it visits and their order. Each
    node sorts its candidates into greedy colour classes (lowest index
    first) and tries them from the last one back, stopping once the clique
    plus the candidate's colour is no larger than the best. Returns (size,
    sorted witness, nodes visited)."""
    best = []
    clique = []
    nodes = 0

    def expand(p_mask):
        nonlocal best, nodes
        nodes += 1
        order = []
        rest, colour = p_mask, 0
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, colour))
                rest &= ~(1 << v)
                avail &= ~(1 << v) & ~adj[v]
        for v, colour in reversed(order):
            if len(clique) + colour <= len(best):
                return
            clique.append(v)
            sub = p_mask & adj[v]
            if sub:
                expand(sub)
            elif len(clique) > len(best):
                best = sorted(clique)
            clique.pop()
            p_mask &= ~(1 << v)

    if n:
        expand((1 << n) - 1)
    return len(best), best, nodes


def recursive_min_cover(cover_masks, m, deadline=None, clock=time.monotonic):
    """The branch and bound of cliques.min_cover as plain recursion: the
    reference for the nodes it visits and the points where it reads the
    clock. A node is pruned by the independent-elements bound, then by the
    matching bound, then cut by the deadline; else it branches on the masks
    covering its first uncovered element (fewest masks, then lowest index),
    and the search ends at a cover of the root bound. With no mask covering
    three elements the search seeks only covers of m - nu masks, and a cut
    search returns the cover read off the root matching. Returns (chosen,
    optimal, lower) as min_cover does."""
    cands_of = [[c for c, cm in enumerate(cover_masks) if cm >> s & 1] for s in range(m)]
    order = sorted(range(m), key=lambda s: (len(cands_of[s]), s))
    share = [0] * m
    for cm in cover_masks:
        for s in _bits(cm):
            share[s] |= cm & ~(1 << s)
    big = [cm for cm in cover_masks if cm.bit_count() >= 3]

    def independent(uncov):
        near = lb = 0
        for s in order:
            if uncov >> s & 1 and not near >> s & 1:
                lb += 1
                near |= share[s]
        return lb

    def matching_bound(uncov, warm):
        adj = [share[s] & uncov if uncov >> s & 1 else 0 for s in range(m)]
        mate = [t if t >= 0 and adj[s] >> t & 1 else -1 for s, t in enumerate(warm)]
        _maximise(adj, mate)
        return _matching_bound(uncov, (m - mate.count(-1)) // 2, big), mate

    full = (1 << m) - 1
    root_mate, _ = max_matching(share)
    nu = (m - root_mate.count(-1)) // 2
    root_lb = max(independent(full), _matching_bound(full, nu, big))
    best, uncov = [], full
    while uncov:  # greedy: most new coverage, lowest index on ties
        c = max(range(len(cover_masks)), key=lambda c: ((cover_masks[c] & uncov).bit_count(), -c))
        best.append(c)
        uncov &= ~cover_masks[c]
    # the size a leaf must beat: the greedy cover's, or m - nu + 1 by Gallai
    limit = len(best) if big else min(len(best), m - nu + 1)
    frontier = []
    chosen = []

    def rec(uncov, warm):
        nonlocal best, limit
        if uncov == 0:
            if len(chosen) < limit:
                best, limit = list(chosen), len(chosen)
            return
        lb = independent(uncov)
        if len(chosen) + lb >= limit:
            return
        bound, mate = matching_bound(uncov, warm)
        lb = max(lb, bound)
        if len(chosen) + lb >= limit:
            return
        if deadline is not None and clock() > deadline:
            frontier.append(len(chosen) + lb)
            return
        s = next(s for s in order if uncov >> s & 1)
        for c in cands_of[s]:
            chosen.append(c)
            rec(uncov & ~cover_masks[c], mate)
            chosen.pop()
            if limit == root_lb:
                return

    if limit > root_lb:
        rec(full, root_mate)
    if not frontier:
        return best, True, len(best)
    if not big:
        cover = []
        for s, t in enumerate(root_mate):
            if t < 0:
                cover.append(cands_of[s][0])
            elif s < t:
                cover.append(min(set(cands_of[s]) & set(cands_of[t])))
        return cover, True, m - nu
    return best, False, max(min(min(frontier), len(best)), root_lb)


def convex_cyclic_order(points):
    """Indices of Points in convex position, counter-clockwise from the
    leftmost (lowest on ties): every other point lies in the half-plane
    right of it, where orientation about it is a total order."""
    xy = [_xy(p) for p in points]
    start = min(range(len(xy)), key=xy.__getitem__)
    rest = [i for i in range(len(xy)) if i != start]
    rest.sort(key=cmp_to_key(lambda a, b: -orient(xy[start], xy[a], xy[b])))
    return [start] + rest


def interleaves(a, b, n):
    """Chords a and b of a cycle of n positions cross: four distinct ends,
    exactly one end of b strictly inside the arc from a[0] to a[1]."""
    if len({*a, *b}) < 4:
        return False
    gap = (a[1] - a[0]) % n
    return sum(0 < (x - a[0]) % n < gap for x in b) == 1


def circle_graph_cover(n, chords):
    """Minimum clique cover of the interleaving relation of chords on a
    cycle of n positions, classes ordered by colour as in
    crossing_family_partition."""
    m = len(chords)
    comp = [
        sum(1 << t for t in range(m) if t != s and not interleaves(chords[s], chords[t], n))
        for s in range(m)
    ]
    colouring, exact, _, _ = chromatic_number(comp, max_clique(comp)[0])
    classes = [[s for s in range(m) if colouring[s] == c] for c in sorted(set(colouring))]
    return CrossingFamilyPartition(tuple(map(tuple, classes)), exact)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dsatur_k_colourable(n, adj, k):
    """DSATUR backtracking search for a colouring with at most k colours over
    bitmask adjacency: the vertex with the most distinct neighbour colours
    goes next (ties: higher degree, then lower index), and a fresh colour
    opens only one past the largest in use. Returns (colours or None, False),
    the False standing for "no budget ran out"."""
    if n == 0:
        return [], False
    colours = [0] * n
    ncmask = [0] * n
    deg = [bin(a).count("1") for a in adj]

    def rec(assigned, used):
        if assigned == n:
            return True
        v = min(
            (u for u in range(n) if colours[u] == 0),
            key=lambda u: (-bin(ncmask[u]).count("1"), -deg[u], u),
        )
        for c in range(1, min(used + 1, k) + 1):
            if (ncmask[v] >> (c - 1)) & 1:
                continue
            colours[v] = c
            touched = []
            for u in _bits(adj[v]):
                if colours[u] == 0 and not (ncmask[u] >> (c - 1)) & 1:
                    ncmask[u] |= 1 << (c - 1)
                    touched.append(u)
            if rec(assigned + 1, max(used, c)):
                return True
            for u in touched:
                ncmask[u] &= ~(1 << (c - 1))
            colours[v] = 0
        return False

    ok = rec(0, 0)
    return (list(colours) if ok else None), False


def fraction_arc_contains(a, x, y):
    """Whether the point (x, y) (Fractions) lies on a semicircle centred on
    the x-axis, decided in Fractions. The arc needs c and r, its doubled
    centre and radius, and half (+1 upper, -1 lower)."""
    c, s = Fraction(a.c), Fraction(a.r) ** 2
    if not y:  # axis point, on both halves
        return (2 * x - c) ** 2 == s
    if (2 * x - c) ** 2 + 4 * y ** 2 != s:
        return False
    return y >= 0 if a.half > 0 else y <= 0


def fraction_arc_common_points(a1, a2):
    """Common points of two semicircles centred on the x-axis, as tags
    (x, sign(y), y^2), intersected in Fractions from the centres and radii.
    Each arc needs c, r (its doubled centre and radius) and half (+1 upper,
    -1 lower)."""
    c1, r1 = Fraction(a1.c, 2), Fraction(a1.r, 2)
    c2, r2 = Fraction(a2.c, 2), Fraction(a2.r, 2)
    if c1 == c2:
        if r1 == r2:
            raise ValueError("two arcs share a full circle")
        return set()
    x0 = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2 * (c2 - c1))
    d = r1 * r1 - (x0 - c1) ** 2
    if d < 0:
        return set()
    if d == 0:
        return {(x0, 0, Fraction(0))}
    if a1.half == a2.half:
        return {(x0, a1.half, d)}
    return set()


def arc_common_points(a1, a2):
    """Common points of two semicircles centred on the x-axis, as exact tags
    (x, sign(y), y^2), decided in integers from the doubled centres and
    radii: with s = r^2, den = 2(c2 - c1) and num = s1 - s2 + c2^2 - c1^2,
    the radical line is x = num / (2 den) and y^2 = disc / (4 den^2) there.
    Fractions are built only for a common point."""
    c1, s1 = a1.c, a1.r * a1.r
    c2, s2 = a2.c, a2.r * a2.r
    if c1 == c2:
        if s1 == s2:
            raise ValueError("two edge arcs share a full circle")
        return set()
    den = 2 * (c2 - c1)
    num = s1 - s2 + c2 * c2 - c1 * c1
    disc = s1 * den * den - (num - c1 * den) ** 2
    if disc < 0:
        return set()
    if disc == 0:
        return {(Fraction(num, 2 * den), 0, Fraction(0))}  # touch on the axis
    if a1.half == a2.half:
        return {(Fraction(num, 2 * den), a1.half, Fraction(disc, 4 * den * den))}
    return set()


def edge_common_points(e1, e2):
    """Common points of two edges, each an upper and a lower arc."""
    out = set()
    for a1 in (e1.upper, e1.lower):
        for a2 in (e2.upper, e2.lower):
            out |= arc_common_points(a1, a2)
    return out


def simplicity_census(edges):
    """The to_obj() of a simplicity report, counted pair by pair from
    edge_common_points; raises ValueError where two arcs share a circle."""
    worst = 0
    bad = []
    for e1, e2 in combinations(edges, 2):
        count = len(edge_common_points(e1, e2))
        worst = max(worst, count)
        if count > 1:
            bad.append({"edges": [[e1.i, e1.j], [e2.i, e2.j]], "count": count})
    return {"ok": not bad, "max_pairwise_intersections": worst, "violating_pairs": bad}


def fraction_primitive(dx, dy):
    """A nonzero rational vector scaled to a primitive integer vector,
    sign-fixed so the first nonzero entry is positive."""
    den = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    xi = int(dx * den)
    yi = int(dy * den)
    g = gcd(abs(xi), abs(yi))
    xi //= g
    yi //= g
    if xi < 0 or (xi == 0 and yi < 0):
        xi, yi = -xi, -yi
    return xi, yi


def fraction_line_key(p, q):
    """Canonical (A, B, C) with A*x + B*y = C through p and q, (A, B)
    primitive integer, C a Fraction."""
    a, b = fraction_primitive(q.y - p.y, p.x - q.x)
    return (a, b, a * p.x + b * p.y)


def fraction_lines_of(pts):
    """(member_indices, direction) of every maximal line, by grouping all
    pairs on their Fraction line key; ordered by member indices."""
    pts = list(pts)
    groups = {}
    for i, j in combinations(range(len(pts)), 2):
        groups.setdefault(fraction_line_key(pts[i], pts[j]), set()).update((i, j))
    records = []
    for members in groups.values():
        idx = tuple(sorted(members))
        p, q = pts[idx[0]], pts[idx[1]]
        records.append((idx, fraction_primitive(q.x - p.x, q.y - p.y)))
    return sorted(records)


def fraction_sorted_along_line(pts, member_indices, direction):
    pts = list(pts)
    dx, dy = direction
    return sorted(member_indices, key=lambda i: pts[i].x * dx + pts[i].y * dy)


def fraction_midpoint_set(pts):
    """Midpoints of distinct pairs as (x, y) Fraction tuples."""
    return frozenset(
        ((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in combinations(list(pts), 2)
    )


def fraction_sum_set(pts):
    """p + q over all ordered pairs, p = q included, as (x, y) tuples."""
    pts = list(pts)
    return frozenset((p.x + q.x, p.y + q.y) for p in pts for q in pts)


def fraction_progression_points(v0, gens, extents):
    """v0 plus every k_1 g_1 + ... + k_d g_d with k_t in 1..n_t, summed in
    Fractions on (x, y) pairs of rational literals: (the distinct points in
    sorted order, the number of sums that coincided with another)."""
    coords = [(Fraction(v0[0]), Fraction(v0[1]))]
    for (gx, gy), n in zip(gens, extents):
        gx, gy = Fraction(gx), Fraction(gy)
        coords = [(x + k * gx, y + k * gy) for x, y in coords for k in range(1, n + 1)]
    pts = sorted(set(coords))
    return pts, len(coords) - len(pts)


def fraction_midpoint_blocking_set(pts):
    """The sorted distinct pair midpoints and, per pair (i, j) in
    combinations order, (pair number, index of its midpoint)."""
    pts = list(pts)
    labels = list(combinations(range(len(pts)), 2))

    def mid(i, j):
        return ((pts[i].x + pts[j].x) / 2, (pts[i].y + pts[j].y) / 2)

    mids = sorted({mid(i, j) for i, j in labels})
    index = {m: k for k, m in enumerate(mids)}
    return mids, tuple((s, index[mid(i, j)]) for s, (i, j) in enumerate(labels))


def private_params():
    """Interior parameters in schedule order: 1/2, then the proper reduced
    fractions by growing denominator."""
    yield Fraction(1, 2)
    den = 3
    while True:
        for num in range(1, den):
            if gcd(num, den) == 1:
                yield Fraction(num, den)
        den += 1


def scan_blocking_instance(segments, gap_segments):
    """Candidate blockers by a cover scan: every meeting point of two
    segments that is not an endpoint, then per gap segment the first
    schedule point on it that is no endpoint, meeting point or earlier
    placement; each candidate covers the segments whose open interior
    holds it, found by testing every segment. Points are (x, y) tuples.
    Returns the endpoints in first-seen order and the sorted
    (point, covers) pairs."""
    vertices = []
    for seg in segments:
        for p in seg:
            if p not in vertices:
                vertices.append(p)
    meets = set()
    for (a, b), (c, d) in combinations(segments, 2):
        kind, p = segment_intersection(a, b, c, d)
        if kind == "point":
            meets.add(p)
    taken = set(vertices) | meets
    placed = set()
    for s in gap_segments:
        a, b = segments[s]
        for t in private_params():
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            if p not in taken:
                taken.add(p)
                placed.add(p)
                break
    cands = []
    for p in sorted((meets - set(vertices)) | placed):
        covers = frozenset(
            s for s, (a, b) in enumerate(segments) if strictly_between(p, a, b)
        )
        if covers:
            cands.append((p, covers))
    return vertices, cands


def event_fraction(ev, n):
    """conj of the meeting point of chords (i, k) and (j, l) of the regular
    n-gon as num/den, coefficient lists of polynomials mod x^n - 1 at a
    primitive nth root of unity: num = x^i + x^k - x^j - x^l and
    den = x^(i+k) - x^(j+l)."""
    i, j, k, l = ev
    num = [0] * n
    num[i] += 1
    num[k] += 1
    num[j] -= 1
    num[l] -= 1
    den = [0] * n
    den[(i + k) % n] += 1
    den[(j + l) % n] -= 1
    return num, den


def mul_mod_xn(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def remainder_monic(num, den):
    """Remainder of integer polynomial num by monic den, both low degree
    first, by schoolbook long division."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        for k in range(dn + 1):
            num[i - dn + k] -= c * den[k]
    return num[:dn]


def events_equal_by_division(e1, e2, n, phi):
    """Two census events meet at one point iff num1 den2 - num2 den1, taken
    mod x^n - 1, leaves remainder 0 on division by phi = Phi_n."""
    n1, d1 = event_fraction(e1, n)
    n2, d2 = event_fraction(e2, n)
    diff = [x - y for x, y in zip(mul_mod_xn(n1, d2, n), mul_mod_xn(n2, d1, n))]
    return not any(remainder_monic(diff, phi))


# The census's float clustering written plainly: one root table per chord,
# every event keyed on its own and sorted as a (key, event) tuple, every
# cluster a list, one-event clusters included. _GAP_EXP is the census's.
_GAP_EXP = 30


def chord_clusters(n: int, k: int) -> list[list[tuple[int, int, int, int]]]:
    zeta = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    keyed = []
    for j in range(1, k):
        for l in range(k + 1, n):
            if 2 * k == n and 2 * (l - j) == n:
                continue  # two diameters, meeting at the center
            num = zeta[0] + zeta[k] - zeta[j] - zeta[l]
            den = zeta[0] * zeta[k] - zeta[j] * zeta[l]
            keyed.append(((num / den).real, (0, j, k, l)))
    keyed.sort()
    gap = 2.0 ** -_GAP_EXP
    clusters: list[list[tuple[int, int, int, int]]] = []
    prev = -math.inf
    for x, ev in keyed:
        if x - prev > gap:
            clusters.append([])
        clusters[-1].append(ev)
        prev = x
    return clusters


def full_chord_histogram(n, chord_clusters, events_equal):
    """a_k of the regular n-gon census by the full-chord loop: every chord
    (0, k), k = 2..n-2, examined once, no reflection. Each cluster of
    chord_clusters(n, k) is split into groups by events_equal(e1, e2); a
    point where m chords meet is one group of m - 1 events on each of the 2m
    chords through vertex 0 of its rotation orbit, and the centre of an even
    n is the one point where the n/2 diameters meet."""
    groups = {}
    for k in range(2, n - 1):
        for cluster in chord_clusters(n, k):
            sizes, reps = [], []
            for ev in cluster:
                for g, rep in enumerate(reps):
                    if events_equal(ev, rep):
                        sizes[g] += 1
                        break
                else:
                    reps.append(ev)
                    sizes.append(1)
            for size in sizes:
                groups[size + 1] = groups.get(size + 1, 0) + 1
    hist = {}
    for m, count in groups.items():
        assert count % (2 * m) == 0, (n, m, count)
        hist[m] = count // (2 * m) * n
    if n % 2 == 0:
        hist[n // 2] = hist.get(n // 2, 0) + 1
    return hist


def a006561(n):
    """Interior intersection points of the diagonals of the regular n-gon,
    the closed formula of Poonen & Rubinstein (OEIS A006561)."""
    def d(m):
        return 1 if n % m == 0 else 0
    i = (Fraction(n * (n - 1) * (n - 2) * (n - 3), 24)
         + Fraction(-5 * n**3 + 45 * n**2 - 70 * n + 24, 24) * d(2) - Fraction(3 * n, 2) * d(4)
         + Fraction(-45 * n**2 + 262 * n, 6) * d(6) + 42 * n * d(12) + 60 * n * d(18)
         + 35 * n * d(24) - 38 * n * d(30) - 82 * n * d(42) - 330 * n * d(60)
         - 144 * n * d(84) - 96 * n * d(90) - 144 * n * d(120) - 96 * n * d(210))
    assert i.denominator == 1, (n, i)
    return int(i)
