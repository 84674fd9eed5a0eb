"""Certified metric evaluation and exact geometric verdicts for drawings.

Spanning and edge-length ratios involve square roots, so they are reported as
certified rational enclosures: every edge length is bracketed between two
dyadic rationals (integers at scale 2**bits), shortest paths are computed once
with all-lower and once with all-upper brackets. Each ratio is a stream of
enclosures, one per precision of _precisions, and _certify takes the first
within the tolerance. A certainly infinite ratio
(coincident vertices, a zero-length edge) is the interval lo = hi = math.inf;
the CLI prints it as `infinite`, and a bound beyond the range of a double
with a null float.

Every metric reads the drawing's integer numerators d.points over its least
common denominator L = d.den. The exact predicates (planarity, properness,
collinearity, coincidence) run on these ints, with no gcd per operation.
Scaling by L > 0 keeps every sign and every ratio: orientations scale by
L**2, and graph and Euclidean distances both scale by L, so the spanning and
edge-length ratios need no correction. The two metrics that carry units are
rescaled on the way out: the minimum squared distance divides by L**2, the
bounding box by L.

The spanning ratio runs a float filter before the exact brackets. One float
pass over all pairs keeps the candidates, the pairs whose float ratio is
within a factor 1 - 2**-20 of the largest. It walks the sources along a
minimum spanning tree in preorder (on a tree, the tree itself), and each
row holds only the pairs to later positions. A tree's rows are rerooted
exactly from the parent's. On any other graph a row starts as the
parent's plus the edge between them, an upper bound, and Dijkstra from the
source stops once every pair whose bounded ratio reaches the running cut is
settled; a pair left bounded is below the cut, as it would be on exact rows.
Each precision brackets only the candidates, and one exact inequality
(_filter_proves) shows that no other pair can reach the certified lower
bound, so the enclosure equals the full scan's; its float error covers a
bounded entry's sum of up to 2n - 2 weights. Where the inequality fails,
that precision scans all pairs, a tree's on integer rows rerooted along the
same walk. The filter declines (all pairs at every precision) for
coordinates past 1900 bits, a float distance below 2**-900, or too many
near-ties. spanning_ratio_bruteforce never filters.

Three certificates sweep the integer points instead of scanning all pairs,
with the same verdicts and values:
- is_planar_drawing: a Shamos–Hoey sweep (Shamos and Hoey, "Geometric
  intersection problems", FOCS 1976) in lexicographic order, O(m log m)
  orientations and at most 3m exact crossing tests;
- min_pairwise_distance_sq: a closest-pair plane sweep (Hinrichs, Nievergelt
  and Schorn, IPL 1988), O(n log n);
- is_proper_drawing: per edge, the vertices in its bounding box, found by
  bisection in the vertices sorted by x and by y.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import add, ge, sub, truediv
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .drawing import Drawing
from .errors import DisconnectedDrawingError, NoEdgesError
from .exact import Interval, isqrt_scaled, sqrt_interval
from .geometry import (
    IntPoint,
    any_three_collinear,
    coincident,
    dist_sq,
    in_segment_interior,
    orientation,
    segments_cross_improperly,
)
from .graph import Graph, bfs_parents, is_connected, preorder

DEFAULT_REL_TOL = Fraction(1, 10**9)
_START_BITS = 64
_MAX_BITS = 16384


def has_coincident_vertices(d: Drawing) -> bool:
    return coincident(d.points)


@dataclass(frozen=True)
class MetricReport:
    spanning_ratio: Optional[Interval]
    edge_length_ratio: Optional[Interval]
    width: Fraction
    height: Fraction
    planar: bool
    proper: bool
    no_three_collinear: bool
    min_pairwise_distance_sq: Optional[Fraction]


def _precisions(start_bits: int, shift: int = 0) -> Iterator[int]:
    """The working precisions of a certified value: start_bits, 2*start_bits,
    ... up to _MAX_BITS, each plus shift. The one loop that raises precision."""
    bits = start_bits
    while bits <= _MAX_BITS:
        yield bits + shift
        bits *= 2


def _certify(enclosures: Iterable[Interval], rel_tols: Iterable[Fraction]) -> Iterator[Interval]:
    """For each tolerance of rel_tols in turn, the first enclosure from the
    last one yielded on whose relative width is within it; an infinite one
    meets every tolerance. RuntimeError when the enclosures run out first."""
    tols = iter(rel_tols)
    tol = next(tols)
    for ivl in enclosures:
        while ivl.is_infinite or ivl.rel_width() <= tol:
            yield ivl
            tol = next(tols, None)
            if tol is None:
                return
    raise RuntimeError("precision escalation exhausted")


def _scan(coords: Sequence[IntPoint], den: int, bits: int, rows) -> Interval:
    """The pair loop of every enclosure: the ratio enclosure over the pairs
    (u, v), for each (u, targets, dist_lo, dist_hi) that rows yields and v in
    targets, where dist_lo and dist_hi hold u's exact graph distances to the
    targets, in their order, under the lower and the upper edge brackets.
    Every pair distance must bracket away from 0 at bits."""
    best_lo = (0, 1)  # ratio bounds as num/den over scaled ints
    best_hi = (0, 1)
    for u, targets, dist_lo, dist_hi in rows:
        cu = coords[u]
        for v, g_lo, g_hi in zip(targets, dist_lo, dist_hi):
            e_lo, e_hi = isqrt_scaled(dist_sq(cu, coords[v]), den, bits)
            if g_lo * best_lo[1] > best_lo[0] * e_hi:
                best_lo = (g_lo, e_hi)
            if g_hi * best_hi[1] > best_hi[0] * e_lo:
                best_hi = (g_hi, e_lo)
    lo = max(Fraction(*best_lo), Fraction(1))
    return Interval(lo, max(Fraction(*best_hi), lo))


def _ratio_enclosures(
    d: Drawing, start_bits: int, rows: Callable, float_filter: Optional[Callable] = None
) -> Iterator[Interval]:
    """Certified spanning-ratio enclosures, one per working precision, from
    rows(lo_w, hi_w, groups): for each (u, targets) of groups, in any order,
    (u, targets, dist_lo, dist_hi) as _scan reads them, with the graph
    distances under the lower and the upper integer edge-length brackets.
    groups None asks for every pair once, grouped as rows chooses (_every
    for a row per vertex). Coincident vertices give the one infinite
    interval.

    Each pair's ratio lies in [dist_lo/e_hi, dist_hi/e_lo], where e_lo, e_hi
    bracket its Euclidean distance at the same scale, so the scales cancel.
    A distance is bracketed from its integer square Q over L**2, which gives
    the same brackets as the reduced rational Q/L**2 would.

    At b bits or more, with b the least integer with closest * 4**b >= L**2
    (closest the least squared pair distance), every pair brackets away from
    0. The precisions are start_bits, 2*start_bits, ..., or, when b exceeds
    start_bits, 2*start_bits + b, 4*start_bits + b, ...

    float_filter(g, coords), when given, is the float pass (_float_filter).
    Each precision then scans its candidate pairs first, and every pair only
    when _filter_proves fails; the enclosure is the same either way.
    """
    g = d.graph
    if g.n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    coords, L = d.points, d.den
    if coincident(coords):
        yield Interval(math.inf, math.inf)
        return
    den = L * L
    inverse = -(-den // _closest_sq(coords))  # ceil(L**2 / closest)
    b = ((inverse - 1).bit_length() + 1) // 2
    precisions = _precisions(start_bits) if b <= start_bits else _precisions(2 * start_bits, b)
    flt = float_filter(g, coords) if float_filter else None
    for bits in precisions:
        lo_w, hi_w = {}, {}
        for e in g.edges():
            lo_w[e], hi_w[e] = isqrt_scaled(dist_sq(coords[e[0]], coords[e[1]]), den, bits)
        if flt is not None:
            ivl = _scan(coords, den, bits, rows(lo_w, hi_w, flt.pairs.items()))
            if _filter_proves(flt, ivl.lo, L, bits):
                yield ivl
                continue
        yield _scan(coords, den, bits, rows(lo_w, hi_w, None))


def _every(n: int) -> Iterator[tuple[int, range]]:
    """Every pair of range(n) once, as (u, the vertices after u)."""
    return ((u, range(u + 1, n)) for u in range(n))


# The float filter in front of the exact pair scan: the float-filter-then-exact
# scheme of Shewchuk, "Adaptive precision floating-point arithmetic and fast
# robust geometric predicates" (DCG 1997), applied to the dilation scan of
# Narasimhan and Smid, "Geometric Spanner Networks" (2007).
_U = Fraction(1, 2**53)  # unit roundoff of a double
_FILTER_ETA = 2.0**-20  # candidates: float ratio at least 1 - eta times the largest
_FILTER_BITS = 1000  # coordinates are scaled down to at most this many bits
_FILTER_LIMIT = 900  # declines beyond a scaling by 2**-900 or a distance below 2**-900


@dataclass(frozen=True)
class _Filter:
    """What the float pass knows about the pairs it skips.

    pairs maps a source vertex to its candidate partners. Every other pair has
    a float ratio below cut. Distances are in float units, the integer
    coordinates over 2**s; efmin is at most every float pair distance, and
    rel_err, abs_err bound the float errors as _filter_proves uses them."""

    pairs: dict[int, list[int]]
    cut: Fraction
    efmin: Fraction
    rel_err: Fraction
    abs_err: Fraction
    n: int
    s: int


def _filter_proves(flt: _Filter, t: Fraction, L: int, bits: int) -> bool:
    """True when no pair the filter skipped can move an enclosure with lower
    bound t at scale 2**bits, which then equals the full scan's.

    In float units let g, e be a skipped pair's true graph and Euclidean
    distances, gf, ef the float ones, and beta = L / 2**(bits + s) one
    bracket unit (the real coordinates are the integers over L).
    - Brackets: an edge's upper bracket exceeds its length by less than one
      unit, and a shortest path has at most n - 1 edges, so
      dist_hi <= g + (n - 1) beta, while e_lo > e - beta.
    - Floats, with delta = rel_err: a weight or pair distance is within a
      factor 1 + 4u of the truth (one rounding per coordinate difference,
      under 1 ulp in hypot). A Dijkstra or bounded row entry is a float sum
      of the weights along a walk between the pair, whose true length is at
      least g: of at most n - 1 terms on a Dijkstra row, of at most
      (n - 1) + depth <= 2n - 2 on a bounded one (see _candidates). A float
      sum of k terms loses at most (k - 1)u more, and delta = (n + 8)u, or
      (2n + 8)u on bounded rows, covers both. A rerooted tree row is within
      abs_err A of the exact sum of the float weights on the path (see
      _float_filter). So e >= ef/(1 + delta) and g <= (gf + A)(1 + delta);
      a skipped pair's rounded ratio is below cut, so gf < cut (1 + delta) ef.
    - Together: dist_hi/e_lo <= ((cut (1 + delta) ef + A)(1 + delta)
      + (n - 1) beta) / (ef/(1 + delta) - beta). This decreases in ef, so its
      value at efmin bounds every skipped pair.
    If that bound is below t, each skipped pair has
    dist_lo/e_hi <= dist_hi/e_lo < t <= lo <= hi, so neither maximum of the
    scan moves. If efmin/(1 + delta) <= beta, the bound is infinite and the
    full scan runs. The test runs in exact rationals.
    """
    one = 1 + flt.rel_err
    beta = Fraction(L, 1 << (bits + flt.s))
    den = flt.efmin / one - beta
    num = (flt.cut * one * flt.efmin + flt.abs_err) * one + (flt.n - 1) * beta
    return den > 0 and num < t * den


def _float_filter(g: Graph, coords: Sequence[IntPoint]) -> Optional[_Filter]:
    """One float pass over all pairs of a connected graph on distinct points:
    the pairs whose float ratio is within a factor 1 - _FILTER_ETA of the
    largest, judged against the running largest. None when the filter
    declines: the coordinates need a scaling beyond 2**-_FILTER_LIMIT, a
    float distance is at most 2**-_FILTER_LIMIT, a float ratio overflows, or
    the candidates are not few.

    The sources are walked in the preorder of _spanning_tree along a minimum
    spanning tree of the float weights (_prim), whose short edges keep the
    bounded rows tight; a tree is its own. The bounds need only that it is a
    spanning tree. Each row holds only the positions after its source's (see
    _walk). On a tree the rows are rerooted exactly; each entry then takes at
    most depth(source) + depth(target) <= 2h roundings, h the height in
    edges, each at most u times a path length <= 2 rmax, rmax the largest
    root distance, so 4 (h + 1) u rmax bounds its absolute error against the
    exact sum of the float weights on its path, and also covers the error in
    rmax (for h < 2**25). Where that takes more than a quarter of the margin
    at the closest pairs, or on any other graph, the rows are bounded and
    refined by Dijkstra near the cut (see _candidates), with no absolute
    error.

    Float distances are math.hypot of the exact integer differences, each
    divided by 2**s, so coordinates of up to _FILTER_BITS + _FILTER_LIMIT
    bits keep their small gaps. When every coordinate is below 2**53 (so
    s = 0), pair distances are math.dist of the float points, the same
    floats: the points are exact, and the one float subtraction rounds each
    difference as converting the integer difference does.
    """
    n = g.n
    bits = max(abs(c).bit_length() for p in coords for c in p)
    s = max(0, bits - _FILTER_BITS)
    if s > _FILTER_LIMIT:
        return None
    edges = g.edges()
    xs, ys = zip(*coords)
    weight = dict(zip(edges, _dists([xs[u] for u, _ in edges], [ys[u] for u, _ in edges],
                                    [xs[v] for _, v in edges], [ys[v] for _, v in edges], s)))
    order, up, size = _spanning_tree(g, _prim(_weighted_adj(n, weight)))
    xs = [xs[v] for v in order]
    ys = [ys[v] for v in order]
    if bits <= 53:
        pts = list(zip(map(float, xs), map(float, ys)))

        def dists(i: int) -> list[float]:
            return list(map(math.dist, repeat(pts[i]), pts[i + 1:]))
    else:
        def dists(i: int) -> list[float]:
            return _dists(repeat(xs[i]), repeat(ys[i]), xs[i + 1:], ys[i + 1:], s)

    w_up, root = _tree_weights(order, up, weight)
    if g.m == n - 1:
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[up[i]] + 1
        abs_err = 4 * (max(depth) + 1) * _U * Fraction(max(root))
        rows = _walk(up, size, w_up, root[1:], sub)
        flt = _candidates(order, dists, rows, None, s, (n + 8) * _U, abs_err)
        # A tree whose lengths span many scales can make the rerooting error
        # swamp its closest pairs. Unless it takes at most a quarter of the
        # margin, take bounded rows, whose error is relative only.
        if flt is None or 4 * flt.abs_err < Fraction(_FILTER_ETA) * flt.cut * flt.efmin:
            return flt
    pos = dict(zip(order, range(n)))
    adj = _weighted_adj(n, {(pos[u], pos[v]): w for (u, v), w in weight.items()})
    rows = _walk(up, size, w_up, [math.inf] * (n - 1), add)
    return _candidates(order, dists, rows, adj, s, (2 * n + 8) * _U, Fraction(0))


def _dists(x0, y0, xs: list[int], ys: list[int], s: int) -> list[float]:
    """Float distances from (x0[j], y0[j]) to (xs[j], ys[j]); x0, y0 are lists
    or repeat() of one point. Each exact integer difference is divided by
    2**s and rounded once before math.hypot."""
    dx = map(sub, x0, xs)
    dy = map(sub, y0, ys)
    if s:
        dx = map(truediv, dx, repeat(1 << s))
        dy = map(truediv, dy, repeat(1 << s))
    return list(map(math.hypot, dx, dy))


def _candidates(
    order: list[int],
    dists: Callable[[int], list[float]],
    rows: Iterator[tuple[int, list[float]]],
    adj: Optional[list[list[tuple]]],
    s: int,
    rel_err: Fraction,
    abs_err: Fraction,
) -> Optional[_Filter]:
    """The filter pass of _float_filter over the rows of _walk, which yields
    (i, row) with row[k] the float distance between positions i and
    i + 1 + k of order; dists(i) gives the float pair distances in the same
    places. Each row is judged against the running cut, the largest ratio
    so far times 1 - _FILTER_ETA, for the pairs it holds: every pair once.

    With adj, the float weights by position, the rows are upper bounds: the
    root's is all math.inf, and a child's is its parent's plus the weight of
    the edge between them. Before a row is judged, _dijkstra from i settles
    every later position whose bounded ratio reaches the running cut, and
    the row takes the minimum with what it found, in place, so the
    children start from it. An entry is thus a float sum along a walk, a
    path from some ancestor plus the tree edges down to i: at most
    (n - 1) + depth(i) <= 2n - 2 terms. The cut only rises, so a pair left
    bounded has a ratio below the cut it is judged against, as a pair on
    exact rows would, and the enclosure is unchanged (see _filter_proves).

    The candidate list is pruned to the current cut whenever it doubles past
    cap, and the filter declines when more than cap candidates remain."""
    n = len(order)
    cap = 4 * n + 256
    rmax, efmin, cut = 0.0, math.inf, 0.0
    cands: list[tuple[float, int, int]] = []  # (float ratio, i, j), positions in order
    for i, row in rows:
        if i == n - 1:
            continue
        efs = dists(i)
        efmin = min(efmin, min(efs))
        ratios = list(map(truediv, row, efs))
        if adj is not None:
            near = list(compress(range(i + 1, n), map(ge, ratios, repeat(cut))))
            if near:
                row[:] = map(min, row, _dijkstra(adj, i, near)[i + 1:])
                ratios = list(map(truediv, row, efs))
        top = max(ratios)
        rmax = max(rmax, top)
        cut = rmax * (1 - _FILTER_ETA)
        if top >= cut:
            cands += [(r, i, j) for j, r in enumerate(ratios, i + 1) if r >= cut]
            if len(cands) > 2 * cap:
                cands = [c for c in cands if c[0] >= cut]
                if len(cands) > cap:
                    return None
    if not (efmin > 2.0**-_FILTER_LIMIT and math.isfinite(rmax)):
        return None
    pairs: dict[int, list[int]] = {}
    for r, i, j in cands:
        if r >= cut:
            pairs.setdefault(order[i], []).append(order[j])
    return _Filter(pairs, Fraction(cut), Fraction(efmin), rel_err, abs_err, n, s)


def _spanning_tree(g: Graph, parent: list) -> tuple[list[int], list[int], list[int]]:
    """(order, up, size): the spanning tree of a connected graph given by
    parent (None at the root, vertex 0) in preorder. order[i] is the vertex
    at position i, up[i] the position of its parent (up[0] = 0), and its
    subtree is positions i .. i + size[i] - 1. Children come in reverse
    adjacency order, so on a tree, whose one spanning tree is itself, the
    order is that of a depth-first walk over the adjacency lists with a
    stack."""
    n = g.n
    order = preorder([[v for v in reversed(g.adj[u]) if parent[v] == u] for u in range(n)], 0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    up = [0] + [pos[parent[v]] for v in order[1:]]
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    return order, up, size


def _prim(adj: list[list[tuple]]) -> list:
    """The parents of a minimum spanning tree of a connected graph, from
    (neighbor, weight) adjacency lists (Prim, from vertex 0; None at the
    root). Heap ties break by (weight, vertex)."""
    parent: list = [None] * len(adj)
    done = [False] * len(adj)
    heap = [(0, 0, None)]
    while heap:
        _, v, p = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        parent[v] = p
        for u, w in adj[v]:
            if not done[u]:
                heapq.heappush(heap, (w, u, v))
    return parent


def _tree_weights(order: list[int], up: list[int], weight: dict) -> tuple[list, list]:
    """(w_up, root) by position of _spanning_tree's order: the weight of the
    edge to the parent (w_up[0] = 0) and the distance from the root along
    the tree."""
    w_up, root = [0] * len(order), [0] * len(order)
    for i in range(1, len(order)):
        u, p = order[i], order[up[i]]
        w_up[i] = weight[(u, p) if u < p else (p, u)]
        root[i] = root[up[i]] + w_up[i]
    return w_up, root


def _walk(up: list[int], size: list[int], w_up: list, root_row: list,
          inside: Callable) -> Iterator[tuple[int, list]]:
    """(i, row) for every position i of _spanning_tree's preorder, row[k]
    standing for position i + 1 + k: root_row at the root, and at a child
    the later entries of its parent's row plus w, its edge weight, except
    that inside(x, w) maps the entries of its own subtree. With sub that
    reroots a tree's distances exactly (the subtree comes w closer), with
    add it bounds a graph's from above.

    A parent comes before its children, and the heaviest child last, so a
    parent's row stays alive only while a lighter child's subtree is walked
    and O(log n) rows are alive at once. A row may be changed in place
    before the next is drawn: its children start from what is left."""
    kids: list[list[int]] = [[] for _ in up]
    for i in range(1, len(up)):
        kids[up[i]].append(i)
    pending = [(0, root_row)]  # (position, its parent's row; the root's own)
    while pending:
        i, row = pending.pop()
        if i:
            p, w = up[i], w_up[i]
            b = i + size[i] - p - 1  # where the subtree ends in the parent's row
            row = list(map(inside, row[i - p:b], repeat(w))) + list(map(add, row[b:], repeat(w)))
        yield i, row
        pending += [(c, row) for c in sorted(kids[i], key=size.__getitem__, reverse=True)]


def _weighted_adj(n: int, weight: dict) -> list[list[tuple]]:
    """Adjacency lists of (neighbor, weight) pairs from the weights of the edges."""
    adj: list[list[tuple]] = [[] for _ in range(n)]
    for (u, v), w in weight.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _dijkstra(adj: list[list[tuple]], source: int, stop: Optional[Iterable[int]] = None) -> list:
    """Shortest-path distances from source over (neighbor, weight) adjacency
    lists with nonnegative int or float weights; math.inf where unreached.
    With stop, it returns as soon as every vertex of stop is settled: their
    distances are final, and every other entry is at least its own."""
    dist = [math.inf] * len(adj)
    dist[source] = 0
    left = None if stop is None else set(stop)
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        if left is not None:
            left.discard(u)
            if not left:
                break
        for v, w in adj[u]:
            if du + w < dist[v]:
                dist[v] = du + w
                heapq.heappush(heap, (dist[v], v))
    return dist


def _all_pairs(n: int, weights: dict[tuple[int, int], int]) -> list[list[int]]:
    """All-pairs shortest paths of a connected graph (Floyd–Warshall)."""
    big = sum(weights.values()) + 1  # longer than any shortest path
    dist = [[big] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (u, v), w in weights.items():
        dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return dist


def _spanning_ratios(d: Drawing) -> Iterator[Interval]:
    """spanning_ratio's enclosures, one per precision: exact rows behind the
    float filter. Every pair of a tree takes its rows from _walk, rerooted
    exactly on the integer brackets; other rows come from Dijkstra."""
    g, n = d.graph, d.graph.n

    def rows(lo_w, hi_w, groups):
        if groups is None and g.m == n - 1:
            order, up, size = _spanning_tree(g, bfs_parents(g))
            walks = [_walk(up, size, w_up, root[1:], sub)
                     for w_up, root in (_tree_weights(order, up, lo_w), _tree_weights(order, up, hi_w))]
            for (i, row_lo), (_, row_hi) in zip(*walks):
                yield order[i], order[i + 1:], row_lo, row_hi
            return
        adj_lo, adj_hi = _weighted_adj(n, lo_w), _weighted_adj(n, hi_w)
        for u, targets in _every(n) if groups is None else groups:
            dist_lo, dist_hi = _dijkstra(adj_lo, u), _dijkstra(adj_hi, u)
            yield u, targets, [dist_lo[v] for v in targets], [dist_hi[v] for v in targets]

    return _ratio_enclosures(d, _START_BITS, rows, _float_filter)


def spanning_ratio(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Certified enclosure of max over pairs of (graph distance / Euclidean distance).

    Coincident vertices make the ratio infinite: the result is then the
    infinite interval (lo = hi = math.inf, `is_infinite` true).
    """
    return next(_certify(_spanning_ratios(d), [rel_tol]))


def spanning_ratio_bruteforce(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Independent oracle: Floyd–Warshall all-pairs at doubled starting precision."""
    n = d.graph.n

    def rows(lo_w, hi_w, groups):
        dist_lo, dist_hi = _all_pairs(n, lo_w), _all_pairs(n, hi_w)
        for u, targets in _every(n) if groups is None else groups:
            yield u, targets, [dist_lo[u][v] for v in targets], [dist_hi[u][v] for v in targets]

    return next(_certify(_ratio_enclosures(d, 2 * _START_BITS, rows), [rel_tol]))


def edge_length_ratio(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Certified enclosure of (longest edge)/(shortest edge); the infinite
    interval when an edge has length 0."""
    edges = d.graph.edges()
    if not edges:
        raise NoEdgesError("edge-length ratio undefined: no edges")
    coords = d.points
    sqs = [dist_sq(coords[u], coords[v]) for u, v in edges]
    mn = min(sqs)
    if mn == 0:
        return Interval(math.inf, math.inf)
    enclosures = map(partial(sqrt_interval, Fraction(max(sqs), mn)), _precisions(_START_BITS))
    return next(_certify(enclosures, [rel_tol]))


def is_planar_drawing(d: Drawing) -> bool:
    """Exact: no two edges share a point except a common endpoint.

    A common endpoint is compared by coordinates, not by vertex, as in
    segments_cross_improperly, so two edges on the same segment (through
    coincident vertices) do not cross. A zero-length edge makes the drawing
    non-planar.

    A Shamos–Hoey sweep over the edges in lexicographic (x, y) order, which
    treats a vertical edge as slightly rotated: O(m log m) orientations and
    at most 3m calls of segments_cross_improperly, one per pair of edges that
    become neighbors in the sweep status. Every False is a pair that predicate
    confirmed.
    """
    coords = d.points
    segs = set()
    for u, v in d.graph.edges():
        a, b = coords[u], coords[v]
        if a == b:
            return False
        segs.add((a, b) if a < b else (b, a))
    segs = sorted(segs)  # each segment once: two edges on one segment do not cross
    # (point, kind, index): at a point, deletions (0) before insertions (1),
    # so edges that meet end to end are never in the status together.
    events = sorted([(s[1], 0, i) for i, s in enumerate(segs)]
                    + [(s[0], 1, i) for i, s in enumerate(segs)])
    status: list[int] = []  # active segments, bottom to top

    def crosses(i: int, j: int) -> bool:
        return segments_cross_improperly(*segs[i], *segs[j])

    for p, insert, i in events:
        if not insert:
            k = status.index(i)
            del status[k]
            if 0 < k < len(status) and crosses(status[k - 1], status[k]):
                return False
            continue
        r = segs[i][1]
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = segs[status[mid]]
            o = orientation(a, b, p)
            if o == 0 and a == p:
                o = orientation(p, b, r)  # a common left end: compare the right ends
            # p inside an active segment, or a collinear overlap from p.
            if o == 0 and crosses(i, status[mid]):
                return False
            if o > 0:
                lo = mid + 1
            else:
                hi = mid
        status.insert(lo, i)
        if lo > 0 and crosses(status[lo - 1], i):
            return False
        if lo + 1 < len(status) and crosses(i, status[lo + 1]):
            return False
    return True


def is_proper_drawing(d: Drawing) -> bool:
    """Exact: all vertex points distinct and no vertex interior to an edge segment.

    Not a sweep: once two edges cross, a sweep's status order no longer holds.
    The vertices are sorted once by x and once by y. For each edge, bisection
    finds the vertices in its closed bounding box's x range and in its y
    range; the shorter of the two is walked, and in_segment_interior tests
    each vertex in the box other than the edge's ends. The candidates are
    those of the O(n*m) scan, so the verdict is the same.
    """
    coords = d.points
    if coincident(coords):
        return False
    by_x = sorted(coords)
    by_y = sorted(coords, key=lambda p: (p[1], p[0]))
    xs = [p[0] for p in by_x]
    ys = [p[1] for p in by_y]
    for u, v in d.graph.edges():
        a, b = coords[u], coords[v]
        xmin, xmax = min(a[0], b[0]), max(a[0], b[0])
        ymin, ymax = min(a[1], b[1]), max(a[1], b[1])
        x0, x1 = bisect_left(xs, xmin), bisect_right(xs, xmax)
        y0, y1 = bisect_left(ys, ymin), bisect_right(ys, ymax)
        near = by_x[x0:x1] if x1 - x0 <= y1 - y0 else by_y[y0:y1]
        for p in near:
            if (xmin <= p[0] <= xmax and ymin <= p[1] <= ymax and p != a and p != b
                    and in_segment_interior(a, b, p)):
                return False
    return True


def no_three_collinear(d: Drawing) -> bool:
    """Exact verdict over all vertex triples."""
    return not any_three_collinear(d.points)


def bounding_box(d: Drawing) -> tuple[Fraction, Fraction, tuple]:
    """(width, height, ((xmin, ymin), (xmax, ymax))) of the smallest enclosing axis-parallel box."""
    if d.graph.n < 1:
        raise ValueError("bounding box needs at least one vertex")
    coords, L = d.points, d.den
    xs = [p[0] for p in coords]
    ys = [p[1] for p in coords]
    xmin, xmax = Fraction(min(xs), L), Fraction(max(xs), L)
    ymin, ymax = Fraction(min(ys), L), Fraction(max(ys), L)
    return (xmax - xmin, ymax - ymin, ((xmin, ymin), (xmax, ymax)))


def _closest_sq(coords: Sequence[IntPoint]) -> int:
    """Least squared distance between two of at least 2 points.

    A plane sweep in x order (Hinrichs, Nievergelt and Schorn, IPL 1988):
    the window holds, sorted by (y, x), the points left of the sweep whose
    squared x gap is below the best so far, and each point is compared only
    with the window's points within that distance in y. Those are at most 8
    (they are at least that distance apart), so it takes O(n log n)
    comparisons whichever axis the points spread along.
    """
    pts = sorted(coords)
    best = dist_sq(pts[0], pts[1])
    window: list[IntPoint] = []  # (y, x) of pts[tail] up to the current point
    tail = 0
    for x, y in pts:
        if best == 0:
            return 0
        while (x - pts[tail][0]) ** 2 >= best:
            qx, qy = pts[tail]
            del window[bisect_left(window, (qy, qx))]
            tail += 1
        r = math.isqrt(best - 1)  # dy**2 < best iff |dy| <= r
        for q in window[bisect_left(window, (y - r,)):bisect_left(window, (y + r + 1,))]:
            best = min(best, dist_sq((y, x), q))  # swapping both points' axes keeps it
        insort(window, (y, x))
    return best


def min_pairwise_distance_sq(d: Drawing) -> Fraction:
    if d.graph.n < 2:
        raise ValueError("needs at least 2 vertices")
    return Fraction(_closest_sq(d.points), d.den**2)


def compute_metrics(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> MetricReport:
    """Full report; spanning ratio omitted (None) when undefined by disconnection."""
    g = d.graph
    width, height, _ = bounding_box(d) if g.n >= 1 else (Fraction(0), Fraction(0), None)
    # Coincident points count as collinear, and a vertex inside an edge is
    # collinear with the edge's ends: a drawing with no such triple is proper.
    collinear_free = no_three_collinear(d)
    proper = collinear_free or is_proper_drawing(d)
    sr: Optional[Interval] = None
    if g.n >= 2 and is_connected(g):
        sr = spanning_ratio(d, rel_tol)
    elr: Optional[Interval] = None
    if g.m >= 1:
        elr = edge_length_ratio(d, rel_tol)
    return MetricReport(
        spanning_ratio=sr,
        edge_length_ratio=elr,
        width=width,
        height=height,
        planar=is_planar_drawing(d),
        proper=proper,
        no_three_collinear=collinear_free,
        min_pairwise_distance_sq=min_pairwise_distance_sq(d) if g.n >= 2 else None,
    )
