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
minimum spanning tree in preorder (on a tree, the tree itself), and judges
each source against the later positions only. On a tree a pair's float
path length is its source's offset plus the target's root distance, one
offset per range of subtrees, and a subtree whose largest root distance
over its bounding box's distance is below the running cut is skipped
whole (the well-separated pruning of Narasimhan and Smid). On any other
graph a row starts as the parent's plus the edge between them, an upper
bound, and Dijkstra from the source stops once every pair whose bounded
ratio reaches the running cut is settled; a pair left bounded is below the
cut, as it would be on exact rows. Each precision brackets only the
candidates, and one exact inequality (_filter_proves) shows that no other
pair can reach the certified lower bound, so the enclosure equals the full
scan's; its float error covers a bounded entry's sum of up to 2n - 2
weights. Where the inequality fails, that precision scans all pairs. A
tree is rooted once per call, at vertex 0, for the float pass and the
exact rows alike, and every exact tree distance is R[u] + R[v] - 2 R[lca]
on integer root distances. The filter declines (all pairs at every
precision) for coordinates past 1900 bits, a closest distance below
2**-900, or too many near-ties; past 1900 bits the far-placement pass below
serves the planar and proper drawings instead. The oracles of
tests/oracles.py share none of this code: each checks connectivity, finds
the closest pair and scans every pair itself, on Dijkstra rows at the same
precisions, whose enclosure must be this one, or on Floyd–Warshall rows
from 128 bits, whose enclosure must meet it.

Where coordinates run past 53 bits, a far-placement pass (_far_scan) comes
before the float filter. The planar and proper constructions put vertex k
more than k delta / epsilon away from the vertices placed before it, and
the paper's proof of the 1 + epsilon bound rests on that gap. Sorted by
(y, x), or else by (x, y), each vertex v_k has an earlier neighbor w_k, so
every pair of v_k with an earlier vertex has dist_hi at most hi(v_k, w_k)
plus D_k, the upper-bracket weight of the tree that the earlier vertices
attach by, and e_lo at least gap_k, the lower bracket of v_k's distance to
their bounding box. Each precision brackets, by branch and bound, only the
sources whose bound B_k = (hi(v_k, w_k) + D_k) / gap_k reaches the running
lower bound, compared in exact integers, so the enclosure equals the full
scan's at any bit size (the pruning of the dilation scan in Narasimhan and
Smid). The benchmark's planar and proper drawings take 1-3 rows per
precision. A drawing with no such order, or whose bounds leave more than
_FAR_ROWS sources, goes to the float filter.

Three certificates sweep the integer points instead of scanning all pairs,
with the same verdicts and values:
- is_planar_drawing: a Shamos–Hoey sweep (Shamos and Hoey, "Geometric
  intersection problems", FOCS 1976) in lexicographic order, O(m log m)
  orientations and at most 3m exact crossing tests;
- min_pairwise_distance_sq: Drawing.closest_sq, a closest-pair plane sweep
  (geometry.closest_pair_sq, after Hinrichs, Nievergelt and Schorn, IPL
  1988), O(n log n), kept on the drawing for the spanning ratio;
- is_proper_drawing: per edge, the vertices in its bounding box, found by
  bisection in the vertices sorted by x and by y.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import add, ge, sub, truediv
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .drawing import Drawing
from .errors import DisconnectedDrawingError, NoEdgesError, PrecisionExhausted
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


def _precisions(shift: int = 0) -> Iterator[int]:
    """The working precisions of a certified value: _START_BITS,
    2*_START_BITS, ... up to _MAX_BITS; with a shift, 2*_START_BITS + shift,
    4*_START_BITS + shift, .... The one loop that raises precision."""
    bits = 2 * _START_BITS if shift else _START_BITS
    while bits <= _MAX_BITS:
        yield bits + shift
        bits *= 2


def _certify(enclosures: Iterable[Interval], rel_tols: Iterable[Fraction]) -> Iterator[Interval]:
    """For each tolerance of rel_tols in turn, the first enclosure from the
    last one yielded on whose relative width is within it; an infinite one
    meets every tolerance. PrecisionExhausted when the enclosures run out first."""
    tols = iter(rel_tols)
    tol = next(tols)
    for ivl in enclosures:
        while ivl.is_infinite or ivl.rel_width() <= tol:
            yield ivl
            tol = next(tols, None)
            if tol is None:
                return
    raise PrecisionExhausted("precision escalation exhausted")


def _scan(coords: Sequence[IntPoint], den: int, bits: int, table, best: Optional[list] = None) -> Interval:
    """The pair loop of every enclosure: the ratio enclosure over the pairs
    (u, v), for each (u, targets, dist_lo, dist_hi) that table yields and v in
    targets, where dist_lo and dist_hi hold u's exact graph distances to the
    targets, in their order, under the lower and the upper edge brackets.
    Every pair distance must bracket away from 0 at bits. best, when given,
    is the list [(0, 1), (0, 1)], in which _scan keeps the running lower and
    upper ratio bounds as (num, den) while the pairs come, so that a lazy
    table can read them."""
    if best is None:
        best = [(0, 1), (0, 1)]
    best_lo, best_hi = best  # ratio bounds as num/den over scaled ints
    for u, targets, dist_lo, dist_hi in table:
        cu = coords[u]
        for v, g_lo, g_hi in zip(targets, dist_lo, dist_hi):
            e_lo, e_hi = isqrt_scaled(dist_sq(cu, coords[v]), den, bits)
            if g_lo * best_lo[1] > best_lo[0] * e_hi:
                best_lo = best[0] = (g_lo, e_hi)
            if g_hi * best_hi[1] > best_hi[0] * e_lo:
                best_hi = best[1] = (g_hi, e_lo)
    lo = max(Fraction(*best_lo), Fraction(1))
    return Interval(lo, max(Fraction(*best_hi), lo))


def _spanning_ratios(d: Drawing) -> Iterator[Interval]:
    """spanning_ratio's certified enclosures, one per working precision.
    Coincident vertices give the one infinite interval.

    Each pair's ratio lies in [dist_lo/e_hi, dist_hi/e_lo], where e_lo, e_hi
    bracket its Euclidean distance at the same scale, so the scales cancel.
    A distance is bracketed from its integer square Q over L**2, which gives
    the same brackets as the reduced rational Q/L**2 would.

    At b bits or more, with b the least integer with closest * 4**b >= L**2
    (closest the least squared pair distance), every pair brackets away from
    0. The precisions are 64, 128, ..., or, when b exceeds 64, 128 + b,
    256 + b, ... (_precisions).

    The exact rows come from rows(lo_w, hi_w, groups), under the lower and
    the upper integer edge-length brackets of a precision: on a tree from
    its breadth-first preorder tree (_tree_rows), built once and walked by
    the float pass too, and on any other graph from Dijkstra (_graph_rows).
    Where coordinates run past 53 bits, so that the float pass would take
    big-integer differences, each precision first tries the far-placement
    pass (_far_scan). Where it does not apply, or hands over, the float
    pass runs once, and each precision then scans its candidate pairs
    first, and every pair only when _filter_proves fails. The enclosure is
    the same whichever way it went.
    """
    g = d.graph
    if g.n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    coords, L, closest = d.points, d.den, d.closest_sq
    if closest == 0:
        yield Interval(math.inf, math.inf)
        return
    den = L * L
    inverse = -(-den // closest)  # ceil(L**2 / closest)
    b = ((inverse - 1).bit_length() + 1) // 2
    tree = _spanning_tree(g, bfs_parents(g)) if g.m == g.n - 1 else None
    rows = partial(_graph_rows, g.n) if tree is None else partial(_tree_rows, tree)
    coord_bits = _coord_bits(coords)
    far = _far_order(g, coords) if coord_bits > 53 else None
    flt = _float_filter(g, coords, closest, coord_bits, tree) if far is None else None
    for bits in _precisions(b if b > _START_BITS else 0):
        lo_w, hi_w = {}, {}
        for e in g.edges():
            lo_w[e], hi_w[e] = isqrt_scaled(dist_sq(coords[e[0]], coords[e[1]]), den, bits)
        if far is not None:
            ivl = _far_scan(far, coords, den, bits, partial(rows, lo_w, hi_w), hi_w)
            if ivl is not None:
                yield ivl
                continue
            far = None  # not far-placed enough: the float pass from here on
            flt = _float_filter(g, coords, closest, coord_bits, tree)
        if flt is not None:
            ivl = _scan(coords, den, bits, rows(lo_w, hi_w, flt.pairs.items()))
            if _filter_proves(flt, ivl.lo, L, bits):
                yield ivl
                continue
        yield _scan(coords, den, bits, rows(lo_w, hi_w, None))


def _coord_bits(coords: Sequence[IntPoint]) -> int:
    """The bit length of the largest absolute integer coordinate."""
    return max(abs(c).bit_length() for p in coords for c in p)


# The far-placement pass brackets at most _FAR_ROWS sources per precision
# before it hands over to the float pass. By measurement: the benchmark's
# planar and proper drawings past 53 bits need at most 3 (1.4 on average),
# planar ones of n = 320 up to 6; a drawing that is not far-placed, such as
# random points, needs nearly all of its sources, and the rows it brackets
# before it hands over are lost.
_FAR_ROWS = 8


@dataclass(frozen=True)
class _Far:
    """A vertex order v_0, ..., v_{n-1} of a drawing for _far_scan, and for
    each k >= 1, at steps[k - 1], the edge from v_k to its nearest earlier
    neighbor w_k and the squared distance from v_k to the bounding box of
    v_0 .. v_{k-1}, on the integer coordinates."""

    order: list[int]
    steps: list[tuple[tuple[int, int], int]]


def _far_order(g: Graph, coords: Sequence[IntPoint]) -> Optional[_Far]:
    """The vertices sorted by (y, x), or else by (x, y), the first of the two
    in which every vertex after the first has a neighbor earlier in the
    order; None when neither has. A drawing file holds no construction
    order, so the order comes from the points: the planar construction puts
    each vertex above the ones before it, the proper one to their right."""
    n = g.n
    for a, b in ((1, 0), (0, 1)):
        order = sorted(range(n), key=lambda v: (coords[v][a], coords[v][b]))
        pos = [0] * n
        for k, v in enumerate(order):
            pos[v] = k
        x0, y0 = x1, y1 = coords[order[0]]
        steps = []
        for k in range(1, n):
            v = order[k]
            earlier = [w for w in g.adj[v] if pos[w] < k]
            if not earlier:
                break
            w = min(earlier, key=lambda w: dist_sq(coords[v], coords[w]))
            x, y = coords[v]
            dx = x0 - x if x < x0 else x - x1 if x > x1 else 0
            dy = y0 - y if y < y0 else y - y1 if y > y1 else 0
            steps.append(((v, w) if v < w else (w, v), dx * dx + dy * dy))
            x0, x1, y0, y1 = min(x0, x), max(x1, x), min(y0, y), max(y1, y)
        else:
            return _Far(order, steps)
    return None


def _far_scan(far: _Far, coords: Sequence[IntPoint], den: int, bits: int,
              table_of: Callable, hi_w: dict) -> Optional[Interval]:
    """The enclosure at scale 2**bits by branch and bound over the sources of
    far's order, each bracketed against the vertices before it:
    table_of(groups) gives their rows under the precision's edge brackets,
    of which hi_w are the upper ones. None when more than _FAR_ROWS sources need brackets.

    Every pair is (v_k, u) for exactly one k >= 1 and u before v_k. Let
    hi(e) be the upper bracket of edge e, D_k the sum of hi over the edges
    (v_j, w_j), 1 <= j < k, which form a spanning tree of v_0 .. v_{k-1},
    and gap_k the lower isqrt_scaled bracket of v_k's squared distance to
    their bounding box. The bound is B_k = (hi(v_k, w_k) + D_k) / gap_k,
    infinite when gap_k = 0 (_far_bounds).
    - dist_hi(v_k, u) <= hi(v_k, w_k) + D_k: dist_hi is the least weight of
      a path under hi, and one path goes to w_k and then along the tree.
    - e_lo(v_k, u) >= gap_k: the box holds u, so |v_k u| is at least v_k's
      distance to it, and the lower bracket is monotone in the square.
    - So every pair of source v_k has dist_lo/e_hi <= dist_hi/e_lo <= B_k.
    The sources come by B_k from the largest, by a float key, which only
    affects speed. When its turn comes, each is compared exactly with t,
    the running largest dist_lo/e_hi of _scan, and passed over if B_k < t,
    else bracketed. t only rises, so every pair passed over has
    dist_lo/e_hi <= dist_hi/e_lo < T, T the final t. It moves neither the
    lower bound, T, nor the upper bound, which is at least dist_hi/e_lo >= T
    of the pair that set T. The enclosure is the full scan's, number for
    number. The comparisons are exact integer products, with no float
    error and no limit on the bits of the coordinates."""
    sources = sorted(_far_bounds(far, den, bits, hi_w), key=lambda s: s[0], reverse=True)
    order = far.order
    best = [(0, 1), (0, 1)]
    bracketed = 0

    def groups():
        nonlocal bracketed
        for _, num, gap, k in sources:
            t_num, t_den = best[0]
            if num * t_den < t_num * gap:
                continue  # B_k < t
            bracketed += 1
            if bracketed > _FAR_ROWS:
                return
            yield order[k], order[:k]

    ivl = _scan(coords, den, bits, table_of(groups()), best)
    return ivl if bracketed <= _FAR_ROWS else None


def _far_bounds(far: _Far, den: int, bits: int, hi_w: dict) -> list[tuple[float, int, int, int]]:
    """(key, num, gap, k) for each k >= 1 of far's order: _far_scan's bound
    B_k = num / gap at scale 2**bits from the upper edge brackets hi_w, and
    key its float value."""
    bounds = []
    tree = 0  # D_k
    for k, (edge, box_sq) in enumerate(far.steps, 1):
        w = hi_w[edge]
        gap = isqrt_scaled(box_sq, den, bits)[0]
        bounds.append((_ratio_key(w + tree, gap), w + tree, gap, k))
        tree += w
    return bounds


def _ratio_key(num: int, den: int) -> float:
    """num / den as a float for ordering, math.inf when den is 0 or the
    quotient is beyond a double."""
    try:
        return num / den if den else math.inf
    except OverflowError:
        return math.inf


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
    a float ratio below cut, judged or pruned with its subtree (see
    _tree_candidates). Distances are in float units, the integer coordinates
    over 2**s; efmin is at most every float pair distance, and rel_err,
    abs_err bound the float errors as _filter_proves uses them. judged
    counts the float ratios the pass computed, of n (n - 1) / 2 pairs, and
    tests its subtree tests."""

    pairs: dict[int, list[int]]
    cut: Fraction
    efmin: Fraction
    rel_err: Fraction
    abs_err: Fraction
    n: int
    s: int
    judged: int
    tests: int


def _filter_proves(flt: _Filter, t: Fraction, L: int, bits: int) -> bool:
    """True when no pair the filter skipped can move an enclosure with lower
    bound t at scale 2**bits, which then equals the full scan's.

    A skipped pair was judged below the cut, or pruned with its subtree by
    _tree_candidates. In float units let g, e be its true graph and
    Euclidean distances, gf, ef the float ones (for a pruned pair, gf is
    fl(off + root[j]), which the pass never computes), and
    beta = L / 2**(bits + s) one bracket unit (the real coordinates are the
    integers over L).
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
      (2n + 8)u on bounded rows, covers both. A tree's entry is within
      abs_err A of the exact sum of the float weights on the path (see
      _float_filter). So e >= ef/(1 + delta) and g <= (gf + A)(1 + delta);
      a judged pair's rounded ratio is below cut, and a pruned pair has
      gf < cut ef, so gf < cut (1 + delta) ef either way.
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


def _float_filter(g: Graph, coords: Sequence[IntPoint], closest: int, bits: int,
                  tree: Optional[_Tree]) -> Optional[_Filter]:
    """One float pass over all pairs of a connected graph on distinct points
    (closest their least squared distance, bits the _coord_bits of coords):
    the pairs whose float ratio is within a factor 1 - _FILTER_ETA of the
    largest, judged against the running largest. None when the filter
    declines: the coordinates need a scaling beyond 2**-_FILTER_LIMIT, the
    closest distance is at most 2**-_FILTER_LIMIT, a float ratio overflows,
    or the candidates are not few.

    efmin is a lower bracket of the closest distance in float units,
    sqrt(closest) / 2**s, to 64 significant bits, over 1 + 4u, so at most
    every float pair distance (see _filter_proves); no row is built to
    find it.

    The sources are walked in preorder along tree, a tree's own (None on
    any other graph, which walks a minimum spanning tree of the float
    weights, _prim, whose short edges keep the bounded rows tight). The
    bounds need only that it is a spanning tree. Each source is judged
    against the positions after its own. On a tree _tree_candidates judges
    fl(off + root[j]), root the float root distances and off one offset
    per run of targets (_Tree.runs), and skips whole subtrees that its
    bounds put below the cut. Such an entry takes at most
    depth(i) + depth(j) + 2 depth(lca) <= 4h roundings in the root
    distances, h the height in edges, and two more in off and the sum, each
    at most u times rmax or 2 rmax, rmax the largest root distance; so
    4 (h + 1) u rmax bounds its absolute error against the exact sum of the
    float weights on its path. Where that takes more than a quarter of the
    margin at the closest pair, or on any other graph, the rows are bounded
    and refined by Dijkstra near the cut (see _candidates), with no
    absolute error.

    Float distances are math.hypot of the exact integer differences, each
    divided by 2**s, so coordinates of up to _FILTER_BITS + _FILTER_LIMIT
    bits keep their small gaps. When every coordinate is below 2**53 (so
    s = 0), pair distances are math.dist of the float points, the same
    floats: the points are exact, and the one float subtraction rounds each
    difference as converting the integer difference does.
    """
    n = g.n
    s = max(0, bits - _FILTER_BITS)
    k = (closest.bit_length() + 1) // 2 - 64  # sqrt(closest) has 64 bits over 2**k
    lo = math.isqrt(closest >> 2 * k if k > 0 else closest << -2 * k)
    efmin = Fraction(lo << max(k - s, 0), 1 << max(s - k, 0)) / (1 + 4 * _U)
    if s > _FILTER_LIMIT or efmin <= Fraction(1, 1 << _FILTER_LIMIT):
        return None
    edges = g.edges()
    xs, ys = zip(*coords)
    weight = dict(zip(edges, _dists([xs[u] for u, _ in edges], [ys[u] for u, _ in edges],
                                    [xs[v] for _, v in edges], [ys[v] for _, v in edges], s)))
    t = tree if tree is not None else _spanning_tree(g, _prim(_weighted_adj(n, weight)))
    xs = [xs[v] for v in t.order]
    ys = [ys[v] for v in t.order]
    gap = math.hypot
    if bits <= 53:
        xs, ys = list(map(float, xs)), list(map(float, ys))
        pts = list(zip(xs, ys))

        def dists(i: int, segs: Iterable[tuple]) -> list[float]:
            qs: list[tuple[float, float]] = []
            for lo, hi, _ in segs:
                qs += pts[lo:hi]
            return list(map(math.dist, repeat(pts[i]), qs))
    else:
        if s:
            def gap(dx: int, dy: int) -> float:
                return math.hypot(dx / (1 << s), dy / (1 << s))

        def dists(i: int, segs: Iterable[tuple]) -> list[float]:
            xk: list[int] = []
            yk: list[int] = []
            for lo, hi, _ in segs:
                xk += xs[lo:hi]
                yk += ys[lo:hi]
            return _dists(repeat(xs[i]), repeat(ys[i]), xk, yk, s)

    w_up, root = _tree_weights(t, weight)
    if tree is not None:
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[t.up[i]] + 1
        abs_err = 4 * (max(depth) + 1) * _U * Fraction(max(root))
        judge = _tree_candidates(t, root, xs, ys, gap, dists)
        if judge is None:
            return None
        flt = judge.filter(t.order, efmin, (n + 8) * _U, abs_err, s)
        # A tree whose lengths span many scales can make the rounding of its
        # root distances swamp its closest pairs. Unless it takes at most a
        # quarter of the margin, take bounded rows, whose error is relative only.
        if flt is None or 4 * flt.abs_err < Fraction(_FILTER_ETA) * flt.cut * flt.efmin:
            return flt
    adj = _weighted_adj(n, {(t.pos[u], t.pos[v]): w for (u, v), w in weight.items()})
    judge = _candidates(dists, _walk(t, w_up), adj)
    return None if judge is None else judge.filter(t.order, efmin, (2 * n + 8) * _U, Fraction(0), s)


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


class _Cut:
    """The running cut of a float pass: rmax, the largest float ratio judged
    so far, cut = rmax (1 - _FILTER_ETA), and the judged pairs of positions
    at or above the cut of their time. The list is pruned to the current cut
    whenever it doubles past cap; judge is False, and the filter declines,
    when more than cap remain. judged counts the ratios, tests the subtree
    tests of _tree_candidates."""

    def __init__(self, n: int):
        self.cap = 4 * n + 256
        self.rmax = self.cut = 0.0
        self.cands: list[tuple[float, int, int]] = []  # (float ratio, i, j)
        self.judged = self.tests = 0

    def judge(self, i: int, ratios: list[float], targets: Iterable[int]) -> bool:
        """Judge the ratios of the pairs (i, j), j in targets, in their order."""
        self.judged += len(ratios)
        top = max(ratios)
        self.rmax = max(self.rmax, top)
        cut = self.cut = self.rmax * (1 - _FILTER_ETA)
        if top >= cut:
            self.cands += [(r, i, j) for j, r in zip(targets, ratios) if r >= cut]
            if len(self.cands) > 2 * self.cap:
                self.cands = [c for c in self.cands if c[0] >= cut]
                return len(self.cands) <= self.cap
        return True

    def filter(self, order: list[int], efmin: Fraction, rel_err: Fraction, abs_err: Fraction,
               s: int) -> Optional[_Filter]:
        """The _Filter of the pass, the positions mapped to vertices by order;
        None when a ratio overflowed."""
        if not math.isfinite(self.rmax):
            return None
        pairs: dict[int, list[int]] = {}
        for r, i, j in self.cands:
            if r >= self.cut:
                pairs.setdefault(order[i], []).append(order[j])
        return _Filter(pairs, Fraction(self.cut), efmin, rel_err, abs_err, len(order), s,
                       self.judged, self.tests)


# _tree_candidates judges a subtree of at most _BLOCK positions whole and
# tests larger ones against the cut, until _PROBE tests have pruned fewer
# than _PAY positions each. By measurement: a test costs about as much as
# judging a few pairs; _BLOCK from 2 to 5 gave the same time on the
# benchmark's tree-planar drawings, whose tests prune 7.6 positions each
# or more, and random-point trees prune 2.3 or fewer.
_BLOCK = 4
_PROBE = 256
_PAY = 4
_SLACK = 1 - 2.0**-48


def _tree_candidates(t: _Tree, root: list[float], xs: list, ys: list,
                     gap: Callable, dists: Callable) -> Optional[_Cut]:
    """The float pass of _float_filter on a tree, by position of its
    preorder tree t; root[j] is the float root distance of position j,
    (xs[j], ys[j]) its point, gap(dx, dy) the float length of a difference
    of two coordinates, and dists(i, segs) the float distances from
    position i to those of each (lo, hi, _) of segs, lo .. hi - 1 in turn.
    None when the candidates are not few.

    A target j of a run of t.runs(i, root), after source i, is at float
    path length fl(off + root[j]), judged in one batch per source over the
    kept positions.

    A subtree T of more than _BLOCK positions is skipped when
    fl(off + hmax[T]) < cut (1 - 2**-48) D, hmax[T] its largest root
    distance and D the float distance from i to the nearest point of its
    bounding box; otherwise its top is kept and its children's subtrees are
    tested in turn. For each j of a skipped T rounding is monotone, so
    fl(off + root[j]) <= fl(off + hmax[T]), and D <= (1 + 9u) ef, ef the
    float distance of (i, j); the slack covers that and the two roundings
    of the product, so fl(off + root[j]) < cut ef: j's float ratio is below
    the cut, as a pair judged and skipped has it (see _filter_proves).

    The tests stop for good once _PROBE of them have pruned fewer than _PAY
    positions each; every later source is judged on its whole ranges."""
    n, up, end = len(root), t.up, t.end
    hmax = root[:]
    xlo, ylo = xs[:], ys[:]
    xhi, yhi = xs[:], ys[:]
    for c in range(n - 1, 0, -1):
        a = up[c]
        if hmax[c] > hmax[a]:
            hmax[a] = hmax[c]
        if xlo[c] < xlo[a]:
            xlo[a] = xlo[c]
        if xhi[c] > xhi[a]:
            xhi[a] = xhi[c]
        if ylo[c] < ylo[a]:
            ylo[a] = ylo[c]
        if yhi[c] > yhi[a]:
            yhi[a] = yhi[c]
    judge = _Cut(n)
    tests = pruned = 0
    for i in range(n - 1):
        runs = t.runs(i, root)
        if judge.cut and (tests < _PROBE or pruned >= _PAY * tests):
            px, py = xs[i], ys[i]
            bound = judge.cut * _SLACK
            segs = []
            for lo, hi, off in runs:
                x = start = lo
                while x < hi:
                    e = end[x]
                    if e - x <= _BLOCK:
                        x = e
                        continue
                    tests += 1
                    dx = xlo[x] - px if px < xlo[x] else px - xhi[x] if px > xhi[x] else 0
                    dy = ylo[x] - py if py < ylo[x] else py - yhi[x] if py > yhi[x] else 0
                    if off + hmax[x] < bound * gap(dx, dy):
                        pruned += e - x
                        if start < x:
                            segs.append((start, x, off))
                        start = x = e
                    else:
                        x += 1  # keep x, go on to its first child's subtree
                if start < hi:
                    segs.append((start, hi, off))
        else:
            segs = runs
        gs = _run_lengths(segs, root)
        if gs and not judge.judge(i, list(map(truediv, gs, dists(i, segs))),
                                  (j for lo, hi, _ in segs for j in range(lo, hi))):
            return None
    judge.tests = tests
    return judge


def _candidates(dists: Callable, walk: Iterator[tuple[int, list[float]]],
                adj: list[list[tuple]]) -> Optional[_Cut]:
    """The float pass of _float_filter on the bounded float rows of walk (_walk),
    by position of its tree; dists(i, ((i + 1, n, 0),)) gives the float
    distances in a row's places. Before a row is judged, _dijkstra from
    i over adj, the float weights by position, settles every later position
    whose bounded ratio reaches the running cut, and the row takes the
    minimum with what it found, in place, so the children start from it.
    Only those positions' ratios are recomputed: every other one was below
    the cut and can only fall, so the largest ratio and the candidates are
    those of fresh ratios. An entry is thus a float sum along a walk, a
    path from some ancestor plus the tree edges down to i: at most
    (n - 1) + depth(i) <= 2n - 2 terms. The cut only rises, so a pair left
    bounded has a ratio below the cut it is judged against, as a pair on
    exact rows would, and the enclosure is unchanged (see _filter_proves).
    None when the candidates are not few."""
    n = len(adj)
    judge = _Cut(n)
    for i, row in walk:
        if i == n - 1:
            continue
        efs = dists(i, ((i + 1, n, 0),))
        ratios = list(map(truediv, row, efs))
        near = list(compress(range(i + 1, n), map(ge, ratios, repeat(judge.cut))))
        if near:
            row[:] = map(min, row, _dijkstra(adj, i, near)[i + 1:])
            for j in near:
                ratios[j - i - 1] = row[j - i - 1] / efs[j - i - 1]
        if not judge.judge(i, ratios, range(i + 1, n)):
            return None
    return judge


@dataclass(frozen=True)
class _Tree:
    """A rooted spanning tree by preorder position: order[i] is the vertex at
    position i and pos its inverse, up[i] the parent's position (up[0] = 0),
    i .. end[i] - 1 the size[i] positions of i's subtree, and hop[i] its
    nearest ancestor-or-self but the root with later siblings (0 if none)."""

    order: list[int]
    pos: list[int]
    up: list[int]
    size: list[int]
    end: list[int]
    hop: list[int]

    def runs(self, i: int, root: list) -> list[tuple]:
        """The positions after i as runs (lo, hi, off) of whole subtrees,
        lo .. hi - 1, with one lowest common ancestor a with i and
        off = root[i] - 2 root[a], so off + root[j] is their tree distance:
        i's own subtree (a = i), then for each ancestor a whose child c toward
        i has later siblings, the positions after c's subtree in a's."""
        end, up, ri = self.end, self.up, root[i]
        runs = [(i + 1, end[i], -ri)]
        c = self.hop[i]
        while c:
            a = up[c]
            runs.append((end[c], end[a], ri - 2 * root[a]))
            c = self.hop[a]
        return runs

    def lca(self, i: int, j: int) -> int:
        """The lowest common ancestor of positions i and j, walking up from i."""
        while not i <= j < self.end[i]:
            i = self.up[i]
        return i


def _spanning_tree(g: Graph, parent: list) -> _Tree:
    """The preorder tree of the spanning tree of a connected graph given by
    parent (None at the root, vertex 0), children in reverse adjacency
    order: on a tree, a depth-first walk of its adjacency lists with a stack."""
    n = g.n
    order = preorder([[v for v in reversed(g.adj[u]) if parent[v] == u] for u in range(n)], 0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    up = [0] + [pos[parent[v]] for v in order[1:]]
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    end = [i + k for i, k in enumerate(size)]
    hop = [0] * n
    for c in range(1, n):
        hop[c] = c if end[c] < end[up[c]] else hop[up[c]]
    return _Tree(order, pos, up, size, end, hop)


def _run_lengths(runs: Iterable[tuple], root: list) -> list:
    """off + root[j] for each run (lo, hi, off) and lo <= j < hi, in turn."""
    out: list = []
    for lo, hi, off in runs:
        out += map(add, repeat(off), root[lo:hi])
    return out


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


def _tree_weights(t: _Tree, weight: dict) -> tuple[list, list]:
    """(w_up, root) by position of t: the weight of the edge to the parent
    (w_up[0] = 0) and the distance from the root along the tree."""
    order, up = t.order, t.up
    w_up, root = [0] * len(order), [0] * len(order)
    for i in range(1, len(order)):
        u, p = order[i], order[up[i]]
        w_up[i] = weight[(u, p) if u < p else (p, u)]
        root[i] = root[up[i]] + w_up[i]
    return w_up, root


def _walk(t: _Tree, w_up: list) -> Iterator[tuple[int, list]]:
    """The bounded rows of _candidates: (i, row) for every position i of t,
    row[k] an upper bound on the distance to position i + 1 + k, all
    math.inf at the root, and at a child its parent's later entries plus
    w_up[i], its edge weight. A parent comes before its children, and the
    heaviest child last, so O(log n) rows are alive at once. A row may be
    changed in place before the next is drawn: its children start from
    what is left."""
    up, size = t.up, t.size
    kids: list[list[int]] = [[] for _ in up]
    for i in range(1, len(up)):
        kids[up[i]].append(i)
    pending = [(0, [math.inf] * (len(up) - 1))]  # (position, its parent's row; the root's own)
    while pending:
        i, row = pending.pop()
        if i:
            row = list(map(add, row[i - up[i]:], repeat(w_up[i])))
        yield i, row
        pending += [(c, row) for c in sorted(kids[i], key=size.__getitem__, reverse=True)]


def _weighted_adj(n: int, weight: dict) -> list[list[tuple]]:
    """Adjacency lists of (neighbor, weight) pairs from the weights of the edges."""
    adj: list[list[tuple]] = [[] for _ in range(n)]
    for (u, v), w in weight.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _dijkstra(adj: list[list[tuple]], source: int, stop: Iterable[int]) -> list:
    """Shortest-path distances from source over (neighbor, weight) adjacency
    lists with nonnegative int or float weights; math.inf where unreached.
    It returns as soon as every vertex of stop is settled: their distances
    are final, and every other entry is at least its own."""
    dist = [math.inf] * len(adj)
    dist[source] = 0
    left = set(stop)
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        left.discard(u)
        if not left:
            break
        for v, w in adj[u]:
            if du + w < dist[v]:
                dist[v] = du + w
                heapq.heappush(heap, (dist[v], v))
    return dist


def _graph_rows(n: int, lo_w: dict, hi_w: dict, groups) -> Iterator[tuple]:
    """The exact rows of a connected graph on range(n) under the lower and
    the upper integer edge brackets lo_w, hi_w: for each (u, targets) of
    groups, in turn, (u, targets, dist_lo, dist_hi) as _scan reads them,
    from Dijkstra stopped once the targets are settled; groups None asks
    for every pair once, as (u, the vertices after u). Like _tree_rows, it
    draws a group only after it has yielded the last one's row, so groups
    may read the running bounds of _scan."""
    adj_lo, adj_hi = _weighted_adj(n, lo_w), _weighted_adj(n, hi_w)
    for u, targets in ((u, range(u + 1, n)) for u in range(n)) if groups is None else groups:
        dist_lo, dist_hi = _dijkstra(adj_lo, u, targets), _dijkstra(adj_hi, u, targets)
        yield u, targets, [dist_lo[v] for v in targets], [dist_hi[v] for v in targets]


def _tree_rows(t: _Tree, lo_w: dict, hi_w: dict, groups) -> Iterator[tuple]:
    """The rows _graph_rows gives, on a tree t: R[i] + R[j] - 2 R[a] under
    either edge bracket, R the integer root distances and a the lowest common
    ancestor, from _Tree.runs for every pair, grouped by source position, and
    _Tree.lca for a group."""
    (_, r_lo), (_, r_hi) = _tree_weights(t, lo_w), _tree_weights(t, hi_w)
    order, pos = t.order, t.pos
    if groups is None:
        for i in range(len(order)):
            yield (order[i], order[i + 1:], _run_lengths(t.runs(i, r_lo), r_lo),
                   _run_lengths(t.runs(i, r_hi), r_hi))
        return
    for u, targets in groups:
        i = pos[u]
        js = [pos[v] for v in targets]
        tops = [t.lca(i, j) for j in js]
        yield (u, targets, [r_lo[i] + r_lo[j] - 2 * r_lo[a] for j, a in zip(js, tops)],
               [r_hi[i] + r_hi[j] - 2 * r_hi[a] for j, a in zip(js, tops)])


def spanning_ratio(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Certified enclosure of max over pairs of (graph distance / Euclidean distance).

    Coincident vertices make the ratio infinite: the result is then the
    infinite interval (lo = hi = math.inf, `is_infinite` true).
    """
    return next(_certify(_spanning_ratios(d), [rel_tol]))


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
    enclosures = map(partial(sqrt_interval, Fraction(max(sqs), mn)), _precisions())
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


def min_pairwise_distance_sq(d: Drawing) -> Fraction:
    if d.graph.n < 2:
        raise ValueError("needs at least 2 vertices")
    return Fraction(d.closest_sq, d.den**2)


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
