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
weights. The candidates of a tree take their exact distances from integer
root distances, R[u] + R[v] - 2 R[lca]. Where the inequality fails, that
precision scans all pairs, a tree's on integer rows rerooted along its
breadth-first tree. The filter declines (all pairs at every precision) for
coordinates past 1900 bits, a closest distance below 2**-900, or too many
near-ties. The brute-force oracle in tests/oracles.py never filters: it
takes Floyd–Warshall rows through the same precisions.

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

    float_filter(g, coords, closest), when given, is the float pass
    (_float_filter).
    Each precision then scans its candidate pairs first, and every pair only
    when _filter_proves fails; the enclosure is the same either way.
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
    precisions = _precisions(start_bits) if b <= start_bits else _precisions(2 * start_bits, b)
    flt = float_filter(g, coords, closest) if float_filter else None
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


def _float_filter(g: Graph, coords: Sequence[IntPoint], closest: int) -> Optional[_Filter]:
    """One float pass over all pairs of a connected graph on distinct points,
    closest their least squared distance: the pairs whose float ratio is
    within a factor 1 - _FILTER_ETA of the largest, judged against the
    running largest. None when the filter declines: the coordinates need a
    scaling beyond 2**-_FILTER_LIMIT, the closest distance is at most
    2**-_FILTER_LIMIT, a float ratio overflows, or the candidates are not few.

    efmin is a lower bracket of the closest distance in float units,
    sqrt(closest) / 2**s, to 64 significant bits, over 1 + 4u, so at most
    every float pair distance (see _filter_proves); no row is built to
    find it.

    The sources are walked in the preorder of _spanning_tree along a minimum
    spanning tree of the float weights (_prim), whose short edges keep the
    bounded rows tight; a tree is its own. The bounds need only that it is a
    spanning tree. Each source is judged against the positions after its
    own. On a tree _tree_candidates judges fl(off + root[j]), root the float
    root distances and off one offset per range of targets, and skips whole
    subtrees that its bounds put below the cut. Such an entry takes at most
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
    bits = max(abs(c).bit_length() for p in coords for c in p)
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
    order, up, size = _spanning_tree(g, _prim(_weighted_adj(n, weight)))
    xs = [xs[v] for v in order]
    ys = [ys[v] for v in order]
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

    w_up, root = _tree_weights(order, up, weight)
    if g.m == n - 1:
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[up[i]] + 1
        abs_err = 4 * (max(depth) + 1) * _U * Fraction(max(root))
        judge = _tree_candidates(up, size, root, xs, ys, gap, dists)
        if judge is None:
            return None
        flt = judge.filter(order, efmin, (n + 8) * _U, abs_err, s)
        # A tree whose lengths span many scales can make the rounding of its
        # root distances swamp its closest pairs. Unless it takes at most a
        # quarter of the margin, take bounded rows, whose error is relative only.
        if flt is None or 4 * flt.abs_err < Fraction(_FILTER_ETA) * flt.cut * flt.efmin:
            return flt
    pos = dict(zip(order, range(n)))
    adj = _weighted_adj(n, {(pos[u], pos[v]): w for (u, v), w in weight.items()})
    rows = _walk(up, size, w_up, [math.inf] * (n - 1), add)
    judge = _candidates(dists, rows, adj)
    return None if judge is None else judge.filter(order, efmin, (2 * n + 8) * _U, Fraction(0), s)


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


def _tree_candidates(up: list[int], size: list[int], root: list[float], xs: list, ys: list,
                     gap: Callable, dists: Callable) -> Optional[_Cut]:
    """The float pass of _float_filter on a tree, by position of
    _spanning_tree's preorder; root[j] is the float root distance of
    position j, (xs[j], ys[j]) its point, gap(dx, dy) the float length of a
    difference of two coordinates, and dists(i, segs) the float distances
    from position i to those of each (lo, hi, _) of segs, lo .. hi - 1 in
    turn. None when the candidates are not few.

    The positions after source i split into ranges, each of whole subtrees
    with one offset: i's own subtree, at off = -root[i], and for each
    ancestor a of i whose child c toward i has later siblings, the
    positions after c's subtree in a's, at off = root[i] - 2 root[a]. A
    target j of a range is at float path length fl(off + root[j]), judged in
    one batch per source over the kept positions.

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
    n = len(up)
    end = [i + k for i, k in enumerate(size)]
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
    # hop[c]: the nearest ancestor-or-self of c, not the root, whose subtree
    # ends before its parent's, so one with later siblings; 0 if none.
    hop = [0] * n
    for c in range(1, n):
        hop[c] = c if end[c] < end[up[c]] else hop[up[c]]
    judge = _Cut(n)
    tests = pruned = 0
    for i in range(n - 1):
        ri = root[i]
        runs = [(i + 1, end[i], -ri)]
        c = hop[i]
        while c:
            a = up[c]
            runs.append((end[c], end[a], ri - 2 * root[a]))
            c = hop[a]
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
        gs: list[float] = []
        for lo, hi, off in segs:
            gs += map(add, repeat(off), root[lo:hi])
        if gs and not judge.judge(i, list(map(truediv, gs, dists(i, segs))),
                                  (j for lo, hi, _ in segs for j in range(lo, hi))):
            return None
    judge.tests = tests
    return judge


def _candidates(dists: Callable, rows: Iterator[tuple[int, list[float]]],
                adj: list[list[tuple]]) -> Optional[_Cut]:
    """The float pass of _float_filter on bounded rows, by position of
    _spanning_tree's preorder: _walk yields (i, row) with row[k] an upper
    bound on the float distance between positions i and i + 1 + k, and
    dists(i, ((i + 1, n, 0),)) gives the float distances in its places. The
    root's row is all math.inf, and a child's is its parent's plus the
    weight of the edge between them. Before a row is judged, _dijkstra from
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
    for i, row in rows:
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


def _spanning_ratios(d: Drawing) -> Iterator[Interval]:
    """spanning_ratio's enclosures, one per precision: exact rows behind the
    float filter. A tree takes them from its integer root distances R along
    its breadth-first tree: every pair from _walk, rerooted exactly, and the
    candidates as R[u] + R[v] - 2 R[lca]. Other rows come from Dijkstra,
    stopped once their targets are settled."""
    g, n = d.graph, d.graph.n

    def rows(lo_w, hi_w, groups):
        if g.m == n - 1:
            order, up, size = _spanning_tree(g, bfs_parents(g))
            (w_lo, r_lo), (w_hi, r_hi) = _tree_weights(order, up, lo_w), _tree_weights(order, up, hi_w)
            if groups is None:
                walks = _walk(up, size, w_lo, r_lo[1:], sub), _walk(up, size, w_hi, r_hi[1:], sub)
                for (i, row_lo), (_, row_hi) in zip(*walks):
                    yield order[i], order[i + 1:], row_lo, row_hi
                return
            pos = [0] * n
            for i, v in enumerate(order):
                pos[v] = i

            def lca(i: int, j: int) -> int:
                while not i <= j < i + size[i]:
                    i = up[i]
                return i

            for u, targets in groups:
                i = pos[u]
                js = [pos[v] for v in targets]
                tops = [lca(i, j) for j in js]
                yield (u, targets, [r_lo[i] + r_lo[j] - 2 * r_lo[a] for j, a in zip(js, tops)],
                       [r_hi[i] + r_hi[j] - 2 * r_hi[a] for j, a in zip(js, tops)])
            return
        adj_lo, adj_hi = _weighted_adj(n, lo_w), _weighted_adj(n, hi_w)
        for u, targets in _every(n) if groups is None else groups:
            dist_lo, dist_hi = _dijkstra(adj_lo, u, targets), _dijkstra(adj_hi, u, targets)
            yield u, targets, [dist_lo[v] for v in targets], [dist_hi[v] for v in targets]

    return _ratio_enclosures(d, _START_BITS, rows, _float_filter)


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
