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

The spanning ratio brackets only the pairs that can still reach its
running lower bound t, in exact integers, so its enclosure equals the full
scan's at any bit size (the pruned dilation computation of Narasimhan and
Smid, "Geometric Spanner Networks", 2007). One branch-and-bound pass does
it, _pruned_scan, the dual-tree form of the scan (Gray and Moore, "N-Body
Problems in Statistical Learning", NIPS 2000). It walks a rooted tree in
preorder, bounds the dist_hi of each pair by root distances along it,
skips a block of pairs, two subtrees or positions alone under one lowest
common ancestor, whose bound is too short for the gap between its two
bounding boxes to reach t, and brackets each pair it keeps at once, in
the same loop. Two tests skip a block. The axis-slab test comes first:
where the two boxes lie apart along x, by a gap g, every pair's bound
exceeds its x-progress by at most the largest R L + x 2**bits of one node
plus the largest R L - x 2**bits of the other, less the ancestor term,
and the block is skipped when that excess stays below (t - 1) g at the
scale of the bound; along y the same. It holds where a subtree's box
lies near the other node but its deep positions, those of large R, lie
far from it. Failing it, the box test divides the largest root
distances by the Euclidean gap between the boxes. A block that neither
test skips is split at its node with more positions, a subtree before a
position alone, until two positions alone are left: that pair is
bracketed. The pass runs over one of two trees:
- where coordinates run past 53 bits, first the far order's chain. The
  planar and proper constructions put vertex k more than k delta /
  epsilon away from the vertices placed before it, and the paper's proof
  of the 1 + epsilon bound rests on that gap. Sorted by (y, x), or else by
  (x, y), each vertex v_k has an earlier neighbor w_k, and the chain is
  that order rooted at its last vertex, so that the subtree of v_k is the
  prefix v_0 .. v_k (_far_order). Its root distances run along the edges
  (v_k, w_k) on integer bounds of their lengths, c_k = a + ceil(b / 2) for
  a >= b the absolute offsets, with no square root (_far_roots), and the
  gap of v_k to the box of a prefix is, on the planar drawings, vertical,
  bracketed by one division (_length). The benchmark's planar and proper
  drawings bracket about one pair per vertex per precision. A drawing
  with no such order, or whose pass needs more than _FAR_PAIRS pairs per
  vertex, hands over to the next, with the running bounds of the pairs it
  bracketed.
- the graph's own tree everywhere else: on a tree the tree itself, on
  any other graph a minimum spanning tree of the squared edge lengths
  (_prim).
A tree is rooted once per call, at vertex 0, by one depth-first walk of
its adjacency lists (_spanning_tree), and every exact tree distance is
R[u] + R[v] - 2 R[lca] on integer root distances; on any other graph a
pair's distances come from Dijkstra, stopped at its target and resumed
while the source stays the same. Connectivity takes no walk of its own:
on n - 1 edges the tree's walk fails when it revisits or misses a vertex,
and on any other graph the far order exists only on a connected graph,
and otherwise Prim's tree must reach every vertex. The oracles of
tests/oracles.py share none of this code: each checks connectivity, finds
the closest pair and scans every pair itself, on all-pairs Dijkstra
distances at the same precisions, whose enclosure must be this one, or on
Floyd–Warshall distances from 128 bits, whose enclosure must meet it.

Three certificates sweep the integer points instead of scanning all pairs,
with the same verdicts and values:
- is_planar_drawing: a Shamos–Hoey sweep (Shamos and Hoey, "Geometric
  intersection problems", FOCS 1976) in lexicographic order that checks
  the order of its status at the events: O(m log m) orientations, no
  crossing test on a planar drawing, and one to confirm a False;
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
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .drawing import Drawing
from .errors import DisconnectedDrawingError, NoEdgesError, PrecisionExhausted
from .exact import Interval, isqrt_scaled, sqrt_interval
from .geometry import (
    FLOAT_BITS,
    IntPoint,
    any_three_collinear,
    coincident,
    coord_bits,
    dist_sq,
    in_segment_interior,
    orientation,
    segments_cross_improperly,
)
from .graph import Graph

DEFAULT_REL_TOL = Fraction(1, 10**9)
_START_BITS = 64
_MAX_BITS = 16384


class MetricReport(NamedTuple):
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


def _length(p: IntPoint, q: IntPoint, L: int, bits: int) -> tuple[int, int]:
    """The bracket (lo, hi) of |pq| 2**bits / L for integer points p and q,
    hi - lo <= 1: isqrt_scaled(dist_sq(p, q), L**2, bits), number for
    number.

    An axis-parallel segment needs no square root. With dx = 0 or dy = 0,
    and a = |dx + dy| 2**bits, the scaled length is a / L, and m, r =
    divmod(a, L) gives (m, m + (r != 0)). That is isqrt_scaled's bracket,
    whose square is a**2 = dist_sq(p, q) 4**bits: m = floor(a / L) has
    m <= a / L < m + 1, so m**2 <= floor(a**2 / L**2) < (m + 1)**2, and the
    integer square root of floor(a**2 / L**2) is m; the root is exact,
    lo = hi, iff a**2 = m**2 L**2, that is iff L divides a."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    if dx and dy:
        return isqrt_scaled(dx * dx + dy * dy, L * L, bits)
    m, r = divmod(abs(dx + dy) << bits, L)
    return m, m + (r != 0)


class _Brackets(dict):
    """One precision's edge brackets: edge (u, v), u < v, to its _length
    bracket (lo, hi) at scale 2**bits over the denominator L of the integer
    coords, computed on its first read. _tree_weights fills in a walk
    tree's edges in its own loop; any other edge is bracketed only when
    _dijkstra relaxes it."""

    __slots__ = ("coords", "L", "bits")

    def __init__(self, coords: Sequence[IntPoint], L: int, bits: int):
        self.coords, self.L, self.bits = coords, L, bits

    def __missing__(self, e: tuple[int, int]) -> tuple[int, int]:
        b = self[e] = _length(self.coords[e[0]], self.coords[e[1]], self.L, self.bits)
        return b


def _enclosure(best: list) -> Interval:
    """The enclosure of the running ratio bounds best = [(num, den), (num,
    den)] of a pass, lower then upper, each at least 1."""
    lo = max(Fraction(*best[0]), Fraction(1))
    return Interval(lo, max(Fraction(*best[1]), lo))


def _spanning_ratios(d: Drawing) -> Iterator[Interval]:
    """spanning_ratio's certified enclosures, one per working precision.
    Coincident vertices give the one infinite interval.

    Each pair's ratio lies in [dist_lo/e_hi, dist_hi/e_lo], where e_lo, e_hi
    bracket its Euclidean distance at the same scale, so the scales cancel.
    A distance is bracketed from its integer square Q over L**2, which gives
    the same brackets as the reduced rational Q/L**2 would, or, on a
    vertical or horizontal segment, from its integer length over L, which
    gives the same brackets again (_length).

    At b bits or more, with b the least integer with closest * 4**b >= L**2
    (closest the least squared pair distance), every pair brackets away from
    0. The precisions are 64, 128, ..., or, when b exceeds 64, 128 + b,
    256 + b, ... (_precisions).

    A pair's exact distances come from dist(u, v), one closure per
    precision, under the lower and the upper integer edge-length brackets
    kept in that precision's table (_Brackets), which brackets only the
    edges a pass reads. On a tree dist is R[i] + R[j] - 2 R[lca] on its
    preorder tree (_tree_dist), built once and walked by the pruned pass
    too, and on the root distances that _tree_weights takes
    once per precision over every edge; on any other graph it is Dijkstra
    (_graph_dist), which brackets the edges it relaxes. Where coordinates
    run past 53 bits, each precision first runs the pruned pass
    (_pruned_scan) over the far order's chain, whose root distances bracket
    no edge. Where there is no chain, or its pass would bracket more than
    _FAR_PAIRS pairs per vertex, the pass runs over the graph's own tree,
    from the chain pass's running bounds and with the same dist; on a graph
    that is not a tree that tree is built then, once, and its edges
    bracketed per precision by _tree_weights. Either pass brackets only
    pairs that can reach the running lower bound, so the enclosure is the
    full scan's whichever way it went.
    """
    g = d.graph
    if g.n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    coords, L = d.points, d.den
    # Connectivity comes from the walk the pass needs, before the
    # coincident-vertex check: on n - 1 edges the tree's own walk, else the
    # far order, else Prim's tree, which otherwise waits for a hand-over.
    tree_sized = g.m == g.n - 1
    tree = _spanning_tree(g.adj) if tree_sized else None
    far = _far_order(g, coords) if coord_bits(coords) > FLOAT_BITS else None
    # the graph's tree for the pruned pass
    walk = tree if tree_sized or far is not None else _spanning_tree(_prim(g.adj, coords))
    if walk is None and far is None:
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    closest = d.closest_sq
    if closest == 0:
        yield Interval(math.inf, math.inf)
        return
    inverse = -(-(L * L) // closest)  # ceil(L**2 / closest)
    b = ((inverse - 1).bit_length() + 1) // 2
    for bits in _precisions(b if b > _START_BITS else 0):
        brackets = _Brackets(coords, L, bits)
        roots = None if tree is None else _tree_weights(tree, brackets)
        dist = _graph_dist(g.adj, brackets) if roots is None else _tree_dist(tree, roots)
        best = [(0, 1), (0, 1)]
        if far is not None:
            chain, steps = far
            U = _far_roots(steps, L, bits)
            if not _pruned_scan(chain, U, [0] * g.n, brackets, dist, best, _FAR_PAIRS * g.n):
                far = None  # not far-placed enough: the graph's tree from here on
        if far is None:
            if walk is None:
                walk = _spanning_tree(_prim(g.adj, coords))
            R = roots[1] if roots else _tree_weights(walk, brackets)[1]
            _pruned_scan(walk, R, R, brackets, dist, best)
        yield _enclosure(best)


# The chain pass brackets at most _FAR_PAIRS pairs per vertex and precision
# before it hands over to the graph's tree. By measurement the benchmark's
# planar and proper drawings take at most 1.1, planar ones of n <= 10 up to
# 3, and a deep tree-proper drawing 53, which the graph's tree serves in few.
_FAR_PAIRS = 3


def _far_order(g: Graph, coords: Sequence[IntPoint]) -> Optional[tuple[_Tree, list[tuple[int, int]]]]:
    """The far order's chain and its steps, or None.

    The order v_0, ..., v_{n-1} is the vertices sorted by (y, x), or else
    by (x, y), the first in which every vertex after the first has a
    neighbor earlier in the order; None when neither has. A drawing file
    holds no construction order, so the order comes from the points: the
    planar construction puts each vertex above the ones before it, the
    proper one to their right. The chain is the order as a _Tree rooted at
    v_{n-1}: positions reversed, up = [0, 0, 1, ..., n - 2] and
    end = [n] * n, so the subtree of v_k is the prefix v_0 .. v_k.
    steps[k - 1] = (c_k, j) for k >= 1, v_j = w_k the earlier neighbor of
    v_k with the least c_k = a + ceil(b / 2), a >= b the absolute offsets
    of their edge (_far_roots)."""
    n = g.n
    for i, j in ((1, 0), (0, 1)):
        order = sorted(range(n), key=lambda v: (coords[v][i], coords[v][j]))
        pos = [0] * n
        for k, v in enumerate(order):
            pos[v] = k
        steps = []
        for k in range(1, n):
            v = order[k]
            x, y = coords[v]
            ends = []
            for w in g.adj[v]:
                if pos[w] < k:
                    a, b = abs(x - coords[w][0]), abs(y - coords[w][1])
                    ends.append((max(a, b) + (min(a, b) + 1) // 2, pos[w]))
            if not ends:
                break
            steps.append(min(ends))
        else:
            order.reverse()
            return _Tree(order, [n - 1 - k for k in pos], [0] + list(range(n - 1)), [n] * n), steps
    return None


def _far_roots(steps: list[tuple[int, int]], L: int, bits: int) -> list[int]:
    """The chain's root distances at scale 2**bits, by position, for the
    steps of _far_order: U_0 = 0 and U_k = U_j + ceil(c_k 2**bits / L).
    (a + b/2)**2 = a**2 + ab + b**2/4 >= a**2 + b**2, as ab >= b**2, so
    c_k 2**bits / L is at least the scaled length s of the edge (v_k, w_k),
    equal on a vertical or horizontal one, and its ceiling at least the
    edge's upper bracket, isqrt_scaled's s or floor(s) + 1. So U_k + U_u,
    a path from v_k through v_0 to u in bounds on the upper brackets, is
    at least dist_hi(v_k, u): no edge bracketed, no square root."""
    U = [0]
    for c, j in steps:
        U.append(U[j] + -(-(c << bits) // L))
    U.reverse()
    return U


def _pruned_scan(tree: _Tree, R: list, low: list, brackets: _Brackets, dist: Callable, best: list,
                 budget: float = math.inf) -> bool:
    """Branch and bound over pairs of subtrees of tree, a rooted tree on the
    drawing's vertices in preorder, at the precision of brackets. Each pair
    (u, v) it keeps is bracketed at once, by dist(u, v) and _length, into
    the running ratio bounds best of _enclosure, which may hold an earlier
    pass's. It returns False, leaving the pair unbracketed, at a pair past
    the first budget ones, and True when it finishes.

    R holds root distances and low an ancestor term, by position, such
    that for each pair of positions i < j, with c their lowest common
    ancestor, R[i] + R[j] - 2 low[c] bounds dist_hi. Two trees give them:
    - a spanning tree of the drawing's graph, R its root distances under
      the upper edge brackets (_tree_weights) and low = R: the bound is
      the tree path's length under those brackets;
    - the far order's chain (_far_order), R = U its root distances on
      integer bounds of the upper brackets (_far_roots) and low = 0: U_k +
      U_u bounds a path from v_k through v_0 to u. The parts of v_k are v_k
      alone and the prefix v_0 .. v_{k-1}, whose split gives v_{k-1} alone
      and the prefix before it. low = R would be unsound here: U_k + U_u -
      2 U_k is no path's length.
    A node is a subtree x of more than one position, with hmax[x] its
    largest R and its integer bounding box, or a position x alone, with
    R[x] and the box of its point, of width and height 0. A node also holds,
    over its positions i, the largest PX = R[i] L + x_i 2**bits and MX =
    R[i] L - x_i 2**bits, and PY and MY the same with y, L the denominator
    of the coords; none depends on t, so they are built once per pass, in
    the bottom-up loop that builds the boxes. For each c, from n - 1 down
    to 0, the parts of c are c alone and its child subtrees, and the pairs
    with ancestor c are those of the blocks (P, Q), P before Q in the parts
    of c. When a block comes, let t be the running largest dist_lo/e_hi
    rounded down to p / 2**64, and hP, hQ the nodes' hmax.
    - The slab test, first. When P's box lies left of Q's, by g = X0[Q] -
      X1[P] > 0 in numerator units, the block is skipped when
      PX[P] + MX[Q] - 2 low[c] L + ceil(p L / 2**64) < F g,
      F = floor((p - 2**64) 2**bits / 2**64); when P's box lies right of
      Q's, MX[P] + PX[Q] with the gap X0[P] - X1[Q], and along y the same.
      Take u in P and v in Q, and D = x_v - x_u >= g. Then
      L (R[u] + R[v] - 2 low[c]) = PX(u) + MX(v) - 2 low[c] L + 2**bits D,
      either tree gives dist_hi <= R[u] + R[v] - 2 low[c], and e_lo >
      |uv| 2**bits / L - 1 >= D 2**bits / L - 1.
      A path is no shorter than the segment, so dist_hi >= D 2**bits / L
      and PX(u) + MX(v) - 2 low[c] L >= 0: the test fails unless F > 0,
      and then F g <= F D <= (t - 1) 2**bits D. With ceil(p L / 2**64) >=
      t L the test gives L dist_hi < (t - 1) 2**bits D - t L + 2**bits D =
      t (2**bits D - L) < t L e_lo, so dist_hi < t e_lo.
    - Failing both slabs, the box test: the block is skipped when
      ((hP + hQ - 2 low[c]) 2**64 + p)**2 L**2 < p**2 box**2 2**(2 bits),
      where box**2 is the squared integer distance between the two boxes.
      Let E = sqrt(box**2) 2**bits / L, at most the scaled distance from
      any point of one box to any of the other. Then every pair (i, j) of
      the block has e_lo > E - 1, and the test gives
      dist_hi <= hP + hQ - 2 low[c] < (p / 2**64)(E - 1) <= t e_lo.
    - Otherwise the node with more positions is split into its own parts,
      P on a tie, each paired with the other node in a block of the same
      c. Each pair of the block lies in exactly one of them, so at every
      stage each pair with ancestor c lies in exactly one block. A subtree
      holds more positions than a position alone, so only two positions
      alone, i < j, are left unsplit: the pair (order[i], order[j]) is
      bracketed, and p taken again if it raises t.
    t only rises, and is set by real pairs only, those of an earlier pass
    too, so every pair skipped has dist_lo/e_hi <= dist_hi/e_lo < T, T the
    final t. It moves neither the lower bound, T, nor the upper bound,
    which is at least dist_hi/e_lo >= T of the pair that set T. The
    enclosure is the full scan's, number for number, at any bit size.

    Blocks that share their first node P come together, (P, Qs), in one
    loop for every kind of node: each Q, from the last, is skipped, split
    when it holds more positions, bracketed when both are positions alone,
    or else kept; then P is split and each of its parts takes the kept nodes.
    P's box and (hP - 2 low[c]) 2**64 + p are read once per P, the latter
    again when p rises, and F and m = ceil(p L / 2**64) - 2 low[c] L, the
    slab test's offset, once per c and again when p rises. The parts of
    c, and of every split, come from the last in preorder, so the first
    pairs lie deep and lift t early. The blocks of a c are made as the walk
    reaches them, so a star's (n - 1)(n - 2)/2 sibling blocks are never
    stored. The shift by 64 bits and the small p keep the products short
    on big coordinates."""
    order, up, end = tree.order, tree.up, tree.end
    coords, L, bits = brackets.coords, brackets.L, brackets.bits
    n = len(order)
    den = L * L
    xs = [coords[v][0] for v in order]
    ys = [coords[v][1] for v in order]
    rl = [r * L for r in R]
    xb = [x << bits for x in xs]
    yb = [y << bits for y in ys]
    # Node x < n is the subtree of position x, node n + x position x alone:
    # each list by node starts as its positions' values twice over, and the
    # loop below lifts the first half to subtree maxima (minima for X0 and
    # Y0). parts[x] holds the parts of position x as nodes.
    hmax, X0, X1, Y0, Y1 = R * 2, xs * 2, xs * 2, ys * 2, ys * 2
    PX = [r + x for r, x in zip(rl, xb)] * 2
    MX = [r - x for r, x in zip(rl, xb)] * 2
    PY = [r + y for r, y in zip(rl, yb)] * 2
    MY = [r - y for r, y in zip(rl, yb)] * 2
    for c in range(n - 1, 0, -1):
        a = up[c]
        if hmax[c] > hmax[a]:
            hmax[a] = hmax[c]
        if X0[c] < X0[a]:
            X0[a] = X0[c]
        if X1[c] > X1[a]:
            X1[a] = X1[c]
        if Y0[c] < Y0[a]:
            Y0[a] = Y0[c]
        if Y1[c] > Y1[a]:
            Y1[a] = Y1[c]
        if PX[c] > PX[a]:
            PX[a] = PX[c]
        if MX[c] > MX[a]:
            MX[a] = MX[c]
        if PY[c] > PY[a]:
            PY[a] = PY[c]
        if MY[c] > MY[a]:
            MY[a] = MY[c]
    parts = [[n + x] for x in range(n)]
    for x in range(1, n):
        parts[up[x]].append(x if end[x] - x > 1 else n + x)
    best_lo, best_hi = best
    p = (best_lo[0] << 64) // best_lo[1]
    bound = (p * p) << 2 * bits
    f = ((p - (1 << 64)) << bits) >> 64
    stack = []
    for c in range(n - 1, -1, -1):
        top = parts[c]
        if len(top) < 2:
            continue
        two_rc = low[c] << 65
        o = p - two_rc
        two_lc = low[c] * L << 1
        m = -(-(p * L) >> 64) - two_lc
        for k in range(len(top) - 2, -1, -1):
            stack.append((top[k], top[k + 1:]))
            while stack:
                a, later = stack.pop()
                nodes = list(later)
                # Node a against the nodes, from the last: each is skipped,
                # split when it holds more positions, bracketed when both
                # are positions alone, or else kept; then a is split.
                ax0, ax1, ay0, ay1 = X0[a], X1[a], Y0[a], Y1[a]
                size = end[a] - a if a < n else 1
                ha = (hmax[a] << 64) + o
                keep = []
                while nodes:
                    b = nodes.pop()
                    if X0[b] > ax1:
                        gx = X0[b] - ax1
                        if PX[a] + MX[b] + m < f * gx:
                            continue
                    elif ax0 > X1[b]:
                        gx = ax0 - X1[b]
                        if MX[a] + PX[b] + m < f * gx:
                            continue
                    else:
                        gx = 0
                    if Y0[b] > ay1:
                        gy = Y0[b] - ay1
                        if PY[a] + MY[b] + m < f * gy:
                            continue
                    elif ay0 > Y1[b]:
                        gy = ay0 - Y1[b]
                        if MY[a] + PY[b] + m < f * gy:
                            continue
                    else:
                        gy = 0
                    if gx or gy:
                        h = (hmax[b] << 64) + ha
                        if h * h * den < bound * (gx * gx + gy * gy):
                            continue
                    if b < n and end[b] - b > size:
                        nodes += parts[b]
                    elif a < n:
                        keep.append(b)
                    else:
                        budget -= 1
                        if budget < 0:
                            return False
                        u, v = order[a - n], order[b - n]
                        g_lo, g_hi = dist(u, v)
                        e_lo, e_hi = _length(coords[u], coords[v], L, bits)
                        if g_hi * best_hi[1] > best_hi[0] * e_lo:
                            best_hi = best[1] = (g_hi, e_lo)
                        if g_lo * best_lo[1] > best_lo[0] * e_hi:
                            best_lo = best[0] = (g_lo, e_hi)
                            p = (g_lo << 64) // e_hi
                            bound = (p * p) << 2 * bits
                            f = ((p - (1 << 64)) << bits) >> 64
                            o = p - two_rc
                            ha = (hmax[a] << 64) + o
                            m = -(-(p * L) >> 64) - two_lc
                if keep:
                    keep.reverse()
                    stack += [(s, keep) for s in parts[a]]
    return True


class _Tree(NamedTuple):
    """A rooted spanning tree by preorder position: order[i] is the vertex at
    position i and pos its inverse, up[i] the parent's position (up[0] = 0),
    and i .. end[i] - 1 the positions of i's subtree."""

    order: list[int]
    pos: list[int]
    up: list[int]
    end: list[int]

    def lca(self, i: int, j: int) -> int:
        """The lowest common ancestor of positions i and j, walking up from i."""
        while not i <= j < self.end[i]:
            i = self.up[i]
        return i


def _spanning_tree(adj: Sequence[Sequence[int]]) -> Optional[_Tree]:
    """The preorder tree of the graph of adjacency lists adj, rooted at
    vertex 0, children in reverse adjacency order, from one depth-first
    walk with a stack; None when the walk revisits a vertex or misses one.
    A vertex's children are its neighbors but the one it is reached from,
    so on a graph of n - 1 edges, such as _prim's tree, the walk revisits a
    vertex of a cycle or misses a vertex exactly when the graph is not a
    tree. The walk takes at most n positions, each under an earlier one."""
    n = len(adj)
    order: list[int] = []
    up: list[int] = []
    pos = [-1] * n
    above = [0] * n  # the position each vertex was last reached from
    stack = [0]
    while stack and len(order) < n:
        u = stack.pop()
        if pos[u] >= 0:
            return None  # revisited: the graph has a cycle
        i = pos[u] = len(order)
        order.append(u)
        a = above[u]
        up.append(a)
        w = order[a]  # u itself at the root, which no neighbor is
        for v in adj[u]:
            if v != w:
                above[v] = i
                stack.append(v)
    if len(order) < n:
        return None  # missed: the graph is not connected
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    return _Tree(order, pos, up, [i + k for i, k in enumerate(size)])


def _prim(adj: Sequence[Sequence[int]], coords: Sequence[IntPoint]) -> list[list[int]]:
    """The adjacency lists of a minimum spanning tree, under the squared
    integer edge lengths, of the component of vertex 0 (Prim, from vertex
    0; heap ties break by (weight, vertex)): each vertex's neighbors in adj
    that are its parent or its children, in the order of adj."""
    parent: list = [None] * len(adj)
    done = [False] * len(adj)
    heap = [(0, 0, None)]
    while heap:
        _, v, p = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        parent[v] = p
        for u in adj[v]:
            if not done[u]:
                heapq.heappush(heap, (dist_sq(coords[u], coords[v]), u, v))
    return [[u for u in a if parent[u] == v or parent[v] == u] for v, a in enumerate(adj)]


def _tree_weights(t: _Tree, brackets: _Brackets) -> tuple[list, list]:
    """The distances from the root along the tree under the lower and the
    upper edge brackets, by position of t. Every tree edge is bracketed
    here, in one loop, and kept in brackets."""
    order, up = t.order, t.up
    coords, L, bits = brackets.coords, brackets.L, brackets.bits
    r_lo, r_hi = [0] * len(order), [0] * len(order)
    for i in range(1, len(order)):
        u, a = order[i], up[i]
        p = order[a]
        lo, hi = brackets[(u, p) if u < p else (p, u)] = _length(coords[u], coords[p], L, bits)
        r_lo[i], r_hi[i] = r_lo[a] + lo, r_hi[a] + hi
    return r_lo, r_hi


def _dijkstra(adj: list[list[int]], brackets: _Brackets, side: int, source: int) -> Iterator[tuple]:
    """Dijkstra from source over the adjacency lists, each edge weighted by
    its lower (side 0) or upper (side 1) bracket: each vertex reached, with
    its shortest-path distance, as it is settled. An edge is bracketed only
    when it is relaxed, and not toward a vertex already as near as the one
    settled. A caller reads only as far as it needs, and may come back for
    more."""
    dist = [math.inf] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        yield u, du
        for v in adj[u]:
            if dist[v] <= du:
                continue  # no edge weight is negative
            dv = du + brackets[(u, v) if u < v else (v, u)][side]
            if dv < dist[v]:
                dist[v] = dv
                heapq.heappush(heap, (dv, v))


def _graph_dist(adj: list[list[int]], brackets: _Brackets) -> Callable:
    """dist(u, v) for _pruned_scan on a connected graph with adjacency lists
    adj: the exact distances (dist_lo, dist_hi) under the lower and the
    upper edge brackets, from Dijkstra stopped once v is settled and
    resumed for the next pair while the source u stays the same."""
    source = searches = None

    def dist(u: int, v: int) -> tuple[int, int]:
        nonlocal source, searches
        if u != source:
            source, searches = u, [(_dijkstra(adj, brackets, side, u), {}) for side in (0, 1)]
        for search, settled in searches:
            while v not in settled:
                w, dw = next(search)
                settled[w] = dw
        return searches[0][1][v], searches[1][1][v]

    return dist


def _tree_dist(t: _Tree, roots: tuple[list, list]) -> Callable:
    """The dist of _graph_dist on a tree t: R[i] + R[j] - 2 R[a] under
    either edge bracket, R the integer root distances of roots
    (_tree_weights), i and j the positions of u and v and a their lowest
    common ancestor (_Tree.lca)."""
    r_lo, r_hi = roots
    pos, lca = t.pos, t.lca

    def dist(u: int, v: int) -> tuple[int, int]:
        i, j = pos[u], pos[v]
        a = lca(i, j)
        return r_lo[i] + r_lo[j] - 2 * r_lo[a], r_hi[i] + r_hi[j] - 2 * r_hi[a]

    return dist


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

    A Shamos–Hoey sweep that checks the order of its status at the events
    instead of testing pairs of neighbors, as checkers of planar
    subdivisions do (Devillers, Liotta, Preparata and Tamassia, "Checking
    the convexity of polytopes and the planarity of subdivisions", CGTA
    1998). Each edge is a segment (l, r), l < r in (x, y) order, which
    treats a vertical edge as slightly rotated; equal segments count once.
    The vertices are sorted once by point. At each distinct point p, with
    coincident vertices together, the sweep first deletes every active
    segment that ends at p, then inserts every one that starts at p. A
    point c lies strictly above the segment (a, b) when orientation(a, b,
    c) > 0, strictly below when it is < 0.
    - Insertion of (p, r): a binary search in the status, bottom to top, on
      the orientation of p against the probed segment, or of r against the
      probe's right end when the probe also starts at p. When the search
      ends, the final lo - 1 was probed with (p, r) strictly above it and
      the final lo with it strictly below, so the new segment starts
      strictly between its two neighbors. No crossing test runs.
    - Deletion of s = (q, p): p must lie strictly above the segment just
      below s and strictly below the one just above s, two orientations;
      a neighbor that also ends at p is exempt.
    A failed check, or a zero, is confirmed by segments_cross_improperly,
    which the proof says always holds (an assert), and gives False. That
    is O(m log m) orientations, and at most one crossing test.

    Proof. (i) Every False is an improper meeting. Two segments become
    adjacent in the status only at an event p where the lower is strictly
    below the upper: at an insertion the probes show it, and at a deletion
    the checks that just passed show it (a neighbor that ends at p leaves
    at p too). So a strict failure at the deletion of s = (q, p) against a
    neighbor t means that the two changed sides between two events where
    both were active, and they meet: not at p, an end of s but not of t,
    nor at a common left end q, from which the two keep the order of their
    right ends unless they overlap. A zero means that p lies on an active
    segment but is not one of its ends (every active one has l < p < r
    there), or that two segments overlap from their common left end p.
    (ii) Every improper meeting gives a False. Let X be the least point, in
    (x, y) order, where two segments meet improperly (for two that overlap
    from a common left end, that end), and s, t such a pair (Shamos and
    Hoey's argument, "Geometric intersection problems", FOCS 1976). Before
    X, no check fails and the status is in the order of the segments along
    the sweep.
    - X an end of s: the event at X gives a zero. An insertion's search
      cannot pass the segments through X without probing one of them, and
      of the segments that end at X between s and the nearest segment
      through X, the last deleted is checked against that one.
    - X interior to both: then s and t cross there and are adjacent just
      before X, or another pair through X is. After X nothing can be
      inserted between them: that would need a point strictly above one
      and strictly below the other, where they have swapped. So they stay
      adjacent until the first of them is deleted, and that deletion's
      check fails or gives zero.
    """
    coords = d.points
    adj = d.graph.adj
    order = sorted(range(len(coords)), key=coords.__getitem__)
    status: list[tuple[IntPoint, IntPoint]] = []  # active segments (l, r), bottom to top
    k, n = 0, len(order)
    while k < n:
        u = order[k]
        p = coords[u]
        others = [coords[v] for v in adj[u]]
        k += 1
        while k < n and coords[order[k]] == p:
            others += [coords[v] for v in adj[order[k]]]
            k += 1
        px, py = p
        last = None
        for q in sorted(others):  # the ends q < p, then the starts q > p
            if q == last:
                continue  # an equal segment, through coincident vertices
            last = q
            if q < p:
                s = (q, p)
                i = status.index(s)
                del status[i]
                if i:
                    t = status[i - 1]
                    (ax, ay), b = t
                    if b != p and (b[0] - ax) * (py - ay) - (b[1] - ay) * (px - ax) <= 0:
                        return _crossing(t, s)
                if i < len(status):
                    t = status[i]
                    (ax, ay), b = t
                    if b != p and (b[0] - ax) * (py - ay) - (b[1] - ay) * (px - ax) >= 0:
                        return _crossing(t, s)
            elif q > p:
                s = (p, q)
                lo, hi = 0, len(status)
                while lo < hi:
                    mid = (lo + hi) // 2
                    a, b = status[mid]
                    o = orientation(p, b, q) if a == p else orientation(a, b, p)
                    if o > 0:
                        lo = mid + 1
                    elif o < 0:
                        hi = mid
                    else:
                        return _crossing(status[mid], s)
                status.insert(lo, s)
            else:
                return False
    return True


def _crossing(t: tuple[IntPoint, IntPoint], s: tuple[IntPoint, IntPoint]) -> bool:
    """False, for is_planar_drawing, once segments_cross_improperly confirms
    that segments t and s meet improperly, as its proof says they do."""
    assert segments_cross_improperly(*t, *s), (t, s)
    return False


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
    # So is a planar drawing with distinct points and no isolated vertex: a
    # vertex p with an edge pq, inside another edge ab, meets ab at p, an end
    # of pq but not of ab, and is_planar_drawing flags exactly such a point.
    collinear_free = no_three_collinear(d)
    planar = is_planar_drawing(d)
    proper = (collinear_free or (planar and all(g.adj) and not coincident(d.points))
              or is_proper_drawing(d))
    sr: Optional[Interval] = None
    if g.n >= 2:
        try:
            sr = spanning_ratio(d, rel_tol)
        except DisconnectedDrawingError:
            pass
    elr: Optional[Interval] = None
    if g.m >= 1:
        elr = edge_length_ratio(d, rel_tol)
    return MetricReport(
        spanning_ratio=sr,
        edge_length_ratio=elr,
        width=width,
        height=height,
        planar=planar,
        proper=proper,
        no_three_collinear=collinear_free,
        min_pairwise_distance_sq=min_pairwise_distance_sq(d) if g.n >= 2 else None,
    )
