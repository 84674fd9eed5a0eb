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
Smid, "Geometric Spanner Networks", 2007). Two passes do it, each on
_scan's running bounds:
- the far-placement pass (_far_scan), where coordinates run past 53 bits.
  The planar and proper constructions put vertex k more than k delta /
  epsilon away from the vertices placed before it, and the paper's proof
  of the 1 + epsilon bound rests on that gap. Sorted by (y, x), or else by
  (x, y), each vertex v_k has an earlier neighbor w_k, so every pair of v_k
  with an earlier vertex has dist_hi at most hi(v_k, w_k) plus D_k, the
  upper-bracket weight of the tree that the earlier vertices attach by,
  and e_lo at least gap_k, the lower bracket of v_k's distance to their
  bounding box: on the planar drawings a vertical distance, bracketed by
  one division and no square root (_length), as the edges and pairs on a
  vertical or horizontal line are. Only the sources whose bound B_k =
  (hi(v_k, w_k) + D_k) / gap_k reaches t are bracketed: 1-3 rows per
  precision on the benchmark's planar and proper drawings. A drawing with
  no such order, or whose bounds leave more than _FAR_ROWS sources, hands
  over to the next.
- the pruned pass (_pruned_scan), everywhere else. It walks a spanning
  tree in preorder (on a tree, the tree itself; on any other graph a
  minimum spanning tree of the squared edge lengths, _prim) and prunes
  pairs of subtrees at once, the dual-tree form of the scan (Gray and
  Moore, "N-Body Problems in Statistical Learning", NIPS 2000). A pair's
  tree path under the upper brackets, R[i] + R[j] - 2 R[c] with c its
  lowest common ancestor, bounds dist_hi; the pairs under each c form
  blocks, two subtrees or positions alone, and a block whose largest root
  distances are too short for the gap between its two bounding boxes to
  reach t is skipped whole. The others split until a pair of positions
  is bracketed.
A tree is rooted once per call, at vertex 0, and every exact tree distance
is R[u] + R[v] - 2 R[lca] on integer root distances; any other graph takes
Dijkstra rows, stopped at their targets and resumed while the source stays
the same. The oracles of tests/oracles.py
share none of this code: each checks connectivity, finds the closest pair
and scans every pair itself, on Dijkstra rows at the same precisions, whose
enclosure must be this one, or on Floyd–Warshall rows from 128 bits, whose
enclosure must meet it.

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


def _scan(coords: Sequence[IntPoint], L: int, bits: int, table, best: Optional[list] = None) -> Interval:
    """The pair loop of every enclosure: the ratio enclosure over the pairs
    (u, v), for each (u, targets, dist_lo, dist_hi) that table yields and v in
    targets, where dist_lo and dist_hi hold u's exact graph distances to the
    targets, in their order, under the lower and the upper edge brackets, at
    scale 2**bits over the denominator L of the integer coords (_length).
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
            e_lo, e_hi = _length(cu, coords[v], L, bits)
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
    the same brackets as the reduced rational Q/L**2 would, or, on a
    vertical or horizontal segment, from its integer length over L, which
    gives the same brackets again (_length).

    At b bits or more, with b the least integer with closest * 4**b >= L**2
    (closest the least squared pair distance), every pair brackets away from
    0. The precisions are 64, 128, ..., or, when b exceeds 64, 128 + b,
    256 + b, ... (_precisions).

    The exact rows come from rows(lo_w, hi_w, groups), under the lower and
    the upper integer edge-length brackets of a precision: on a tree from
    its breadth-first preorder tree (_tree_rows), built once and walked by
    the pruned pass too, and on any other graph from Dijkstra (_graph_rows).
    Where coordinates run past 53 bits, each precision first tries the
    far-placement pass (_far_scan). Where it does not apply, or hands over,
    the pruned pass (_pruned_scan) serves; on a graph that is not a tree
    its spanning tree is built then, once. Both bracket only pairs that
    can reach the running lower bound, so the enclosure is the full scan's
    whichever way it went.
    """
    g = d.graph
    if g.n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    # With n - 1 edges, one breadth-first walk both checks connectivity (no
    # parent is None but the root's) and roots the tree.
    parent = bfs_parents(g) if g.m == g.n - 1 else None
    connected = is_connected(g) if parent is None else parent.count(None) == 1
    if not connected:
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    coords, L, closest = d.points, d.den, d.closest_sq
    if closest == 0:
        yield Interval(math.inf, math.inf)
        return
    inverse = -(-(L * L) // closest)  # ceil(L**2 / closest)
    b = ((inverse - 1).bit_length() + 1) // 2
    tree = None if parent is None else _spanning_tree(g, parent)
    rows = partial(_graph_rows, g.n) if tree is None else partial(_tree_rows, tree)
    walk = tree  # the pruned pass's tree
    far = _far_order(g, coords) if _coord_bits(coords) > 53 else None
    for bits in _precisions(b if b > _START_BITS else 0):
        lo_w, hi_w = {}, {}
        for e in g.edges():
            lo_w[e], hi_w[e] = _length(coords[e[0]], coords[e[1]], L, bits)
        table_of = partial(rows, lo_w, hi_w)
        if far is not None:
            ivl = _far_scan(far, coords, L, bits, table_of, hi_w)
            if ivl is not None:
                yield ivl
                continue
            far = None  # not far-placed enough: the pruned pass from here on
        if walk is None:
            lengths = {(u, v): dist_sq(coords[u], coords[v]) for u, v in g.edges()}
            walk = _spanning_tree(g, _prim(_weighted_adj(g.n, lengths)))
        yield _pruned_scan(walk, coords, L, bits, table_of, hi_w)


def _coord_bits(coords: Sequence[IntPoint]) -> int:
    """The bit length of the largest absolute integer coordinate."""
    return max(abs(c).bit_length() for p in coords for c in p)


# The far-placement pass brackets at most _FAR_ROWS sources per precision
# before it hands over to the pruned pass. By measurement: the benchmark's
# planar and proper drawings past 53 bits need at most 3 (1.4 on average),
# planar ones of n = 320 up to 6; a drawing that is not far-placed, such as
# random points, needs nearly all of its sources, and the rows it brackets
# before it hands over are lost.
_FAR_ROWS = 8


class _Far(NamedTuple):
    """A vertex order v_0, ..., v_{n-1} of a drawing for _far_scan, and for
    each k >= 1, at steps[k - 1], the edge from v_k to its nearest earlier
    neighbor w_k and the offset (dx, dy) from the bounding box of
    v_0 .. v_{k-1} to v_k, on the integer coordinates: v_k's distance to the
    box is |(dx, dy)|."""

    order: list[int]
    steps: list[tuple[tuple[int, int], IntPoint]]


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
            steps.append(((v, w) if v < w else (w, v), (dx, dy)))
            x0, x1, y0, y1 = min(x0, x), max(x1, x), min(y0, y), max(y1, y)
        else:
            return _Far(order, steps)
    return None


def _far_scan(far: _Far, coords: Sequence[IntPoint], L: int, bits: int,
              table_of: Callable, hi_w: dict) -> Optional[Interval]:
    """The enclosure at scale 2**bits by branch and bound over the sources of
    far's order, each bracketed against the vertices before it:
    table_of(groups) gives their rows under the precision's edge brackets,
    of which hi_w are the upper ones. None when more than _FAR_ROWS sources need brackets.

    Every pair is (v_k, u) for exactly one k >= 1 and u before v_k. Let
    hi(e) be the upper bracket of edge e, D_k the sum of hi over the edges
    (v_j, w_j), 1 <= j < k, which form a spanning tree of v_0 .. v_{k-1},
    and gap_k the lower _length bracket of v_k's distance to their
    bounding box, |(dx, dy)| of its offset: a division, with no square
    root, when the offset is vertical or horizontal, as it is for every
    vertex of the planar construction, which goes above the ones before
    it. The bound is B_k = (hi(v_k, w_k) + D_k) / gap_k, infinite when
    gap_k = 0 (_far_bounds).
    - dist_hi(v_k, u) <= hi(v_k, w_k) + D_k: dist_hi is the least weight of
      a path under hi, and one path goes to w_k and then along the tree.
    - e_lo(v_k, u) >= gap_k: the box holds u, so |v_k u| is at least v_k's
      distance to it, and the lower bracket is monotone in the length.
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
    sources = sorted(_far_bounds(far, L, bits, hi_w), key=lambda s: s[0], reverse=True)
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

    ivl = _scan(coords, L, bits, table_of(groups()), best)
    return ivl if bracketed <= _FAR_ROWS else None


def _far_bounds(far: _Far, L: int, bits: int, hi_w: dict) -> list[tuple[float, int, int, int]]:
    """(key, num, gap, k) for each k >= 1 of far's order: _far_scan's bound
    B_k = num / gap at scale 2**bits from the upper edge brackets hi_w, and
    key its float value."""
    bounds = []
    tree = 0  # D_k
    for k, (edge, offset) in enumerate(far.steps, 1):
        w = hi_w[edge]
        gap = _length((0, 0), offset, L, bits)[0]
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


def _pruned_scan(tree: _Tree, coords: Sequence[IntPoint], L: int, bits: int,
                 table_of: Callable, hi_w: dict) -> Interval:
    """The enclosure at scale 2**bits by branch and bound over pairs of
    subtrees of tree, a spanning tree of the drawing's graph in preorder,
    table_of(groups) giving the rows of the pairs it keeps under the
    precision's edge brackets, of which hi_w are the upper ones.

    R holds the root distances of tree under hi_w. A node is a subtree x of
    more than one position, with hmax[x] its largest root distance and its
    integer bounding box, or a position x alone, with R[x] and its point; a
    leaf is a position alone. Each pair of positions i < j has one lowest
    common ancestor c, and its tree path, R[i] + R[j] - 2 R[c], bounds
    dist_hi. For each c, from n - 1 down to 0, the parts of c are c alone
    and its child subtrees, and the pairs with ancestor c are those of the
    blocks (P, Q), P before Q in the parts of c. When a block comes, let t
    be the running largest dist_lo/e_hi of _scan rounded down to p / 2**64,
    and hP, hQ the nodes' hmax or R.
    - The block is skipped when
      ((hP + hQ - 2 R[c]) 2**64 + p)**2 L**2 < p**2 box**2 2**(2 bits),
      where box**2 is the squared integer distance between the two boxes and
      L the denominator of coords. Let E = sqrt(box**2) 2**bits / L, at
      most the scaled distance from any point of one box to any of the
      other. Then every
      pair (i, j) of the block has e_lo > E - 1, and the test gives
      dist_hi <= hP + hQ - 2 R[c] < (p / 2**64)(E - 1) <= t e_lo.
    - Otherwise, when both nodes are positions alone, i < j, the pair is
      bracketed at once, as the group (order[i], [order[j]]).
    - Otherwise the node with the larger box (width plus height; a position
      alone has none) is split into its own parts, each paired with the
      other node in a block of the same c. Each pair of the block lies in
      exactly one of them, so at every stage each pair with ancestor c lies
      in exactly one block.
    t only rises, so every pair skipped has dist_lo/e_hi <= dist_hi/e_lo < T,
    T the final t. It moves neither the lower bound, T, nor the upper
    bound, which is at least dist_hi/e_lo >= T of the pair that set T. The
    enclosure is the full scan's, number for number, at any bit size.

    Blocks that share their first node P come together, (P, Qs): each Q,
    from the last, is skipped, split, or kept; then P alone walks the kept
    nodes, or P is split and each of its parts takes them all. The parts of
    c, and of every split, come from the last in preorder, so the first
    pairs lie deep and lift t early. The blocks of a c are made as the walk
    reaches them, so a star's (n - 1)(n - 2)/2 sibling blocks are never
    stored. The shift by 64 bits and the small p keep the products short
    on big coordinates."""
    order, up, end = tree.order, tree.up, tree.end
    n = len(order)
    R = _tree_weights(tree, hi_w)
    den = L * L
    xs = [coords[v][0] for v in order]
    ys = [coords[v][1] for v in order]
    hmax = R[:]
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
    # Node x < n is the subtree of position x, node n + x position x alone;
    # parts[x] holds the parts of position x as nodes, and wide[x] the
    # width plus height of node x's box.
    H = [h << 64 for h in hmax] + [r << 64 for r in R]
    X0, X1, Y0, Y1 = xlo + xs, xhi + xs, ylo + ys, yhi + ys
    wide = [x1 - x0 + y1 - y0 for x0, x1, y0, y1 in zip(xlo, xhi, ylo, yhi)] + [0] * n
    parts = [[n + x] for x in range(n)]
    for x in range(1, n):
        parts[up[x]].append(x if end[x] - x > 1 else n + x)
    best = [(0, 1), (0, 1)]

    def groups():
        p = bound = 0
        stack = []
        for c in range(n - 1, -1, -1):
            top = parts[c]
            if len(top) < 2:
                continue
            two_rc = H[n + c] << 1
            o = p - two_rc
            for k in range(len(top) - 2, -1, -1):
                stack.append((top[k], top[k + 1:]))
                while stack:
                    a, later = stack.pop()
                    nodes = list(later)
                    if a >= n:
                        # Position i alone against the nodes, from the last.
                        i = a - n
                        px, py = xs[i], ys[i]
                        oi = o + H[a]
                        while nodes:
                            s = nodes.pop()
                            dx = X0[s] - px if px < X0[s] else px - X1[s] if px > X1[s] else 0
                            dy = Y0[s] - py if py < Y0[s] else py - Y1[s] if py > Y1[s] else 0
                            if dx or dy:
                                h = H[s] + oi
                                if h * h * den < bound * (dx * dx + dy * dy):
                                    continue
                            if s < n:
                                nodes += parts[s]
                                continue
                            yield order[i], [order[s - n]]
                            t_num, t_den = best[0]
                            p = (t_num << 64) // t_den
                            bound = (p * p) << 2 * bits
                            o = p - two_rc
                            oi = o + H[a]
                        continue
                    # Subtree a against the nodes: each is skipped, split
                    # when its box is wider, or kept; then a is split.
                    keep = []
                    while nodes:
                        b = nodes.pop()
                        gx = X0[b] - X1[a] if X0[b] > X1[a] else X0[a] - X1[b] if X0[a] > X1[b] else 0
                        gy = Y0[b] - Y1[a] if Y0[b] > Y1[a] else Y0[a] - Y1[b] if Y0[a] > Y1[b] else 0
                        if gx or gy:
                            h = H[a] + H[b] + o
                            if h * h * den < bound * (gx * gx + gy * gy):
                                continue
                        if wide[b] > wide[a]:
                            nodes += parts[b]
                        else:
                            keep.append(b)
                    if keep:
                        keep.reverse()
                        stack += [(s, keep) for s in parts[a]]

    return _scan(coords, L, bits, table_of(groups()), best)


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
    return _Tree(order, pos, up, [i + k for i, k in enumerate(size)])


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


def _tree_weights(t: _Tree, weight: dict) -> list:
    """The distance from the root along the tree, by position of t."""
    order, up = t.order, t.up
    root = [0] * len(order)
    for i in range(1, len(order)):
        u, p = order[i], order[up[i]]
        root[i] = root[up[i]] + weight[(u, p) if u < p else (p, u)]
    return root


def _weighted_adj(n: int, weight: dict) -> list[list[tuple]]:
    """Adjacency lists of (neighbor, weight) pairs from the weights of the edges."""
    adj: list[list[tuple]] = [[] for _ in range(n)]
    for (u, v), w in weight.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _dijkstra(adj: list[list[tuple]], source: int) -> Iterator[tuple]:
    """Dijkstra from source over (neighbor, weight) adjacency lists with
    nonnegative weights: each vertex reached, with its shortest-path
    distance, as it is settled. A caller reads only as far as it needs, and
    may come back for more."""
    dist = [math.inf] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        yield u, du
        for v, w in adj[u]:
            if du + w < dist[v]:
                dist[v] = du + w
                heapq.heappush(heap, (dist[v], v))


def _graph_rows(n: int, lo_w: dict, hi_w: dict, groups) -> Iterator[tuple]:
    """The exact rows of a connected graph on range(n) under the lower and
    the upper integer edge brackets lo_w, hi_w: for each (u, targets) of
    groups, in turn, (u, targets, dist_lo, dist_hi) as _scan reads them,
    from Dijkstra stopped once the targets are settled, and resumed for the
    next group when it has the same source. Like _tree_rows, it draws a
    group only after it has yielded the last one's row, so groups may read
    the running bounds of _scan."""
    adj_lo, adj_hi = _weighted_adj(n, lo_w), _weighted_adj(n, hi_w)
    source = None
    for u, targets in groups:
        if u != source:
            source, searches = u, [(_dijkstra(adj_lo, u), {}), (_dijkstra(adj_hi, u), {})]
        rows = []
        for search, settled in searches:
            for v in targets:
                while v not in settled:
                    w, dw = next(search)
                    settled[w] = dw
            rows.append([settled[v] for v in targets])
        yield u, targets, rows[0], rows[1]


def _tree_rows(t: _Tree, lo_w: dict, hi_w: dict, groups) -> Iterator[tuple]:
    """The rows _graph_rows gives, on a tree t: R[i] + R[j] - 2 R[a] under
    either edge bracket, R the integer root distances and a the lowest
    common ancestor of positions i and j (_Tree.lca)."""
    r_lo, r_hi = _tree_weights(t, lo_w), _tree_weights(t, hi_w)
    pos = t.pos
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
        planar=planar,
        proper=proper,
        no_three_collinear=collinear_free,
        min_pairwise_distance_sq=min_pairwise_distance_sq(d) if g.n >= 2 else None,
    )
