"""Drawing constructions with spanning ratio close to 1.

All coordinates are exact rationals. Incremental placements keep strict
inequalities checkable by rounding required thresholds up to integers (which
only enlarges distances and therefore preserves every bound being targeted).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .drawing import Drawing, Point
from .embedding import augment_to_maximal_with_canonical_order
from .errors import DegreeTargetMissed, NotConnectedError, TooSmallError
from .exact import isqrt_scaled
from .geometry import direction_key
from .graph import (
    Graph,
    RootedTree,
    connected_prefix_order,
    degree_bounded_spanning_tree,
    is_connected,
)

_LEG_BITS = 80  # dyadic approximation scale for the base triangle apex height


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True)
class Epsilon:
    """The accuracy parameter: a positive rational and its derived gamma."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def gamma(self) -> int:
        return _ceil(2 / self.value)

    @property
    def tree_gamma(self) -> int:
        """Gap multiplier for the tree constructions.

        Doubling the multiplier halves the detour bound: cross-subtree pairs
        then satisfy ratio <= (tree_gamma+2)/tree_gamma <= 1 + epsilon/2, so a
        drawing at epsilon = 1 is certified at spanning ratio 1.5.
        """
        return _ceil(4 / self.value)


def _bbox(points: Sequence[Point]):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def _enclosing_disk(points: Sequence[Point]) -> tuple[Point, int]:
    """Center and an integer radius of a disk strictly containing all points,
    which may be Fractions or ints."""
    xmin, xmax, ymin, ymax = _bbox(points)
    cx = Fraction(xmin + xmax, 2)
    cy = Fraction(ymin + ymax, 2)
    r_sq = Fraction(xmax - xmin, 2) ** 2 + Fraction(ymax - ymin, 2) ** 2
    radius = math.isqrt(_ceil(r_sq)) + 1
    return (cx, cy), radius


def place_next_vertex(
    placed: Sequence[Point], attachment: Sequence[Point], k: int, eps: Epsilon
) -> Point:
    """A point satisfying the incremental placement conditions.

    The returned point lies strictly between the attachment endpoints in x,
    strictly above every line through consecutive attachment points (evaluated
    at the endpoint verticals), and at distance greater than k*delta/epsilon
    from a disk containing all placed points, where delta is its diameter.
    """
    e = min(eps.value, Fraction(1))
    wp, wq = attachment[0], attachment[-1]
    assert wp[0] < wq[0]
    x_v = (wp[0] + wq[0]) / 2
    y_req = max(wp[1], wq[1])
    for (x1, y1), (x2, y2) in zip(attachment, attachment[1:]):
        assert x1 < x2
        slope = (y2 - y1) / (x2 - x1)
        y_req = max(y_req, y1 + slope * (wp[0] - x1), y1 + slope * (wq[0] - x1))
    (cx, cy), radius = _enclosing_disk(placed)
    delta = 2 * radius
    y_v = max(_ceil(y_req), _ceil(cy + radius)) + _ceil(Fraction(k * delta) / e) + 1
    return (x_v, Fraction(y_v))


def draw_planar_spanner(h: Graph, eps: Epsilon) -> Drawing:
    """Planar straight-line drawing of a connected planar graph with spanning
    ratio strictly below 1 + epsilon."""
    if not is_connected(h):
        raise NotConnectedError("input graph must be connected")
    if h.n == 1:
        return Drawing.of(h, [(0, 0)])
    if h.n == 2:
        return Drawing.of(h, [(0, 0), (1, 0)])
    co = augment_to_maximal_with_canonical_order(h)
    e = min(eps.value, Fraction(1))
    order = list(co.order)
    coords: list[Optional[Point]] = [None] * h.n

    # Base triangle: horizontal side of length e/2, the other two sides of
    # length in [1, 1 + 2**-78] (apex height rounded up to a dyadic rational).
    half = e / 2
    leg_sq = 1 - (e / 4) ** 2
    y3 = Fraction(
        isqrt_scaled(leg_sq.numerator, leg_sq.denominator, _LEG_BITS)[1], 1 << _LEG_BITS
    )
    coords[order[0]] = (Fraction(0), Fraction(0))
    coords[order[1]] = (half, Fraction(0))
    coords[order[2]] = (half / 2, y3)

    # Each later vertex goes midway in x between two placed ones and above the
    # disk of all of them, so (0, 0) and (half, y of the last one) span the
    # bounding box of the placed vertices, and their disk is the disk of all.
    top = y3
    for k in range(4, h.n + 1):
        attachment = [coords[w] for w in co.attachments[k]]
        x, top = place_next_vertex([(Fraction(0), Fraction(0)), (half, top)], attachment, k, eps)
        coords[order[k - 1]] = (x, top)

    return Drawing(h, tuple(coords))  # type: ignore[arg-type]


def draw_proper_spanner(g: Graph, eps: Epsilon) -> Drawing:
    """Proper drawing of any connected graph: no three vertices collinear,
    spanning ratio strictly below 1 + epsilon.

    Vertex k goes far to the right of the vertices before it, at the least
    integer height y >= 0 that puts it on no line through two of them. A
    height that already holds two vertices is blocked by their horizontal
    line and is skipped unchecked; the first other height gets the full
    direction check. All coordinates are integers, so the construction costs
    O(n^2) direction keys.
    """
    n = g.n
    if n == 0:
        raise TooSmallError("the proper construction requires at least 1 vertex")
    if not is_connected(g):
        raise NotConnectedError("input graph must be connected")
    if n == 1:
        return Drawing.of(g, [(0, 0)])
    tree = _bfs_spanning_tree(g)
    order = list(connected_prefix_order(tree))
    placed = [(0, 0)]  # in the order of `order`; x strictly increasing, y >= 0
    at_height = Counter([0])  # number of placed vertices per height
    y_max = 0
    for k in range(2, n + 1):
        # The first vertex is (0, 0) and no coordinate is negative, so this
        # box is the bounding box of all placed vertices.
        (cx, _), radius = _enclosing_disk([(0, 0), (placed[-1][0], y_max)])
        delta = 2 * radius
        x_k = _ceil(cx + radius + Fraction(k * delta) / eps.value) + 1
        y = 0
        while at_height[y] >= 2 or _on_line_through_two((x_k, y), placed):
            y += 1
        placed.append((x_k, y))
        at_height[y] += 1
        y_max = max(y_max, y)
    return Drawing.of(g, [p for _, p in sorted(zip(order, placed))])


def _on_line_through_two(z: Point, points: Sequence[Point]) -> bool:
    """True iff some line through z passes through two of `points` (none equal to z)."""
    seen = set()
    for p in points:
        key = direction_key(z, p)
        if key in seen:
            return True
        seen.add(key)
    return False


def _bfs_spanning_tree(g: Graph) -> RootedTree:
    n = g.n
    parent: list[Optional[int]] = [None] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    i = 0
    edges = []
    while i < len(queue):
        u = queue[i]
        i += 1
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                edges.append((u, v))
                queue.append(v)
    return RootedTree.from_graph(Graph.from_edges(n, edges), 0)


# A drawn part: its vertices, their points as integer numerators, and the
# common denominator of those numerators.
_TreePart = tuple[list[int], list[tuple[int, int]], int]


def draw_tree_proper(t: RootedTree, eps: Epsilon) -> Drawing:
    """Proper tree drawing: no three vertices collinear, pairwise distances at
    least 1, spanning ratio at most (tree_gamma+2)/tree_gamma <= 1 + epsilon/2,
    width polynomial in n.

    A separator edge splits the tree into the part holding the root and the
    part below the edge. Each part is drawn with its root at (0, 0), x >= 0
    and y in [-3^-k, 0] at separator depth k, and the lower part goes to the
    right of the upper one, shifted down by the first of a fixed sequence of
    amounts that puts no three of their points on a line.

    The separator tree is built top-down and merged bottom-up with no
    recursion, since a star is n - 1 levels deep. Each part holds integer
    numerators over its own denominator, a product of powers of 2 and 3, so
    the merge search runs direction keys on integers; the coordinates become
    Fractions once, at the end.
    """
    gamma = eps.tree_gamma
    # Top-down, breadth first: a part is a preorder of its vertices, root
    # first, so the side below its separator edge is a contiguous slice.
    parts = [(t._preorder(), 0)]  # (preorder, separator depth)
    halves: list[Optional[tuple[int, int]]] = []  # indices of the two halves
    size = [1] * t.n
    i = 0
    while i < len(parts):
        vs, k = parts[i]
        if len(vs) == 1:
            halves.append(None)
        else:
            start = _separator_index(vs, t.parent, size)
            stop = start + size[vs[start]]
            halves.append((len(parts), len(parts) + 1))
            parts += [(vs[:start] + vs[stop:], k + 1), (vs[start:stop], k + 1)]
        i += 1

    # Bottom-up: every half comes after its part in `parts`.
    drawn: list[Optional[_TreePart]] = [None] * len(parts)
    for i in reversed(range(len(parts))):
        vs, k = parts[i]
        if halves[i] is None:
            drawn[i] = (vs, [(0, 0)], 1)
        else:
            upper, lower = halves[i]
            drawn[i] = _merge_tree_parts(drawn[upper], drawn[lower], k, gamma)
            drawn[upper] = drawn[lower] = None
    verts, pts, den = drawn[0]
    coords: list[Optional[Point]] = [None] * t.n
    for v, (x, y) in zip(verts, pts):
        coords[v] = (Fraction(x, den), Fraction(y, den))
    return Drawing(t.graph, tuple(coords))  # type: ignore[arg-type]


def _separator_index(vs: list[int], parent: Sequence[Optional[int]], size: list[int]) -> int:
    """Index in the preorder `vs` of the lower endpoint v of the separator edge
    that `graph.edge_separator` picks for the subtree spanned by `vs`.

    That rule minimizes (larger part, parent of v, v) over local labels, which
    are the ranks of the vertex ids, so comparing the ids gives the same edge.
    Leaves size[w] set to the size of w's subtree within `vs`.
    """
    m = len(vs)
    for w in vs:
        size[w] = 1
    for w in reversed(vs[1:]):
        size[parent[w]] += size[w]  # type: ignore[index]
    return min(
        range(1, m),
        key=lambda j: (max(size[vs[j]], m - size[vs[j]]), parent[vs[j]], vs[j]),
    )


def _merge_tree_parts(upper: _TreePart, lower: _TreePart, k: int, gamma: int) -> _TreePart:
    """The two parts of a depth-k part, drawn as one over a reduced denominator.

    With eta = 3^-k, the lower part moves right by w + gamma*(w + eta + 1),
    w the width of the upper part, and down by eta/3 + eta/3 * step/span for
    the first step/span in 1/8, ..., 7/8, 8/64, ..., 63/64, ... that puts no
    three points on a line. Everything is counted in units of 1/L,
    L = lcm(D1, D2, 3^(k+1) * span), in which every term is an integer.
    """
    verts1, pts1, den1 = upper
    verts2, pts2, den2 = lower
    w1 = max(x for x, _ in pts1)
    j, span = 1, 8
    while True:
        den = math.lcm(den1, den2, 3 ** (k + 1) * span)
        third = den // 3 ** (k + 1)  # eta/3
        s1, s2 = den // den1, den // den2
        left = [(x * s1, y * s1) for x, y in pts1]
        x_off = (gamma + 1) * w1 * s1 + gamma * (3 * third + den)
        for step in range(j, span):
            y_off = -third - step * (third // span)
            right = [(x * s2 + x_off, y * s2 + y_off) for x, y in pts2]
            if not _cross_collinear(left, right):
                pts = left + right
                g = math.gcd(den, *(c for p in pts for c in p))
                return verts1 + verts2, [(x // g, y // g) for x, y in pts], den // g
        j = span
        span *= 8


def _cross_collinear(pts1: list[Point], pts2: list[Point]) -> bool:
    """True iff some line through two points of one part hits a point of the other."""
    return any(
        _on_line_through_two(hub, other)
        for hub_side, other in ((pts1, pts2), (pts2, pts1))
        for hub in hub_side
    )


@dataclass(frozen=True)
class ToughDrawResult:
    """Drawing of a general graph routed through a bounded-degree spanning tree."""

    drawing: Drawing
    tree: RootedTree
    achieved_degree: int
    warning: Optional[str]


def draw_graph_via_tough_tree(g: Graph, d_target: int, eps: Epsilon) -> ToughDrawResult:
    """Spanning-tree drawing plus remaining edges as straight segments.

    A missed degree target is reported as a warning (the edge-length-ratio
    exponent degrades) rather than a failure.
    """
    if g.n == 0:
        raise TooSmallError("the tough-tree construction requires at least 1 vertex")
    if not is_connected(g):
        raise NotConnectedError("input graph must be connected")
    warning = None
    try:
        tree = degree_bounded_spanning_tree(g, d_target)
    except DegreeTargetMissed as exc:
        tree = exc.tree
        warning = str(exc)
    tree_drawing = draw_tree_proper(tree, eps)
    return ToughDrawResult(
        drawing=Drawing(g, tree_drawing.coords),
        tree=tree,
        achieved_degree=tree.graph.max_degree(),
        warning=warning,
    )


@dataclass(frozen=True)
class TreePlanarStats:
    """Construction-time bookkeeping for the planar tree layout."""

    n_prime: int  # size after every lone child received a sibling
    width: int
    height: int
    recurrence_respected: bool  # realized widths never exceeded the tracked recurrence


def draw_tree_planar(t: RootedTree, eps: Epsilon) -> Drawing:
    return draw_tree_planar_with_stats(t, eps)[0]


def draw_tree_planar_with_stats(t: RootedTree, eps: Epsilon) -> tuple[Drawing, TreePlanarStats]:
    """Planar tree drawing with integer coordinates, spanning ratio at most
    (tree_gamma+2)/tree_gamma <= 1 + epsilon/2, unit minimum edge length, and
    logarithmic height.

    Follows a layered scheme: subtrees of each vertex are drawn left to right
    in increasing size with horizontal gaps of tree_gamma * (width so far +
    ceil(log2 of the local subtree size)), roots one unit below their parent,
    and the largest subtree lifted onto the parent's row.
    """
    n = t.n
    gamma = eps.tree_gamma
    if n == 1:
        return (
            Drawing.of(t.graph, [(0, 0)]),
            TreePlanarStats(1, 0, 0, True),
        )
    if t.graph.max_degree() <= 2:
        # The tree is a path: unit-spaced collinear placement is exact.
        ends = [v for v in range(n) if t.graph.degree(v) == 1]
        start = min(ends)
        coords: list[Optional[tuple[int, int]]] = [None] * n
        prev = -1
        cur = start
        for i in range(n):
            coords[cur] = (i, 0)
            nxt = [w for w in t.graph.adj[cur] if w != prev]
            if nxt:
                prev, cur = cur, nxt[0]
        return (
            Drawing.of(t.graph, coords),
            TreePlanarStats(n, n - 1, 0, True),
        )

    # Root at the smallest-id leaf, then give every lone child a dummy sibling.
    root = min(v for v in range(n) if t.graph.degree(v) == 1)
    base = t.rerooted(root)
    children: list[list[int]] = [list(c) for c in base.children]
    next_id = n
    for v in range(n):
        if len(children[v]) == 1:
            children[v].append(next_id)
            children.append([])
            next_id += 1
    n_prime = next_id

    post = []
    stack = [(root, False)]
    while stack:
        u, done = stack.pop()
        if done:
            post.append(u)
            continue
        stack.append((u, True))
        for c in children[u]:
            stack.append((c, False))

    # Bottom-up: the subtrees of each vertex go left to right in increasing
    # size, each at an offset from its parent; then top-down, absolute
    # positions are the sums of the offsets along the path from the root.
    size = [1] * n_prime
    width = [0] * n_prime
    height = [0] * n_prime
    offset = [(0, 0)] * n_prime
    respected = True
    for u in post:
        kids = children[u]
        size[u] += sum(size[c] for c in kids)
        kids.sort(key=lambda c: (size[c], c))
        log_n = max(1, (size[u] - 1).bit_length())  # ceil(log2 of local size)
        d_prev = 0
        for i, c in enumerate(kids):
            last = i == len(kids) - 1
            x_off = 0 if i == 0 else d_prev + gamma * (d_prev + log_n)
            offset[c] = (x_off, 0 if last else -1)
            d_cur = x_off + width[c]
            if i > 0 and d_cur > (gamma + 1) * d_prev + gamma * log_n + width[c]:
                respected = False  # the realized width exceeds the tracked one
            d_prev = max(d_prev, d_cur)
            height[u] = max(height[u], height[c] if last else height[c] + 1)
        width[u] = d_prev

    pos = [(0, 0)] * n_prime
    for u in reversed(post):
        for c in children[u]:
            pos[c] = (pos[u][0] + offset[c][0], pos[u][1] + offset[c][1])
    drawing = Drawing.of(t.graph, pos[:n])
    return drawing, TreePlanarStats(n_prime, width[root], height[root], respected)
