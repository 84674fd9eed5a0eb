"""Drawing constructions with spanning ratio close to 1.

All coordinates are exact. Every construction computes on integer
numerators over a common denominator and hands them to Drawing as they are:
the planar one fixes its denominator before it places a vertex, and the
tree-proper one refines it as parts merge. Incremental placements keep
strict inequalities checkable by rounding required thresholds up to
integers (which only enlarges distances and therefore preserves every bound
being targeted).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .drawing import Drawing
from .embedding import augment_to_maximal_with_canonical_order
from .errors import NotConnectedError, TooSmallError
from .exact import isqrt_scaled
from .frozen import Frozen
from .geometry import IntPoint, far_right, hub_scan, on_line_through_two
from .graph import (
    Graph,
    RootedTree,
    bfs,
    degree_bounded_spanning_tree,
    is_connected,
    path_order,
    preorder,
)

_LEG_BITS = 80  # dyadic approximation scale for the base triangle apex height


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -(-a // b)


class Epsilon(Frozen):
    """The accuracy parameter: a positive rational."""

    __slots__ = _fields = ("value",)
    value: Fraction

    def __init__(self, value):
        value = Fraction(value)
        if value <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "value", value)

    @property
    def tree_gamma(self) -> int:
        """Gap multiplier for the tree constructions.

        Doubling the multiplier halves the detour bound: cross-subtree pairs
        then satisfy ratio <= (tree_gamma+2)/tree_gamma <= 1 + epsilon/2, so a
        drawing at epsilon = 1 is certified at spanning ratio 1.5.
        """
        return _ceil_div(4 * self.value.denominator, self.value.numerator)


def _radius(w: int, h: int, den: int = 1) -> int:
    """An integer radius of a disk about the center of the box
    [0, w/den] x [0, h/den] that strictly contains the box."""
    return math.isqrt(_ceil_div(w * w + h * h, 4 * den * den)) + 1


def _planar_disk(half: int, t: int, rem: int, den: int) -> tuple[int, int]:
    """(radius, reach) of draw_planar_spanner's box [0, half/den] x [0,
    top/den], top = t den + rem with 0 <= rem < den and half/den = e/2,
    0 < e <= 1: radius = _radius(half, top, den), and reach =
    ceil(top / (2 den)) + radius, the least whole height on or above the
    top of its disk.

    When the height is whole, rem = 0, and t >= 2, radius = t // 2 + 1 and
    reach = t + 1, with no square root and no division of top. _radius
    takes isqrt(c) + 1, c = ceil(t**2/4 + e**2/16), and 0 < e**2/16 <= 1/16.
    - t = 2m: t**2/4 = m**2, so c = m**2 + 1, and m**2 < c < (m + 1)**2
      = m**2 + 2m + 1 as m >= 1.
    - t = 2m + 1: t**2/4 = m**2 + m + 1/4, so c = m**2 + m + 1, and
      m**2 < c < (m + 1)**2 as m >= 1.
    Either way the root is m = t // 2, and ceil(t/2) + t // 2 = t. At t = 0
    and t = 1, m = 0 and c = 1, whose root is 1, not m: those, and a
    height that is not whole, take _radius."""
    if rem == 0 and t >= 2:
        return t // 2 + 1, t + 1
    top = t * den + rem
    radius = _radius(half, top, den)
    return radius, _ceil_div(top, 2 * den) + radius


def _exceeds(p: int, a: int, b: int) -> bool:
    """p > a b, for a, b >= 1, with no product where bit lengths decide.

    Let l = bl(a) + bl(b), bl the bit length. Then 2**(l - 2) <= a b <
    2**l, and a positive p of bit length m lies in [2**(m - 1), 2**m). So
    p > a b when m > l, and not when m < l - 1: only m = l - 1 and m = l
    take the product. draw_planar_spanner asks it of each attachment
    line, at the least height so far, where the line mostly lies far
    below."""
    if p <= 0:
        return False
    k = p.bit_length() - a.bit_length() - b.bit_length()
    return k > 0 or (k >= -1 and p > a * b)


def _proper_radius(w: int, y_max: int) -> int:
    """_radius(w, y_max), the radius of draw_proper_spanner's box [0, w] x
    [0, y_max], with no square root where the box is far wider than high.

    Write w = 2a + s, s in {0, 1}. As s**2 = s, (w**2 + y_max**2)/4 = a**2
    + a s + (s + y_max**2)/4, so _radius takes isqrt(a**2 + a s + c) + 1,
    c = ceil((s + y_max**2) / 4). When a >= c, a s + c <= 2a, so a**2 <=
    a**2 + a s + c < (a + 1)**2 = a**2 + 2a + 1: the root is a, and the
    test is on y_max, which stays below about k/2, and one shift of w."""
    a, s = w >> 1, w & 1
    if a >= (s + y_max * y_max + 3) >> 2:
        return a + 1
    return _radius(w, y_max)


def draw_planar_spanner(h: Graph, eps: Epsilon) -> Drawing:
    """Planar straight-line drawing of a connected planar graph with spanning
    ratio strictly below 1 + epsilon.

    Vertices are placed in canonical order, on integer numerators over one
    denominator den = e.denominator * 2**b, e = min(epsilon, 1), fixed
    before placement. A vertex's x is the midpoint of its attachment's ends,
    one halving deeper than the deeper end, and b covers the deepest x and
    the 2**-_LEG_BITS scale of the apex height; every later y is a whole
    number.

    A vertex's y is its gap above the least whole height at or above the
    top of the disk and each attachment line at its higher end. The
    disk's top comes first (_planar_disk), and a line counts only where it
    passes above the height so far: _exceeds decides that with no
    division, mostly by bit lengths, and only such a line takes one. On
    random planar graphs about one line in five does. The height is that
    of the plain maximum of the disk's top and each line's, plus the
    gap.

    NotConnectedError comes from the embedding's own walk from n = 3 on,
    and from is_connected below that.
    """
    if 0 < h.n < 3:  # n = 0 is left to the augmentation, which refuses it
        if not is_connected(h):
            raise NotConnectedError("input graph must be connected")
        return Drawing.on_x_axis(h, range(h.n))
    co = augment_to_maximal_with_canonical_order(h)
    e = min(eps.value, Fraction(1))
    order = co.order
    depth = [0] * h.n  # halvings in the x of each vertex
    for k in range(3, h.n + 1):
        ends = co.attachments[k]
        depth[order[k - 1]] = 1 + max(depth[ends[0]], depth[ends[-1]])
    b = max(max(depth) + 1, _LEG_BITS)
    den = e.denominator << b
    pts: list[IntPoint] = [(0, 0)] * h.n

    # Base triangle: horizontal side of length e/2, the other two sides of
    # length in [1, 1 + 2**-78] (apex height rounded up to a dyadic rational).
    half = e.numerator << (b - 1)
    leg_sq = 1 - (e / 4) ** 2
    y3 = isqrt_scaled(leg_sq.numerator, leg_sq.denominator, _LEG_BITS)[1]
    top = y3 * e.denominator << (b - _LEG_BITS)
    pts[order[1]] = (half, 0)
    pts[order[2]] = (half // 2, top)

    # Each later vertex goes midway in x between the ends of its attachment,
    # strictly above every line through consecutive attachment points at
    # the higher of those ends, and more than k*delta/e above the disk of
    # all placed vertices, of diameter delta. That disk is the disk of the
    # box spanned by (0, 0) and (half, t den + rem), the last vertex's
    # height, which is whole (rem = 0) from the fourth vertex on
    # (_planar_disk). y starts at the disk's top and rises to a line only
    # where the line passes above it.
    t, rem = divmod(top, den)
    for k in range(4, h.n + 1):
        att = [pts[w] for w in co.attachments[k]]
        xp, xq = att[0][0], att[-1][0]
        radius, y = _planar_disk(half, t, rem, den)
        for (x1, y1), (x2, y2) in zip(att, att[1:]):
            assert x1 < x2
            # xp <= x1 < x2 <= xq: the line is higher at xq where it rises
            x = xq if y2 >= y1 else xp
            num, dd = y1 * (x2 - x1) + (y2 - y1) * (x - x1), (x2 - x1) * den
            if _exceeds(num, y, dd):
                y = _ceil_div(num, dd)
        t, rem = y + _ceil_div(2 * k * radius * e.denominator, e.numerator) + 1, 0
        pts[order[k - 1]] = ((xp + xq) // 2, t * den)
    return Drawing(h, tuple(pts), den)


def draw_proper_spanner(g: Graph, eps: Epsilon) -> Drawing:
    """Proper drawing of any connected graph: no three vertices collinear,
    spanning ratio strictly below 1 + epsilon.

    Vertices are placed in BFS order, so every prefix is connected. Vertex
    k goes far to the right of the vertices before it, at the least
    integer height y >= 0 that puts it on no line through two of them. A
    height that already holds two vertices is blocked by their horizontal
    line and is skipped unchecked; it stays blocked, so the search starts
    at the least height that is not, and the heights below it, which fill
    up like k/2, cost nothing. At any other height, the far-right
    lemma (far_right) on the box [0, w] x [0, y_max] of the placed
    vertices shows that no other line holds (x_k, y) when
    w max(y, y_max) < x_k - w; only where it fails does the height get the
    exact direction check, one key per placed vertex (on_line_through_two).
    The gap x_k - w grows like k w / epsilon and y_max like k / 2, so the
    lemma holds at every height unless epsilon is large (3 or more, in
    measurements). Then the construction costs O(n) comparisons when few
    heights are tried, not O(n^2) direction keys, and the chosen height is
    still the least admissible one. All coordinates are integers.
    """
    n = g.n
    if n == 0:
        raise TooSmallError("the proper construction requires at least 1 vertex")
    order = bfs(g)[0]
    if len(order) < n:
        raise NotConnectedError("input graph must be connected")
    e_num, e_den = eps.value.numerator, eps.value.denominator
    placed = [(0, 0)]  # in the order of `order`; x strictly increasing, y >= 0
    at_height = Counter([0])  # number of placed vertices per height
    free = 0  # every height below it holds two placed vertices
    y_max = 0
    for k in range(2, n + 1):
        # The first vertex is (0, 0) and no coordinate is negative, so the
        # box up to the last vertex's x and y_max holds every placed vertex.
        # x_k = ceil(w/2 + radius + k*delta/eps) + 1: right of the disk of
        # that box, centered at x = w/2, by k*delta/eps, delta = 2*radius.
        w = placed[-1][0]
        radius = _proper_radius(w, y_max)
        x_k = radius + _ceil_div(w * e_num + 4 * k * radius * e_den, 2 * e_num) + 1
        box = (0, w, 0, y_max)
        while at_height[free] >= 2:
            free += 1
        y = free
        while at_height[y] >= 2 or (not far_right(box, (x_k, y))
                                    and on_line_through_two((x_k, y), placed)):
            y += 1
        placed.append((x_k, y))
        at_height[y] += 1
        y_max = max(y_max, y)
    return Drawing(g, tuple(p for _, p in sorted(zip(order, placed))))


class _TreePart(NamedTuple):
    """A drawn part of the tree-proper construction: its vertices, their
    points as integer numerators over den, and what the merge that built
    the part knows of them: its width, the largest x numerator, and the
    gcd of all its numerators. Its root is at (0, 0), x >= 0 >= y, and its
    points are distinct."""

    verts: list[int]
    pts: list[IntPoint]
    den: int
    width: int
    common: int


def draw_tree_proper(g: Graph, eps: Epsilon) -> Drawing:
    """Proper drawing of a tree g, rooted at vertex 0: no three vertices
    collinear, pairwise distances at least 1, spanning ratio at most
    (tree_gamma+2)/tree_gamma <= 1 + epsilon/2. NotATreeError comes from
    RootedTree.from_graph.

    The width is below 2 (gamma + 2)^h, h the depth of the separator
    recursion: a part of m vertices of degree at most d splits into parts of
    at most ceil((d - 1) / d * m), so h = O(d log n), and the width is
    polynomial in n when d is bounded. A star splits off one leaf per
    level, and its width is about (gamma + 1)^(n - 1), exponential, as every
    drawing of a star with constant spanning ratio must be.

    A separator edge splits the tree into the part holding the root and the
    part below the edge. Each part is drawn with its root at (0, 0), x >= 0
    and y in [-3^-k, 0] at separator depth k, and the lower part goes to the
    right of the upper one, shifted down by the first of a fixed sequence of
    amounts that puts no three of their points on a line.

    The separator tree is built top-down and merged bottom-up with no
    recursion, since a star is n - 1 levels deep. Top-down, a part is its
    root and the vertices below it that no earlier split cut off; the
    subtree sizes within the parts are kept across splits, and _split finds
    each separator by a descent, not a scan. Each drawn part holds integer
    numerators over its own denominator, a product of powers of 2 and 3, so
    the merge search runs direction keys on integers, and the drawing keeps
    the root part's numerators and denominator. Every drawn part has no
    three collinear points, so a merge keys only its smaller part's points,
    and it carries its width and its numerators' gcd to the next merge
    (see _merge_tree_parts).
    """
    return Drawing(g, *_tree_proper_points(RootedTree.from_graph(g, 0), eps))


def _tree_proper_points(t: RootedTree, eps: Epsilon) -> tuple[tuple[IntPoint, ...], int]:
    """draw_tree_proper's points, by vertex, as integer numerators over the
    returned denominator: the root part's, which the tough route draws its
    graph on too, so that each builds one Drawing. t's parents and children
    are read as they are: both callers take t from RootedTree.from_graph or
    degree_bounded_spanning_tree, which build them from t's graph."""
    gamma = eps.tree_gamma
    size = [1] * t.n
    for w in reversed(preorder(t.children, t.root)[1:]):
        size[t.parent[w]] += size[w]  # type: ignore[index]
    kids = [sorted((-size[c], c) for c in cs) for cs in t.children]
    # Top-down, breadth first: the upper half of a part keeps its root.
    parts = [(t.root, 0)]  # (root, separator depth)
    halves: list[Optional[tuple[int, int]]] = []  # indices of the two halves
    i = 0
    while i < len(parts):
        r, k = parts[i]
        if size[r] == 1:
            halves.append(None)
        else:
            v = _split(r, t.parent, size, kids)
            halves.append((len(parts), len(parts) + 1))
            parts += [(r, k + 1), (v, k + 1)]
        i += 1

    # Bottom-up: every half comes after its part in `parts`.
    drawn: list[Optional[_TreePart]] = [None] * len(parts)
    for i in reversed(range(len(parts))):
        r, k = parts[i]
        if halves[i] is None:
            drawn[i] = _TreePart([r], [(0, 0)], 1, 0, 0)
        else:
            upper, lower = halves[i]
            drawn[i] = _merge_tree_parts(drawn[upper], drawn[lower], k, gamma)
            drawn[upper] = drawn[lower] = None
    whole = drawn[0]
    return tuple(p for _, p in sorted(zip(whole.verts, whole.pts))), whole.den


def _split(r: int, parent: Sequence[Optional[int]], size: list[int],
           kids: list[list[tuple[int, int]]]) -> int:
    """Cut the part rooted at r at its separator edge and return the edge's
    lower end v: the edge (parent of v, v) that minimizes the larger of its
    two parts, ties going to the least parent id, then the least v. With at
    most d neighbors per vertex, neither part of m vertices exceeds
    ceil((d - 1) / d * m).

    size[w] is the size of w's subtree within its part, and kids[w] holds
    the keys (-size[c], c) of w's children within its part, sorted: the
    heaviest child first, equal sizes by least id.

    The descent: two children of one vertex cannot both hold m/2 vertices
    or more, so the vertices that do form a path down from r, x_0 = r, ...,
    x_t, their sizes falling. An edge whose lower side holds m/2 or more
    has that side as its larger part, least at x_t. An edge whose lower
    side v holds less has the rest as its larger part, least where v is
    largest; if v's parent is not on the path, the parent's own edge is
    better still, so v is a child of some x_i, and kids[x_i] puts its best
    one first among its light children. So the edge is the least of t + 2
    keys at most, taken along the path.

    The cut: v leaves its parent p's kids, and the sizes from p up to r
    fall by size[v], each re-keyed in its parent's kids. The lower part,
    below v, keeps its sizes.
    """
    m = size[r]
    found = []  # (larger part, parent, lower end) of each candidate edge
    x = r
    while True:
        ks = kids[x]
        heavy = 1 if ks and -2 * ks[0][0] >= m else 0
        if len(ks) > heavy:
            minus_size, c = ks[heavy]
            found.append((m + minus_size, x, c))
        if not heavy:
            break
        x = ks[0][1]
    if x != r:
        found.append((size[x], parent[x], x))
    _, y, v = min(found)
    s = size[v]
    ks = kids[y]
    del ks[bisect_left(ks, (-s, v))]
    while True:
        size[y] -= s
        if y == r:
            return v
        ks = kids[parent[y]]  # type: ignore[index]
        del ks[bisect_left(ks, (-size[y] - s, y))]
        insort(ks, (-size[y], y))
        y = parent[y]  # type: ignore[assignment]


def _merge_tree_parts(upper: _TreePart, lower: _TreePart, k: int, gamma: int) -> _TreePart:
    """The two parts of a depth-k part, drawn as one over a reduced denominator.

    With eta = 3^-k, the lower part moves right by w + gamma*(w + eta + 1),
    w the width of the upper part, and down by eta/3 + eta/3 * step/span for
    the first step/span in 1/8, ..., 7/8, 8/64, ..., 63/64, ... that puts no
    three points on a line. Everything is counted in units of 1/L,
    L = lcm(D1, D2, 3^(k+1) * span), in which every term is an integer; a
    part whose denominator is L already is not rescaled.

    Each part has no three collinear points, by induction from the single
    points, and the parts are apart in x. So a collinear triple of the union
    has a point in the smaller part S, and hub_scan finds it with S's points
    first and only they as hubs: a trial that fits makes |S|(|S|-1)/2 +
    |S||L| direction keys, L the larger part, not the 2|S||L| of keying
    every point against the other part.

    What the parts carry spares the passes over their points:
    - Distinct points: each part's are, and the lower part starts right of
      the upper one's width, at x_off > w. So hub_scan needs no
      coincidence test.
    - The width: the lower part's largest x, x_off plus its own width.
      It is also the largest absolute numerator of the union: every x is
      at least 0, and every |y| is below eta, since the lower part's own y
      is at least -eta/3 and its shift less than 2 eta/3, while x_off is
      at least gamma (eta + 1). So its bit length is the union's
      coord_bits, and it decides hub_scan's gate.
    - The gcd of the numerators: the upper part's scales with it, and the
      lower part's is gcd(x_off, y_off, its own scaled), since its root is
      at (0, 0) before the shift. Only where that gcd and L have a common
      factor g > 1 are the points divided, by g, which leaves L least.
    """
    j, span = 1, 8
    while True:
        den = math.lcm(upper.den, lower.den, 3 ** (k + 1) * span)
        third = den // 3 ** (k + 1)  # eta/3
        s1, s2 = den // upper.den, den // lower.den
        left = upper.pts if s1 == 1 else [(x * s1, y * s1) for x, y in upper.pts]
        x_off = (gamma + 1) * upper.width * s1 + gamma * (3 * third + den)
        width = x_off + lower.width * s2
        bits = width.bit_length()
        for step in range(j, span):
            y_off = -third - step * (third // span)
            right = [(x * s2 + x_off, y * s2 + y_off) for x, y in lower.pts]
            small, large = (left, right) if len(left) <= len(right) else (right, left)
            if not hub_scan(small + large, len(small), bits):
                pts = left + right
                common = math.gcd(upper.common * s1, lower.common * s2, x_off, y_off)
                g = math.gcd(den, common)
                if g > 1:
                    pts = [(x // g, y // g) for x, y in pts]
                return _TreePart(upper.verts + lower.verts, pts, den // g, width // g, common // g)
        j = span
        span *= 8


class ToughDrawResult(NamedTuple):
    """Drawing of a general graph routed through a bounded-degree spanning tree."""

    drawing: Drawing
    tree: RootedTree
    achieved_degree: int
    warning: Optional[str]


def draw_graph_via_tough_tree(g: Graph, d_target: int, eps: Epsilon) -> ToughDrawResult:
    """Spanning-tree drawing plus remaining edges as straight segments.

    A missed degree target is reported as a warning (the edge-length-ratio
    exponent degrades) rather than a failure. NotConnectedError comes from
    degree_bounded_spanning_tree's own breadth-first walk.
    """
    if g.n == 0:
        raise TooSmallError("the tough-tree construction requires at least 1 vertex")
    tree = degree_bounded_spanning_tree(g, d_target)
    achieved = tree.graph.max_degree()
    return ToughDrawResult(
        drawing=Drawing(g, *_tree_proper_points(tree, eps)),
        tree=tree,
        achieved_degree=achieved,
        warning=(f"spanning tree max degree {achieved} exceeds target {d_target}"
                 if achieved > d_target else None),
    )


def draw_tree_planar(g: Graph, eps: Epsilon) -> Drawing:
    """Planar drawing of a tree g with integer coordinates, spanning ratio at
    most (tree_gamma+2)/tree_gamma <= 1 + epsilon/2, unit minimum edge
    length, and logarithmic height.

    Follows a layered scheme: subtrees of each vertex are drawn left to right
    in increasing size with horizontal gaps of tree_gamma * (width so far +
    ceil(log2 of the local subtree size)), roots one unit below their parent,
    and the largest subtree lifted onto the parent's row.

    g is rooted at its least leaf, which is drawn at (0, 0), or at 0 when it
    has no leaf. NotATreeError comes from RootedTree.from_graph, before a
    path is told apart.
    """
    n = g.n
    gamma = eps.tree_gamma
    t = RootedTree.from_graph(g, min((v for v in range(n) if g.degree(v) == 1), default=0))
    path = path_order(g)
    if path is not None:
        # The tree is a path: unit-spaced collinear placement is exact.
        return Drawing.on_x_axis(g, path)

    # Give every lone child a dummy sibling.
    children = t.children
    n_prime = n
    for v in range(n):
        if len(children[v]) == 1:
            children[v].append(n_prime)
            children.append([])
            n_prime += 1

    order = preorder(children, t.root)

    # Bottom-up: the subtrees of each vertex go left to right in increasing
    # size, each at an offset from its parent; then top-down, absolute
    # positions are the sums of the offsets along the path from the root.
    size = [1] * n_prime
    width = [0] * n_prime
    offset = [(0, 0)] * n_prime
    for u in reversed(order):
        kids = children[u]
        if not kids:  # a leaf keeps size 1 and width 0
            continue
        size[u] += sum(size[c] for c in kids)
        kids.sort(key=lambda c: (size[c], c))
        log_n = max(1, (size[u] - 1).bit_length())  # ceil(log2 of local size)
        d_prev = 0
        for i, c in enumerate(kids):
            last = i == len(kids) - 1
            x_off = 0 if i == 0 else d_prev + gamma * (d_prev + log_n)
            offset[c] = (x_off, 0 if last else -1)
            d_prev = max(d_prev, x_off + width[c])
        width[u] = d_prev

    pos = [(0, 0)] * n_prime
    for u in order:
        for c in children[u]:
            pos[c] = (pos[u][0] + offset[c][0], pos[u][1] + offset[c][1])
    return Drawing(g, tuple(pos[:n]))
