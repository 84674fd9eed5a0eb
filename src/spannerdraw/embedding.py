"""Combinatorial planar embeddings and the canonical-ordering augmentation.

A rotation system stores, for every vertex, the cyclic order of its neighbors
("counterclockwise" by convention). Faces are traced by the rule: after
arriving at v along the directed edge (u, v), the face continues toward the
neighbor immediately preceding u in v's cyclic list. Under this rule internal
faces of a drawing are traversed counterclockwise and the outer face clockwise.

The augmentation turns a connected planar graph H into a maximal planar
supergraph G with a canonical ordering whose H-prefixes are all connected. It
runs entirely on the rotation system, whose lists are its only adjacency: a
new edge enters the rotations of both its ends, and G's edges are read from
them at the end. The partially built graph keeps an explicit outer contour
[w_1..w_x], and for every contour vertex the "outer arc" (the neighbors
lying in the outer region) is the cyclic slice of its rotation strictly
between its contour successor and its contour predecessor.
Every step attaches one vertex v by one rule: v joins a contour path
w_a..w_b, gaining the missing edges to it, and the contour becomes
w_1..w_a, v, w_b..w_x. A vertex with a single contour neighbor joins it and
one of its contour neighbors; the last vertex joins the whole contour.

The outer arcs are kept from step to step, keyed by vertex. An attachment
changes the rotation or the contour neighbors of w_a, v and w_b only, so
only their three arcs are recomputed, each by two index lookups and a
slice; w_a+1..w_b-1 leave the contour, and every other arc stays as it was
(after Kant, "Drawing planar graphs using the canonical ordering",
Algorithmica 1996).

Every unplaced vertex keeps its leftmost and rightmost contour neighbors.
They change only when a neighbor of it is placed, since a vertex leaves
the contour only when its arc holds nothing but the vertex placed. The
next vertex comes from one left-to-right scan of the contour (_choose):
at each position only the first and the last vertex of the arc there can
be chosen, and the first position with one wins, the smaller id on a tie.
That is the vertex, and the path, of sorting the candidates by (leftmost
contour position, id) and taking the first unblocked one. The scan does
not start at position 0: each step carries a restart point below which
no position holds a candidate, at most the position of the last
attachment's left end (_choose proves the rule), so on random planar
graphs a step passes about two positions before the one it attaches at,
whatever the contour's length.

The rotation system comes from the package's own left-right planarity test
(`planarity_test_embed`, after Brandes 2009), on plain lists. It gives
networkx 3.6's rotations exactly, by the four order rules its docstring
states. The package needs no networkx: the tests compare these rotations
with networkx's, and check every canonical order with an independent
validator in tests/oracles.py.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotConnectedError, NotPlanarError, TooSmallError
from .graph import Graph


class RotationSystem(NamedTuple):
    """A combinatorial planar embedding with a chosen outer face."""

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[tuple[int, int], ...]  # directed edge walk


def _face(rotation: tuple[tuple[int, ...], ...], u: int, v: int) -> tuple[tuple[int, int], ...]:
    """The face walk of a rotation system containing directed edge (u, v)."""
    walk = [(u, v)]
    while True:
        a, b = walk[-1]
        r = rotation[b]
        nxt = (b, r[(r.index(a) - 1) % len(r)])
        if nxt == walk[0]:
            return tuple(walk)
        walk.append(nxt)


def planarity_test_embed(g: Graph) -> Optional[RotationSystem]:
    """A rotation system with a deterministic outer face, or None if g is
    nonplanar; NotConnectedError if g is disconnected.

    The left-right planarity test and embedding (Brandes, "The Left-Right
    Planarity Test", 2009, after de Fraysseix, Ossona de Mendez &
    Rosenstiehl, "Trémaux trees and planarity", IJFCS 2006), in three
    depth-first passes on explicit stacks: _orient orients g and computes
    lowpoints and nesting depths, _sides splits the back edges into left
    and right with a stack of conflict pairs, and the last pass builds each
    vertex's clockwise neighbor list. The rotations are those of networkx
    3.6's `check_planarity`, its clockwise lists reversed, which the
    canonical order and so every planar drawing depend on. Four order rules
    fix them:
    - the orientation scans each vertex's neighbors in the sorted order of
      `g.adj`;
    - its roots go in vertex order, so vertex 0 is the only root, and a
      vertex it does not reach means g is disconnected;
    - each vertex's out-edges, in the order the orientation made them, are
      sorted stably by nesting depth for the test, and again by signed
      nesting depth, once the sides are resolved, for the embedding;
    - a clockwise list starts at the vertex's leftmost neighbor, and a
      neighbor inserted just before it, as the parent is when the last pass
      enters the vertex, takes its place.
    """
    n = g.n
    if n == 0:
        return RotationSystem(g, (), ())
    height, parent, tail, head, low, depth, out = _orient(g)
    if None in height:
        raise NotConnectedError("embedding requires a connected graph")
    if n > 2 and len(head) > 3 * n - 6:
        return None
    side = _sides(height, parent, tail, head, low, depth, out)
    if side is None:
        return None
    order = [sorted(es, key=lambda e: depth[e] * side[e]) for es in out]
    # Clockwise neighbor lists, the leftmost neighbor first.
    cw = [[head[e] for e in es] for es in order]
    # A back edge into v goes clockwise just before left[v] on the left side,
    # and just after right[v], the child it returns from, on the right.
    left: list[Optional[int]] = [None] * n
    right: list[Optional[int]] = [None] * n
    nxt = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        es = order[v]
        for i in range(nxt[v], len(es)):
            e = es[i]
            w = head[e]
            r = cw[w]
            if parent[w] == e:
                r.insert(0, v)
                left[v] = right[v] = w
                nxt[v] = i + 1
                stack.append(w)
                break
            if side[e] == 1:
                r.insert(r.index(right[w]) + 1, v)
            else:
                r.insert(r.index(left[w]), v)
                left[w] = v
        else:
            stack.pop()
    rotation = tuple(tuple(reversed(r)) for r in cw)
    # g is connected: unless n = 1 it has an edge, and vertex 0 has one.
    outer = _face(rotation, 0, g.adj[0][0]) if g.m else ()
    return RotationSystem(g, rotation, outer)


def _orient(g: Graph):
    """The DFS orientation of g (n >= 1) from vertex 0, as lists: each
    vertex's height (None if unreached) and parent edge, and for each
    oriented edge, in the order made, its tail, head, lowpoint and nesting
    depth; out[v] lists the edges out of v."""
    n, adj = g.n, g.adj
    height: list[Optional[int]] = [None] * n
    parent: list[Optional[int]] = [None] * n
    tail: list[int] = []
    head: list[int] = []
    low: list[int] = []
    low2: list[int] = []
    depth: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]

    def settle(e: int) -> None:
        """Fix the nesting depth of e, whose lowpoints are final, and pass
        them on to the parent edge of its tail."""
        v = tail[e]
        depth[e] = 2 * low[e] + (low2[e] < height[v])
        f = parent[v]
        if f is not None:
            if low[e] < low[f]:
                low2[f] = min(low[f], low2[e])
                low[f] = low[e]
            elif low[e] > low[f]:
                low2[f] = min(low2[f], low[e])
            else:
                low2[f] = min(low2[f], low2[e])

    nxt = [0] * n
    stack = [0]
    height[0] = 0
    while stack:
        v = stack[-1]
        hv = height[v]
        up = None if parent[v] is None else tail[parent[v]]
        a = adj[v]
        for i in range(nxt[v], len(a)):
            w = a[i]
            hw = height[w]
            if hw is not None and (hw > hv or w == up):
                continue  # oriented from w's side
            e = len(head)
            tail.append(v)
            head.append(w)
            out[v].append(e)
            low.append(hv)
            low2.append(hv)
            depth.append(0)
            if hw is None:  # a tree edge
                parent[w] = e
                height[w] = hv + 1
                nxt[v] = i + 1
                stack.append(w)
                break
            low[e] = hw  # a back edge
            settle(e)
        else:
            stack.pop()
            if parent[v] is not None:
                settle(parent[v])
    return height, parent, tail, head, low, depth, out


def _sides(height, parent, tail, head, low, depth, out) -> Optional[list[int]]:
    """The side of every oriented edge, 1 or -1, from the left-right test
    on the orientation; None if g is nonplanar.

    A conflict pair is a list [left low, left high, right low, right high] of
    return edges, None where unset; an interval is empty when both its ends
    are None.
    """
    m = len(head)
    order = [sorted(es, key=depth.__getitem__) for es in out]
    ref: list[Optional[int]] = [None] * m
    side = [1] * m
    lowpt_edge: list[Optional[int]] = [None] * m
    bottom: list[Optional[list]] = [None] * m  # the top of the stack when e began
    stack: list[list] = []  # the conflict pairs

    def lowest(p: list) -> int:
        """The lowest lowpoint of the return edges of conflict pair p."""
        if p[0] is None and p[1] is None:
            return low[p[2]]
        if p[2] is None and p[3] is None:
            return low[p[0]]
        return min(low[p[0]], low[p[2]])

    def conflicting(lo: Optional[int], hi: Optional[int], b: int) -> bool:
        return (lo is not None or hi is not None) and low[hi] > low[b]

    def add_constraints(ei: int, e: int) -> bool:
        """Merge the return edges of ei, not the first edge out of its tail,
        with those of its earlier siblings below the parent edge e; False if
        no split into left and right exists."""
        p = [None, None, None, None]
        while True:  # merge the return edges of ei into p's right interval
            q = stack.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2], q[3], q[0], q[1]
                if q[0] is not None or q[1] is not None:
                    return False
            if low[q[2]] > low[e]:
                if p[2] is None and p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = lowpt_edge[e]
            if (stack[-1] if stack else None) is bottom[ei]:
                break

        # Merge the conflicting return edges of earlier siblings into p's left.
        while True:
            q = stack[-1]
            if not (conflicting(q[0], q[1], ei) or conflicting(q[2], q[3], ei)):
                break
            stack.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
                if conflicting(q[2], q[3], ei):
                    return False
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:
                p[1] = q[1]
            elif p[0] is not None:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if any(x is not None for x in p):
            stack.append(p)
        return True

    def integrate(ei: int) -> bool:
        """Constrain the return edges of ei, the subtree below it done."""
        v = tail[ei]
        if low[ei] >= height[v]:
            return True
        e = parent[v]
        if ei == order[v][0]:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        return add_constraints(ei, e)

    def remove_back_edges(e: int) -> None:
        """Trim the back edges that end at the tail u of e, whose subtree is
        done, and set e's reference to a highest return edge."""
        u = tail[e]
        while stack and lowest(stack[-1]) == height[u]:
            p = stack.pop()
            if p[0] is not None:
                side[p[0]] = -1
        if stack:
            p = stack[-1]
            for lo, hi in (0, 1), (2, 3):  # trim the left, then the right
                while p[hi] is not None and head[p[hi]] == u:
                    p[hi] = ref[p[hi]]
                if p[hi] is None and p[lo] is not None:  # just emptied
                    ref[p[lo]] = p[2 - lo]
                    side[p[lo]] = -1
                    p[lo] = None
        if low[e] < height[u]:
            hl, hr = stack[-1][1], stack[-1][3]
            ref[e] = hl if hl is not None and (hr is None or low[hl] > low[hr]) else hr

    nxt = [0] * len(out)
    dfs = [0]
    while dfs:
        v = dfs[-1]
        es = order[v]
        for i in range(nxt[v], len(es)):
            ei = es[i]
            bottom[ei] = stack[-1] if stack else None
            w = head[ei]
            if parent[w] == ei:
                nxt[v] = i + 1
                dfs.append(w)
                break
            lowpt_edge[ei] = ei
            stack.append([None, None, ei, ei])
            if not integrate(ei):
                return None
        else:
            dfs.pop()
            e = parent[v]
            if e is not None:
                remove_back_edges(e)
                if not integrate(e):
                    return None
    # Resolve each side relative to its reference edge into an absolute one.
    for e in range(m):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for f in reversed(chain):
            s = side[f] = side[f] * s
            ref[f] = None
    return side


class CanonicalOrder(NamedTuple):
    """A canonical ordering of a maximal planar supergraph.

    order[k-1] is the k-th placed vertex. attachments[k] (k >= 3) is the path
    contour[a..b] of the contour before step k that the k-th vertex v joins;
    the contour after step k is contour[:a+1] + [v] + contour[b:], starting
    from [order[0], order[1]]. supergraph is the maximal planar supergraph.
    """

    order: tuple[int, ...]
    attachments: dict[int, tuple[int, ...]]
    supergraph: Graph


def _arc(rot: list[list[int]], contour: list[int], i: int) -> list[int]:
    """Outer-region neighbors of contour[i]: rotation slice strictly between
    the contour successor and the contour predecessor (cyclically). On a
    contour of two they are one vertex, and the arc is all the rest."""
    r = rot[contour[i]]
    j = r.index(contour[(i + 1) % len(contour)])
    k = r.index(contour[i - 1])
    return r[j + 1 : k] if j < k else r[j + 1 :] + r[:k]


def augment_to_maximal_with_canonical_order(h: Graph) -> CanonicalOrder:
    """Maximal planar supergraph + canonical ordering with connected H-prefixes."""
    n = h.n
    if n < 3:
        raise TooSmallError("augmentation requires at least 3 vertices")
    rs = planarity_test_embed(h)
    if rs is None:
        raise NotPlanarError("input graph is not planar")

    rot: list[list[int]] = [list(r) for r in rs.rotation]

    # Base edge: lexicographically smallest undirected edge on the outer face,
    # oriented so that the outer walk contains (v2 -> v1).
    v2, v1 = min(rs.outer_face, key=lambda e: (min(e), max(e), e[0]))

    placed = [False] * n
    placed[v1] = placed[v2] = True
    contour = [v1, v2]
    # The outer arc of every contour vertex; entries of vertices that left
    # the contour are stale and never read.
    arcs: list[list[int]] = [[]] * n
    arcs[v1], arcs[v2] = _arc(rot, contour, 0), _arc(rot, contour, 1)
    # The leftmost and rightmost contour neighbors of each unplaced vertex.
    lv: list[Optional[int]] = [None] * n
    rv: list[Optional[int]] = [None] * n
    for u in arcs[v1]:
        lv[u] = rv[u] = v1
    for u in arcs[v2]:
        if lv[u] is None:
            lv[u] = v2
        rv[u] = v2
    order = [v1, v2]
    attachments: dict[int, tuple[int, ...]] = {}
    start = 0  # where _choose's scan starts (its docstring has the rule)

    for k in range(3, n + 1):
        if k == n:
            v = next(u for u in range(n) if not placed[u])
            assert set(rot[v]) <= set(contour), "final vertex still has unplaced neighbors"
            a, b = 0, len(contour) - 1
        else:
            v, a, b = _choose(arcs, lv, rv, contour, start)
        _place_fan(rot, contour, v, a, b)
        attachments[k] = tuple(contour[a : b + 1])
        contour[a + 1 : b] = [v]
        order.append(v)
        placed[v] = True
        # Only contour[a], v and contour[b] changed rotation or contour
        # neighbors. A contour vertex whose arc held v is a neighbor of v, so
        # it was on contour[a..b] and either is one of the three or has left.
        for i in range(a, a + 3):
            arcs[contour[i]] = arc = _arc(rot, contour, i)
            assert not any(map(placed.__getitem__, arc)), "placed vertex in outer arc"
        # v, now at a + 1, is a contour neighbor of the vertices of its arc,
        # whose other contour neighbors all stayed, at positions <= a or > a + 1.
        start = a
        for u in arcs[v]:
            if lv[u] is None:
                lv[u] = rv[u] = v
            elif (i := contour.index(lv[u])) > a:
                lv[u] = v
            else:
                start = min(start, i)
                if contour.index(rv[u]) <= a:
                    rv[u] = v
        if not arcs[v]:
            lone = None  # the vertex of the one-vertex arcs walked over
            while start > 0:
                arc = arcs[contour[start]]
                if arc:
                    if len(arc) > 1 or lone not in (None, arc[0]):
                        break
                    lone = arc[0]
                start -= 1

    g = Graph(n, tuple(tuple(sorted(r)) for r in rot))
    assert g.m == 3 * n - 6, f"augmented graph has {g.m} edges, expected {3 * n - 6}"
    return CanonicalOrder(
        order=tuple(order),
        attachments=attachments,
        supergraph=g,
    )


def _choose(arcs, lv, rv, contour, start: int) -> tuple[int, int, int]:
    """(v, a, b): the next vertex and the contour path contour[a..b] it
    joins, from one left-to-right scan of the contour from position start,
    below which no position holds a candidate.

    arcs[w] is the outer arc of the contour vertex w; lv[u] and rv[u] are
    the leftmost and rightmost contour neighbors of the unplaced vertex u.
    At position i, of x, the vertices u with lv[u] = contour[i] that can be
    chosen are at most two:
    - the first of the arc at i, for i <= x - 2. With one contour neighbor
      it joins (i, i + 1). With rv[u] = contour[b], b > i, it joins (i, b)
      if it is the last of the arc at b and every arc strictly between is
      empty or [u].
    - the last of the arc at i, for i >= 1, with one contour neighbor: it
      joins (i - 1, i), unless it is also the first and the first case took
      it.
    The first position with one gives the vertex, the smaller id on a tie.

    This is the vertex and path of the rule that sorts the candidates (the
    first vertex of each arc but the last contour vertex's, the last of
    each arc but the first one's) by (position of the leftmost contour
    neighbor, id) and takes the first one not blocked. A candidate with one
    contour neighbor is never blocked, and it is the first or the last of
    that neighbor's arc. One spanning contour[a..b], a < b, is blocked
    unless it opens the arc at a, closes the arc at b and is alone in the
    arcs between. So the unblocked candidates at position i are the ones
    tested here, and the scan meets the positions in the sort's order.

    Each position costs O(1), and each spanning test the arcs it crosses.
    lv and rv stay current because a chosen vertex removes from the contour
    only vertices whose arcs hold nothing but itself.

    The restart point. After v joins contour[a..b], the caller sets start
    to min(a, position of lv[u] for u in arcs[v]) when v's arc is nonempty.
    When it is empty, it walks left from a while each arc is empty or holds
    one vertex, the same one each time, and start is where the walk stops
    (0 if it runs out). Invariant: no position below start holds a
    candidate. The scan of this step found none below a: it found its
    vertex at a, or at a + 1 for one that joins (a, a + 1). The contour
    keeps its first a + 1 vertices, and a test at j < a reads the arc at j,
    lv and rv of that arc's first and last vertex, and, for a spanning u,
    the arcs up to rv[u]'s and the last vertex of that arc. All of that is
    unchanged except:
    - lv or rv of some u in arcs[v]. If u is the first or the last of the
      arc at j, it is a neighbor of contour[j], so lv[u] lies at j or to
      its left, and start is at most that position.
    - The last vertex of contour[a]'s arc, for rv[u] = contour[a]. The new
      arc is the old one minus a leading v, and u is in it too, so its
      last vertex is unchanged.
    - For a spanning u whose rv lies beyond a (at b or further: the
      vertices strictly between held only v), the arcs past a: v's at
      a + 1 and contour[b]'s. The test passes v's arc only if it is empty
      or [u]. [u] puts u in arcs[v], the first case. If it is empty, u also
      needs every arc from j + 1 to a to be empty or [u]. The walk crosses
      exactly such arcs, all with one vertex the same, so it stops at or
      below j: at the first arc to its left that is neither, which a
      candidate at j cannot have strictly between j and a.
    """
    x = len(contour)
    for i in range(start, x):
        w = contour[i]
        arc = arcs[w]
        if not arc:
            continue
        found = []
        first, last = arc[0], arc[-1]
        if i <= x - 2 and lv[first] == w:
            r = rv[first]
            if r == w:
                found.append((first, i, i + 1))
            else:
                b = i + 1
                while contour[b] != r:
                    between = arcs[contour[b]]
                    if between and (len(between) > 1 or between[0] != first):
                        break
                    b += 1
                if contour[b] == r and arcs[r][-1] == first:
                    found.append((first, i, b))
        if i >= 1 and lv[last] == w == rv[last] and (last != first or i == x - 1):
            found.append((last, i - 1, i))
        if found:
            return min(found)
    raise AssertionError("no unblocked candidate vertex found")


def _place_fan(rot, contour, v: int, a: int, b: int) -> None:
    """Attach v to the contour path contour[a..b]: add each missing edge and
    move v's other neighbors (its bridges) outside the new inner faces.

    v enters the rotation of contour[i] next to its contour neighbor on the
    side of the path: just before contour[i-1] for i > a, just after
    contour[a+1] for i = a. v's neighbors before the fan are the set of
    its rotation, taken once before the rotation is rewritten; an edge
    (v, w) is in both rotations, so that set also tells whether w has v.
    Asserts that v's contour neighbors occur in contour order in its
    rotation.
    """
    path = contour[a : b + 1]
    on_path = set(path)
    r = rot[v]
    nbrs = set(r)
    start = r.index(next(w for w in path if w in nbrs))
    rotated = r[start:] + r[:start]
    assert [w for w in rotated if w in on_path] == [w for w in path if w in nbrs], (
        "contour neighbors out of cyclic order around vertex"
    )
    rot[v] = path + [e for e in rotated if e not in on_path]
    for i in range(a, b + 1):
        w = contour[i]
        if w in nbrs:
            continue
        if i > a:
            rot[w].insert(rot[w].index(contour[i - 1]), v)
        else:
            rot[w].insert(rot[w].index(contour[i + 1]) + 1, v)
