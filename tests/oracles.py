"""Test-only oracles: the tree edge separator and the tree-proper
separator scan, the face walk of a rotation system, networkx's planar
embedding, a canonical-order validator, the canonical order by sorting its
candidates at every step, the spanning ratio on Dijkstra and on
Floyd–Warshall rows, interval containment and intersection, the
breadth-first rooting of a tree and the depth-first tree path, the padded
size of a planar tree drawing, the tree test and brute-force toughness,
written apart from the package's own code so that the tests check it
against independent code. Only the tests and bench/ import networkx; the
package does not need it."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterator, Optional

import networkx as nx

from spannerdraw.drawing import Drawing
from spannerdraw.embedding import CanonicalOrder, RotationSystem, planarity_test_embed
from spannerdraw.errors import DisconnectedDrawingError, InstanceTooLarge, PrecisionExhausted
from spannerdraw.exact import Interval, isqrt_scaled
from spannerdraw.geometry import dist_sq
from spannerdraw.graph import Graph, RootedTree, bfs
from spannerdraw.metrics import DEFAULT_REL_TOL

TOUGHNESS_LIMIT = 12


def subtree_sizes(t: RootedTree) -> list[int]:
    """The number of vertices below each vertex, itself included."""
    order = [t.root]
    for v in order:  # the list grows while it is walked
        order.extend(t.children[v])
    size = [1] * t.n
    for v in reversed(order):
        size[v] += sum(size[c] for c in t.children[v])
    return size


def edge_separator(t: RootedTree, d: int) -> tuple[int, int]:
    """Tree edge (u, v), u on the root side, splitting t into parts of size <= ceil((d-1)/d * n).

    Among valid edges the one minimizing the larger part is chosen, ties broken
    by smallest (u, v).
    """
    n = t.n
    if n < 2:
        raise ValueError("edge_separator needs at least 2 vertices")
    if t.graph.max_degree() > d:
        raise ValueError(f"tree max degree {t.graph.max_degree()} exceeds d={d}")
    size = subtree_sizes(t)
    best: Optional[tuple[int, int, int]] = None  # (larger part, u, v)
    for v in range(n):
        p = t.parent[v]
        if p is None:
            continue
        larger = max(size[v], n - size[v])
        key = (larger, p, v)
        if best is None or key < best:
            best = key
    assert best is not None
    larger, u, v = best
    bound = -((-(d - 1) * n) // d)  # ceil((d-1)/d * n)
    assert larger <= bound, f"separator bound violated: {larger} > {bound}"
    return (u, v)


def separator_scan(vs: list[int], parent) -> int:
    """The lower end v of a tree-proper part's separator edge by the scan
    draw_tree_proper once made over every part: vs lists the part's
    vertices, its root first and each vertex after its parent; the subtree
    sizes within vs are summed anew, and the edge (parent of v, v) with the
    least (larger part, parent, v) is taken over all of the part's edges."""
    m = len(vs)
    size = dict.fromkeys(vs, 1)
    for w in reversed(vs[1:]):
        size[parent[w]] += size[w]
    return min(vs[1:], key=lambda w: (max(size[w], m - size[w]), parent[w], w))


def split_at_edge(t: RootedTree, u: int, v: int) -> tuple[list[int], list[int]]:
    """Vertex sets of the two components of t minus edge (u, v); first contains the root."""
    assert t.parent[v] == u
    sub = []
    stack = [v]
    while stack:
        w = stack.pop()
        sub.append(w)
        stack.extend(t.children[w])
    sub_set = set(sub)
    rest = [w for w in range(t.n) if w not in sub_set]
    return rest, sub


def faces(rs: RotationSystem) -> list[tuple[tuple[int, int], ...]]:
    """The faces of a rotation system as directed edge walks. After arriving
    at v along (u, v), a face continues toward the neighbor preceding u in
    v's cyclic order."""
    succ = {}
    for v, around in enumerate(rs.rotation):
        for k, u in enumerate(around):
            succ[(u, v)] = (v, around[k - 1])
    out = []
    for start in sorted(succ):
        if start not in succ:
            continue
        walk = [start]
        e = succ.pop(start)
        while e != start:
            walk.append(e)
            e = succ.pop(e)
        out.append(tuple(walk))
    return out


def euler_ok(rs: RotationSystem) -> bool:
    """True iff the faces of rs satisfy Euler's formula n - m + f = 2."""
    g = rs.graph
    return g.n - g.m + len(faces(rs)) == 2


def networkx_rotation(g: Graph) -> Optional[tuple[tuple[int, ...], ...]]:
    """The counterclockwise rotation of each vertex in networkx's embedding of
    g, None if g is nonplanar: `check_planarity`'s clockwise neighbor lists,
    each starting at its leftmost neighbor, reversed."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        return None
    data = emb.get_data()
    return tuple(tuple(reversed(data[v])) for v in range(g.n))


def canonical_order_validate(co: CanonicalOrder, h: Graph, reason: Optional[list] = None) -> bool:
    """Independent check of every CanonicalOrder invariant of co, augmented
    from the host graph h.

    Uses its own machinery (networkx biconnectivity/planarity, an apex test for
    the contour being a face) rather than the construction's bookkeeping: each
    contour is rebuilt from the previous one and attachments[k]. On failure,
    appends a human-readable reason to `reason` if provided.
    """

    def fail(msg: str) -> bool:
        if reason is not None:
            reason.append(msg)
        return False

    g = co.supergraph
    n = g.n
    order = list(co.order)
    if sorted(order) != list(range(n)):
        return fail("order is not a permutation")
    if n < 3:
        return fail("too small")
    v1, v2 = order[0], order[1]
    if not g.has_edge(v1, v2):
        return fail("v1v2 is not an edge")
    if g.m != 3 * n - 6:
        return fail(f"edge count {g.m} != 3n-6")
    for u, w in h.edges():
        if not g.has_edge(u, w):
            return fail("host edge missing from supergraph")

    host_adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in h.edges():
        host_adj[u].add(w)
        host_adj[w].add(u)

    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges())
    if not nx.check_planarity(nxg)[0]:
        return fail("supergraph not planar")

    contour = (v1, v2)
    for k in range(2, n + 1):
        prefix = order[:k]
        pset = set(prefix)
        # H-prefix connectivity
        hsub = nx.Graph()
        hsub.add_nodes_from(prefix)
        hsub.add_edges_from(
            (u, w) for u in prefix for w in host_adj[u] if w in pset and u < w
        )
        if not nx.is_connected(hsub):
            return fail(f"H-prefix disconnected at k={k}")
        gsub = nx.Graph()
        gsub.add_nodes_from(prefix)
        gsub.add_edges_from(
            (u, w) for u in prefix for w in g.adj[u] if w in pset and u < w
        )
        if k >= 3 and not nx.is_biconnected(gsub):
            return fail(f"G-prefix not 2-connected at k={k}")
        if k >= 3:
            # The contour after step k, rebuilt from the one before it.
            att = co.attachments.get(k)
            if not att:
                return fail(f"missing attachments at k={k}")
            if not set(att) <= set(contour):
                return fail(f"attachments off the contour at k={k}")
            # attachments must be a consecutive subpath of the previous contour
            idx = [contour.index(w) for w in att]
            if idx != list(range(idx[0], idx[0] + len(idx))):
                return fail(f"attachments not consecutive on contour at k={k}")
            contour = contour[: idx[0] + 1] + (order[k - 1],) + contour[idx[-1] :]
        if contour[0] != v1 or contour[-1] != v2:
            return fail(f"contour endpoints wrong at k={k}")
        if order[k - 1] not in contour and k > 2:
            return fail(f"v_k not on contour at k={k}")
        if len(set(contour)) != len(contour) or set(contour) - pset:
            return fail(f"contour malformed at k={k}")
        for i in range(len(contour) - 1):
            if not g.has_edge(contour[i], contour[i + 1]):
                return fail(f"contour not a path in G_k at k={k}")
        # The contour cycle must bound a face of some planar embedding of G_k:
        # adding an apex adjacent to every contour vertex must stay planar.
        apex = n
        gsub.add_edges_from((apex, w) for w in contour)
        if not nx.check_planarity(gsub)[0]:
            return fail(f"contour does not bound a face at k={k}")
        if k >= 3:
            nbrs = {w for w in g.adj[order[k - 1]] if w in set(order[: k - 1])}
            if set(att) != nbrs:
                return fail(f"attachments != prefix neighbors at k={k}")
    return True


def canonical_order_by_sorting(h: Graph) -> CanonicalOrder:
    """The augmentation of a connected planar graph h by the selection rule
    that the contour scan of augment_to_maximal_with_canonical_order must
    reproduce, with no state kept from step to step.

    Every step rebuilds the contour positions and every outer arc (the
    rotation slice of a contour vertex strictly between its contour
    successor and predecessor). The candidates are the first vertex of each
    arc but the last contour vertex's and the last vertex of each arc but
    the first one's. Sorted by (position of the leftmost contour neighbor,
    id), the first one that is not blocked is attached: a vertex with one
    contour neighbor contour[a] joins (a, a + 1) if it opens that
    neighbor's arc and (a - 1, a) otherwise; one with leftmost and
    rightmost contour neighbors at a < b joins (a, b) unless some vertex
    other than itself is in an arc strictly between, or precedes it in the
    arc at a, or follows it in the arc at b. The last vertex joins the whole
    contour.
    """
    n = h.n
    rs = planarity_test_embed(h)
    rot = [list(r) for r in rs.rotation]
    adj = [set(a) for a in h.adj]
    v2, v1 = min(rs.outer_face, key=lambda e: (min(e), max(e), e[0]))
    contour = [v1, v2]
    order = [v1, v2]
    attachments = {}

    def outer_arc(i: int) -> list[int]:
        r = rot[contour[i]]
        succ, pred = contour[(i + 1) % len(contour)], contour[i - 1]
        j = r.index(succ)
        turned = r[j + 1:] + r[:j]
        return turned[:turned.index(pred)] if pred in turned else turned

    def blocked(arcs: list[list[int]], a: int, b: int, v: int) -> bool:
        inside = [e for i in range(a + 1, b) for e in arcs[i]]
        return (any(e != v for e in inside) or arcs[a].index(v) > 0
                or arcs[b].index(v) < len(arcs[b]) - 1)

    def next_vertex() -> tuple[int, int, int]:
        x = len(contour)
        pos = {w: i for i, w in enumerate(contour)}
        arcs = [outer_arc(i) for i in range(x)]
        candidates = {arcs[i][0] for i in range(x - 1) if arcs[i]}
        candidates |= {arcs[i][-1] for i in range(1, x) if arcs[i]}
        contacts = {u: sorted(pos[w] for w in adj[u] if w in pos) for u in candidates}
        for v in sorted(candidates, key=lambda u: (contacts[u][0], u)):
            a, b = contacts[v][0], contacts[v][-1]
            if a == b:
                return (v, a, a + 1) if a <= x - 2 and arcs[a][0] == v else (v, a - 1, a)
            if not blocked(arcs, a, b, v):
                return v, a, b
        raise AssertionError("no unblocked candidate")

    for k in range(3, n + 1):
        if k == n:
            v = next(u for u in range(n) if u not in order)
            a, b = 0, len(contour) - 1
        else:
            v, a, b = next_vertex()
        path = contour[a:b + 1]
        # v's rotation: the path, then its other neighbors in their cyclic
        # order from the first path vertex it already had.
        r = rot[v]
        start = r.index(next(w for w in path if w in adj[v]))
        rot[v] = path + [e for e in r[start:] + r[:start] if e not in path]
        for i, w in enumerate(path):
            if w not in adj[v]:
                adj[v].add(w)
                adj[w].add(v)
                # Next to the path neighbor, on the side of the new face.
                rw = rot[w]
                if i == 0:
                    rw.insert(rw.index(path[1]) + 1, v)
                else:
                    rw.insert(rw.index(path[i - 1]), v)
        attachments[k] = tuple(path)
        contour = contour[:a + 1] + [v] + contour[b:]
        order.append(v)
    supergraph = Graph.from_edges(n, [(u, w) for u in range(n) for w in adj[u] if u < w])
    return CanonicalOrder(tuple(order), attachments, supergraph)


def _dijkstra_rows(g: Graph, weights: dict[tuple[int, int], int]) -> list[dict[int, int]]:
    """Shortest-path distances of a connected graph from every source (Dijkstra)."""
    adj = [[(v, weights[(min(u, v), max(u, v))]) for v in g.adj[u]] for u in range(g.n)]
    rows = []
    for source in range(g.n):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            du, u = heapq.heappop(heap)
            if dist[u] == du:
                for v, w in adj[u]:
                    nd = du + w
                    if v not in dist or nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        rows.append(dist)
    return rows


def _floyd_warshall(g: Graph, weights: dict[tuple[int, int], int]) -> list[list[int]]:
    """All-pairs shortest paths of a connected graph (Floyd–Warshall)."""
    n = g.n
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


def _numerators(d: Drawing) -> tuple[int, list[tuple[int, int]]]:
    """The least common denominator L of d's coordinates, and the integer
    numerators of its points over L."""
    L = math.lcm(*{c.denominator for p in d.coords for c in p})
    return L, [(int(x * L), int(y * L)) for x, y in d.coords]


def _ratio_at(g: Graph, pts: list[tuple[int, int]], den: int, bits: int, all_pairs) -> Interval:
    """The enclosure of one precision: every pair bracketed at bits over
    den = L**2, with all_pairs(g, weights)[u][v] rows under the lower and
    the upper edge brackets. Every pair must bracket away from 0."""
    brackets = {e: isqrt_scaled(dist_sq(pts[e[0]], pts[e[1]]), den, bits) for e in g.edges()}
    dist_lo = all_pairs(g, {e: b[0] for e, b in brackets.items()})
    dist_hi = all_pairs(g, {e: b[1] for e, b in brackets.items()})
    best_lo, best_hi = (1, 1), (1, 1)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            e_lo, e_hi = isqrt_scaled(dist_sq(pts[u], pts[v]), den, bits)
            assert e_lo > 0
            if dist_lo[u][v] * best_lo[1] > best_lo[0] * e_hi:
                best_lo = (dist_lo[u][v], e_hi)
            if dist_hi[u][v] * best_hi[1] > best_hi[0] * e_lo:
                best_hi = (dist_hi[u][v], e_lo)
    lo = Fraction(*best_lo)
    return Interval(lo, max(Fraction(*best_hi), lo))


def _ratio_enclosures(d: Drawing, start: int, all_pairs) -> Iterator[Interval]:
    """The spanning ratio's enclosures of d, every step its own: n >= 2 and
    connectivity; on the integer numerators over the least common
    denominator L, the closest of all pairs, which gives coincidence (the
    one infinite interval) or, if it brackets to 0 at start bits, a shift
    of the scale by the least b with closest * 4**b >= L**2 and a start
    twice as large; then at start, 2 * start, ... bits up to 16384, each
    plus the shift, the enclosure of that precision (_ratio_at)."""
    g, n = d.graph, d.graph.n
    if n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    seen, stack = {0}, [0]
    while stack:
        new = set(g.adj[stack.pop()]) - seen
        seen |= new
        stack += new
    if len(seen) < n:
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    L, pts = _numerators(d)
    closest = min(dist_sq(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
    if closest == 0:
        yield Interval(math.inf, math.inf)
        return
    den, shift, bits = L * L, 0, start
    if closest << 2 * start < den:
        while closest << 2 * shift < den:
            shift += 1
        bits *= 2
    while bits <= 16384:
        yield _ratio_at(g, pts, den, bits + shift, all_pairs)
        bits *= 2


def _ratio_enclosure(d: Drawing, rel_tol: Fraction, start: int, all_pairs) -> Interval:
    """The first of _ratio_enclosures(d, start, all_pairs) that is infinite
    or whose relative width is within rel_tol."""
    for ivl in _ratio_enclosures(d, start, all_pairs):
        if ivl.is_infinite or ivl.rel_width() <= rel_tol:
            return ivl
    raise PrecisionExhausted("precision escalation exhausted")


def spanning_ratio_oracle(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """The enclosure spanning_ratio must certify, number for number: Dijkstra
    rows from every source at 64, 128, ... bits, as it certified before it
    pruned any pair."""
    return _ratio_enclosure(d, rel_tol, 64, _dijkstra_rows)


def spanning_ratio_oracle_enclosures(d: Drawing) -> Iterator[Interval]:
    """The enclosures of spanning_ratio_oracle, one per precision, which
    each precision of the certificate must equal."""
    return _ratio_enclosures(d, 64, _dijkstra_rows)


def spanning_ratio_oracle_at(d: Drawing, bits: int) -> Interval:
    """The full scan's enclosure at exactly bits, with no shift, on Dijkstra
    rows: what each pass of the certificate must give at any bit size at
    which every pair of d brackets away from 0."""
    L, pts = _numerators(d)
    return _ratio_at(d.graph, pts, L * L, bits, _dijkstra_rows)


def spanning_ratio_bruteforce(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """An enclosure spanning_ratio's must meet: Floyd–Warshall rows at
    doubled starting precision, 128, 256, ... bits."""
    return _ratio_enclosure(d, rel_tol, 128, _floyd_warshall)


def contains(iv: Interval, x) -> bool:
    """True iff x lies in the closed interval iv."""
    return iv.lo <= x <= iv.hi


def intersects(a: Interval, b: Interval) -> bool:
    """True iff the closed intervals a and b meet."""
    return a.lo <= b.hi and b.lo <= a.hi


def tree_planar_size(g: Graph) -> int:
    """n', the vertex count of draw_tree_planar's tree once every lone child
    has a sibling: n plus the vertices with exactly one child when the tree
    (not a path) is rooted at its least leaf."""
    root = min(v for v in range(g.n) if g.degree(v) == 1)
    return g.n + sum(g.degree(v) - (v != root) == 1 for v in range(g.n))


def rooted_bfs(tree_adj: list[set[int]]) -> tuple[list[int], list[int]]:
    """(parent, depth) of a spanning tree given by adjacency sets, rooted at
    vertex 0, whose parent is itself, by a fresh breadth-first walk, as
    degree_bounded_spanning_tree once rooted its tree after every swap."""
    n = len(tree_adj)
    up, depth = [0] * n, [-1] * n
    depth[0] = 0
    order = [0]
    for u in order:  # the list grows while it is walked: a FIFO queue
        for v in tree_adj[u]:
            if depth[v] < 0:
                up[v], depth[v] = u, depth[u] + 1
                order.append(v)
    return up, depth


def tree_path_dfs(tree_adj: list[set[int]], s: int, t: int) -> list[int]:
    """The path from s to t in a tree given by adjacency sets, by a
    depth-first search of the whole tree from s, as
    degree_bounded_spanning_tree once found each cycle."""
    prev: dict[int, int] = {s: s}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            break
        for v in tree_adj[u]:
            if v not in prev:
                prev[v] = u
                stack.append(v)
    path = [t]
    while path[-1] != s:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            comps.append(bfs(g, s)[0])
            for v in comps[-1]:
                seen[v] = True
    return comps


def is_tree(g: Graph) -> bool:
    """True iff g has n - 1 edges and one component."""
    return g.m == g.n - 1 and len(connected_components(g)) == 1


def toughness_bruteforce(g: Graph):
    """Exact toughness: min over cut sets S of |S| / (#components of G-S).

    Returns a Fraction, or math.inf for graphs no vertex removal splits
    (complete graphs and graphs with n <= 2).
    """
    n = g.n
    if n > TOUGHNESS_LIMIT:
        raise InstanceTooLarge(n, TOUGHNESS_LIMIT)
    best: Optional[Fraction] = None
    for mask in range(1, 1 << n):
        removed = [v for v in range(n) if mask & (1 << v)]
        if len(removed) == n:
            continue
        kept = [v for v in range(n) if not (mask & (1 << v))]
        sub = g.induced(kept)
        k = len(connected_components(sub))
        if k >= 2:
            val = Fraction(len(removed), k)
            if best is None or val < best:
                best = val
    return best if best is not None else math.inf
