"""Test-only oracles: the tree edge separator, the face walk of a rotation
system, networkx's planar embedding, a canonical-order validator, the
all-pairs spanning ratio and brute-force toughness, written apart from the
package's own code so that the tests check it against independent code.
Only the tests and bench/ import networkx; the package does not need it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import networkx as nx

from spannerdraw.drawing import Drawing
from spannerdraw.embedding import CanonicalOrder, RotationSystem
from spannerdraw.errors import InstanceTooLarge
from spannerdraw.exact import Interval
from spannerdraw.graph import Graph, RootedTree, bfs_order
from spannerdraw.metrics import DEFAULT_REL_TOL, _START_BITS, _certify, _every, _ratio_enclosures

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


def canonical_order_validate(co: CanonicalOrder, reason: Optional[list] = None) -> bool:
    """Independent check of every CanonicalOrder invariant.

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
    for u, w in co.host_edges:
        if not g.has_edge(u, w):
            return fail("host edge missing from supergraph")

    host_adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in co.host_edges:
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


def spanning_ratio_bruteforce(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Independent oracle: Floyd–Warshall all-pairs at doubled starting precision."""
    n = d.graph.n

    def rows(lo_w, hi_w, groups):
        dist_lo, dist_hi = _all_pairs(n, lo_w), _all_pairs(n, hi_w)
        for u, targets in _every(n) if groups is None else groups:
            yield u, targets, [dist_lo[u][v] for v in targets], [dist_hi[u][v] for v in targets]

    return next(_certify(_ratio_enclosures(d, 2 * _START_BITS, rows), [rel_tol]))


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            comps.append(bfs_order(g, s))
            for v in comps[-1]:
                seen[v] = True
    return comps


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
