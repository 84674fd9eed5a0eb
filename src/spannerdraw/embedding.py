"""Combinatorial planar embeddings and the canonical-ordering augmentation.

A rotation system stores, for every vertex, the cyclic order of its neighbors
("counterclockwise" by convention). Faces are traced by the rule: after
arriving at v along the directed edge (u, v), the face continues toward the
neighbor immediately preceding u in v's cyclic list. Under this rule internal
faces of a drawing are traversed counterclockwise and the outer face clockwise.

The augmentation turns a connected planar graph H into a maximal planar
supergraph G with a canonical ordering whose H-prefixes are all connected. It
runs entirely on the rotation system: the partially built graph keeps an
explicit outer contour [w_1..w_x], and for every contour vertex the "outer
arc" (the neighbors lying in the outer region) is the cyclic slice of its
rotation strictly between its contour successor and its contour predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotConnectedError, NotPlanarError, TooSmallError
from .graph import Graph, VertexOrder, is_connected


@dataclass(frozen=True)
class RotationSystem:
    """A combinatorial planar embedding with a chosen outer face."""

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[tuple[int, int], ...]  # directed edge walk

    def face_of(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """The face walk containing directed edge (u, v)."""
        walk = [(u, v)]
        cur = (u, v)
        while True:
            a, b = cur
            r = self.rotation[b]
            w = r[(r.index(a) - 1) % len(r)]
            cur = (b, w)
            if cur == walk[0]:
                return tuple(walk)
            walk.append(cur)

    def faces(self) -> list[tuple[tuple[int, int], ...]]:
        seen: set[tuple[int, int]] = set()
        out = []
        for u in range(self.graph.n):
            for v in self.graph.adj[u]:
                if (u, v) in seen:
                    continue
                f = self.face_of(u, v)
                seen.update(f)
                out.append(f)
        return out

    def euler_ok(self) -> bool:
        g = self.graph
        return g.n - g.m + len(self.faces()) == 2


def planarity_test_embed(g: Graph) -> Optional[RotationSystem]:
    """A rotation system with a deterministic outer face, or None if g is nonplanar."""
    if not is_connected(g):
        raise NotConnectedError("embedding requires a connected graph")
    import networkx as nx  # here, not at module level: it doubles the package's import time

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        return None
    data = emb.get_data()  # clockwise neighbor order per vertex
    rotation = tuple(tuple(reversed(data[v])) for v in range(g.n))
    if g.m == 0:
        return RotationSystem(g, rotation, ())
    anchor = next(u for u in range(g.n) if g.adj[u])
    rs = RotationSystem(g, rotation, ())
    outer = rs.face_of(anchor, min(g.adj[anchor]))
    return RotationSystem(g, rotation, outer)


@dataclass(frozen=True)
class CanonicalOrder:
    """Ordering and per-step structure produced by the augmentation.

    order[k-1] is the k-th placed vertex. attachments[k] (k >= 3) is the
    contour subpath of step k-1 that the k-th vertex connects to, in contour
    order. contours[k] is the outer path w_1..w_x of the prefix graph G_k.
    host_edges are the edges of the original input graph.
    """

    order: VertexOrder
    supergraph: Graph
    host_edges: frozenset[tuple[int, int]]
    attachments: dict[int, tuple[int, ...]]
    contours: dict[int, tuple[int, ...]]
    rotation: tuple[tuple[int, ...], ...]


def _arc(rot: list[list[int]], contour: list[int], i: int) -> list[int]:
    """Outer-region neighbors of contour[i]: rotation slice strictly between
    the contour successor and the contour predecessor (cyclically)."""
    x = len(contour)
    w = contour[i]
    nxt = contour[(i + 1) % x]
    prv = contour[(i - 1) % x]
    r = rot[w]
    j = r.index(nxt)
    out = []
    for step in range(1, len(r)):
        e = r[(j + step) % len(r)]
        if e == prv:
            break
        out.append(e)
    return out


def augment_to_maximal_with_canonical_order(h: Graph) -> CanonicalOrder:
    """Maximal planar supergraph + canonical ordering with connected H-prefixes."""
    n = h.n
    if n < 3:
        raise TooSmallError("augmentation requires at least 3 vertices")
    if not is_connected(h):
        raise NotConnectedError("augmentation requires a connected graph")
    rs = planarity_test_embed(h)
    if rs is None:
        raise NotPlanarError("input graph is not planar")

    rot: list[list[int]] = [list(r) for r in rs.rotation]
    adj: list[set[int]] = [set(a) for a in h.adj]

    # Base edge: lexicographically smallest undirected edge on the outer face,
    # oriented so that the outer walk contains (v2 -> v1).
    best = None
    for p, q in rs.outer_face:
        key = (min(p, q), max(p, q), p)
        if best is None or key < best:
            best = key
            v2, v1 = p, q
    assert best is not None

    placed = [False] * n
    placed[v1] = placed[v2] = True
    contour = [v1, v2]
    order = [v1, v2]
    attachments: dict[int, tuple[int, ...]] = {}
    contours: dict[int, tuple[int, ...]] = {2: (v1, v2)}

    for k in range(3, n + 1):
        x = len(contour)
        cpos = {w: i for i, w in enumerate(contour)}

        if k == n:
            v = next(u for u in range(n) if not placed[u])
            _place_last(rot, adj, contour, v)
            attachments[k] = tuple(contour)
            order.append(v)
            placed[v] = True
            contour = [v1, v, v2]
            contours[k] = tuple(contour)
            continue

        arcs = [_arc(rot, contour, i) for i in range(x)]
        for i, a in enumerate(arcs):
            assert all(not placed[e] for e in a), "placed vertex in outer arc"

        candidates: set[int] = set()
        for i in range(x):
            if not arcs[i]:
                continue
            if i <= x - 2:
                candidates.add(arcs[i][0])
            if i >= 1:
                candidates.add(arcs[i][-1])

        chosen = None
        for v in sorted(candidates, key=lambda u: (min(cpos[w] for w in adj[u] if w in cpos), u)):
            idxs = sorted(cpos[w] for w in adj[v] if w in cpos)
            a, b = idxs[0], idxs[-1]
            if not _blocked(arcs, a, b, v):
                chosen = (v, a, b)
                break
        assert chosen is not None, "no unblocked candidate vertex found"
        v, a, b = chosen

        if a == b:
            arc_a = arcs[a]
            if a <= x - 2 and arc_a[0] == v:
                partner = contour[a + 1]
                wa = contour[a]
                adj[v].add(partner)
                adj[partner].add(v)
                rot[partner].insert(rot[partner].index(wa), v)
                rot[v].insert(rot[v].index(wa) + 1, partner)
                attachments[k] = (wa, partner)
                contour = contour[: a + 1] + [v] + contour[a + 1 :]
            else:
                assert a >= 1 and arc_a[-1] == v
                partner = contour[a - 1]
                wa = contour[a]
                adj[v].add(partner)
                adj[partner].add(v)
                rot[partner].insert(rot[partner].index(wa) + 1, v)
                rot[v].insert(rot[v].index(wa), partner)
                attachments[k] = (partner, wa)
                contour = contour[:a] + [v] + contour[a:]
        else:
            _place_fan(rot, adj, contour, v, a, b)
            attachments[k] = tuple(contour[a : b + 1])
            contour = contour[: a + 1] + [v] + contour[b:]

        order.append(v)
        placed[v] = True
        contours[k] = tuple(contour)

    edges = [(u, w) for u in range(n) for w in adj[u] if u < w]
    g = Graph.from_edges(n, edges)
    assert g.m == 3 * n - 6, f"augmented graph has {g.m} edges, expected {3 * n - 6}"
    return CanonicalOrder(
        order=VertexOrder(tuple(order)),
        supergraph=g,
        host_edges=frozenset((min(u, w), max(u, w)) for u, w in h.edges()),
        attachments=attachments,
        contours=contours,
        rotation=tuple(tuple(r) for r in rot),
    )


def _blocked(arcs: list[list[int]], a: int, b: int, v: int) -> bool:
    """True iff some foreign attachment lies inside the reference cycle of v."""
    if a == b:
        return False
    for i in range(a + 1, b):
        if any(e != v for e in arcs[i]):
            return True
    arc_a = arcs[a]
    pos = arc_a.index(v)
    if pos > 0:
        return True
    arc_b = arcs[b]
    pos = arc_b.index(v)
    if pos < len(arc_b) - 1:
        return True
    return False


def _fan_rotation_blocks(rot_v: list[int], contour_slice: list[int]) -> tuple[list[int], list[int]]:
    """Split rot_v (cyclic) into (inside, outside) unplaced blocks relative to
    the fan of contour neighbors, rotating so the slice's first vertex leads.

    Asserts that the contour neighbors of v occur in contour order in rot_v.
    """
    members = set(contour_slice) & set(rot_v)
    ordered = [w for w in contour_slice if w in members]
    start = rot_v.index(ordered[0])
    rotated = rot_v[start:] + rot_v[:start]
    seen_placed = [w for w in rotated if w in members]
    assert seen_placed == ordered, "contour neighbors out of cyclic order around vertex"
    last_pos = rotated.index(ordered[-1])
    inside = [e for e in rotated[:last_pos] if e not in members]
    outside = rotated[last_pos + 1 :]
    return inside, outside


def _place_fan(rot, adj, contour, v: int, a: int, b: int) -> None:
    """The a < b placement: fan edges to contour[a..b], bridges of v moved outside."""
    slice_ = contour[a : b + 1]
    inside, outside = _fan_rotation_blocks(rot[v], slice_)
    rot[v] = list(slice_) + inside + outside
    for i in range(a + 1, b):
        w = contour[i]
        if v not in adj[w]:
            adj[v].add(w)
            adj[w].add(v)
            rot[w].insert(rot[w].index(contour[i + 1]) + 1, v)


def _place_last(rot, adj, contour, v: int) -> None:
    """The k = n closure: edges from the final vertex to the whole contour."""
    x = len(contour)
    inside, outside = _fan_rotation_blocks(rot[v], [w for w in contour if w in adj[v]])
    assert not inside and not outside, "final vertex still has unplaced neighbors"
    rot[v] = list(contour)
    for i, w in enumerate(contour):
        if v in adj[w]:
            continue
        adj[v].add(w)
        adj[w].add(v)
        if i == 0:
            rot[w].insert(rot[w].index(contour[-1]), v)
        elif i == x - 1:
            rot[w].insert(rot[w].index(contour[0]) + 1, v)
        else:
            rot[w].insert(rot[w].index(contour[i + 1]) + 1, v)


def canonical_order_validate(co: CanonicalOrder, reason: Optional[list] = None) -> bool:
    """Independent check of every CanonicalOrder invariant.

    Uses its own machinery (networkx biconnectivity/planarity, an apex test for
    the contour being a face) rather than the construction's bookkeeping. On
    failure, appends a human-readable reason to `reason` if provided.
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

    import networkx as nx  # here, as in planarity_test_embed

    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges())
    if not nx.check_planarity(nxg)[0]:
        return fail("supergraph not planar")

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
        contour = co.contours.get(k)
        if contour is None:
            return fail(f"missing contour at k={k}")
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
            att = co.attachments.get(k)
            if att is None:
                return fail(f"missing attachments at k={k}")
            vk = order[k - 1]
            prev_contour = co.contours[k - 1]
            nbrs = {w for w in g.adj[vk] if w in set(order[: k - 1])}
            if set(att) != nbrs:
                return fail(f"attachments != prefix neighbors at k={k}")
            # attachments must be a consecutive subpath of the previous contour
            idx = [prev_contour.index(w) for w in att]
            if idx != list(range(idx[0], idx[0] + len(idx))):
                return fail(f"attachments not consecutive on contour at k={k}")
    return True
