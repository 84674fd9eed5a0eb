"""Test-only oracles: the tree edge separator, the face walk of a rotation
system and networkx's planar embedding, written apart from the package's own
code so that the tests check it against independent code."""

from __future__ import annotations

from typing import Optional

import networkx as nx

from spannerdraw.embedding import RotationSystem
from spannerdraw.graph import Graph, RootedTree


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
