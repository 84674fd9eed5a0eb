"""Undirected simple graphs, rooted trees, orderings, and an exact
Hamiltonian path search.

hamiltonian_path is exponential and refuses large inputs with
InstanceTooLarge: one subset-DP table of 4 * 2^n bytes for n up to
HAMILTONIAN_DP_LIMIT. No function here recurses. The brute-force toughness
oracle lives in tests/oracles.py; no caller of the package needs it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InstanceTooLarge, NotATreeError, NotConnectedError

HAMILTONIAN_DP_LIMIT = 24


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by `vertices`, relabeled to 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            (index[u], index[v])
            for u in vertices
            for v in self.adj[u]
            if u < v and v in index
        ]
        return Graph.from_edges(len(vertices), edges)

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and is_connected(self)


@dataclass
class RootedTree:
    """A tree with a root, parent pointers, and ordered child lists."""

    graph: Graph
    root: int
    parent: list[Optional[int]] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)

    @staticmethod
    def from_graph(g: Graph, root: int = 0) -> "RootedTree":
        if not g.is_tree():
            raise NotATreeError(f"graph with n={g.n}, m={g.m} is not a tree")
        if not isinstance(root, int) or isinstance(root, bool) or not 0 <= root < g.n:
            raise ValueError(f"root {root!r} is not a vertex of a tree with n={g.n}")
        parent = bfs_parents(g, root)
        children = [[v for v in g.adj[u] if parent[v] == u] for u in range(g.n)]
        return RootedTree(g, root, parent, children)

    @property
    def n(self) -> int:
        return self.graph.n


def bfs_order(g: Graph, root: int = 0) -> list[int]:
    """The vertices reachable from root, in breadth-first order with
    neighbors in adjacency order. Every prefix induces a connected subgraph,
    and a vertex's BFS parent is its neighbor that comes first."""
    order = [root]
    seen = {root}
    for u in order:  # the list grows while it is walked: a FIFO queue
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def bfs_parents(g: Graph, root: int = 0) -> list[Optional[int]]:
    """Each vertex's BFS parent from root: its neighbor that comes first in
    bfs_order. None at the root and at the vertices root does not reach."""
    parent: list[Optional[int]] = [None] * g.n
    for u in bfs_order(g, root):
        for v in g.adj[u]:
            if parent[v] is None and v != root:
                parent[v] = u
    return parent


def preorder(children: Sequence[Sequence[int]], root: int) -> list[int]:
    """The vertices below root in preorder, children in the given order: each
    subtree is a contiguous slice that starts at its root."""
    out, stack = [], [root]
    while stack:
        out.append(stack.pop())
        stack.extend(reversed(children[out[-1]]))
    return out


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (vacuously true for n=0)."""
    return g.n == 0 or len(bfs_order(g)) == g.n


def path_order(g: Graph) -> Optional[list[int]]:
    """Vertices of g in path order, from the end with the smaller id, if g is
    a path graph, the empty and the one-vertex graph included; else None."""
    n = g.n
    if n <= 1:
        return list(range(n))
    if g.m != n - 1 or g.max_degree() > 2:
        return None
    ends = [v for v in range(n) if g.degree(v) == 1]
    if len(ends) != 2:
        return None
    order = [min(ends)]
    prev = -1
    while len(order) < n:
        nxt = [w for w in g.adj[order[-1]] if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def hamiltonian_path(g: Graph) -> Optional[list[int]]:
    """A Hamiltonian path as a vertex list, or None: the subset DP of Bellman
    and Held-Karp. ends[mask] is the bitset of the vertices that end a path
    through exactly the vertices of mask (4 * 2^n bytes). The forward pass
    walks only the masks reached, one popcount layer at a time, extends each
    by every unvisited neighbor of any of its ends, and stops at the first
    empty layer; the path is read back from the same table."""
    n = g.n
    if n > HAMILTONIAN_DP_LIMIT:
        raise InstanceTooLarge(n, HAMILTONIAN_DP_LIMIT)
    if not is_connected(g):
        return None
    nbr = [sum(1 << v for v in g.adj[u]) for u in range(n)]
    ends = array("I", [0]) * (1 << n)
    frontier = [1 << v for v in range(n)]
    for mask in frontier:
        ends[mask] = mask
    for _ in range(n - 1):
        nxt = []
        for mask in frontier:
            e, cand = ends[mask], 0
            while e:
                u_bit = e & -e
                e ^= u_bit
                cand |= nbr[u_bit.bit_length() - 1]
            cand &= ~mask
            while cand:
                v_bit = cand & -cand
                cand ^= v_bit
                nm = mask | v_bit
                if not ends[nm]:
                    nxt.append(nm)
                ends[nm] |= v_bit
        if not nxt:
            return None
        frontier = nxt
    # Backwards from the least end of the full mask: each step takes the
    # least neighbor that ends a path through the vertices left.
    path = []
    mask = (1 << n) - 1
    e = ends[mask]
    while mask:
        v = (e & -e).bit_length() - 1
        path.append(v)
        mask ^= 1 << v
        e = ends[mask] & nbr[v]
    path.reverse()
    return path


def degree_bounded_spanning_tree(g: Graph, d_target: int) -> RootedTree:
    """Spanning tree with small maximum degree via local edge swaps.

    Starts from a BFS tree and repeatedly swaps a non-tree edge for a tree edge
    to relieve maximum-degree vertices. Returns the best tree found, whose
    maximum degree exceeds d_target when the search stalls above it.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    parent = bfs_parents(g)
    if None in parent[1:]:  # a vertex other than the root 0 is unreached
        raise NotConnectedError("graph must be connected")
    tree_adj: list[set[int]] = [set() for _ in range(n)]
    for v, u in enumerate(parent[1:], 1):
        tree_adj[u].add(v)
        tree_adj[v].add(u)

    non_tree = [(u, v) for u in range(n) for v in g.adj[u] if u < v and v not in tree_adj[u]]
    improved = True
    while improved:
        deg = list(map(len, tree_adj))
        k = max(deg)
        if k <= d_target:
            break
        improved = False
        hot = {w for w, dw in enumerate(deg) if dw == k}
        up, depth = _rooted(tree_adj)
        for u, v in non_tree:
            if deg[u] >= k - 1 or deg[v] >= k - 1:
                continue
            cycle = _tree_path(up, depth, u, v)
            swap = next(
                (
                    (cycle[i], cycle[i + 1])
                    for i in range(len(cycle) - 1)
                    if cycle[i] in hot or cycle[i + 1] in hot
                ),
                None,
            )
            if swap is None:
                continue
            a, b = swap
            tree_adj[a].discard(b)
            tree_adj[b].discard(a)
            tree_adj[u].add(v)
            tree_adj[v].add(u)
            non_tree.remove((u, v))
            non_tree.append((min(a, b), max(a, b)))
            improved = True
            break

    return RootedTree.from_graph(Graph(n, tuple(tuple(sorted(a)) for a in tree_adj)), 0)


def _rooted(tree_adj: list[set[int]]) -> tuple[list[int], list[int]]:
    """(parent, depth) of a spanning tree given by adjacency sets, rooted at
    vertex 0, whose parent is itself."""
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


def _tree_path(up: list[int], depth: list[int], s: int, t: int) -> list[int]:
    """The path from s to t in the tree of _rooted: up from both ends, the
    deeper one first, until they meet. A tree has one path between two
    vertices, so no search is needed."""
    head, tail = [s], [t]
    while s != t:
        if depth[s] >= depth[t]:
            s = up[s]
            head.append(s)
        else:
            t = up[t]
            tail.append(t)
    return head + tail[-2::-1]
