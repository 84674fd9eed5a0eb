"""Undirected simple graphs, rooted trees, orderings, and an exact
Hamiltonian path search.

A Graph is an immutable value, equal to another graph with the same n and
adjacency lists and hashed alike; its edge count m is counted when first
read and kept, which changes no comparison or hash. A RootedTree is a
plain record of a tree graph, its root, and the parent and child lists of
one breadth-first walk.

hamiltonian_path is exponential and refuses large inputs with
InstanceTooLarge: one subset-DP table of 4 * 2^n bytes for n up to
HAMILTONIAN_DP_LIMIT. No function here recurses. The brute-force toughness
oracle lives in tests/oracles.py; no caller of the package needs it.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from .errors import InstanceTooLarge, NotATreeError, NotConnectedError
from .frozen import Frozen

HAMILTONIAN_DP_LIMIT = 24


class Graph(Frozen):
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists."""

    _fields = ("n", "adj")
    __slots__ = (*_fields, "_m")
    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

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
        """The number of edges, counted when first read and kept."""
        try:
            return self._m
        except AttributeError:
            m = sum(map(len, self.adj)) // 2
            object.__setattr__(self, "_m", m)
            return m

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


class RootedTree:
    """A tree with a root, parent pointers, and ordered child lists; the
    lists default to fresh empty ones."""

    __slots__ = ("graph", "root", "parent", "children")

    def __init__(self, graph: Graph, root: int, parent: Optional[list[Optional[int]]] = None,
                 children: Optional[list[list[int]]] = None):
        self.graph = graph
        self.root = root
        self.parent = [] if parent is None else parent
        self.children = [] if children is None else children

    @staticmethod
    def from_graph(g: Graph, root: int = 0) -> "RootedTree":
        """g rooted at root, from one breadth-first walk: with n - 1 edges, g
        is a tree iff the walk reaches every vertex, that is iff the root is
        the only vertex without a parent. NotATreeError comes first: where
        root is not a vertex, the walk starts at 0, and the ValueError
        follows on a tree only."""
        n = g.n
        is_vertex = isinstance(root, int) and not isinstance(root, bool) and 0 <= root < n
        parent = bfs_parents(g, root if is_vertex else 0) if g.m == n - 1 else None
        if parent is None or parent.count(None) != 1:
            raise NotATreeError(f"graph with n={g.n}, m={g.m} is not a tree")
        if not is_vertex:
            raise ValueError(f"root {root!r} is not a vertex of a tree with n={g.n}")
        # Each vertex's children in increasing order, its adjacency order.
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p is not None:
                children[p].append(v)
        return RootedTree(g, root, parent, children)

    @property
    def n(self) -> int:
        return self.graph.n


def bfs_order(g: Graph, root: int = 0) -> list[int]:
    """The vertices reachable from root, in breadth-first order with
    neighbors in adjacency order. Every prefix induces a connected subgraph,
    and a vertex's BFS parent is its neighbor that comes first."""
    order = [root]
    seen = [False] * g.n
    seen[root] = True
    for u in order:  # the list grows while it is walked: a FIFO queue
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


def bfs_parents(g: Graph, root: int = 0) -> list[Optional[int]]:
    """Each vertex's BFS parent from root: its neighbor that comes first in
    bfs_order, the one that reaches it in the same walk. None at the root
    and at the vertices root does not reach."""
    parent: list[Optional[int]] = [None] * g.n
    order = [root]
    for u in order:  # a vertex is seen once it has a parent
        for v in g.adj[u]:
            if parent[v] is None and v != root:
                parent[v] = u
                order.append(v)
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

    Nothing is rebuilt per swap: the tree's degrees, the set of vertices
    of the largest degree k, and the rooting at 0 (up and depth) are carried
    across swaps. A swap of tree edge (a, b) for (u, v) cuts off the side
    below the deeper of a and b, which holds exactly one of u and v, since
    (a, b) lies on the tree path from u to v; _rehang re-roots that side at
    its end of (u, v) under the other end and leaves every vertex outside
    it as it was. A rooted tree has one parent per vertex and one path
    between two vertices, so the carried pointers give every cycle, swap
    and final tree that a fresh walk would. The returned RootedTree takes
    its parents from them and its children in sorted order, as
    RootedTree.from_graph would.
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
    up, depth = [0] * n, [0] * n
    _hang(tree_adj, up, depth, 0)

    non_tree = [(u, v) for u in range(n) for v in g.adj[u] if u < v and v not in tree_adj[u]]
    deg = list(map(len, tree_adj))
    k = max(deg)
    hot = {w for w, dw in enumerate(deg) if dw == k}
    while k > d_target:
        for u, v in non_tree:
            if deg[u] >= k - 1 or deg[v] >= k - 1:
                continue
            cycle = _tree_path(up, depth, u, v)
            if hot.isdisjoint(cycle):
                continue
            # The swap is the first edge of the cycle at a hot vertex; u,
            # of degree below k - 1, is not hot, so i >= 1.
            i = next(i for i, w in enumerate(cycle) if w in hot)
            a, b = cycle[i - 1], cycle[i]
            tree_adj[a].discard(b)
            tree_adj[b].discard(a)
            tree_adj[u].add(v)
            tree_adj[v].add(u)
            non_tree.remove((u, v))
            non_tree.append((min(a, b), max(a, b)))
            for w, dw in ((a, -1), (b, -1), (u, 1), (v, 1)):
                deg[w] += dw
            hot.difference_update((a, b))  # each lost a degree, or is u, which was not hot
            # The path climbs from u to the top of the cycle and descends to
            # v: an edge whose first end is the deeper lies on u's side.
            if depth[a] > depth[b]:
                _rehang(tree_adj, up, depth, u, v)
            else:
                _rehang(tree_adj, up, depth, v, u)
            break
        else:  # no swap relieves a vertex of degree k
            break
        if not hot:
            k = max(deg)
            hot = {w for w, dw in enumerate(deg) if dw == k}

    adj = tuple(tuple(sorted(a)) for a in tree_adj)
    parent = [None, *up[1:]]
    children = [[w for w in adj[x] if w != parent[x]] for x in range(n)]
    return RootedTree(Graph(n, adj), 0, parent, children)


def _rehang(tree_adj: list[set[int]], up: list[int], depth: list[int], x: int, y: int) -> None:
    """Hang the side of x under y, once a swap has made (x, y) the only
    tree edge between that side and the rest: re-root it at x and walk it
    with _hang. Nothing outside the side changes."""
    up[x], depth[x] = y, depth[y] + 1
    _hang(tree_adj, up, depth, x)


def _hang(tree_adj: list[set[int]], up: list[int], depth: list[int], x: int) -> None:
    """Set up and depth below x, whose own are set, for the vertices that
    tree_adj reaches from x other than through up[x]: each takes the
    neighbor it is reached from as its parent, one deeper. The root is its
    own parent, so from x = 0 this roots the whole tree."""
    stack = [x]
    while stack:
        s = stack.pop()
        p, d = up[s], depth[s] + 1
        for w in tree_adj[s]:
            if w != p:
                up[w], depth[w] = s, d
                stack.append(w)


def _tree_path(up: list[int], depth: list[int], s: int, t: int) -> list[int]:
    """The path from s to t in the tree that up and depth root: up from
    both ends, the deeper one first, until they meet. A tree has one path
    between two vertices, so no search is needed."""
    head, tail = [s], [t]
    while s != t:
        if depth[s] >= depth[t]:
            s = up[s]
            head.append(s)
        else:
            t = up[t]
            tail.append(t)
    return head + tail[-2::-1]
