import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_connected_graph, random_tree
from oracles import (
    connected_components,
    edge_separator,
    is_tree,
    rooted_bfs,
    split_at_edge,
    subtree_sizes,
    toughness_bruteforce,
    tree_path_dfs,
)
from spannerdraw import graph
from spannerdraw.errors import InstanceTooLarge, NotATreeError
from spannerdraw.graph import (
    HAMILTONIAN_DP_LIMIT,
    Graph,
    RootedTree,
    bfs,
    degree_bounded_spanning_tree,
    hamiltonian_path,
    is_connected,
    path_order,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraphBasics:
    def test_from_edges_sorted_adjacency(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.adj == ((1, 2), (0,), (0,))
        assert g.m == 2
        assert g.edges() == [(0, 1), (0, 2)]

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_induced_relabels(self):
        g = cycle_graph(5)
        sub = g.induced([1, 2, 3])
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_connectivity(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
        comps = connected_components(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]

    def test_path_order(self):
        assert path_order(Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])) == [1, 3, 0, 2]
        # n - 1 edges, no degree above 2, and no path: a triangle and an
        # isolated vertex have no ends, and from an edge beside a triangle
        # the walk stops at the edge's other end.
        assert path_order(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])) is None
        assert path_order(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])) is None


def bfs_parent_oracle(g, root):
    """BFS parents as degree_bounded_spanning_tree once derived them: each
    reached vertex other than root takes its neighbor of least BFS rank."""
    order = bfs(g, root)[0]
    rank = {v: i for i, v in enumerate(order)}
    parent = [None] * g.n
    for v in order[1:]:
        parent[v] = min(g.adj[v], key=rank.__getitem__)
    return parent


def rooted_tree_oracle(g, root):
    """(parent, children) as RootedTree.from_graph once derived them: in BFS
    order, a vertex's children are its neighbors other than its parent."""
    parent = [None] * g.n
    children = [[] for _ in range(g.n)]
    for u in bfs(g, root)[0]:
        children[u] = [v for v in g.adj[u] if v != parent[u]]
        for v in children[u]:
            parent[v] = u
    return parent, children


def degree_bounded_tree_oracle(g, d_target):
    """(adjacency, achieved degree) of degree_bounded_spanning_tree's tree as
    it was first built: the BFS tree by least BFS rank, then the same swaps."""
    n = g.n
    tree_adj = [set() for _ in range(n)]
    for v, u in enumerate(bfs_parent_oracle(g, 0)):
        if u is not None:
            tree_adj[u].add(v)
            tree_adj[v].add(u)
    non_tree = [(u, v) for u in range(n) for v in g.adj[u] if u < v and v not in tree_adj[u]]
    while True:
        k = max(len(a) for a in tree_adj)
        if k <= d_target:
            break
        hot = {w for w in range(n) if len(tree_adj[w]) == k}
        for u, v in non_tree:
            if len(tree_adj[u]) >= k - 1 or len(tree_adj[v]) >= k - 1:
                continue
            cycle = tree_path_dfs(tree_adj, u, v)
            swap = next(((a, b) for a, b in zip(cycle, cycle[1:]) if a in hot or b in hot), None)
            if swap is not None:
                break
        else:
            break
        a, b = swap
        tree_adj[a].discard(b)
        tree_adj[b].discard(a)
        tree_adj[u].add(v)
        tree_adj[v].add(u)
        non_tree.remove((u, v))
        non_tree.append((min(a, b), max(a, b)))
    return tuple(tuple(sorted(a)) for a in tree_adj), k


class TestBfsParents:
    def test_path_and_unreached(self):
        assert bfs(path_graph(4), 2) == ([2, 1, 3, 0], [1, 2, None, 2])
        g = Graph.from_edges(7, [(0, 3), (3, 5), (1, 2), (4, 6)])
        assert bfs(g, 3) == ([3, 0, 5], [3, None, None, None, None, 3, None])
        assert bfs_parent_oracle(g, 3) == bfs(g, 3)[1]

    def test_matches_least_bfs_rank_oracle(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randrange(1, 40)
            g = random_connected_graph(n, rng.randrange(2 * n + 1), seed)
            t = random_tree(n, rng.choice((2, 3, 4, n)), seed)
            for h in (g, t):
                root = rng.randrange(n)
                assert bfs(h, root)[1] == bfs_parent_oracle(h, root)

    def test_rooted_tree_matches_children_loop_oracle(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randrange(1, 60)
            t = random_tree(n, rng.choice((2, 3, 4, n)), 500 + seed)
            root = rng.randrange(n)
            rt = RootedTree.from_graph(t, root)
            assert (rt.parent, rt.children) == rooted_tree_oracle(t, root)

    def test_degree_bounded_tree_matches_oracle(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randrange(2, 30)
            g = random_connected_graph(n, rng.randrange(2 * n + 1), 900 + seed)
            for d in (2, 3, 4):
                adj, achieved = degree_bounded_tree_oracle(g, d)
                t = degree_bounded_spanning_tree(g, d)
                assert t.graph.adj == adj
                assert t.graph.max_degree() == achieved


class TestRootedTree:
    def test_parent_children_and_sizes(self):
        t = RootedTree.from_graph(path_graph(4), 0)
        assert t.parent == [None, 0, 1, 2]
        assert subtree_sizes(t) == [4, 3, 2, 1]

    def test_rejects_non_tree(self):
        with pytest.raises(NotATreeError):
            RootedTree.from_graph(cycle_graph(4), 0)

    @pytest.mark.parametrize("root", [3, -1, -4, True, 1.0])
    def test_root_not_a_vertex_rejected(self, root):
        # n, -1 and -(n + 1) on a 3-vertex path: n and -(n + 1) raised
        # IndexError, and -1 built a tree whose parents form a cycle.
        with pytest.raises(ValueError, match="root"):
            RootedTree.from_graph(path_graph(3), root)

    @pytest.mark.parametrize("root", [0, 3, 4, -1, True, 1.0])
    def test_not_a_tree_comes_before_a_bad_root(self, root):
        # A cycle, a triangle with an isolated vertex (n - 1 edges, walked
        # from the triangle or from the isolated vertex), and the empty graph.
        for g in (cycle_graph(4), Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)]), Graph.from_edges(0, [])):
            with pytest.raises(NotATreeError):
                RootedTree.from_graph(g, root)

    def test_rooted_at_any_vertex(self):
        g = random_tree(30, 3, seed=7)
        for root in range(g.n):
            t = RootedTree.from_graph(g, root)
            assert t.root == root and t.parent[root] is None
            for v in range(g.n):
                u = v
                for _ in range(g.n):  # up to the root, along edges
                    if t.parent[u] is None:
                        break
                    assert g.has_edge(u, t.parent[u])
                    u = t.parent[u]
                assert u == root
            assert t.children == [[v for v in g.adj[u] if t.parent[v] == u] for u in range(g.n)]

    def test_prefix_order_connected_prefixes(self):
        t = RootedTree.from_graph(random_tree(20, 3, seed=5), 0)
        order = bfs(t.graph, t.root)[0]
        assert sorted(order) == list(range(20))
        for k in range(1, 21):
            assert is_connected(t.graph.induced(order[:k]))


def is_hamiltonian_path(g, p):
    return sorted(p) == list(range(g.n)) and all(
        g.has_edge(p[i], p[i + 1]) for i in range(g.n - 1)
    )


class TestHamiltonianPath:
    # SHA-256 of the paths below, one repr per line. Each path takes the
    # least end, then the least neighbor, at every step of the rebuild;
    # sr1_witness draws whichever path comes back, so the choice is pinned.
    PINNED_PATHS = "66c87e108d18d2a15853c7f64d194fd6b2a098f20bcf615769a3a77737060d8b"

    def test_known_instances(self):
        assert hamiltonian_path(cycle_graph(4)) is not None
        assert hamiltonian_path(complete_graph(4)) is not None
        assert hamiltonian_path(cycle_graph(5)) is not None
        assert hamiltonian_path(star_graph(3)) is None

    def test_small_sizes(self):
        assert hamiltonian_path(Graph.from_edges(0, [])) == []
        assert hamiltonian_path(Graph.from_edges(1, [])) == [0]
        assert hamiltonian_path(Graph.from_edges(2, [])) is None
        assert hamiltonian_path(Graph.from_edges(2, [(0, 1)])) == [1, 0]

    def test_path_reconstruction_is_valid(self):
        for seed in range(20):
            g = random_connected_graph(7, seed % 4, seed)
            p = hamiltonian_path(g)
            if p is not None:
                assert is_hamiltonian_path(g, p)

    def test_paths_pinned(self):
        lines = [
            repr(hamiltonian_path(random_connected_graph(n, seed * n // 4, 100 * n + seed)))
            for n in range(1, 15)
            for seed in range(12)
        ]
        assert sum(line != "None" for line in lines) == 146
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.PINNED_PATHS

    def test_limit_size_path_and_star(self):
        n = HAMILTONIAN_DP_LIMIT
        label = list(range(n))
        random.Random(24).shuffle(label)
        g = Graph.from_edges(n, [(label[i], label[i + 1]) for i in range(n - 1)])
        p = hamiltonian_path(g)
        assert is_hamiltonian_path(g, p)
        # The path ends at its smaller end, where the rebuild starts.
        assert p == (label if label[-1] < label[0] else label[::-1])
        assert hamiltonian_path(star_graph(n - 1)) is None

    def test_limit_enforced(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table allocated")

        monkeypatch.setattr(graph, "array", no_table)
        for n in (HAMILTONIAN_DP_LIMIT + 1, 30):
            with pytest.raises(InstanceTooLarge):
                hamiltonian_path(path_graph(n))

    def test_matches_permutation_bruteforce(self):
        for seed in range(40):
            g = random_connected_graph(6, seed % 5, 1000 + seed)
            brute = any(
                all(g.has_edge(p[i], p[i + 1]) for i in range(5))
                for p in itertools.permutations(range(6))
            )
            assert (hamiltonian_path(g) is not None) == brute


class TestSeparatorAndSplit:
    def test_path_separator_is_central(self):
        t = RootedTree.from_graph(path_graph(8), 0)
        u, v = edge_separator(t, 2)
        part1, part2 = split_at_edge(t, u, v)
        assert max(len(part1), len(part2)) == 4

    def test_bound_respected_on_random_trees(self):
        for seed in range(20):
            d = 3 + seed % 3
            g = random_tree(40, d, seed)
            t = RootedTree.from_graph(g, 0)
            u, v = edge_separator(t, d)
            part1, part2 = split_at_edge(t, u, v)
            bound = math.ceil((d - 1) / d * 40)
            assert max(len(part1), len(part2)) <= bound
            assert sorted(part1 + part2) == list(range(40))
            assert t.root in part1


class TestDegreeBoundedSpanningTree:
    def test_wheel_admits_degree_3_tree(self):
        # Hub 0 joined to a 5-cycle 1..5: a BFS tree has hub degree 5 and the
        # swap search must bring the maximum degree down to 3.
        edges = [(0, i) for i in range(1, 6)]
        edges += [(i, i % 5 + 1) for i in range(1, 6)]
        g = Graph.from_edges(6, edges)
        t = degree_bounded_spanning_tree(g, 3)
        assert is_tree(t.graph)
        assert t.graph.max_degree() <= 3
        assert all(g.has_edge(u, v) for u, v in t.graph.edges())

    def test_cycle_gives_hamiltonian_path(self):
        t = degree_bounded_spanning_tree(cycle_graph(6), 2)
        assert t.graph.max_degree() <= 2

    def test_star_misses_target_with_tree_attached(self):
        t = degree_bounded_spanning_tree(star_graph(5), 2)
        assert t.graph.max_degree() == 5
        assert is_tree(t.graph)

    def test_tree_path_walks_up_as_the_search_finds(self):
        # A tree has one path between two vertices: the walk up the parent
        # pointers returns the depth-first search's path, vertex for vertex.
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(1, 80)
            t = random_tree(n, rng.choice((2, 3, 4, n)), 300 + seed)
            tree_adj = [set(a) for a in t.adj]
            up, depth = [0] * n, [0] * n
            graph._hang(tree_adj, up, depth, 0)
            assert (up, depth) == rooted_bfs(tree_adj), seed
            assert depth[0] == 0 and all(depth[v] == depth[up[v]] + 1 for v in range(1, n)), seed
            for _ in range(50):
                s, u = rng.randrange(n), rng.randrange(n)
                assert graph._tree_path(up, depth, s, u) == tree_path_dfs(tree_adj, s, u), (seed, s, u)

    def test_carried_rooting_describes_every_swap(self, monkeypatch):
        # After every swap, the carried up and depth root the current tree
        # at 0, as a fresh walk would, and give its paths.
        rehang, swaps = graph._rehang, []

        def checked(tree_adj, up, depth, x, y):
            rehang(tree_adj, up, depth, x, y)
            n = len(tree_adj)
            assert up[0] == depth[0] == 0
            assert all(depth[v] == depth[up[v]] + 1 for v in range(1, n))
            edges = {frozenset((u, v)) for u in range(n) for v in tree_adj[u]}
            assert {frozenset((v, up[v])) for v in range(1, n)} == edges
            assert (up, depth) == rooted_bfs(tree_adj)
            rng = random.Random(len(swaps))
            for _ in range(10):
                s, t = rng.randrange(n), rng.randrange(n)
                assert graph._tree_path(up, depth, s, t) == tree_path_dfs(tree_adj, s, t)
            swaps.append(n)

        monkeypatch.setattr(graph, "_rehang", checked)
        for k, n in enumerate((12, 30, 60, 150, 300)):
            g = random_connected_graph(n, n // (1 + k % 3), 70 + k)
            for d in (2, 3):
                before = len(swaps)
                t = degree_bounded_spanning_tree(g, d)
                assert t.parent == RootedTree.from_graph(t.graph, 0).parent
                assert len(swaps) > before, (n, d)
        assert swaps.count(300) >= 50

    def test_rehang_moves_only_the_cut_side(self):
        # One swap by hand: tree edge (a, b) on the path from u to v traded
        # for (u, v). The side cut off below the deeper of a and b is
        # re-hung under the other end of (u, v); nothing else moves.
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randrange(3, 60)
            tree_adj = [set(a) for a in random_tree(n, rng.choice((2, 3, n)), 800 + seed).adj]
            up, depth = rooted_bfs(tree_adj)
            u, v = rng.sample(range(n), 2)
            if v in tree_adj[u]:
                continue
            path = tree_path_dfs(tree_adj, u, v)
            i = rng.randrange(len(path) - 1)
            a, b = path[i], path[i + 1]
            low = a if depth[a] > depth[b] else b
            cut, stack = set(), [low]
            while stack:
                w = stack.pop()
                cut.add(w)
                stack.extend(c for c in tree_adj[w] if c != up[w])
            x, y = (u, v) if u in cut else (v, u)
            assert y not in cut
            tree_adj[a].discard(b)
            tree_adj[b].discard(a)
            tree_adj[u].add(v)
            tree_adj[v].add(u)
            old = list(up), list(depth)
            graph._rehang(tree_adj, up, depth, x, y)
            assert (up, depth) == rooted_bfs(tree_adj), seed
            assert all((up[w], depth[w]) == (old[0][w], old[1][w]) for w in range(n) if w not in cut)

    def test_large_trees_match_oracle(self):
        # The swaps of the search, on graphs larger than the oracle test's.
        for k, n in enumerate((60, 150, 300)):
            g = random_connected_graph(n, n // (1 + k), 40 + k)
            for d in (2, 3):
                adj, achieved = degree_bounded_tree_oracle(g, d)
                t = degree_bounded_spanning_tree(g, d)
                assert (t.graph.adj, t.graph.max_degree()) == (adj, achieved), (n, d)

    def test_trees_pinned(self):
        # Recorded when each cycle was found by a depth-first search.
        trees = []
        for k, n in enumerate((10, 20, 40, 80, 160, 300) * 2):
            for d in (2, 3):
                g = random_connected_graph(n, n // (1 + k % 3), 40 + k)
                trees.append(degree_bounded_spanning_tree(g, d).parent)
        digest = hashlib.sha256(repr(trees).encode()).hexdigest()
        assert digest == "deb8223b6e17a18ddb94ed25e33d1f3d2e4af968844f7242335f760764ef170c"


class TestToughness:
    def test_known_values(self):
        assert toughness_bruteforce(path_graph(4)) == Fraction(1, 2)
        assert toughness_bruteforce(star_graph(3)) == Fraction(1, 3)
        assert toughness_bruteforce(complete_graph(4)) == math.inf
        assert toughness_bruteforce(cycle_graph(5)) == Fraction(1)

    def test_limit(self):
        with pytest.raises(InstanceTooLarge):
            toughness_bruteforce(path_graph(13))

