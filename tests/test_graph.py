import itertools
import math
from fractions import Fraction

import pytest

from conftest import random_connected_graph, random_tree
from spannerdraw.errors import DegreeTargetMissed, InstanceTooLarge, NotATreeError
from spannerdraw.graph import (
    Graph,
    RootedTree,
    bfs_order,
    connected_components,
    degree_bounded_spanning_tree,
    edge_separator,
    hamiltonian_path,
    hamiltonian_path_exists,
    is_connected,
    split_at_edge,
    toughness_bruteforce,
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

    def test_is_tree(self):
        assert path_graph(5).is_tree()
        assert not cycle_graph(5).is_tree()


class TestRootedTree:
    def test_parent_children_and_sizes(self):
        t = RootedTree.from_graph(path_graph(4), 0)
        assert t.parent == [None, 0, 1, 2]
        assert t.subtree_sizes() == [4, 3, 2, 1]

    def test_rejects_non_tree(self):
        with pytest.raises(NotATreeError):
            RootedTree.from_graph(cycle_graph(4), 0)

    @pytest.mark.parametrize("root", [3, -1, -4, True, 1.0])
    def test_root_not_a_vertex_rejected(self, root):
        # n, -1 and -(n + 1) on a 3-vertex path: n and -(n + 1) raised
        # IndexError, and -1 built a tree whose parents form a cycle.
        with pytest.raises(ValueError, match="root"):
            RootedTree.from_graph(path_graph(3), root)

    def test_prefix_order_connected_prefixes(self):
        t = RootedTree.from_graph(random_tree(20, 3, seed=5), 0)
        order = bfs_order(t.graph, t.root)
        assert sorted(order) == list(range(20))
        for k in range(1, 21):
            assert is_connected(t.graph.induced(order[:k]))


class TestHamiltonianPath:
    def test_known_instances(self):
        assert hamiltonian_path_exists(cycle_graph(4))
        assert hamiltonian_path_exists(complete_graph(4))
        assert hamiltonian_path_exists(cycle_graph(5))
        assert not hamiltonian_path_exists(star_graph(3))

    def test_path_reconstruction_is_valid(self):
        for seed in range(20):
            g = random_connected_graph(7, seed % 4, seed)
            p = hamiltonian_path(g)
            if p is not None:
                assert sorted(p) == list(range(7))
                assert all(g.has_edge(p[i], p[i + 1]) for i in range(6))

    def test_limit_enforced(self):
        with pytest.raises(InstanceTooLarge):
            hamiltonian_path_exists(path_graph(30), limit=24)

    def test_matches_permutation_bruteforce(self):
        for seed in range(40):
            g = random_connected_graph(6, seed % 5, 1000 + seed)
            brute = any(
                all(g.has_edge(p[i], p[i + 1]) for i in range(5))
                for p in itertools.permutations(range(6))
            )
            assert hamiltonian_path_exists(g) == brute


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
        assert t.graph.is_tree()
        assert t.graph.max_degree() <= 3
        assert all(g.has_edge(u, v) for u, v in t.graph.edges())

    def test_cycle_gives_hamiltonian_path(self):
        t = degree_bounded_spanning_tree(cycle_graph(6), 2)
        assert t.graph.max_degree() <= 2

    def test_star_misses_target_with_tree_attached(self):
        with pytest.raises(DegreeTargetMissed) as exc_info:
            degree_bounded_spanning_tree(star_graph(5), 2)
        exc = exc_info.value
        assert exc.achieved == 5
        assert exc.tree.graph.is_tree()


class TestToughness:
    def test_known_values(self):
        assert toughness_bruteforce(path_graph(4)) == Fraction(1, 2)
        assert toughness_bruteforce(star_graph(3)) == Fraction(1, 3)
        assert toughness_bruteforce(complete_graph(4)) == math.inf
        assert toughness_bruteforce(cycle_graph(5)) == Fraction(1)

    def test_limit(self):
        with pytest.raises(InstanceTooLarge):
            toughness_bruteforce(path_graph(13))

