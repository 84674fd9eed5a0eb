import math
from fractions import Fraction

import pytest

from conftest import random_connected_graph, random_connected_planar_graph, random_tree
from spannerdraw.errors import NotConnectedError
from spannerdraw.geometry import direction_key, dist_sq
from spannerdraw.graph import Graph, RootedTree, connected_prefix_order
from spannerdraw.layout import (
    Epsilon,
    _bfs_spanning_tree,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_planar_with_stats,
    draw_tree_proper,
    place_next_vertex,
)
from spannerdraw.metrics import (
    compute_metrics,
    is_planar_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)

F = Fraction
EPS1 = Epsilon(F(1))
EPS_HALF = Epsilon(F(1, 2))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestEpsilon:
    def test_gamma(self):
        assert Epsilon(F(1)).gamma == 2
        assert Epsilon(F(1, 2)).gamma == 4
        assert Epsilon(F(2, 3)).gamma == 3
        assert Epsilon(F(3)).gamma == 1
        # Plain numbers are coerced to Fraction.
        assert Epsilon(1).gamma == 2
        assert Epsilon(0.5).value == F(1, 2)
        assert Epsilon("2/3").gamma == 3

    def test_tree_gamma_doubles(self):
        assert Epsilon(F(1)).tree_gamma == 4
        assert Epsilon(F(1, 2)).tree_gamma == 8

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Epsilon(F(0))


class TestPlanarSpanner:
    def test_path3_base_case_ratio(self):
        d = draw_planar_spanner(path_graph(3), EPS1)
        sr = spanning_ratio(d, F(1, 10**13))
        # Pair (v1, v3): ratio (eps/2 + leg)/leg with leg in [1, 1 + 2**-78].
        assert abs(sr.lo - F(3, 2)) < F(1, 10**12)
        assert sr.hi - sr.lo <= F(3, 2) * F(1, 10**13) * 2

    def test_single_edge_and_vertex(self):
        d = draw_planar_spanner(Graph.from_edges(1, []), EPS1)
        assert len(d.coords) == 1
        d = draw_planar_spanner(Graph.from_edges(2, [(0, 1)]), EPS1)
        assert spanning_ratio(d).hi == 1

    def test_c4_planar_below_budget(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d = draw_planar_spanner(c4, EPS_HALF)
        assert is_planar_drawing(d)
        assert spanning_ratio(d).hi < F(3, 2)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            draw_planar_spanner(Graph.from_edges(4, [(0, 1), (2, 3)]), EPS1)

    def test_random_planar_graphs(self):
        for seed in range(6):
            g = random_connected_planar_graph(14, 900 + seed)
            for eps in (EPS1, EPS_HALF):
                d = draw_planar_spanner(g, eps)
                assert is_planar_drawing(d)
                assert spanning_ratio(d).hi < 1 + eps.value

    def test_deterministic(self):
        g = random_connected_planar_graph(12, 31)
        assert draw_planar_spanner(g, EPS1).coords == draw_planar_spanner(g, EPS1).coords


class TestPlaceNextVertex:
    def test_conditions(self):
        placed = [(F(0), F(0)), (F(2), F(0)), (F(1), F(1))]
        attachment = [(F(0), F(0)), (F(1), F(1)), (F(2), F(0))]
        k = 4
        x, y = place_next_vertex(placed, attachment, k, EPS1)
        assert attachment[0][0] < x < attachment[-1][0]
        # Strictly above every line through consecutive attachment vertices,
        # evaluated at the endpoint verticals: here both lines hit y=2 at the
        # far endpoints, so y must exceed 2.
        assert y > 2
        # Distance from the enclosing disk exceeds k * delta / eps.
        cx, cy = F(1), F(1, 2)
        r_int = 2  # isqrt(ceil(1 + 1/4)) + 1
        delta = 2 * r_int
        assert (x - cx) ** 2 + (y - cy) ** 2 > (r_int + F(k * delta, 1)) ** 2


def proper_spanner_oracle(g, eps):
    """Coordinates of the proper construction by its first, O(n^3) search:
    at each step the enclosing disk of all placed points, then for
    y = 0, 1, 2, ... a Fraction direction key from (x_k, y) to every placed
    point, until all keys differ."""
    order = list(connected_prefix_order(_bfs_spanning_tree(g)))
    coords = [None] * g.n
    coords[order[0]] = (F(0), F(0))
    for k in range(2, g.n + 1):
        placed = [coords[v] for v in order[: k - 1]]
        xs = [x for x, _ in placed]
        ys = [y for _, y in placed]
        cx = (min(xs) + max(xs)) / 2
        r_sq = ((max(xs) - min(xs)) / 2) ** 2 + ((max(ys) - min(ys)) / 2) ** 2
        radius = math.isqrt(math.ceil(r_sq)) + 1
        x_k = F(math.ceil(cx + radius + F(k * 2 * radius) / eps.value) + 1)
        y = 0
        while len({direction_key((x_k, F(y)), p) for p in placed}) < len(placed):
            y += 1
        coords[order[k - 1]] = (x_k, F(y))
    return tuple(coords)


class TestProperSpanner:
    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 2), F(1), F(3)])
    def test_matches_oracle(self, eps):
        eps = Epsilon(eps)
        star = Graph.from_edges(12, [(0, i) for i in range(1, 12)])
        graphs = [Graph.from_edges(1, []), path_graph(2), star, path_graph(40)]
        graphs += [random_connected_graph(n, n, 900 + n) for n in (7, 20, 40, 60)]
        for g in graphs:
            assert draw_proper_spanner(g, eps).coords == proper_spanner_oracle(g, eps)

    def test_star(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        d = draw_proper_spanner(star, EPS1)
        assert no_three_collinear(d)
        assert spanning_ratio(d).hi < 2

    def test_k4_below_budget(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        d = draw_proper_spanner(k4, EPS_HALF)
        assert no_three_collinear(d)
        assert spanning_ratio(d).hi < F(3, 2)

    def test_random_graphs(self):
        for seed in range(6):
            g = random_connected_graph(15, 10, 40 + seed)
            d = draw_proper_spanner(g, EPS1)
            assert no_three_collinear(d)
            assert spanning_ratio(d).hi < 2

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            draw_proper_spanner(Graph.from_edges(3, [(0, 1)]), EPS1)


class TestTreeProper:
    def test_single_vertex(self):
        t = RootedTree.from_graph(Graph.from_edges(1, []), 0)
        d = draw_tree_proper(t, EPS1)
        assert d.coords == ((F(0), F(0)),)

    def test_single_edge_position(self):
        # Gap multiplier 4 at eps=1: child at x = 0 + 4*(0 + 1 + 1) = 8,
        # y = -1/3 - delta with delta in (0, 1/3).
        t = RootedTree.from_graph(Graph.from_edges(2, [(0, 1)]), 0)
        d = draw_tree_proper(t, EPS1)
        assert d.coords[0] == (0, 0)
        x, y = d.coords[1]
        assert x == 8
        assert -F(2, 3) < y < -F(1, 3)
        sr = spanning_ratio(d)
        assert sr.lo == 1 and sr.hi <= 1 + F(1, 10**9)

    def test_random_trees_meet_guarantees(self):
        for seed, maxdeg in [(0, 3), (1, 4), (2, 5)]:
            t = RootedTree.from_graph(random_tree(60, maxdeg, 600 + seed), 0)
            d = draw_tree_proper(t, EPS1)
            assert no_three_collinear(d)
            assert min_pairwise_distance_sq(d) >= 1
            assert spanning_ratio(d).hi <= F(3, 2)

    def test_width_closed_form(self):
        t = RootedTree.from_graph(random_tree(100, 3, 11), 0)
        d = draw_tree_proper(t, EPS1)
        gamma = EPS1.tree_gamma
        dd = max(2, t.graph.max_degree())
        width = float(compute_metrics(d).width)
        exponent = math.log2(gamma + 2) / math.log2(dd / (dd - 1))
        assert width <= 2 * ((gamma + 2) / (gamma + 1)) * (gamma + 2) * 100**exponent


class TestTreePlanar:
    def test_path_is_unit_spaced(self):
        t = RootedTree.from_graph(path_graph(5), 0)
        d = draw_tree_planar(t, EPS1)
        xs = sorted(x for x, y in d.coords)
        assert xs == [0, 1, 2, 3, 4]
        assert all(y == 0 for _, y in d.coords)
        assert spanning_ratio(d).hi == 1

    def test_single_edge(self):
        t = RootedTree.from_graph(Graph.from_edges(2, [(0, 1)]), 0)
        d = draw_tree_planar(t, EPS1)
        assert spanning_ratio(d).hi == 1

    def test_complete_binary_tree(self):
        edges = [(i, 2 * i + 1) for i in range(15)] + [(i, 2 * i + 2) for i in range(15)]
        t = RootedTree.from_graph(Graph.from_edges(31, edges), 0)
        d, stats = draw_tree_planar_with_stats(t, EPS1)
        assert is_planar_drawing(d)
        assert spanning_ratio(d).hi <= F(3, 2)
        assert stats.height <= math.log2(stats.n_prime)
        assert stats.recurrence_respected
        assert min(dist_sq(d.coords[u], d.coords[v]) for u, v in t.graph.edges()) >= 1

    def test_random_trees(self):
        for seed in range(5):
            t = RootedTree.from_graph(random_tree(80, 4, 70 + seed), 0)
            d, stats = draw_tree_planar_with_stats(t, EPS1)
            assert is_planar_drawing(d)
            assert spanning_ratio(d).hi <= F(3, 2)
            assert stats.height <= math.log2(stats.n_prime)
            assert stats.recurrence_respected

    def test_deep_caterpillar(self):
        # A 1500-vertex spine with one leaf per spine vertex: 1500 levels deep.
        k = 1500
        edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
        t = RootedTree.from_graph(Graph.from_edges(2 * k, edges), 0)
        d, stats = draw_tree_planar_with_stats(t, EPS1)
        assert is_planar_drawing(d)
        assert stats.height <= math.log2(stats.n_prime)
        assert stats.recurrence_respected
        assert min(dist_sq(d.coords[u], d.coords[v]) for u, v in edges) >= 1

    def test_integer_coordinates(self):
        t = RootedTree.from_graph(random_tree(30, 3, 5), 0)
        d = draw_tree_planar(t, EPS1)
        assert all(x.denominator == 1 and y.denominator == 1 for x, y in d.coords)


class TestToughTree:
    def test_cycle_c6(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        res = draw_graph_via_tough_tree(c6, 2, EPS1)
        assert res.achieved_degree <= 2
        assert res.warning is None
        assert spanning_ratio(res.drawing).hi <= F(3, 2)
        assert res.drawing.graph is c6  # chord edges included in the drawing

    def test_tree_input_identity(self):
        g = random_tree(20, 3, 8)
        res = draw_graph_via_tough_tree(g, 3, EPS1)
        assert set(res.tree.graph.edges()) == set(g.edges())

    def test_k4(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        res = draw_graph_via_tough_tree(k4, 3, EPS1)
        m = compute_metrics(res.drawing)
        assert m.proper
        assert m.spanning_ratio.hi <= F(3, 2)

    def test_missed_target_reported_as_warning(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        res = draw_graph_via_tough_tree(star, 2, EPS1)
        assert res.warning is not None
        assert res.achieved_degree == 5
        assert no_three_collinear(res.drawing)
