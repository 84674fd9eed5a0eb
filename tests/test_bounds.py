import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import chorded_hub, random_connected_graph, unit_circle_star
from oracles import contains, in_segment_interior
from spannerdraw import bounds
from spannerdraw.bounds import (
    ANNULUS_PACKING_CONSTANT,
    annulus_bound_check,
    annulus_census,
    is_sr1_drawing,
    planar_sr1_witness,
    recognize_planar_sr1,
    recognize_sr1,
    sr1_witness,
    star_elr_lower_bound,
)
from spannerdraw.drawing import Drawing
from spannerdraw.errors import PrecisionExhausted
from spannerdraw.exact import Interval
from spannerdraw.geometry import segments_cross_improperly
from spannerdraw.graph import Graph
from spannerdraw.metrics import is_planar_drawing, spanning_ratio

F = Fraction


class TestAnnulusCensus:
    def test_star_binning(self):
        # Leaves at exact distances 1, 3/2, 3 along the x-axis.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        d = Drawing.of(g, [(0, 0), (1, 0), (F(3, 2), 0), (3, 0)])
        census = annulus_census(d, 0)
        assert census.counts == {1: 2, 2: 1}
        assert contains(census.shortest_incident_edge_len, 1)

    def test_single_edge_boundary_to_lower_annulus(self):
        d = Drawing.of(Graph.from_edges(2, [(0, 1)]), [(0, 0), (1, 0)])
        assert annulus_census(d, 0).counts == {1: 1}

    def test_unit_circle_star_all_in_first_annulus(self):
        d = unit_circle_star(100)
        census = annulus_census(d, 0)
        assert census.counts == {1: 100}

    def test_power_of_two_boundary_tie(self):
        # Distances 1 and exactly 2: the normalized distance 2 is on the
        # boundary of annuli 1 and 2 and must land in annulus 1.
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (0, 2)])
        assert annulus_census(d, 0).counts == {1: 2}

    def test_degree_zero_rejected(self):
        g = Graph.from_edges(2, [])
        d = Drawing.of(g, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            annulus_census(d, 0)


class TestAnnulusBoundCheck:
    def test_k1_100_violation_consistent(self):
        d = unit_circle_star(100)
        res = annulus_bound_check(d, F(14, 10))
        assert res.threshold == ANNULUS_PACKING_CONSTANT * F(14, 10) ** 2 == F(2352, 25)
        assert len(res.violations) == 1
        v = res.violations[0]
        assert (v.vertex, v.annulus, v.count) == (0, 1, 100)
        assert res.verdict == "Consistent"
        assert res.spanning_ratio.lo > F(14, 10)

    def test_k1_10_no_violation(self):
        d = unit_circle_star(10)
        res = annulus_bound_check(d, F(2))
        assert res.violations == ()
        assert res.verdict == "Consistent"

    def test_fan_witness_consistent_at_s_1(self):
        # The package's own witness of the fan on 200 vertices has spanning
        # ratio 1, and its apex has annuli of 64 and 71 neighbors, above
        # 48. But G - apex is the path, one component, so each counts 1.
        n = 200
        g = Graph.from_edges(n, [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)])
        d = planar_sr1_witness(g)
        assert spanning_ratio(d).lo == 1
        assert sorted(annulus_census(d, 0).counts.values())[-2:] == [64, 71]
        res = annulus_bound_check(d, F(1))
        assert res.violations == () and res.spanning_ratio is None
        assert res.verdict == "Consistent"

    def test_hub_of_triangles_counts_components(self):
        # 100 leaves paired into 50 triangles with the hub: the annulus holds
        # 100 neighbors in 50 components of G - hub, still above 48 at s = 1,
        # and the certified ratio exceeds 1.
        d = chorded_hub(100, [(2 * j + 1, 2 * j + 2) for j in range(50)])
        res = annulus_bound_check(d, F(1))
        assert [(v.vertex, v.annulus, v.count) for v in res.violations] == [(0, 1, 50)]
        assert res.spanning_ratio.lo > 1 and res.verdict == "Consistent"

    def test_s_below_one_rejected(self):
        d = unit_circle_star(10)
        with pytest.raises(ValueError):
            annulus_bound_check(d, F(1, 2))

    @staticmethod
    def feed(monkeypatch, enclosures):
        """Make annulus_bound_check read the given spanning-ratio enclosures
        as its stream; the list it returns fills with those it takes."""
        taken = []

        def stream(d):
            for ivl in enclosures:
                taken.append(ivl)
                yield ivl

        monkeypatch.setattr(bounds, "_spanning_ratios", stream)
        return taken

    S = F(7, 5)  # unit_circle_star(100) has an annulus of 100 > 48 * S**2 neighbors

    def test_stream_tightens_until_separated(self, monkeypatch):
        s = self.S
        straddles = Interval(s - F(1, 10**7), s + F(1, 10**7))  # meets 10**-6 only
        too_wide = Interval(s + F(1, 10**8), s + F(3, 10**8))  # separates, misses 10**-9
        separates = Interval(s + F(1, 10**10), s + F(2, 10**10))
        taken = self.feed(monkeypatch, [straddles, too_wide, separates, separates])
        res = annulus_bound_check(unit_circle_star(100), s)
        assert res.spanning_ratio == separates and res.verdict == "Consistent"
        assert taken == [straddles, too_wide, separates]

    def test_one_enclosure_meets_several_tolerances(self, monkeypatch):
        s = self.S
        straddles = Interval(s - F(1, 10**14), s + F(1, 10**14))  # 10**-6 to 10**-12
        separates = Interval(s + F(1, 10**17), s + F(2, 10**17))
        taken = self.feed(monkeypatch, [straddles, separates, separates])
        res = annulus_bound_check(unit_circle_star(100), s)
        assert res.spanning_ratio == separates and res.verdict == "Consistent"
        assert taken == [straddles, separates]

    def test_schedule_ends_at_tolerance_1e_30(self, monkeypatch):
        s = self.S
        at_30 = Interval(s - F(1, 10**31), s + F(1, 10**31))
        taken = self.feed(monkeypatch, [Interval(s - F(1, 10**28), s + F(1, 10**28)), at_30, at_30])
        res = annulus_bound_check(unit_circle_star(100), s)
        assert res.spanning_ratio == at_30 and res.verdict == "InconsistentWithTheorem"
        assert len(taken) == 2

    def test_stream_exhausted(self, monkeypatch):
        s = self.S
        self.feed(monkeypatch, [Interval(s, 2 * s)])
        with pytest.raises(PrecisionExhausted, match="exhausted"):
            annulus_bound_check(unit_circle_star(100), s)


@st.composite
def hubs(draw):
    """A drawing whose vertex 0 has 50 to 160 neighbors: a fan, the apex
    above a path of points on the x axis, or a hub at the origin with
    chords among its leaves near the unit circle, the rim cycle's edges or
    some of them."""
    k = draw(st.integers(50, 160))
    if draw(st.booleans()):
        xs = sorted(draw(st.sets(st.integers(-400, 400), min_size=k, max_size=k)))
        apex = (draw(st.integers(-400, 400)), draw(st.integers(1, 400)))
        edges = [(0, v) for v in range(1, k + 1)] + [(v, v + 1) for v in range(1, k)]
        return Drawing.of(Graph.from_edges(k + 1, edges), [apex] + [(x, 0) for x in xs])
    rim = [(j, j % k + 1) for j in range(1, k + 1)]
    return chorded_hub(k, rim if draw(st.booleans()) else [e for e in rim if draw(st.integers(0, 9))])


@settings(max_examples=30, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(hubs(), st.integers(0, 20))
def test_no_inconsistent_verdict_at_the_certified_ratio(d, percent):
    # At any s at or above the certified upper bound of the spanning ratio,
    # no annulus can be overfull, so the verdict is "Consistent". No
    # shrinking: each example certifies a ratio on up to 161 vertices, and
    # shrinking a failure took minutes.
    s = spanning_ratio(d).hi * (1 + F(percent, 100))
    res = annulus_bound_check(d, s)
    assert res.violations == () and res.verdict == "Consistent", res


class TestStarElrLowerBound:
    def test_paper_examples(self):
        assert star_elr_lower_bound(49, F(1)) == 2
        assert star_elr_lower_bound(1, F(3)) == 1
        assert star_elr_lower_bound(97, F(1)) == 4

    def test_refuses_degree_0_and_s_below_1(self):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            star_elr_lower_bound(0, F(1))
        with pytest.raises(ValueError, match="s must be at least 1"):
            star_elr_lower_bound(5, F(99, 100))

    def test_monotone(self):
        values_by_degree = [star_elr_lower_bound(d, F(1)) for d in range(1, 300, 7)]
        assert values_by_degree == sorted(values_by_degree)
        assert star_elr_lower_bound(200, F(1)) >= star_elr_lower_bound(200, F(2))


class TestRecognizeSr1:
    def test_known(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert recognize_sr1(k4)
        star3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not recognize_sr1(star3)
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert recognize_sr1(c5)

    def test_witness_is_collinear_and_ratio_one(self):
        for seed in range(30):
            g = random_connected_graph(7, seed % 5, 3000 + seed)
            if recognize_sr1(g):
                w = sr1_witness(g)
                assert w is not None
                assert spanning_ratio(w).hi == 1
                assert is_sr1_drawing(w)


def _grid_planar_sr1_graphs(grid_w, grid_h, sizes):
    """Exhaustive oracle: graphs (as sorted edge tuples with a vertex count)
    realized by some integer point set whose point-visibility graph is drawn
    plane. Any such graph admits a planar drawing of spanning ratio exactly 1,
    and any graph admitting one with vertices on a small grid appears here."""
    grid = [(x, y) for x in range(grid_w) for y in range(grid_h)]  # int coords: exact
    found = []
    for n in sizes:
        for pts in itertools.combinations(grid, n):
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if not any(
                        in_segment_interior(pts[i], pts[j], pts[k])
                        for k in range(n)
                        if k not in (i, j)
                    ):
                        edges.append((i, j))
            plane = not any(
                segments_cross_improperly(pts[a], pts[b], pts[c], pts[d])
                for (a, b), (c, d) in itertools.combinations(edges, 2)
            )
            if plane:
                found.append((n, edges))
    return found


class TestRecognizePlanarSr1:
    def test_paths_true(self):
        for n in (1, 2, 3, 6):
            g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            assert recognize_planar_sr1(g)

    def test_tiny_graphs_agree_with_sr1(self):
        # The empty graph, one vertex, two vertices with and without the edge.
        for n, edges in ((0, []), (1, []), (2, []), (2, [(0, 1)])):
            g = Graph.from_edges(n, edges)
            assert recognize_planar_sr1(g) == recognize_sr1(g) == bool(edges or n < 2), n
            w, pw = sr1_witness(g), planar_sr1_witness(g)
            assert (w is None) == (pw is None)
            if w is not None:
                assert is_sr1_drawing(w)
                assert is_sr1_drawing(pw) and is_planar_drawing(pw)

    def test_k5_false(self):
        k5 = Graph.from_edges(5, list(itertools.combinations(range(5), 2)))
        assert not recognize_planar_sr1(k5)

    def test_dense_graphs_false_by_edge_count(self, monkeypatch):
        # Every admissible class has at most 3n - 6 edges, so a complete
        # graph on 5 or more vertices is refused before any apex is tried.
        def refuse(g, apex_count):
            raise AssertionError("fan decomposition tried")

        monkeypatch.setattr(bounds, "_fan_decomposition", refuse)
        for n in range(5, 41):
            kn = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
            assert not recognize_planar_sr1(kn), n

    def test_c4_and_claw_false(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not recognize_planar_sr1(c4)
        claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not recognize_planar_sr1(claw)

    def test_fan_true(self):
        # Path 1-2-3-4 plus apex 0 adjacent to all.
        edges = [(1, 2), (2, 3), (3, 4)] + [(0, i) for i in range(1, 5)]
        assert recognize_planar_sr1(Graph.from_edges(5, edges))

    def test_double_fans_true(self):
        path = [(2, 3), (3, 4)]
        apexes = [(0, i) for i in range(2, 5)] + [(1, i) for i in range(2, 5)]
        g = Graph.from_edges(5, path + apexes)
        assert recognize_planar_sr1(g)
        g_adj = Graph.from_edges(5, path + apexes + [(0, 1)])
        assert recognize_planar_sr1(g_adj)

    def test_octahedron_true(self):
        non_edges = {(0, 1), (2, 3), (4, 5)}
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(6), 2)
            if (u, v) not in non_edges
        ]
        assert recognize_planar_sr1(Graph.from_edges(6, edges))

    def test_witnesses_are_exact(self):
        samples = []
        for n in range(1, 8):
            samples.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
        for n in range(2, 8):  # fans
            edges = [(i, i + 1) for i in range(1, n - 1)] + [(0, i) for i in range(1, n)]
            samples.append(Graph.from_edges(n, edges))
        for n in range(3, 8):  # double fans, both variants
            path = [(i, i + 1) for i in range(2, n - 1)]
            apex = [(0, i) for i in range(2, n)] + [(1, i) for i in range(2, n)]
            samples.append(Graph.from_edges(n, path + apex))
            samples.append(Graph.from_edges(n, path + apex + [(0, 1)]))
        non_edges = {(0, 1), (2, 3), (4, 5)}
        samples.append(
            Graph.from_edges(
                6,
                [
                    (u, v)
                    for u, v in itertools.combinations(range(6), 2)
                    if (u, v) not in non_edges
                ],
            )
        )
        for g in samples:
            assert recognize_planar_sr1(g), g.edges()
            w = planar_sr1_witness(g)
            assert w is not None
            assert is_planar_drawing(w), g.edges()
            assert is_sr1_drawing(w), g.edges()

    def test_grid_oracle_every_found_graph_recognized(self):
        # Independent witness search: every plane point-visibility graph on a
        # small grid must be accepted by the recognizer.
        for n, edges in _grid_planar_sr1_graphs(4, 3, (3, 4, 5)):
            g = Graph.from_edges(n, edges)
            assert recognize_planar_sr1(g), (n, edges)

    def test_grid_oracle_n6_includes_octahedron_class(self):
        found = _grid_planar_sr1_graphs(4, 4, (6,))
        octa_seen = False
        for n, edges in found:
            g = Graph.from_edges(n, edges)
            assert recognize_planar_sr1(g), (n, edges)
            if all(g.degree(v) == 4 for v in range(6)):
                octa_seen = True
        assert octa_seen


class TestIsSr1Drawing:
    def test_collinear_chain_true(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (2, 0)])
        assert is_sr1_drawing(d)

    def test_missing_chain_false(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (1, 1)])  # pair (0,2) has no straight chain
        assert not is_sr1_drawing(d)

    def test_coincident_points_false(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (1, 0)])
        assert not is_sr1_drawing(d)

    def test_skip_vertex_chain_true(self):
        # Vertex 1 sits on segment 0-2 but the edge 0-2 exists directly.
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (2, 0)])
        assert is_sr1_drawing(d)
