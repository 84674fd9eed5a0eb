import math
from fractions import Fraction

import pytest

from conftest import random_drawing, random_rational_drawing
from spannerdraw.drawing import Drawing
from spannerdraw.exact import sqrt_interval
from spannerdraw.graph import Graph
from spannerdraw.metrics import (
    DEFAULT_REL_TOL,
    bounding_box,
    compute_metrics,
    edge_length_ratio,
    has_coincident_vertices,
    is_planar_drawing,
    is_proper_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
    spanning_ratio_bruteforce,
)

F = Fraction


def drawing(n, edges, coords):
    return Drawing.of(Graph.from_edges(n, edges), coords)


def unit_square():
    return drawing(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)])


class TestSpanningRatio:
    def test_unit_square_is_sqrt2(self):
        # Diagonal pairs: path length 2, distance sqrt(2); ratio 2/sqrt(2)=sqrt(2).
        sr = spanning_ratio(unit_square())
        root2 = sqrt_interval(F(2), 128)
        assert sr.lo <= root2.hi and sr.hi >= root2.lo
        assert sr.rel_width() <= DEFAULT_REL_TOL

    def test_collinear_path_exactly_one(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (2, 0)])
        sr = spanning_ratio(d)
        assert sr.lo == sr.hi == 1

    def test_single_edge(self):
        d = drawing(2, [(0, 1)], [(0, 0), (5, 12)])
        sr = spanning_ratio(d)
        assert sr.lo == sr.hi == 1

    def test_disconnected_raises(self):
        from spannerdraw.errors import DisconnectedDrawingError

        d = drawing(3, [(0, 1)], [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DisconnectedDrawingError):
            spanning_ratio(d)
        with pytest.raises(DisconnectedDrawingError):
            spanning_ratio_bruteforce(d)
        assert compute_metrics(d).spanning_ratio is None

    def test_coincident_sentinel(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (0, 0), (1, 0)])
        sr = spanning_ratio(d)
        assert sr.is_infinite and sr.lo == sr.hi == math.inf

    def test_matches_bruteforce_on_random_drawings(self):
        for seed in range(25):
            d = random_drawing(4 + seed % 12, seed)
            a = spanning_ratio(d)
            b = spanning_ratio_bruteforce(d)
            assert a.intersects(b), (seed, a, b)
            assert a.rel_width() <= DEFAULT_REL_TOL
            assert b.rel_width() <= DEFAULT_REL_TOL

    def test_tree_fast_path_agrees_with_bruteforce(self):
        d = drawing(
            4, [(0, 1), (1, 2), (1, 3)], [(0, 0), (3, 1), (5, 0), (2, 7)]
        )
        assert spanning_ratio(d).intersects(spanning_ratio_bruteforce(d))
        # An edge of 10**-5000 < 2**-16384 needs more bits than the escalation cap.
        tiny = drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)])
        a, b = spanning_ratio(tiny), spanning_ratio_bruteforce(tiny)
        assert a.intersects(b) and a.rel_width() <= DEFAULT_REL_TOL


class TestEdgeLengthRatio:
    def test_exact_ratio_two(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (3, 0)])
        elr = edge_length_ratio(d)
        assert elr.lo == elr.hi == 2

    def test_irrational_enclosed(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (2, 1)])
        elr = edge_length_ratio(d)
        root2 = sqrt_interval(F(2), 128)
        assert elr.lo <= root2.hi and elr.hi >= root2.lo


class TestPlanarity:
    def test_square_true(self):
        assert is_planar_drawing(unit_square())

    def test_crossing_false(self):
        d = drawing(4, [(0, 2), (1, 3)], [(0, 0), (2, 0), (2, 2), (0, 2)])
        assert not is_planar_drawing(d)

    def test_vertex_on_edge_interior_false(self):
        d = drawing(
            3, [(0, 1), (1, 2)], [(0, 0), (4, 0), (2, 0)]
        )  # edge 0-1 passes through vertex 2's edge 1-2 collinearly
        assert not is_planar_drawing(d)

    def test_shared_endpoints_fine(self):
        d = drawing(3, [(0, 1), (0, 2)], [(0, 0), (1, 0), (0, 1)])
        assert is_planar_drawing(d)

    def test_coincident_vertices_false(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (0, 0), (1, 0)])
        assert not is_planar_drawing(d)


class TestProperAndCollinear:
    def test_proper_rejects_vertex_inside_edge(self):
        d = drawing(3, [(0, 1)], [(0, 0), (4, 0), (2, 0)])
        assert not is_proper_drawing(d)

    def test_proper_accepts_triangle(self):
        d = drawing(3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (0, 1)])
        assert is_proper_drawing(d)
        assert no_three_collinear(d)

    def test_no_three_collinear_false_on_line(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (2, 0)])
        assert not no_three_collinear(d)


class TestBoxAndDistance:
    def test_bounding_box(self):
        w, h, ((x0, y0), (x1, y1)) = bounding_box(unit_square())
        assert (w, h) == (1, 1)
        assert (x0, y0, x1, y1) == (0, 0, 1, 1)

    def test_min_pairwise_distance_sq(self):
        d = drawing(3, [(0, 1)], [(0, 0), (3, 4), (1, 1)])
        assert min_pairwise_distance_sq(d) == 2

    def test_min_pairwise_matches_bruteforce(self):
        from spannerdraw.geometry import dist_sq

        for seed in range(10):
            d = random_drawing(12, 300 + seed)
            brute = min(
                dist_sq(d.coords[i], d.coords[j])
                for i in range(12)
                for j in range(i + 1, 12)
            )
            assert min_pairwise_distance_sq(d) == brute


class TestComputeMetrics:
    def test_full_report_on_square(self):
        r = compute_metrics(unit_square())
        assert r.planar and r.proper
        assert r.no_three_collinear is True
        assert r.width == 1 and r.height == 1
        assert r.min_pairwise_distance_sq == 1
        assert not r.spanning_ratio.is_infinite

    def test_coincident_report(self):
        d = drawing(2, [(0, 1)], [(0, 0), (0, 0)])
        r = compute_metrics(d)
        assert not r.proper
        assert r.spanning_ratio.is_infinite


def _float_spanning_ratio(d):
    """Floating-point spanning ratio by Floyd–Warshall on the Fraction
    coordinates, for a drawing with distinct points."""
    n = d.graph.n
    pts = [(float(x), float(y)) for x, y in d.coords]
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in d.graph.edges():
        dist[u][v] = dist[v][u] = math.dist(pts[u], pts[v])
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return max(
        dist[i][j] / math.dist(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)
    )


class TestMixedDenominators:
    """Every metric rescales the drawing to integer numerators over the least
    common denominator L. On points with coprime denominators, each metric
    must equal a reference computed directly on the Fraction coordinates."""

    def test_metrics_match_fraction_references(self):
        from spannerdraw.geometry import (
            collinear,
            dist_sq,
            in_segment_interior,
            segments_cross_improperly,
        )

        seen = set()
        for seed in range(30):
            n = 5 + seed % 8
            d = random_rational_drawing(n, 4000 + seed)
            c, edges = d.coords, d.graph.edges()
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            coincident = len(set(c)) < n
            planar = not any(c[u] == c[v] for u, v in edges) and not any(
                segments_cross_improperly(c[e[0]], c[e[1]], c[f[0]], c[f[1]])
                for i, e in enumerate(edges)
                for f in edges[i + 1:]
            )
            proper = not coincident and not any(
                in_segment_interior(c[u], c[v], c[w])
                for u, v in edges
                for w in range(n)
                if w not in (u, v)
            )
            collinear_triple = any(
                collinear(c[i], c[j], c[k]) for i, j in pairs for k in range(j + 1, n)
            )
            min_sq = min(dist_sq(c[i], c[j]) for i, j in pairs)
            xs, ys = [p[0] for p in c], [p[1] for p in c]
            box = (max(xs) - min(xs), max(ys) - min(ys), ((min(xs), min(ys)), (max(xs), max(ys))))
            seen.add((planar, proper, collinear_triple, coincident))

            assert has_coincident_vertices(d) == coincident, seed
            assert is_planar_drawing(d) == planar, seed
            assert is_proper_drawing(d) == proper, seed
            assert no_three_collinear(d) == (not collinear_triple), seed
            assert min_pairwise_distance_sq(d) == min_sq, seed
            assert bounding_box(d) == box, seed

            sqs = [dist_sq(c[u], c[v]) for u, v in edges]
            elr = edge_length_ratio(d)
            if min(sqs) == 0:
                assert elr.is_infinite, seed
            else:
                assert elr.lo ** 2 <= max(sqs) / min(sqs) <= elr.hi ** 2, seed

            sr = spanning_ratio(d)
            assert sr.intersects(spanning_ratio_bruteforce(d)), seed
            if coincident:
                assert sr.is_infinite, seed
            else:
                est = _float_spanning_ratio(d)
                assert float(sr.lo) * (1 - 1e-12) <= est <= float(sr.hi) * (1 + 1e-12), seed

            r = compute_metrics(d)
            assert (r.width, r.height, r.min_pairwise_distance_sq) == (box[0], box[1], min_sq)
            assert (r.planar, r.proper, r.no_three_collinear) == (
                planar, proper, not collinear_triple
            )
        # Both verdicts of every predicate occur, so none passes vacuously.
        for k in range(4):
            assert {s[k] for s in seen} == {False, True}, k
