import hashlib
import heapq
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bench_workloads,
    kruskal,
    random_connected_graph,
    random_connected_planar_graph,
    random_drawing,
    random_rational_drawing,
    random_tree,
    stacked_triangulation,
)
from oracles import spanning_ratio_bruteforce, spanning_ratio_oracle
from spannerdraw import drawing as drawing_module
from spannerdraw import geometry, metrics
from spannerdraw.drawing import Drawing
from spannerdraw.exact import Interval, format_rational, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import closest_pair_sq, dist_sq, in_segment_interior, segments_cross_improperly
from spannerdraw.graph import Graph, RootedTree, bfs_parents
from spannerdraw.layout import (
    Epsilon,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
)
from spannerdraw.metrics import (
    DEFAULT_REL_TOL,
    bounding_box,
    compute_metrics,
    edge_length_ratio,
    is_planar_drawing,
    is_proper_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)

F = Fraction


def drawing(n, edges, coords):
    return Drawing.of(Graph.from_edges(n, edges), coords)


def unit_square():
    return drawing(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)])


def float_filter_of(g, coords, closest):
    """metrics._float_filter as _spanning_ratios calls it: with the bit size
    of the coordinates and, on a tree, the tree's own breadth-first preorder."""
    tree = metrics._spanning_tree(g, bfs_parents(g)) if g.m == g.n - 1 else None
    return metrics._float_filter(g, coords, closest, metrics._coord_bits(coords), tree)


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

    def test_repr_past_int_digit_limit(self):
        # The lower bound's denominator has more decimal digits than int
        # prints by default (4300).
        tiny = drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)])
        iv = spanning_ratio(tiny)
        assert repr(iv) == f"Interval({format_rational(iv.lo)}, {format_rational(iv.hi)})"
        assert repr(Interval(math.inf, math.inf)) == "Interval(inf, inf)"

    def test_tree_rows_rerooted_on_integers(self, monkeypatch):
        # Every pair of a tree takes integer rows rerooted along its
        # preorder, and its candidates take root distances: a tree whose
        # filter declines, or proves on its root distances, runs no Dijkstra.
        calls = Counter()
        dijkstra = metrics._dijkstra

        def counted(*args):
            calls["dijkstra"] += 1
            return dijkstra(*args)

        monkeypatch.setattr(metrics, "_dijkstra", counted)
        path = drawing(60, [(i, i + 1) for i in range(59)], [(i, 0) for i in range(60)])
        assert float_filter_of(path.graph, path.points, path.closest_sq) is None  # every pair ties
        a = spanning_ratio(path)
        assert a.lo == a.hi == 1 and calls["dijkstra"] == 0
        for n in (2, 30, 120):
            d = draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
            a, b = spanning_ratio(d), spanning_ratio_oracle(d)
            assert (a.lo, a.hi) == (b.lo, b.hi) and calls["dijkstra"] == 0, n
        zigzag = zigzag_tree(40)  # filtered on bounded rows, with Dijkstra
        a, b = spanning_ratio(zigzag), spanning_ratio_oracle(zigzag)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        calls.clear()
        # With no filter at all, every precision scans every pair.
        monkeypatch.setattr(metrics, "_float_filter", lambda *args: None)
        trees = [zigzag, two_scales(F(2**40 + 12345), F(1, 10**6))]
        trees += [draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
                  for n in (2, 7, 40)]
        trees += [Drawing(random_tree(n, 4, n), tuple(random_points(n, 30, n))) for n in (3, 25)]
        # Past 1900 bits, with no far-placement order: every precision's
        # rows are big integers.
        wide = shifted(Drawing(random_tree(12, 3, 12), tuple(random_points(12, 20, 12))), 1900)
        assert metrics._coord_bits(wide.points) > 1900 and metrics._far_order(wide.graph, wide.points) is None
        trees.append(wide)
        for k, d in enumerate(trees):
            a, b = spanning_ratio(d), spanning_ratio_oracle(d)
            assert (a.lo, a.hi) == (b.lo, b.hi), k
        assert calls["dijkstra"] == 0

    def test_tree_built_once(self, monkeypatch):
        # Counted: one spanning_ratio call on a tree builds its preorder tree
        # once, for the float pass and the exact rows of every precision
        # and pass, takes the coordinates' bit size once, and runs no Prim.
        calls = Counter()

        def counted(name):
            function = getattr(metrics, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(metrics, name, wrapper)

        for name in ("_spanning_tree", "_prim", "_coord_bits", "_scan", "_far_scan", "_float_filter"):
            counted(name)
        monkeypatch.setattr(metrics, "_FAR_ROWS", 0)  # the far-placement pass hands over at once
        column = drawing(6, [(i, i + 1) for i in range(5)], [(0, i) for i in range(6)])
        # (far-placement passes, scans) of each: the candidates only; the
        # far-placement pass, then the candidates and every pair at 64 bits;
        # the float pass on bounded rows; the far-placement pass, then the
        # candidates.
        cases = [
            (draw_tree_planar(RootedTree.from_graph(random_tree(120, 3, 120), 0), Epsilon(1)), (0, 1)),
            (drawing(4, [(0, 1), (1, 2), (2, 3)], [(0, 0), (F(1, 2**60), 0), (0, 1), (1, 1)]), (1, 3)),
            (zigzag_tree(40), (0, 2)),
            (shifted(column, 200), (1, 2)),
        ]
        for k, (d, passes) in enumerate(cases):
            calls.clear()
            spanning_ratio(d)
            assert (calls["_spanning_tree"], calls["_prim"], calls["_coord_bits"]) == (1, 0, 1), (k, calls)
            assert (calls["_far_scan"], calls["_scan"]) == passes and calls["_float_filter"] == 1, (k, calls)

    def test_tree_planar_enclosures_pinned(self):
        # The 40 seed-301 tree-planar benchmark drawings; test_enclosures_pinned
        # pins the planar and proper ones. Recorded when the float pass and
        # the exact rows each rooted their own tree.
        ops = bench_workloads().build("tree-planar", 301)
        srs = [spanning_ratio(draw_tree_planar(RootedTree.from_graph(Graph.from_edges(op.n, op.edges), 0),
                                               Epsilon(op.epsilon))) for op in ops]
        assert len(srs) == 40
        digest = hashlib.sha256(repr([(s.lo, s.hi) for s in srs]).encode()).hexdigest()
        assert digest == "6db0b5aa104b2412d9f5eb87190b1a4d229979cf4a1e56d5bd002958c19e818c"


def strip_graph(n):
    """A path with a chord over every other vertex: planar, not a tree."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(0, n - 2, 2)])


def zigzag_tree(k):
    """A path whose edge lengths halve, turning 90 degrees at every vertex."""
    pts, x, y = [(F(0), F(0))], F(0), F(0)
    for i in range(k):
        x, y = (x + F(1, 2**i), y) if i % 2 == 0 else (x, y + F(1, 2**i))
        pts.append((x, y))
    return drawing(k + 1, [(i, i + 1) for i in range(k)], pts)


def two_triangles(apex, gap, scale):
    """Two isosceles paths joined by an edge: D-F-E with base 1 and apex
    height `apex`, and a copy A-C-B shrunk to base `scale` whose ratio is
    lower by `gap` times 2**-20, the filter's margin. At the precision where
    one bracket unit is about 2**-20 of the small base, the skipped pair
    (A, B) has an upper ratio bound above the certified lower bound."""
    r = 2 * math.sqrt(0.25 + apex * apex)
    small = F(round(math.sqrt((r * (1 - gap * 2**-20) / 2) ** 2 - 0.25) * 2**40), 2**40)
    a = F(-2)
    pts = [(0, 0), (F(1, 2), apex), (1, 0), (a, 0), (a + scale / 2, small * scale), (a + scale, 0)]
    return drawing(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)], pts)


def two_scales(far, gap):
    """A tree of two isosceles paths 2**40 apart, joined by a long edge:
    near the origin with apex height 1 - gap, far away with height 1, so the
    far one holds the largest ratio. Rerooted float rows lose about 2**-12
    of the far path's distances, far more than the gap between the two."""
    pts = [(0, 0), (F(1, 2), 1 - gap), (1, 0), (far, 0), (far + F(1, 2), 1), (far + 1, 0)]
    return drawing(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], pts)


class TestFloatFilter:
    """spanning_ratio scans the float filter's candidate pairs first and all
    pairs only when the filter cannot prove that the others do not matter.
    Its enclosures must equal the full scan's exactly, whichever way it went."""

    def test_matches_full_scan_oracle(self, monkeypatch):
        outcomes = Counter()
        float_filter, filter_proves = metrics._float_filter, metrics._filter_proves

        def counted_filter(*args):
            flt = float_filter(*args)
            outcomes["declined" if flt is None else "filtered"] += 1
            return flt

        def counted_proves(*args):
            proven = filter_proves(*args)
            outcomes["proven" if proven else "fallback"] += 1
            return proven

        monkeypatch.setattr(metrics, "_float_filter", counted_filter)
        monkeypatch.setattr(metrics, "_filter_proves", counted_proves)
        # With no row to spend, the far-placement pass hands every drawing
        # past 53 bits over to the float pass, whose paths this test counts.
        monkeypatch.setattr(metrics, "_FAR_ROWS", 0)

        cases = [random_drawing(4 + seed % 12, seed) for seed in range(20)]
        cases += [random_rational_drawing(5 + seed % 8, 5000 + seed) for seed in range(20)]
        cases += [draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
                  for n in (30, 120, 300)]
        # Coordinates past 1400 bits, so the float pass scales them down.
        wide = draw_planar_spanner(strip_graph(140), Epsilon(F(1, 10)))
        assert max(abs(c).bit_length() for p in wide.points for c in p) > 1400
        cases += [wide, draw_planar_spanner(random_tree(60, 4, 60), Epsilon(F(1, 10)))]
        # Lengths over 40 scales: the rerooted tree rows are too coarse, so
        # the filter takes the Dijkstra rows, for which the proof holds.
        cases.append(zigzag_tree(40))
        cases.append(two_scales(F(2**40 + 12345), F(1, 10**6)))
        # The closest pair, an edge, is below 2**-64, so the precisions are
        # shifted by its 70 bits and start at 128 + 70, where the proof holds.
        cases.append(drawing(4, [(0, 1), (1, 2), (2, 3)],
                             [(0, 0), (F(1, 2**70), 0), (0, 1), (1, 1)]))
        cases = [(d, "proven") for d in cases]
        # An edge of 2**-60 brackets away from 0 at 64 bits, unshifted, but
        # too coarsely for the proof, so that precision scans all pairs.
        cases.append((drawing(4, [(0, 1), (1, 2), (2, 3)],
                              [(0, 0), (F(1, 2**60), 0), (0, 1), (1, 1)]), "fallback"))
        # Beyond the filter's range, and a path whose pairs all tie.
        cases.append((drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)]),
                      "declined"))
        cases.append((drawing(60, [(i, i + 1) for i in range(59)], [(i, 0) for i in range(60)]),
                      "declined"))

        for k, (d, outcome) in enumerate(cases):
            outcomes.clear()
            a, b = spanning_ratio(d), spanning_ratio_oracle(d)
            assert (a.lo, a.hi) == (b.lo, b.hi), k
            if a.is_infinite:
                continue  # coincident points: no scan at all
            # Each case takes its path; the "proven" ones never scan all pairs.
            assert outcomes[outcome], (k, outcomes)
            if outcome == "proven":
                assert set(outcomes) == {"filtered", "proven"}, (k, outcomes)

    def test_proof_implies_full_scan_at_every_precision(self):
        # At a few bits the brackets are coarse, so every error term of the
        # proof is tested, not only at the precision that certifies.
        cases = [random_drawing(4 + seed % 9, 700 + seed) for seed in range(12)]
        cases += [random_rational_drawing(5 + seed % 6, 7000 + seed) for seed in range(12)]
        cases += [draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
                  for n in (8, 20)]
        # Built so that at one precision a skipped pair moves the enclosure
        # and only one of the two bracket terms of the proof (the one of the
        # pair distance, then the one of the path) stops the proof.
        base = F(2**20, 2**50)
        cases += [two_triangles(F(199, 40), 1.05, base * F(10**6 + 997, 10**6)),
                  two_triangles(F(1), 1.02, base * F(10**6 + 997, 10**6))]
        checked = Counter()
        for k, d in enumerate(cases):
            g = d.graph
            coords, L = d.points, d.den
            if len(set(coords)) < g.n:
                continue
            closest = d.closest_sq
            flt = float_filter_of(g, coords, closest)
            every = [(u, range(u + 1, g.n)) for u in range(g.n)]
            for bits in range(1, 60):
                if 4**bits * closest < L * L:
                    continue  # a pair brackets to 0: no enclosure runs at these bits
                lo_w, hi_w = {}, {}
                for u, v in g.edges():
                    lo_w[(u, v)], hi_w[(u, v)] = isqrt_scaled(dist_sq(coords[u], coords[v]), L * L, bits)

                adj_lo, adj_hi = metrics._weighted_adj(g.n, lo_w), metrics._weighted_adj(g.n, hi_w)

                def enclosure(groups):
                    rows = ((u, targets, metrics._dijkstra(adj_lo, u, range(g.n)),
                             metrics._dijkstra(adj_hi, u, range(g.n)))
                            for u, targets in groups)
                    return metrics._scan(coords, L * L, bits, (
                        (u, targets, [lo[v] for v in targets], [hi[v] for v in targets])
                        for u, targets, lo, hi in rows))

                candidates = enclosure(list(flt.pairs.items()))
                if not metrics._filter_proves(flt, candidates.lo, L, bits):
                    checked["unproven"] += 1
                    continue
                full = enclosure(every)
                assert (full.lo, full.hi) == (candidates.lo, candidates.hi), (k, bits)
                checked["proven"] += 1
        assert checked["proven"] > 100 and checked["unproven"] > 100, checked


def float_filter_oracle(g, coords):
    """The float pass _float_filter made before it walked a spanning tree,
    with the float ratio of each candidate pair: (filter, {(u, v): ratio}).
    Full float rows from every source, by Dijkstra in vertex order, or on a
    tree rerooted along a preorder; each row judged for the later positions
    against the running largest ratio."""
    n = g.n
    s = max(0, max(abs(c).bit_length() for p in coords for c in p) - metrics._FILTER_BITS)
    if s > metrics._FILTER_LIMIT:
        return None, {}

    def dist(p, q):
        return math.hypot((p[0] - q[0]) / 2**s, (p[1] - q[1]) / 2**s)

    weight = {(u, v): dist(coords[u], coords[v]) for u, v in g.edges()}
    if g.m == n - 1:
        flt, ratios = oracle_candidates(coords, dist, *oracle_tree_rows(g, weight), s)
        if flt is None or 4 * flt.abs_err < F(metrics._FILTER_ETA) * flt.cut * flt.efmin:
            return flt, ratios
    adj = metrics._weighted_adj(n, weight)
    rows = ((u, metrics._dijkstra(adj, u, range(n))) for u in range(n))
    return oracle_candidates(coords, dist, range(n), rows, F(0), s)


def oracle_candidates(coords, dist, order, rows, abs_err, s):
    """The judging pass of float_filter_oracle over (i, row), row[j] the
    float distance between order[i] and order[j]."""
    n = len(coords)
    cap = 4 * n + 256
    rmax, efmin, cut = 0.0, math.inf, 0.0
    cands = []
    for i, row in rows:
        efs = [dist(coords[order[i]], coords[order[j]]) for j in range(i + 1, n)]
        if not efs:
            continue
        efmin = min(efmin, min(efs))
        ratios = [row[j] / ef for j, ef in enumerate(efs, i + 1)]
        top = max(ratios)
        rmax = max(rmax, top)
        cut = rmax * (1 - metrics._FILTER_ETA)
        if top >= cut:
            cands += [(r, i, j) for j, r in enumerate(ratios, i + 1) if r >= cut]
            if len(cands) > 2 * cap:
                cands = [c for c in cands if c[0] >= cut]
                if len(cands) > cap:
                    return None, {}
    if not (efmin > 2.0**-metrics._FILTER_LIMIT and math.isfinite(rmax)):
        return None, {}
    pairs, kept = {}, {}
    for r, i, j in cands:
        if r >= cut:
            pairs.setdefault(order[i], []).append(order[j])
            kept[(order[i], order[j])] = r
    flt = metrics._Filter(pairs, F(cut), F(efmin), (n + 8) * metrics._U, abs_err, n, s, n * (n - 1) // 2, 0)
    return flt, kept


def oracle_tree_rows(g, weight):
    """(order, rows, abs_err) for a tree: a stack preorder from vertex 0, and
    every position's full row, a child's from its parent's by +w outside
    and -w inside the child's subtree, lightest child first."""
    n = g.n
    order, up, w_up, pos = [], [0] * n, [0.0] * n, [0] * n
    seen = [False] * n
    seen[0] = True
    stack = [(0, 0)]
    while stack:
        u, parent = stack.pop()
        pos[u] = i = len(order)
        order.append(u)
        if i:
            up[i] = pos[parent]
            w_up[i] = weight[(min(u, parent), max(u, parent))]
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append((v, u))
    size, depth, root_row = [1] * n, [0] * n, [0.0] * n
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        depth[i] = depth[up[i]] + 1
        root_row[i] = root_row[up[i]] + w_up[i]
        kids[up[i]].append(i)
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    abs_err = 4 * (max(depth) + 1) * metrics._U * F(max(root_row))

    def rows():
        pending = [(0, root_row)]
        while pending:
            i, prow = pending.pop()
            if i == 0:
                row = prow
            else:
                a, b, w = i, i + size[i], w_up[i]
                row = [x + w for x in prow[:a]] + [x - w for x in prow[a:b]] + [x + w for x in prow[b:]]
            yield i, row
            pending += [(c, row) for c in sorted(kids[i], key=size.__getitem__, reverse=True)]

    return order, rows(), abs_err


def random_points(n, bits, seed):
    """n distinct integer points with coordinates of absolute value below 2**bits."""
    rng = random.Random(seed)
    points = set()
    while len(points) < n:
        points.add((rng.randrange(1 - 2**bits, 2**bits), rng.randrange(1 - 2**bits, 2**bits)))
    return sorted(points, key=lambda p: rng.random())


def assert_keeps_oracle_candidates(flt, ref, ratios, k):
    """flt, a filter of _float_filter, against the oracle's filter ref and
    ratios: the cuts agree within 2**-40, efmin is at most the oracle's least
    float distance and within 2**-40 of it, and every oracle pair above the
    cut by more than 2**-40 is a candidate."""
    assert flt is not None and ref is not None, k
    assert abs(flt.cut / ref.cut - 1) <= F(1, 2**40), k
    assert ref.efmin * (1 - F(1, 2**40)) <= flt.efmin <= ref.efmin, k
    assert (flt.n, flt.s) == (ref.n, ref.s), k
    pairs = {(u, v) for u, vs in flt.pairs.items() for v in vs}
    for (u, v), r in ratios.items():
        if F(r) >= flt.cut * (1 + F(1, 2**40)):
            assert (u, v) in pairs or (v, u) in pairs, (k, u, v)


class TestFloatFilterOracle:
    """_float_filter walks a spanning tree and runs Dijkstra only near the
    cut; float_filter_oracle is the full-row pass it replaced."""

    def test_tree_filters_keep_oracle_candidates(self):
        cases = [draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
                 for n in (30, 120, 300)]
        # Below 2**53 the filter takes math.dist of float points, whose
        # differences round past 2**53; above it, the integer differences.
        for k, bits in enumerate((20, 53, 54, 60, 1200)):
            for n in (2, 9, 40, 130):
                g = random_tree(n, 4, 100 * k + n)
                cases.append(Drawing(g, tuple(random_points(n, bits, 100 * k + n))))
        # One range per source on a path, n - 1 subtrees of one vertex at
        # the center of a star, and a caterpillar: spine 40 .. 79, leaf i on
        # spine vertex 40 + i, rooted at leaf 0. The walk takes each spine
        # child before its leaf, so a source deep on the spine has a range
        # at every ancestor (up to 39).
        spine = [(40 + i, 41 + i) for i in range(39)]
        shapes = [Graph.from_edges(80, [(i, i + 1) for i in range(79)]),
                  Graph.from_edges(80, [(0, i) for i in range(1, 80)]),
                  Graph.from_edges(80, spine + [(i, 40 + i) for i in range(40)])]
        for k, g in enumerate(shapes):
            cases.append(Drawing(g, tuple(random_points(g.n, 30, 900 + k))))
        cases.append(zigzag_tree(12))
        for k, d in enumerate(cases):
            n = d.graph.n
            flt = float_filter_of(d.graph, d.points, d.closest_sq)
            ref, ratios = float_filter_oracle(d.graph, d.points)
            assert_keeps_oracle_candidates(flt, ref, ratios, k)
            assert ref.abs_err > 0 and flt.abs_err > 0 and flt.rel_err == (n + 8) * metrics._U, k

    def test_graph_filters_keep_oracle_candidates(self):
        cases = [random_drawing(4 + seed % 12, seed) for seed in range(20)]
        cases += [d for d in (random_rational_drawing(5 + seed % 8, 5000 + seed) for seed in range(20))
                  if not geometry.coincident(d.points)]
        cases += [draw_planar_spanner(stacked_triangulation(60, seed), Epsilon(eps))
                  for seed in range(2) for eps in (F(1), F(1, 10))]
        cases += [draw_planar_spanner(strip_graph(140), Epsilon(F(1, 10)))]
        cases += [draw_proper_spanner(random_connected_graph(n, n, n), Epsilon(F(1, 2))) for n in (30, 90)]
        for k, bits in enumerate((30, 53, 60)):
            g = random_connected_graph(50, 40, k)
            cases.append(Drawing(g, tuple(random_points(50, bits, k))))
        # Trees whose rounding error is too large take the bounded rows.
        cases += [zigzag_tree(40), two_scales(F(2**40 + 12345), F(1, 10**6))]
        bounded = 0
        for k, d in enumerate(cases):
            g, n = d.graph, d.graph.n
            flt = float_filter_of(g, d.points, d.closest_sq)
            ref, ratios = float_filter_oracle(g, d.points)
            assert_keeps_oracle_candidates(flt, ref, ratios, k)
            assert bool(flt.abs_err) == bool(ref.abs_err), k
            if ref.abs_err:  # a tree on its root distances
                continue
            bounded += 1
            assert (flt.rel_err, flt.abs_err) == ((2 * n + 8) * metrics._U, 0), k
        assert bounded >= len(cases) - 10, (bounded, len(cases))

    def test_dijkstra_work_counts(self, monkeypatch):
        # Counted, not timed: full rows settle n vertices from each source.
        # Every settled vertex is one heap pop.
        pops = Counter()

        def heappop(heap):
            pops["pops"] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(metrics, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
        planar = draw_planar_spanner(stacked_triangulation(80, 1), Epsilon(1))
        proper = draw_proper_spanner(random_connected_graph(80, 80, 1), Epsilon(F(1, 2)))
        # Measured, with the pops of the walk tree's Prim (one per edge plus
        # one): 0.095 n**2 (610) and 0.052 n**2 (335). On the breadth-first
        # tree the planar drawing took 0.32 n**2 (2057); the proper one took
        # 0.027 n**2 (172), as its Dijkstra still does (175) without Prim's.
        for d, share in ((planar, 0.15), (proper, 0.1)):
            pops.clear()
            assert float_filter_of(d.graph, d.points, d.closest_sq) is not None
            assert 0 < pops["pops"] <= share * d.graph.n ** 2, (pops, d.graph.n)

    def test_exact_rows_stop_at_their_targets(self, monkeypatch):
        # Counted, not timed: the exact candidate rows of a graph that is not
        # a tree run Dijkstra under both edge brackets, each stopping once
        # the source's candidate targets are settled. Full rows would pop
        # every vertex twice (measured: 188 and 225 pops for one source);
        # stopped they took 18 and 6.
        pops = Counter()

        def heappop(heap):
            pops["pops"] += 1
            return heapq.heappop(heap)

        planar = draw_planar_spanner(stacked_triangulation(80, 1), Epsilon(1))
        proper = draw_proper_spanner(random_connected_graph(80, 80, 1), Epsilon(F(1, 2)))
        filters = [(d, float_filter_of(d.graph, d.points, d.closest_sq)) for d in (planar, proper)]
        monkeypatch.setattr(metrics, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
        monkeypatch.setattr(metrics, "_FAR_ROWS", 0)  # the far-placement pass hands over at once
        for d, flt in filters:
            assert flt is not None and flt.pairs
            monkeypatch.setattr(metrics, "_float_filter", lambda *args: flt)
            pops.clear()
            assert not spanning_ratio(d).is_infinite
            assert 0 < pops["pops"] <= 0.5 * d.graph.n * len(flt.pairs), (pops, d.graph.n)

    def test_tree_pass_work_counts(self):
        # Counted, not timed: the float ratios judged and the subtree tests
        # run. A planar tree drawing prunes most pairs: 6.0-6.5% are judged.
        n, pairs = 300, 300 * 299 // 2
        for seed in (300, 301, 7):
            d = draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, seed), 0), Epsilon(1))
            flt = float_filter_of(d.graph, d.points, d.closest_sq)
            assert flt.abs_err > 0 and 0 < flt.judged <= 0.25 * pairs, (seed, flt.judged)
        # Random points: a subtree's box holds most sources, so almost
        # nothing prunes, and the tests stop after _PROBE and the source
        # that passes it (measured: 278-290 of them).
        for k, bits in enumerate((20, 60, 1200)):
            g = random_tree(n, 2 + k, bits)
            points = random_points(n, bits, bits)
            flt = float_filter_of(g, points, closest_pair_sq(points))
            assert flt.abs_err > 0 and flt.judged >= 0.9 * pairs, k
            assert metrics._PROBE <= flt.tests < 2 * metrics._PROBE, (k, flt.tests)

    def test_pruning_keeps_its_margin(self):
        # A subtree whose bound is below the cut by less than 2**-48 is
        # judged, not skipped: the margin covers the rounding of the box
        # distance. Position 0 is the root at the origin, 1 a leaf at
        # (-1, 0), and 2 .. 21 a path along the x axis, so every float ratio
        # is 1 and the cut after the root is 1 - 2**-20. From the leaf the
        # path's subtree (off 1, largest root distance 20) is tested once,
        # against the distance gap returns first: one that puts its bound
        # 2**-49 below the cut.
        n = 22
        up = [0, 0, 0] + list(range(2, 21))
        size = [n, 1] + list(range(20, 0, -1))
        # Vertex 21 is the leaf, 1 .. 20 the path: the root's larger neighbor comes first.
        g = Graph.from_edges(n, [(0, 21)] + [(k, k + 1) for k in range(20)])
        tree = metrics._spanning_tree(g, bfs_parents(g))
        assert (tree.up, tree.size) == (up, size)
        xs = [0.0, -1.0] + [float(k) for k in range(1, 21)]
        ys = [0.0] * n
        root = [abs(x) for x in xs]
        cut = 1 - 2.0**-20
        gaps = []

        def gap(dx, dy):
            gaps.append((dx, dy))
            return 21 / (cut * (1 - 2.0**-49)) if len(gaps) == 1 else 0.0

        def dists(i, segs):
            return [abs(xs[j] - xs[i]) for lo, hi, _ in segs for j in range(lo, hi)]

        judge = metrics._tree_candidates(tree, root, xs, ys, gap, dists)
        assert gaps[0] == (2.0, 0) and judge.tests == len(gaps)
        assert judge.judged == n * (n - 1) // 2 and judge.cut == cut

    @pytest.fixture
    def walk_trees(self, monkeypatch):
        """The (order, up, size) of every spanning tree the filter walks."""
        trees = []
        spanning_tree = metrics._spanning_tree

        def recorded(g, parent):
            t = spanning_tree(g, parent)
            trees.append((t.order, t.up, t.size))
            return t

        monkeypatch.setattr(metrics, "_spanning_tree", recorded)
        return trees

    def test_walk_tree_is_minimum(self, walk_trees):
        # Any two minimum spanning trees have the same multiset of weights,
        # so the walk tree's sorted float weights equal Kruskal's.
        cases = [random_drawing(4 + seed % 30, seed) for seed in range(30)]
        cases += [draw_planar_spanner(stacked_triangulation(n, seed), Epsilon(eps))
                  for seed, n in enumerate((20, 60, 120)) for eps in (F(1), F(1, 10))]
        cases += [draw_planar_spanner(strip_graph(140), Epsilon(F(1, 10)))]
        cases += [draw_proper_spanner(random_connected_graph(n, n, n), Epsilon(F(1, 2))) for n in (30, 90)]
        graphs = 0
        for k, d in enumerate(cases):
            g, n = d.graph, d.graph.n
            s = max(0, max(abs(c).bit_length() for p in d.points for c in p) - metrics._FILTER_BITS)

            def weight(u, v):
                (x0, y0), (x1, y1) = d.points[u], d.points[v]
                return math.hypot((x0 - x1) / 2**s, (y0 - y1) / 2**s)

            walk_trees.clear()
            float_filter_of(g, d.points, d.closest_sq)
            [(order, up, size)] = walk_trees
            walk = [(order[i], order[up[i]]) for i in range(1, n)]
            assert sorted(order) == list(range(n)) and all(up[i] < i for i in range(1, n)), k
            assert all(g.has_edge(u, v) for u, v in walk), k
            oracle = kruskal(n, sorted(g.edges(), key=lambda e: weight(*e)))
            assert sorted(weight(u, v) for u, v in walk) == sorted(weight(u, v) for u, v in oracle), k
            graphs += g.m > n - 1
        assert graphs >= len(cases) - 3, graphs

    def test_tree_walks_itself(self, walk_trees):
        # On a tree the minimum spanning tree is the tree itself, rooted at
        # vertex 0, so the walk trees equal the breadth-first ones. The
        # digest of the walk trees' (order, up, size) was recorded when the
        # filter walked the breadth-first tree of every graph.
        for k, n in enumerate((2, 3, 9, 40, 130, 300) * 2):
            points = random_points(n, 30, k)
            float_filter_of(random_tree(n, 2 + k % 4, 700 + k), points, closest_pair_sq(points))
        digest = hashlib.sha256(repr(walk_trees).encode()).hexdigest()
        assert digest == "a27e129fbaf72f690f6eeeceb460e0054052630e78984e524c85b81db1226eeb"


def shifted(d, s):
    """d scaled by 2**s and moved by one unit of 1/den along both axes: no
    ratio changes, and the coordinates keep no common factor 2**s."""
    return Drawing(d.graph, tuple(((x << s) + 1, (y << s) + 1) for x, y in d.points), d.den)


def small_far_drawings():
    """Planar and proper spanner drawings of n <= 12, several seeds and eps."""
    cases = []
    for seed in range(8):
        n, eps = 4 + seed, (F(1), F(1, 10), F(1, 2), F(3))[seed % 4]
        cases.append(draw_planar_spanner(random_connected_planar_graph(n, 60 + seed), Epsilon(eps)))
        cases.append(draw_proper_spanner(random_connected_graph(n, seed, 80 + seed), Epsilon(eps)))
    return cases


def y_ordered_drawing(n, bits, seed):
    """Random points, each joined to a random lower one and by n // 2 more
    random edges: the (y, x) order has an earlier neighbor everywhere, but
    the points are not far apart."""
    points = sorted(random_points(n, bits, seed), key=lambda p: (p[1], p[0]))
    rng = random.Random(seed)
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Drawing(Graph.from_edges(n, edges), tuple(points))


class TestFarPlacement:
    """The far-placement pass brackets only the sources whose bound
    B_k = (hi(v_k, w_k) + D_k) / gap_k reaches the running lower bound, and
    its enclosure equals the full scan's, number for number."""

    @pytest.fixture
    def far_log(self, monkeypatch):
        """Per call of _far_scan, (sources bracketed, handed over); and the
        calls of _far_order and _float_filter under "order" and "filter"."""
        log = {"scans": [], "order": 0, "filter": 0}
        far_scan, far_order, float_filter = metrics._far_scan, metrics._far_order, metrics._float_filter

        def scan(far, coords, den, bits, rows, hi_w):
            count = [0]

            def counted(groups):
                for group in groups:
                    count[0] += 1
                    yield group

            ivl = far_scan(far, coords, den, bits, lambda groups: rows(counted(groups)), hi_w)
            log["scans"].append((count[0], ivl is None))
            return ivl

        def order(*args):
            log["order"] += 1
            return far_order(*args)

        def flt(*args):
            log["filter"] += 1
            return float_filter(*args)

        monkeypatch.setattr(metrics, "_far_scan", scan)
        monkeypatch.setattr(metrics, "_far_order", order)
        monkeypatch.setattr(metrics, "_float_filter", flt)
        return log

    def test_matches_oracles_on_small_drawings(self, far_log):
        # Every case past 53 bits is certified by the pass alone (the
        # proper ones of n <= 12 have 8-47 bits, the planar ones 85-119).
        # Scaled by 2**3000 they are past the float filter's 1900 bits.
        entered = 0
        for k, d in enumerate(small_far_drawings()):
            for case in (d, shifted(d, 3000)):
                far_log["scans"].clear()
                far_log["filter"] = 0
                a, b, c = spanning_ratio(case), spanning_ratio_oracle(case), spanning_ratio_bruteforce(case)
                assert (a.lo, a.hi) == (b.lo, b.hi), k
                assert a.intersects(c) and c.rel_width() <= DEFAULT_REL_TOL, k
                if metrics._coord_bits(case.points) > 53:
                    assert far_log["scans"] and not any(fell for _, fell in far_log["scans"]), k
                    assert far_log["filter"] == 0, k
                    entered += 1
                else:
                    assert not far_log["scans"] and far_log["filter"] == 1, k
            assert metrics._coord_bits(case.points) > 3000
            assert float_filter_of(case.graph, case.points, case.closest_sq) is None, k
        assert entered == 24

    def test_equals_full_scan_at_every_precision(self):
        # At a few bits the brackets are coarse and the bounds weak, so the
        # pass is tested where it hands over, where it barely finishes and
        # where it prunes almost everything. Every bound B_k must hold for
        # every pair of its source: dist_hi / e_lo <= B_k.
        cases = small_far_drawings()
        cases += [shifted(d, 3000) for d in cases[:6]]
        cases += [y_ordered_drawing(n, 30, n) for n in (3, 8, 20)]
        # A tight bound: the path from (0, H) to (0, 0) runs through the
        # whole tree of the prefix, and (0, 0) is the point of the prefix's
        # box nearest to (0, H), so dist_hi / e_lo = B_2 for the pair.
        cases.append(drawing(3, [(0, 1), (1, 2)], [(0, 0), (-3, -1), (0, 40)]))
        checked = Counter()
        for k, d in enumerate(cases):
            g, coords, L = d.graph, d.points, d.den
            far = metrics._far_order(g, coords)
            assert far is not None, k
            for bits in range(1, 60, 3):
                if 4**bits * d.closest_sq < L * L:
                    continue  # a pair brackets to 0: no enclosure runs at these bits
                lo_w, hi_w = {}, {}
                for u, v in g.edges():
                    lo_w[(u, v)], hi_w[(u, v)] = isqrt_scaled(dist_sq(coords[u], coords[v]), L * L, bits)
                rows = partial(metrics._graph_rows, g.n, lo_w, hi_w)
                dist_hi = {u: hi for u, _, _, hi in rows((u, range(g.n)) for u in range(g.n))}
                for _, num, gap, j in metrics._far_bounds(far, L * L, bits, hi_w):
                    v = far.order[j]
                    for u in far.order[:j]:
                        e_lo = isqrt_scaled(dist_sq(coords[v], coords[u]), L * L, bits)[0]
                        assert dist_hi[v][u] * gap <= num * e_lo, (k, bits, j, u)
                        checked["tight"] += dist_hi[v][u] * gap == num * e_lo
                ivl = metrics._far_scan(far, coords, L * L, bits, rows, hi_w)
                if ivl is None:
                    checked["handed over"] += 1
                    continue
                full = metrics._scan(coords, L * L, bits, rows(None))
                assert (ivl.lo, ivl.hi) == (full.lo, full.hi), (k, bits)
                checked["pruned"] += 1
        assert checked["pruned"] > 400 and checked["handed over"] > 15 and checked["tight"] > 500, checked

    def test_a_source_at_the_lower_bound_is_bracketed(self, far_log):
        # Only B_k < t prunes. On a straight path every bracket is exact:
        # the top vertex's row sets t = 1, and the middle one's bound is
        # exactly 1, so it is bracketed too.
        s = 2**60
        d = drawing(3, [(0, 1), (1, 2)], [(1, 1), (1, s + 1), (1, 2 * s + 1)])
        a = spanning_ratio(d)
        assert a.lo == a.hi == 1 and far_log["scans"] == [(2, False)]

    def test_far_placed_drawings_bracket_a_few_rows(self, far_log):
        # Counted, not timed: a seeded n = 160 planar drawing at both eps,
        # and a proper one, bracket at most 3 sources at every precision
        # (measured: 1 or 2), and the float pass never runs.
        workloads = bench_workloads()
        graphs = [Graph.from_edges(160, workloads.random_planar_edges(160, random.Random(k), 160))
                  for k in range(2)]
        cases = [draw_planar_spanner(h, Epsilon(eps)) for h in graphs for eps in (F(1), F(1, 10))]
        cases.append(draw_proper_spanner(random_connected_graph(160, 160, 5), Epsilon(F(1, 2))))
        for k, d in enumerate(cases):
            far_log["scans"].clear()
            assert not spanning_ratio(d).is_infinite
            assert far_log["scans"] and all(0 < rows <= 3 and not fell for rows, fell in far_log["scans"]), k
        assert far_log["filter"] == 0

    def test_small_coordinates_never_enter(self, far_log):
        # Tough and tree-planar drawings keep their coordinates within 53
        # bits, so the float pass serves them as before.
        cases = [draw_graph_via_tough_tree(random_connected_graph(n, n, n), 3, Epsilon(1)).drawing
                 for n in (20, 40, 80)]
        cases += [draw_tree_planar(RootedTree.from_graph(random_tree(n, 3, n), 0), Epsilon(1))
                  for n in (125, 300)]
        for d in cases:
            assert metrics._coord_bits(d.points) <= 53
            spanning_ratio(d)
        assert far_log["order"] == 0 and not far_log["scans"] and far_log["filter"] == len(cases)

    def test_drawings_not_far_placed_hand_over(self, far_log):
        # Random points past 53 bits with connected (y, x) prefixes: the pass
        # spends its rows and hands over to the float pass. A star centered
        # among its leaves has no order at all.
        cases = [shifted(y_ordered_drawing(n, 30, n), 200) for n in (20, 40)]
        cases += [shifted(random_drawing(12, seed), 200) for seed in range(4)]
        star = drawing(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 0), (-2, 1), (2, -1), (1, 2), (-1, -2)])
        cases.append(shifted(star, 200))
        fell = 0
        for k, d in enumerate(cases):
            far_log["scans"].clear()
            far_log["filter"] = 0
            a, b, c = spanning_ratio(d), spanning_ratio_oracle(d), spanning_ratio_bruteforce(d)
            assert (a.lo, a.hi) == (b.lo, b.hi) and a.intersects(c), k
            assert far_log["filter"] == 1, k
            if far_log["scans"]:
                assert far_log["scans"] == [(metrics._FAR_ROWS, True)], (k, far_log["scans"])
                fell += 1
        assert fell >= 2
        assert metrics._far_order(star.graph, shifted(star, 200).points) is None

    def test_enclosures_pinned(self):
        # The seed-301 planar and proper benchmark drawings with n <= 40,
        # recorded when every precision scanned all pairs (past 1900 bits)
        # or the float filter's candidates.
        workloads = bench_workloads()
        draw = {"planar": draw_planar_spanner, "proper": draw_proper_spanner}
        srs = [spanning_ratio(draw[op.kind](Graph.from_edges(op.n, op.edges), Epsilon(op.epsilon)))
               for w in ("planar", "proper") for op in workloads.build(w, 301)
               if op.kind in draw and op.n <= 40]
        assert len(srs) == 128
        digest = hashlib.sha256(repr([(s.lo, s.hi) for s in srs]).encode()).hexdigest()
        assert digest == "ced2ed3de6e9b4d5c9aeb84f8f89dc85608f95bd7ecfbcc8aed6dfd7dd65ce9d"

    def test_tough_enclosures_pinned(self):
        # The seed-301 tough benchmark drawings with n <= 40, which no other
        # digest covers: small coordinates, graphs that are not trees, each
        # proved by the float pass on Prim, _walk and _candidates. Recorded
        # when _spanning_ratios took its Dijkstra rows from a closure.
        ops = [op for op in bench_workloads().build("proper", 301) if op.kind == "tough" and op.n <= 40]
        srs = [spanning_ratio(draw_graph_via_tough_tree(Graph.from_edges(op.n, op.edges), op.d_target,
                                                        Epsilon(op.epsilon)).drawing) for op in ops]
        assert len(srs) == 58
        digest = hashlib.sha256(repr([(s.lo, s.hi) for s in srs]).encode()).hexdigest()
        assert digest == "7c45bed644af262cd3a381dbc95b1b4f592baf89701b9bbd1e2070d4090efe25"


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

    def test_same_segment_twice_through_coincident_vertices(self):
        # Common endpoints compare by coordinates: equal segments share both
        # ends, so they do not cross, though the drawing is not proper.
        d = drawing(4, [(0, 1), (2, 3)], [(0, 0), (2, 1), (0, 0), (2, 1)])
        assert is_planar_drawing(d)
        assert not is_proper_drawing(d)

    def test_collinear_overlap_from_common_left_end_false(self):
        d = drawing(3, [(0, 1), (0, 2)], [(0, 0), (2, 1), (4, 2)])
        assert not is_planar_drawing(d)

    def test_vertex_inside_vertical_edge_false(self):
        d = drawing(4, [(0, 1), (2, 3)], [(0, 0), (0, 4), (0, 2), (3, 2)])
        assert not is_planar_drawing(d)

    def test_edge_ending_inside_another_false(self):
        d = drawing(4, [(0, 1), (2, 3)], [(0, 0), (4, 0), (1, 3), (2, 0)])
        assert not is_planar_drawing(d)

    def test_crossing_found_when_an_edge_between_ends(self):
        # The edge from (0, 5) separates the crossing pair in the sweep until
        # it ends at (1, 5); only then do they become neighbors.
        d = drawing(6, [(0, 1), (2, 3), (4, 5)],
                    [(0, 0), (10, 10), (0, 5), (1, 5), (0, 10), (10, 0)])
        assert not is_planar_drawing(d)

    def test_edge_ending_where_another_starts_true(self):
        # End to end on one line: the first edge leaves the sweep before the
        # second enters it at the shared point.
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (2, 0), (4, 0)])
        assert is_planar_drawing(d)


def planar_oracle(d):
    """The planarity verdict by an x-interval sweep: each edge is tested with
    segments_cross_improperly against every earlier edge whose x and y
    ranges overlap its own."""
    coords = d.points
    segs = []
    for u, v in d.graph.edges():
        a, b = coords[u], coords[v]
        if a == b:
            return False
        xmin, xmax = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        segs.append((xmin, xmax, a, b))
    segs.sort(key=lambda s: s[0])
    active = []
    for s in segs:
        still = []
        for t in active:
            if t[1] < s[0]:
                continue
            still.append(t)
            if (max(t[2][1], t[3][1]) < min(s[2][1], s[3][1])
                    or max(s[2][1], s[3][1]) < min(t[2][1], t[3][1])):
                continue
            if segments_cross_improperly(s[2], s[3], t[2], t[3]):
                return False
        still.append(s)
        active = still
    return True


def proper_oracle(d):
    """The properness verdict by testing every vertex in every edge's box."""
    coords = d.points
    if len(set(coords)) < len(coords):
        return False
    for u, v in d.graph.edges():
        a, b = coords[u], coords[v]
        xmin, xmax = min(a[0], b[0]), max(a[0], b[0])
        ymin, ymax = min(a[1], b[1]), max(a[1], b[1])
        for w, p in enumerate(coords):
            if w in (u, v) or not (xmin <= p[0] <= xmax and ymin <= p[1] <= ymax):
                continue
            if in_segment_interior(a, b, p):
                return False
    return True


def closest_sq_oracle(points):
    """The least squared distance by an x-sorted scan that stops at an x gap
    whose square is at least the best so far."""
    pts = sorted(points)
    best = None
    for i, p in enumerate(pts):
        for q in reversed(pts[:i]):
            if best is not None and (p[0] - q[0]) ** 2 >= best:
                break
            if best is None or dist_sq(p, q) < best:
                best = dist_sq(p, q)
    return best


@st.composite
def grid_drawings(draw):
    """Up to 9 points on the grid -3..3 (coincident ones too) and any edges."""
    n = draw(st.integers(2, 9))
    points = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Drawing(Graph.from_edges(n, edges), tuple(points))


class TestSweepsMatchOracles:
    """is_planar_drawing, is_proper_drawing and closest_pair_sq sweep the points;
    each must give the verdict or value of the scan it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(grid_drawings())
    def test_degenerate_grid_drawings(self, d):
        assert is_planar_drawing(d) == planar_oracle(d)
        assert is_proper_drawing(d) == proper_oracle(d)
        assert closest_pair_sq(d.points) == closest_sq_oracle(d.points)

    def test_planar_spanner_drawings(self):
        # Each vertex sits far above the ones before it: y spreads
        # exponentially, x barely.
        graphs = [stacked_triangulation(40, seed) for seed in range(3)] + [strip_graph(40)]
        for k, g in enumerate(graphs):
            for eps in (F(1), F(1, 10)):
                d = draw_planar_spanner(g, Epsilon(eps))
                assert is_planar_drawing(d) and planar_oracle(d), k
                assert is_proper_drawing(d) == proper_oracle(d), k
                assert closest_pair_sq(d.points) == closest_sq_oracle(d.points), k
                # The last vertex moved to the midpoint of an edge away from
                # it: its own edges now end inside that edge.
                w = g.n - 1
                a, b = next(e for e in g.edges() if w not in e)
                pts = [(2 * x, 2 * y) for x, y in d.points]
                pts[w] = (d.points[a][0] + d.points[b][0], d.points[a][1] + d.points[b][1])
                bent = Drawing(g, tuple(pts), 2 * d.den)
                assert is_planar_drawing(bent) == planar_oracle(bent) is False, k
                assert is_proper_drawing(bent) == proper_oracle(bent) is False, k
                assert closest_pair_sq(bent.points) == closest_sq_oracle(bent.points), k

    def test_work_counts(self, monkeypatch):
        # Counted, not timed: a quadratic scan in place of a sweep fails here.
        g = stacked_triangulation(160, 1)
        d = draw_planar_spanner(g, Epsilon(1))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(metrics, "segments_cross_improperly",
                            counted("cross", metrics.segments_cross_improperly))
        monkeypatch.setattr(metrics, "dist_sq", counted("dist_sq", metrics.dist_sq))
        assert is_planar_drawing(d)
        assert 0 < calls["cross"] <= 3 * g.m, (calls, g.m)
        assert closest_pair_sq(d.points) == closest_sq_oracle(d.points)
        # At most 8 window points are compared with each point.
        assert calls["dist_sq"] <= 8 * g.n, (calls, g.n)


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
        from spannerdraw.geometry import dist_sq, in_segment_interior, segments_cross_improperly

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

    def test_one_closest_pair_per_report(self, monkeypatch):
        # The spanning ratio's shift and efmin, and the minimum distance,
        # share one closest-pair sweep.
        calls = []
        monkeypatch.setattr(drawing_module, "closest_pair_sq",
                            lambda points: calls.append(1) or closest_pair_sq(points))
        for d in (draw_tree_planar(RootedTree.from_graph(random_tree(40, 3, 40), 0), Epsilon(1)),
                  random_drawing(9, 4), drawing(2, [(0, 1)], [(0, 0), (0, 0)])):
            calls.clear()
            r = compute_metrics(d)
            assert len(calls) == 1
            assert r.min_pairwise_distance_sq == F(closest_sq_oracle(d.points), d.den**2)

    def test_coincident_report(self):
        d = drawing(2, [(0, 1)], [(0, 0), (0, 0)])
        r = compute_metrics(d)
        assert not r.proper
        assert r.spanning_ratio.is_infinite

    def test_proper_follows_from_no_collinear_triple(self, monkeypatch):
        # The seeds cover coincident points, vertices inside edges, collinear
        # triples off the edges and drawings with none of these.
        checked = []
        monkeypatch.setattr(metrics, "is_proper_drawing",
                            lambda d: checked.append(d) or is_proper_drawing(d))
        verdicts = set()
        for seed in range(60):
            d = random_rational_drawing(6 + seed % 5, seed)
            checked.clear()
            r = compute_metrics(d)
            proper = is_proper_drawing(d)
            assert r.proper == proper, seed
            # The properness check runs only when there is a collinear triple.
            assert checked == ([] if r.no_three_collinear else [d]), seed
            verdicts.add((r.no_three_collinear, proper))
        assert verdicts == {(True, True), (False, True), (False, False)}


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
            dist_sq,
            in_segment_interior,
            orientation,
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
                orientation(c[i], c[j], c[k]) == 0 for i, j in pairs for k in range(j + 1, n)
            )
            min_sq = min(dist_sq(c[i], c[j]) for i, j in pairs)
            xs, ys = [p[0] for p in c], [p[1] for p in c]
            box = (max(xs) - min(xs), max(ys) - min(ys), ((min(xs), min(ys)), (max(xs), max(ys))))
            seen.add((planar, proper, collinear_triple, coincident))

            assert geometry.coincident(d.points) == coincident, seed
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
