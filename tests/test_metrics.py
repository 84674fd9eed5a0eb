import hashlib
import heapq
import inspect
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KeyCount,
    bench_workloads,
    kruskal,
    random_connected_graph,
    random_connected_planar_graph,
    random_drawing,
    random_rational_drawing,
    random_tree,
    stacked_triangulation,
)
from oracles import (
    intersects,
    spanning_ratio_bruteforce,
    spanning_ratio_oracle,
    spanning_ratio_oracle_at,
    spanning_ratio_oracle_enclosures,
)
from spannerdraw import drawing as drawing_module
from spannerdraw import geometry, metrics
from spannerdraw.drawing import Drawing
from spannerdraw.exact import Interval, format_rational, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import closest_pair_sq, coord_bits, dist_sq, in_segment_interior, segments_cross_improperly
from spannerdraw.graph import Graph
from spannerdraw.layout import (
    Epsilon,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_proper,
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

    def test_one_connectivity_walk_per_report(self, monkeypatch):
        # compute_metrics leaves connectivity to spanning_ratio, and
        # spanning_ratio takes it from the walk its pass needs: one walk per
        # report, the tree's own on a graph of n - 1 edges, Prim's tree on a
        # graph that is not a tree; a disconnected drawing reports no
        # spanning ratio, with coincident vertices too. On n - 1 edges the
        # walk fails by a revisit (a triangle and an isolated vertex 3) or
        # a miss (an isolated vertex 0, where the walk starts).
        walks = Counter()
        for name in ("_spanning_tree", "_prim"):
            monkeypatch.setattr(metrics, name, partial(lambda f, name, *args: walks.update([name]) or f(*args),
                                                       getattr(metrics, name), name))
        tree, prim = ["_spanning_tree"], ["_spanning_tree", "_prim"]
        cases = [(drawing(3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (0, 1)]), prim, True),
                 (drawing(3, [(0, 1), (1, 2)], [(0, 0), (1, 0), (0, 1)]), tree, True),
                 (drawing(4, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (0, 1), (2, 2)]), tree, False),
                 (drawing(4, [(1, 2), (2, 3), (1, 3)], [(0, 0), (1, 0), (0, 1), (2, 2)]), tree, False),
                 (drawing(3, [(0, 1)], [(0, 0), (1, 0), (1, 0)]), prim, False),
                 (drawing(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                          [(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1)]), prim, False),
                 (drawing(4, [(0, 1), (1, 2), (2, 3)], [(0, 0), (1, 0), (1, 0), (3, 1)]), tree, True)]
        for k, (d, walk, connected) in enumerate(cases):
            walks.clear()
            sr = compute_metrics(d).spanning_ratio
            assert walks == Counter(walk), (k, walks)
            assert (sr is not None) == connected, k

    def test_coincident_sentinel(self):
        d = drawing(3, [(0, 1), (1, 2)], [(0, 0), (0, 0), (1, 0)])
        sr = spanning_ratio(d)
        assert sr.is_infinite and sr.lo == sr.hi == math.inf

    def test_matches_bruteforce_on_random_drawings(self):
        for seed in range(25):
            d = random_drawing(4 + seed % 12, seed)
            a = spanning_ratio(d)
            b = spanning_ratio_bruteforce(d)
            assert intersects(a, b), (seed, a, b)
            assert a.rel_width() <= DEFAULT_REL_TOL
            assert b.rel_width() <= DEFAULT_REL_TOL

    def test_tree_fast_path_agrees_with_bruteforce(self):
        d = drawing(
            4, [(0, 1), (1, 2), (1, 3)], [(0, 0), (3, 1), (5, 0), (2, 7)]
        )
        assert intersects(spanning_ratio(d), spanning_ratio_bruteforce(d))
        # An edge of 10**-5000 < 2**-16384 needs more bits than the escalation cap.
        tiny = drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)])
        a, b = spanning_ratio(tiny), spanning_ratio_bruteforce(tiny)
        assert intersects(a, b) and a.rel_width() <= DEFAULT_REL_TOL

    def test_repr_past_int_digit_limit(self):
        # The lower bound's denominator has more decimal digits than int
        # prints by default (4300).
        tiny = drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)])
        iv = spanning_ratio(tiny)
        assert repr(iv) == f"Interval({format_rational(iv.lo)}, {format_rational(iv.hi)})"
        assert repr(Interval(math.inf, math.inf)) == "Interval(inf, inf)"

    def test_tree_rows_rerooted_on_integers(self, monkeypatch):
        # Every pair of a tree takes its integer distances R[u] + R[v] -
        # 2 R[lca] on its preorder, and the pruned pass walks that same tree
        # on integer root distances: no tree runs Dijkstra, at any scale or
        # bit size.
        calls = Counter()
        dijkstra = metrics._dijkstra

        def counted(*args):
            calls["dijkstra"] += 1
            return dijkstra(*args)

        monkeypatch.setattr(metrics, "_dijkstra", counted)
        path = drawing(60, [(i, i + 1) for i in range(59)], [(i, 0) for i in range(60)])  # every pair ties
        a = spanning_ratio(path)
        assert a.lo == a.hi == 1
        trees = [draw_tree_planar(random_tree(n, 3, n), Epsilon(1))
                 for n in (2, 7, 30, 40, 120)]
        # Deep tree drawings of 29 and 34 bits, whose root distances span
        # many scales.
        trees += [draw_tree_planar(random_tree(300, 3, 300), Epsilon(eps))
                  for eps in (F(1, 10), F(1, 20))]
        trees += [zigzag_tree(40), two_scales(F(2**40 + 12345), F(1, 10**6))]
        trees += [Drawing(random_tree(n, 4, n), tuple(random_points(n, 30, n))) for n in (3, 25)]
        # Past 1900 bits, with no far-placement order: every precision's
        # distances are big integers.
        wide = shifted(Drawing(random_tree(12, 3, 12), tuple(random_points(12, 20, 12))), 1900)
        assert coord_bits(wide.points) > 1900 and metrics._far_order(wide.graph, wide.points) is None
        trees.append(wide)
        for k, d in enumerate(trees):
            a, b = spanning_ratio(d), spanning_ratio_oracle(d)
            assert (a.lo, a.hi) == (b.lo, b.hi), k
        assert calls["dijkstra"] == 0

    def test_tree_built_once(self, monkeypatch):
        # Counted: one spanning_ratio call on a tree builds its preorder tree
        # once, for the pruned pass and the exact distances of every
        # precision and pass, takes the coordinates' bit size once, and
        # runs no Prim.
        # A graph that is not a tree builds Prim's tree once, and only when
        # the far order's chain does not serve it.
        calls = Counter()

        def counted(name):
            function = getattr(metrics, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(metrics, name, wrapper)

        for name in ("_spanning_tree", "_prim", "coord_bits", "_enclosure", "_far_roots", "_pruned_scan"):
            counted(name)
        far_planar = draw_planar_spanner(stacked_triangulation(20, 1), Epsilon(1))
        assert coord_bits(far_planar.points) > 53
        calls.clear()
        spanning_ratio(far_planar)
        assert (calls["_far_roots"], calls["_spanning_tree"], calls["_prim"], calls["_pruned_scan"]) == (1, 0, 0, 1)
        # Three precisions of a graph that is not a tree: one Prim's tree.
        calls.clear()
        assert len(list(islice(metrics._spanning_ratios(random_drawing(12, 3)), 3))) == 3
        assert (calls["_spanning_tree"], calls["_prim"], calls["_pruned_scan"]) == (1, 1, 3), calls
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)  # the far-placement pass hands over at once
        column = drawing(6, [(i, i + 1) for i in range(5)], [(0, i) for i in range(6)])
        # (chain passes, pruned passes, enclosures) of each: the graph's
        # tree; the chain, then the graph's tree, for one enclosure; the
        # graph's tree at two precisions; as the second.
        cases = [
            (draw_tree_planar(random_tree(120, 3, 120), Epsilon(1)), (0, 1, 1)),
            (drawing(4, [(0, 1), (1, 2), (2, 3)], [(0, 0), (F(1, 2**60), 0), (0, 1), (1, 1)]), (1, 2, 1)),
            (zigzag_tree(40), (0, 2, 2)),
            (shifted(column, 200), (1, 2, 1)),
        ]
        for k, (d, passes) in enumerate(cases):
            calls.clear()
            spanning_ratio(d)
            assert (calls["_spanning_tree"], calls["_prim"], calls["coord_bits"]) == (1, 0, 1), (k, calls)
            assert (calls["_far_roots"], calls["_pruned_scan"], calls["_enclosure"]) == passes, (k, calls)

    def test_tree_planar_enclosures_pinned(self, bench301):
        # The 40 seed-301 tree-planar benchmark drawings; test_enclosures_pinned
        # pins the planar and proper ones. Recorded when the float pass and
        # the exact rows each rooted their own tree.
        srs = [spanning_ratio(d) for d in bench301.drawings("tree-planar")]
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
    lower by `gap` times 2**-20. At the precision where one bracket unit is
    about 2**-20 of the small base, the pair (A, B) has an upper ratio bound
    above the certified lower bound."""
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


def random_points(n, bits, seed):
    """n distinct integer points with coordinates of absolute value below 2**bits."""
    rng = random.Random(seed)
    points = set()
    while len(points) < n:
        points.add((rng.randrange(1 - 2**bits, 2**bits), rng.randrange(1 - 2**bits, 2**bits)))
    return sorted(points, key=lambda p: rng.random())


def walk_tree(g, coords):
    """The tree the pruned pass walks, as _spanning_ratios builds it: the
    depth-first preorder tree of a tree itself, or of Prim's tree over the
    squared edge lengths of any other graph."""
    return metrics._spanning_tree(g.adj if g.m == g.n - 1 else metrics._prim(g.adj, coords))


STAR_MEMORY = """
import json, resource, sys
from spannerdraw.drawing import Drawing
from spannerdraw.graph import Graph
from spannerdraw.metrics import spanning_ratio

def peak():
    # The peak resident set in KB: VmHWM, which starts afresh at exec, where
    # Linux carries ru_maxrss over from the parent across fork and exec.
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1)

points = tuple(tuple(p) for p in json.loads(sys.stdin.read()))
d = Drawing(Graph.from_edges(len(points), [(0, i) for i in range(1, len(points))]), points)
before = peak()
spanning_ratio(d)
print(peak() - before)
"""


def counting(dist, pairs):
    """A pass's dist that also appends each pair (u, v) it brackets to pairs."""

    def counted(u, v):
        pairs.append((u, v))
        return dist(u, v)

    return counted


def block_tests(drawings):
    """Per drawing, the block tests of spanning_ratio's pruned passes: the
    runs of _pruned_scan's line that takes the next node against node a,
    counted by a line tracer on that function's frames alone."""
    lines, first = inspect.getsourcelines(metrics._pruned_scan)
    [line] = [first + k for k, text in enumerate(lines) if text.strip() == "b = nodes.pop()"]
    code, count = metrics._pruned_scan.__code__, [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            count[0] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    counts, outer = [], sys.gettrace()
    sys.settrace(calls)
    try:
        for d in drawings:
            count[0] = 0
            spanning_ratio(d)
            counts.append(count[0])
    finally:
        sys.settrace(outer)
    return counts


def one_pass(tree, R, low, brackets, dist, budget=math.inf):
    """One _pruned_scan from no running bounds: its enclosure, the pairs it
    bracketed, in order, and whether it finished within budget."""
    best, pairs = [(0, 1), (0, 1)], []
    finished = metrics._pruned_scan(tree, R, low, brackets, counting(dist, pairs), best, budget)
    return metrics._enclosure(best), pairs, finished


def assert_oracle_enclosures(d, key, count=3):
    """The certificate's enclosures at its first count precisions equal the
    oracle's at the same precisions, number for number."""
    ours = [(ivl.lo, ivl.hi) for ivl in islice(metrics._spanning_ratios(d), count)]
    theirs = [(ivl.lo, ivl.hi) for ivl in islice(spanning_ratio_oracle_enclosures(d), count)]
    assert ours == theirs, key


class TestLength:
    """metrics._length brackets a length as isqrt_scaled does its square,
    number for number, with no square root on an axis-parallel segment."""

    def test_matches_isqrt_scaled(self, monkeypatch):
        # Vertical, horizontal and general segments, either way round, with
        # coordinates up to 3000 bits, denominators of 1, of powers of 2
        # and of up to 3000 bits, and exact roots: L dividing d 2**bits.
        rng = random.Random(34)
        roots = []
        monkeypatch.setattr(metrics, "isqrt_scaled", lambda *args: roots.append(1) or isqrt_scaled(*args))
        seen = Counter()
        for trial in range(3000):
            size = rng.choice((3, 64, 3000))
            bits = rng.choice((0, 1, 64, 200, 1100))
            L = rng.choice((1, 3, 1 << rng.randrange(60), rng.getrandbits(rng.choice((8, 3000))) | 1))
            p = (rng.getrandbits(size) - rng.getrandbits(size), rng.getrandbits(size) - rng.getrandbits(size))
            d, e = rng.getrandbits(size) * rng.choice((-1, 1)), -rng.getrandbits(size) - 1
            if trial % 5 == 4:
                d = L * rng.randrange(-9, 10)  # an exact root; (3d, 4d) has length 5d
            slant = (3 * d, 4 * d) if trial % 5 == 4 else (d, e)
            kind = trial % 3
            q = ((p[0], p[1] + d), (p[0] + d, p[1]), (p[0] + slant[0], p[1] + slant[1]))[kind]
            roots.clear()
            lo, hi = metrics._length(p, q, L, bits)
            assert len(roots) == (kind == 2 and d != 0), (kind, d)
            assert (lo, hi) == isqrt_scaled(dist_sq(p, q), L * L, bits), (p, q, L, bits)
            assert (lo, hi) == metrics._length(q, p, L, bits)
            seen[kind, "exact" if lo == hi else "unit"] += 1
        assert min(seen.values()) > 50 and len(seen) == 6, seen

    def test_lower_bracket_exceeds_axis_progress(self):
        # The pruned pass's slab test rests on e_lo > D 2**bits / L - 1 for
        # D the progress along either axis: (lo + 1) L > max(|dx|, |dy|)
        # 2**bits. At bits 1 .. 60 a unit is a large share of a short
        # length; the offsets take a = b, axis-parallel ones and 90 bits.
        rng = random.Random(2044)
        offsets = [(1, 1), (1, 0), (0, 1), (7, 7), (2**40, 2**40), (3, 0), (0, 2**90 - 1), (5, 4)]
        offsets += [(rng.getrandbits(rng.choice((4, 30, 90))), rng.getrandbits(rng.choice((4, 30, 90))))
                    for _ in range(60)]
        offsets += [(x, 0) if x % 2 else (0, x) for x in (rng.getrandbits(50) + 1 for _ in range(10))]
        checked = Counter()
        for dx, dy in offsets:
            for den in (1, 3, 2**20, 10**9 + 7) if dx or dy else ():
                for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    p = (rng.getrandbits(40), rng.getrandbits(40))
                    q = (p[0] + sx * dx, p[1] + sy * dy)
                    for bits in range(1, 61):
                        lo = metrics._length(p, q, den, bits)[0]
                        progress = max(dx, dy) << bits
                        assert (lo + 1) * den > progress, (dx, dy, den, bits)
                        checked["tight" if (lo + 1) * den <= progress + den else "slack"] += 1
        assert checked["tight"] > 1000 and checked["slack"] > 1000, checked


@pytest.fixture
def bracketed(monkeypatch):
    """Every pair that a pass brackets, in order: the calls of each dist
    that _tree_dist or _graph_dist returns."""
    pairs = []
    for name in ("_tree_dist", "_graph_dist"):
        make = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *args, make=make: counting(make(*args), pairs))
    return pairs


class TestPrunedScan:
    """spanning_ratio brackets only the pairs that the pruned pass cannot
    show to be below the running lower bound. Its enclosures must equal
    the full scan's exactly, at every precision."""

    def test_matches_full_scan_oracle(self, monkeypatch):
        # With no pair to spend, the far-placement pass hands every drawing
        # past 53 bits over to the graph's tree.
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)
        cases = [random_drawing(4 + seed % 12, seed) for seed in range(20)]
        cases += [random_rational_drawing(5 + seed % 8, 5000 + seed) for seed in range(20)]
        cases += [draw_tree_planar(random_tree(n, 3, n), Epsilon(1))
                  for n in (30, 120, 300)]
        # Coordinates past 1400 bits.
        wide = draw_planar_spanner(strip_graph(140), Epsilon(F(1, 10)))
        assert max(abs(c).bit_length() for p in wide.points for c in p) > 1400
        cases += [wide, draw_planar_spanner(random_tree(60, 4, 60), Epsilon(F(1, 10)))]
        # Lengths over 40 scales.
        cases.append(zigzag_tree(40))
        cases.append(two_scales(F(2**40 + 12345), F(1, 10**6)))
        # The closest pair, an edge, is below 2**-64, so the precisions are
        # shifted by its 70 bits and start at 128 + 70.
        cases.append(drawing(4, [(0, 1), (1, 2), (2, 3)],
                             [(0, 0), (F(1, 2**70), 0), (0, 1), (1, 1)]))
        # An edge of 2**-60 brackets away from 0 at 64 bits, unshifted, but coarsely.
        cases.append(drawing(4, [(0, 1), (1, 2), (2, 3)], [(0, 0), (F(1, 2**60), 0), (0, 1), (1, 1)]))
        # An edge of 10**-5000, and a path whose pairs all tie.
        cases.append(drawing(3, [(0, 1), (1, 2)], [(0, 0), (F(1, 10**5000), 0), (1, 1)]))
        cases.append(drawing(60, [(i, i + 1) for i in range(59)], [(i, 0) for i in range(60)]))
        for k, d in enumerate(cases):
            assert_oracle_enclosures(d, k)

    def test_equals_full_scan_at_every_precision(self):
        # At a few bits the brackets are coarse, so the pass is tested where
        # a bracket unit is a large share of every distance, not only at the
        # precisions that certify.
        cases = [random_drawing(4 + seed % 9, 700 + seed) for seed in range(12)]
        cases += [random_rational_drawing(5 + seed % 6, 7000 + seed) for seed in range(12)]
        cases += [draw_tree_planar(random_tree(n, 3, n), Epsilon(1))
                  for n in (8, 20)]
        # Two paths of nearly equal ratio at scales 2**30 apart, so that at
        # some precisions the brackets of the smaller one overlap the other's.
        base = F(2**20, 2**50)
        cases += [two_triangles(F(199, 40), 1.05, base * F(10**6 + 997, 10**6)),
                  two_triangles(F(1), 1.02, base * F(10**6 + 997, 10**6))]
        # Combs and caterpillars, drawn by both tree constructions, and
        # tough drawings: subtrees whose boxes lie near another node while
        # their deep positions lie far from it, so that the slab test, not
        # the box test, skips most blocks.
        comb = [(i, i + 1) for i in range(7)]  # spine 0 .. 7, a tooth of 3 on each
        comb += [(i if k == 0 else 7 + 3 * i + k, 8 + 3 * i + k) for i in range(8) for k in range(3)]
        caterpillar = [(i, i + 1) for i in range(9)] + [(i // 2, 10 + i) for i in range(20)]
        for edges in (comb, caterpillar):
            g = Graph.from_edges(len(edges) + 1, edges)
            cases += [draw_tree_planar(g, Epsilon(1)), draw_tree_proper(g, Epsilon(1))]
        cases += [draw_graph_via_tough_tree(random_connected_graph(n, n, n), 3, Epsilon(1)).drawing
                  for n in (12, 25, 40)]
        checked = Counter()
        for k, d in enumerate(cases):
            assert_oracle_enclosures(d, k)
            g = d.graph
            coords, L = d.points, d.den
            if len(set(coords)) < g.n:
                continue
            t = walk_tree(g, coords)
            for bits in range(1, 60):
                if 4**bits * d.closest_sq < L * L:
                    continue  # a pair brackets to 0: no enclosure runs at these bits
                full = spanning_ratio_oracle_at(d, bits)
                brackets = metrics._Brackets(coords, L, bits)
                R = metrics._tree_weights(t, brackets)[1]
                ivl, kept, _ = one_pass(t, R, R, brackets, metrics._graph_dist(g.adj, brackets))
                assert (ivl.lo, ivl.hi) == (full.lo, full.hi), (k, bits)
                checked["pruned" if len(kept) < g.n * (g.n - 1) // 2 else "every pair"] += 1
        assert checked["pruned"] > 300, checked

    def test_tree_cases_match_oracle(self):
        # test_matches_full_scan_oracle checks the tree-planar drawings.
        # Random points below and above 53 bits:
        cases = []
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
            assert_oracle_enclosures(d, k)

    def test_block_shapes_match_oracle(self, monkeypatch):
        # Shapes whose blocks split on both sides, at three precisions: a
        # complete binary tree, a caterpillar (spine 0 .. 19, three leaves
        # on each), a broom (a handle of 30 edges, 29 bristles at its end)
        # and a spider (legs of 5 on a root of degree 60), each on random
        # 30-bit points and drawn by draw_tree_planar.
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)  # the graph's tree past 53 bits too
        shapes = {
            "binary": [(i, c) for i in range(31) for c in (2 * i + 1, 2 * i + 2)],
            "caterpillar": [(i, i + 1) for i in range(19)] + [(i // 3, 20 + i) for i in range(60)],
            "broom": [(i, i + 1) for i in range(30)] + [(30, 31 + i) for i in range(29)],
            "spider": [(1 + 5 * leg + k - 1 if k else 0, 1 + 5 * leg + k) for leg in range(60) for k in range(5)],
        }
        for name, edges in shapes.items():
            g = Graph.from_edges(len(edges) + 1, edges)
            assert_oracle_enclosures(Drawing(g, tuple(random_points(g.n, 30, g.n))), (name, "points"))
            assert_oracle_enclosures(draw_tree_planar(g, Epsilon(1)), (name, "drawn"))

    def test_star_memory_stays_linear(self):
        # The center's sibling blocks are made as the walk reaches them. A
        # star of 800 leaves has 319,600 of them, which as a list of pairs
        # grows the peak resident set by about 22 MB (measured). The call
        # runs in a child process, which reports how far its peak grew
        # during the call (measured: 0.1 to 0.2 MB).
        points = random_points(801, 20, 801)
        env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", STAR_MEMORY], input=json.dumps(points), env=env,
                             capture_output=True, text=True, check=True)
        assert int(run.stdout) * 1024 < 3_000_000, run.stdout

    def test_graph_cases_match_oracle(self, monkeypatch):
        # test_matches_full_scan_oracle checks the random drawings and the
        # strip of 140 vertices.
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)  # the graph's tree past 53 bits too
        cases = [draw_planar_spanner(stacked_triangulation(60, seed), Epsilon(eps))
                 for seed in range(2) for eps in (F(1), F(1, 10))]
        cases += [draw_proper_spanner(random_connected_graph(n, n, n), Epsilon(F(1, 2))) for n in (30, 90)]
        for k, bits in enumerate((30, 53, 60)):
            g = random_connected_graph(50, 40, k)
            cases.append(Drawing(g, tuple(random_points(50, bits, k))))
        for k, d in enumerate(cases):
            assert_oracle_enclosures(d, k)

    def test_tough_work_counts(self, bracketed, bench301):
        # Counted, not timed: each pair of a graph that is not a tree takes
        # Dijkstra from its source, resumed while the source stays. Over the
        # 75 seed-301 tough drawings, Prim's tree bounds all but a few pairs
        # below the running lower bound (measured: 635 of 110,530 pairs;
        # 499 sources and 825 pairs when each source was pruned alone, and
        # about 3,000 sources on the breadth-first tree).
        drawings = [d for op, d in zip(bench301.ops["proper"], bench301.drawings("proper"))
                    if op.kind == "tough"]
        assert len(drawings) == 75
        bracketed.clear()
        for d in drawings:
            spanning_ratio(d)
        assert 0 < len(bracketed) <= 700, len(bracketed)

    def test_exact_rows_stop_at_their_targets(self, monkeypatch, bracketed):
        # Counted, not timed: the exact distances of a graph that is not a
        # tree run Dijkstra under both edge brackets, each stopping once the
        # pair's target is settled. Full rows would pop every vertex twice
        # per pair. Prim's tree pops at most 2m + 1 more.
        pops = Counter()

        def heappop(heap):
            pops["pops"] += 1
            return heapq.heappop(heap)

        planar = draw_planar_spanner(stacked_triangulation(80, 1), Epsilon(1))
        proper = draw_proper_spanner(random_connected_graph(80, 80, 1), Epsilon(F(1, 2)))
        monkeypatch.setattr(metrics, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)  # the far-placement pass hands over at once
        for d in (planar, proper):
            pops.clear()
            bracketed.clear()
            assert not spanning_ratio(d).is_infinite
            pairs = len(bracketed)  # the far-placement pass brackets none
            assert 0 < pairs and pops["pops"] <= 0.5 * d.graph.n * pairs + 2 * d.graph.m + 1, (pops, pairs)

    def test_tree_pass_work_counts(self, bracketed, bench301):
        # Counted, not timed: over the 40 seed-301 tree-planar drawings the
        # block pass brackets 712 of 1,684,752 pairs (1,404 with its blocks
        # and parts taken from the first in preorder rather than the last;
        # 1,610 when each source was pruned alone).
        drawings = bench301.drawings("tree-planar")
        assert len(drawings) == 40
        bracketed.clear()
        for d in drawings:
            spanning_ratio(d)
        assert 0 < len(bracketed) <= 800, len(bracketed)

    def test_pruning_keeps_its_margin(self):
        # e_lo can be almost a whole unit below the scaled distance E, so a
        # target is skipped only when its path is below t (E - 1), not t E.
        # On this star at 1 bit, the pair (2, 1) comes first and sets
        # t = 12/10. The edge (0, 1), of length sqrt(2), then has E = 2.83
        # and dist_hi = 3 < t E, but dist_hi / e_lo = 3/2, the upper bound
        # of the full scan.
        d = drawing(3, [(0, 1), (0, 2)], [(2, 3), (3, 2), (7, 5)])
        brackets = metrics._Brackets(d.points, 1, 1)
        t = walk_tree(d.graph, d.points)
        R = metrics._tree_weights(t, brackets)[1]
        ivl, pairs, _ = one_pass(t, R, R, brackets, metrics._graph_dist(d.graph.adj, brackets))
        assert pairs == [(2, 1), (0, 1)]
        assert (ivl.lo, ivl.hi) == (F(6, 5), F(3, 2))

    def test_margin_holds_at_each_new_ancestor(self):
        # The margin is kept from the start of each lowest common ancestor c,
        # before the first pair of c is bracketed, not only after t rises.
        # This tree on points k 2**-64 (found by a seeded search of small
        # trees) has L = 2**64, so its first precision, 64 bits, brackets
        # as 0 bits do on the integer points: a unit is a large share of
        # every distance. The full scan's first enclosure is [11/5, 3]; a
        # block test without the margin at a new c skips the pair that
        # sets 3 and gives [11/5, 13/5]. Both contain the ratio, so the
        # final enclosures still meet spanning_ratio_bruteforce's.
        pts = [(-2, -3), (-3, -4), (-4, 4), (-4, -1), (1, -5)]
        d = drawing(5, [(0, 1), (0, 4), (1, 2), (1, 3)], [(F(x, 2**64), F(y, 2**64)) for x, y in pts])
        first = next(metrics._spanning_ratios(d))
        assert (first.lo, first.hi) == (F(11, 5), F(3))
        assert_oracle_enclosures(d, "margin")

    def test_slab_margin_holds_at_each_new_ancestor(self):
        # The slab test keeps its margin ceil(p L / 2**64) from the start of
        # each c, as the box test keeps its own: e_lo can fall almost a unit
        # below the progress. On this path over the denominator 5 (found by
        # a seeded search of small drawings) the full scan's enclosure at 5
        # bits is [47/45, 13/12]; a slab test without the margin at a new c
        # skips the pair that sets 13/12 and gives [47/45, 96/89].
        d = Drawing(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), ((-1, -11), (-1, -9), (1, 2), (-1, 5)), 5)
        brackets = metrics._Brackets(d.points, d.den, 5)
        t = walk_tree(d.graph, d.points)
        R = metrics._tree_weights(t, brackets)[1]
        ivl = one_pass(t, R, R, brackets, metrics._graph_dist(d.graph.adj, brackets))[0]
        full = spanning_ratio_oracle_at(d, 5)
        assert (ivl.lo, ivl.hi) == (full.lo, full.hi) == (F(47, 45), F(13, 12))

    def test_block_work_counts(self, bench301):
        # Counted, not timed: the block tests of the seed-301 drawings, one
        # per node taken against a node (block_tests). The slab test skips
        # most blocks before the box test: 32,650 on the 40 tree-planar
        # drawings and 13,117 on the 75 tough ones (measured; 69,755 and
        # 40,246 with the box test alone, 61,034 and 36,523 with the slab's
        # sides swapped). Every test of the pass treats x and y alike, so a
        # drawing with its axes swapped takes the same block tests (measured
        # with a y test that read the x gap: 61,034 and 33,499).
        tough = [d for op, d in zip(bench301.ops["proper"], bench301.drawings("proper")) if op.kind == "tough"]
        for drawings, most in ((bench301.drawings("tree-planar"), 36_000), (tough, 15_000)):
            counts = block_tests(drawings)
            swapped = block_tests([Drawing(d.graph, tuple((y, x) for x, y in d.points), d.den) for d in drawings])
            assert 0 < sum(counts) <= most, sum(counts)
            assert swapped == counts

    @pytest.fixture
    def walk_trees(self, monkeypatch):
        """The (order, up, size) of every spanning tree the certificate builds."""
        trees = []
        spanning_tree = metrics._spanning_tree

        def recorded(adj):
            t = spanning_tree(adj)
            trees.append((t.order, t.up, [e - i for i, e in enumerate(t.end)]))
            return t

        monkeypatch.setattr(metrics, "_spanning_tree", recorded)
        return trees

    def test_walk_tree_is_minimum(self, monkeypatch, walk_trees):
        # Any two minimum spanning trees have the same multiset of weights,
        # so the walk tree's sorted squared lengths equal Kruskal's.
        monkeypatch.setattr(metrics, "_FAR_PAIRS", 0)  # the graph's tree past 53 bits too
        cases = [random_drawing(4 + seed % 30, seed) for seed in range(30)]
        cases += [draw_planar_spanner(stacked_triangulation(n, seed), Epsilon(eps))
                  for seed, n in enumerate((20, 60, 120)) for eps in (F(1), F(1, 10))]
        cases += [draw_planar_spanner(strip_graph(140), Epsilon(F(1, 10)))]
        cases += [draw_proper_spanner(random_connected_graph(n, n, n), Epsilon(F(1, 2))) for n in (30, 90)]
        graphs = 0
        for k, d in enumerate(cases):
            g, n = d.graph, d.graph.n

            def weight(u, v):
                return dist_sq(d.points[u], d.points[v])

            walk_trees.clear()
            next(metrics._spanning_ratios(d))
            [(order, up, size)] = walk_trees
            walk = [(order[i], order[up[i]]) for i in range(1, n)]
            assert sorted(order) == list(range(n)) and all(up[i] < i for i in range(1, n)), k
            assert all(g.has_edge(u, v) for u, v in walk), k
            oracle = kruskal(n, sorted(g.edges(), key=lambda e: weight(*e)))
            assert sorted(weight(u, v) for u, v in walk) == sorted(weight(u, v) for u, v in oracle), k
            graphs += g.m > n - 1
        assert graphs >= len(cases) - 3, graphs

    def test_tree_walks_itself(self, walk_trees):
        # On a tree the walk tree is the tree itself, rooted at vertex 0:
        # the breadth-first one. The digest of the walk trees' (order, up,
        # size) was recorded when the float filter walked the breadth-first
        # tree of every graph.
        for k, n in enumerate((2, 3, 9, 40, 130, 300) * 2):
            points = random_points(n, 30, k)
            next(metrics._spanning_ratios(Drawing(random_tree(n, 2 + k % 4, 700 + k), tuple(points))))
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


def zigzag_line(n, axis):
    """A path on one vertical (axis 1) or horizontal (axis 0) line at
    (5**k - 1) / 7, k < n, each vertex joined to the one two before it,
    and the first two to each other: every far step is axis-parallel, so
    its integer bound is exact, and the one path from v_k to the first
    vertex of the other parity runs through v_0. So U_k + U_u meets
    dist_hi exactly for those pairs."""
    heights = [F(5**k - 1, 7) for k in range(n)]
    points = [(F(0), h) if axis else (h, F(0)) for h in heights]
    return drawing(n, [(0, 1)] + [(k - 2, k) for k in range(2, n)], points)


def star_broom_caterpillar():
    """Three tree shapes whose tree-proper drawings have a far order."""
    return {
        "star": Graph.from_edges(30, [(0, i) for i in range(1, 30)]),
        "broom": Graph.from_edges(30, [(i, i + 1) for i in range(10)] + [(10, 11 + i) for i in range(19)]),
        "caterpillar": Graph.from_edges(30, [(i, i + 1) for i in range(9)] + [(i // 2, 10 + i) for i in range(20)]),
    }


class TestFarPlacement:
    """Past 53 bits the pruned pass runs first over the far order's chain,
    on root distances U_k with U_k + U_u >= dist_hi(v_k, u), and hands over
    to the graph's tree after _FAR_PAIRS pairs per vertex; its enclosure
    equals the full scan's, number for number."""

    @pytest.fixture
    def far_log(self, monkeypatch):
        """Per pass over a far order's chain, (pairs bracketed, handed
        over), the second read from what _pruned_scan returns; the calls of
        _far_order under "order", and the chains they gave under "chains";
        the passes over the graph's tree under "pruned", and the running
        lower bound each starts from under "starts"."""
        log = {"scans": [], "order": 0, "pruned": 0, "starts": [], "chains": [None]}
        far_order, pruned_scan = metrics._far_order, metrics._pruned_scan

        def order(*args):
            log["order"] += 1
            far = far_order(*args)
            log["chains"].append(far and far[0])
            return far

        def pruned(tree, R, low, brackets, dist, best, budget=math.inf):
            if tree is not log["chains"][-1]:
                log["pruned"] += 1
                log["starts"].append(best[0])
                return pruned_scan(tree, R, low, brackets, dist, best, budget)
            pairs = []
            finished = pruned_scan(tree, R, low, brackets, counting(dist, pairs), best, budget)
            log["scans"].append((len(pairs), not finished))
            return finished

        monkeypatch.setattr(metrics, "_far_order", order)
        monkeypatch.setattr(metrics, "_pruned_scan", pruned)
        return log

    def test_matches_oracles_on_small_drawings(self, far_log):
        # Every case past 53 bits is certified by the chain alone (the
        # proper ones of n <= 12 have 8-47 bits, the planar ones 85-119).
        # Scaled by 2**3000 they keep their far order.
        entered = 0
        for k, d in enumerate(small_far_drawings()):
            for case in (d, shifted(d, 3000)):
                far_log["scans"].clear()
                far_log["pruned"] = 0
                a, b, c = spanning_ratio(case), spanning_ratio_oracle(case), spanning_ratio_bruteforce(case)
                assert (a.lo, a.hi) == (b.lo, b.hi), k
                assert intersects(a, c) and c.rel_width() <= DEFAULT_REL_TOL, k
                if coord_bits(case.points) > 53:
                    assert far_log["scans"] and not any(fell for _, fell in far_log["scans"]), k
                    assert far_log["pruned"] == 0, k
                    entered += 1
                else:
                    assert not far_log["scans"] and far_log["pruned"] > 0, k
            assert coord_bits(case.points) > 3000
        assert entered == 24

    def test_tree_proper_shapes_match_oracles(self, far_log):
        # A star, a broom and a caterpillar drawn by draw_tree_proper and
        # shifted past 2000 bits keep their far order, and the chain runs
        # first on each (the broom and the caterpillar then hand over).
        for name, g in star_broom_caterpillar().items():
            d = shifted(draw_tree_proper(g, Epsilon(1)), 2000)
            assert coord_bits(d.points) > 2000, name
            far_log["scans"].clear()
            a, b, c = spanning_ratio(d), spanning_ratio_oracle(d), spanning_ratio_bruteforce(d)
            assert (a.lo, a.hi) == (b.lo, b.hi), name
            assert intersects(a, c) and c.rel_width() <= DEFAULT_REL_TOL, name
            assert far_log["scans"], name

    @staticmethod
    def chain_cases():
        far = small_far_drawings()
        cases = far + [shifted(d, 3000) for d in far]
        cases += [y_ordered_drawing(n, 30, n) for n in (3, 8, 20)]
        # The path from (0, 40) to (0, 0) runs through the whole tree of
        # the prefix, so U_2 + U_0 meets dist_hi when the steps are exact.
        cases.append(drawing(3, [(0, 1), (1, 2)], [(0, 0), (-3, -1), (0, 40)]))
        # Bounds that are exact: on the planar drawings only a step that is
        # vertical or horizontal gives one, a + ceil(b / 2) exceeding the
        # length of any other.
        cases += [zigzag_line(7, 1), shifted(zigzag_line(7, 0), 200)]
        return cases

    def test_far_bound_is_sound(self):
        # At bits 1 .. 60 the brackets are coarse and the bounds weak. For
        # every pair (v_k, u), u before v_k, U_k + U_u must be at least
        # dist_hi: on single edges of random offsets, with a = b and b = 0
        # among them, where U_1 + U_0 is the bound ceil(c_1 2**bits / L) on
        # the edge's upper bracket, and on drawings of many steps.
        rng = random.Random(2034)
        offsets = [(1, 1), (1, 0), (0, 1), (7, 7), (2**40, 2**40), (3, 0), (2**70 + 1, 1), (5, 4)]
        offsets += [(rng.getrandbits(rng.choice((4, 30, 90))), rng.getrandbits(rng.choice((4, 30, 90))))
                    for _ in range(60)]
        offsets += [(x, x) for x in (rng.getrandbits(50) + 1 for _ in range(10))]
        edge = Graph.from_edges(2, [(0, 1)])
        checked = Counter()
        for dx, dy in offsets:
            for den in (1, 3, 2**20, 10**9 + 7) if dx or dy else ():
                d = Drawing(edge, ((0, 0), (dx, -dy)), den)
                _, steps = metrics._far_order(d.graph, d.points)
                for bits in range(1, 61):
                    bound, hi = sum(metrics._far_roots(steps, d.den, bits)), metrics._length(*d.points, d.den, bits)[1]
                    assert bound >= hi, (dx, dy, den, bits)
                    checked["exact" if bound == hi else "above"] += 1
        for k, d in enumerate(self.chain_cases()):
            g, coords, L, n = d.graph, d.points, d.den, d.graph.n
            chain, steps = metrics._far_order(g, coords)
            order = chain.order  # v_{n-1}, ..., v_0
            for bits in range(1, 61):
                brackets = metrics._Brackets(coords, L, bits)
                dist_hi = [dict(metrics._dijkstra(g.adj, brackets, 1, u)) for u in range(n)]
                U = metrics._far_roots(steps, L, bits)
                for i in range(n):
                    for j in range(i + 1, n):
                        bound, hi = U[i] + U[j], dist_hi[order[i]][order[j]]
                        assert bound >= hi, (k, bits, i, j)
                        checked["tight"] += bound == hi
        assert checked["exact"] > 2000 and checked["above"] > 10000 and checked["tight"] > 500, checked

    def test_equals_full_scan_at_every_precision(self):
        # At every third bit size from 1 to 58, the chain pass's enclosure
        # must equal the full scan's wherever every pair brackets away from
        # 0, whether it stays within its budget of pairs, barely finishes,
        # or prunes almost everything.
        checked = Counter()
        for k, d in enumerate(self.chain_cases()):
            g, coords, L, n = d.graph, d.points, d.den, d.graph.n
            chain, steps = metrics._far_order(g, coords)
            for bits in range(1, 60, 3):
                if 4**bits * d.closest_sq < L * L:
                    continue  # a pair brackets to 0: no enclosure runs at these bits
                brackets = metrics._Brackets(coords, L, bits)
                U = metrics._far_roots(steps, L, bits)
                ivl, kept, _ = one_pass(chain, U, [0] * n, brackets, metrics._graph_dist(g.adj, brackets))
                full = spanning_ratio_oracle_at(d, bits)
                assert (ivl.lo, ivl.hi) == (full.lo, full.hi), (k, bits)
                if len(kept) > metrics._FAR_PAIRS * n:
                    checked["over budget"] += 1
                else:
                    checked["pruned" if len(kept) < n * (n - 1) // 2 else "every pair"] += 1
        assert checked["pruned"] > 400 and checked["over budget"] > 3, checked

    def test_a_source_at_the_lower_bound_is_bracketed(self, far_log):
        # Only a bound below t prunes. On a straight path every bracket is
        # exact: the pair (v_1, v_0) sets t = 1, and the pairs of v_2,
        # whose bounds reach t, are bracketed too.
        s = 2**60
        d = drawing(3, [(0, 1), (1, 2)], [(1, 1), (1, s + 1), (1, 2 * s + 1)])
        a = spanning_ratio(d)
        assert a.lo == a.hi == 1 and far_log["scans"] == [(3, False)]

    def test_a_pass_of_exactly_its_budget_finishes(self, monkeypatch, far_log):
        # The path above takes 3 pairs on its chain. With _FAR_PAIRS = 1 its
        # budget is _FAR_PAIRS n = 3, exactly what it needs: it finishes on
        # the chain. With 2/3, one pair fewer is allowed: it hands over
        # after 2 pairs, and the graph's tree gives the same enclosure.
        s = 2**60
        d = drawing(3, [(0, 1), (1, 2)], [(1, 1), (1, s + 1), (1, 2 * s + 1)])
        want = spanning_ratio_oracle(d)
        for per_vertex, scans, pruned in ((1, [(3, False)], 0), (F(2, 3), [(2, True)], 1)):
            monkeypatch.setattr(metrics, "_FAR_PAIRS", per_vertex)
            far_log["scans"].clear()
            far_log["pruned"] = 0
            a = spanning_ratio(d)
            assert (a.lo, a.hi) == (want.lo, want.hi), per_vertex
            assert far_log["scans"] == scans and far_log["pruned"] == pruned, (per_vertex, far_log)

    def test_far_placed_drawings_bracket_a_few_rows(self, far_log):
        # Counted, not timed: a seeded n = 160 planar drawing at both eps,
        # and a proper one, bracket at most 3 pairs at every precision
        # (measured: 3), and the graph's tree is never walked.
        workloads = bench_workloads()
        graphs = [Graph.from_edges(160, workloads.random_planar_edges(160, random.Random(k), 160))
                  for k in range(2)]
        cases = [draw_planar_spanner(h, Epsilon(eps)) for h in graphs for eps in (F(1), F(1, 10))]
        cases.append(draw_proper_spanner(random_connected_graph(160, 160, 5), Epsilon(F(1, 2))))
        for k, d in enumerate(cases):
            far_log["scans"].clear()
            assert not spanning_ratio(d).is_infinite
            assert far_log["scans"] and all(0 < pairs <= 3 and not fell for pairs, fell in far_log["scans"]), k
        assert far_log["pruned"] == 0

    def test_chain_work_counts(self, far_log):
        # Counted, not timed. The tree-proper star's chain brackets at most
        # n pairs and never hands over (measured: n at n = 100 and at
        # n = 400; bounds on whole prefixes handed it to the graph's tree,
        # which tested all n(n - 1)/2 pairs). A tree on random points with
        # a connected (y, x) order is not far-placed, yet its chain takes
        # at most 2n pairs (measured: 7 at n = 120, against 748 with all of
        # the prefix per source). A deep tree-proper drawing at 59
        # bits hands over: its chain alone would take 15,984 pairs.
        for n in (100, 400):
            star = draw_tree_proper(Graph.from_edges(n, [(0, i) for i in range(1, n)]),
                                    Epsilon(1))
            far_log["scans"].clear()
            spanning_ratio(star)
            assert far_log["scans"] and all(pairs <= n and not fell for pairs, fell in far_log["scans"]), n
        points = sorted(random_points(120, 30, 120), key=lambda p: (p[1], p[0]))
        rng = random.Random(120)
        tree = shifted(Drawing(Graph.from_edges(120, [(rng.randrange(k), k) for k in range(1, 120)]),
                               tuple(points)), 200)
        far_log["scans"].clear()
        spanning_ratio(tree)
        assert far_log["scans"] and sum(pairs for pairs, _ in far_log["scans"]) <= 2 * 120, far_log["scans"]
        assert not any(fell for _, fell in far_log["scans"])
        deep = draw_tree_proper(random_tree(300, 3, 300), Epsilon(F(1, 10)))
        assert coord_bits(deep.points) == 59
        far_log["scans"].clear()
        far_log["pruned"] = 0
        spanning_ratio(deep)
        assert far_log["scans"] == [(metrics._FAR_PAIRS * 300, True)] and far_log["pruned"] == 1, far_log

    @pytest.fixture
    def tables(self, monkeypatch):
        """Every edge bracket table that spanning_ratio builds, one per precision."""
        built = []

        class Recorded(metrics._Brackets):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(metrics, "_Brackets", Recorded)
        return built

    def test_far_placed_drawings_bracket_a_few_edges(self, tables):
        # Counted, not timed: on the drawings of
        # test_far_placed_drawings_bracket_a_few_rows (m = 319), the
        # chain's root distances bracket no edge, and Dijkstra brackets
        # only the edges it relaxes from the few sources: 20-28 per
        # precision (measured), against all m when every precision
        # bracketed every edge.
        workloads = bench_workloads()
        graphs = [Graph.from_edges(160, workloads.random_planar_edges(160, random.Random(k), 160))
                  for k in range(2)]
        cases = [draw_planar_spanner(h, Epsilon(eps)) for h in graphs for eps in (F(1), F(1, 10))]
        cases.append(draw_proper_spanner(random_connected_graph(160, 160, 5), Epsilon(F(1, 2))))
        for k, d in enumerate(cases):
            tables.clear()
            spanning_ratio(d)
            assert tables and all(0 < len(t) <= d.graph.m // 10 for t in tables), (k, [len(t) for t in tables])

    def test_a_tree_brackets_each_edge(self, tables):
        # On a tree every row reads the root distances, so every edge is
        # bracketed at every precision, once, by _tree_weights: in the
        # chain pass (a planar drawing of a tree, past 53 bits), and over
        # the graph's tree. On any other graph the pass over the graph's
        # tree brackets at least the n - 1 edges of that tree.
        trees = [draw_planar_spanner(random_tree(60, 4, 60), Epsilon(F(1, 10))),
                 draw_tree_planar(random_tree(125, 3, 125), Epsilon(1)),
                 zigzag_tree(40)]
        assert coord_bits(trees[0].points) > 53
        for k, d in enumerate(trees):
            tables.clear()
            spanning_ratio(d)
            assert tables and all(sorted(t) == d.graph.edges() for t in tables), k
        tables.clear()
        d = random_drawing(30, 7)
        assert d.graph.m > d.graph.n - 1
        spanning_ratio(d)
        assert tables and all(d.graph.n - 1 <= len(t) <= d.graph.m for t in tables)

    def test_small_coordinates_never_enter(self, far_log):
        # Tough and tree-planar drawings keep their coordinates within 53
        # bits, so the graph's tree alone serves them.
        cases = [draw_graph_via_tough_tree(random_connected_graph(n, n, n), 3, Epsilon(1)).drawing
                 for n in (20, 40, 80)]
        cases += [draw_tree_planar(random_tree(n, 3, n), Epsilon(1))
                  for n in (125, 300)]
        for d in cases:
            assert coord_bits(d.points) <= 53
            spanning_ratio(d)
        assert far_log["order"] == 0 and not far_log["scans"] and far_log["pruned"] == len(cases)

    def test_drawings_not_far_placed_hand_over(self, far_log):
        # Random points past 53 bits with connected (y, x) prefixes: where
        # the chain spends its pairs it hands over to the graph's tree,
        # which starts from the lower bound of those pairs. A star
        # centered among its leaves has no order at all.
        cases = [shifted(y_ordered_drawing(n, 30, n), 200) for n in (20, 40)]
        cases += [shifted(random_drawing(12, seed), 200) for seed in (0, 1, 2, 3, 19, 30)]
        cases.append(draw_tree_proper(random_tree(120, 3, 120), Epsilon(F(1, 20))))
        star = drawing(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 0), (-2, 1), (2, -1), (1, 2), (-1, -2)])
        cases.append(shifted(star, 200))
        fell = 0
        for k, d in enumerate(cases):
            far_log["scans"].clear()
            far_log["starts"].clear()
            far_log["pruned"] = 0
            a, b, c = spanning_ratio(d), spanning_ratio_oracle(d), spanning_ratio_bruteforce(d)
            assert (a.lo, a.hi) == (b.lo, b.hi) and intersects(a, c), k
            if far_log["scans"] and far_log["scans"][-1][1]:
                assert far_log["scans"][-1] == (metrics._FAR_PAIRS * d.graph.n, True), (k, far_log["scans"])
                assert far_log["pruned"] > 0 and far_log["starts"][0][0] > 0, (k, far_log["starts"])
                fell += 1
            elif not far_log["scans"]:
                assert far_log["pruned"] > 0 and far_log["starts"][0] == (0, 1), k
        assert fell >= 2
        assert metrics._far_order(star.graph, shifted(star, 200).points) is None

    def test_enclosures_pinned(self, bench301):
        # The seed-301 planar and proper benchmark drawings with n <= 40,
        # recorded when every precision scanned all pairs (past 1900 bits)
        # or the float filter's candidates.
        srs = [spanning_ratio(d) for w in ("planar", "proper")
               for op, d in zip(bench301.ops[w], bench301.drawings(w))
               if op.kind in ("planar", "proper") and op.n <= 40]
        assert len(srs) == 128
        digest = hashlib.sha256(repr([(s.lo, s.hi) for s in srs]).encode()).hexdigest()
        assert digest == "ced2ed3de6e9b4d5c9aeb84f8f89dc85608f95bd7ecfbcc8aed6dfd7dd65ce9d"

    def test_tough_enclosures_pinned(self):
        # The seed-301 tough benchmark drawings with n <= 40, which no other
        # digest covers: small coordinates, graphs that are not trees.
        # Recorded when _spanning_ratios took its Dijkstra rows from a
        # closure, and a float filter on Prim's tree chose them.
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
        # The planarity sweep checks the order of its status at the events,
        # so a planar drawing takes no crossing test, and a non-planar one
        # ends on the test that confirms its crossing.
        g = stacked_triangulation(160, 1)
        d = draw_planar_spanner(g, Epsilon(1))
        calls = Counter()
        crossed = []  # what each segments_cross_improperly call returned

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def cross(*args):
            crossed.append(segments_cross_improperly(*args))
            return crossed[-1]

        monkeypatch.setattr(metrics, "segments_cross_improperly", cross)
        # closest_pair_sq's own comparisons: it calls geometry.dist_sq.
        monkeypatch.setattr(geometry, "dist_sq", counted("dist_sq", geometry.dist_sq))
        assert is_planar_drawing(d)
        assert crossed == []
        # The last vertex moved onto an edge, as in test_planar_spanner_drawings.
        w = g.n - 1
        a, b = next(e for e in g.edges() if w not in e)
        pts = [(2 * x, 2 * y) for x, y in d.points]
        pts[w] = (d.points[a][0] + d.points[b][0], d.points[a][1] + d.points[b][1])
        assert not is_planar_drawing(Drawing(g, tuple(pts), 2 * d.den))
        assert len(crossed) >= 1 and crossed[-1] is True
        assert closest_pair_sq(d.points) == closest_sq_oracle(d.points)
        # At most 8 window points are compared with each point.
        assert 0 < calls["dist_sq"] <= 8 * g.n, (calls, g.n)


@pytest.fixture
def confirmed(monkeypatch):
    """The (t, s, crossed) of each segments_cross_improperly(*t, *s) call of
    is_planar_drawing: t and s segments (left end, right end)."""
    calls = []

    def recorded(a, b, c, e):
        calls.append(((a, b), (c, e), segments_cross_improperly(a, b, c, e)))
        return calls[-1][2]

    monkeypatch.setattr(metrics, "segments_cross_improperly", recorded)
    return calls


def sweep_verdict(n, edges, points):
    """is_planar_drawing on integer points, asserted equal to planar_oracle."""
    d = Drawing(Graph.from_edges(n, edges), tuple(points))
    verdict = is_planar_drawing(d)
    assert verdict == planar_oracle(d)
    return verdict


class TestPlanarSweepCases:
    """One drawing per case of is_planar_drawing's proof, each with the
    order check or probe that decides it: the crossing test it confirms
    with, as (t, s), or none."""

    def test_crossing_caught_at_a_deletion_after_an_insertion_between(self, confirmed):
        # s and t cross at (5, 5). The edge from (1, 5) starts between them
        # and ends at (2, 5), still between them, so its checks pass and s, t
        # become neighbors. Nothing is tested until t ends at (10, 0), below s.
        s, t = ((0, 0), (10, 10)), ((0, 10), (10, 0))
        assert not sweep_verdict(6, [(0, 1), (2, 3), (4, 5)], [*s, *t, (1, 5), (2, 5)])
        assert confirmed == [(s, t, True)]

    def test_lower_member_deleted_first(self, confirmed):
        # s starts below t, crosses it at x = 12/5 and ends at (4, 4), above
        # t: the check against the segment just above s fails.
        s, t = ((0, 0), (4, 4)), ((0, 4), (6, 0))
        assert not sweep_verdict(4, [(0, 1), (2, 3)], [*s, *t])
        assert confirmed == [(t, s, True)]

    def test_upper_member_deleted_first(self, confirmed):
        # t starts above s, crosses it at (2, 2) and ends at (4, 0), below s:
        # the check against the segment just below t fails.
        s, t = ((0, 0), (6, 6)), ((0, 4), (4, 0))
        assert not sweep_verdict(4, [(0, 1), (2, 3)], [*s, *t])
        assert confirmed == [(s, t, True)]

    def test_edge_ending_inside_an_active_edge(self, confirmed):
        # A zero at a deletion: (3, 0) lies inside the active edge, from
        # below (the upper check) and from above (the lower check).
        h = ((0, 0), (4, 0))
        for k, other in enumerate((((1, -3), (3, 0)), ((1, 3), (3, 0)))):
            confirmed.clear()
            assert not sweep_verdict(4, [(0, 1), (2, 3)], [*h, *other])
            assert confirmed == [(h, other, True)], k

    def test_common_right_end_needs_no_test(self, confirmed):
        # Three edges end at (4, 2), the middle one between the other two;
        # each is exempt from the check against a neighbor that ends there
        # too, and the edge below them all is checked.
        points = [(0, 0), (0, 4), (1, 2), (4, 2), (0, -1), (5, -1)]
        assert sweep_verdict(6, [(0, 3), (1, 3), (2, 3), (4, 5)], points)
        assert confirmed == []

    def test_collinear_overlap_up_to_a_common_right_end(self, confirmed):
        # (2, 1) starts inside the active edge: a zero at the insertion.
        s, t = ((0, 0), (4, 2)), ((2, 1), (4, 2))
        assert not sweep_verdict(3, [(0, 1), (2, 1)], [s[0], s[1], t[0]])
        assert confirmed == [(s, t, True)]

    def test_vertical_edges(self, confirmed):
        # A vertical edge starts below the edges active at its x, as if
        # slightly rotated. Through the crossing of two diagonals at (2, 2),
        # it ends above the lower one: the check fails at its deletion.
        a, v = ((0, 0), (4, 4)), ((2, -1), (2, 5))
        assert not sweep_verdict(6, [(0, 1), (2, 3), (4, 5)], [*a, (0, 4), (4, 0), *v])
        assert confirmed == [(a, v, True)]
        # Across a horizontal edge.
        confirmed.clear()
        h, v = ((0, 2), (4, 2)), ((2, 0), (2, 4))
        assert not sweep_verdict(4, [(0, 1), (2, 3)], [*h, *v])
        assert confirmed == [(h, v, True)]
        # Ending on a horizontal edge: a zero at the deletion.
        confirmed.clear()
        v = ((2, 0), (2, 2))
        assert not sweep_verdict(4, [(0, 1), (2, 3)], [*h, *v])
        assert confirmed == [(h, v, True)]
        # Overlapping another vertical edge: a zero at the insertion.
        confirmed.clear()
        v, w = ((1, 0), (1, 3)), ((1, 1), (1, 4))
        assert not sweep_verdict(4, [(0, 1), (2, 3)], [*v, *w])
        assert confirmed == [(v, w, True)]
        # Meeting one end to end, and one at its bottom end.
        confirmed.clear()
        assert sweep_verdict(4, [(0, 1), (1, 2), (1, 3)], [(1, 0), (1, 3), (1, 5), (3, 3)])
        assert confirmed == []

    def test_coincident_vertices_into_and_out_of_a_point(self, confirmed):
        # Vertices 1 and 2 share (2, 1): edges come in from (0, 0) and
        # (0, 3) and leave for (4, 0), each segment once, though 0-1 and 0-2
        # lie on one segment; no crossing test.
        points = [(0, 0), (2, 1), (2, 1), (4, 0), (0, 3)]
        edges = [(0, 1), (0, 2), (2, 3), (1, 4), (1, 3)]
        assert sweep_verdict(5, edges, points)
        assert confirmed == []
        # An edge through the shared point: the first edge that ends there
        # has it as a neighbor, and the check gives zero.
        assert not sweep_verdict(7, edges + [(5, 6)], points + [(1, 1), (3, 1)])
        assert [c for *_, c in confirmed] == [True]


def random_sweep_drawing(rng, mode):
    """A drawing of 2-30 points and n/2 to 3n distinct edges (at most all
    pairs), the points by mode: 0 a grid of side 2-6, coincident points
    too; 1 coordinates up to 2**200 in size; 2 four columns whose points
    lie about 2**100 apart in y, as in the planar construction's."""
    n = rng.randint(2, 30)
    if mode == 0:
        side = rng.randint(1, 5)
        points = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
    elif mode == 1:
        points = [(rng.randint(-2**200, 2**200), rng.randint(-2**200, 2**200)) for _ in range(n)]
    else:
        points = [(rng.randint(0, 3), (rng.randint(0, n) << 100) + rng.randint(0, 3)) for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(len(pairs), rng.randint(max(1, n // 2), 3 * n))
    return Drawing(Graph.from_edges(n, rng.sample(pairs, m)), tuple(points))


def test_planar_sweep_stress():
    # 2,100 seeded drawings, most of which cross many times, so the sweep's
    # status is out of order long before it ends: the verdicts are
    # planar_oracle's, and every False is confirmed (the sweep's assert).
    rng = random.Random(31)
    verdicts = Counter()
    for k in range(2100):
        d = random_sweep_drawing(rng, k % 3)
        verdict = is_planar_drawing(d)
        assert verdict == planar_oracle(d), (k, d.points, d.graph.edges())
        verdicts[k % 3, verdict] += 1
    assert all(verdicts[mode, False] > verdicts[mode, True] > 0 for mode in range(3)), verdicts


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

    def test_axis_triples_take_no_key(self, monkeypatch, bench301):
        # Counted, not timed: the planar construction puts a vertex at the
        # midpoint x of its attachment's ends, so 76 of the 88 seed-301
        # planar drawings, and all 40 tree-planar ones, hold three vertices
        # on one vertical or horizontal line, which the count finds with no
        # direction key, slope or exact. Measured before the count: 36,324
        # keys on the planar drawings and 10,779 on the tree-planar ones.
        planar, trees = bench301.drawings("planar"), bench301.drawings("tree-planar")
        keys = KeyCount(monkeypatch)
        collinear = [d for d in planar if not no_three_collinear(d)]
        assert (len(planar), len(collinear)) == (88, 76)
        keys.clear()
        assert not any(no_three_collinear(d) for d in collinear + trees)
        assert (len(trees), keys.counts()) == (40, (0, 0))


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
        for d in (draw_tree_planar(random_tree(40, 3, 40), Epsilon(1)),
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
        # triples off the edges and drawings with none of these; the graphs
        # are connected, so no vertex is isolated.
        checked = []
        monkeypatch.setattr(metrics, "is_proper_drawing",
                            lambda d: checked.append(d) or is_proper_drawing(d))
        verdicts = set()
        shortcuts = 0
        for seed in range(60):
            d = random_rational_drawing(6 + seed % 5, seed)
            checked.clear()
            r = compute_metrics(d)
            proper = is_proper_drawing(d)
            assert r.proper == proper, seed
            # The properness check runs only when there is a collinear triple
            # and the drawing is not planar with distinct points.
            planar_distinct = r.planar and not geometry.coincident(d.points)
            assert checked == ([] if r.no_three_collinear or planar_distinct else [d]), seed
            shortcuts += planar_distinct and not r.no_three_collinear
            verdicts.add((r.no_three_collinear, proper))
        assert verdicts == {(True, True), (False, True), (False, False)}
        assert shortcuts

    def test_proper_on_plane_drawings_with_an_extra_vertex(self):
        # A plane tree drawing plus one vertex: isolated inside an edge, off
        # the edges or on a vertex, or a leaf inside an edge. Planarity
        # decides properness only with distinct points and no isolated
        # vertex, so each verdict must be is_proper_drawing's.
        seen = set()
        for seed in range(12):
            t = random_tree(8 + seed, 3, seed)
            d = draw_tree_planar(t, Epsilon(1))
            rng = random.Random(seed)
            (ax, ay), (bx, by) = (d.coords[v] for v in rng.choice(t.edges()))
            w = rng.randrange(t.n)
            inside = ((ax + bx) / 2, (ay + by) / 2)
            off = (d.coords[w][0] + F(1, 3), d.coords[w][1] + F(1, 7))
            for case, coord, edges in (("isolated inside an edge", inside, []),
                                       ("isolated off the edges", off, []),
                                       ("isolated on a vertex", d.coords[w], []),
                                       ("leaf inside an edge", inside, [(w, t.n)])):
                extra = drawing(t.n + 1, t.edges() + edges, d.coords + (coord,))
                r = compute_metrics(extra)
                assert r.proper == is_proper_drawing(extra), (seed, case)
                seen.add((case, r.planar, r.proper))
        assert {("isolated inside an edge", True, False), ("isolated off the edges", True, True),
                ("isolated on a vertex", True, False), ("leaf inside an edge", False, False)} <= seen


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
            assert intersects(sr, spanning_ratio_bruteforce(d)), seed
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
