import hashlib
import math
import random
import sys
from fractions import Fraction
from itertools import chain

import pytest

from conftest import KeyCount, bench_workloads, random_connected_graph, random_connected_planar_graph, random_tree
from oracles import edge_separator, separator_scan, split_at_edge, tree_planar_size
from spannerdraw.bounds import planar_sr1_witness, sr1_witness
from spannerdraw.drawing import Drawing
from spannerdraw.embedding import augment_to_maximal_with_canonical_order
from spannerdraw.errors import NotConnectedError
from spannerdraw.exact import isqrt_scaled
from spannerdraw.geometry import coord_bits, dist_sq
from spannerdraw.graph import (
    Graph,
    RootedTree,
    degree_bounded_spanning_tree,
    hamiltonian_path,
    path_order,
    preorder,
)
from spannerdraw.layout import (
    _LEG_BITS,
    Epsilon,
    _merge_tree_parts,
    _planar_disk,
    _proper_radius,
    _radius,
    _tree_proper_points,
    _TreePart,
    _exceeds,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_proper,
)
from spannerdraw.metrics import (
    bounding_box,
    compute_metrics,
    is_planar_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)
from test_metrics import star_broom_caterpillar

F = Fraction
EPS1 = Epsilon(F(1))
EPS_HALF = Epsilon(F(1, 2))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


class TestEpsilon:
    def test_gamma(self):
        # Plain numbers are coerced to Fraction.
        assert Epsilon(1).value == F(1)
        assert Epsilon(0.5).value == F(1, 2)
        assert Epsilon("2/3").value == F(2, 3)
        assert Epsilon(1).tree_gamma == 4
        assert Epsilon("2/3").tree_gamma == 6
        assert Epsilon(F(3)).tree_gamma == 2

    def test_tree_gamma_doubles(self):
        assert Epsilon(F(1)).tree_gamma == 4
        assert Epsilon(F(1, 2)).tree_gamma == 8

    def test_positive_required(self):
        for value in (F(0), 0, -1, "-1/2", -0.0):
            with pytest.raises(ValueError, match="^epsilon must be positive$"):
                Epsilon(value)


def enclosing_disk(points):
    """Center and an integer radius of a disk strictly containing all
    points, which may be Fractions or ints."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    cx = F(min(xs) + max(xs), 2)
    cy = F(min(ys) + max(ys), 2)
    r_sq = F(max(xs) - min(xs), 2) ** 2 + F(max(ys) - min(ys), 2) ** 2
    return (cx, cy), math.isqrt(math.ceil(r_sq)) + 1


def place_next_vertex(placed, attachment, k, eps):
    """A point satisfying the incremental placement conditions, on Fractions.

    The returned point lies strictly between the attachment endpoints in x,
    strictly above every line through consecutive attachment points (evaluated
    at the endpoint verticals), and at distance greater than k*delta/epsilon
    from a disk containing all placed points, where delta is its diameter.
    """
    e = min(eps.value, F(1))
    wp, wq = attachment[0], attachment[-1]
    assert wp[0] < wq[0]
    x_v = (wp[0] + wq[0]) / 2
    y_req = max(wp[1], wq[1])
    for (x1, y1), (x2, y2) in zip(attachment, attachment[1:]):
        assert x1 < x2
        slope = (y2 - y1) / (x2 - x1)
        y_req = max(y_req, y1 + slope * (wp[0] - x1), y1 + slope * (wq[0] - x1))
    (cx, cy), radius = enclosing_disk(placed)
    delta = 2 * radius
    y_v = max(math.ceil(y_req), math.ceil(cy + radius)) + math.ceil(F(k * delta) / e) + 1
    return (x_v, F(y_v))


def planar_spanner_oracle(h, eps):
    """Coordinates of the planar construction as first written, on
    Fractions: each vertex is placed against the enclosing disk of the list
    of all placed points."""
    co = augment_to_maximal_with_canonical_order(h)
    e = min(eps.value, F(1))
    order = list(co.order)
    coords = [None] * h.n
    leg_sq = 1 - (e / 4) ** 2
    y3 = F(isqrt_scaled(leg_sq.numerator, leg_sq.denominator, _LEG_BITS)[1], 1 << _LEG_BITS)
    coords[order[0]] = (F(0), F(0))
    coords[order[1]] = (e / 2, F(0))
    coords[order[2]] = (e / 4, y3)
    for k in range(4, h.n + 1):
        placed = [coords[v] for v in order[: k - 1]]
        attachment = [coords[w] for w in co.attachments[k]]
        coords[order[k - 1]] = place_next_vertex(placed, attachment, k, eps)
    return tuple(coords)


class TestPlanarSpanner:
    @pytest.mark.parametrize("eps", [F(1, 10), F(1), F(3), F(2, 3), F(5, 7), F(1, 1000)])
    def test_matches_oracle(self, eps):
        eps = Epsilon(eps)
        graphs = [path_graph(3), path_graph(12), star_graph(12)]
        graphs += [random_connected_planar_graph(n, 960 + n) for n in (6, 15, 30)]
        for g in graphs:
            assert draw_planar_spanner(g, eps).coords == planar_spanner_oracle(g, eps)

    @pytest.mark.parametrize("g", [path_graph(100), star_graph(101)], ids=["path", "star"])
    def test_matches_oracle_past_leg_bits(self, g):
        # Some x here is halved more than _LEG_BITS times, so the halvings,
        # not the apex height, size the drawing's denominator.
        for eps in (EPS1, Epsilon(F(1, 10))):
            d = draw_planar_spanner(g, eps)
            assert d.coords == planar_spanner_oracle(g, eps)
            assert max(x.denominator for x, _ in d.coords) > 1 << _LEG_BITS

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

    def test_whole_apex_height(self):
        # At epsilon = 10**-12 the apex height rounds up to exactly 1, so the
        # fourth vertex sees a whole height t = 1, where the closed form of
        # _planar_disk does not hold: it takes _radius, as the oracle does.
        eps = Epsilon(F(1, 10**12))
        leg_sq = 1 - (eps.value / 4) ** 2
        assert isqrt_scaled(leg_sq.numerator, leg_sq.denominator, _LEG_BITS)[1] == 1 << _LEG_BITS
        for g in (path_graph(6), star_graph(7), random_connected_planar_graph(12, 962)):
            assert draw_planar_spanner(g, eps).coords == planar_spanner_oracle(g, eps)

    def test_line_test_matches_the_product(self):
        # _exceeds(p, a, b) is p > a b by bit lengths where they decide: p's
        # bit length 0, 1, 2 and 3 below a b's bound l = bl(a) + bl(b) and
        # 1 above it, each band at its ends, and p next to a b, with a b of
        # bit length l - 1 (a and b powers of two) and l.
        rng = random.Random(47)
        for la, lb in ((1, 1), (1, 60), (7, 9), (64, 64), (300, 2000), (2000, 2000)):
            pairs = [(1 << (la - 1), 1 << (lb - 1)), ((1 << la) - 1, (1 << lb) - 1)]
            pairs += [(rng.getrandbits(la) | 1 << (la - 1), rng.getrandbits(lb) | 1 << (lb - 1))
                      for _ in range(8)]
            for a, b in pairs:
                ab, l = a * b, la + lb
                ps = {ab - 1, ab, ab + 1, 0, -1, -ab}
                for m in range(max(1, l - 3), l + 2):
                    ps |= {1 << (m - 1), (1 << m) - 1, rng.randrange(1 << (m - 1), 1 << m)}
                for p in ps:
                    assert _exceeds(p, a, b) == (p > ab), (p, a, b)

    def test_drawings_pinned_at_scale(self):
        # The oracle is too slow at n = 1000, so the drawings are pinned by
        # digest: planar at epsilon 1 and 1/10, and proper at the same two,
        # each on the benchmark's generators at the seeds of the scale
        # measurements. Recorded while every placed vertex took _radius's
        # square root.
        workloads = bench_workloads()
        n = 1000
        planar = Graph.from_edges(n, workloads.random_planar_edges(n, random.Random(11), n))
        proper = Graph.from_edges(n, workloads.random_connected_edges(n, random.Random(12), n))
        digests = [hashlib.sha256(repr((d.points, d.den)).encode()).hexdigest()
                   for g, draw in ((planar, draw_planar_spanner), (proper, draw_proper_spanner))
                   for d in (draw(g, EPS1), draw(g, Epsilon(F(1, 10))))]
        assert digests == [
            "a0731c13b8db3ed5faa6b81c8d649cc0d7feb9e13535370902901e9010823c16",
            "4dac2ab7fb2e49d5b9856174687879e3c9c494f287873c8750ad8329f43527e0",
            "19303b7a822a14c7b68ecdb4f3efce8b69620a15a45b9e138d34e60f00d7d310",
            "ee7376f69067f24a0d6179682f605ef45fefdb79a7378a1ec44b444843cd5c19",
        ]


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


def fraction_direction_key(a, b):
    """The direction key as first written, on Fraction points: the
    denominators are cleared by cross-multiplying."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    num_x = dx.numerator * dy.denominator
    num_y = dy.numerator * dx.denominator
    g = math.gcd(num_x, num_y)
    num_x //= g
    num_y //= g
    if num_x < 0 or (num_x == 0 and num_y < 0):
        num_x, num_y = -num_x, -num_y
    return (num_x, num_y)


def bfs_order_oracle(g):
    """Breadth-first order from vertex 0, neighbors in adjacency order."""
    order, seen, i = [0], {0}, 0
    while i < len(order):
        for v in g.adj[order[i]]:
            if v not in seen:
                seen.add(v)
                order.append(v)
        i += 1
    return order


def proper_spanner_oracle(g, eps):
    """Coordinates of the proper construction by its first, O(n^3) search:
    vertices in BFS order, at each step the enclosing disk of all placed
    points, then for y = 0, 1, 2, ... a Fraction direction key from (x_k, y)
    to every placed point, until all keys differ."""
    order = bfs_order_oracle(g)
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
        while len({fraction_direction_key((x_k, F(y)), p) for p in placed}) < len(placed):
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

    def test_drawings_pinned(self):
        # The seed-301 proper and tough benchmark drawings with n <= 40; the
        # oracles above cover small graphs only. Recorded when each
        # tree-proper merge keyed every point of one part against the other.
        ops = [op for op in bench_workloads().build("proper", 301) if op.n <= 40]
        drawn = []
        for op in ops:
            g, eps = Graph.from_edges(op.n, op.edges), Epsilon(op.epsilon)
            d = (draw_proper_spanner(g, eps) if op.kind == "proper"
                 else draw_graph_via_tough_tree(g, op.d_target, eps).drawing)
            drawn.append((d.points, d.den))
        assert len(drawn) == 116 and {op.kind for op in ops} == {"proper", "tough"}
        digest = hashlib.sha256(repr(drawn).encode()).hexdigest()
        assert digest == "d118b17982296921fe8d6ceeba4f3cef6f95e31e5150ba170f9d769ca329dc33"

    def test_far_right_lemma_saves_the_keys(self, monkeypatch):
        # Each vertex goes far right of the box of the ones before it, so
        # at epsilon = 1/2 the far-right lemma settles every height, and the
        # drawing's no_three_collinear certificate, with no direction key,
        # slope or exact. At epsilon = 3 the gap is too small for the lemma
        # at some heights, and the exact check (one gcd per key) runs there.
        keys = KeyCount(monkeypatch)
        g = random_connected_graph(160, 160, 5)
        d = draw_proper_spanner(g, EPS_HALF)
        assert keys.counts() == (0, 0)
        assert no_three_collinear(d)
        assert keys.counts() == (0, 0)
        draw_proper_spanner(g, Epsilon(F(3)))
        assert keys.exact > 0

    @pytest.mark.parametrize("eps", [F(1, 2), F(3), F(100)])
    def test_lemma_boxes_hold_the_placed_vertices(self, monkeypatch, eps):
        # Every box the height search hands to far_right holds every vertex
        # placed so far (those left of the candidate, as x grows with each
        # placement), and wherever the lemma holds, the exact check agrees.
        # A height that holds two vertices is skipped before the lemma, so
        # no horizontal line is left to it.
        from spannerdraw import geometry, layout

        tried = []
        monkeypatch.setattr(layout, "far_right",
                            lambda box, p: tried.append((box, p)) or geometry.far_right(box, p))
        for g in (path_graph(30), random_connected_graph(60, 60, 960)):
            tried.clear()
            points = draw_proper_spanner(g, Epsilon(eps)).points
            assert len(tried) >= g.n - 1
            for (x0, w, ylo, yhi), (x, y) in tried:
                placed = [q for q in points if q[0] < x]
                assert all(x0 <= qx <= w and ylo <= qy <= yhi for qx, qy in placed)
                if geometry.far_right((x0, w, ylo, yhi), (x, y)):
                    assert not geometry.on_line_through_two((x, y), placed)

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


class TestClosedFormRadii:
    """The placements' radii without a square root, against _radius."""

    @staticmethod
    def planar_disk_oracle(half, t, rem, den):
        top = t * den + rem
        radius = _radius(half, top, den)
        return radius, -(-top // (2 * den)) + radius

    def test_planar_disk_matches_radius(self):
        rng = random.Random(46)
        es = [F(1), F(1, 10), F(2, 3), F(1, 10**12)] + [F(rng.randrange(1, 1000), 1000) for _ in range(20)]
        for e in es:
            for b in (_LEG_BITS, 200):
                half, den = e.numerator << (b - 1), e.denominator << b
                ts = list(range(8)) + [rng.randrange(2**k) for k in (10, 100, 3000) for _ in range(10)]
                for t in ts:
                    for rem in (0, 1, den // 2, den - 1):
                        assert _planar_disk(half, t, rem, den) == self.planar_disk_oracle(half, t, rem, den), (e, t, rem)
                    if t >= 2:
                        assert _planar_disk(half, t, 0, den) == (t // 2 + 1, t + 1)

    def test_planar_closed_form_needs_two(self):
        # At a whole height below 2 the closed form is one short.
        for e in (F(1), F(1, 10**12)):
            half, den = e.numerator << (_LEG_BITS - 1), e.denominator << _LEG_BITS
            for t in (0, 1):
                assert _radius(half, t * den, den) == t // 2 + 2

    def test_proper_radius_matches_radius(self):
        rng = random.Random(47)
        cases = []
        for a in list(range(12)) + [rng.randrange(2**k) for k in (8, 60, 2000) for _ in range(6)]:
            # y_max**2 near 4a, where a >= ceil((s + y_max**2) / 4) turns.
            root = math.isqrt(4 * a)
            ys = {0, 1, 2, 3, max(0, root - 2), max(0, root - 1), root, root + 1, root + 2, 2 * root + 3}
            cases += [(2 * a + s, y) for s in (0, 1) for y in ys]
        for w, y in cases:
            assert _proper_radius(w, y) == _radius(w, y), (w, y)

    def test_radius_fallbacks_per_drawing(self, monkeypatch):
        # Counted: each planar drawing of n >= 4 takes _radius once, for
        # its fourth vertex, whose height is the apex's; every later height
        # is whole and at least 2. The proper drawings of the benchmark's
        # first seed take it never.
        from spannerdraw import layout

        calls = [0]
        monkeypatch.setattr(layout, "_radius", lambda *args: calls.__setitem__(0, calls[0] + 1) or _radius(*args))
        counts = {"planar": set(), "proper": set()}
        for op in bench_workloads().build("planar", 301) + bench_workloads().build("proper", 301):
            if op.kind in counts:
                calls[0] = 0
                g, eps = Graph.from_edges(op.n, op.edges), Epsilon(op.epsilon)
                (draw_planar_spanner if op.kind == "planar" else draw_proper_spanner)(g, eps)
                counts[op.kind].add(calls[0])
        assert counts == {"planar": {1}, "proper": {0}}
        calls[0] = 0
        draw_planar_spanner(random_connected_planar_graph(30, 963), Epsilon(F(1, 10**12)))
        assert calls[0] <= 2


def tree_proper_oracle(t, eps):
    """Coordinates of the proper tree construction by its first, recursive
    search on Fractions: each part is relabeled as its own RootedTree,
    split at `edge_separator`, drawn recursively with eta / 3 and merged."""
    d = max(2, t.graph.max_degree())
    coords = _tree_proper_oracle_rec(t, d, eps.tree_gamma, F(1))
    return tuple(coords[v] for v in range(t.n))


def _tree_proper_oracle_rec(t, d, gamma, eta):
    if t.n == 1:
        return {t.root: (F(0), F(0))}
    u, v = edge_separator(t, d)
    c = []
    for part, root in zip(split_at_edge(t, u, v), (t.root, v)):
        local = sorted(part)
        sub = RootedTree.from_graph(t.graph.induced(local), local.index(root))
        drawn = _tree_proper_oracle_rec(sub, d, gamma, eta / 3)
        c.append({local[lv]: p for lv, p in drawn.items()})
    c1, c2 = c
    w1 = max(p[0] for p in c1.values())
    x_off = w1 + gamma * (w1 + eta + 1)
    j, span = 1, 8
    while True:
        for step in range(j, span):
            y_off = -eta / 3 - (eta / 3) * F(step, span)
            shifted = {gv: (p[0] + x_off, p[1] + y_off) for gv, p in c2.items()}
            if not _cross_collinear_oracle(list(c1.values()), list(shifted.values())):
                return {**c1, **shifted}
        j = span
        span *= 8


def _cross_collinear_oracle(pts1, pts2):
    """True iff some line through two Fraction points of one part hits a
    point of the other."""
    for hubs, other in ((pts1, pts2), (pts2, pts1)):
        for hub in hubs:
            if len({fraction_direction_key(hub, p) for p in other}) < len(other):
                return True
    return False


def caterpillar(k):
    """A k-vertex spine with one leaf on every spine vertex."""
    spine = [(i, i + 1) for i in range(k - 1)]
    return Graph.from_edges(2 * k, spine + [(i, k + i) for i in range(k)])


class TestTreeProper:
    @pytest.mark.parametrize("eps", [F(1, 10), F(1), F(3)])
    def test_matches_oracle(self, eps):
        eps = Epsilon(eps)
        graphs = [Graph.from_edges(1, []), path_graph(2), star_graph(12), path_graph(40)]
        graphs.append(caterpillar(30))
        graphs += [random_tree(n, 3 + n % 3, 950 + n) for n in (7, 25, 60, 110, 200)]
        for g in graphs:
            t = RootedTree.from_graph(g, g.n // 2)
            assert Drawing(g, *_tree_proper_points(t, eps)).coords == tree_proper_oracle(t, eps)

    def test_merge_second_span_round(self):
        # Every first-round shift (step/8 of eta/3 below, span 8) puts the
        # lower point on a line through the origin and one upper point, as
        # does step 8 of span 64; step 9 is the first that fits.
        gamma = 4
        upper = _TreePart(list(range(8)), [(0, 0)] + [(-48 * gamma, 8 + j) for j in range(1, 8)], 1, 0, 1)
        lower = _TreePart([8], [(0, 0)], 1, 0, 0)
        verts, pts, den, _, _ = _merge_tree_parts(upper, lower, 0, gamma)
        assert verts == list(range(9))
        coords = [(F(x, den), F(y, den)) for x, y in pts]
        assert coords[:8] == [(0, 0)] + [(-48 * gamma, 8 + j) for j in range(1, 8)]
        assert coords[8] == (8, F(-73, 192))

    def test_merge_keys_from_the_smaller_part(self, monkeypatch):
        # Each part is collinear-free, so a merge keys only its smaller part
        # S against the points after it: |S|(|S|-1)/2 + |S||L| direction
        # keys on a merge whose first trial fits, as every merge here does,
        # against 2|S||L| when each part keyed the other. They are all slope
        # keys below 2**53, where no slope repeats, and all exact keys (one
        # gcd each) past it, where the star's later merges go. The merges
        # build every key of the draw.
        from spannerdraw import layout

        keys, merges, fingerprinted = KeyCount(monkeypatch), [], set()
        merge = layout._merge_tree_parts

        def counted(upper, lower, k, gamma):
            before = keys.counts()
            drawn = merge(upper, lower, k, gamma)
            made = [after - b for after, b in zip(keys.counts(), before)]
            merges.append((len(upper.verts), len(lower.verts), made))
            return drawn

        monkeypatch.setattr(layout, "_merge_tree_parts", counted)
        for g in (star_graph(61), random_tree(200, 3, 7)):
            keys.clear()
            merges.clear()
            draw_tree_proper(g, EPS1)
            assert len(merges) == g.n - 1
            want = []
            for a, b, made in merges:
                s, l = sorted((a, b))
                want.append(s * (s - 1) // 2 + s * l)
                fingerprinted.add(made[0] > 0)
                assert sorted(made) == [0, want[-1]], (a, b, made)
            assert sum(keys.counts()) == sum(want)
        assert fingerprinted == {False, True}

    def test_merges_carry_what_they_know(self, monkeypatch, bench301):
        # Every merge hands on its width (the largest x numerator, whose bit
        # length is coord_bits of the points) and the gcd of its numerators,
        # over distinct points with the root at (0, 0); every split takes
        # the separator that the old scan over the whole part took.
        from spannerdraw import layout

        merge, split = layout._merge_tree_parts, layout._split
        parts: dict[int, list[int]] = {}  # part root -> its vertices, root first
        counts = [0, 0]

        def checked_merge(upper, lower, k, gamma):
            part = merge(upper, lower, k, gamma)
            assert part.width == max(x for x, _ in part.pts)
            assert part.width.bit_length() == coord_bits(part.pts)
            assert part.common == math.gcd(*chain.from_iterable(part.pts))
            assert math.gcd(part.den, part.common) == 1
            assert len(set(part.pts)) == len(part.pts) and part.pts[0] == (0, 0)
            counts[0] += 1
            return part

        def checked_split(r, parent, size, kids):
            vs = parts.pop(r)
            want = separator_scan(vs, parent)
            v = split(r, parent, size, kids)
            assert v == want, (r, v, want)
            lower = {v}
            for w in vs:  # parents come before their children
                if parent[w] in lower:
                    lower.add(w)
            parts[r] = [w for w in vs if w not in lower]
            parts[v] = [w for w in vs if w in lower]
            counts[1] += 1
            return v

        monkeypatch.setattr(layout, "_merge_tree_parts", checked_merge)
        monkeypatch.setattr(layout, "_split", checked_split)
        shapes = [*star_broom_caterpillar().values(), star_graph(80), caterpillar(40)]
        shapes += [random_tree(200, 3, seed) for seed in range(3)]
        trees = [RootedTree.from_graph(g, root) for g in shapes for root in (0, g.n // 2, g.n - 1)]
        tough = [degree_bounded_spanning_tree(Graph.from_edges(op.n, op.edges), op.d_target)
                 for op in bench301.ops["proper"] if op.kind == "tough"]
        for t in trees + tough:
            counts[:] = [0, 0]
            depth = [0] * t.n
            order = preorder(t.children, t.root)
            for w in order[1:]:
                depth[w] = depth[t.parent[w]] + 1
            parts.clear()
            parts[t.root] = sorted(order, key=depth.__getitem__)
            _tree_proper_points(t, EPS1)
            assert counts == [t.n - 1, t.n - 1]
        assert len(tough) == 75

    def test_deep_star_needs_no_recursion(self):
        # A star splits off one leaf per separator level: 149 levels here.
        g = star_graph(150)
        limit = sys.getrecursionlimit()
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        sys.setrecursionlimit(depth + 100)
        try:
            d = draw_tree_proper(g, EPS1)
        finally:
            sys.setrecursionlimit(limit)
        assert no_three_collinear(d)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        d = draw_tree_proper(g, EPS1)
        assert d.coords == ((F(0), F(0)),)

    def test_single_edge_position(self):
        # Gap multiplier 4 at eps=1: child at x = 0 + 4*(0 + 1 + 1) = 8,
        # y = -1/3 - delta with delta in (0, 1/3).
        g = Graph.from_edges(2, [(0, 1)])
        d = draw_tree_proper(g, EPS1)
        assert d.coords[0] == (0, 0)
        x, y = d.coords[1]
        assert x == 8
        assert -F(2, 3) < y < -F(1, 3)
        sr = spanning_ratio(d)
        assert sr.lo == 1 and sr.hi <= 1 + F(1, 10**9)

    def test_random_trees_meet_guarantees(self):
        for seed, maxdeg in [(0, 3), (1, 4), (2, 5)]:
            g = random_tree(60, maxdeg, 600 + seed)
            d = draw_tree_proper(g, EPS1)
            assert no_three_collinear(d)
            assert min_pairwise_distance_sq(d) >= 1
            assert spanning_ratio(d).hi <= F(3, 2)

    def test_width_closed_form(self):
        g = random_tree(100, 3, 11)
        d = draw_tree_proper(g, EPS1)
        gamma = EPS1.tree_gamma
        dd = max(2, g.max_degree())
        width = float(compute_metrics(d).width)
        exponent = math.log2(gamma + 2) / math.log2(dd / (dd - 1))
        assert width <= 2 * ((gamma + 2) / (gamma + 1)) * (gamma + 2) * 100**exponent


def line_placement_oracle(n, order):
    """The points that sr1_witness, planar_sr1_witness and draw_tree_planar
    once each placed by their own loop: order[i] at (i, 0)."""
    points = [None] * n
    for i, v in enumerate(order):
        points[v] = (i, 0)
    return tuple(points)


class TestLineDrawing:
    def test_shuffled_paths_placed_as_before(self):
        for n in range(1, 13):
            for seed in range(5):
                perm = list(range(n))
                random.Random(100 * n + seed).shuffle(perm)
                g = Graph.from_edges(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
                expected = line_placement_oracle(n, path_order(g))
                drawings = [
                    (sr1_witness(g), line_placement_oracle(n, hamiltonian_path(g))),
                    (planar_sr1_witness(g), expected),
                    (draw_tree_planar(g, EPS1), expected),
                ]
                for d, points in drawings:
                    assert (d.points, d.den) == (points, 1)

    def test_planar_spanner_below_three_vertices(self):
        assert draw_planar_spanner(path_graph(1), EPS1).points == ((0, 0),)
        assert draw_planar_spanner(path_graph(2), EPS_HALF).points == ((0, 0), (1, 0))

    def test_order_must_cover_every_vertex(self):
        with pytest.raises(TypeError):
            Drawing.on_x_axis(path_graph(3), [2, 0])


class TestTreePlanar:
    def test_path_is_unit_spaced(self):
        g = path_graph(5)
        d = draw_tree_planar(g, EPS1)
        xs = sorted(x for x, y in d.coords)
        assert xs == [0, 1, 2, 3, 4]
        assert all(y == 0 for _, y in d.coords)
        assert spanning_ratio(d).hi == 1

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        d = draw_tree_planar(g, EPS1)
        assert spanning_ratio(d).hi == 1

    def test_complete_binary_tree(self):
        edges = [(i, 2 * i + 1) for i in range(15)] + [(i, 2 * i + 2) for i in range(15)]
        g = Graph.from_edges(31, edges)
        d = draw_tree_planar(g, EPS1)
        assert is_planar_drawing(d)
        assert spanning_ratio(d).hi <= F(3, 2)
        assert bounding_box(d)[1] <= math.log2(tree_planar_size(g))
        assert min(dist_sq(d.coords[u], d.coords[v]) for u, v in g.edges()) >= 1

    def test_random_trees(self):
        for seed in range(5):
            g = random_tree(80, 4, 70 + seed)
            d = draw_tree_planar(g, EPS1)
            assert is_planar_drawing(d)
            assert spanning_ratio(d).hi <= F(3, 2)
            assert bounding_box(d)[1] <= math.log2(tree_planar_size(g))

    def test_deep_caterpillar(self):
        # A 1500-vertex spine with one leaf per spine vertex: 1500 levels deep.
        k = 1500
        edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
        g = Graph.from_edges(2 * k, edges)
        d = draw_tree_planar(g, EPS1)
        assert is_planar_drawing(d)
        assert bounding_box(d)[1] <= math.log2(tree_planar_size(g))
        assert min(dist_sq(d.coords[u], d.coords[v]) for u, v in edges) >= 1

    def test_integer_coordinates(self):
        g = random_tree(30, 3, 5)
        d = draw_tree_planar(g, EPS1)
        assert all(x.denominator == 1 and y.denominator == 1 for x, y in d.coords)

    def test_least_leaf_at_origin(self):
        """draw_tree_planar roots the tree it is given at its least leaf,
        which goes to (0, 0), alone there; a path starts there too."""
        graphs = [random_tree(n, maxdeg, 90 + n) for n, maxdeg in ((5, 3), (12, 3), (40, 4), (60, 3))]
        graphs += [*star_broom_caterpillar().values(), path_graph(6)]
        for k, g in enumerate(graphs):
            leaf = min(v for v in range(g.n) if g.degree(v) == 1)
            d = draw_tree_planar(g, EPS1)
            assert [v for v in range(g.n) if d.points[v] == (0, 0)] == [leaf], k


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

    def test_one_drawing_per_draw(self, monkeypatch):
        # The graph's drawing takes the tree-proper construction's points
        # and denominator as they are: one Drawing per tough draw, equal on
        # its points to the tree's own drawing.
        built = []
        init = Drawing.__init__

        def counted(self, graph, *args):
            built.append(graph)
            init(self, graph, *args)

        monkeypatch.setattr(Drawing, "__init__", counted)
        for n in (1, 2, 12, 60):
            g = random_connected_graph(n, n, n)
            built.clear()
            res = draw_graph_via_tough_tree(g, 3, EPS1)
            assert built == [g], n
            tree = draw_tree_proper(res.tree.graph, EPS1)
            assert (res.drawing.points, res.drawing.den) == (tree.points, tree.den) and built[1:] == [res.tree.graph]

    def test_missed_target_reported_as_warning(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        res = draw_graph_via_tough_tree(star, 2, EPS1)
        assert res.warning is not None
        assert res.achieved_degree == 5
        assert no_three_collinear(res.drawing)
