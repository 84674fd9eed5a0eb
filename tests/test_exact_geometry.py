import math
import random
from fractions import Fraction

from spannerdraw import geometry
from spannerdraw.exact import Interval, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import (
    any_three_collinear,
    coincident,
    dist_sq,
    far_right,
    in_segment_interior,
    on_line_through_two,
    on_segment_closed,
    orientation,
    segments_cross_improperly,
)

F = Fraction


def P(x, y):
    return (F(x), F(y))


class TestIsqrtScaled:
    def test_encloses_true_root(self):
        for num, den in [(2, 1), (3, 7), (10**12 + 7, 13), (0, 5), (49, 4)]:
            lo, hi = isqrt_scaled(num, den, 64)
            assert hi - lo <= 1
            # lo^2 <= num/den * 4^64 <= hi^2
            assert lo * lo * den <= num << 128
            assert hi * hi * den >= num << 128

    def test_exact_squares_detected(self):
        lo, hi = isqrt_scaled(9, 4, 64)
        assert lo == hi == 3 * (1 << 63)  # sqrt(9/4) = 3/2

    def test_matches_the_product_test(self):
        # The root is exact iff num * 4**bits = s**2 den; isqrt_scaled reads
        # that from one divmod, and the product form must agree, on random
        # inputs and on exact squares, with den = 1 and shifts past 1000 bits.
        def by_product(num, den, bits):
            s = math.isqrt((num << 2 * bits) // den)
            return (s, s) if s * s * den == num << 2 * bits else (s, s + 1)

        rng = random.Random(28)
        exact = 0
        for bits in (0, 1, 64, 200, 1100, 1500):
            for _ in range(30):
                den = 1 if rng.random() < 0.3 else rng.getrandbits(rng.choice((8, 300, 2000))) + 1
                m = rng.getrandbits(rng.choice((1, 64, 1200)))
                for num in (rng.getrandbits(rng.choice((1, 64, 3000))), m * m * den, m * m * den + 1):
                    lo, hi = isqrt_scaled(num, den, bits)
                    assert (lo, hi) == by_product(num, den, bits), (num, den, bits)
                    exact += lo == hi
            shift = rng.randrange(bits + 1)  # (m / 2**shift)**2 scaled by 4**bits is a square
            assert isqrt_scaled(m * m, 4**shift, bits) == (m << bits - shift,) * 2
        assert exact >= 6 * 30, exact

    def test_sqrt_interval_contains_float(self):
        for q in [F(2), F(5, 3), F(10**9, 7)]:
            iv = sqrt_interval(q, 64)
            assert iv.lo <= F(math.sqrt(q)) * (1 + F(1, 10**12))
            assert iv.hi >= F(math.sqrt(q)) * (1 - F(1, 10**12))
            assert iv.hi - iv.lo <= F(1, 1 << 63)


class TestInterval:
    def test_rel_width_and_contains(self):
        iv = Interval(F(2), F(2) + F(1, 100))
        assert iv.rel_width() == F(1, 200)
        assert iv.contains(F(2))
        assert not iv.contains(F(3))
        assert not iv.is_infinite
        infinite = Interval(math.inf, math.inf)
        assert infinite.is_infinite and infinite.rel_width() == math.inf
        assert not infinite.contains(F(10**400))

    def test_intersects(self):
        assert Interval(F(1), F(2)).intersects(Interval(F(2), F(3)))
        assert not Interval(F(1), F(2)).intersects(Interval(F(5, 2), F(3)))


class TestPredicates:
    def test_orientation_signs(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) > 0
        assert orientation(P(0, 0), P(1, 0), P(0, -1)) < 0
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_collinear_exact_huge(self):
        a, b = P(0, 0), P(10**30, 10**30 + 1)
        mid = (F(10**30, 2), F(10**30 + 1, 2))
        assert orientation(a, b, mid) == 0
        assert orientation(a, b, (mid[0], mid[1] + F(1, 10**40))) != 0

    def test_on_segment(self):
        assert on_segment_closed(P(0, 0), P(4, 0), P(2, 0))
        assert on_segment_closed(P(0, 0), P(4, 0), P(0, 0))
        assert not on_segment_closed(P(0, 0), P(4, 0), P(5, 0))
        assert in_segment_interior(P(0, 0), P(4, 0), P(2, 0))
        assert not in_segment_interior(P(0, 0), P(4, 0), P(4, 0))

    def test_proper_crossing(self):
        assert segments_cross_improperly(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_shared_endpoint_allowed(self):
        assert not segments_cross_improperly(P(0, 0), P(1, 0), P(0, 0), P(0, 1))

    def test_endpoint_in_interior_flagged(self):
        assert segments_cross_improperly(P(0, 0), P(4, 0), P(2, 0), P(2, 2))

    def test_collinear_overlap_flagged(self):
        assert segments_cross_improperly(P(0, 0), P(3, 0), P(1, 0), P(5, 0))

    def test_disjoint_collinear_not_flagged(self):
        assert not segments_cross_improperly(P(0, 0), P(1, 0), P(2, 0), P(3, 0))

    def test_crossing_matches_brute_force_on_a_small_grid(self):
        # Every ordered pair of segments, zero-length ones included, with
        # ends on a 4 x 3 grid: shared ends, opposite rays, collinear
        # overlaps and equal segments all occur.
        grid = [(x, y) for x in range(4) for y in range(3)]
        segments = [(s, t) for s in grid for t in grid]
        kinds = set()
        for a, b in segments:
            for c, d in segments:
                want = shares_a_point_not_an_end_of_both(a, b, c, d)
                assert segments_cross_improperly(a, b, c, d) == want, (a, b, c, d)
                if a != b and c != d and len({a, b} & {c, d}) == 1:
                    kinds.add(("one common end", orientation(a, b, c) == orientation(a, b, d) == 0, want))
                kinds.add(("equal" if {a, b} == {c, d} else "zero-length" if a == b or c == d
                           else "other", want))
        assert kinds >= {("one common end", True, True), ("one common end", True, False),
                         ("one common end", False, False), ("equal", False),
                         ("zero-length", True), ("zero-length", False), ("other", True)}


def shares_a_point_not_an_end_of_both(a, b, c, d) -> bool:
    """Brute force on Fractions: the closed segments ab and cd share a point
    that is not an end of both, and are not equal. The points they share
    form a point or a segment, whose ends are among the four ends and the
    crossing of the two lines; two distinct shared points mean infinitely
    many."""
    if {a, b} == {c, d}:
        return False

    def on(s, t, p):
        if s == t:
            return p == s
        (sx, sy), (tx, ty), (px, py) = s, t, p
        dot = (px - sx) * (tx - sx) + (py - sy) * (ty - sy)
        return (px - sx) * (ty - sy) == (py - sy) * (tx - sx) and 0 <= dot <= (tx - sx) ** 2 + (ty - sy) ** 2

    shared = {p for p in (a, b) if on(c, d, p)} | {p for p in (c, d) if on(a, b, p)}
    det = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
    if det:
        t = F((c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0]), det)
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        if on(a, b, p) and on(c, d, p):
            shared.add(p)
    return len(shared) > 1 or bool(shared - ({a, b} & {c, d}))


class TestOnLineThroughTwo:
    # Outside test_same_ray the hub z lies between the two points on a line:
    # their directions from z are opposite and must share one key.
    def test_detects_a_line(self):
        assert on_line_through_two((0, 0), [(1, 2), (5, 1), (-3, -6)])
        assert not on_line_through_two((0, 0), [(1, 2), (5, 1), (-3, 6)])

    def test_opposite_rays(self):
        assert on_line_through_two((0, 0), [(1, 3), (-1, -3)])
        assert on_line_through_two((2, 2), [(5, 11), (0, -4)])
        assert on_line_through_two((3, 5), [(1, 9), (4, 3)])  # directions (-2, 4) and (1, -2)
        assert not on_line_through_two((3, 5), [(1, 9), (4, 7)])

    def test_same_ray(self):
        assert on_line_through_two((5, 5), [(6, 7), (7, 9)])
        assert on_line_through_two((0, 0), [(-1, -3), (-2, -6)])

    def test_distinct_directions(self):
        assert not on_line_through_two((0, 0), [(1, 2), (2, 1)])
        assert not on_line_through_two((0, 0), [(-1, -2), (2, 1)])
        assert not on_line_through_two((0, 0), [(1, 2), (-1, 2)])

    def test_vertical_through_z(self):
        assert on_line_through_two((0, 4), [(0, -2), (0, 7)])
        assert on_line_through_two((3, 0), [(3, 5), (3, -1)])
        assert on_line_through_two((3, 0), [(3, -5), (3, -1)])
        assert not on_line_through_two((0, 4), [(0, -2), (1, 7)])

    def test_horizontal_through_z(self):
        assert on_line_through_two((0, 0), [(-5, 0), (3, 0)])
        assert on_line_through_two((-2, 7), [(5, 7), (-9, 7)])
        assert on_line_through_two((0, 0), [(5, 0), (3, 0)])
        assert not on_line_through_two((0, 0), [(-5, 0), (3, 1)])


class TestAnyThreeCollinear:
    def test_triangle_false(self):
        assert not any_three_collinear([(0, 0), (1, 0), (0, 1)])

    def test_collinear_true(self):
        assert any_three_collinear([(0, 0), (1, 1), (3, 3), (0, 1)])

    def test_coincident_true(self):
        assert any_three_collinear([(0, 0), (0, 0), (1, 5)])
        assert coincident([(1, 5), (0, 0), (1, 5)])
        assert not coincident([(0, 0), (1, 5)])

    def test_each_pair_keyed_once(self, monkeypatch):
        # Points on a parabola, no three collinear: every hub is keyed
        # against the points after it only, n(n-1)/2 direction keys in all,
        # one gcd each.
        calls = []
        monkeypatch.setattr(geometry, "gcd", lambda a, b: calls.append(1) or math.gcd(a, b))
        for n in (3, 10, 25):
            calls.clear()
            assert not any_three_collinear([(i, i * i) for i in range(n)])
            assert len(calls) == n * (n - 1) // 2
        for n, hubs in ((10, 0), (10, 1), (10, 4), (10, 10), (10, 12)):
            calls.clear()
            assert not any_three_collinear([(i, i * i) for i in range(n)], hubs)
            assert len(calls) == sum(n - 1 - i for i in range(min(hubs, n)))

    def test_matches_bruteforce_on_random_points(self):
        import itertools
        import random

        rng = random.Random(42)
        for _ in range(30):
            pts = [(rng.randrange(6), rng.randrange(6)) for _ in range(6)]
            if len(set(pts)) < len(pts):
                continue
            brute = any(
                orientation(a, b, c) == 0 for a, b, c in itertools.combinations(pts, 3)
            )
            assert any_three_collinear(pts) == brute

    def test_hubs_match_bruteforce(self):
        # Every triple with a point among the first `hubs`, on small points
        # with negative coordinates and on the same points scaled by 2**3000
        # (and moved by a large offset), where a key's gcd runs on big ints.
        import itertools
        import random

        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            n = rng.randrange(3, 9)
            pts = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(n)]
            big = [(x << 3000, y << 3000) for x, y in pts]
            moved = [(x + 3**1900, y - 5**1300) for x, y in big]
            for hubs in range(n + 1):
                brute = len(set(pts)) < n or any(
                    orientation(pts[i], pts[j], pts[k]) == 0
                    for i, j, k in itertools.combinations(range(n), 3) if i < hubs
                )
                seen.add(brute)
                for ps in (pts, big, moved):
                    assert any_three_collinear(ps, hubs) == brute, (pts, hubs)
            assert any_three_collinear(pts) == any_three_collinear(pts, n)
        assert seen == {False, True}

    def test_dist_sq(self):
        assert dist_sq(P(0, 0), P(3, 4)) == 25


def collinear_bruteforce(pts):
    """Two points equal, or orientation 0 on some triple."""
    import itertools

    return len(set(pts)) < len(pts) or any(
        orientation(a, b, c) == 0 for a, b, c in itertools.combinations(pts, 3))


def far_placed(rng, n, heights):
    """n points, each far right of the box of the ones before it by the
    far-right lemma, at heights drawn from range(heights), shuffled."""
    pts = [(0, rng.randrange(heights))]
    for _ in range(n - 1):
        w = pts[-1][0]
        ys = [y for _, y in pts]
        y = rng.randrange(heights)
        out = max(0, y - max(ys), min(ys) - y)
        pts.append((w + w * (max(ys) - min(ys) + out) + 1 + rng.randrange(3), y))
    rng.shuffle(pts)
    return pts


class TestFarRight:
    @staticmethod
    def keys_and_verdict(monkeypatch, pts):
        """(direction keys built, any_three_collinear(pts))."""
        calls = []
        monkeypatch.setattr(geometry, "gcd", lambda a, b: calls.append(1) or math.gcd(a, b))
        verdict = any_three_collinear(pts)
        monkeypatch.undo()
        return len(calls), verdict

    def test_lemma_matches_bruteforce(self):
        # Where far_right holds, p is on no non-horizontal line through two
        # points of the box: every p of a grid right of small random boxes,
        # against the grid points of every such line.
        import itertools

        rng = random.Random(7)
        held = near = 0
        for _ in range(300):
            pts = {(rng.randrange(-3, 3), rng.randrange(-3, 3)) for _ in range(rng.randrange(2, 6))}
            xs, ys = [x for x, _ in pts], [y for _, y in pts]
            box = (min(xs), max(xs), min(ys), max(ys))
            xr, yr = range(box[1] + 1, box[1] + 40), range(-20, 20)
            on_lines = {
                (x, ay + (x - ax) * (by - ay) // (bx - ax))
                for (ax, ay), (bx, by) in itertools.combinations(sorted(pts), 2)
                if ax != bx and ay != by
                for x in xr if (x - ax) * (by - ay) % (bx - ax) == 0
            }
            for p in itertools.product(xr, yr):
                if far_right(box, p):
                    held += 1
                    assert p not in on_lines, (pts, p)
                elif p in on_lines:
                    near += 1
        assert held > 10000 and near > 1000

    def test_boundary_is_strict(self):
        # W = 2 and H = 3. At (10, 4), out = 1 and W (H + out) = 8 = x - w:
        # the lemma does not apply. At (12, -2), out = 2 and 2 * 5 = 10.
        box = (0, 2, 0, 3)
        assert not far_right(box, (10, 4))
        assert far_right(box, (11, 4))
        assert not far_right(box, (12, -2))
        assert far_right(box, (13, -2))
        assert far_right((5, 5, 0, 0), (6, 100))  # W = 0: any x > w
        assert not far_right((5, 5, 0, 0), (5, 100))

    def test_far_placed_sets_match_bruteforce(self, monkeypatch):
        # Heights from a small range, so same-height triples occur; the sets
        # also moved by a negative offset, where the boxes keep their sizes.
        rng = random.Random(11)
        seen = set()
        for _ in range(200):
            pts = far_placed(rng, rng.randrange(3, 9), rng.randrange(1, 4))
            brute = collinear_bruteforce(pts)
            seen.add(brute)
            for ps in (pts, [(x - 10**40, y - 7**30) for x, y in pts]):
                assert geometry._far_placed(sorted(ps))
                assert self.keys_and_verdict(monkeypatch, ps) == (0, brute), ps
        assert seen == {False, True}

    def test_bound_met_with_equality_takes_the_scan(self, monkeypatch):
        # The third point's gap equals W (H + out) = 2 (1 + 0): the lemma
        # fails there, and the scan decides.
        pts = [(0, 0), (2, 1), (4, 1), (100, 7)]
        assert not far_right((0, 2, 0, 1), (4, 1))
        assert not geometry._far_placed(sorted(pts))
        keys, verdict = self.keys_and_verdict(monkeypatch, pts)
        assert keys > 0 and verdict == collinear_bruteforce(pts) is False
        pts = [(0, 0), (2, 1), (4, 2), (100, 7)]  # (4, 2) on the line of the first two
        assert self.keys_and_verdict(monkeypatch, pts)[1] is True

    def test_repeated_x_takes_the_scan(self, monkeypatch):
        rng = random.Random(12)
        for _ in range(100):
            pts = far_placed(rng, rng.randrange(2, 7), 3)
            x, _ = rng.choice(pts)
            pts.append((x, rng.randrange(-3, 6)))
            assert not geometry._far_placed(sorted(pts))
            keys, verdict = self.keys_and_verdict(monkeypatch, pts)
            assert verdict == collinear_bruteforce(pts), pts
            assert keys > 0 or verdict  # keys unless two points coincide

    def test_at_most_two_points(self, monkeypatch):
        for pts in ([], [(3, -4)], [(0, 0), (4, 5)], [(0, 0), (-7, 0)]):
            assert self.keys_and_verdict(monkeypatch, pts) == (0, False)
        assert self.keys_and_verdict(monkeypatch, [(0, 0), (0, 5)]) == (1, False)  # one x: the scan
        assert self.keys_and_verdict(monkeypatch, [(1, 1), (1, 1)]) == (0, True)

    def test_planted_triple_found_by_the_scan(self, monkeypatch):
        # A point on the line through two points of a far-placed set, at
        # distinct heights, past them: the lemma fails there, and the scan
        # finds the triple.
        rng = random.Random(13)
        for _ in range(100):
            pts = far_placed(rng, rng.randrange(2, 8), 5)
            a, b = rng.sample(pts, 2)
            if a[1] == b[1]:
                continue
            (ax, ay), (bx, by) = sorted((a, b))
            k = rng.randrange(1, 4)
            pts.insert(rng.randrange(len(pts) + 1), (bx + k * (bx - ax), by + k * (by - ay)))
            assert not geometry._far_placed(sorted(pts))
            keys, verdict = self.keys_and_verdict(monkeypatch, pts)
            assert keys > 0 and verdict is True
        # A triple below the first point's height: (1, -6), (13, -5) and
        # (253, 15), of slope 1/12. The box of the points before (253, 15)
        # reaches down to -6, not only to the first point's 6.
        pts = [(0, 6), (1, -6), (13, -5), (253, 15)]
        assert not geometry._far_placed(pts)
        assert self.keys_and_verdict(monkeypatch, pts)[1] is True
