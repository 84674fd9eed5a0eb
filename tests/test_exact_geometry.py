import math
import random
from fractions import Fraction

from conftest import KeyCount
from oracles import contains, in_segment_interior, intersects
from spannerdraw import geometry
from spannerdraw.exact import Interval, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import (
    any_three_collinear,
    coincident,
    coord_bits,
    dist_sq,
    far_right,
    hub_scan,
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
        assert contains(iv, F(2))
        assert not contains(iv, F(3))
        assert not iv.is_infinite
        infinite = Interval(math.inf, math.inf)
        assert infinite.is_infinite and infinite.rel_width() == math.inf
        assert not contains(infinite, F(10**400))

    def test_intersects(self):
        assert intersects(Interval(F(1), F(2)), Interval(F(2), F(3)))
        assert not intersects(Interval(F(1), F(2)), Interval(F(5, 2), F(3)))


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
        # against the points after it only, n(n-1)/2 direction keys in all.
        # Below 2**53 they are slope keys, and no slope repeats, so no exact
        # key is built; moved past 2**53, they are exact keys (one gcd each).
        keys = KeyCount(monkeypatch)
        for shift, kind in ((0, 0), (2**53, 1)):
            for n in (3, 10, 25):
                keys.clear()
                assert not any_three_collinear([(i + shift, i * i - shift) for i in range(n)])
                want = [0, 0]
                want[kind] = n * (n - 1) // 2
                assert keys.counts() == tuple(want), (shift, n)
            for n, hubs in ((10, 0), (10, 1), (10, 4), (10, 10), (10, 12)):
                keys.clear()
                pts = [(i + shift, i * i - shift) for i in range(n)]
                assert not hub_scan(pts, hubs, coord_bits(pts))
                want = [0, 0]
                want[kind] = sum(n - 1 - i for i in range(min(hubs, n)))
                assert keys.counts() == tuple(want), (shift, n, hubs)

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
                    assert (coincident(ps) or hub_scan(ps, hubs, coord_bits(ps))) == brute, (pts, hubs)
            assert any_three_collinear(pts) == (coincident(pts) or hub_scan(pts, n, coord_bits(pts)))
        assert seen == {False, True}

    def test_axis_count_matches_bruteforce(self, monkeypatch):
        # Seeded sets of four kinds: a planted vertical triple, a planted
        # horizontal one, two points on each of a few columns or rows, which
        # the count must not flag, and a triple on a line of neither axis;
        # each also moved by 2**2000. A triple on an axis is found with no
        # direction key, slope or exact.
        import itertools

        keys = KeyCount(monkeypatch)
        rng = random.Random(32)
        seen = set()
        for trial in range(400):
            kind = trial % 4
            pts = {(rng.randrange(-99, 100), rng.randrange(-99, 100)) for _ in range(rng.randrange(0, 7))}
            at, spots = rng.randrange(-99, 100), rng.sample(range(-99, 100), 3)
            if kind == 0:
                pts |= {(at, y) for y in spots}
            elif kind == 1:
                pts |= {(x, at) for x in spots}
            elif kind == 2:
                lines = rng.sample(range(-9, 9), rng.randrange(1, 6))
                across = iter(rng.sample(range(-20, 20), 2 * len(lines)))
                pairs = [(a, next(across)) for a in lines for _ in range(2)]
                pts = set(pairs if rng.random() < 0.5 else [(b, a) for a, b in pairs])
            else:
                dx, dy = rng.choice((-1, 1)) * rng.randrange(1, 9), rng.choice((-1, 1)) * rng.randrange(1, 9)
                pts |= {(at + k * dx, at - 5 + k * dy) for k in rng.sample(range(-9, 10), 3)}
            pts = list(pts)
            rng.shuffle(pts)
            brute = any(orientation(a, b, c) == 0 for a, b, c in itertools.combinations(pts, 3))
            on_axis = any(sum(p[i] == q[i] for p in pts) >= 3 for q in pts for i in (0, 1))
            for ps in (pts, [(x + 2**2000, y - 2**2000) for x, y in pts]):
                keys.clear()
                assert any_three_collinear(ps) == brute, (kind, pts)
                if on_axis:
                    assert keys.counts() == (0, 0), (kind, pts)
            assert on_axis == (kind < 2), (kind, pts)
            seen.add((kind, brute))
        assert seen == {(0, True), (1, True), (2, False), (2, True), (3, True)}, seen

    def test_dist_sq(self):
        assert dist_sq(P(0, 0), P(3, 4)) == 25


def collinear_bruteforce(pts, hubs=None):
    """Two points equal, or orientation 0 on some triple with a point among
    the first `hubs` (all points when None)."""
    import itertools

    hubs = len(pts) if hubs is None else hubs
    return len(set(pts)) < len(pts) or any(
        orientation(pts[i], pts[j], pts[k]) == 0
        for i, j, k in itertools.combinations(range(len(pts)), 3) if i < hubs)


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
        """((slope keys, exact keys) built, any_three_collinear(pts))."""
        keys = KeyCount(monkeypatch)
        verdict = any_three_collinear(pts)
        monkeypatch.undo()
        return keys.counts(), verdict

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
                assert self.keys_and_verdict(monkeypatch, ps) == ((0, 0), brute), ps
        assert seen == {False, True}

    def test_bound_met_with_equality_takes_the_scan(self, monkeypatch):
        # The third point's gap equals W (H + out) = 2 (1 + 0): the lemma
        # fails there, and the scan decides: n(n-1)/2 = 6 slope keys, with
        # no slope repeated and no exact key. With (4, 2) on the line of the
        # first two points, the first hub's slopes repeat, and its three
        # exact keys confirm the triple.
        pts = [(0, 0), (2, 1), (4, 1), (100, 7)]
        assert not far_right((0, 2, 0, 1), (4, 1))
        assert not geometry._far_placed(sorted(pts))
        keys, verdict = self.keys_and_verdict(monkeypatch, pts)
        assert keys == (6, 0) and verdict == collinear_bruteforce(pts) is False
        pts = [(0, 0), (2, 1), (4, 2), (100, 7)]
        assert self.keys_and_verdict(monkeypatch, pts) == ((3, 3), True)

    def test_repeated_x_takes_the_scan(self, monkeypatch):
        rng = random.Random(12)
        for _ in range(100):
            pts = far_placed(rng, rng.randrange(2, 7), 3)
            x, _ = rng.choice(pts)
            pts.append((x, rng.randrange(-3, 6)))
            assert not geometry._far_placed(sorted(pts))
            (slope, exact), verdict = self.keys_and_verdict(monkeypatch, pts)
            assert verdict == collinear_bruteforce(pts), pts
            # Slope keys unless two points coincide; exact keys only to
            # confirm a triple, as no two distinct slopes of these small
            # points round to one double.
            assert slope > 0 or verdict
            assert exact == 0 or verdict

    def test_at_most_two_points(self, monkeypatch):
        no_keys = (0, 0)
        for pts in ([], [(3, -4)], [(0, 0), (4, 5)], [(0, 0), (-7, 0)]):
            assert self.keys_and_verdict(monkeypatch, pts) == (no_keys, False)
        assert self.keys_and_verdict(monkeypatch, [(0, 0), (0, 5)]) == ((1, 0), False)  # one x: the scan
        assert self.keys_and_verdict(monkeypatch, [(0, 2**53), (0, 5)]) == ((0, 1), False)  # past 2**53
        assert self.keys_and_verdict(monkeypatch, [(1, 1), (1, 1)]) == (no_keys, True)

    def test_planted_triple_found_by_the_scan(self, monkeypatch):
        # A point on the line through two points of a far-placed set, at
        # distinct heights, past them: the lemma fails there, and the scan
        # finds the triple, unless three of the points share an x or a y
        # (the planted one among them, or three at one height of the set),
        # where the count finds one with no key.
        rng = random.Random(13)
        counted = scanned = 0
        for _ in range(100):
            pts = far_placed(rng, rng.randrange(2, 8), 5)
            a, b = rng.sample(pts, 2)
            if a[1] == b[1]:
                continue
            (ax, ay), (bx, by) = sorted((a, b))
            k = rng.randrange(1, 4)
            pts.insert(rng.randrange(len(pts) + 1), (bx + k * (bx - ax), by + k * (by - ay)))
            on_axis = any(sum(p[i] == q[i] for p in pts) >= 3 for q in pts for i in (0, 1))
            assert not geometry._far_placed(sorted(pts))
            (slope, exact), verdict = self.keys_and_verdict(monkeypatch, pts)
            assert verdict is True
            assert (slope, exact) == (0, 0) if on_axis else slope > 0 and exact > 0, pts
            counted += on_axis
            scanned += not on_axis
        assert counted > 0 and scanned > 0, (counted, scanned)
        # A triple below the first point's height: (1, -6), (13, -5) and
        # (253, 15), of slope 1/12. The box of the points before (253, 15)
        # reaches down to -6, not only to the first point's 6.
        pts = [(0, 6), (1, -6), (13, -5), (253, 15)]
        assert not geometry._far_placed(pts)
        assert self.keys_and_verdict(monkeypatch, pts)[1] is True


def slope_cases(rng, kind):
    """A seeded list of 2 to 7 points of one kind, small but for "near":
    "planted", random points with a planted triple; "vertical", with two or
    three points on one x; "horizontal", the first point with a point on
    each side of it at its height, on slopes 0.0 and -0.0; "opposite", the
    first point with a point on each of two opposite rays from it; or
    "near", points on the lines y = x + r for r in 1..3, at most two on
    each, far out from the first point at (0, 0), so that many of their
    slopes from it round to one double though no two are equal, and at
    times a point on the hub's ray through the second point."""
    if kind == "near":
        rs = rng.sample([1, 1, 2, 2, 3, 3], rng.randrange(2, 6))
        pts = [(0, 0)] + [(a, a + r) for r in rs for a in (rng.randrange(2**29, 2**31),)]
        if rng.random() < 0.5:
            pts.append((3 * pts[1][0], 3 * pts[1][1]))  # on the hub's ray through pts[1]
        return pts
    pts = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 5))]
    x, y = pts[0]
    dx, dy = rng.randrange(-3, 4), rng.randrange(-3, 4)
    if kind == "planted":
        pts += [(x + k * dx, y + k * dy) for k in rng.sample(range(1, 4), 2)]
    elif kind == "vertical":
        pts += [(x, y + k) for k in rng.sample(range(1, 5), rng.randrange(1, 3))]
    elif kind == "horizontal":
        pts += [(x - rng.randrange(1, 5), y), (x + rng.randrange(1, 5), y)]
    else:
        pts += [(x + dx, y + dy), (x - 2 * dx, y - 2 * dy)]
    rest = pts[1:]
    rng.shuffle(rest)
    return pts[:1] + rest


class TestSlopeFingerprint:
    # Below 2**53, any_three_collinear keys each hub by the correctly
    # rounded slopes of the points after it, and builds its exact keys
    # only where two slopes are one double.
    KINDS = ("planted", "vertical", "horizontal", "opposite", "near")

    def test_coord_bits(self):
        assert geometry.coord_bits([]) == 0
        assert geometry.coord_bits([(0, 0)]) == 0
        assert geometry.coord_bits([(3, -4), (1, 1)]) == 3
        assert geometry.coord_bits([(2**53 - 1, 0), (0, 1 - 2**53)]) == geometry.FLOAT_BITS
        assert geometry.coord_bits([(0, -2**53)]) == geometry.FLOAT_BITS + 1

    def test_near_collision_comes_out_false(self, monkeypatch):
        # From the hub (0, 0) the slopes 1 + 2**-30 and 1 + 1/(2**30 + 1)
        # differ by less than 2**-60, and both round to the double
        # 1 + 2**-30: the hub's two slopes repeat, and its two exact keys
        # tell them apart. The second hub has one point after it.
        pts = [(0, 0), (2**30, 2**30 + 1), (2**30 + 1, 2**30 + 2)]
        assert (2**30 + 1) / 2**30 == (2**30 + 2) / (2**30 + 1)
        assert orientation(*pts) != 0
        for hubs, want in ((None, (3, 2)), (1, (2, 2)), (3, (3, 2))):
            keys = KeyCount(monkeypatch)
            assert not (any_three_collinear(pts) if hubs is None else hub_scan(pts, hubs, coord_bits(pts)))
            assert keys.counts() == want, hubs
            monkeypatch.undo()

    def test_signed_zero_slopes_share_a_key(self):
        # 0 / 5 is 0.0 and 0 / -5 is -0.0; they compare and hash equal, so
        # a horizontal line through the hub is one key.
        assert math.copysign(1, 0 / -5) == -1
        assert geometry._slopes_repeat((0, 0), [(-5, 0), (3, 0)])
        assert geometry._slopes_repeat((2, 7), [(2, -1), (2, 9)])  # dx = 0 on both sides
        assert geometry._slopes_repeat((0, 0), [(1, 2), (-3, -6)])  # opposite rays
        assert not geometry._slopes_repeat((0, 0), [(1, 0), (0, 1), (1, 1)])

    def test_matches_bruteforce(self, monkeypatch):
        # Each kind of set, with all points as hubs and with every count of
        # hubs, against brute force. The small sets are also mapped by
        # x -> X0 + sx x, y -> Y0 + sy y, which keeps every collinearity,
        # to coordinates just below 2**53 (the largest in size 2**53 - 1,
        # the fingerprint's last) and just above (2**53, the exact keys'
        # first). The near sets are keyed where they are.
        rng = random.Random(53)
        keys = KeyCount(monkeypatch)
        seen, slopes, collided = set(), 0, 0
        for trial in range(500):
            kind = self.KINDS[trial % len(self.KINDS)]
            pts = slope_cases(rng, kind)
            sets = [(pts, True)]
            if kind != "near":
                sx, sy = rng.randrange(1, 2**48, 2), rng.randrange(1, 2**48, 2)
                top = max(x for x, _ in pts)
                bottom = min(y for _, y in pts)
                for limit, fingerprinted in ((2**53 - 1, True), (2**53, False)):
                    ps = [(limit - sx * (top - x), sy * (y - bottom) - limit) for x, y in pts]
                    sets.append((ps, fingerprinted))
            for ps, fingerprinted in sets:
                assert (geometry.coord_bits(ps) <= geometry.FLOAT_BITS) == fingerprinted, (kind, ps)
                for hubs in (None, *range(len(ps) + 1)):
                    keys.clear()
                    verdict = (any_three_collinear(ps) if hubs is None
                               else coincident(ps) or hub_scan(ps, hubs, coord_bits(ps)))
                    assert verdict == collinear_bruteforce(ps, hubs), (kind, ps, hubs)
                    slope, exact = keys.counts()
                    assert slope == 0 or fingerprinted, (kind, ps, hubs)
                    slopes += slope
                    collided += exact > 0 and not verdict
                    seen.add((kind, verdict))
        assert seen == {(kind, v) for kind in self.KINDS for v in (False, True)}, seen
        assert slopes > 0 and collided > 0
