import math
from fractions import Fraction

from spannerdraw import geometry
from spannerdraw.exact import Interval, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import (
    any_three_collinear,
    coincident,
    dist_sq,
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
