import math
from fractions import Fraction

from spannerdraw import geometry
from spannerdraw.exact import Interval, isqrt_scaled, sqrt_interval
from spannerdraw.geometry import (
    any_three_collinear,
    coincident,
    direction_key,
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


class TestDirectionKey:
    def test_parallel_same_key(self):
        assert direction_key((0, 0), (2, 4)) == direction_key((5, 5), (6, 7))

    def test_opposite_directions_same_key(self):
        assert direction_key((0, 0), (1, 3)) == direction_key((1, 3), (0, 0))

    def test_distinct_directions_differ(self):
        assert direction_key((0, 0), (1, 2)) != direction_key((0, 0), (2, 1))

    def test_canonical_sign(self):
        assert direction_key((3, 5), (1, 9)) == direction_key((0, 0), (1, -2)) == (1, -2)
        assert direction_key((0, 4), (0, -2)) == (0, 1)


class TestOnLineThroughTwo:
    def test_detects_a_line(self):
        assert on_line_through_two((0, 0), [(1, 2), (5, 1), (-3, -6)])
        assert not on_line_through_two((0, 0), [(1, 2), (5, 1), (-3, 6)])


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
        calls = []
        key = geometry.direction_key
        monkeypatch.setattr(geometry, "direction_key", lambda a, b: calls.append(1) or key(a, b))
        for n in (3, 10, 25):
            calls.clear()
            assert not any_three_collinear([(i, i * i) for i in range(n)])
            assert len(calls) == n * (n - 1) // 2

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

    def test_dist_sq(self):
        assert dist_sq(P(0, 0), P(3, 4)) == 25
