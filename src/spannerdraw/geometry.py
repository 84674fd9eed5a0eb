"""Exact geometric predicates, and the closest pair, on integer points.

Every predicate takes integer points: a Drawing's numerators over its common
denominator, or a construction's. Scaling all points by one positive factor
keeps every sign, every collinearity and every ratio of squared distances,
so the predicates need no division, other than the exact one of a direction
by the gcd of its coordinates.

Collinearity has three exact tests. A count of the points per x and per
y finds three on one vertical or horizontal line, as the planar
construction makes them: it puts each vertex at the midpoint x of the two
ends it attaches to. far_right is a lemma, proved in its docstring: a
point far enough right of the box of some points lies on no line through
two of them, other than a horizontal one, which two products show. The
proper construction's height search tries it at each height, and
any_three_collinear tries it on all the points in x order, which the
proper drawings pass. Where neither decides, on_line_through_two decides
with one exact direction key per point, and hub_scan keys each hub
against the points after it that way. The scan serves the tree-proper
merge, which calls hub_scan directly on points it knows to be distinct,
and, through any_three_collinear, the no_three_collinear certificate of
the drawings that the count and the lemma leave open.

Below 2**FLOAT_BITS the scan puts a fingerprint in front of the exact keys
(after Karp and Rabin, IBM J. R&D 1987): each later point's slope from the
hub as a double, which Python's int / int rounds correctly. Equal slopes
give equal doubles, so the fingerprint misses no line, and a hub's exact
keys are built only where its slopes repeat, to confirm the line or turn
down a rounding collision. The verdicts are the exact keys', and a
collision costs only time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

IntPoint = tuple[int, int]

# The bits of a double's significand: every integer below 2**FLOAT_BITS in
# size is a double. The slope fingerprint serves points below it.
FLOAT_BITS = 53


def orientation(a: IntPoint, b: IntPoint, c: IntPoint) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 left turn, <0 right, 0 collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_box(a: IntPoint, b: IntPoint, p: IntPoint) -> bool:
    """True iff p lies in the closed axis-parallel bounding box of a and b."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def on_segment_closed(a: IntPoint, b: IntPoint, p: IntPoint) -> bool:
    """True iff p lies on the closed segment ab (a, b may coincide)."""
    return orientation(a, b, p) == 0 and _in_box(a, b, p)


def segments_cross_improperly(a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint) -> bool:
    """True iff closed segments ab and cd share a point other than a common endpoint.

    Segments that merely touch at an identical endpoint are not flagged; any
    crossing, overlap, or endpoint lying in the other segment's interior is.
    A common endpoint is a point, compared by coordinates, that is an end of
    both segments: two equal segments share both ends and are not flagged,
    though they overlap.

    Two segments of positive length with one common end p, and other ends
    q and r, meet elsewhere iff they lie on one ray from p: orientation(p,
    q, r) = 0, and the nearer of q and r lies in the box of p and the
    farther one (on opposite rays, neither does). That takes one
    orientation, not four.
    """
    if a != b and c != d:
        for p, q in ((a, b), (b, a)):
            if p == c or p == d:
                r = d if p == c else c
                return q != r and orientation(p, q, r) == 0 and (_in_box(p, q, r) or _in_box(p, r, q))
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0
            and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0):
        return True
    # Contacts: an end p of one segment on the other one, st, with o the
    # orientation of (s, t, p), except at an end of st, which makes p a
    # common endpoint.
    for o, p, s, t in ((o1, c, a, b), (o2, d, a, b), (o3, a, c, d), (o4, b, c, d)):
        if o == 0 and p != s and p != t and _in_box(s, t, p):
            return True
    return False


def dist_sq(a: IntPoint, b: IntPoint) -> int:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def on_line_through_two(z: IntPoint, points: Sequence[IntPoint]) -> bool:
    """True iff some line through the integer point z passes through two of
    `points`, none equal to z.

    Each point p is keyed by its direction from z, p - z reduced by the gcd
    of its coordinates, with the sign fixed so that the first nonzero
    coordinate is positive: (dx, dy) and (-dx, -dy) then give one key. Two
    points are on one line through z exactly when they lie on one ray from
    z or on opposite rays, that is when their keys are equal. The key is
    exact at any size of integer, and the keys are built in one set, so the
    test is whether the set is smaller than the points.
    """
    zx, zy = z
    keys = {
        (dx // g, dy // g)
        for x, y in points
        for dx in (x - zx,)
        for dy in (y - zy,)
        for g in (gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -gcd(dx, dy),)
    }
    return len(keys) < len(points)


def coord_bits(points: Iterable[IntPoint]) -> int:
    """The bit length of the largest absolute integer coordinate, 0 for no points."""
    return max(map(abs, chain.from_iterable(points)), default=0).bit_length()


def _slopes_repeat(z: IntPoint, points: Sequence[IntPoint]) -> bool:
    """True if two of `points` have one slope from z as a double: the
    correctly rounded (y - zy) / (x - zx), or inf where x = zx.

    A fingerprint of on_line_through_two(z, points): two of its exact keys
    are equal only where these slopes are, so False settles it, and True
    may be a rounding collision.
    """
    zx, zy = z
    slopes = {(y - zy) / (x - zx) if x != zx else math.inf for x, y in points}
    return len(slopes) < len(points)


def closest_pair_sq(points: Sequence[IntPoint], bits: int) -> int:
    """Least squared distance between two of at least 2 points, whose
    coord_bits is bits.

    A plane sweep in x order (Hinrichs, Nievergelt and Schorn, IPL 1988):
    the window holds, sorted by (y, x), the points left of the sweep whose
    squared x gap is below the best so far, and each point is compared only
    with the window's points within that distance in y. Those are at most 8
    (they are at least that distance apart), so it takes O(n log n)
    comparisons whichever axis the points spread along.

    Past FLOAT_BITS the window's x gaps are compared with the best by bit
    lengths first. A gap dx of bit length L has 4**(L - 1) <= dx**2 <
    4**L, so dx**2 >= best when 2L - 2 >= bl(best), and dx**2 < best when
    2L < bl(best); only the two bit lengths between take the square. On a
    far-placed drawing the gap to the window's first point is far longer
    than the closest pair. Below FLOAT_BITS the squares cost less than
    the bit lengths.
    """
    pts = sorted(points)
    best = dist_sq(pts[0], pts[1])
    window: list[IntPoint] = []  # (y, x) of pts[tail] up to the current point
    tail = 0
    big = bits > FLOAT_BITS
    for x, y in pts:
        if best == 0:
            return 0
        while True:
            dx = x - pts[tail][0]
            if big:
                l, bb = 2 * dx.bit_length(), best.bit_length()
                if l - 2 < bb and (l < bb or dx * dx < best):
                    break
            elif dx * dx < best:
                break
            qx, qy = pts[tail]
            del window[bisect_left(window, (qy, qx))]
            tail += 1
        r = math.isqrt(best - 1)  # dy**2 < best iff |dy| <= r
        for q in window[bisect_left(window, (y - r,)):bisect_left(window, (y + r + 1,))]:
            best = min(best, dist_sq((y, x), q))  # swapping both points' axes keeps it
        insort(window, (y, x))
    return best


def coincident(points: Sequence[IntPoint]) -> bool:
    """True iff two of the points are equal."""
    return len(set(points)) < len(points)


def far_right(box: tuple[int, int, int, int], p: IntPoint) -> bool:
    """True if the integer point p lies, by the far-right lemma, on no line
    through two integer points of box = (x0, w, ylo, yhi), the box
    [x0, w] x [ylo, yhi], other than a horizontal line.

    The lemma: let W = w - x0, H = yhi - ylo, p = (x, y) and
    out = max(0, y - yhi, ylo - y), how far y lies outside [ylo, yhi]. If
    W (H + out) < x - w, the conclusion holds. Proof: the left side is at
    least 0, so x > w, and no vertical line of the box reaches p. A line
    through (xi, yi) and (xj, yj) of the box, xi < xj, that is not
    horizontal has |yj - yi| >= 1 and xj - xi <= W, so its slope is at
    least 1/W in size. At abscissa x its height differs from yj by at least
    (x - xj)/W >= (x - w)/W > H + out, while |y - yj| <= H + out, since yj
    lies in [ylo, yhi]: p is not on it.

    False means only that the lemma does not apply. It takes two products
    and a few comparisons, where on_line_through_two builds one direction
    key per point.
    """
    x0, w, ylo, yhi = box
    x, y = p
    return (w - x0) * (yhi - ylo + max(0, y - yhi, ylo - y)) < x - w


def _far_placed(pts: Sequence[IntPoint]) -> bool:
    """True iff each of the points, sorted by (x, y), is far_right of the
    box of the points before it."""
    if not pts:
        return True
    x0, ylo = pts[0]
    w, yhi = x0, ylo
    for x, y in pts[1:]:
        if not far_right((x0, w, ylo, yhi), (x, y)):
            return False
        w, ylo, yhi = x, min(ylo, y), max(yhi, y)
    return True


def any_three_collinear(points: Sequence[IntPoint]) -> bool:
    """True iff two of the integer points coincide or three lie on a line.

    Three exact steps come after the coincidence test, each deciding only
    where it is sure:
    - The count: one Counter of the x coordinates and one of the y, O(n).
      An x or a y that holds three of the distinct points puts them on one
      vertical or horizontal line: True. Most planar drawings, which hold
      many vertices on shared vertical lines, end here.
    - The lemma: the points sorted by (x, y), each tried by far_right
      against the box of the points before it. If every point passes, a
      collinear triple a < b < c in that order lies on a line through a
      and b that holds c, which the lemma allows only when the line is
      horizontal. The count has found no three points at one height, so
      no three are collinear: False, in O(n log n) with the sort. The
      proper construction's drawings pass, since each vertex goes far
      right of the ones before it.
    - The scan, below, where neither decides.

    Otherwise it scans (hub_scan): a collinear triple is found from its
    first point, so each hub is keyed only against the points after it,
    sum over the hubs i of n - 1 - i direction keys, n(n-1)/2 for all
    points, and the scan stops at the first hub on a line. Vertex order is
    kept: a drawing's collinear triple tends to come early in it.

    The keys are slopes first where every coordinate is below
    2**FLOAT_BITS in size, a gate of one O(n) pass per call: a hub's later
    points are keyed by their slopes from it as doubles (_slopes_repeat),
    and only a hub whose slopes repeat builds its exact keys. int / int is
    correctly rounded, so a slope's double is a function of the exact
    rational: two points on one line through the hub, on one ray or on
    opposite rays, have one slope, and so one double (0.0 and -0.0 compare
    and hash equal). Every collinear triple therefore reaches the exact
    keys, which also turn down a repeat of two slopes that only round
    alike: no verdict changes, and a collision costs only time. Past
    2**FLOAT_BITS the scan keys exactly, for the tree-proper stars: their
    later merges have slopes that collide at nearly every hub (364 of the
    400-star's 399), where a fingerprint costs its slope keys on top of
    the exact ones. Past about 2**1023 a slope can also overflow a double.
    """
    if coincident(points) or any(max(Counter(axis).values()) >= 3 for axis in zip(*points)):
        return True
    return not _far_placed(sorted(points)) and hub_scan(points, len(points), coord_bits(points))


def hub_scan(points: Sequence[IntPoint], hubs: int, bits: int) -> bool:
    """True iff three of the distinct integer points lie on a line through
    one of the first `hubs` points: the scan of any_three_collinear, which
    calls it after the coincidence test, with every point a hub and
    bits = coord_bits(points) for the gate between slope keys and exact
    keys. The tree-proper merge calls it directly, with the size it carries
    for its points, which it knows to be distinct.
    """
    if bits <= FLOAT_BITS:
        return any(_slopes_repeat(z, rest) and on_line_through_two(z, rest)
                   for i, z in enumerate(points[:hubs]) for rest in (points[i + 1:],))
    return any(on_line_through_two(z, points[i + 1:])
               for i, z in enumerate(points[:hubs]))
