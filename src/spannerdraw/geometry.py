"""Exact geometric predicates on rational points.

Coordinates may be Fractions or ints. The metrics and the layout
constructions run these predicates on integer numerators over a common
denominator; the test oracles run them on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Point = tuple[Fraction, Fraction]


def orientation(a: Point, b: Point, c: Point):
    """Sign of the cross product (b-a) x (c-a): >0 left turn, <0 right, 0 collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def collinear(a: Point, b: Point, c: Point) -> bool:
    return orientation(a, b, c) == 0


def on_segment_closed(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment ab (a, b may coincide)."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def in_segment_interior(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on segment ab strictly between a and b."""
    return on_segment_closed(a, b, p) and p != a and p != b


def segments_cross_improperly(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share a point other than a common endpoint.

    Segments that merely touch at an identical endpoint are not flagged; any
    crossing, overlap, or endpoint lying in the other segment's interior is.
    """
    shared = {p for p in (a, b) if p in (c, d)}
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0
            and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0):
        return True
    # Collinear / endpoint contacts.
    for p, (s, t) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if p in shared:
            continue
        if on_segment_closed(s, t, p):
            return True
    return False


def dist_sq(a: Point, b: Point) -> Fraction:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def direction_key(a: Point, b: Point) -> tuple[int, int]:
    """Canonical key identifying the undirected direction of the line through a and b.

    Two pairs are parallel (as undirected lines) iff their keys are equal.
    Requires a != b.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    # Clear denominators, reduce, canonicalize sign.
    num_x = dx.numerator * dy.denominator
    num_y = dy.numerator * dx.denominator
    g = gcd(abs(num_x), abs(num_y))
    assert g > 0
    num_x //= g
    num_y //= g
    if num_x < 0 or (num_x == 0 and num_y < 0):
        num_x, num_y = -num_x, -num_y
    return (num_x, num_y)


def any_three_collinear(points: Sequence[Point]) -> bool:
    """Exact check over all triples in O(n^2) direction keys: for each point,
    two others lie on one line through it iff their keys from it are equal,
    which a hash set of the keys detects."""
    n = len(points)
    for i in range(n):
        seen: set[tuple[int, int]] = set()
        for j in range(n):
            if j == i:
                continue
            if points[j] == points[i]:
                return True
            key = direction_key(points[i], points[j])
            if key in seen:
                return True
            seen.add(key)
    return False
