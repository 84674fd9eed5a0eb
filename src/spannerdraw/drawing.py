"""The Drawing value type: a graph plus exact rational coordinates.

A drawing holds its coordinates in one form: integer numerators over one
positive common denominator, in lowest terms, so that the denominator is the
least common denominator of the rational coordinates. Scaling by it keeps
every sign and every ratio, so the metrics, the bounds and the exact
predicates all run on the integers. This is the only module that converts
between Fractions and numerators: `Drawing.of` builds a drawing from
rationals, and `coords` gives them back. The serializer writes each
numerator over the denominator as text, reduced by their gcd.

A Drawing is an immutable value: equal to a drawing of an equal graph at the
same points over the same denominator, and hashed alike. Its constructor
checks every point and reduces them to lowest terms; the Fractions of
`coords`, the closest pair of `closest_sq` and the size of `bits` are
computed once, when first read, and kept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .frozen import Frozen
from .geometry import IntPoint, closest_pair_sq, coord_bits
from .graph import Graph

Point = tuple[Fraction, Fraction]


class Drawing(Frozen):
    """A straight-line drawing: vertex v sits at points[v] / den."""

    _fields = ("graph", "points", "den")
    __slots__ = (*_fields, "_coords", "_closest_sq", "_bits")
    graph: Graph
    points: tuple[IntPoint, ...]
    den: int

    def __init__(self, graph: Graph, points: tuple[IntPoint, ...], den: int = 1):
        if len(points) != graph.n:
            raise ValueError(f"{len(points)} points for {graph.n} vertices")
        for p in points:
            # The common case, a tuple of two ints, in three type checks;
            # the full test only where those fail.
            if type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int:
                continue
            if not (isinstance(p, tuple) and len(p) == 2
                    and all(isinstance(c, int) and not isinstance(c, bool) for c in p)):
                raise TypeError(f"point {p!r} is not a pair of ints; use Drawing.of for rationals")
        if not isinstance(den, int) or isinstance(den, bool) or den <= 0:
            raise ValueError(f"denominator {den!r} is not a positive int")
        g = math.gcd(den, *(c for p in points for c in p)) if den > 1 else 1
        if g > 1:
            points = tuple((x // g, y // g) for x, y in points)
            den //= g
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(graph: Graph, coords) -> Drawing:
        """The drawing with vertex v at coords[v], a pair of anything that
        Fraction() accepts, over the least common denominator."""
        rational = [(Fraction(x), Fraction(y)) for x, y in coords]
        den = math.lcm(*{c.denominator for p in rational for c in p})
        return Drawing(graph, tuple(
            (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in rational
        ), den)

    @staticmethod
    def on_x_axis(graph: Graph, order: Iterable[int]) -> Drawing:
        """The drawing with order[i] at (i, 0), for an order of all the
        vertices: a Hamiltonian path in that order has spanning ratio 1."""
        points: list = [None] * graph.n
        for i, v in enumerate(order):
            points[v] = (i, 0)
        return Drawing(graph, tuple(points))

    @property
    def coords(self) -> tuple[Point, ...]:
        """The coordinates as Fractions, for serialization and display, kept
        once computed; the exact computations read points and den."""
        try:
            return self._coords
        except AttributeError:
            coords = tuple((Fraction(x, self.den), Fraction(y, self.den)) for x, y in self.points)
            object.__setattr__(self, "_coords", coords)
            return coords

    @property
    def closest_sq(self) -> int:
        """The least squared distance between two of the (at least 2) points,
        in numerator units (over den**2); 0 when two coincide. Kept, so that
        one report's spanning ratio and minimum distance share one sweep."""
        try:
            return self._closest_sq
        except AttributeError:
            closest = closest_pair_sq(self.points)
            object.__setattr__(self, "_closest_sq", closest)
            return closest

    @property
    def bits(self) -> int:
        """coord_bits of the points, kept, so that one report's metrics
        share one pass to tell small coordinates from big ones."""
        try:
            return self._bits
        except AttributeError:
            bits = coord_bits(self.points)
            object.__setattr__(self, "_bits", bits)
            return bits
