"""The Drawing value type: a graph plus exact rational coordinates.

A drawing holds its coordinates in one form: integer numerators over one
positive common denominator, in lowest terms, so that the denominator is the
least common denominator of the rational coordinates. Scaling by it keeps
every sign and every ratio, so the metrics, the bounds and the exact
predicates all run on the integers. This is the only module that converts
between rationals and numerators: `Drawing.of` builds a drawing from
rationals, and `coords` gives them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .geometry import IntPoint, closest_pair_sq
from .graph import Graph

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Drawing:
    """A straight-line drawing: vertex v sits at points[v] / den."""

    graph: Graph
    points: tuple[IntPoint, ...]
    den: int = 1

    def __post_init__(self):
        if len(self.points) != self.graph.n:
            raise ValueError(f"{len(self.points)} points for {self.graph.n} vertices")
        for p in self.points:
            if not (isinstance(p, tuple) and len(p) == 2
                    and all(isinstance(c, int) and not isinstance(c, bool) for c in p)):
                raise TypeError(f"point {p!r} is not a pair of ints; use Drawing.of for rationals")
        if not isinstance(self.den, int) or isinstance(self.den, bool) or self.den <= 0:
            raise ValueError(f"denominator {self.den!r} is not a positive int")
        g = math.gcd(self.den, *(c for p in self.points for c in p))
        if g > 1:
            object.__setattr__(self, "points", tuple((x // g, y // g) for x, y in self.points))
            object.__setattr__(self, "den", self.den // g)

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

    @cached_property
    def coords(self) -> tuple[Point, ...]:
        """The coordinates as Fractions, for serialization and display; the
        exact computations read points and den."""
        return tuple((Fraction(x, self.den), Fraction(y, self.den)) for x, y in self.points)

    @cached_property
    def closest_sq(self) -> int:
        """The least squared distance between two of the (at least 2) points,
        in numerator units (over den**2); 0 when two coincide. Kept, so that
        one report's spanning ratio and minimum distance share one sweep."""
        return closest_pair_sq(self.points)
