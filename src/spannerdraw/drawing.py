"""The Drawing value type: a graph plus exact rational coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Drawing:
    """A straight-line drawing: every vertex mapped to an exact rational point."""

    graph: Graph
    coords: tuple[Point, ...]

    def __post_init__(self):
        if len(self.coords) != self.graph.n:
            raise ValueError(f"{len(self.coords)} points for {self.graph.n} vertices")
        for p in self.coords:
            if len(p) != 2 or not all(isinstance(c, Fraction) for c in p):
                raise TypeError(f"point {p!r} is not a pair of Fractions; use Drawing.of")

    @staticmethod
    def of(graph: Graph, coords) -> "Drawing":
        return Drawing(
            graph,
            tuple((Fraction(x), Fraction(y)) for x, y in coords),
        )
