"""Shared seeded generators for the test suite. All randomness is seeded;
re-runs are deterministic."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spannerdraw import Drawing, Graph, geometry
from spannerdraw.embedding import planarity_test_embed
from spannerdraw.layout import (
    Epsilon,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
)

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def bench_workloads():
    """bench/workloads.py: the benchmark's seeded op lists and generators,
    among them the planar one that draws chords inside faces."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads

    return workloads


def benchmark_drawing(op) -> Drawing:
    """The drawing of one benchmark op, as `spannerdraw draw` makes it."""
    g, eps = Graph.from_edges(op.n, op.edges), Epsilon(op.epsilon)
    if op.kind == "planar":
        return draw_planar_spanner(g, eps)
    if op.kind == "proper":
        return draw_proper_spanner(g, eps)
    if op.kind == "tough":
        return draw_graph_via_tough_tree(g, op.d_target, eps).drawing
    return draw_tree_planar(g, eps)


class Corpus:
    """The benchmark's seed-301 ops, per workload, and their drawings.

    The op lists are built once. A workload's drawings are drawn on the
    first call of drawings(), by benchmark_drawing, and kept: a test reads
    them before it patches anything, and a test that counts the work of
    drawing draws its own."""

    def __init__(self):
        workloads = bench_workloads()
        self.ops = {name: workloads.build(name, 301) for name in workloads.WORKLOADS}
        self._drawings: dict[str, list[Drawing]] = {}

    def drawings(self, name: str) -> list[Drawing]:
        if name not in self._drawings:
            self._drawings[name] = [benchmark_drawing(op) for op in self.ops[name]]
        return self._drawings[name]


@pytest.fixture(scope="session")
def bench301() -> Corpus:
    """The seed-301 corpus, shared by every test of the session."""
    return Corpus()


class KeyCount:
    """The direction keys that geometry builds while installed, counted by
    kind: slope keys, one per point handed to the slope fingerprint, and
    exact keys, one gcd each. counts() gives (slope, exact)."""

    def __init__(self, monkeypatch):
        self.slope = self.exact = 0
        slopes_repeat = geometry._slopes_repeat

        def counted_slopes(z, points):
            self.slope += len(points)
            return slopes_repeat(z, points)

        def counted_gcd(a, b):
            self.exact += 1
            return math.gcd(a, b)

        monkeypatch.setattr(geometry, "_slopes_repeat", counted_slopes)
        monkeypatch.setattr(geometry, "gcd", counted_gcd)

    def counts(self) -> tuple[int, int]:
        return self.slope, self.exact

    def clear(self) -> None:
        self.slope = self.exact = 0


def random_tree(n: int, maxdeg: int, seed: int) -> Graph:
    """Random tree built by attaching each vertex to an earlier vertex with
    residual degree capacity."""
    rng = random.Random(seed)
    edges = []
    deg = [0] * n
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < maxdeg]
        u = rng.choice(candidates)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus up to extra_edges random additional edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    tries = 0
    target = n - 1 + extra_edges
    while len(edges) < target and tries < 20 * extra_edges + 50:
        u, v = rng.randrange(n), rng.randrange(n)
        tries += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def random_connected_planar_graph(n: int, seed: int) -> Graph:
    """Random spanning tree densified by random edges kept only while the
    graph stays planar."""
    rng = random.Random(seed)
    edges = set(random_tree(n, n, seed).edges())
    for _ in range(6 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v or e in edges:
            continue
        edges.add(e)
        if planarity_test_embed(Graph.from_edges(n, edges)) is None:
            edges.remove(e)
    return Graph.from_edges(n, sorted(edges))


def random_drawing(n: int, seed: int) -> Drawing:
    """Random connected graph on random distinct integer points."""
    rng = random.Random(seed)
    g = random_connected_graph(n, rng.randrange(2 * n + 1), seed + 10**6)
    points = set()
    while len(points) < n:
        points.add((rng.randrange(-50, 51), rng.randrange(-50, 51)))
    coords = sorted(points)
    rng.shuffle(coords)
    return Drawing.of(g, coords)


def random_rational_drawing(n: int, seed: int) -> Drawing:
    """Random connected graph on points with pairwise coprime, non-dyadic
    denominators and negative coordinates. Some points are placed on the line
    through two earlier ones, and every fifth seed repeats a point, so that
    collinear triples, vertices inside edges and coincident vertices occur.
    Every third seed draws an x-monotone path, which is mostly planar."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    else:
        g = random_connected_graph(n, rng.randrange(n + 1), seed + 2 * 10**6)
    dens = (3, 5, 7, 11, 13, 17, 19, 23)
    coords: list[tuple[Fraction, Fraction]] = []
    while len(coords) < n:
        if len(coords) >= 2 and rng.random() < 0.25:
            a, b = rng.sample(coords, 2)
            t = Fraction(rng.randrange(-3, 10), rng.choice(dens))
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        else:
            p = tuple(Fraction(rng.randrange(-20 * q, 20 * q + 1), q)
                      for q in (rng.choice(dens), rng.choice(dens)))
        if p not in coords:
            coords.append(p)
    if seed % 3 == 0:
        coords.sort()
    if seed % 5 == 0:
        coords[rng.randrange(1, n)] = coords[0]
    return Drawing.of(g, coords)


def unit_circle_star(leaves: int = 100) -> Drawing:
    """Star with the hub at the origin and leaves on the unit circle at equal
    angles, rounded to rationals with denominator 10**15."""
    import math

    coords = [(Fraction(0), Fraction(0))]
    for j in range(leaves):
        theta = 2 * math.pi * j / leaves
        coords.append(
            (
                Fraction(round(math.cos(theta) * 10**15), 10**15),
                Fraction(round(math.sin(theta) * 10**15), 10**15),
            )
        )
    g = Graph.from_edges(leaves + 1, [(0, j) for j in range(1, leaves + 1)])
    return Drawing.of(g, coords)


def chorded_hub(leaves: int, chords) -> Drawing:
    """unit_circle_star(leaves) with the chords, pairs of leaves, as edges too."""
    star = unit_circle_star(leaves)
    return Drawing.of(Graph.from_edges(leaves + 1, star.graph.edges() + list(chords)), star.coords)


def wheel(rim: int = 100) -> Drawing:
    """unit_circle_star(rim) with its leaves joined in a cycle in angle order:
    at 100 rim points the spanning ratio is 1.18437...."""
    return chorded_hub(rim, [(j, j % rim + 1) for j in range(1, rim + 1)])


def stacked_triangulation(n: int, seed: int) -> Graph:
    """A maximal planar graph (3n - 6 edges): a triangle, then each vertex
    joined to the three corners of a random face, which it splits in three."""
    rng = random.Random(seed)
    edges, faces = [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return Graph.from_edges(n, edges)


def kruskal(n: int, edges) -> list[tuple[int, int]]:
    """The edges, in the given order, that join two components of the forest
    taken so far (Kruskal): a minimum spanning forest when the edges come
    sorted by weight."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            tree.append((u, v))
    return tree


def thinned_triangulation(n: int, keep: float, seed: int) -> Graph:
    """A connected planar graph: a random spanning tree of
    stacked_triangulation(n, seed) and each of its other edges with
    probability keep."""
    rng = random.Random(seed)
    edges = stacked_triangulation(n, seed).edges()
    rng.shuffle(edges)
    tree = kruskal(n, edges)
    chosen = set(tree)
    chords = [e for e in edges if e not in chosen and rng.random() < keep]
    return Graph.from_edges(n, tree + chords)
