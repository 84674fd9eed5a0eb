"""Shared seeded generators for the test suite. All randomness is seeded;
re-runs are deterministic."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx

from spannerdraw import Drawing, Graph


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
    tree = random_tree(n, n, seed)
    G = nx.Graph(tree.edges())
    G.add_nodes_from(range(n))
    for _ in range(6 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or G.has_edge(u, v):
            continue
        G.add_edge(u, v)
        ok, _ = nx.check_planarity(G)
        if not ok:
            G.remove_edge(u, v)
    return Graph.from_edges(n, sorted((min(u, v), max(u, v)) for u, v in G.edges()))


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
    return Drawing(g, tuple(coords))


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
    return Drawing(g, tuple(coords))
