"""Executable bound arguments and spanning-ratio-1 recognizers.

The annulus census makes the degree/edge-length-ratio lower-bound argument
checkable on concrete drawings: if any annulus around a vertex v holds
neighbors in more than 48*s^2 distinct components of G - v, the drawing's
spanning ratio must exceed s. The recognizers decide which graphs admit
drawings of spanning ratio exactly 1 (any drawing: Hamiltonian path; planar
drawing: five explicit graph classes).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from .drawing import Drawing
from .errors import ZeroLengthEdgeError
from .exact import Interval, sqrt_interval
from .geometry import IntPoint, coincident, dist_sq, on_segment_closed
from .graph import Graph, hamiltonian_path, path_order
from .metrics import _certify, _spanning_ratios

# Explicit packing constant from the annulus argument: each annulus around a
# vertex of a drawing with spanning ratio at most s holds at most this many
# neighbors per unit of s^2.
ANNULUS_PACKING_CONSTANT = 48


class AnnulusCensus(NamedTuple):
    """Neighbor counts of one vertex, binned by distance annuli.

    Distances are normalized by the shortest edge incident to the center;
    annulus i collects normalized distances in (2**(i-1), 2**i], with exact
    boundary values assigned to the lower annulus (so a normalized distance of
    exactly 1 lands in annulus 1).
    """

    center: int
    shortest_incident_edge_len: Interval
    counts: dict[int, int]


def _annuli(d: Drawing, center: int) -> tuple[int, list[int]]:
    """(min_sq, the annulus of each neighbor of center in adjacency order),
    min_sq the squared length of center's shortest incident edge."""
    g = d.graph
    if g.degree(center) == 0:
        raise ValueError("annulus census needs a vertex of degree >= 1")
    p = d.points[center]
    sqs = [dist_sq(p, d.points[u]) for u in g.adj[center]]
    min_sq = min(sqs)
    if min_sq == 0:
        raise ZeroLengthEdgeError(f"vertex {center} coincides with a neighbor")
    annuli = []
    for r_sq in sqs:  # in units of min_sq: no sqrt, no division
        i = 1
        bound = 4 * min_sq
        while r_sq > bound:
            bound *= 4
            i += 1
        annuli.append(i)
    return min_sq, annuli


def annulus_census(d: Drawing, center: int) -> AnnulusCensus:
    min_sq, annuli = _annuli(d, center)
    return AnnulusCensus(center, sqrt_interval(Fraction(min_sq, d.den**2)), dict(Counter(annuli)))


def _components_without(g: Graph, v: int) -> list[int]:
    """A component label of G - v for each neighbor of v and the vertices
    it reaches, -1 elsewhere: one iterative walk of G - v from the
    neighbors of v, labelled by the neighbor each component is entered at."""
    label = [-1] * g.n
    label[v] = v
    for r in g.adj[v]:
        if label[r] >= 0:
            continue
        label[r] = r
        stack = [r]
        while stack:
            for w in g.adj[stack.pop()]:
                if label[w] < 0:
                    label[w] = r
                    stack.append(w)
    return label


class AnnulusViolation(NamedTuple):
    vertex: int
    annulus: int
    count: int


class AnnulusCheckResult(NamedTuple):
    s: Fraction
    threshold: Fraction  # 48 * s**2
    violations: tuple[AnnulusViolation, ...]
    spanning_ratio: Optional[Interval]  # certified only when violations exist
    verdict: str  # "Consistent" or "InconsistentWithTheorem"


def annulus_bound_check(d: Drawing, s: Fraction) -> AnnulusCheckResult:
    """Check every vertex's annulus counts against 48*s^2 and, when a count is
    exceeded, certify that the spanning ratio indeed exceeds s.

    The packing argument bounds the neighbors a, b of v in one annulus with
    d(a, b) >= |av| + |vb|, which holds when every path between them passes
    v: neighbors in distinct components of G - v. So an annulus whose raw
    count (annulus_census) exceeds 48*s^2 is recounted as the number of
    distinct components of G - v among its neighbors, from one walk of
    G - v per such vertex, and a violation is a recount above 48*s^2. At
    most 2m / (48*s^2) vertices have a raw count above it. In a star every
    leaf is its own component, so the counts are the raw ones.

    A verdict of "InconsistentWithTheorem" can only arise from an
    implementation bug, never from a valid drawing.
    """
    s = Fraction(s)
    if s < 1:
        raise ValueError("s must be at least 1")
    threshold = ANNULUS_PACKING_CONSTANT * s * s
    g = d.graph
    violations = []
    for v in range(g.n):
        if g.degree(v) == 0:
            continue
        annuli = _annuli(d, v)[1]
        over = sorted(i for i, count in Counter(annuli).items() if count > threshold)
        if not over:
            continue
        label = _components_without(g, v)
        for i in over:
            count = len({label[u] for u, k in zip(g.adj[v], annuli) if k == i})
            if count > threshold:
                violations.append(AnnulusViolation(v, i, count))
    if not violations:
        return AnnulusCheckResult(s, threshold, (), None, "Consistent")
    # A violation implies spanning ratio > s; certify it on one stream of
    # enclosures at relative tolerances 10**-6, 10**-9, ..., 10**-30, up to
    # the first that separates from s.
    for sr in _certify(_spanning_ratios(d), (Fraction(1, 10**k) for k in range(6, 31, 3))):
        if sr.lo > s or sr.hi <= s:
            break
    verdict = "Consistent" if sr.lo > s else "InconsistentWithTheorem"
    return AnnulusCheckResult(s, threshold, tuple(violations), sr, verdict)


def star_elr_lower_bound(degree: int, s: Fraction) -> Fraction:
    """Exact edge-length-ratio lower bound 2**floor((degree-1)/(48*s^2)) for a
    star of the given degree drawn with spanning ratio at most s."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    s = Fraction(s)
    if s < 1:
        raise ValueError("s must be at least 1")
    denom = ANNULUS_PACKING_CONSTANT * s * s
    k = int(Fraction(degree - 1) / denom)  # floor for nonnegative values
    return Fraction(2) ** k


def recognize_sr1(g: Graph) -> bool:
    """True iff g admits a straight-line drawing with spanning ratio exactly 1,
    i.e. iff g has a Hamiltonian path."""
    return hamiltonian_path(g) is not None


def sr1_witness(g: Graph) -> Optional[Drawing]:
    """A collinear drawing of spanning ratio exactly 1, when one exists:
    Hamiltonian path laid out at (0,0), (1,0), (2,0), ..."""
    path = hamiltonian_path(g)
    return None if path is None else Drawing.on_x_axis(g, path)


def _fan_decomposition(g: Graph, apex_count: int) -> Optional[tuple[list[int], list[int]]]:
    """If g is a path plus `apex_count` vertices each adjacent to every other
    vertex except possibly each other, return (apexes, path order)."""
    n = g.n
    if n < apex_count + 1:
        return None
    full = [v for v in range(n) if g.degree(v) >= n - apex_count]
    # Apexes must be adjacent to all path vertices; their degree is n-1 or
    # n-apex_count depending on apex-apex edges, both >= n - apex_count.
    if len(full) < apex_count:
        return None
    for apexes in itertools.combinations(full, apex_count):
        rest = [v for v in range(n) if v not in apexes]
        if any(not all(g.has_edge(a, v) for v in rest) for a in apexes):
            continue
        sub = g.induced(rest)
        order = path_order(sub)
        if order is not None:
            return list(apexes), [rest[i] for i in order]
    return None


def _is_octahedron(g: Graph) -> bool:
    """True iff g is the complete tripartite graph K_{2,2,2}: 6 vertices,
    4-regular, with the non-edges forming a perfect matching."""
    if g.n != 6 or any(g.degree(v) != 4 for v in range(6)):
        return False
    non_neighbors = [set(range(6)) - set(g.adj[v]) - {v} for v in range(6)]
    return all(len(s) == 1 for s in non_neighbors) and all(
        v in non_neighbors[next(iter(non_neighbors[v]))] for v in range(6)
    )


def recognize_planar_sr1(g: Graph) -> bool:
    """True iff g admits a planar straight-line drawing with spanning ratio
    exactly 1. The admissible graphs are: paths; a path plus one universal
    apex (fan); a path plus two apexes each adjacent to every path vertex,
    with or without the apex-apex edge (double fans); and the octahedron."""
    return planar_sr1_witness(g) is not None


def planar_sr1_witness(g: Graph) -> Optional[Drawing]:
    """An exact planar drawing of spanning ratio 1, when one exists."""
    n = g.n
    # Every admissible class has at most 3n - 6 edges (the double fan with
    # its apex edge); below that, at most 6 vertices have degree n - 2 or
    # more, so _fan_decomposition tries at most 15 apex pairs.
    if n >= 3 and g.m > 3 * n - 6:
        return None
    order = path_order(g)
    if order is not None:
        return Drawing.on_x_axis(g, order)

    fan = _fan_decomposition(g, 1)
    if fan is not None and g.m == (n - 2) + (n - 1):
        (apex,), path = fan
        coords: list[IntPoint] = [None] * n  # type: ignore[list-item]
        coords[apex] = (0, 1)
        for i, v in enumerate(path):
            coords[v] = (i, 0)
        return Drawing(g, tuple(coords))

    fan2 = _fan_decomposition(g, 2)
    if fan2 is not None:
        (a, b), path = fan2
        apex_edge = g.has_edge(a, b)
        expected_m = (n - 3) + 2 * (n - 2) + (1 if apex_edge else 0)
        if g.m == expected_m and len(path) >= 1:
            coords = [None] * n  # type: ignore[list-item]
            if apex_edge:
                # Apexes flank the start of the path; their connecting segment
                # avoids every path vertex.
                coords[a] = (0, 1)
                coords[b] = (0, -1)
                for i, v in enumerate(path):
                    coords[v] = (i + 1, 0)
            else:
                # Non-adjacent apexes sit on opposite sides of one path vertex
                # so their segment is covered by a two-edge chain through it.
                coords[a] = (-1, 0)
                coords[b] = (1, 0)
                for i, v in enumerate(path):
                    coords[v] = (0, i)
            return Drawing(g, tuple(coords))

    if _is_octahedron(g):
        # Three concurrent-in-pairs lines with three points each; every
        # non-adjacent pair is separated by the midpoint of its line.
        non_edges = sorted(
            (u, v) for u in range(6) for v in range(u + 1, 6) if not g.has_edge(u, v)
        )
        blocked_pairs = [
            ((1, 1), (1, 3)),
            ((1, 2), (3, 2)),
            ((0, 0), (2, 2)),
        ]
        coords = [None] * 6  # type: ignore[list-item]
        for (u, v), (pu, pv) in zip(non_edges, blocked_pairs):
            coords[u] = pu
            coords[v] = pv
        return Drawing(g, tuple(coords))

    return None


def is_sr1_drawing(d: Drawing) -> bool:
    """Exact check that a drawing has spanning ratio exactly 1.

    Every vertex pair must be joined by a chain of edges whose vertices lie on
    the connecting segment in order (so the path length telescopes to the
    Euclidean distance). No square roots are needed.
    """
    g = d.graph
    n = g.n
    pts = d.points
    if coincident(pts):
        return False
    for u in range(n):
        for v in range(u + 1, n):
            a, b = pts[u], pts[v]
            on_seg = [w for w in range(n) if on_segment_closed(a, b, pts[w])]
            on_seg.sort(key=lambda w: dist_sq(a, pts[w]))
            assert on_seg[0] == u and on_seg[-1] == v
            reachable = {u}
            for w in on_seg[1:]:
                if any(g.has_edge(x, w) for x in reachable):
                    reachable.add(w)
            if v not in reachable:
                return False
    return True
