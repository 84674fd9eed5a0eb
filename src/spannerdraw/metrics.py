"""Certified metric evaluation and exact geometric verdicts for drawings.

Spanning and edge-length ratios involve square roots, so they are reported as
certified rational enclosures: every edge length is bracketed between two
dyadic rationals (integers at scale 2**bits), shortest paths are computed once
with all-lower and once with all-upper brackets, and the working precision is
doubled until the enclosure is relatively tight. A certainly infinite ratio
(coincident vertices, a zero-length edge) is the interval lo = hi = math.inf;
the CLI prints it as `infinite`, and a bound beyond the range of a double
with a null float. Planarity, properness, and collinearity are decided
exactly in rational arithmetic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .drawing import Drawing
from .errors import DisconnectedDrawingError, NoEdgesError
from .exact import Interval, isqrt_scaled, sqrt_interval
from .geometry import (
    any_three_collinear,
    dist_sq,
    in_segment_interior,
    segments_cross_improperly,
)
from .graph import is_connected

DEFAULT_REL_TOL = Fraction(1, 10**9)
_START_BITS = 64
_MAX_BITS = 16384


def has_coincident_vertices(d: Drawing) -> bool:
    return len(set(d.coords)) < d.graph.n


@dataclass(frozen=True)
class MetricReport:
    spanning_ratio: Optional[Interval]
    edge_length_ratio: Optional[Interval]
    width: Fraction
    height: Fraction
    planar: bool
    proper: bool
    no_three_collinear: bool
    min_pairwise_distance_sq: Optional[Fraction]


def _certify(
    attempt: Callable[[int], Optional[Interval]], rel_tol: Fraction, start_bits: int
) -> Interval:
    """The first enclosure attempt(bits) returns, at bits = start_bits,
    2*start_bits, ... up to _MAX_BITS, whose relative width is within rel_tol.
    attempt returns None when it cannot enclose at that precision."""
    bits = start_bits
    while bits <= _MAX_BITS:
        ivl = attempt(bits)
        if ivl is not None and ivl.rel_width() <= rel_tol:
            return ivl
        bits *= 2
    raise RuntimeError("precision escalation exhausted")


def _ratio_enclosure(d: Drawing, rel_tol: Fraction, start_bits: int, rows: Callable) -> Interval:
    """Certified spanning ratio, from rows(lo_w, hi_w): for each source u in
    order, its graph distances under the lower and the upper integer
    edge-length brackets.

    Each pair's ratio lies in [dist_lo/e_hi, dist_hi/e_lo], where e_lo, e_hi
    bracket its Euclidean distance at the same scale, so the scales cancel.
    A pair too close to bracket away from 0 shifts the scale by the bits the
    closest pair needs, so the escalation cap counts from there.
    """
    g = d.graph
    if g.n < 2:
        raise ValueError("spanning ratio needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedDrawingError("spanning ratio undefined: graph disconnected")
    if has_coincident_vertices(d):
        return Interval(math.inf, math.inf)
    coords = d.coords
    shift = 0

    def attempt(bits: int) -> Optional[Interval]:
        nonlocal shift
        bits += shift
        lo_w, hi_w = {}, {}
        for e in g.edges():
            q = dist_sq(coords[e[0]], coords[e[1]])
            lo_w[e], hi_w[e] = isqrt_scaled(q.numerator, q.denominator, bits)
        best_lo = (0, 1)  # ratio bounds as num/den over scaled ints
        best_hi = (0, 1)
        for u, (dist_lo, dist_hi) in enumerate(rows(lo_w, hi_w)):
            for v in range(u + 1, g.n):
                q = dist_sq(coords[u], coords[v])
                e_lo, e_hi = isqrt_scaled(q.numerator, q.denominator, bits)
                if e_lo == 0:
                    # Shift by the least b with closest * 4**b >= 1, so that
                    # every pair brackets to >= 1.
                    closest = min_pairwise_distance_sq(d)
                    inverse = -(-closest.denominator // closest.numerator)  # ceil(1/closest)
                    shift = ((inverse - 1).bit_length() + 1) // 2
                    return None
                if dist_lo[v] * best_lo[1] > best_lo[0] * e_hi:
                    best_lo = (dist_lo[v], e_hi)
                if dist_hi[v] * best_hi[1] > best_hi[0] * e_lo:
                    best_hi = (dist_hi[v], e_lo)
        lo = max(Fraction(*best_lo), Fraction(1))
        return Interval(lo, max(Fraction(*best_hi), lo))

    return _certify(attempt, rel_tol, start_bits)


def _sssp(d: Drawing, source: int, weights: dict[tuple[int, int], int]) -> list[int]:
    """Single-source shortest paths with nonnegative integer weights (Dijkstra)."""
    n = d.graph.n
    INF = -1
    dist = [INF] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if dist[u] != du:
            continue
        for v in d.graph.adj[u]:
            w = weights[(u, v) if u < v else (v, u)]
            nd = du + w
            if dist[v] == INF or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _sssp_tree(d: Drawing, source: int, weights: dict[tuple[int, int], int]) -> list[int]:
    """Path lengths from source when the graph is a tree (plain DFS accumulation)."""
    n = d.graph.n
    dist = [-1] * n
    dist[source] = 0
    stack = [source]
    while stack:
        u = stack.pop()
        for v in d.graph.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + weights[(u, v) if u < v else (v, u)]
                stack.append(v)
    return dist


def _all_pairs(n: int, weights: dict[tuple[int, int], int]) -> list[list[int]]:
    """All-pairs shortest paths of a connected graph (Floyd–Warshall)."""
    big = sum(weights.values()) + 1  # longer than any shortest path
    dist = [[big] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (u, v), w in weights.items():
        dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return dist


def spanning_ratio(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Certified enclosure of max over pairs of (graph distance / Euclidean distance).

    Coincident vertices make the ratio infinite: the result is then the
    infinite interval (lo = hi = math.inf, `is_infinite` true).
    """
    sssp = _sssp_tree if d.graph.m == d.graph.n - 1 else _sssp

    def rows(lo_w, hi_w):
        for u in range(d.graph.n):
            yield sssp(d, u, lo_w), sssp(d, u, hi_w)

    return _ratio_enclosure(d, rel_tol, _START_BITS, rows)


def spanning_ratio_bruteforce(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Independent oracle: Floyd–Warshall all-pairs at doubled starting precision."""

    def rows(lo_w, hi_w):
        return zip(_all_pairs(d.graph.n, lo_w), _all_pairs(d.graph.n, hi_w))

    return _ratio_enclosure(d, rel_tol, 2 * _START_BITS, rows)


def edge_length_ratio(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> Interval:
    """Certified enclosure of (longest edge)/(shortest edge); the infinite
    interval when an edge has length 0."""
    edges = d.graph.edges()
    if not edges:
        raise NoEdgesError("edge-length ratio undefined: no edges")
    sqs = [dist_sq(d.coords[u], d.coords[v]) for u, v in edges]
    mn = min(sqs)
    if mn == 0:
        return Interval(math.inf, math.inf)
    ratio_sq = max(sqs) / mn
    return _certify(partial(sqrt_interval, ratio_sq), rel_tol, _START_BITS)


def is_planar_drawing(d: Drawing) -> bool:
    """Exact: no two edges share a point except a common endpoint.

    Edge pairs are pruned with an x-interval sweep before the exact predicate.
    """
    segs = []
    for u, v in d.graph.edges():
        a, b = d.coords[u], d.coords[v]
        if a == b:
            return False
        xmin, xmax = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        segs.append((xmin, xmax, a, b))
    segs.sort(key=lambda s: s[0])
    active: list[tuple] = []
    for s in segs:
        still = []
        for t in active:
            if t[1] < s[0]:
                continue
            still.append(t)
            ymin_s = min(s[2][1], s[3][1])
            ymax_s = max(s[2][1], s[3][1])
            ymin_t = min(t[2][1], t[3][1])
            ymax_t = max(t[2][1], t[3][1])
            if ymax_t < ymin_s or ymax_s < ymin_t:
                continue
            if segments_cross_improperly(s[2], s[3], t[2], t[3]):
                return False
        still.append(s)
        active = still
    return True


def is_proper_drawing(d: Drawing) -> bool:
    """Exact: all vertex points distinct and no vertex interior to an edge segment."""
    if has_coincident_vertices(d):
        return False
    for u, v in d.graph.edges():
        a, b = d.coords[u], d.coords[v]
        xmin, xmax = min(a[0], b[0]), max(a[0], b[0])
        ymin, ymax = min(a[1], b[1]), max(a[1], b[1])
        for w in range(d.graph.n):
            if w == u or w == v:
                continue
            p = d.coords[w]
            if not (xmin <= p[0] <= xmax and ymin <= p[1] <= ymax):
                continue
            if in_segment_interior(a, b, p):
                return False
    return True


def no_three_collinear(d: Drawing) -> bool:
    """Exact verdict over all vertex triples."""
    return not any_three_collinear(d.coords)


def bounding_box(d: Drawing) -> tuple[Fraction, Fraction, tuple]:
    """(width, height, ((xmin, ymin), (xmax, ymax))) of the smallest enclosing axis-parallel box."""
    if d.graph.n < 1:
        raise ValueError("bounding box needs at least one vertex")
    xs = [p[0] for p in d.coords]
    ys = [p[1] for p in d.coords]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    return (xmax - xmin, ymax - ymin, ((xmin, ymin), (xmax, ymax)))


def min_pairwise_distance_sq(d: Drawing) -> Fraction:
    if d.graph.n < 2:
        raise ValueError("needs at least 2 vertices")
    pts = sorted(d.coords)
    best = None
    # Sorted-by-x scan with the classic divide-free pruning: only compare
    # against predecessors whose squared x-gap is below the current best.
    for i, p in enumerate(pts):
        j = i - 1
        while j >= 0:
            dx = p[0] - pts[j][0]
            if best is not None and dx * dx >= best:
                break
            q = dist_sq(p, pts[j])
            if best is None or q < best:
                best = q
            j -= 1
    assert best is not None
    return best


def compute_metrics(d: Drawing, rel_tol: Fraction = DEFAULT_REL_TOL) -> MetricReport:
    """Full report; spanning ratio omitted (None) when undefined by disconnection."""
    g = d.graph
    width, height, _ = bounding_box(d) if g.n >= 1 else (Fraction(0), Fraction(0), None)
    proper = is_proper_drawing(d)
    sr: Optional[Interval] = None
    if g.n >= 2 and is_connected(g):
        sr = spanning_ratio(d, rel_tol)
    elr: Optional[Interval] = None
    if g.m >= 1:
        elr = edge_length_ratio(d, rel_tol)
    return MetricReport(
        spanning_ratio=sr,
        edge_length_ratio=elr,
        width=width,
        height=height,
        planar=is_planar_drawing(d),
        proper=proper,
        no_three_collinear=no_three_collinear(d),
        min_pairwise_distance_sq=min_pairwise_distance_sq(d) if g.n >= 2 else None,
    )
