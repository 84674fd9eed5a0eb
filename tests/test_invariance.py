"""Metamorphic invariance of the certificates.

A vertex relabeling, the symmetries of the square and an integer
translation keep every pair's graph and Euclidean distances, so they keep
every edge bracket and every enclosure. They also keep the planar, proper
and collinear verdicts, the closest distance and the edge-length ratio;
width and height swap where the axes do. The transforms steer the
spanning ratio's paths: relabeling moves the root of its tree, a quarter
turn or x <-> y swaps the far-placement order's (y, x) and (x, y), and a
translation by 3**60 moves small coordinates past 53 bits.
"""

import random

from hypothesis import given, settings

from spannerdraw import Drawing, Graph, fileio
from spannerdraw.errors import SpannerDrawError
from spannerdraw.exact import Interval
from spannerdraw.metrics import (
    bounding_box,
    edge_length_ratio,
    is_planar_drawing,
    is_proper_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)
from test_robustness import drawings

CERTIFICATES = {
    "spanning_ratio": spanning_ratio,
    "is_planar_drawing": is_planar_drawing,
    "is_proper_drawing": is_proper_drawing,
    "no_three_collinear": no_three_collinear,
    "min_pairwise_distance_sq": min_pairwise_distance_sq,
    "edge_length_ratio": edge_length_ratio,
    "width_height": lambda d: bounding_box(d)[:2],
}


def outcome(certify, d):
    """certify(d), an Interval as (lo, hi), or the name of the documented
    error it raised."""
    try:
        value = certify(d)
    except (SpannerDrawError, ValueError) as exc:
        return type(exc).__name__
    return (value.lo, value.hi) if isinstance(value, Interval) else value


def report(d, swapped=False):
    """Every certificate's outcome on d; width and height swapped if asked."""
    found = {name: outcome(certify, d) for name, certify in CERTIFICATES.items()}
    if swapped and isinstance(found["width_height"], tuple):
        found["width_height"] = found["width_height"][::-1]
    return found


def relabeled(d):
    """d with its vertices renamed by a seeded permutation."""
    n = d.graph.n
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    points = [None] * n
    for v in range(n):
        points[perm[v]] = d.points[v]
    return Drawing(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in d.graph.edges()]), tuple(points), d.den)


def moved(d, f):
    """d with every integer point p taken to f(*p), over the same den."""
    return Drawing(d.graph, tuple(f(x, y) for x, y in d.points), d.den)


# name: (transform, whether it swaps the axes)
TRANSFORMS = {
    "relabeling": (relabeled, False),
    "quarter turn": (lambda d: moved(d, lambda x, y: (-y, x)), True),
    "reflection": (lambda d: moved(d, lambda x, y: (-x, y)), False),
    "x <-> y": (lambda d: moved(d, lambda x, y: (y, x)), True),
    "translation": (lambda d: moved(d, lambda x, y: (x + 3**60 * d.den, y + 3**60 * d.den)), False),
}


def assert_invariant(d, key):
    before = report(d)
    for name, (transform, swaps) in TRANSFORMS.items():
        assert report(transform(d), swaps) == before, (key, name)


def test_benchmark_drawings_invariant(bench301):
    # A seeded sample of the seed-301 benchmark drawings with n <= 250:
    # planar and proper ones past 53 bits, tough and tree-planar ones
    # below, which the translation moves past it.
    drawn = [(op, d) for w in ("planar", "proper", "tree-planar")
             for op, d in zip(bench301.ops[w], bench301.drawings(w)) if op.n <= 250]
    sample = random.Random(301).sample(drawn, 40)
    assert {op.kind for op, _ in sample} == {"planar", "proper", "tough", "tree-planar"}
    for op, d in sample:
        assert_invariant(d, (op.kind, op.id))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawings())
def test_degenerate_drawings_invariant(obj):
    # Small drawings with coincident points, collinear triples, pairs a
    # hair apart and far points; disconnected and edgeless ones too.
    try:
        d = fileio.drawing_from_obj(obj)
    except SpannerDrawError:
        return  # an unparsable coordinate
    assert_invariant(d, obj)
