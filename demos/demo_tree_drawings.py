"""Walkthrough: the two tree constructions and the tough-graph pipeline.

Run:  python3 demos/demo_tree_drawings.py
"""

import math
import random
from fractions import Fraction

from spannerdraw import (
    Epsilon,
    Graph,
    RootedTree,
    draw_graph_via_tough_tree,
    draw_tree_planar,
    draw_tree_proper,
    is_planar_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)
from spannerdraw.metrics import bounding_box


def random_tree(n, maxdeg, seed):
    rng = random.Random(seed)
    edges, deg = [], [0] * n
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if deg[u] < maxdeg])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph.from_edges(n, edges)


def main():
    eps = Epsilon(Fraction(1))
    t = RootedTree.from_graph(random_tree(60, 3, seed=1), 0)

    # Proper drawing: split at a balanced edge separator, draw the parts
    # recursively, and slide the second part until no three vertices align.
    d = draw_tree_proper(t, eps)
    sr = spanning_ratio(d)
    print("proper tree drawing (n=60, max degree 3):")
    print(f"  spanning ratio <= {float(sr.hi):.6f} (guarantee: 1.5)")
    print(f"  no three collinear: {no_three_collinear(d)}")
    print(f"  min pairwise distance^2 >= 1: {min_pairwise_distance_sq(d) >= 1}")

    # Planar drawing: layered placement on the integer grid, subtrees ordered
    # by size with geometrically growing gaps, largest subtree kept level.
    d = draw_tree_planar(t, eps)
    sr = spanning_ratio(d)
    width, height, _ = bounding_box(d)
    print("planar tree drawing:")
    print(f"  exact planarity: {is_planar_drawing(d)}")
    print(f"  spanning ratio <= {float(sr.hi):.6f} (guarantee: 1.5)")
    print(f"  bounding box: width {width}, height {height} <= log2(2n) = {math.log2(2 * t.n):.2f}")

    # General graphs: route through a degree-bounded spanning tree; remaining
    # edges only shorten paths. A missed degree target degrades the
    # edge-length-ratio exponent and is reported, not raised.
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
    res = draw_graph_via_tough_tree(g, d_target=3, eps=eps)
    print("tough-graph pipeline (C8 + chord):")
    print(f"  achieved tree degree {res.achieved_degree}, warning: {res.warning}")
    print(f"  spanning ratio <= {float(spanning_ratio(res.drawing).hi):.6f}")


if __name__ == "__main__":
    main()
