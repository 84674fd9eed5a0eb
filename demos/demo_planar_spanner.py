"""Walkthrough: planar drawings with spanning ratio below 1 + epsilon.

Builds a planar spanner drawing of a random planar graph, shows the canonical
ordering pipeline underneath it, and verifies every claim exactly.

Run:  python3 demos/demo_planar_spanner.py
"""

import random
from fractions import Fraction

import networkx as nx

from spannerdraw import (
    Epsilon,
    Graph,
    augment_to_maximal_with_canonical_order,
    canonical_order_validate,
    draw_planar_spanner,
    is_planar_drawing,
    spanning_ratio,
)
from spannerdraw.fileio import export_svg


def random_planar(n, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    G = nx.Graph(edges)
    G.add_nodes_from(range(n))
    for _ in range(6 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or G.has_edge(u, v):
            continue
        G.add_edge(u, v)
        if not nx.check_planarity(G)[0]:
            G.remove_edge(u, v)
    return Graph.from_edges(n, sorted((min(u, v), max(u, v)) for u, v in G.edges()))


def main():
    g = random_planar(16, seed=3)
    print(f"input: n={g.n}, m={g.m} (connected planar)")

    # Step 1: augment to a maximal planar supergraph and compute a canonical
    # vertex order. The validator re-derives every structural property.
    co = augment_to_maximal_with_canonical_order(g)
    reason = []
    assert canonical_order_validate(co, reason), reason
    print(f"augmented to maximal planar: m={co.supergraph.m} (= 3n-6 = {3*g.n-6})")
    print(f"canonical order: {list(co.order)}")

    # Step 2: draw. Each vertex is placed above the current drawing, far
    # enough that detours through it stay short relative to distances.
    for eps_v in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        d = draw_planar_spanner(g, Epsilon(eps_v))
        assert is_planar_drawing(d)  # exact rational predicate
        sr = spanning_ratio(d)  # certified enclosure
        print(
            f"eps={eps_v}: planar drawing, spanning ratio in "
            f"[{float(sr.lo):.9f}, {float(sr.hi):.9f}] < {float(1+eps_v)}"
        )
        assert sr.hi < 1 + eps_v

    # Coordinates grow quickly with n and 1/eps -- that is the price of the
    # guarantee. The SVG export rescales for display only.
    d = draw_planar_spanner(g, Epsilon(Fraction(1, 2)))
    ys = [y for _, y in d.coords]
    print(f"drawing height ~ 10^{len(str(int(max(ys) - min(ys))))} units")
    with open("demo_planar_spanner.svg", "w", encoding="utf-8") as fh:
        fh.write(export_svg(d))
    print("wrote demo_planar_spanner.svg")


if __name__ == "__main__":
    main()
