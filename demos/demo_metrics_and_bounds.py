"""Walkthrough: certified metrics, the annulus lower bound, and recognizers.

Run:  python3 demos/demo_metrics_and_bounds.py
"""

import math
from fractions import Fraction

from spannerdraw import (
    Drawing,
    Graph,
    annulus_bound_check,
    annulus_census,
    compute_metrics,
    planar_sr1_witness,
    recognize_planar_sr1,
    recognize_sr1,
    spanning_ratio,
    star_elr_lower_bound,
)
from spannerdraw.bounds import is_sr1_drawing

F = Fraction


def main():
    # Certified enclosures: the unit square's diagonal pairs force spanning
    # ratio exactly sqrt(2); the enclosure brackets it to 1e-9 relative.
    square = Drawing.of(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        [(0, 0), (1, 0), (1, 1), (0, 1)],
    )
    report = compute_metrics(square)
    sr = report.spanning_ratio
    print(f"unit square: spanning ratio in [{float(sr.lo):.12f}, {float(sr.hi):.12f}]")
    print(f"  (sqrt(2) = {math.sqrt(2):.12f}); planar={report.planar}")

    # The lower bound, executable: a 100-leaf star on the unit circle puts all
    # 100 neighbors in the first annulus, exceeding 48 * s^2 = 94.08 for
    # s = 1.4 -- so its spanning ratio must exceed 1.4. It does, massively.
    coords = [(F(0), F(0))]
    for j in range(100):
        th = 2 * math.pi * j / 100
        coords.append((F(round(math.cos(th) * 10**15), 10**15),
                       F(round(math.sin(th) * 10**15), 10**15)))
    star = Drawing.of(Graph.from_edges(101, [(0, j) for j in range(1, 101)]), coords)
    print(f"K(1,100) on the unit circle, hub census: {annulus_census(star, 0).counts}")
    res = annulus_bound_check(star, F(14, 10))
    print(f"  violations: {[(v.vertex, v.annulus, v.count) for v in res.violations]}")
    print(f"  certified spanning ratio > 1.4: lo = {float(res.spanning_ratio.lo):.3f}")
    print(f"  verdict: {res.verdict}")
    print(f"  edge-length-ratio lower bound for degree 100, s=1.4: "
          f"{star_elr_lower_bound(100, F(14, 10))}")

    # Recognizers: spanning ratio exactly 1.
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    print(f"C5 admits a ratio-1 drawing (Hamiltonian path): {recognize_sr1(c5)}")
    fan = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)] + [(0, i) for i in range(1, 5)])
    print(f"fan admits a *planar* ratio-1 drawing: {recognize_planar_sr1(fan)}")
    w = planar_sr1_witness(fan)
    print(f"  witness coordinates: {[(str(x), str(y)) for x, y in w.coords]}")
    sr = spanning_ratio(w)
    print(f"  exact ratio-1 check: {is_sr1_drawing(w)}, "
          f"enclosure: lo = {sr.lo}, hi - 1 <= {float(sr.hi - 1):.1e}")


if __name__ == "__main__":
    main()
