"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Drawings produced by criteria 1-5 are stashed in a module-level registry so
criterion 6 can re-check all of them against the annulus bound at their own
certified spanning ratio.
"""

import itertools
import json
import math
import time
from fractions import Fraction

from conftest import (
    random_connected_graph,
    random_connected_planar_graph,
    random_drawing,
    random_tree,
    unit_circle_star,
)
from oracles import intersects, spanning_ratio_bruteforce, tree_planar_size
from spannerdraw import cli
from spannerdraw.bounds import annulus_bound_check, recognize_sr1, sr1_witness
from spannerdraw.drawing import Drawing
from spannerdraw.geometry import dist_sq
from spannerdraw.graph import Graph
from spannerdraw.layout import (
    Epsilon,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_proper,
)
from spannerdraw.metrics import (
    bounding_box,
    is_planar_drawing,
    min_pairwise_distance_sq,
    no_three_collinear,
    spanning_ratio,
)

F = Fraction
REL_TOL = F(1, 10**9)

# (label, drawing, certified spanning-ratio hi) from criteria 1-5, consumed by
# criterion 6.
_REGISTRY: list[tuple[str, Drawing, Fraction]] = []


def _announce(capsys, k: int):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: PASS", flush=True)


def test_acceptance_1_planar_spanner(capsys):
    start = time.time()
    for n in (10, 20, 40):
        for i in range(20):
            g = random_connected_planar_graph(n, seed=1000 * n + i)
            for eps_v in (F(1), F(1, 2), F(1, 10)):
                d = draw_planar_spanner(g, Epsilon(eps_v))
                assert is_planar_drawing(d), (n, i, eps_v)
                sr = spanning_ratio(d, REL_TOL)
                assert sr.hi < 1 + eps_v, (n, i, eps_v, sr)
                _REGISTRY.append((f"planar-n{n}-i{i}-e{eps_v}", d, sr.hi))
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime budget exceeded: {elapsed:.1f}s"
    _announce(capsys, 1)


def test_acceptance_2_base_case_exactness(capsys):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    d = draw_planar_spanner(g, Epsilon(F(1)))
    sr = spanning_ratio(d, F(1, 10**14))
    assert sr.hi - sr.lo <= F(1, 10**12)
    mid = (sr.lo + sr.hi) / 2
    assert abs(mid - F(3, 2)) <= F(1, 10**12)
    _announce(capsys, 2)


def test_acceptance_3_proper_spanner(capsys):
    for i in range(20):
        n = 10 + (i * 7) % 31  # sizes spread over 10..40
        g = random_connected_graph(n, extra_edges=(i * 3) % (n + 1), seed=7000 + i)
        for eps_v in (F(1), F(1, 2)):
            d = draw_proper_spanner(g, Epsilon(eps_v))
            assert no_three_collinear(d), (i, eps_v)
            sr = spanning_ratio(d, REL_TOL)
            assert sr.hi < 1 + eps_v, (i, eps_v, sr)
            _REGISTRY.append((f"proper-i{i}-e{eps_v}", d, sr.hi))
    _announce(capsys, 3)


def test_acceptance_4_proper_tree_drawing(capsys):
    eps = Epsilon(F(1))
    gamma = eps.tree_gamma
    for i in range(50):
        maxdeg = (3, 4, 5)[i % 3]
        n = (20, 50, 90, 140, 200)[i % 5]
        g = random_tree(n, maxdeg, seed=4000 + i)
        d = draw_tree_proper(g, eps)
        sr = spanning_ratio(d, REL_TOL)
        assert sr.hi <= F(gamma + 2, gamma), (i, sr)
        assert min_pairwise_distance_sq(d) >= 1, i
        dd = max(2, g.max_degree())
        exponent = math.log2(gamma + 2) / math.log2(dd / (dd - 1))
        bound = 2 * ((gamma + 2) / (gamma + 1)) * (gamma + 2) * n**exponent
        xs = [x for x, _ in d.coords]
        width = float(max(xs) - min(xs))
        assert width <= bound, (i, width, bound)
        _REGISTRY.append((f"tree-proper-i{i}", d, sr.hi))
    assert F(gamma + 2, gamma) == F(3, 2)
    _announce(capsys, 4)


def test_acceptance_5_planar_tree_drawing(capsys):
    eps = Epsilon(F(1))
    for i in range(50):
        maxdeg = (3, 4)[i % 2]
        n = (30, 70, 120, 250, 500)[i % 5]
        g = random_tree(n, maxdeg, seed=5000 + i)
        d = draw_tree_planar(g, eps)
        _, height = bounding_box(d)
        assert is_planar_drawing(d), i
        sr = spanning_ratio(d, REL_TOL)
        assert sr.hi <= F(3, 2), (i, sr)
        assert all(
            dist_sq(d.coords[u], d.coords[v]) >= 1 for u, v in g.edges()
        ), i
        assert height <= math.log2(tree_planar_size(g)), (i, height)
        ys = [y for _, y in d.coords]
        assert max(ys) - min(ys) == height, i
        _REGISTRY.append((f"tree-planar-i{i}", d, sr.hi))
    _announce(capsys, 5)


def test_acceptance_6_lower_bound_consistency(capsys):
    d = unit_circle_star(100)
    res = annulus_bound_check(d, F(14, 10))
    assert len(res.violations) == 1
    assert res.violations[0].count == 100
    assert res.threshold == F(2352, 25)  # 48 * 1.4^2 = 94.08 < 100
    assert res.verdict == "Consistent"
    sr = spanning_ratio(d, F(1, 10**9))
    target = 1 / math.sin(math.pi / 100)
    mid = float((sr.lo + sr.hi) / 2)
    assert abs(mid - target) / target <= 1e-6
    # Every drawing from criteria 1-5, checked at its own certified ratio.
    assert len(_REGISTRY) == 180 + 40 + 50 + 50
    for label, drawing, s_hi in _REGISTRY:
        check = annulus_bound_check(drawing, max(s_hi, F(1)))
        assert check.violations == (), label
        assert check.verdict == "Consistent", label
    _announce(capsys, 6)


def test_acceptance_7_oracle_equivalence(capsys):
    for i in range(100):
        n = (6, 10, 16, 24, 34, 50)[i % 6]
        d = random_drawing(n, seed=7700 + i)
        a = spanning_ratio(d, REL_TOL)
        b = spanning_ratio_bruteforce(d, REL_TOL)
        assert intersects(a, b), (i, a, b)
        assert a.rel_width() <= REL_TOL, i
        assert b.rel_width() <= REL_TOL, i
    _announce(capsys, 7)


def test_acceptance_8_recognizers(capsys):
    disagreements = 0
    for i in range(200):
        n = 2 + i % 7  # sizes 2..8
        g = random_connected_graph(n, extra_edges=i % (n + 2), seed=8800 + i)
        brute = any(
            all(g.has_edge(p[j], p[j + 1]) for j in range(n - 1))
            for p in itertools.permutations(range(n))
        )
        if recognize_sr1(g) != brute:
            disagreements += 1
        if brute:
            w = sr1_witness(g)
            assert w is not None, i
            sr = spanning_ratio(w, F(1, 10**13))
            assert sr.lo == 1 and sr.hi - 1 <= F(1, 10**12), (i, sr)
    assert disagreements == 0
    _announce(capsys, 8)


def test_acceptance_9_determinism(tmp_path, capsys):
    inputs = {
        "planar": (4, [[0, 1], [1, 2], [2, 3], [0, 3]]),
        "proper": (4, [[i, j] for i in range(4) for j in range(i + 1, 4)]),
        "tree-proper": (9, [[i, (i - 1) // 2] for i in range(1, 9)]),
        "tree-planar": (9, [[i, (i - 1) // 2] for i in range(1, 9)]),
        "tough": (6, [[i, (i + 1) % 6] for i in range(6)]),
    }
    for kind, (n, edges) in inputs.items():
        src = tmp_path / f"{kind}.json"
        src.write_text(json.dumps({"version": "spannerdraw/1", "n": n, "edges": edges}))
        outputs = []
        for run in range(2):
            out = tmp_path / f"{kind}-{run}.json"
            code = cli.main(
                [
                    "draw",
                    kind,
                    str(src),
                    "--epsilon",
                    "1/2",
                    "-o",
                    str(out),
                ]
            )
            assert code == 0, kind
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], kind
    _announce(capsys, 9)
