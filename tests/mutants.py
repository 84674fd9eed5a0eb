"""The standing mutation check: faults planted by hand, one at a time, each
of which named tests must catch.

    python tests/mutants.py

MUTANTS holds one Mutant per fault: a file under the repository root, an
old text that occurs in it exactly once, the new text, the ids of the tests
expected to fail, and why the fault matters. The script first runs the
union of the ids on the tree as it is and requires a pass. Then, one
process at a time, it copies src/ and tests/ (and pyproject.toml, with a
link to bench/, which the tests read) into a temporary directory, applies
one mutant there, runs

    python -m pytest -q -x -p no:cacheprovider <ids>

on the copy, and requires a failure. It prints one line per mutant and
exits 1, naming each, if a mutant survives or its old text does not occur
exactly once. It takes about 30 s on a 2-core host, so it is a separate
command; Tier-1 only checks that every old text occurs exactly once and
that every named test exists (tests/test_source.py). A change that
rewrites the code under a mutant restates the same fault in the new code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    old: str
    new: str
    ids: tuple[str, ...]
    reason: str


SWEEP = "tests/test_metrics.py::TestPlanarSweepCases::"
PLANARITY = "tests/test_metrics.py::TestPlanarity::"
FAR_RIGHT = "tests/test_exact_geometry.py::TestFarRight::"
COLLINEAR = "tests/test_exact_geometry.py::TestAnyThreeCollinear::"
SLOPES = "tests/test_exact_geometry.py::TestSlopeFingerprint::"
PROPER = "tests/test_layout.py::TestProperSpanner::"
PRUNED = "tests/test_metrics.py::TestPrunedScan::"
LENGTH = "tests/test_metrics.py::TestLength::"
FAR = "tests/test_metrics.py::TestFarPlacement::"
DRAWING = "tests/test_fileio_cli.py::TestDrawingValidation::"
TREE_PROPER = "tests/test_layout.py::TestTreeProper::"
TOUGH_TREE = "tests/test_graph.py::TestDegreeBoundedSpanningTree::"
TREE_PLANAR = "tests/test_layout.py::TestTreePlanar::"
WALK = "tests/test_metrics.py::TestSpanningRatio::"

MUTANTS = [
    # The planarity sweep's order checks (metrics.is_planar_drawing).
    Mutant("src/spannerdraw/metrics.py",
           "                if i:\n                    t = status[i - 1]",
           "                if False:\n                    t = status[i - 1]",
           (SWEEP + "test_upper_member_deleted_first",),
           "the lower-neighbor check dropped: an upper member that ends below its crossing partner passes"),
    Mutant("src/spannerdraw/metrics.py",
           "                if i < len(status):\n                    t = status[i]",
           "                if False:\n                    t = status[i]",
           (SWEEP + "test_lower_member_deleted_first",),
           "the upper-neighbor check dropped: a lower member that ends above its crossing partner passes"),
    Mutant("src/spannerdraw/metrics.py",
           "(b[1] - ay) * (px - ax) <= 0:",
           "(b[1] - ay) * (px - ax) < 0:",
           (SWEEP + "test_edge_ending_inside_an_active_edge",),
           "< for <= in the lower check: an edge that ends on the edge below it passes"),
    Mutant("src/spannerdraw/metrics.py",
           "if b != p and (b[0] - ax) * (py - ay) - (b[1] - ay) * (px - ax) <= 0:",
           "if (b[0] - ax) * (py - ay) - (b[1] - ay) * (px - ax) <= 0:",
           (SWEEP + "test_common_right_end_needs_no_test",),
           "the common-right-end exception dropped: two edges that end together fail the assert"),
    Mutant("src/spannerdraw/metrics.py",
           "for q in sorted(others):",
           "for q in sorted(others, reverse=True):",
           (PLANARITY + "test_edge_ending_where_another_starts_true",),
           "insertions before deletions at a point: edges that meet end to end are active together"),
    Mutant("src/spannerdraw/metrics.py",
           "                    elif o < 0:\n                        hi = mid",
           "                    elif o <= 0:\n                        hi = mid",
           (SWEEP + "test_collinear_overlap_up_to_a_common_right_end",),
           "a probe's zero taken as below: an edge that starts inside another passes"),
    Mutant("src/spannerdraw/metrics.py",
           "            if q == last:\n                continue",
           "            if False:\n                continue",
           (PLANARITY + "test_same_segment_twice_through_coincident_vertices",),
           "equal segments counted twice: two edges on one segment fail the assert"),
    # The axis count and the far-right lemma (geometry.far_right, _far_placed,
    # any_three_collinear) and the proper construction's height search.
    Mutant("src/spannerdraw/geometry.py",
           "max(0, y - yhi, ylo - y)) < x - w",
           "max(0, y - yhi, ylo - y)) <= x - w",
           (FAR_RIGHT + "test_boundary_is_strict",),
           "<= in the lemma: a point on the bound passes"),
    Mutant("src/spannerdraw/geometry.py",
           "(yhi - ylo + max(0, y - yhi, ylo - y))",
           "(yhi - ylo)",
           (FAR_RIGHT + "test_boundary_is_strict",),
           "out dropped: a point beside the box, above or below, is not lifted off the lines"),
    Mutant("src/spannerdraw/geometry.py",
           "max(0, y - yhi, ylo - y))",
           "max(0, y - yhi))",
           (FAR_RIGHT + "test_boundary_is_strict",),
           "out's below-the-box term dropped: a point below the box passes too early"),
    Mutant("src/spannerdraw/geometry.py",
           "w, ylo, yhi = x, min(ylo, y), max(yhi, y)",
           "w, ylo, yhi = x, ylo, max(yhi, y)",
           (FAR_RIGHT + "test_planted_triple_found_by_the_scan",),
           "ylo not lowered in _far_placed: a triple below the first point's height is missed"),
    Mutant("src/spannerdraw/geometry.py",
           "max(Counter(axis).values()) >= 3",
           "max(Counter(axis).values()) >= 2",
           (COLLINEAR + "test_axis_count_matches_bruteforce",),
           "an x or a y of 2 counted: two points on one vertical or horizontal line are no collinear triple"),
    Mutant("src/spannerdraw/geometry.py",
           "for axis in zip(*points)",
           "for axis in list(zip(*points))[:1]",
           (COLLINEAR + "test_axis_count_matches_bruteforce", FAR_RIGHT + "test_far_placed_sets_match_bruteforce"),
           "the y axis not counted: the lemma passes three points at one height, and a horizontal triple takes keys"),
    Mutant("src/spannerdraw/geometry.py",
           "if not far_right((x0, w, ylo, yhi), (x, y)):",
           "if not far_right((x0 + 1, w, ylo, yhi), (x, y)):",
           (FAR_RIGHT + "test_planted_triple_found_by_the_scan",),
           "a box one column narrower in _far_placed: the first point falls out of it"),
    # The slope fingerprint in front of the exact keys (geometry._slopes_repeat).
    Mutant("src/spannerdraw/geometry.py",
           "_slopes_repeat(z, rest) and on_line_through_two(z, rest)",
           "_slopes_repeat(z, rest)",
           (SLOPES + "test_near_collision_comes_out_false",),
           "the exact confirmation dropped: two slopes that round to one double pass for a line"),
    Mutant("src/spannerdraw/geometry.py",
           "if bits <= FLOAT_BITS:",
           "if bits > FLOAT_BITS:",
           (COLLINEAR + "test_each_pair_keyed_once",),
           "the gate flipped: small coordinates take exact keys, and big ones slopes that collide or overflow"),
    # The tree-proper construction's carried facts (layout.draw_tree_proper,
    # _split, _merge_tree_parts) and the degree-bounded tree's carried
    # rooting (graph.degree_bounded_spanning_tree, _rehang).
    Mutant("src/spannerdraw/layout.py",
           "    whole = drawn[0]\n",
           "    whole = drawn[0]\n    on_line_through_two(whole.pts[0], whole.pts[1:])\n",
           (TREE_PROPER + "test_merge_keys_from_the_smaller_part",),
           "a key builder outside the merges: draw_tree_proper keys more than its merges"),
    Mutant("src/spannerdraw/layout.py",
           "width = x_off + lower.width * s2",
           "width = upper.width * s1",
           (TREE_PROPER + "test_merges_carry_what_they_know",),
           "the carried width taken from the upper part only: the next merge's shift and gate read too small a width"),
    Mutant("src/spannerdraw/layout.py",
           "kids = [sorted((-size[c], c) for c in cs) for cs in t.children]",
           "kids = [sorted(((-size[c], c) for c in cs), key=lambda e: (e[0], -e[1])) for cs in t.children]",
           (TREE_PROPER + "test_merges_carry_what_they_know",),
           "the separator tie broken by the greatest v: a star splits off its last leaf first"),
    Mutant("src/spannerdraw/layout.py",
           "width // g, common // g)",
           "width // g, common)",
           (TREE_PROPER + "test_merges_carry_what_they_know",),
           "the carried gcd left undivided: a later merge divides its points by a factor they lack"),
    Mutant("src/spannerdraw/layout.py",
           "        size[y] -= s\n",
           "",
           (TREE_PROPER + "test_merges_carry_what_they_know",),
           "the sizes above a cut left as they were: the upper part's next separator is chosen on stale sizes"),
    Mutant("src/spannerdraw/graph.py",
           "    up[x], depth[x] = y, depth[y] + 1\n",
           "    up[x] = y\n",
           (TOUGH_TREE + "test_carried_rooting_describes_every_swap",),
           "the re-hung side's depth left stale: the cycles climb from the wrong heights"),
    Mutant("src/spannerdraw/layout.py",
           "box = (0, w, 0, y_max)",
           "box = (0, w, 0, 0)",
           (PROPER + "test_lemma_boxes_hold_the_placed_vertices",),
           "the height search's box without y_max: it no longer holds the placed vertices"),
    # Lengths without a square root on axis-parallel segments (metrics._length).
    Mutant("src/spannerdraw/metrics.py",
           "return m, m + (r != 0)",
           "return m, m + 1",
           (LENGTH + "test_matches_isqrt_scaled",),
           "r != 0 dropped: an exact axis-parallel length is bracketed one unit wide"),
    Mutant("src/spannerdraw/metrics.py",
           "    if dx and dy:\n        return isqrt_scaled(",
           "    if dx or dy:\n        return isqrt_scaled(",
           (LENGTH + "test_matches_isqrt_scaled",),
           "the shortcut condition taken with or: every axis-parallel length takes a square root"),
    # The spanning ratio's pruned pass (metrics._pruned_scan, _graph_dist,
    # _spanning_ratios).
    Mutant("src/spannerdraw/metrics.py",
           "H = [h << 64 for h in hmax] + [r << 64 for r in R]",
           "H = [h << 64 for h in R] + [r << 64 for r in R]",
           (PRUNED + "test_tree_cases_match_oracle",),
           "R for hmax: a subtree's block bound forgets its deeper positions"),
    Mutant("src/spannerdraw/metrics.py",
           "p = (g_lo << 64) // e_hi",
           "p = -(-(g_lo << 64) // e_hi)",
           (PRUNED + "test_tree_cases_match_oracle",),
           "p rounded up: the block test runs above the running lower bound"),
    Mutant("src/spannerdraw/metrics.py",
           "dx = X0[s] - px if px < X0[s] else px - X1[s] if px > X1[s] else 0",
           "dx = X0[s] - px if px < X0[s] else px - X1[s]",
           (PRUNED + "test_tree_cases_match_oracle",),
           "the box clamp dropped: a position inside a box's x range gets a gap"),
    Mutant("src/spannerdraw/metrics.py",
           "xs = [coords[v][0] for v in order]",
           "xs = [coords[v][1] for v in order]",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "boxes built on the wrong axis: the gaps between boxes are not distances"),
    Mutant("src/spannerdraw/metrics.py",
           "else _spanning_tree(g, _prim(g.adj, coords))",
           "else _spanning_tree(g, _prim(g.adj, [(0, 0)] * g.n))",
           (PRUNED + "test_walk_tree_is_minimum",),
           "the non-tree walk built on Prim's tree of no lengths: a spanning tree by vertex ids, "
           "not the minimum one the pass is tuned for"),
    Mutant("src/spannerdraw/metrics.py",
           "parts = [[n + x] for x in range(n)]",
           "parts = [[] for x in range(n)]",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "a split's root alone dropped: the pairs with the root of a subtree are lost"),
    Mutant("src/spannerdraw/metrics.py",
           "h = H[a] + H[b] + o",
           "h = H[b] + o",
           (PRUNED + "test_graph_cases_match_oracle",),
           "one node's hmax dropped from the block test: blocks are skipped too early"),
    Mutant("src/spannerdraw/metrics.py",
           "stack.append((top[k], top[k + 1:]))",
           "stack.append((top[k], top[k + 2:]))",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "the first later part skipped: the pairs of neighboring parts are lost"),
    Mutant("src/spannerdraw/metrics.py",
           "                            o = p - two_rc\n                            oi = o + H[a]",
           "                            oi = o + H[a]",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "a stale offset after t rises: the block test keeps the old t"),
    Mutant("src/spannerdraw/metrics.py",
           "        two_rc = low[c] << 65\n        o = p - two_rc",
           "        two_rc = low[c] << 65\n        o = -two_rc",
           (PRUNED + "test_margin_holds_at_each_new_ancestor",),
           "the margin dropped at the start of each c: blocks are skipped at t E, not t (E - 1)"),
    Mutant("src/spannerdraw/metrics.py",
           "                        if g_hi * best_hi[1] > best_hi[0] * e_lo:\n"
           "                            best_hi = best[1] = (g_hi, e_lo)\n",
           "",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "the best_hi update dropped: the upper bound stays at the lower one"),
    Mutant("src/spannerdraw/metrics.py",
           "        if u != source:",
           "        if source is None:",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "_graph_dist resumes the first source's searches: a pair of another source takes that source's distances"),
    # Connectivity from the walk the pass needs (metrics._spanning_tree,
    # _spanning_ratios), and the tree-planar construction's re-hang.
    Mutant("src/spannerdraw/metrics.py",
           "        if pos[u] >= 0:\n            return None  # revisited: g has a cycle\n",
           "",
           (WALK + "test_one_connectivity_walk_per_report",),
           "the walk's revisit check dropped: a triangle and an isolated vertex walk n positions, "
           "and the disconnected drawing gets a spanning ratio"),
    Mutant("src/spannerdraw/metrics.py",
           "    if len(order) < n:\n        return None  # missed: g is not connected\n",
           "",
           (WALK + "test_one_connectivity_walk_per_report",),
           "the walk's reach check dropped: a walk that misses a vertex, of Prim's tree or of n - 1 edges, "
           "leaves a short tree for the pass"),
    Mutant("src/spannerdraw/layout.py",
           "    v, p = root, parent[root]\n",
           "    v, p = t.root, parent[t.root]\n",
           (TREE_PLANAR + "test_one_drawing_whatever_the_root",),
           "the re-hang started from t's root: a tree not rooted at its least leaf keeps its old children"),
    # The far-placement pass: the chain's integer root distances
    # (metrics._far_order, _far_roots), its ancestor term, and its
    # hand-over to the graph's tree.
    Mutant("src/spannerdraw/metrics.py",
           "(min(a, b) + 1) // 2",
           "min(a, b) // 2",
           (FAR + "test_far_bound_is_sound",),
           "b // 2 for ceil(b / 2) in c_k: a diagonal edge's bound falls below its length"),
    Mutant("src/spannerdraw/metrics.py",
           "U.append(U[j] + -(-(c << bits) // L))",
           "U.append(U[j] + (c << bits) // L)",
           (FAR + "test_far_bound_is_sound",),
           "c_k scaled by the floor: the bound falls below an edge's upper bracket"),
    Mutant("src/spannerdraw/metrics.py",
           "U.append(U[j] + -(-(c << bits) // L))",
           "U.append(-(-(c << bits) // L))",
           (FAR + "test_far_bound_is_sound",),
           "U_k without U_{w_k}: a root distance forgets the path from w_k down to v_0"),
    Mutant("src/spannerdraw/metrics.py",
           "_pruned_scan(chain, U, [0] * g.n,",
           "_pruned_scan(chain, U, U,",
           (FAR + "test_matches_oracles_on_small_drawings", FAR + "test_tree_proper_shapes_match_oracles"),
           "the chain given low = U, the graph tree's ancestor term: U_k + U_u - 2 U_k is no path's length"),
    Mutant("src/spannerdraw/metrics.py",
           "            _pruned_scan(walk, R, R, brackets, dist, best)\n",
           "            best = [(0, 1), (0, 1)]\n            _pruned_scan(walk, R, R, brackets, dist, best)\n",
           (FAR + "test_drawings_not_far_placed_hand_over",),
           "the chain pass's bounds dropped at a hand-over: its pairs are lost"),
    Mutant("src/spannerdraw/metrics.py",
           "                        if budget < 0:",
           "                        if budget <= 0:",
           (FAR + "test_a_pass_of_exactly_its_budget_finishes",),
           "the budget test off by one: a chain pass that needs exactly its budget hands over"),
    # The value types (drawing.Drawing, layout.Epsilon, frozen.Frozen).
    Mutant("src/spannerdraw/drawing.py",
           "type(p[0]) is int and type(p[1]) is int",
           "isinstance(p[0], int) and isinstance(p[1], int)",
           (DRAWING + "test_non_int_coordinate_raises_type_error",),
           "isinstance for the type test in the fast path: a bool coordinate passes"),
    Mutant("src/spannerdraw/layout.py",
           "        if value <= 0:\n            raise ValueError(\"epsilon must be positive\")\n",
           "",
           ("tests/test_layout.py::TestEpsilon::test_positive_required",),
           "the <= 0 check dropped: a zero or negative epsilon builds drawings with no guarantee"),
    Mutant("src/spannerdraw/frozen.py",
           "        raise AttributeError(f\"cannot assign a {type(value).__name__} to {name!r}: \"\n"
           "                             f\"{type(self).__name__} is immutable\")",
           "        object.__setattr__(self, name, value)",
           ("tests/test_values.py::test_assignment_raises_attribute_error",),
           "the frozen guard removed: a Graph, a Drawing or an Epsilon changes after it is checked and hashed"),
]


def _pytest(cwd: Path, ids) -> subprocess.CompletedProcess:
    """One pytest process on ids, importing the package from cwd/src."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _copy(workdir: Path) -> None:
    """src/, tests/ and pyproject.toml copied into workdir, bench/ linked."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", workdir / "pyproject.toml")
    os.symlink(ROOT / "bench", workdir / "bench")


def stale(m: Mutant) -> bool:
    """True when m's old text does not occur exactly once in its file."""
    return (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1


def main() -> int:
    ids = sorted({i for m in MUTANTS for i in m.ids})
    base = _pytest(ROOT, ids)
    if base.returncode != 0:
        print(base.stdout[-3000:])
        print(f"the unmutated tree fails the {len(ids)} tests")
        return 1
    bad = []
    for k, m in enumerate(MUTANTS):
        if stale(m):
            print(f"STALE    {k:2} {m.path}: the old text does not occur exactly once")
            bad.append(k)
            continue
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            _copy(workdir)
            target = workdir / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
            caught = _pytest(workdir, m.ids).returncode == 1  # a test failed
        print(f"{'killed' if caught else 'SURVIVED':8} {k:2} {m.path}: {m.reason}")
        if not caught:
            bad.append(k)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed: {bad}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
