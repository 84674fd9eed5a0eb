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

on the copy, and requires a failure. Each run has its own session, an
address space of MEMORY_LIMIT set in the child, and, for a mutant, a wall
time taken from the unmutated run's; at a limit its process group is
killed, and the mutant is printed as "timeout" or "memory", counted as
caught, and counted apart in the summary. It prints one line per mutant
and exits 1, naming each, if a mutant survives or its old text does not
occur exactly once. It takes about 30 s on a 2-core host, so it is a separate
command; Tier-1 only checks that every old text occurs exactly once and
that every named test exists (tests/test_source.py). A change that
rewrites the code under a mutant restates the same fault in the new code.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# The address space of each pytest run, set in the child alone, so that a
# mutant that allocates without bound stops at a MemoryError instead of
# taking the host's memory. The unmutated run passes at 128 MiB, and numpy
# with OpenBLAS imports at 512 MiB on a 2-core host; were the limit too
# tight, the unmutated run would fail, not fake a kill.
MEMORY_LIMIT = 1 << 30
# A mutant's run may take TIME_FACTOR times the unmutated run's wall time,
# and at least MIN_TIMEOUT seconds, before its process group is killed: a
# mutant that loops is reported as a timeout.
TIME_FACTOR = 10
MIN_TIMEOUT = 120


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
WRITER = "tests/test_fileio_cli.py::TestRoundTrip::"
EMBED = "tests/test_embedding.py::TestPlanarityTestEmbed::"
AUGMENT = "tests/test_embedding.py::TestAugmentation::"
PLANAR = "tests/test_layout.py::TestPlanarSpanner::"
CLOSED_FORM = "tests/test_layout.py::TestClosedFormRadii::"
ELR = "tests/test_metrics.py::TestEdgeLengthRatio::"
ORIENT = "tests/test_metrics.py::TestOrientationSign::"
SWEEPS = "tests/test_metrics.py::TestSweepsMatchOracles::"

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
    Mutant("src/spannerdraw/graph.py",
           "            if len(tree_adj[u]) >= k - 1 or len(tree_adj[v]) >= k - 1:\n",
           "            if len(g.adj[u]) >= k - 1 or len(g.adj[v]) >= k - 1:\n",
           (TOUGH_TREE + "test_trees_pinned",),
           "the swap search's degrees read from the graph, not the tree's sets: an end whose graph degree "
           "is large is never used, and the search stalls or takes other swaps"),
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
           "p = (g_lo << 64) // e_hi",
           "p = -(-(g_lo << 64) // e_hi)",
           (PRUNED + "test_tree_cases_match_oracle",),
           "p rounded up: the slab and pair tests run above the running lower bound"),
    Mutant("src/spannerdraw/metrics.py",
           "xs = [coords[v][0] for v in order]",
           "xs = [coords[v][1] for v in order]",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "boxes built on the wrong axis: the gaps between boxes are not distances"),
    Mutant("src/spannerdraw/metrics.py",
           "else _spanning_tree(_prim(g.adj, coords))",
           "else _spanning_tree(_prim(g.adj, [(0, 0)] * g.n))",
           (PRUNED + "test_walk_tree_is_minimum",),
           "the non-tree walk built on Prim's tree of no lengths: a spanning tree by vertex ids, "
           "not the minimum one the pass is tuned for"),
    Mutant("src/spannerdraw/metrics.py",
           "parts = [[n + x] for x in range(n)]",
           "parts = [[] for x in range(n)]",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "a split's root alone dropped: the pairs with the root of a subtree are lost"),
    Mutant("src/spannerdraw/metrics.py",
           "h = ((R[i] + R[j]) << 64) + o",
           "h = (R[j] << 64) + o",
           (PRUNED + "test_tree_cases_match_oracle",),
           "one position's R dropped from the pair test: pairs are skipped below their tree path"),
    Mutant("src/spannerdraw/metrics.py",
           "dx, dy = xs[i] - xs[j], ys[i] - ys[j]",
           "dx, dy = xs[i] - xs[j], 0",
           (PRUNED + "test_bracketed_pairs_pinned",),
           "the pair test on the x offset alone, sound as a distance no longer than the pair's is, "
           "but it brackets pairs that the Euclidean distance skips"),
    Mutant("src/spannerdraw/metrics.py",
           "stack.append((top[k], top[k + 1:]))",
           "stack.append((top[k], top[k + 2:]))",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "the first later part skipped: the pairs of neighboring parts are lost"),
    Mutant("src/spannerdraw/metrics.py",
           "                    if b < n and end[b] - b > size:\n",
           "                    if b < n and a < n and end[b] - b > size:\n",
           (PRUNED + "test_tree_cases_match_oracle",),
           "a position alone never splits a subtree: the pass brackets it against the subtree's root "
           "and loses the pairs with the rest"),
    Mutant("src/spannerdraw/metrics.py",
           "size = end[a] - a if a < n else 1",
           "size = end[a] - a if a < n else 2",
           (PRUNED + "test_tree_cases_match_oracle", PRUNED + "test_graph_cases_match_oracle"),
           "a position alone counted as two positions: it ties with a subtree of two, which is left unsplit, "
           "and the pass brackets that subtree's root for both its positions"),
    Mutant("src/spannerdraw/metrics.py",
           "                            o = p - two_rc\n",
           "",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "a stale offset after t rises: the pair test keeps the old t"),
    Mutant("src/spannerdraw/metrics.py",
           "                            o = p - two_rc\n",
           "                            o = -two_rc\n",
           (PRUNED + "test_pruning_keeps_its_margin",),
           "the margin dropped after t rises: pairs are skipped at t E, not t (E - 1)"),
    Mutant("src/spannerdraw/metrics.py",
           "        two_rc = low[c] << 65\n        o = p - two_rc",
           "        two_rc = low[c] << 65\n        o = -two_rc",
           (PRUNED + "test_margin_holds_at_each_new_ancestor",),
           "the margin dropped at the start of each c: pairs are skipped at t E, not t (E - 1)"),
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
    # The axis-slab test (metrics._pruned_scan).
    Mutant("src/spannerdraw/metrics.py",
           "        m = -(-(p * L) >> 64) - two_lc\n        for k",
           "        m = -two_lc\n        for k",
           (PRUNED + "test_slab_margin_holds_at_each_new_ancestor",),
           "the slab's margin ceil(p L / 2**64) dropped at the start of each c: blocks are skipped at "
           "(t - 1) g, with no room for e_lo to fall a unit below the progress"),
    Mutant("src/spannerdraw/metrics.py",
           "if PX[a] + MX[b] + m < f * (X0[b] - ax1):",
           "if MX[a] + PX[b] + m < f * (X0[b] - ax1):",
           (PRUNED + "test_block_work_counts",),
           "the sides swapped: the left node's MX against the right node's PX, an excess of twice the progress, "
           "sound but skipping few blocks"),
    Mutant("src/spannerdraw/metrics.py",
           "                            f = ((p - (1 << 64)) << bits) >> 64\n",
           "                            f = (p << bits) >> 64\n",
           (PRUNED + "test_equals_full_scan_at_every_precision",),
           "the slab's factor built from t, not t - 1, once t rises: the whole progress counted as room"),
    Mutant("src/spannerdraw/metrics.py",
           "if PY[a] + MY[b] + m < f * (Y0[b] - ay1):",
           "if PY[a] + MY[b] + m < f * (X0[b] - ax1):",
           (PRUNED + "test_tree_cases_match_oracle",),
           "the y test reading the x gap, which is negative where the boxes overlap along x or lie apart the "
           "other way: times f < 0, before t reaches 1, it skips blocks whose pairs reach t"),
    # Connectivity from the walk the pass needs (metrics._spanning_tree,
    # _spanning_ratios), and the tree-planar construction's root.
    Mutant("src/spannerdraw/metrics.py",
           "        if pos[u] >= 0:\n            return None  # revisited: the graph has a cycle\n",
           "",
           (WALK + "test_one_connectivity_walk_per_report",),
           "the walk's revisit check dropped: a triangle and an isolated vertex walk n positions, "
           "and the disconnected drawing gets a spanning ratio"),
    Mutant("src/spannerdraw/metrics.py",
           "    if len(order) < n:\n        return None  # missed: the graph is not connected\n",
           "",
           (WALK + "test_one_connectivity_walk_per_report",),
           "the walk's reach check dropped: a walk that misses a vertex, of Prim's tree or of n - 1 edges, "
           "leaves a short tree for the pass"),
    Mutant("src/spannerdraw/layout.py",
           "    t = RootedTree.from_graph(g, min((v for v in range(n) if g.degree(v) == 1), default=0))\n",
           "    t = RootedTree.from_graph(g, 0)\n",
           (TREE_PLANAR + "test_least_leaf_at_origin",),
           "the tree-planar construction rooted at vertex 0, not its least leaf: a star is drawn from its center"),
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
    # The left-right planarity test and its rotations (embedding._orient,
    # _sides, planarity_test_embed), and the augmentation's contour steps
    # (embedding._choose and its restart point, _place_fan).
    Mutant("src/spannerdraw/embedding.py",
           "                low2[f] = min(low2[f], low2[e])",
           "                low2[f] = low2[e]",
           (EMBED + "test_matches_networkx",),
           "equal lowpoints hand on e's second lowpoint alone: a parent edge's low2 rises, "
           "and the nesting depths order the edges out of a vertex wrongly"),
    Mutant("src/spannerdraw/embedding.py",
           "depth[e] = 2 * low[e] + (low2[e] < height[v])",
           "depth[e] = 2 * low[e]",
           (EMBED + "test_matches_networkx",),
           "the nesting depth without its chordal term: an edge with a second return point is not put after "
           "its siblings that have none"),
    Mutant("src/spannerdraw/embedding.py",
           "                side[p[0]] = -1",
           "                side[p[0]] = 1",
           (EMBED + "test_matches_networkx",),
           "a trimmed pair's left return edge kept on the right: the rotations put it on the wrong side"),
    Mutant("src/spannerdraw/embedding.py",
           "                r.insert(r.index(left[w]), v)\n                left[w] = v\n",
           "                r.insert(r.index(left[w]), v)\n",
           (EMBED + "test_matches_networkx", AUGMENT + "test_random_planar_graphs_validate"),
           "left[w] not moved to a left back edge: the next one goes before the child, not before the last "
           "back edge, and the left back edges come out in reverse"),
    Mutant("src/spannerdraw/embedding.py",
           "            return min(found)",
           "            return max(found)",
           (AUGMENT + "test_matches_sorting_oracle",),
           "the greater candidate at a position: the canonical order leaves the sorting rule's"),
    Mutant("src/spannerdraw/embedding.py",
           "        if not arcs[v]:\n            lone = None",
           "        if False:\n            lone = None",
           (AUGMENT + "test_restart_matches_scan_from_zero",),
           "the empty-arc walk dropped, start = a: a vertex that spans to contour[b] across arcs emptied "
           "by v is left below the scan's start"),
    Mutant("src/spannerdraw/embedding.py",
           "                start = min(start, i)\n",
           "",
           (AUGMENT + "test_restart_matches_scan_from_zero",),
           "the lv minimum dropped from the restart point: a vertex of v's arc that opens an arc left of a "
           "is skipped"),
    Mutant("src/spannerdraw/embedding.py",
           "rot[w].insert(rot[w].index(contour[i + 1]) + 1, v)",
           "rot[w].insert(rot[w].index(contour[i + 1]), v)",
           (AUGMENT + "test_c4_validates",),
           "the fan's first vertex takes v before contour[a + 1], not after it: v enters the inner face"),
    Mutant("src/spannerdraw/embedding.py",
           "        if w in nbrs:\n            continue\n",
           "",
           (AUGMENT + "test_random_planar_graphs_validate",),
           "the fan re-adds an edge that v already has: v enters w's rotation a second time, and an outer "
           "arc holds a placed vertex"),
    Mutant("src/spannerdraw/embedding.py",
           "        if w in nbrs:\n",
           "        if w in rot[v]:\n",
           (AUGMENT + "test_random_planar_graphs_validate",),
           "v's neighbors read from its rotation after it is rewritten: every path vertex looks adjacent, "
           "and no missing edge is added"),
    # The annulus check's recount (bounds.annulus_bound_check).
    Mutant("src/spannerdraw/bounds.py",
           "count = len({label[u] for u, k in zip(g.adj[v], annuli) if k == i})",
           "count = len([u for u, k in zip(g.adj[v], annuli) if k == i])",
           ("tests/test_bounds.py::TestAnnulusBoundCheck::test_fan_witness_consistent_at_s_1",),
           "every neighbor counted again: the fan witness of spanning ratio 1 is overfull at s = 1"),
    # The far-placed constructions' placements: radii with no square root
    # (layout._planar_disk, _proper_radius), each attachment line read at
    # its higher end and tested by bit lengths (layout._exceeds), the
    # height search from the least free height; the edge-length ratio's
    # candidate band (metrics.edge_length_ratio); and the closest pair's
    # window past 53 bits (geometry.closest_pair_sq).
    Mutant("src/spannerdraw/layout.py",
           "    if rem == 0 and t >= 2:\n",
           "    if rem == 0:\n",
           (CLOSED_FORM + "test_planar_disk_matches_radius", PLANAR + "test_whole_apex_height"),
           "the planar closed form's t >= 2 dropped: a whole height of 1, the apex's at tiny epsilon, "
           "gets a radius one short"),
    Mutant("src/spannerdraw/layout.py",
           "        while at_height[free] >= 2:\n",
           "        while at_height[free] >= 1:\n",
           (PROPER + "test_matches_oracle",),
           "the proper height search starts past a height that holds one vertex: a lower admissible height "
           "is passed over"),
    Mutant("src/spannerdraw/layout.py",
           "x = xq if y2 >= y1 else xp",
           "x = xp if y2 >= y1 else xq",
           (PLANAR + "test_matches_oracle",),
           "each attachment line read at its lower end: a vertex can sit below the line's other end"),
    Mutant("src/spannerdraw/layout.py",
           "    if a >= (s + y_max * y_max + 3) >> 2:",
           "    if 2 * a >= (s + y_max * y_max + 3) >> 2:",
           (CLOSED_FORM + "test_proper_radius_matches_radius",),
           "the proper closed form's condition weakened to a s + c <= 2a only at s = 0: at odd w with "
           "y_max**2 near 4a the root is a + 1, not a"),
    Mutant("src/spannerdraw/layout.py",
           "(k >= -1 and p > a * b)",
           "(k >= -1 and p > (a + 1) * b)",
           (PLANAR + "test_line_test_matches_the_product",),
           "the planar placement's line test off by one unit: a line that passes the height so far by "
           "less than one unit leaves the vertex one unit below its ceiling"),
    Mutant("src/spannerdraw/geometry.py",
           "                if l - 2 < bb and (l < bb or dx * dx < best):",
           "                if l - 1 < bb and (l < bb or dx * dx < best):",
           (SWEEPS + "test_closest_pair_past_float_bits",),
           "the closest pair's band narrowed by one bit: an x gap whose square has one bit fewer than the "
           "best is taken for at least the best, and its point leaves the window too early"),
    Mutant("src/spannerdraw/metrics.py",
           "if l >= top - 1)",
           "if l >= top)",
           (ELR + "test_candidate_band_margins",),
           "the longest-edge band narrowed to l = top: a diagonal one bit shorter in span, yet longer, is missed"),
    Mutant("src/spannerdraw/metrics.py",
           "if l <= low + 1)",
           "if l <= low)",
           (ELR + "test_candidate_band_margins",),
           "the shortest-edge band narrowed to l = low: an axis edge one bit longer in span, yet shorter, is missed"),
    # The sweep's orientation signs by bit lengths (metrics._orientation_sign).
    Mutant("src/spannerdraw/metrics.py",
           "        if k >= 2:\n",
           "        if k >= 1:\n",
           (ORIENT + "test_matches_the_products",),
           "a gap of 1 in the products' bit lengths taken as decisive: 2**(j + 1) 2**j is taken for the larger "
           "of it and (2**(j + 1) - 1)**2"),
    Mutant("src/spannerdraw/metrics.py",
           "        if k <= -2:\n",
           "        if k <= -1:\n",
           (ORIENT + "test_matches_the_products",),
           "the same on the other side: r s taken as decisive one bit ahead"),
    Mutant("src/spannerdraw/metrics.py",
           "    if p and q and r and s:\n",
           "    if True:\n",
           (ORIENT + "test_zero_factors",),
           "a zero factor left to the bit lengths: 0 * 2**40 counts as the larger product"),
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
    # The JSON writer (fileio.serialize, _rows).
    Mutant("src/spannerdraw/fileio.py",
           "kinds <= {int})",
           "kinds <= {int, bool})",
           (WRITER + "test_serialize_matches_json_dumps_on_any_nesting",),
           "bool admitted as a row kind: a row of True and False is written as 1 and 0"),
    Mutant("src/spannerdraw/fileio.py",
           " or 0 in lengths or ",
           " or ",
           (WRITER + "test_serialize_matches_json_dumps_on_any_nesting",),
           "the empty-row refusal dropped: a list of empty lists takes the row pass and opens rows it never closes"),
    Mutant("src/spannerdraw/fileio.py",
           '"," * (k > 0)',
           '"," * (k > 1)',
           (WRITER + "test_serialize_matches_json_dumps_on_any_nesting",),
           "the stack's comma rule broken: the second item of a container comes without its comma"),
    Mutant("src/spannerdraw/frozen.py",
           "        raise AttributeError(f\"cannot assign a {type(value).__name__} to {name!r}: \"\n"
           "                             f\"{type(self).__name__} is immutable\")",
           "        object.__setattr__(self, name, value)",
           ("tests/test_values.py::test_assignment_raises_attribute_error",),
           "the frozen guard removed: a Graph, a Drawing or an Epsilon changes after it is checked and hashed"),
]


def _limit_memory() -> None:
    """Run in the child before pytest starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(cwd: Path, ids, timeout: Optional[float] = None) -> tuple[str, str]:
    """One pytest process on ids, importing the package from cwd/src, in a
    session of its own under MEMORY_LIMIT bytes of address space and, if
    given, timeout seconds of wall time. Its process group is killed when
    it ends or times out. (outcome, output): the outcome is "passed",
    "failed" (a test failed), "timeout" or "memory" (a limit stopped it),
    or "error" (pytest exited otherwise)."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
                            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True, preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        return "timeout", proc.communicate()[0]
    _kill_group(proc.pid)  # whatever the tests started and left running
    if "MemoryError" in out:
        return "memory", out
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error"), out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # the group has no process left
        pass


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
    start = time.monotonic()
    outcome, out = _pytest(ROOT, ids)
    if outcome != "passed":
        print(out[-3000:])
        print(f"the unmutated tree fails the {len(ids)} tests: {outcome}")
        return 1
    timeout = max(TIME_FACTOR * (time.monotonic() - start), MIN_TIMEOUT)
    bad, limited = [], []
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
            outcome = _pytest(workdir, m.ids, timeout)[0]
        label = {"failed": "killed", "timeout": "timeout", "memory": "memory"}.get(outcome, "SURVIVED")
        print(f"{label:8} {k:2} {m.path}: {m.reason}")
        if label == "SURVIVED":
            bad.append(k)
        elif label != "killed":
            limited.append(k)
    how = f"{len(limited)} by a limit, not a failing test: {limited}" if limited else "each by a failing test"
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed: {bad}; of the others, {how}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed, {how}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
