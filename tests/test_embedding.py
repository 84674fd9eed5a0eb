import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest
from networkx.algorithms.planarity import ConflictPair

from conftest import (
    bench_workloads,
    random_connected_graph,
    random_connected_planar_graph,
    random_tree,
    thinned_triangulation,
)
from oracles import (
    canonical_order_by_sorting,
    canonical_order_validate,
    euler_ok,
    faces,
    networkx_rotation,
)
from spannerdraw import embedding
from spannerdraw.embedding import augment_to_maximal_with_canonical_order, planarity_test_embed
from spannerdraw.errors import NotConnectedError, NotPlanarError, TooSmallError
from spannerdraw.graph import Graph


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def relabeled(g, rng):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def subdivided(g, times, rng):
    """g with `times` random edges each split by a new vertex."""
    n, edges = g.n, g.edges()
    for _ in range(times):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    return Graph.from_edges(n, edges)


@functools.cache
def embedder_families():
    """Seeded graphs by family for the comparison with networkx: planar
    ones of n 1-160 of every density, then nonplanar ones and random graphs
    on both sides of 3n - 6 edges."""
    workloads = bench_workloads()
    families = {}
    # n from 3 to 160, most of them small.
    families["bench planar"] = [
        Graph.from_edges(n, workloads.random_planar_edges(n, random.Random(k), extra))
        for k in range(300)
        for n in [3 + round(157 * (k / 299) ** 2)]
        for extra in [(0, n // 4, n // 2, n, 3 * n // 2)[k % 5]]
    ]
    families["thinned triangulations"] = [
        thinned_triangulation(4 + 13 * k % 157, (0, 0.2, 0.5, 0.8, 1)[k % 5], k)
        for k in range(160)
    ]
    families["trees"] = [random_tree(1 + 11 * k % 160, 2 + k % 5, k) for k in range(160)]
    small = []
    for n in (3, 4, 5, 6, 7, 8, 10, 13, 17, 25, 40, 80, 160):
        small.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]))
        small.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
        small.append(cycle_graph(n))
        small.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]
                                      + [(i, i + 1) for i in range(1, n - 1)]))
    small += [complete_graph(n) for n in range(5)]
    families["stars, paths, cycles, fans, K0-K4"] = small
    rng = random.Random(2009)
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    families["K5 and K3,3 subdivided"] = [
        relabeled(subdivided(base, k % 12, rng), rng)
        for k in range(60)
        for base in (complete_graph(5), k33)
    ]
    families["random"] = [
        random_connected_graph(n, extra, 500 + k)
        for k in range(260)
        for n in [5 + k % 56]
        for extra in [(n // 2, n, 2 * n - 4, 3 * n)[k % 4]]
    ]
    return families


def pin_graphs():
    """Stars, paths, cycles and fans, and seeded random planar graphs and
    trees, with n <= 40."""
    for n in (3, 4, 5, 9, 16, 40):
        yield Graph.from_edges(n, [(0, i) for i in range(1, n)])
        yield Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        yield cycle_graph(n)
        yield Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])
    for seed in range(8):
        n = (6, 11, 17, 24, 40)[seed % 5]
        yield random_connected_planar_graph(n, 300 + seed)
        yield random_tree(n, 2 + seed % 3, 300 + seed)


def large_pin_graphs():
    """Seeded thinned stacked triangulations, from a spanning tree to the
    whole triangulation, and random trees, with n from 80 to 160."""
    for seed in range(12):
        n = (80, 100, 120, 140, 160)[seed % 5]
        yield thinned_triangulation(n, (0, 0.3, 0.7, 1)[seed % 4], 400 + seed)
        yield random_tree(n, 2 + seed % 3, 400 + seed)


def pin_digest(graphs):
    """(attachment cases, SHA-256 of every order, attachments and supergraph)."""
    cases = Counter()
    cos = []
    for g in graphs:
        co = augment_to_maximal_with_canonical_order(g)
        cases.update(attachment_cases(co, g))
        cos.append((co.order, sorted(co.attachments.items()), co.supergraph.adj))
    return cases, hashlib.sha256(repr(cos).encode()).hexdigest()


def attachment_cases(co, h):
    """How each step attaches its vertex v: "closing" for the last one;
    otherwise "fan" when v has two or more neighbors in the host graph h on
    the path it joins, and "left" or "right" when its one host neighbor
    leads or ends that path."""
    for k, path in co.attachments.items():
        v = co.order[k - 1]
        host = [w for w in path if h.has_edge(v, w)]
        if k == len(co.order):
            yield "closing"
        elif len(host) >= 2:
            yield "fan"
        else:
            yield "left" if host == [path[0]] else "right"


class TestPlanarityTestEmbed:
    @pytest.mark.parametrize("family", ["bench planar", "thinned triangulations", "trees",
                                        "stars, paths, cycles, fans, K0-K4",
                                        "K5 and K3,3 subdivided", "random"])
    def test_matches_networkx(self, family):
        # The canonical order, and so every planar drawing, depends on the
        # exact rotations: they and the verdicts must be networkx's.
        graphs = embedder_families()[family]
        verdicts = Counter()
        for g in graphs:
            want = networkx_rotation(g)
            rs = planarity_test_embed(g)
            assert (None if rs is None else rs.rotation) == want, (family, g.n, g.edges())
            dense = g.n > 2 and g.m > 3 * g.n - 6
            verdicts[want is not None, dense] += 1
        if family == "random":
            assert verdicts[True, False] and verdicts[False, False] and verdicts[False, True]
        elif family.startswith("K5"):
            assert not verdicts[True, False]
        else:
            assert set(verdicts) == {(True, False)}
        # networkx's ConflictPair shares its default Interval objects across
        # calls; had any call written them, its answers would depend on the
        # calls made before.
        assert all(interval.empty() for interval in ConflictPair.__init__.__defaults__)

    def test_enough_graphs_against_networkx(self):
        assert sum(map(len, embedder_families().values())) >= 1000

    def test_pinned_bench_rotations(self, bench301):
        # Recorded from networkx's embedding on the seed-301 planar benchmark
        # graphs.
        ops = bench301.ops["planar"]
        rotations = [planarity_test_embed(Graph.from_edges(op.n, op.edges)).rotation for op in ops]
        assert len(rotations) == 88
        digest = hashlib.sha256(repr(rotations).encode()).hexdigest()
        assert digest == "c674c1bf8c84758af2b21d20e634c2a9a525bf6b197faf2a880ca9dc7f3fdd6c"

    def test_planar_generator_pinned(self):
        # The 60 graphs of test_acceptance_1, recorded when the generator
        # asked networkx whether each candidate edge kept the graph planar.
        graphs = [random_connected_planar_graph(n, 1000 * n + i)
                  for n in (10, 20, 40) for i in range(20)]
        digest = hashlib.sha256(repr([g.adj for g in graphs]).encode()).hexdigest()
        assert digest == "ae7241b45d559023aa22ead7afa631a8912459f7824d4742594f916f33a0c357"

    def test_k4_has_four_triangular_faces(self):
        rs = planarity_test_embed(complete_graph(4))
        assert rs is not None
        found = faces(rs)
        assert len(found) == 4
        assert all(len(f) == 3 for f in found)
        assert euler_ok(rs)

    def test_k5_nonplanar(self):
        assert planarity_test_embed(complete_graph(5)) is None

    def test_k33_nonplanar(self):
        k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert planarity_test_embed(k33) is None

    def test_cycle_two_faces(self):
        rs = planarity_test_embed(cycle_graph(5))
        assert rs is not None
        assert len(faces(rs)) == 2
        assert euler_ok(rs)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnectedError):
            planarity_test_embed(g)

    def test_deterministic(self):
        g = random_connected_planar_graph(15, 3)
        a = planarity_test_embed(g)
        b = planarity_test_embed(g)
        assert a.rotation == b.rotation
        assert a.outer_face == b.outer_face


class TestAugmentation:
    def test_too_small(self):
        with pytest.raises(TooSmallError):
            augment_to_maximal_with_canonical_order(Graph.from_edges(2, [(0, 1)]))

    def test_nonplanar_rejected(self):
        with pytest.raises(NotPlanarError):
            augment_to_maximal_with_canonical_order(complete_graph(5))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnectedError):
            augment_to_maximal_with_canonical_order(g)

    def test_path3_validates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        co = augment_to_maximal_with_canonical_order(g)
        reason = []
        assert canonical_order_validate(co, g, reason), reason
        assert co.supergraph.m == 3  # triangle
        assert all(co.supergraph.has_edge(u, v) for u, v in g.edges())

    def test_c4_validates(self):
        co = augment_to_maximal_with_canonical_order(cycle_graph(4))
        reason = []
        assert canonical_order_validate(co, cycle_graph(4), reason), reason
        assert co.supergraph.m == 6  # 3n - 6 = 6: K4

    def test_k4_already_maximal(self):
        co = augment_to_maximal_with_canonical_order(complete_graph(4))
        reason = []
        assert canonical_order_validate(co, complete_graph(4), reason), reason
        assert co.supergraph.m == 6

    def test_host_edges_preserved(self):
        for seed in range(10):
            g = random_connected_planar_graph(12, seed)
            co = augment_to_maximal_with_canonical_order(g)
            assert all(co.supergraph.has_edge(u, v) for u, v in g.edges())

    def test_random_planar_graphs_validate(self):
        # The validator checks the full canonical-order contract: supergraph
        # maximal planar, prefix connectivity, biconnectivity of G_k,
        # contour/attachment structure, and plane-embeddability.
        for seed in range(25):
            n = [6, 9, 13, 20, 32][seed % 5]
            g = random_connected_planar_graph(n, 50 + seed)
            co = augment_to_maximal_with_canonical_order(g)
            reason = []
            assert canonical_order_validate(co, g, reason), (seed, reason)

    def test_deterministic(self):
        g = random_connected_planar_graph(18, 77)
        a = augment_to_maximal_with_canonical_order(g)
        b = augment_to_maximal_with_canonical_order(g)
        assert a == b

    def test_trees_and_stars_augment(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        co = augment_to_maximal_with_canonical_order(star)
        reason = []
        assert canonical_order_validate(co, star, reason), reason
        assert co.supergraph.m == 3 * 6 - 6

    def test_matches_sorting_oracle(self):
        # The contour scan picks the vertex and path that sorting every
        # candidate at every step picks, so the whole canonical order is the
        # oracle's, on stars, paths, cycles, fans, random trees, thinned
        # triangulations and the benchmark's planar graphs up to n = 1000.
        planar_edges = bench_workloads().random_planar_edges
        graphs = []
        for n in (3, 7, 30, 120, 400):
            graphs.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]))
            graphs.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
            graphs.append(cycle_graph(n))
            graphs.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]
                                           + [(i, i + 1) for i in range(1, n - 1)]))
        for k in range(20):
            n = (8, 20, 60, 150, 300)[k % 5]
            graphs.append(random_tree(n, 2 + k % 4, 600 + k))
            graphs.append(thinned_triangulation(n, (0, 0.3, 0.7, 1)[k // 5], 700 + k))
        for k in range(8):
            n = (10, 40, 160, 1000)[k % 4]
            extra = (n // 4, 2 * n)[k // 4]
            graphs.append(Graph.from_edges(n, planar_edges(n, random.Random(800 + k), extra)))
        for g in graphs:
            co = augment_to_maximal_with_canonical_order(g)
            want = canonical_order_by_sorting(g)
            assert (co.order, co.attachments, co.supergraph) == (
                want.order, want.attachments, want.supergraph), (g.n, g.edges())

    def test_pinned(self):
        # The digest was recorded when the augmentation inserted a vertex by
        # one of four code paths, one per attachment case; every case occurs.
        cases, digest = pin_digest(pin_graphs())
        assert set(cases) == {"left", "right", "fan", "closing"}, cases
        assert digest == "0aa8969f92172507d159e691795e5950f7e56596bd04c10783d32be71109acf9"

    def test_pinned_large(self):
        # The digest was recorded when every step recomputed the outer arc of
        # every contour vertex, before the arcs were cached.
        cases, digest = pin_digest(large_pin_graphs())
        assert set(cases) == {"left", "right", "fan", "closing"}, cases
        assert digest == "665db2f619eb35bb9f9ab28608ea9cba8f44e9a11131607c5a05387db894d0ba"

    def test_pinned_at_scale(self):
        # Recorded while every scan for the next vertex started at contour
        # position 0 and _arc walked the rotation one step at a time.
        n = 4000
        g = Graph.from_edges(n, bench_workloads().random_planar_edges(n, random.Random(11), n))
        co = augment_to_maximal_with_canonical_order(g)
        pinned = (co.order, sorted(co.attachments.items()), co.supergraph.adj)
        assert hashlib.sha256(repr(pinned).encode()).hexdigest() == (
            "688868810a3c59588d4ab7ba47ea697b6c59e03d92979ac196bdceedf008abf3")

    def test_restart_matches_scan_from_zero(self, monkeypatch):
        # At every step, the scan from the carried restart point returns
        # what a scan of the whole contour returns: each step is checked,
        # not only the final order, on stars, paths, fans, random trees and
        # the benchmark's planar graphs up to n = 700.
        choose = embedding._choose
        steps = [0]

        def checked(arcs, lv, rv, contour, start):
            got = choose(arcs, lv, rv, contour, start)
            assert got == choose(arcs, lv, rv, contour, 0), (start, got)
            steps[0] += 1
            return got

        monkeypatch.setattr(embedding, "_choose", checked)
        planar_edges = bench_workloads().random_planar_edges
        graphs = []
        for n in (4, 9, 40, 300):
            graphs.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]))
            graphs.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
            graphs.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]
                                           + [(i, i + 1) for i in range(1, n - 1)]))
        graphs += [random_tree((10, 60, 250)[k % 3], 2 + k % 4, 900 + k) for k in range(9)]
        for n in (20, 100, 300, 700):
            for extra in (0, n // 4, n, 2 * n):
                graphs.append(Graph.from_edges(n, planar_edges(n, random.Random(n + extra), extra)))
        for g in graphs:
            augment_to_maximal_with_canonical_order(g)
        assert steps[0] == sum(g.n - 3 for g in graphs)

    def test_scan_work_is_linear(self, monkeypatch):
        # Counted, not timed. The scan visits positions start..a, and a + 1
        # as well when its vertex joins (a, a + 1) from there. Past the one
        # or two of the attachment, the positions it passes, a - start
        # summed over the steps, stay within 3n at n = 2000, where a scan
        # from position 0 passes about 84 a step.
        choose = embedding._choose
        passed = [0]

        def counted(arcs, lv, rv, contour, start):
            v, a, b = choose(arcs, lv, rv, contour, start)
            passed[0] += a - start
            return v, a, b

        monkeypatch.setattr(embedding, "_choose", counted)
        n = 2000
        g = Graph.from_edges(n, bench_workloads().random_planar_edges(n, random.Random(11), n))
        augment_to_maximal_with_canonical_order(g)
        assert passed[0] <= 3 * n, passed


def rejection(co, h):
    """The validator's first reason for rejecting co of host graph h; fails
    if it accepts."""
    reason = []
    assert not canonical_order_validate(co, h, reason)
    assert reason
    return reason[0]


class TestValidatorRejects:
    @pytest.fixture
    def host(self):
        return random_connected_planar_graph(14, 5)

    @pytest.fixture
    def co(self, host):
        return augment_to_maximal_with_canonical_order(host)

    def test_two_order_entries_swapped(self, co, host):
        order = list(co.order)
        order[3], order[8] = order[8], order[3]
        assert rejection(co._replace(order=tuple(order)), host) == "H-prefix disconnected at k=4"

    def test_order_not_a_permutation(self, co, host):
        repeated = co._replace(order=co.order[:-1] + co.order[:1])
        assert rejection(repeated, host) == "order is not a permutation"

    def test_vertex_dropped_from_attachment(self, co, host):
        k = next(k for k, path in co.attachments.items() if len(path) >= 3)
        path = co.attachments[k]
        ends = co._replace(attachments={**co.attachments, k: path[1:]})
        assert rejection(ends, host) == f"contour does not bound a face at k={k}"
        middle = co._replace(attachments={**co.attachments, k: path[:1] + path[2:]})
        assert rejection(middle, host) == f"attachments not consecutive on contour at k={k}"

    def test_attachment_shifted_along_contour(self, co, host):
        contour = co.order[:2]
        for k in range(3, len(co.order)):
            path = co.attachments[k]
            a, b = contour.index(path[0]), contour.index(path[-1])
            if b + 1 < len(contour):
                break
            contour = contour[: a + 1] + (co.order[k - 1],) + contour[b:]
        shifted = contour[a + 1 : b + 2]
        assert rejection(co._replace(attachments={**co.attachments, k: shifted}), host) == (
            f"contour not a path in G_k at k={k}"
        )

    def test_host_edge_missing_from_supergraph(self, co, host):
        g = co.supergraph
        missing = next((u, w) for u in range(g.n) for w in range(u + 1, g.n) if not g.has_edge(u, w))
        assert rejection(co, Graph.from_edges(host.n, [*host.edges(), missing])) == (
            "host edge missing from supergraph"
        )
