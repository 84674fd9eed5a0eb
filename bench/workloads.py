"""Seeded inputs and per-op output checks for the spannerdraw benchmark.

A workload is a fixed list of ops. One op is one

    spannerdraw draw <kind> <graph file> -o <drawing file> --format json [...]

call. The list is a pure function of the seed, so two runs with the same seed
draw the same graphs and must write byte-identical drawings. The program only
ever sees the graph files written here; generating them is never timed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import networkx as nx

WORKLOADS = ("planar", "tree-planar", "proper")

# Graphs per vertex count, fixed so that every run of a workload draws the same
# size mix; each workload's ops take about 32 s on a 2-core machine. Op time
# grows steeply with n, so the counts put the median op (planar: n=20; proper:
# tough at n=40) and the tail op (the 11th slowest: planar n=160, proper n=80)
# each well inside one size class rather than on the boundary between two,
# where it would jump from run to run.
PLANAR_SIZES = {20: 27, 40: 8, 80: 2, 160: 7}
PLANAR_EPSILONS = (Fraction(1), Fraction(1, 10))
PROPER_SIZES = {20: 29, 40: 29, 80: 14, 160: 3}
PROPER_EPSILON = Fraction(1, 2)
TOUGH_EPSILON = Fraction(1)
TOUGH_D_TARGET = 3
# One tree per size on a geometric grid of 40 sizes from 125 to 500; only the
# tree shapes depend on the seed.
TREE_SIZES = dict.fromkeys((round(125 * 4 ** ((i + 0.5) / 40)) for i in range(40)), 1)
TREE_EPSILON = Fraction(1)


@dataclass(frozen=True)
class Op:
    """One `draw` call: its kind, options and input graph."""

    id: int
    kind: str
    epsilon: Fraction
    n: int
    edges: tuple[tuple[int, int], ...]
    d_target: Optional[int] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def argv(self, graph_path: str, drawing_path: str) -> list[str]:
        args = ["draw", self.kind, graph_path, "-o", drawing_path, "--format", "json"]
        args += ["--epsilon", str(self.epsilon)]
        if self.d_target is not None:
            args += ["--d-target", str(self.d_target)]
        return args

    def graph_json(self) -> str:
        return json.dumps(
            {"version": "spannerdraw/1", "n": self.n, "edges": [list(e) for e in self.edges]}
        )

    def to_obj(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "epsilon": str(self.epsilon),
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "d_target": self.d_target,
        }

    @staticmethod
    def from_obj(obj: dict) -> "Op":
        return Op(
            id=obj["id"],
            kind=obj["kind"],
            epsilon=Fraction(obj["epsilon"]),
            n=obj["n"],
            edges=tuple((u, v) for u, v in obj["edges"]),
            d_target=obj["d_target"],
        )


def _normalized(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def random_tree_edges(n: int, rng: random.Random, maxdeg: Optional[int] = None) -> list:
    """Each vertex attaches to a uniformly chosen earlier vertex that still has
    degree below maxdeg (no limit when maxdeg is None)."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        if maxdeg is None:
            u = rng.randrange(v)
        else:
            u = rng.choice([w for w in range(v) if deg[w] < maxdeg])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return edges


def random_planar_edges(n: int, rng: random.Random, extra: int) -> list:
    """A random tree densified by up to `extra` chords, each drawn inside a
    face of the current embedding, so the graph stays planar at every step
    without a planarity test per candidate edge."""
    g = nx.Graph(random_tree_edges(n, rng))
    _, emb = nx.check_planarity(g)
    added = 0
    for _ in range(10 * extra):
        if added == extra:
            break
        v = rng.randrange(n)
        face = emb.traverse_face(v, rng.choice(list(emb[v])))
        i, j = sorted(rng.sample(range(len(face)), 2))
        a, b = face[i], face[j]
        if a == b or emb.has_edge(a, b):
            continue
        # The face walk enters face[i] from face[i-1] and leaves to its ccw
        # successor, so the chord goes in between to stay inside this face.
        emb.add_half_edge_ccw(a, b, face[i - 1])
        emb.add_half_edge_ccw(b, a, face[j - 1])
        added += 1
    return list(emb.to_undirected().edges())


def random_connected_edges(n: int, rng: random.Random, extra: int) -> list:
    """A random tree plus `extra` distinct random non-tree edges."""
    edges = set(_normalized(random_tree_edges(n, rng)))
    target = len(edges) + min(extra, n * (n - 1) // 2 - len(edges))
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return list(edges)


def build(
    workload: str,
    seed: int,
    planar_sizes: dict = PLANAR_SIZES,
    proper_sizes: dict = PROPER_SIZES,
    tree_sizes: dict = TREE_SIZES,
) -> list[Op]:
    """The op list of a workload. The size parameters let the harness
    self-test run the same code at tiny sizes."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []

    def add(kind, eps, n, edges, d_target=None):
        ops.append(Op(len(ops), kind, eps, n, _normalized(edges), d_target))

    if workload == "planar":
        for n, count in planar_sizes.items():
            for _ in range(count):
                edges = random_planar_edges(n, rng, extra=n)
                for eps in PLANAR_EPSILONS:
                    add("planar", eps, n, edges)
    elif workload == "tree-planar":
        for n, count in tree_sizes.items():
            for _ in range(count):
                add("tree-planar", TREE_EPSILON, n, random_tree_edges(n, rng, rng.choice((3, 4))))
    elif workload == "proper":
        for n, count in proper_sizes.items():
            for _ in range(count):
                edges = random_connected_edges(n, rng, extra=n)
                add("proper", PROPER_EPSILON, n, edges)
                add("tough", TOUGH_EPSILON, n, edges, TOUGH_D_TARGET)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # A fixed shuffle spreads every size class over the whole run, so a slow
    # spell of the machine does not land on one class.
    random.Random(seed).shuffle(ops)
    return [Op(i, o.kind, o.epsilon, o.n, o.edges, o.d_target) for i, o in enumerate(ops)]


def tree_gamma(eps: Fraction) -> int:
    """The gap multiplier gamma = ceil(4/eps) of the paper's tree constructions."""
    return math.ceil(4 / eps)


def check(op: Op, rc, report_text: str, drawing: Optional[bytes]) -> Optional[str]:
    """None when the op succeeded and its output keeps the paper's guarantee
    for its kind, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(report_text)
        sr = report["spanning_ratio"]
        hi = None if sr.get("infinite") else Fraction(sr["hi"])
        planar, no_collinear = report["planar"], report["no_three_collinear"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable report: {exc!r}"
    if hi is None:
        return "spanning ratio is infinite"
    if op.kind == "planar" and not (planar is True and hi < 1 + op.epsilon):
        return f"planar guarantee broken: planar={planar} hi={hi}"
    if op.kind == "proper" and not (no_collinear is True and hi < 1 + op.epsilon):
        return f"proper guarantee broken: no_three_collinear={no_collinear} hi={hi}"
    if op.kind in ("tough", "tree-planar"):
        gamma = tree_gamma(op.epsilon)
        if hi > Fraction(gamma + 2, gamma):
            return f"tree guarantee broken: hi={hi} > ({gamma}+2)/{gamma}"
        if op.kind == "tree-planar" and planar is not True:
            return "tree-planar drawing is not planar"
    if drawing is None:
        return "no drawing file written"
    try:
        obj = json.loads(drawing)
        same_graph = obj["n"] == op.n and [tuple(e) for e in obj["edges"]] == list(op.edges)
        coords_ok = isinstance(obj["coords"], list) and len(obj["coords"]) == op.n
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable drawing: {exc!r}"
    if not (same_graph and coords_ok):
        return "drawing does not match the input graph"
    return None


def max_coord_bits(drawing: bytes) -> int:
    """Largest numerator or denominator bit length among the coordinates."""
    bits = 0
    for pair in json.loads(drawing)["coords"]:
        for c in pair:
            q = Fraction(c)
            bits = max(bits, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return bits
