"""Every input to the CLI maps to a documented exit code, and every input to
a construction gives a drawing or a documented error.

Random small graphs and drawings, degenerate ones included (coincident points,
collinear triples, pairs a hair apart, coordinates far apart), go through
`draw`, `metrics`, `verify` and `export-svg` (with viewports out of range
too). Each call must return 0, 2, 3, 4 or 5 (an argparse usage error exits 2
through SystemExit) and raise nothing else. The constructions, called
directly on small graphs, return a drawing of every vertex or raise
`SpannerDrawError` or `ValueError`; so do the certificates, called directly
on the parsed drawings.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spannerdraw import Graph, RootedTree, cli, fileio
from spannerdraw.bounds import annulus_bound_check
from spannerdraw.errors import SpannerDrawError
from spannerdraw.layout import (
    Epsilon,
    draw_graph_via_tough_tree,
    draw_planar_spanner,
    draw_proper_spanner,
    draw_tree_planar,
    draw_tree_proper,
)
from spannerdraw.metrics import compute_metrics, edge_length_ratio, spanning_ratio

EXIT_CODES = {0, 2, 3, 4, 5}
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# A small grid makes coincident points and collinear triples common; the
# rest add non-dyadic values, a pair 1e-30 apart, and a far point.
COORDINATES = st.one_of(
    st.integers(-2, 2).map(str),
    st.sampled_from(["1/3", "-2/7", "1e-30", "1.000000000000000000000000000001", "1e40"]),
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    return {"version": "spannerdraw/1", "n": n, "edges": edges}


@st.composite
def drawings(draw):
    obj = draw(graphs(max_n=6))
    obj["coords"] = [[draw(COORDINATES), draw(COORDINATES)] for _ in range(obj["n"])]
    if obj["n"] and draw(st.integers(0, 9)) == 0:
        obj["coords"][0][0] = "1/0"  # does not parse
    return obj


def run(obj, argv_of_path):
    """cli.main on obj written to a file; its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                return cli.main(argv_of_path(path, os.path.join(tmp, "out.json")))
            except SystemExit as exc:
                return exc.code


@SETTINGS
@given(
    graphs(),
    st.sampled_from(["planar", "proper", "tree-proper", "tree-planar", "tough"]),
    st.sampled_from(["1/10", "1/2", "1", "3", "0"]),
)
def test_draw_exits_documented(obj, kind, epsilon):
    code = run(obj, lambda inp, out: ["draw", kind, inp, "-o", out, "--epsilon", epsilon])
    assert code in EXIT_CODES


@SETTINGS
@given(drawings(), st.sampled_from(["text", "json"]))
def test_metrics_exits_documented(obj, fmt):
    assert run(obj, lambda inp, _: ["metrics", inp, "--format", fmt]) in EXIT_CODES


@SETTINGS
@given(drawings(), st.sampled_from(["1", "3/2", "4"]))
def test_verify_exits_documented(obj, s):
    assert run(obj, lambda inp, _: ["verify", inp, "--s", s]) in EXIT_CODES


@SETTINGS
@given(drawings(), st.sampled_from(["1", "800", "1000000", "0", "-5", str(10**400), "1/2"]))
def test_export_svg_exits_documented(obj, viewport):
    code = run(obj, lambda inp, out: ["export-svg", inp, "-o", out, "--viewport", viewport])
    assert code in EXIT_CODES


@st.composite
def small_graphs(draw):
    """Stars, paths and random edge sets (isolated vertices, cycles and
    disconnected graphs among them) on at most 8 vertices."""
    n = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["star", "path", "random"]))
    if shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    small_graphs(),
    st.fractions(min_value=Fraction(1, 100), max_value=5, max_denominator=100),
    st.integers(0, 7),
    st.integers(1, 4),
)
def test_constructions_raise_only_documented_errors(g, epsilon, root, d_target):
    eps = Epsilon(epsilon)
    root = min(root, max(g.n - 1, 0))
    constructions = [
        lambda: draw_tree_proper(RootedTree.from_graph(g, root), eps),
        lambda: draw_tree_planar(RootedTree.from_graph(g, root), eps),
        lambda: draw_graph_via_tough_tree(g, d_target, eps).drawing,
        lambda: draw_proper_spanner(g, eps),
        lambda: draw_planar_spanner(g, eps),
    ]
    for construct in constructions:
        try:
            drawing = construct()
        except (SpannerDrawError, ValueError):
            continue
        assert drawing.graph is g and len(drawing.coords) == g.n


@SETTINGS
@given(drawings(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]))
def test_certificates_raise_only_documented_errors(obj, s):
    try:
        d = fileio.drawing_from_obj(obj)
    except SpannerDrawError:
        return  # an unparsable coordinate; the CLI tests cover the exit code
    certificates = [
        compute_metrics,
        spanning_ratio,
        edge_length_ratio,
        lambda d: annulus_bound_check(d, s),
    ]
    for certify in certificates:
        try:
            certify(d)
        except (SpannerDrawError, ValueError):
            pass
