"""Every input to the CLI maps to a documented exit code.

Random small graphs and drawings, degenerate ones included (coincident points,
collinear triples, pairs a hair apart, coordinates far apart), go through
`draw`, `metrics` and `verify`. Each call must return 0, 2, 3, 4 or 5 (an
argparse usage error exits 2 through SystemExit) and raise nothing else.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spannerdraw import cli

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
