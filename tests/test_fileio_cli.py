import gc
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import bench_workloads, random_rational_drawing, thinned_triangulation, unit_circle_star, wheel
from output_digest import digest
from spannerdraw import bounds, cli, fileio, metrics
from spannerdraw.drawing import Drawing
from spannerdraw.exact import format_rational
from spannerdraw.graph import Graph

F = Fraction


def graph_file(tmp_path, n, edges, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"version": "spannerdraw/1", "n": n, "edges": edges}))
    return str(p)


class TestRationals:
    def test_parse_forms(self):
        assert fileio.parse_rational("3/4") == F(3, 4)
        assert fileio.parse_rational("1.25") == F(5, 4)
        assert fileio.parse_rational(7) == F(7)
        assert fileio.parse_rational("-2/6") == F(-1, 3)

    def test_bad_rationals(self):
        for bad in ["1/0", "abc", None, True]:
            with pytest.raises(fileio.FileFormatError):
                fileio.parse_rational(bad)

    def test_format_always_num_den(self):
        assert format_rational(F(3)) == "3/1"
        assert format_rational(F(-1, 2)) == "-1/2"


class TestRoundTrip:
    def test_coordinates_beyond_int_digit_limit_round_trip(self, tmp_path):
        # 10**5000 has more digits than int() parses from a string by default.
        g = Graph.from_edges(2, [(0, 1)])
        d = Drawing.of(g, [(0, F(-1, 3)), (10**5000, F(1, 10**5000 + 1))])
        path = tmp_path / "d.json"
        path.write_text(fileio.serialize(fileio.drawing_to_obj(d)), encoding="utf-8")
        assert fileio.load_drawing(str(path)) == d
        assert cli.main(["metrics", str(path)]) == 0
        assert len(format_rational(F(1, 10**100000))) <= fileio.MAX_RATIONAL_CHARS

    def test_overlong_coordinate_exits_2(self, tmp_path):
        long = "1" * (fileio.MAX_RATIONAL_CHARS + 1)
        for coord in (long, f"1/{long}"):
            p = tmp_path / "d.json"
            p.write_text(json.dumps({
                "version": "spannerdraw/1", "n": 2, "edges": [[0, 1]],
                "coords": [["0", "0"], [coord, "1"]],
            }))
            assert cli.main(["metrics", str(p)]) == 2
        # A JSON integer literal past int()'s digit limit is a parse error too.
        p.write_text('{"version": "spannerdraw/1", "n": 1, "edges": [], "coords": [[0, %s]]}'
                     % ("1" * 5000))
        assert cli.main(["metrics", str(p)]) == 2

    def test_decimal_exponent_bounded(self, tmp_path):
        assert fileio.parse_rational("1e-100000") == F(1, 10**100000)
        # Just past the bound: without the check these would parse (to a
        # 664k-bit integer), so they stay cheap either way.
        past = fileio.MAX_RATIONAL_CHARS + 1
        for coord in (f"1e{past}", f"-2.5E-{past}", f"1e0{past}"):
            with pytest.raises(fileio.FileFormatError, match="exponent"):
                fileio.parse_rational(coord)
        p = tmp_path / "d.json"
        p.write_text(json.dumps({
            "version": "spannerdraw/1", "n": 2, "edges": [[0, 1]],
            "coords": [["0", "0"], [f"1e{past}", "1"]],
        }))
        assert cli.main(["metrics", str(p)]) == 2

    def test_coordinates_written_from_numerators(self):
        # Each coordinate is written from its numerator over den, as
        # format_rational writes the Fraction, past the 4300 digits that
        # str() takes by default too.
        drawings = [random_rational_drawing(n, seed) for seed in range(12) for n in [2 + 5 * seed]]
        drawings.append(Drawing.of(Graph.from_edges(3, [(0, 1)]), [
            (0, F(-1, 3)), (10**5000, F(1, 10**5000 + 1)), (F(-7, 10**4400), 10**4301)]))
        for d in drawings:
            assert fileio.drawing_to_obj(d)["coords"] == [
                [format_rational(x), format_rational(y)] for x, y in d.coords]

    def test_drawing_round_trip_byte_identical(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        d = Drawing.of(g, [(0, 0), (F(1, 3), 2), (-4, F(7, 2))])
        text = fileio.serialize(fileio.drawing_to_obj(d))
        d2 = fileio.drawing_from_obj(json.loads(text))
        assert fileio.serialize(fileio.drawing_to_obj(d2)) == text
        assert d2.coords == d.coords
        assert d2.graph.edges() == d.graph.edges()

    def test_serialize_matches_json_dumps(self):
        # serialize writes json.dumps's indent=2 layout itself.
        drawings = [random_rational_drawing(n, seed) for seed in range(12) for n in [2 + 5 * seed]]
        drawings += [
            Drawing.of(Graph.from_edges(0, []), []),
            Drawing.of(Graph.from_edges(1, []), [(F(-3, 7), 0)]),
            # Past the 4300 digits that int() and str() take by default.
            Drawing.of(Graph.from_edges(2, [(0, 1)]),
                       [(0, F(-1, 3)), (10**5000, F(1, 10**5000 + 1))]),
        ]
        for d in drawings:
            obj = fileio.drawing_to_obj(d)
            assert fileio.serialize(obj) == json.dumps(obj, indent=2) + "\n"

    def test_serialize_matches_json_dumps_on_reports(self):
        # The CLI's --format json reports go through serialize too, nested
        # dicts and the verify report's list of dicts included.
        reports = [cli._report_obj(metrics.compute_metrics(random_rational_drawing(2 + 5 * seed, seed)))
                   for seed in range(12)]
        # A zero-length edge: infinite intervals.
        reports.append(cli._report_obj(metrics.compute_metrics(
            Drawing.of(Graph.from_edges(3, [(0, 1), (1, 2)]), [(0, 0), (0, 0), (1, 0)]))))
        assert reports[-1]["edge_length_ratio"] == {"infinite": True}
        # An edge-length ratio of 10**400, whose bounds are beyond a double.
        reports.append(cli._report_obj(metrics.compute_metrics(
            Drawing.of(Graph.from_edges(3, [(0, 1), (1, 2)]), [(0, 0), (1, 0), (10**400, 0)]))))
        assert reports[-1]["edge_length_ratio"]["hi_float"] is None
        path = Drawing.of(Graph.from_edges(3, [(0, 1), (1, 2)]), [(0, 0), (1, 0), (2, 0)])
        reports.append(cli._verify_obj(bounds.annulus_bound_check(path, F(3, 2))))
        assert reports[-1]["violations"] == []
        reports.append(cli._verify_obj(bounds.annulus_bound_check(unit_circle_star(), F(14, 10))))
        assert reports[-1]["violations"]
        for obj in reports:
            assert fileio.serialize(obj) == json.dumps(obj, indent=2) + "\n"

    def test_serialize_matches_json_dumps_on_any_nesting(self):
        # Scalars of every kind, empty containers, lists of lists of equal
        # and unequal length, dicts in lists and lists in dicts. The last three
        # lines hold the rows that the one-pass row writer must take or
        # refuse: bools, which are ints to isinstance, rows that mix str and
        # int, unequal and empty rows, a flat list, big ints, escapes, rows
        # one level deeper, and tuples.
        values = [
            0, -7, 2.5, math.inf, None, True, "quote\" é",
            [], {}, [[]], [[], []], [[1, 2], [3]], [[1, [2]], [3, 4]], [["a", 1], [None, 2.5]],
            [[[1]], [[2]]], [{"a": 1}, {}], {"k": [[1, 2], [3, 4]], "e": {}, "n": {"m": [[]]}},
            [1, [2, [3, [4, {"five": [5]}]]]], ((1, 2), (3, 4)),
            [[True, 1]], [[True, False]], [["1/2", 3]], [[1, "2"], [3, "4"]], [[1, 2], [3]],
            [[1], []], ["a", "b/c"], [[2**70, -3]], [["tab\t", "\u00e9\"\\"], ["\n", "\U0001f600"]],
            [[[1, 2]], [[3, 4]]], ((("a", "b"), ("c", "d")), [("x", 1)]),
        ]
        for value in values:
            assert fileio.serialize(value) == json.dumps(value, indent=2) + "\n"

    def test_decimal_input_converts_exactly(self):
        # A JSON float converts through its shortest decimal form: 0.1 is 1/10.
        obj = {
            "version": "spannerdraw/1",
            "n": 3,
            "edges": [[0, 1]],
            "coords": [["0.5", "0"], ["2", "-0.25"], [0.1, 0]],
        }
        d = fileio.drawing_from_obj(obj)
        assert d.coords == ((F(1, 2), F(0)), (F(2), F(-1, 4)), (F(1, 10), F(0)))

    @pytest.mark.parametrize("value, message", [
        ([], "top-level value must be an object"),
        ({"edges": {}}, "field 'edges' must be a list"),
        ({"coords": {}}, "field 'coords' must be a list of n [x, y] pairs"),
        ({"coords": [["0", "0"], ["1"]]}, "bad coordinate ['1']"),
        # More digits than int() takes: the num/den fallback finds the zero.
        ({"coords": [["0", "0"], ["1/" + "0" * 4301, "1"]]}, "zero denominator"),
    ])
    def test_malformed_files_exit_2(self, tmp_path, capsys, value, message):
        if isinstance(value, dict):
            value = {"version": "spannerdraw/1", "n": 2, "edges": [[0, 1]],
                     "coords": [["0", "0"], ["1", "0"]], **value}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(value))
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.load_drawing(str(path))
        assert message in str(err.value)
        assert cli.main(["metrics", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_rejects_bad_version_and_edges(self):
        with pytest.raises(fileio.FileFormatError):
            fileio.graph_from_obj({"version": "nope", "n": 1, "edges": []})
        base = {"version": "spannerdraw/1", "n": 2}
        for edges in ([[0, 0]], [[0, 2]], [[0, 1], [1, 0]]):
            with pytest.raises(fileio.FileFormatError):
                fileio.graph_from_obj({**base, "edges": edges})

    def test_edge_messages(self):
        # Each bad edge, after a good one, with the message it gets.
        base = {"version": "spannerdraw/1", "n": 3}
        table = [
            ([True, 1], "bad edge [True, 1]"),
            ([0, 1.0], "bad edge [0, 1.0]"),
            ([0, 1, 2], "bad edge [0, 1, 2]"),
            ("01", "bad edge '01'"),
            ([0, 3], "edge [0, 3] out of range or a self-loop"),
            ([-1, 0], "edge [-1, 0] out of range or a self-loop"),
            ([2, 2], "edge [2, 2] out of range or a self-loop"),
            ([1, 0], "duplicate edge [1, 0]"),
        ]
        for edge, message in table:
            with pytest.raises(fileio.FileFormatError) as err:
                fileio.graph_from_obj({**base, "edges": [[0, 1], edge]})
            assert str(err.value) == message

    def test_benchmark_graphs_parse_to_their_edges(self, bench301):
        for name, ops in bench301.ops.items():
            for op in ops:
                g = fileio.graph_from_obj(json.loads(op.graph_json()))
                assert g == Graph.from_edges(op.n, op.edges), (name, op.id)

    def test_vertex_count_validated(self, monkeypatch):
        # Graph construction is stubbed out, so a missing bound fails the
        # test instead of allocating one adjacency set per declared vertex.
        built = []
        monkeypatch.setattr(fileio, "Graph", SimpleNamespace(
            from_edges=lambda n, edges: built.append(n)))
        base = {"version": "spannerdraw/1", "edges": []}
        for n in (True, False, -1, 1.0, "3", fileio.MAX_VERTICES + 1, 10**9):
            with pytest.raises(fileio.FileFormatError, match="'n'"):
                fileio.graph_from_obj({**base, "n": n})
        assert built == []
        fileio.graph_from_obj({**base, "n": fileio.MAX_VERTICES})
        assert built == [fileio.MAX_VERTICES]

    def test_names_validated(self):
        obj = {"version": "spannerdraw/1", "n": 2, "edges": [[0, 1]], "names": ["a"]}
        with pytest.raises(fileio.FileFormatError):
            fileio.graph_from_obj(obj)


class TestDrawingValidation:
    def test_wrong_point_count_raises_value_error(self):
        with pytest.raises(ValueError):
            Drawing(Graph.from_edges(2, [(0, 1)]), ((0, 0),))

    def test_non_int_coordinate_raises_type_error(self):
        g = Graph.from_edges(2, [(0, 1)])
        for point in ((0.5, 0), (0, F(1)), (F(0), F(0)), (True, 0), (0, False), (0, 0, 0), (0,), [0, 0], 0):
            with pytest.raises(TypeError) as caught:
                Drawing(g, ((0, 0), point))
            assert str(caught.value) == f"point {point!r} is not a pair of ints; use Drawing.of for rationals"
        assert Drawing.of(g, [(0, 0), (0.5, 1)]).coords[1] == (F(1, 2), F(1))

    def test_int_and_tuple_subclasses_accepted(self):
        # The check is isinstance, as it was: a subclass of int that is not
        # bool passes, and so does a subclass of tuple.
        class Int(int):
            pass

        class Pair(tuple):
            pass

        g = Graph.from_edges(2, [(0, 1)])
        d = Drawing(g, (Pair((0, 0)), (Int(4), 2)), Int(2))
        assert (d.points, d.den) == (((0, 0), (2, 1)), 1)
        assert Drawing(g, ((0, 0), Pair((Int(3), 1)))).points[1] == (3, 1)

    def test_non_positive_denominator_raises_value_error(self):
        g = Graph.from_edges(2, [(0, 1)])
        for den in (0, -3, F(1, 2), 2.0, True):
            with pytest.raises(ValueError):
                Drawing(g, ((0, 0), (1, 0)), den)

    def test_lowest_terms(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        d = Drawing(g, ((0, -6), (4, 2), (10, 0)), 12)
        assert (d.points, d.den) == (((0, -3), (2, 1), (5, 0)), 6)
        assert d == Drawing.of(g, [(0, F(-1, 2)), (F(1, 3), F(1, 6)), (F(5, 6), 0)])
        assert d.coords == ((0, F(-1, 2)), (F(1, 3), F(1, 6)), (F(5, 6), 0))
        assert Drawing(g, ((0, 0), (6, 0), (-9, 3)), 3) == Drawing(g, ((0, 0), (2, 0), (-3, 1)))

    def test_rational_drawings_round_trip(self):
        # den is the least common denominator L of the coordinates, over
        # which every metric reads the integer points.
        for seed in range(40):
            d = random_rational_drawing(4 + seed % 9, seed)
            assert Drawing.of(d.graph, d.coords) == d
            assert fileio.drawing_from_obj(fileio.drawing_to_obj(d)) == d
            assert d.den == math.lcm(*(c.denominator for p in d.coords for c in p))


class TestSvg:
    def test_triangle_svg(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        d = Drawing.of(g, [(0, 0), (1, 0), (0, 1)])
        svg = fileio.export_svg(d)
        assert svg.count("<line") == 3
        assert svg.count("<circle") == 3
        assert "visualization only" in svg

    def test_empty_graph_svg(self):
        d = Drawing.of(Graph.from_edges(0, []), [])
        svg = fileio.export_svg(d)
        assert "<svg" in svg

    def test_huge_coordinates_render(self):
        g = Graph.from_edges(2, [(0, 1)])
        for far in (F(10**40), F(10**400)):  # the second is beyond a double
            d = Drawing.of(g, [(0, 0), (far, far / 10)])
            assert "<line" in fileio.export_svg(d)

    @pytest.mark.parametrize("viewport", [1, 10**6], ids=["1", "10**6"])
    def test_viewport_in_range(self, viewport):
        d = Drawing.of(Graph.from_edges(2, [(0, 1)]), [(0, 0), (1, 0)])
        assert f'width="{viewport}" height="{viewport}"' in fileio.export_svg(d, viewport)

    @pytest.mark.parametrize("viewport", [-5, 0, 10**400], ids=["-5", "0", "10**400"])
    def test_viewport_out_of_range_raises(self, viewport):
        d = Drawing.of(Graph.from_edges(2, [(0, 1)]), [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="viewport"):
            fileio.export_svg(d, viewport)


def drawing_file(tmp_path, n, edges, coords):
    p = tmp_path / "d.json"
    p.write_text(
        json.dumps({"version": "spannerdraw/1", "n": n, "edges": edges, "coords": coords})
    )
    return str(p)


def test_version_matches_pyproject():
    # A regex rather than tomllib, which Python 3.10 does not have.
    import os
    import re

    import spannerdraw

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        version = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.MULTILINE)
    assert version is not None and spannerdraw.__version__ == version.group(1)


class TestCli:
    def test_draw_planar_writes_file_and_report(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        out = str(tmp_path / "d.json")
        code = cli.main(["draw", "planar", inp, "--epsilon", "1/2", "-o", out])
        assert code == 0
        report = capsys.readouterr().out
        assert "planar: True" in report
        d = fileio.load_drawing(out)
        assert d.graph.n == 4

    def test_draw_planar_on_k5_exits_3(self, tmp_path):
        edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
        inp = graph_file(tmp_path, 5, edges)
        assert cli.main(["draw", "planar", inp, "-o", str(tmp_path / "o")]) == 3

    def test_draw_tree_on_cycle_exits_3(self, tmp_path):
        inp = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert cli.main(["draw", "tree-planar", inp, "-o", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind", ["tree-proper", "tree-planar"])
    @pytest.mark.parametrize("n, edges", [
        (0, []),
        (4, [[0, 1], [1, 2], [2, 3], [0, 3]]),
        (4, [[0, 1], [2, 3]]),
        (4, [[0, 1], [1, 2], [0, 2]]),
    ], ids=["empty", "cycle", "forest", "triangle-and-isolated-vertex"])
    def test_tree_kinds_refuse_non_trees(self, tmp_path, capsys, kind, n, edges):
        # Each tree construction roots the graph itself, and the rooting
        # refuses what is not a tree, before a path is told apart.
        inp = graph_file(tmp_path, n, edges)
        assert cli.main(["draw", kind, inp, "-o", str(tmp_path / "o")]) == 3
        assert "NotATreeError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["planar", "proper", "tough"])
    def test_empty_graph_exits_3(self, tmp_path, capsys, kind):
        inp = graph_file(tmp_path, 0, [])
        assert cli.main(["draw", kind, inp, "-o", str(tmp_path / "o")]) == 3
        assert "TooSmallError" in capsys.readouterr().err

    def test_disconnected_exits_3(self, tmp_path):
        inp = graph_file(tmp_path, 4, [[0, 1], [2, 3]])
        assert cli.main(["draw", "proper", inp, "-o", str(tmp_path / "o")]) == 3

    def test_bad_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["metrics", str(p)]) == 2

    @pytest.mark.parametrize("n", [True, fileio.MAX_VERTICES + 1])
    def test_bad_vertex_count_exits_2(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(fileio, "Graph", None)  # nothing may be built
        inp = graph_file(tmp_path, n, [])
        out = tmp_path / "o.json"
        assert cli.main(["draw", "proper", inp, "-o", str(out)]) == 2
        assert not out.exists()

    def test_missing_file_exits_5(self, tmp_path):
        assert cli.main(["metrics", str(tmp_path / "absent.json")]) == 5

    @pytest.mark.parametrize(
        "command, option",
        [("draw", "--epsilon"), ("draw", "--rel-tol"), ("metrics", "--rel-tol"), ("verify", "--s")],
    )
    def test_numeric_argument_bounded(self, tmp_path, capsys, command, option):
        # Just past the exponent bound of fileio.parse_rational: Fraction alone
        # would build a 664k-bit integer from it.
        value = f"1e{fileio.MAX_RATIONAL_CHARS + 1}"
        if command == "draw":
            argv = ["draw", "planar", graph_file(tmp_path, 2, [[0, 1]]), "-o", str(tmp_path / "o")]
        else:
            argv = [command, drawing_file(tmp_path, 2, [[0, 1]], [["0", "0"], ["1", "0"]])]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [option, value])
        assert exc.value.code == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("d_target", ["0", "-3", "2.5"])
    def test_d_target_below_one_exits_2(self, tmp_path, capsys, d_target):
        inp = graph_file(tmp_path, 3, [[0, 1], [1, 2]])
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["draw", "tough", inp, "-o", str(out), "--d-target", d_target])
        assert exc.value.code == 2
        assert "--d-target" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_s_below_one_exits_2(self, tmp_path):
        inp = graph_file(tmp_path, 2, [[0, 1]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "proper", inp, "-o", out])
        assert cli.main(["verify", out, "--s", "1/2"]) == 2

    def test_verify_consistent(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "tree-planar", inp, "-o", out])
        capsys.readouterr()
        assert cli.main(["verify", out, "--s", "1"]) == 0
        assert "verdict: Consistent" in capsys.readouterr().out

    def test_verify_wheel_consistent(self, tmp_path, capsys):
        # The wheel's hub has an annulus of 100 neighbors, above 48 (6/5)**2,
        # but its rim is one component of G - hub; the ratio is 1.184 <= 6/5.
        path = tmp_path / "wheel.json"
        path.write_text(fileio.serialize(fileio.drawing_to_obj(wheel(100))))
        assert cli.main(["verify", str(path), "--s", "6/5"]) == 0
        out = capsys.readouterr().out
        assert "violations: none\nverdict: Consistent\n" in out

    def test_metrics_json_format(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 3, [[0, 1], [1, 2]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "tree-planar", inp, "-o", out])
        capsys.readouterr()
        assert cli.main(["metrics", out, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["spanning_ratio"]["lo"] == "1/1"
        assert obj["planar"] is True

    @pytest.mark.parametrize(
        "command, coords, code, expect",
        [
            # A zero-length edge: the edge-length ratio is certainly infinite.
            (["metrics"], [["0", "0"], ["0", "0"], ["1", "0"]], 0,
             "edge_length_ratio: infinite"),
            # An edge below 2**-16384, the escalation cap counted from 2**-64.
            (["metrics"], [["0", "0"], ["1e-5000", "0"], ["1", "1"]], 0,
             "spanning_ratio: ["),
            # An edge-length ratio of 10**400, beyond the range of a double.
            (["metrics", "--format", "json"], [["0", "0"], ["1", "0"], ["1e400", "0"]], 0,
             '"hi_float": null'),
            # The annulus census normalizes by a zero-length incident edge.
            (["verify", "--s", "1"], [["0", "0"], ["0", "0"], ["1", "0"]], 3,
             "error: ZeroLengthEdgeError:"),
            # No enclosure up to the 16384-bit cap is 10**-6000 wide.
            (["metrics", "--rel-tol", "1e-6000"], [["0", "0"], ["1", "0"], ["3", "1"]], 3,
             "error: PrecisionExhausted:"),
        ],
        ids=["zero-length-edge", "tiny-edge", "huge-ratio", "verify-coincident",
             "unreachable-tolerance"],
    )
    def test_degenerate_drawings(self, tmp_path, capsys, command, coords, code, expect):
        path = drawing_file(tmp_path, 3, [[0, 1], [1, 2]], coords)
        assert cli.main([command[0], path, *command[1:]]) == code
        out = capsys.readouterr()
        assert expect in (out.err if code == 3 else out.out)
        if "json" in command:
            json.loads(out.out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
        if code == 3:
            assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_verify_disconnected_overfull_exits_3(self, tmp_path, capsys):
        # 60 neighbors in one annulus exceed 48 * 1**2, and certifying the
        # spanning ratio then meets the isolated vertex.
        star = unit_circle_star(60)
        g = Graph.from_edges(62, star.graph.edges())
        path = tmp_path / "d.json"
        path.write_text(fileio.serialize(fileio.drawing_to_obj(
            Drawing.of(g, [*star.coords, (F(5), F(5))]))))
        assert cli.main(["verify", str(path), "--s", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: DisconnectedDrawingError:") and err.count("\n") == 1

    @pytest.mark.parametrize("d_target, warning", [
        ("2", "warning: spanning tree max degree 5 exceeds target 2\n"),
        ("5", ""),
    ], ids=["missed", "met"])
    def test_draw_tough_reports_degree(self, tmp_path, capsys, d_target, warning):
        inp = graph_file(tmp_path, 6, [[0, i] for i in range(1, 6)])
        out = str(tmp_path / "d.json")
        assert cli.main(["draw", "tough", inp, "-o", out, "--d-target", d_target]) == 0
        assert capsys.readouterr().err == warning + "achieved tree degree: 5\n"

    def test_recognize(self, tmp_path, capsys):
        path = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3]], "p.json")
        claw = graph_file(tmp_path, 4, [[0, 1], [0, 2], [0, 3]], "c.json")
        assert cli.main(["recognize", "sr1", path]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert cli.main(["recognize", "planar-sr1", claw]) == 0
        assert capsys.readouterr().out.strip() == "false"
        for kind, g, result in (("sr1", path, "true"), ("planar-sr1", claw, "false")):
            assert cli.main(["recognize", kind, g, "--format", "json"]) == 0
            assert capsys.readouterr().out == f'{{"kind": "{kind}", "result": {result}}}\n'

    def test_draw_without_output_writes_drawing_to_stdout(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        out = tmp_path / "d.json"
        assert cli.main(["draw", "planar", inp, "-o", str(out)]) == 0
        report = capsys.readouterr()
        assert cli.main(["draw", "planar", inp]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == out.read_text(encoding="utf-8")
        assert streamed.err == report.out and "planar: True" in report.out and report.err == ""

    def test_verify_text_lists_violations(self, tmp_path, capsys):
        # The star's hub has 100 neighbors in annulus 1, above 48 (7/5)**2,
        # and its spanning ratio, about 31.8, is above 7/5: a violation the
        # ratio explains.
        path = tmp_path / "star.json"
        path.write_text(fileio.serialize(fileio.drawing_to_obj(unit_circle_star())))
        assert cli.main(["verify", str(path), "--s", "14/10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s: 7/5  threshold (48*s^2): 2352/25"
        assert lines[1:2] == ["violation: vertex 0, annulus 1, count 100"]
        assert lines[2].startswith("spanning_ratio: [") and " ~ [31.836" in lines[2]
        assert lines[3:] == ["verdict: Consistent"]

    def test_assertion_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(g):
            raise AssertionError("planted")

        monkeypatch.setattr(bounds, "recognize_sr1", broken)
        path = graph_file(tmp_path, 2, [[0, 1]])
        assert cli.main(["recognize", "sr1", path]) == 4
        assert capsys.readouterr().err == "internal error: AssertionError: planted\n"

    def test_recognize_sr1_too_large_exits_3(self, tmp_path, capsys):
        # A size precondition of the exact Hamiltonian-path search, not an
        # internal inconsistency.
        path = graph_file(tmp_path, 25, [[i, i + 1] for i in range(24)])
        assert cli.main(["recognize", "sr1", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: InstanceTooLarge") and err.count("\n") == 1

    def test_export_svg(self, tmp_path):
        inp = graph_file(tmp_path, 3, [[0, 1], [1, 2]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "proper", inp, "-o", out])
        svg = str(tmp_path / "d.svg")
        assert cli.main(["export-svg", out, "-o", svg]) == 0
        assert "<svg" in open(svg).read()

    @pytest.mark.parametrize(
        "viewport, code",
        [("1", 0), ("1000000", 0), ("0", 2), ("-5", 2), (str(10**400), 2), ("1/2", 2)],
        ids=["1", "10**6", "0", "-5", "10**400", "1/2"],
    )
    def test_export_svg_viewport_bounded(self, tmp_path, viewport, code):
        path = drawing_file(tmp_path, 2, [[0, 1]], [["0", "0"], ["1", "0"]])
        svg = tmp_path / "d.svg"
        try:
            got = cli.main(["export-svg", path, "-o", str(svg), "--viewport", viewport])
        except SystemExit as exc:  # argparse rejects the value
            got = exc.code
        assert got == code and svg.exists() == (code == 0)
        if code == 0:
            assert f'width="{viewport}"' in svg.read_text()

    def test_draw_metrics_agree_with_metrics_command(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "planar", inp, "--epsilon", "1", "-o", out, "--format", "json"])
        draw_report = json.loads(capsys.readouterr().out)
        cli.main(["metrics", out, "--format", "json"])
        metrics_report = json.loads(capsys.readouterr().out)
        assert draw_report == metrics_report

    def test_draw_json_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # json.dumps(obj, indent=2) left 33 objects of cyclic garbage behind
        # on every report, the closures of its indenting encoder. The draw
        # writes a drawing file and a report, metrics a report, and verify,
        # on a star with violations at s = 14/10, a list of dicts.
        g = thinned_triangulation(160, 0.3, 1)
        inp = graph_file(tmp_path, g.n, [list(e) for e in g.edges()])
        out, star = str(tmp_path / "d.json"), tmp_path / "star.json"
        star.write_text(fileio.serialize(fileio.drawing_to_obj(unit_circle_star())))
        cli._parser()  # built once per process, with garbage of its own
        reports = []
        for argv in (["draw", "planar", inp, "-o", out, "--format", "json"],
                     ["metrics", out, "--format", "json"],
                     ["verify", str(star), "--s", "14/10", "--format", "json"]):
            gc.collect()
            gc.disable()
            try:
                assert cli.main(argv) == 0
                assert gc.collect() == 0, argv
            finally:
                gc.enable()
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1] and reports[2]["violations"]

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


# A fresh interpreter runs this first: a finder that refuses networkx, so
# that any import of it, however indirect, fails.
REFUSE_NETWORKX = """
import sys


class RefuseNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ModuleNotFoundError(f"{name} refused", name=name)
        return None


sys.meta_path.insert(0, RefuseNetworkx())
"""

# Then this: every CLI command given as JSON in argv[1], and every demo
# named after it; it prints their exit codes.
RUN_ALL = """
import json
import runpy

try:
    import networkx
except ModuleNotFoundError:
    pass
else:
    sys.exit("networkx was not refused")

from spannerdraw import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
for demo in sys.argv[2:]:
    try:
        runpy.run_path(demo, run_name="__main__")
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_cli_and_demos_run_without_networkx(tmp_path):
    # The package runs on the standard library alone: with networkx refused,
    # every CLI command and every demo exits 0.
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    planar = graph_file(tmp_path, 6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [0, 3], [1, 4]],
                        "planar.json")
    tree = graph_file(tmp_path, 5, [[0, 1], [1, 2], [1, 3], [3, 4]], "tree.json")
    drawing = str(tmp_path / "planar-drawing.json")
    commands = [["draw", kind, tree if kind.startswith("tree") else planar,
                 "-o", str(tmp_path / f"{kind}-drawing.json"), "--format", fmt]
                for kind, fmt in [("planar", "json"), ("proper", "text"), ("tree-proper", "text"),
                                  ("tree-planar", "json"), ("tough", "text")]]
    commands += [
        ["metrics", drawing, "--format", "json"],
        ["verify", drawing, "--s", "3/2", "--format", "json"],
        ["recognize", "sr1", planar],
        ["recognize", "planar-sr1", planar, "--format", "json"],
        ["export-svg", drawing, "-o", str(tmp_path / "planar.svg")],
    ]
    demos = sorted(str(p) for p in (root / "demos").glob("*.py"))
    assert len(demos) == 3
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_NETWORKX + RUN_ALL, json.dumps(commands), *demos],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * (len(commands) + len(demos))


def test_planar_outputs_pinned(bench301):
    # tests/output_digest.py over the 88 seed-301 planar benchmark ops: the
    # draw, metrics and verify outputs, byte for byte, as recorded before
    # the canonical order was chosen by one contour scan. Run the script
    # for all 556 ops of seeds 301 and 302.
    ops = bench301.ops["planar"]
    assert len(ops) == 88
    assert digest(ops) == "49d5e0804117d644698b808651434427e0c724e50e79b9a814b1215924e9e9f6"


def test_tree_planar_outputs_pinned(bench301):
    # tests/output_digest.py over the 40 seed-301 tree-planar benchmark ops,
    # as recorded before the pruned pass took pairs of subtrees as blocks.
    ops = bench301.ops["tree-planar"]
    assert len(ops) == 40
    assert digest(ops) == "ff811e49a7a45996183b4da0f814bd3a2700e180ca4cce3b23996bffc4bd9e2a"


def test_proper_outputs_pinned():
    # tests/output_digest.py over the 150 seed-301 proper benchmark ops
    # (proper and tough drawings), as recorded before the far-right lemma
    # took the proper drawings' height search and certificate.
    ops = bench_workloads().build("proper", 301)
    assert len(ops) == 150
    assert digest(ops) == "5308dcdde6729428bc8ebea4546c506631fae2defb791088f58ff1be1ad90951"
