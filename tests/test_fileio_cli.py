import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import random_rational_drawing, unit_circle_star
from spannerdraw import cli, fileio
from spannerdraw.drawing import Drawing
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
        assert fileio.format_rational(F(3)) == "3/1"
        assert fileio.format_rational(F(-1, 2)) == "-1/2"


class TestRoundTrip:
    def test_coordinates_beyond_int_digit_limit_round_trip(self, tmp_path):
        # 10**5000 has more digits than int() parses from a string by default.
        g = Graph.from_edges(2, [(0, 1)])
        d = Drawing.of(g, [(0, F(-1, 3)), (10**5000, F(1, 10**5000 + 1))])
        path = tmp_path / "d.json"
        path.write_text(fileio.serialize(fileio.drawing_to_obj(d)), encoding="utf-8")
        assert fileio.load_drawing(str(path)) == d
        assert cli.main(["metrics", str(path)]) == 0
        assert len(fileio.format_rational(F(1, 10**100000))) <= fileio.MAX_RATIONAL_CHARS

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

    def test_decimal_input_converts_exactly(self):
        obj = {
            "version": "spannerdraw/1",
            "n": 2,
            "edges": [[0, 1]],
            "coords": [["0.5", "0"], ["2", "-0.25"]],
        }
        d = fileio.drawing_from_obj(obj)
        assert d.coords == ((F(1, 2), F(0)), (F(2), F(-1, 4)))

    def test_rejects_bad_version_and_edges(self):
        with pytest.raises(fileio.FileFormatError):
            fileio.graph_from_obj({"version": "nope", "n": 1, "edges": []})
        base = {"version": "spannerdraw/1", "n": 2}
        for edges in ([[0, 0]], [[0, 2]], [[0, 1], [1, 0]]):
            with pytest.raises(fileio.FileFormatError):
                fileio.graph_from_obj({**base, "edges": edges})

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
        for point in ((0.5, 0), (0, F(1)), (F(0), F(0)), (True, 0), (0, 0, 0), [0, 0]):
            with pytest.raises(TypeError, match="Drawing.of"):
                Drawing(g, ((0, 0), point))
        assert Drawing.of(g, [(0, 0), (0.5, 1)]).coords[1] == (F(1, 2), F(1))

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
        # den is the least common denominator L of the coordinates, which the
        # float filter's scaling and the bracket unit of _filter_proves assume.
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

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    # networkx is imported only by canonical_order_validate; importing the
    # CLI and drawing a planar graph never load it.
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, spannerdraw.cli; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
    inp = graph_file(tmp_path, 6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [0, 3], [1, 4]])
    code = ("import sys\nfrom spannerdraw import cli\n"
            "rc = cli.main(['draw', 'planar', sys.argv[1], '-o', sys.argv[2]])\n"
            "print(rc, 'networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, inp, str(tmp_path / "d.json")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "0 False"), proc.stderr
