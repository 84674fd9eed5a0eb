import json
from fractions import Fraction

import pytest

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
        path = str(tmp_path / "d.json")
        fileio.save_drawing(d, path)
        assert fileio.load_drawing(path) == d
        assert cli.main(["metrics", path]) == 0
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

    def test_drawing_round_trip_byte_identical(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        d = Drawing.of(g, [(0, 0), (F(1, 3), 2), (-4, F(7, 2))])
        text = fileio.serialize(fileio.drawing_to_obj(d))
        d2 = fileio.drawing_from_obj(json.loads(text))
        assert fileio.serialize(fileio.drawing_to_obj(d2)) == text
        assert d2.coords == d.coords
        assert d2.graph.edges() == d.graph.edges()

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

    def test_names_validated(self):
        obj = {"version": "spannerdraw/1", "n": 2, "edges": [[0, 1]], "names": ["a"]}
        with pytest.raises(fileio.FileFormatError):
            fileio.graph_from_obj(obj)


class TestDrawingValidation:
    def test_wrong_point_count_raises_value_error(self):
        with pytest.raises(ValueError):
            Drawing(Graph.from_edges(2, [(0, 1)]), ((F(0), F(0)),))

    def test_non_fraction_coordinate_raises_type_error(self):
        g = Graph.from_edges(2, [(0, 1)])
        for point in ((0.5, F(0)), (F(0), 1), (F(0), F(0), F(0))):
            with pytest.raises(TypeError):
                Drawing(g, ((F(0), F(0)), point))
        assert Drawing.of(g, [(0, 0), (0.5, 1)]).coords[1] == (F(1, 2), F(1))


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


def drawing_file(tmp_path, n, edges, coords):
    p = tmp_path / "d.json"
    p.write_text(
        json.dumps({"version": "spannerdraw/1", "n": n, "edges": edges, "coords": coords})
    )
    return str(p)


def test_version_matches_pyproject():
    import os
    import tomllib

    import spannerdraw

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert spannerdraw.__version__ == tomllib.load(fh)["project"]["version"]


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

    def test_disconnected_exits_3(self, tmp_path):
        inp = graph_file(tmp_path, 4, [[0, 1], [2, 3]])
        assert cli.main(["draw", "proper", inp, "-o", str(tmp_path / "o")]) == 3

    def test_bad_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["metrics", str(p)]) == 2

    def test_missing_file_exits_5(self, tmp_path):
        assert cli.main(["metrics", str(tmp_path / "absent.json")]) == 5

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
            (["verify", "--s", "1"], [["0", "0"], ["0", "0"], ["1", "0"]], 3, ""),
        ],
        ids=["zero-length-edge", "tiny-edge", "huge-ratio", "verify-coincident"],
    )
    def test_degenerate_drawings(self, tmp_path, capsys, command, coords, code, expect):
        path = drawing_file(tmp_path, 3, [[0, 1], [1, 2]], coords)
        assert cli.main([command[0], path, *command[1:]]) == code
        out = capsys.readouterr()
        assert expect in out.out
        if "json" in command:
            json.loads(out.out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
        if code == 3:
            assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_recognize(self, tmp_path, capsys):
        path = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3]], "p.json")
        claw = graph_file(tmp_path, 4, [[0, 1], [0, 2], [0, 3]], "c.json")
        assert cli.main(["recognize", "sr1", path]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert cli.main(["recognize", "planar-sr1", claw]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_export_svg(self, tmp_path):
        inp = graph_file(tmp_path, 3, [[0, 1], [1, 2]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "proper", inp, "-o", out])
        svg = str(tmp_path / "d.svg")
        assert cli.main(["export-svg", out, "-o", svg]) == 0
        assert "<svg" in open(svg).read()

    def test_draw_metrics_agree_with_metrics_command(self, tmp_path, capsys):
        inp = graph_file(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        out = str(tmp_path / "d.json")
        cli.main(["draw", "planar", inp, "--epsilon", "1", "-o", out, "--format", "json"])
        draw_report = json.loads(capsys.readouterr().out)
        cli.main(["metrics", out, "--format", "json"])
        metrics_report = json.loads(capsys.readouterr().out)
        assert draw_report == metrics_report
