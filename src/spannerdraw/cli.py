"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 precondition violation (any
errors.PreconditionError: a graph that is not planar, connected or a tree, a
zero-length edge or a disconnected drawing in verify, an instance too large
for an exact routine, a tolerance the precision cap cannot reach), 4 internal
inconsistency, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import bounds, fileio, layout, metrics
from .errors import PreconditionError
from .exact import Interval, format_rational

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
EXIT_IO = 5


def _rational(text: str) -> Fraction:
    """A numeric argument, parsed and bounded as a coordinate in a file is."""
    try:
        return fileio.parse_rational(text)
    except fileio.FileFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _viewport(text: str) -> int:
    value = _rational(text)
    try:
        return fileio.check_viewport(int(value) if value.denominator == 1 else value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spannerdraw",
        description="Construct and verify straight-line graph drawings with "
        "spanning ratio close to 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    draw = sub.add_parser("draw", help="construct a drawing from a graph file")
    draw.add_argument(
        "kind", choices=["planar", "proper", "tree-proper", "tree-planar", "tough"]
    )
    draw.add_argument("input", help="graph file (JSON)")
    draw.add_argument("-o", "--output", help="drawing file to write (default: stdout)")
    draw.add_argument("--epsilon", type=_positive_rational, default=Fraction(1))
    draw.add_argument("--rel-tol", type=_positive_rational, default=metrics.DEFAULT_REL_TOL)
    draw.add_argument("--d-target", type=_positive_int, default=3)
    draw.add_argument("--format", choices=["text", "json"], default="text")

    met = sub.add_parser("metrics", help="exact/certified metric report of a drawing")
    met.add_argument("input", help="drawing file (JSON)")
    met.add_argument("--rel-tol", type=_positive_rational, default=metrics.DEFAULT_REL_TOL)
    met.add_argument("--format", choices=["text", "json"], default="text")

    ver = sub.add_parser("verify", help="annulus-count lower-bound consistency check")
    ver.add_argument("input", help="drawing file (JSON)")
    ver.add_argument("--s", type=_rational, required=True, help="spanning-ratio budget, >= 1")
    ver.add_argument("--format", choices=["text", "json"], default="text")

    rec = sub.add_parser("recognize", help="spanning-ratio-1 recognizers")
    rec.add_argument("kind", choices=["sr1", "planar-sr1"])
    rec.add_argument("input", help="graph file (JSON)")
    rec.add_argument("--format", choices=["text", "json"], default="text")

    svg = sub.add_parser("export-svg", help="lossy SVG rendering of a drawing")
    svg.add_argument("input", help="drawing file (JSON)")
    svg.add_argument("-o", "--output", required=True, help="SVG file to write")
    svg.add_argument("--viewport", type=_viewport, default=800)

    return parser


# main's parser, built once: each build costs about 1 ms and leaves cyclic garbage.
_parser = functools.cache(build_parser)


def _float_or_none(q: Fraction) -> Optional[float]:
    """q as a float, or None when it is out of the range of a double."""
    try:
        return float(q)
    except OverflowError:
        return None


def _interval_obj(iv: Optional[Interval]):
    if iv is None:
        return None
    if iv.is_infinite:
        return {"infinite": True}
    return {
        "lo": format_rational(iv.lo),
        "hi": format_rational(iv.hi),
        "lo_float": _float_or_none(iv.lo),
        "hi_float": _float_or_none(iv.hi),
    }


def _interval_text(val: dict) -> str:
    """The text form of an _interval_obj: the exact bounds, then their floats
    when both fit a double."""
    if val.get("infinite"):
        return "infinite"
    text = f"[{val['lo']}, {val['hi']}]"
    if val["lo_float"] is not None and val["hi_float"] is not None:
        text += f" ~ [{val['lo_float']:.12g}, {val['hi_float']:.12g}]"
    return text


def _report_obj(report: metrics.MetricReport) -> dict:
    return {
        "spanning_ratio": _interval_obj(report.spanning_ratio),
        "edge_length_ratio": _interval_obj(report.edge_length_ratio),
        "width": format_rational(report.width),
        "height": format_rational(report.height),
        "planar": report.planar,
        "proper": report.proper,
        "no_three_collinear": report.no_three_collinear,
        "min_pairwise_distance_sq": (
            None
            if report.min_pairwise_distance_sq is None
            else format_rational(report.min_pairwise_distance_sq)
        ),
    }


def _verify_obj(result: bounds.AnnulusCheckResult) -> dict:
    return {
        "s": format_rational(result.s),
        "threshold": format_rational(result.threshold),
        "violations": [
            {"vertex": v.vertex, "annulus": v.annulus, "count": v.count}
            for v in result.violations
        ],
        "spanning_ratio": _interval_obj(result.spanning_ratio),
        "verdict": result.verdict,
    }


def _print_report(report: metrics.MetricReport, fmt: str, out) -> None:
    obj = _report_obj(report)
    if fmt == "json":
        out.write(fileio.serialize(obj))
        return
    for key, val in obj.items():
        out.write(f"{key}: {_interval_text(val) if isinstance(val, dict) else val}\n")


def _cmd_draw(args) -> int:
    g = fileio.load_graph(args.input)
    eps = layout.Epsilon(args.epsilon)
    # The constructions that take (graph, epsilon), looked up on layout at
    # each call, so that a wrapper set there is the one called.
    draws = {"planar": layout.draw_planar_spanner, "proper": layout.draw_proper_spanner,
             "tree-proper": layout.draw_tree_proper, "tree-planar": layout.draw_tree_planar}
    if args.kind in draws:
        drawing = draws[args.kind](g, eps)
    else:
        result = layout.draw_graph_via_tough_tree(g, args.d_target, eps)
        drawing = result.drawing
        if result.warning is not None:
            print(f"warning: {result.warning}", file=sys.stderr)
        print(f"achieved tree degree: {result.achieved_degree}", file=sys.stderr)
    payload = fileio.serialize(fileio.drawing_to_obj(drawing))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        report_out = sys.stdout
    else:
        sys.stdout.write(payload)
        report_out = sys.stderr
    report = metrics.compute_metrics(drawing, args.rel_tol)
    _print_report(report, args.format, report_out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    drawing = fileio.load_drawing(args.input)
    report = metrics.compute_metrics(drawing, args.rel_tol)
    _print_report(report, args.format, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.s < 1:
        print("error: --s must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    drawing = fileio.load_drawing(args.input)
    result = bounds.annulus_bound_check(drawing, args.s)
    if args.format == "json":
        sys.stdout.write(fileio.serialize(_verify_obj(result)))
    else:
        print(f"s: {result.s}  threshold (48*s^2): {result.threshold}")
        if not result.violations:
            print("violations: none")
        for v in result.violations:
            print(f"violation: vertex {v.vertex}, annulus {v.annulus}, count {v.count}")
        if result.spanning_ratio is not None:
            print(f"spanning_ratio: {_interval_text(_interval_obj(result.spanning_ratio))}")
        print(f"verdict: {result.verdict}")
    return EXIT_OK if result.verdict == "Consistent" else EXIT_INTERNAL


def _cmd_recognize(args) -> int:
    g = fileio.load_graph(args.input)
    if args.kind == "sr1":
        answer = bounds.recognize_sr1(g)
    else:
        answer = bounds.recognize_planar_sr1(g)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "result": answer}))
    else:
        print("true" if answer else "false")
    return EXIT_OK


def _cmd_export_svg(args) -> int:
    svg = fileio.export_svg(fileio.load_drawing(args.input), args.viewport)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "draw": _cmd_draw,
        "metrics": _cmd_metrics,
        "verify": _cmd_verify,
        "recognize": _cmd_recognize,
        "export-svg": _cmd_export_svg,
    }
    try:
        return handlers[args.command](args)
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
