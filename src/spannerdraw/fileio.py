"""Graph and drawing serialization, plus lossy SVG export.

Files are JSON with a version tag. Coordinates are exact: they serialize as
"num/den" strings and parse from either that form or decimal strings. The
serializer emits a canonical form (sorted edges, reduced rationals), so
parse -> serialize round-trips byte-identically.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .drawing import Drawing
from .errors import SpannerDrawError
from .graph import Graph

FORMAT_VERSION = "spannerdraw/1"
# The longest coordinate string accepted on input. Converting a decimal string
# to an int takes time quadratic in its length: about 2 s at this length, and
# 40 s at 10**6 characters. It admits the 100003 characters that the
# coordinate 10**-100000 serializes to.
MAX_RATIONAL_CHARS = 200_000
_INTEGER_RATIO = re.compile(r"\s*(-?\d+)(?:/(\d+))?\s*")


class FileFormatError(SpannerDrawError):
    """Input file is not a valid graph/drawing file."""


def parse_rational(value) -> Fraction:
    """Exact rational from an int, a "num/den" string, or a decimal string."""
    if isinstance(value, bool):
        raise FileFormatError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # JSON floats are accepted and converted via their shortest decimal form.
        value = repr(value)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_CHARS:
            raise FileFormatError(
                f"rational of {len(value)} characters, more than {MAX_RATIONAL_CHARS}"
            )
        try:
            return _parse_rational_str(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"bad rational {value[:80]!r}: {exc}") from exc
    raise FileFormatError(f"bad rational {value!r}")


def _parse_rational_str(value: str) -> Fraction:
    try:
        return Fraction(value)
    except ValueError:
        ratio = _INTEGER_RATIO.fullmatch(value)
        if ratio is None:
            raise
        # An integer longer than sys.get_int_max_str_digits() digits, which
        # int() refuses; format_rational prints it through decimal, which has
        # no such limit, and it parses back the same way.
        num, den = (int(Decimal(part or "1")) for part in ratio.groups())
        if den == 0:
            raise ZeroDivisionError("zero denominator") from None
        return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        # More digits than sys.get_int_max_str_digits() lets int print; that
        # limit guards the parsing of outside input, and decimal has none.
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _parse_graph_fields(obj) -> tuple[Graph, Optional[list[str]]]:
    if not isinstance(obj, dict):
        raise FileFormatError("top-level value must be an object")
    if obj.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {obj.get('version')!r}")
    n = obj.get("n")
    if not isinstance(n, int) or n < 0:
        raise FileFormatError("field 'n' must be a nonnegative integer")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise FileFormatError("field 'edges' must be a list")
    edges = []
    seen = set()
    for e in raw_edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise FileFormatError(f"bad edge {e!r}")
        u, v = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise FileFormatError(f"edge {e!r} out of range or a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FileFormatError(f"duplicate edge {e!r}")
        seen.add(key)
        edges.append(key)
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != n or not all(
            isinstance(s, str) for s in names
        ):
            raise FileFormatError("field 'names' must be a list of n strings")
    return Graph.from_edges(n, edges), names


def graph_from_obj(obj) -> Graph:
    return _parse_graph_fields(obj)[0]


def drawing_from_obj(obj) -> Drawing:
    g, _ = _parse_graph_fields(obj)
    coords = obj.get("coords")
    if not isinstance(coords, list) or len(coords) != g.n:
        raise FileFormatError("field 'coords' must be a list of n [x, y] pairs")
    points = []
    for c in coords:
        if not isinstance(c, list) or len(c) != 2:
            raise FileFormatError(f"bad coordinate {c!r}")
        points.append((parse_rational(c[0]), parse_rational(c[1])))
    return Drawing(g, tuple(points))


def graph_to_obj(g: Graph, names: Optional[list[str]] = None) -> dict:
    obj: dict = {
        "version": FORMAT_VERSION,
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
    }
    if names is not None:
        obj["names"] = list(names)
    return obj


def drawing_to_obj(d: Drawing, names: Optional[list[str]] = None) -> dict:
    obj = graph_to_obj(d.graph, names)
    obj["coords"] = [[format_rational(x), format_rational(y)] for x, y in d.coords]
    return obj


def serialize(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_graph(path: str) -> Graph:
    return graph_from_obj(_load_json(path))


def load_drawing(path: str) -> Drawing:
    return drawing_from_obj(_load_json(path))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an int literal beyond int()'s digit limit
            raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc


def save_graph(g: Graph, path: str, names: Optional[list[str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph_to_obj(g, names)))


def save_drawing(d: Drawing, path: str, names: Optional[list[str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(drawing_to_obj(d, names)))


def export_svg(d: Drawing, viewport: int = 800) -> str:
    """SVG rendering of a drawing, affinely scaled to the viewport.

    Display only: coordinates are converted to floating point and must never
    feed back into the exact pipeline.
    """
    n = d.graph.n
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- visualization only — coordinates lossy -->",
    ]
    margin = viewport * 0.05
    if n == 0:
        lines.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{viewport}" '
            f'height="{viewport}"/>'
        )
        return "\n".join(lines) + "\n"
    xs = [x for x, _ in d.coords]
    ys = [y for _, y in d.coords]
    xmin, ymin = min(xs), min(ys)
    # Normalized exactly, so that coordinates beyond the range of a double
    # reach float() only as fractions of the span.
    span = max(max(xs) - xmin, max(ys) - ymin) or 1
    scale = viewport - 2 * margin

    def to_px(x: Fraction, y: Fraction) -> tuple[float, float]:
        return (
            margin + float((x - xmin) / span) * scale,
            viewport - margin - float((y - ymin) / span) * scale,  # flip y for screen axes
        )

    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{viewport}" height="{viewport}">'
    )
    for u, v in d.graph.edges():
        x1, y1 = to_px(xs[u], ys[u])
        x2, y2 = to_px(xs[v], ys[v])
        lines.append(
            f'  <line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            'stroke="black" stroke-width="1"/>'
        )
    for v in range(n):
        cx, cy = to_px(xs[v], ys[v])
        lines.append(f'  <circle cx="{cx:.3f}" cy="{cy:.3f}" r="3" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
