"""Graph and drawing serialization, plus lossy SVG export.

Files are JSON with a version tag. Coordinates are exact: they serialize as
"num/den" strings and parse from either that form or decimal strings. The
serializer emits a canonical form (sorted edges, reduced rationals), so
parse -> serialize round-trips byte-identically. It also writes the CLI's
JSON reports, as json.dumps(obj, indent=2) would: item by item from a
stack, except the rows of a file's edges and coordinates, lists of equally
long lists of ints or strs, which hold nearly all of a drawing's items and
are written in one pass.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional

from .drawing import Drawing
from .errors import SpannerDrawError
from .exact import format_ratio
from .graph import Graph

FORMAT_VERSION = "spannerdraw/1"
# The longest coordinate string accepted on input. Converting a decimal string
# to an int takes time quadratic in its length: about 2 s at this length, and
# 40 s at 10**6 characters. It admits the 100003 characters that the
# coordinate 10**-100000 serializes to. It also bounds the magnitude of a
# decimal exponent, since Fraction("1e1000000000") builds 10**1000000000.
MAX_RATIONAL_CHARS = 200_000
# The most vertices a graph file may declare. Graph.from_edges builds one
# adjacency set per vertex, so an unbounded n allocates without bound before
# any edge is read.
MAX_VERTICES = 10**6
_INTEGER_RATIO = re.compile(r"\s*(-?\d+)(?:/(\d+))?\s*")
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*")


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
        exponent = _DECIMAL_EXPONENT.search(value)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
            # Lengths first: int() refuses more than 4300 digits.
            if len(digits) > len(str(MAX_RATIONAL_CHARS)) or int(digits) > MAX_RATIONAL_CHARS:
                raise FileFormatError(
                    f"decimal exponent {exponent.group(0).strip()[:80]!r} beyond "
                    f"+-{MAX_RATIONAL_CHARS}"
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


def graph_from_obj(obj) -> Graph:
    """The graph of a graph or drawing file's JSON value; FileFormatError
    when it is malformed."""
    if not isinstance(obj, dict):
        raise FileFormatError("top-level value must be an object")
    if obj.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {obj.get('version')!r}")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FileFormatError("field 'n' must be a nonnegative integer")
    if n > MAX_VERTICES:
        raise FileFormatError(f"field 'n' is {n}, more than {MAX_VERTICES}")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise FileFormatError("field 'edges' must be a list")
    edges = set()  # each as (min, max)
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2:
            raise FileFormatError(f"bad edge {e!r}")
        u, v = e
        if not isinstance(u, int) or isinstance(u, bool) or not isinstance(v, int) or isinstance(v, bool):
            raise FileFormatError(f"bad edge {e!r}")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise FileFormatError(f"edge {e!r} out of range or a self-loop")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise FileFormatError(f"duplicate edge {e!r}")
        edges.add(key)
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != n or not all(
            isinstance(s, str) for s in names
        ):
            raise FileFormatError("field 'names' must be a list of n strings")
    return Graph.from_edges(n, edges)


def drawing_from_obj(obj) -> Drawing:
    g = graph_from_obj(obj)
    coords = obj.get("coords")
    if not isinstance(coords, list) or len(coords) != g.n:
        raise FileFormatError("field 'coords' must be a list of n [x, y] pairs")
    points = []
    for c in coords:
        if not isinstance(c, list) or len(c) != 2:
            raise FileFormatError(f"bad coordinate {c!r}")
        points.append((parse_rational(c[0]), parse_rational(c[1])))
    return Drawing.of(g, points)


def graph_to_obj(g: Graph) -> dict:
    return {
        "version": FORMAT_VERSION,
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
    }


def drawing_to_obj(d: Drawing) -> dict:
    """The JSON value of a drawing file: each coordinate is its numerator
    over d.den in lowest terms, as format_rational writes it."""
    obj = graph_to_obj(d.graph)
    den = d.den
    obj["coords"] = [
        [format_ratio(x // gx, den // gx), format_ratio(y // gy, den // gy)]
        for x, y in d.points
        for gx, gy in ((math.gcd(x, den), math.gcd(y, den)),)
    ]
    return obj


def serialize(obj) -> str:
    """The text json.dumps writes for obj at an indent of 2, plus "\n", for
    a value built of dicts with str keys, lists, tuples and JSON scalars: a
    graph or drawing file, or a report.

    The layout is written directly, from a stack rather than by recursion:
    json's indenting encoder is pure Python, takes several generator steps
    per item, and its nested closures leave cyclic garbage after every call.
    Each container goes on the stack item by item, except a list that _rows
    takes, the edges and coordinates of a file, where nearly all of a
    drawing's items are: its rows are written in one pass."""
    out = []
    todo = [("", obj, "\n")]  # text to write, then a value to write at an indent
    while todo:
        text, value, indent = todo.pop()
        out.append(text)
        if indent is None:
            continue
        if not isinstance(value, _CONTAINERS):
            out.append(_json_scalar(value))
            continue
        if isinstance(value, dict):
            brackets = "{}"
            items = [(encode_basestring_ascii(key) + ": ", item) for key, item in value.items()]
        else:
            rows = _rows(value, indent)
            if rows is not None:
                out.append(rows)
                continue
            brackets, items = "[]", [("", item) for item in value]
        if not items:
            out.append(brackets)
            continue
        inner = indent + "  "
        out.append(brackets[0])
        todo.append((indent + brackets[1], None, None))
        todo += reversed([("," * (k > 0) + inner + head, item, inner)
                          for k, (head, item) in enumerate(items)])
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)
_LITERALS = {None: "null", True: "true", False: "false"}


def _json_scalar(x) -> str:
    """x, a scalar, as json.dumps writes it, without its overhead."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    if x is None or type(x) is bool:
        return _LITERALS[x]
    return json.dumps(x)  # a float that is not finite, or a subclass of a scalar


def _rows(value, indent: str) -> Optional[str]:
    """value as serialize writes it at indent, if it is a list of equally
    long, nonempty lists whose items are all str or all int, such as a
    file's edges and coordinate pairs; else None. The items are written by
    the C function that _json_scalar calls for them, in one pass over all
    the rows."""
    if set(map(type, value)) != {list}:
        return None
    lengths = set(map(len, value))
    kinds = set(map(type, chain.from_iterable(value)))
    if len(lengths) != 1 or 0 in lengths or not (kinds <= {str} or kinds <= {int}):
        return None
    write = encode_basestring_ascii if str in kinds else int.__repr__
    inner, deeper = indent + "  ", indent + "    "
    rows = map(("," + deeper).join, zip(*[map(write, chain.from_iterable(value))] * lengths.pop()))
    return ("[" + inner + "[" + deeper + (inner + "]," + inner + "[" + deeper).join(rows)
            + inner + "]" + indent + "]")


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


MAX_VIEWPORT = 10**6


def check_viewport(viewport) -> int:
    """viewport, if it is an int from 1 to MAX_VIEWPORT pixels; else ValueError."""
    if not (isinstance(viewport, int) and not isinstance(viewport, bool)
            and 1 <= viewport <= MAX_VIEWPORT):
        raise ValueError(f"viewport must be a whole number of pixels from 1 to {MAX_VIEWPORT}")
    return viewport


def export_svg(d: Drawing, viewport: int = 800) -> str:
    """SVG rendering of a drawing, affinely scaled to the viewport, an int
    from 1 to MAX_VIEWPORT pixels (ValueError otherwise).

    Display only: coordinates are converted to floating point and must never
    feed back into the exact pipeline.
    """
    check_viewport(viewport)
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
    xs = [x for x, _ in d.points]
    ys = [y for _, y in d.points]
    xmin, ymin = min(xs), min(ys)
    # Integer numerators over the span, so that coordinates beyond the range
    # of a double reach a float only as correctly rounded fractions of it.
    span = max(max(xs) - xmin, max(ys) - ymin) or 1
    scale = viewport - 2 * margin

    def to_px(x: int, y: int) -> tuple[float, float]:
        return (
            margin + (x - xmin) / span * scale,
            viewport - margin - (y - ymin) / span * scale,  # flip y for screen axes
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
