"""Closed-loop op runner for the spannerdraw benchmark.

Runs in its own process so that its peak resident memory is the workload's:

    python3 bench/worker.py <manifest.json> <result.json>

The manifest names the ops, the directory holding their graph files and
whether to trace. One op runs at a time, in-process, through
`spannerdraw.cli.main`, exactly as `spannerdraw draw ... -o out.json --format
json` would. Every op runs, once. A short calibration chunk runs before each op
and after the last one, so that every op time can be put at a reference
machine speed.

With tracing on, every op runs twice, once plain and once with the layer
functions wrapped in spans, alternating which goes first. The plain copies
give the tracing overhead; the traced copies give the per-layer times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from workloads import Op, check, max_coord_bits

CALIBRATION_ROUNDS = 5


def calibration_chunk() -> float:
    """Seconds for a fixed loop of big-rational arithmetic in pure Python.

    It uses only the standard library, so no change to the program can move
    it, and it exercises the same kind of work as the program (allocation,
    big-integer products, gcd and isqrt), so it slows down with the machine
    in about the same proportion.
    """
    t0 = time.perf_counter()
    a = Fraction(3**150 + 1, 2**200 + 7)
    acc = Fraction(0)
    for i in range(1, 60):
        b = a + Fraction(i, 3**40 + i)
        acc += (b - a) * (b - a)
        math.isqrt((b.numerator * 10**300) // b.denominator)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of a few calibration chunks, a gauge of machine speed."""
    return statistics.median(calibration_chunk() for _ in range(CALIBRATION_ROUNDS))


class Tracer:
    """Spans kept in memory: (name, start, end, parent span index, op seq)."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[tuple[str, float, float, Optional[int], int]] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start - self.origin, end - self.origin, parent, self.op)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                key, value = count(result)
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public layer functions as the CLI and layout reach them.

        Each patch replaces the module attribute that the caller looks up at
        call time, so the program itself is unchanged.
        """
        from spannerdraw import fileio, layout, metrics

        targets = [
            (fileio, "load_graph", "fileio.load_graph", None),
            (fileio, "drawing_to_obj", "fileio.drawing_to_obj", None),
            (fileio, "serialize", "fileio.serialize", None),
            (layout, "draw_planar_spanner", "layout.draw", None),
            (layout, "draw_proper_spanner", "layout.draw", None),
            (layout, "draw_tree_planar", "layout.draw", None),
            (layout, "draw_graph_via_tough_tree", "layout.draw", None),
            (
                layout,
                "augment_to_maximal_with_canonical_order",
                "embedding.augment",
                lambda co: ("embedding.supergraph_edges", co.supergraph.m),
            ),
            (layout, "degree_bounded_spanning_tree", "graph.degree_bounded_spanning_tree", None),
            (metrics, "compute_metrics", "metrics.compute_metrics", None),
        ] + [
            (metrics, fn, f"metrics.{fn}", None)
            for fn in (
                "spanning_ratio",
                "is_planar_drawing",
                "is_proper_drawing",
                "no_three_collinear",
                "min_pairwise_distance_sq",
                "edge_length_ratio",
            )
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for (module, attr, name, count), (_, _, fn) in zip(targets, saved):
                setattr(module, attr, self.wrap(fn, name, count))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def run_op(op: Op, graph_path: str, drawing_path: str, tracer: Optional[Tracer]) -> dict:
    """Run one op and check its output; only the cli.main call is timed."""
    from spannerdraw import cli

    if os.path.exists(drawing_path):
        os.remove(drawing_path)
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv(graph_path, drawing_path)
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.installed(), tracer.span("op"):
                    rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the op failed; the run goes on
            rc = None
            error = f"{type(exc).__name__}: {str(exc)[:120]}"
        elapsed = time.perf_counter() - t0
    drawing = None
    if os.path.exists(drawing_path):
        with open(drawing_path, "rb") as fh:
            drawing = fh.read()
    # A wrong output is one the program reported as a success.
    reason = error if error is not None else check(op, rc, out.getvalue(), drawing)
    return {"seconds": elapsed, "failure": reason, "wrong": rc == 0 and reason is not None, "drawing": drawing}


def run(ops: list[Op], workdir: str, trace: bool) -> dict:
    """One closed-loop pass over `ops`."""
    origin = time.perf_counter()
    calib_start = calibrate()
    tracer = Tracer(origin) if trace else None
    times: dict[bool, list[float]] = {False: [], True: []}
    # Calibration chunk seconds before each op and after the last one.
    speed: list[float] = []
    failures: list[dict] = []
    digests: list[str] = []
    drawing_bytes = 0
    coord_bits = 0
    op_log = []
    for op in ops:
        speed.append(calibration_chunk())
        graph_path = os.path.join(workdir, f"graph-{op.id}.json")
        drawing_path = os.path.join(workdir, f"drawing-{op.id}.json")
        modes = [op.id % 2 == 1, op.id % 2 == 0] if trace else [False]
        digest = None
        for traced in modes:
            if traced:
                tracer.op = len(op_log)
            op_log.append({"seq": len(op_log), "op": op.id, "traced": traced})
            result = run_op(op, graph_path, drawing_path, tracer if traced else None)
            times[traced].append(result["seconds"])
            failure, wrong = result["failure"], result["wrong"]
            drawing = result["drawing"]
            if drawing is not None:
                this = hashlib.sha256(drawing).hexdigest()
                if digest is None:
                    digest = this
                    drawing_bytes += len(drawing)
                    coord_bits = max(coord_bits, max_coord_bits(drawing))
                elif this != digest and failure is None:
                    failure, wrong = "traced and plain drawings differ", True
            if failure is not None:
                failures.append({"op": op.id, "traced": traced, "reason": failure, "wrong": wrong})
        digests.append(digest or "-")
    speed.append(calibration_chunk())
    calib_end = calibrate()
    return {
        "attempted": len(op_log),
        "failures": failures,
        "plain_times": times[False],
        "speed": speed,
        "traced_times": times[True],
        "drawing_bytes": drawing_bytes,
        "drawings_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "max_coord_bits": coord_bits,
        "calib_start_s": calib_start,
        "calib_end_s": calib_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
        "counts": tracer.counts if tracer else {},
        "op_log": op_log,
    }


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    ops = [Op.from_obj(o) for o in manifest["ops"]]
    result = run(ops, manifest["workdir"], manifest["trace"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
