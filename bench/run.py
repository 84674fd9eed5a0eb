"""Seeded draw-and-certify benchmark for spannerdraw.

    python3 bench/run.py [--workload planar|tree-planar|proper|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the root of the repository; it imports the package from `src/`.
Each workload is a closed loop, one `spannerdraw draw` op at a time, in a
worker process of its own (see worker.py); workloads.py makes the inputs from
the seed and checks every op's output. Every input is drawn once, in every
run. The inputs are a fixed number of graphs per size, sized to fit within
run_seconds of BENCHMARK.json; `--seconds` may only restate that value, so
that every run of a workload draws the same size mix and its figures compare.

The end-to-end times (op_s_p50, op_s_tail, ops_per_s, setup_s) are given at a
reference machine speed, because a shared machine's speed drifts by up to 2x
over tens of seconds: each measured time is scaled by how long a fixed
calibration loop took right around it (see REFERENCE_S). The wall-clock
figures are printed beside them and kept in the result file. With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of a traced run, whose spans are written to
`bench/out/`. Human-readable lines come first, and a full result file per run
goes to `bench/out/BENCH_<workload>_seed<N>_trace<T>.json`.

The metric names, units and regression bounds are declared in BENCHMARK.json
at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from worker import calibration_chunk

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 170
# End-to-end times are given at a reference machine speed: the speed at which
# worker.calibration_chunk takes REFERENCE_S. Each measured time is scaled by
# REFERENCE_S over the mean of the chunks timed right before and right after it.
REFERENCE_S = 0.002

# Per-layer span names whose summed durations make up each layer metric.
LAYER_SPANS = {
    "fileio.load_graph_s": ("fileio.load_graph",),
    "fileio.serialize_s": ("fileio.drawing_to_obj", "fileio.serialize"),
    "layout.draw_s": ("layout.draw",),
    "embedding.augment_s": ("embedding.augment",),
    "graph.degree_bounded_spanning_tree_s": ("graph.degree_bounded_spanning_tree",),
    "metrics.spanning_ratio_s": ("metrics.spanning_ratio",),
    "metrics.is_planar_drawing_s": ("metrics.is_planar_drawing",),
    "metrics.is_proper_drawing_s": ("metrics.is_proper_drawing",),
    "metrics.no_three_collinear_s": ("metrics.no_three_collinear",),
    "metrics.min_pairwise_distance_sq_s": ("metrics.min_pairwise_distance_sq",),
    "metrics.edge_length_ratio_s": ("metrics.edge_length_ratio",),
}
# Layers that do not nest inside one another; with cli.other_s they add up to
# the traced op time.
TOP_LAYERS = (
    "fileio.load_graph_s",
    "fileio.serialize_s",
    "layout.draw_s",
    "metrics.spanning_ratio_s",
    "metrics.is_planar_drawing_s",
    "metrics.is_proper_drawing_s",
    "metrics.no_three_collinear_s",
    "metrics.min_pairwise_distance_sq_s",
    "metrics.edge_length_ratio_s",
)


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(wall seconds, calibration chunk seconds around it) of fresh
    interpreters that only `import spannerdraw`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", "import spannerdraw"]
    out = []
    for _ in range(samples):
        before = calibration_chunk()
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the measurement.
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        if proc.wait() != 0:
            raise RuntimeError("import spannerdraw failed")
        wall = time.perf_counter() - t0
        out.append((wall, (before + calibration_chunk()) / 2))
    return out


def write_inputs(ops, workdir: str) -> None:
    """One graph file per op, named as the worker expects."""
    for op in ops:
        with open(os.path.join(workdir, f"graph-{op.id}.json"), "w", encoding="utf-8") as fh:
            fh.write(op.graph_json())


def run_worker(ops, workdir: str, trace: bool) -> dict:
    write_inputs(ops, workdir)
    manifest = os.path.join(workdir, "manifest.json")
    result = os.path.join(workdir, "result.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "src": SRC,
                "workdir": workdir,
                "trace": trace,
                "ops": [op.to_obj() for op in ops],
            },
            fh,
        )
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), manifest, result]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def at_reference_speed(times: list[float], speed: list[float]) -> list[float]:
    """Op times rescaled to the reference machine speed.

    A shared machine's speed drifts by up to 2x over tens of seconds, which
    would swamp most changes to the program. speed[i] and speed[i + 1] are the
    calibration chunks timed right before and right after times[i], and track
    that drift.
    """
    return [t * 2 * REFERENCE_S / (speed[i] + speed[i + 1]) for i, t in enumerate(times)]


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest value with at least 10 beyond it."""
    return max(count - 11, 0)


def op_stats(times: list[float]) -> dict:
    ordered = sorted(times)
    return {
        "op_s_p50": statistics.median(ordered),
        "op_s_tail": ordered[tail_index(len(ordered))],
        "ops_per_s": len(ordered) / sum(ordered),
    }


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics and the figures reported beside them. The times are
    at the reference machine speed; the wall-clock figures go beside them."""
    wall = raw["plain_times"]
    failed = len(raw["failures"])
    k = tail_index(len(wall))
    return {
        "metrics": {
            **op_stats(at_reference_speed(wall, raw["speed"])),
            "ok_frac": 1 - failed / raw["attempted"],
            "setup_s": statistics.median(w * REFERENCE_S / c for w, c in setup),
            "peak_rss_mb": raw["peak_rss_mb"],
            "drawing_bytes": raw["drawing_bytes"],
        },
        "extra": {
            "failed_frac": failed / raw["attempted"],
            "op_s_tail_percentile": 100 * (k + 1) / len(wall),
            "ops_timed": len(wall),
            "wall": {**op_stats(wall), "setup_s": statistics.median(w for w, _ in setup)},
            "setup_samples_s": setup,
            "op_times_s": wall,
            "speed": raw["speed"],
        },
    }


def per_layer(ops, raw: dict) -> dict:
    """Per-layer metrics of a traced run, each summed over the ops run."""
    sums = {name: 0.0 for name in LAYER_SPANS}
    span_layer = {span: layer for layer, spans in LAYER_SPANS.items() for span in spans}
    op_total = 0.0
    for name, start, end, _parent, _op in raw["spans"]:
        if name == "op":
            op_total += end - start
        elif name in span_layer:
            sums[span_layer[name]] += end - start
    out = dict(sums)
    out["layout.place_s"] = (
        sums["layout.draw_s"] - sums["embedding.augment_s"] - sums["graph.degree_bounded_spanning_tree_s"]
    )
    out["cli.other_s"] = op_total - sum(sums[name] for name in TOP_LAYERS)
    out["trace.op_s"] = op_total
    out["trace.overhead_s"] = sum(raw["traced_times"]) - sum(raw["plain_times"])
    out["embedding.supergraph_edges"] = raw["counts"].get("embedding.supergraph_edges", 0)
    out["layout.max_coord_bits"] = raw["max_coord_bits"]
    out["metrics.vertex_pairs"] = sum(op.n * (op.n - 1) // 2 for op in ops)
    out["metrics.edge_pairs"] = sum(op.m * (op.m - 1) // 2 for op in ops)
    out["env.calib_s"] = (raw["calib_start_s"] + raw["calib_end_s"]) / 2
    return out


def summarize(name: str, seed: int, ops, raw: dict, setup: list, trace: bool, declared: dict) -> dict:
    """The result of one workload run: the declared metrics and every figure
    reported beside them."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if trace:
        values, extra = per_layer(ops, raw), {}
    else:
        e2e = end_to_end(raw, setup)
        values, extra = e2e["metrics"], e2e["extra"]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not any(f["wrong"] for f in raw["failures"]),
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "extra": {
            **extra,
            "inputs": len(ops),
            "drawings_sha256": raw["drawings_sha256"],
            "env.calib_start_s": raw["calib_start_s"],
            "env.calib_end_s": raw["calib_end_s"],
        },
        "failures": raw["failures"],
    }


def run_workload(name: str, seed: int, trace: bool, declared: dict) -> dict:
    """Generate, run and summarize one workload, and write its result file
    (and, when traced, its spans) to bench/out/."""
    ops = workloads.build(name, seed)
    if trace:
        # A traced run times every op twice, so it draws the first half of
        # the shuffled inputs.
        ops = ops[: (len(ops) + 1) // 2]
    setup = []
    if not trace:
        # The first import writes the bytecode cache, as an installed copy
        # would have it. Samples before and after the workload see two
        # different moments of the machine's drifting speed.
        measure_setup(1)
        setup += measure_setup(SETUP_SAMPLES // 2)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        raw = run_worker(ops, workdir, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = summarize(name, seed, ops, raw, setup, trace, declared)
    if trace:
        spans_path = os.path.join(OUT, f"spans_{name}_seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op_seq"],
                    "spans": raw["spans"],
                    "ops": raw["op_log"],
                },
                fh,
            )
        result["extra"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT, f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return result


def print_result(result: dict, out=sys.stdout) -> None:
    name = result["workload"]
    ex = result["extra"]
    print(f"== {name} (seed {result['seed']}, trace {int(result['trace'])}): "
          f"{ex['inputs']} inputs, {result['attempted']} ops, {result['failed']} failed", file=out)
    for metric, mv in result["metrics"].items():
        print(f"  {metric:40s} {mv['value']:>16.6g} {mv['unit']}", file=out)
    if "failed_frac" in ex:
        print(f"  {'failed_frac':40s} {ex['failed_frac']:>16.6g} share", file=out)
        print(f"  op_s_tail is p{ex['op_s_tail_percentile']:.1f} of {ex['ops_timed']} timed ops", file=out)
        print("  times above are at the reference machine speed; wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in ex["wall"].items()), file=out)
    print(f"  env.calib_s start {ex['env.calib_start_s']:.6g} s, end {ex['env.calib_end_s']:.6g} s", file=out)
    print(f"  drawings_sha256 {ex['drawings_sha256']}", file=out)
    if "spans_file" in ex:
        print(f"  spans written to {ex['spans_file']}", file=out)
    reasons = sorted({f["reason"] for f in result["failures"]})
    for reason in reasons[:5]:
        print(f"  failure: {reason}", file=out)


def final_line(results: list[dict]) -> dict:
    if len(results) == 1:
        r = results[0]
        metrics = r["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": mv for r in results for m, mv in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run_seconds of BENCHMARK.json, the only value accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spannerdraw", "__init__.py")):
        print(f"error: no spannerdraw package under {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()
    if args.seconds is not None and args.seconds != declared["run_seconds"]:
        print(f"error: the workloads are sized for --seconds {declared['run_seconds']}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, bool(args.trace), declared))
        print_result(results[-1])
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
