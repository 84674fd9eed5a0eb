"""Quick self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

It runs the real op loop in-process on a few tiny graphs per workload, so it
takes seconds, and checks the harness rather than the program's speed.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest

import run
import worker
import workloads

sys.path.insert(0, run.SRC)

TINY = {
    "planar": dict(planar_sizes={5: 1, 7: 1}),
    "tree-planar": dict(tree_sizes={6: 1, 9: 1}),
    "proper": dict(proper_sizes={5: 1, 7: 1}),
}


def tiny_run(name: str, trace: bool, tmp_path) -> dict:
    ops = workloads.build(name, 3, **TINY[name])
    run.write_inputs(ops, str(tmp_path))
    raw = worker.run(ops, str(tmp_path), trace)
    return run.summarize(name, 3, ops, raw, [(0.25, 0.002), (0.5, 0.002)], trace, run.load_declared())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    assert result["failed"] == 0 and result["correct"]
    text = io.StringIO()
    run.print_result(result, text)
    last = run.final_line([result])
    declared = run.load_declared()["per_layer" if trace else "end_to_end"]
    for metric in declared:
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in text.getvalue().splitlines()
        ), metric["name"]
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(last["metrics"][metric["name"]]["value"], (int, float))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_layer_times_account_for_the_traced_op_time(tmp_path):
    values = {k: v["value"] for k, v in tiny_run("planar", True, tmp_path)["metrics"].items()}
    layers = sum(values[name] for name in run.TOP_LAYERS) + values["cli.other_s"]
    assert layers == pytest.approx(values["trace.op_s"])
    # Each graph is drawn at two epsilons, and each draw augments it to 3n - 6 edges.
    assert values["embedding.supergraph_edges"] == 2 * ((3 * 5 - 6) + (3 * 7 - 6))


def test_an_op_that_raises_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    from spannerdraw import layout

    real = layout.draw_planar_spanner

    def broken(h, eps):
        if h.n == 7:
            raise RuntimeError("injected")
        return real(h, eps)

    monkeypatch.setattr(layout, "draw_planar_spanner", broken)
    result = tiny_run("planar", False, tmp_path)
    assert result["attempted"] == 4
    assert result["failed"] == 2
    assert all(f["reason"].startswith("RuntimeError") for f in result["failures"])
    assert result["correct"]  # an op that raises gave no wrong answer
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_check_rejects_a_broken_guarantee():
    op = workloads.Op(0, "planar", Fraction(1), 2, ((0, 1),))
    drawing = json.dumps({"n": 2, "edges": [[0, 1]], "coords": [["0", "0"], ["1", "0"]]}).encode()

    def report(hi, planar=True):
        return json.dumps({"spanning_ratio": {"lo": "1/1", "hi": hi}, "planar": planar, "no_three_collinear": True})

    assert workloads.check(op, 0, report("3/2"), drawing) is None
    assert "guarantee" in workloads.check(op, 0, report("2/1"), drawing)
    assert "guarantee" in workloads.check(op, 0, report("3/2", planar=False), drawing)
    assert workloads.check(op, 3, "", None) == "exit code 3"
    assert "unreadable" in workloads.check(op, 0, json.dumps({"spanning_ratio": {"hi": "1"}}), drawing)
    assert "match" in workloads.check(op, 0, report("3/2"), drawing.replace(b"[0, 1]", b"[1, 0]"))


def test_inputs_are_seeded_and_well_formed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5, **TINY[name]) == workloads.build(name, 5, **TINY[name])
    ops = workloads.build("planar", 5)
    assert ops != workloads.build("planar", 6)
    for op in ops:
        g = nx.Graph(op.edges)
        g.add_nodes_from(range(op.n))
        assert nx.check_planarity(g)[0] and nx.is_connected(g)
        assert op.m == 2 * op.n - 1
    for op in workloads.build("tree-planar", 5):
        g = nx.Graph(op.edges)
        assert nx.is_tree(g) and len(g) == op.n and max(d for _, d in g.degree) <= 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    seconds = str(run.load_declared()["run_seconds"])
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planar", "--seed", "1", "--seconds", seconds, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_a_measuring_time_it_is_not_sized_for(capsys):
    assert run.main(["--workload", "planar", "--seconds", "5"]) != 0
    assert capsys.readouterr().out == ""
