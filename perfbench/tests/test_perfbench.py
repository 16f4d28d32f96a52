"""Tests of the benchmark itself: span arithmetic, the tail rule, and one
reduced-size op per workload with its outputs checked.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ghbounds.cli  # noqa: E402
import ghbounds.correspondence as corr  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import NO_PARENT, Tracer, analyze, busy_time, self_times  # noqa: E402


@pytest.fixture
def work():
    path = run.RESULTS / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# self time


def test_self_time_on_synthetic_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]        children 2
    #   2     g [2, 3]
    #   3   b  [4, 6]
    #   4   c  [8, 9.5]
    start = [0.0, 1.0, 2.0, 4.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.5]
    parent = [NO_PARENT, 0, 1, 0, 0]
    assert self_times(start, end, parent) == [3.5, 2.0, 1.0, 2.0, 1.5]


def test_busy_time_counts_nested_members_once():
    names = ["load", "parse", "other"]
    #   0 load [0, 5] > 1 parse [1, 3] > 2 load [1.5, 2];  3 other [6, 7] > 4 parse [6, 6.5]
    name = [0, 1, 0, 2, 1]
    start = [0.0, 1.0, 1.5, 6.0, 6.0]
    end = [5.0, 3.0, 2.0, 7.0, 6.5]
    parent = [NO_PARENT, 0, 1, NO_PARENT, 3]
    spans_of = {0: [0, 2], 1: [1, 4], 2: [3]}

    def member(label):
        return label in ("load", "parse")

    assert busy_time(spans_of, names, name, start, end, parent, member) == 5.5


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, want", [
    (19, None),
    (39, None),
    (40, (75.0, 30, 10)),
    (100, (90.0, 90, 10)),
    (199, (90.0, 180, 19)),
    (200, (95.0, 190, 10)),
    (1000, (99.0, 990, 10)),
    (10000, (99.9, 9990, 10)),
])
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input: n .. 1
    assert run.tail_percentile(values) == (None if want is None else
                                           (want[0], float(want[1]), want[2]))


# ---------------------------------------------------------------------------
# workloads


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_benchmark_json_lists_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # gh-exact fails its pinned check on two pool pairs, a defect of exact_gh
    # (see README), so it is run by hand only, and the correspondence metrics
    # that only it moves are not listed
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in tracing.PER_LAYER
                                 if not m.name.startswith("correspondence.")]
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in run.WORKLOAD_NAMES if name != "gh-exact"]
    e2e = {m["name"] for m in spec["end_to_end"]}
    # the end-to-end metrics present in every run of every workload
    assert "setup_s" in e2e and e2e <= {"setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_reduced_op_passes_its_checks(name, work):
    workload = workloads.WORKLOADS[name](work, seed=0, small=True)
    res = workload.run_op(0)
    assert res.error is None
    assert res.seconds > 0.0
    assert res.exit_codes and set(res.exit_codes) <= {0, 4}


def test_wrong_output_fails_the_op(work, monkeypatch):
    monkeypatch.setattr(workloads.ChessCover, "want_bound", 0.5)
    res = workloads.ChessCover(work, seed=0, small=True).run_op(0)
    assert res.error is not None and "bound" in res.error


def test_gh_pairs_follow_the_seed(work):
    a = workloads.GhExact(work, seed=3).pair(5)
    b = workloads.GhExact(work, seed=3).pair(5)
    c = workloads.GhExact(work, seed=4).pair(5)
    d = workloads.GhExact(work, seed=3).pair(5 + workloads.GhExact.POOL_PAIRS)
    assert all((p.points == q.points).all() for p, q in zip(a, b))
    assert a[0].n in (8, 10, 12) and a[1].n in (8, 10, 12)
    for other in (c, d):  # another rigid motion of the same pool pair
        for p, q in zip(a, other):
            assert p.n == q.n and not (p.points == q.points).all()
            idx = range(p.n)
            assert np.allclose(p.block(idx, idx), q.block(idx, idx), rtol=0, atol=1e-12)


def traced_op(workload):
    """Run one op untraced, then one traced; return (metrics, summary)."""
    original = ghbounds.cli.main
    tracer = Tracer()
    untraced = workload.run_op(0).seconds
    tracer.install()
    try:
        assert ghbounds.cli.main is not original
        with tracer.span(tracing.OP_SPAN, 0):
            res = workload.run_op(0)
    finally:
        tracer.uninstall()
    assert res.error is None
    assert ghbounds.cli.main is original
    metrics, summary = analyze(tracer, [res.seconds], [untraced], {})
    assert set(metrics) == {m.name for m in tracing.PER_LAYER}
    assert summary["spans_over_cover"] == 0
    return metrics, summary


def test_traced_comb_op_measures_hausdorff_work(work):
    metrics, _ = traced_op(workloads.CombWindow(work, seed=0, small=True))
    assert metrics["metric.directed_hausdorff_calls"] == 2
    assert metrics["metric.hausdorff_cells"] > 0
    assert metrics["svgfig.render_s"] > 0


def test_traced_brick_op_counts_nested_generators_once(work):
    metrics, _ = traced_op(workloads.BrickCover(work, seed=0, small=True))
    assert metrics["constructions.gen_points"] == 81 * 81  # [0, 20]^2 at spacing r/4
    assert metrics["serialize.bytes_read"] == 2 * metrics["serialize.bytes_written"]
    assert metrics["metric.directed_hausdorff_s"] == 0.0


def test_heap_peak_only_from_a_heap_tracer(work):
    workload = workloads.ChessCover(work, seed=0, small=True)
    peaks = []
    for heap in (False, True):
        tracer = Tracer(heap=heap)
        tracer.install()
        try:
            assert workload.run_op(0).error is None
        finally:
            tracer.uninstall()
        peaks.append(tracer.heap_peak.get("covers.check_r_disjoint", 0))
    assert peaks[0] == 0 and peaks[1] > 0


def test_budget_exits_are_told_apart_by_phase(work):
    x, y = workloads.GhExact(work, seed=0, small=True).pair(0)
    full = corr.exact_gh(x, y)
    tracer = Tracer()
    tracer.install()
    try:
        # one node short: the search proves the optimum, then the witness phase runs out
        short = corr.exact_gh(x, y, budget=full.nodes - 1)
        corr.exact_gh(x, y, budget=1)  # runs out while bisecting
    finally:
        tracer.uninstall()
    assert short.optimal and short.value == full.value
    assert tracer.counters["correspondence.witness_budget_exits"] == 1
    assert tracer.counters["correspondence.budget_exits"] == 1
    assert tracer.counters["correspondence.nodes"] == full.nodes  # (full.nodes - 1) + 1


def test_run_refuses_a_directory_without_the_program():
    bare = run.RESULTS / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chess-cover",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
