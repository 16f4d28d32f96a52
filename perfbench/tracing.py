"""Span recording around ghbounds' public functions, from outside the package.

A `Tracer` replaces every public function of the layer modules with a
wrapper at each module attribute that holds it, so each caller's own lookup
(``ghbounds.cli.hausdorff``, ``ghbounds.metric.directed_hausdorff``,
``ghbounds.covers.set_distance``, ...) records a span. Spans live in flat
arrays in memory: name, start, end, parent and op id. `analyze` turns them
into the per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

LAYER_MODULES = ("constructions", "metric", "covers", "correspondence",
                 "serialize", "svgfig", "cli")

# check_r_disjoint's bounding-box matrix is quadratic in members; a Tracer
# made with heap=True measures its heap peak with tracemalloc running inside
# that span only. tracemalloc slows what it watches, so those spans are kept
# apart from the spans that give the times.
HEAP_SPANS = frozenset({"covers.check_r_disjoint"})

OP_SPAN = "op"
NO_PARENT = -1
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer should move


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("metric.directed_hausdorff_s", "s", "lower",
                "op_p50_s, ops_per_s on comb-window; not called elsewhere"),
    LayerMetric("metric.directed_hausdorff_calls", "count", "lower",
                "op_p50_s, ops_per_s on comb-window; not called elsewhere"),
    LayerMetric("metric.hausdorff_cells", "count", "lower",
                "op_p50_s, ops_per_s on comb-window; not called elsewhere"),
    LayerMetric("metric.hausdorff_cells_per_s", "1/s", "higher",
                "op_p50_s, ops_per_s on comb-window; not called elsewhere"),
    LayerMetric("metric.hausdorff_block_bytes", "B", "lower",
                "op_p50_s, ops_per_s on comb-window; not called elsewhere"),
    LayerMetric("constructions.merge_point_sets_s", "s", "lower",
                "op_p50_s on comb-window (about 2%)"),
    LayerMetric("covers.check_r_disjoint_s", "s", "lower", "op_p50_s on chess-cover"),
    LayerMetric("metric.set_distance_s", "s", "lower", "op_p50_s on chess-cover"),
    LayerMetric("metric.set_distance_calls", "count", "lower", "op_p50_s on chess-cover"),
    LayerMetric("covers.gap_pairs_evaluated_frac", "ratio", "lower", "op_p50_s on chess-cover"),
    LayerMetric("covers.check_r_disjoint_peak_mb", "MB", "lower", "peak_rss_mb on chess-cover"),
    LayerMetric("serialize.load_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("serialize.dump_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("serialize.bytes_read", "B", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("serialize.bytes_written", "B", "lower",
                "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("metric.as_subset_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("metric.as_subset_calls", "count", "lower",
                "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("metric.diam_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("covers.check_uniform_bound_s", "s", "lower",
                "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("covers.check_cover_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("covers.multiplicity_s", "s", "lower",
                "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("constructions.gen_s", "s", "lower", "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("constructions.gen_points", "count", "lower",
                "op_p50_s on brick-cover; small on chess-cover"),
    LayerMetric("covers.make_certificate_s", "s", "lower",
                "op_p50_s on chess-cover and brick-cover (self time)"),
    LayerMetric("covers.gh_lower_bound_s", "s", "lower", "op_p50_s on chess-cover and brick-cover"),
    LayerMetric("correspondence.exact_gh_s", "s", "lower",
                "ops_per_s, op_p50_s, gh_optimal_frac on gh-exact"),
    LayerMetric("correspondence.nodes", "count", "lower",
                "ops_per_s, op_p50_s, gh_optimal_frac on gh-exact"),
    LayerMetric("correspondence.nodes_per_s", "1/s", "higher",
                "ops_per_s, op_p50_s, gh_optimal_frac on gh-exact"),
    LayerMetric("correspondence.budget_exits", "count", "lower",
                "gh_optimal_frac on gh-exact"),
    LayerMetric("correspondence.witness_budget_exits", "count", "lower",
                "gh_optimal_frac on gh-exact (budget ran out in the witness phase)"),
    LayerMetric("svgfig.render_s", "s", "lower", "small everywhere; should stay flat"),
    LayerMetric("cli.self_s", "s", "lower", "small everywhere; should stay flat"),
    LayerMetric("trace.op_p50_s", "s", "lower", "tracing overhead: traced op_p50_s"),
    LayerMetric("trace.overhead_frac", "ratio", "lower",
                "tracing overhead: traced op_p50_s / untraced op_p50_s - 1"),
)

# Busy time of a group is the summed durations of its spans, leaving out
# spans nested in another span of the same group so none counts twice.
BUSY_GROUPS: dict[str, Callable[[str], bool]] = {
    "metric.directed_hausdorff_s": lambda n: n == "metric.directed_hausdorff",
    "constructions.merge_point_sets_s": lambda n: n == "constructions.merge_point_sets",
    "covers.check_r_disjoint_s": lambda n: n == "covers.check_r_disjoint",
    "metric.set_distance_s": lambda n: n == "metric.set_distance",
    "serialize.load_s": lambda n: n == "serialize.load_json" or (
        n.startswith("serialize.") and n.endswith("_from_json")),
    "serialize.dump_s": lambda n: n.startswith("serialize.") and not (
        n == "serialize.load_json" or n.endswith("_from_json")),
    "metric.as_subset_s": lambda n: n == "metric.as_subset",
    "metric.diam_s": lambda n: n == "metric.diam",
    "covers.check_uniform_bound_s": lambda n: n == "covers.check_uniform_bound",
    "covers.check_cover_s": lambda n: n == "covers.check_cover",
    "covers.multiplicity_s": lambda n: n == "covers.multiplicity",
    "constructions.gen_s": lambda n: n.startswith("constructions.gen_"),
    "covers.gh_lower_bound_s": lambda n: n == "covers.gh_lower_bound",
    "correspondence.exact_gh_s": lambda n: n == "correspondence.exact_gh",
    "svgfig.render_s": lambda n: n == "svgfig.render_families_svg",
}
SELF_GROUPS: dict[str, Callable[[str], bool]] = {
    "covers.make_certificate_s": lambda n: n == "covers.make_certificate",
    "cli.self_s": lambda n: n.startswith("cli."),
}
CALL_COUNTS = {
    "metric.directed_hausdorff_calls": "metric.directed_hausdorff",
    "metric.set_distance_calls": "metric.set_distance",
    "metric.as_subset_calls": "metric.as_subset",
}


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans


def _count_cells(tracer, args, kwargs, result) -> None:
    a, b = args[1], args[2]  # directed_hausdorff(space, a, b)
    tracer.counters["metric.hausdorff_cells"] += len(a) * len(b)


def _count_points(tracer, args, kwargs, result) -> None:
    # gen_brick_cover builds its net with gen_epsilon_net: count the outer call only
    if any(tracer.names[tracer.name[i]].startswith("constructions.gen_")
           for i in tracer._stack):
        return
    first = result[0] if isinstance(result, tuple) else result
    if hasattr(first, "points"):
        tracer.counters["constructions.gen_points"] += len(first.points)


def _count_read(tracer, args, kwargs, result) -> None:
    tracer.counters["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_written(tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["serialize.bytes_written"] += os.path.getsize(path)


def _count_member_pairs(tracer, args, kwargs, result) -> None:
    m = len(args[1].members)  # check_r_disjoint(space, fam, r, ...)
    tracer.counters["covers.member_pairs"] += m * (m - 1) // 2


def _count_nodes(tracer, args, kwargs, result) -> None:
    from ghbounds.correspondence import DEFAULT_NODE_BUDGET
    budget = kwargs.get("budget", args[2] if len(args) > 2 else DEFAULT_NODE_BUDGET)
    counters = tracer.counters
    counters["correspondence.nodes"] += result.nodes
    counters["correspondence.budget_exits"] += not result.optimal
    # the value is optimal, but the witness phase ran out of budget, so the
    # witness is not the lexicographically smallest optimal correspondence
    counters["correspondence.witness_budget_exits"] += (
        result.optimal and result.nodes >= budget)


COUNTER_HOOKS = {
    "metric.directed_hausdorff": _count_cells,
    "constructions.gen_brick_cover": _count_points,
    "constructions.gen_comb_set": _count_points,
    "constructions.gen_epsilon_net": _count_points,
    "constructions.gen_interval_cover": _count_points,
    "constructions.gen_lattice_window": _count_points,
    "serialize.load_json": _count_read,
    "serialize.dump_json": _count_written,
    "covers.check_r_disjoint": _count_member_pairs,
    "correspondence.exact_gh": _count_nodes,
}


# ---------------------------------------------------------------------------
# recording


class Tracer:
    """Records spans in memory while installed; `install`/`uninstall` toggle it.

    With heap=True it also records the heap peak inside HEAP_SPANS.
    """

    def __init__(self, heap: bool = False) -> None:
        self.heap = heap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self.heap_peak: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._wrappers: dict[Callable, Callable] | None = None
        self._patches: list[tuple[object, str, Callable]] = []

    def _intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str, op_id: int) -> Iterator[None]:
        """Root span of one op; every span opened inside it carries op_id."""
        self._op_id = op_id
        idx = self._open(self._intern(label))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def _wrap(self, label: str, fn: Callable) -> Callable:
        nid = self._intern(label)
        hook = COUNTER_HOOKS.get(label)
        heap = self.heap and label in HEAP_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            if heap:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if heap:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.heap_peak[label] = max(self.heap_peak[label], peak)
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _build_wrappers(self) -> dict[Callable, Callable]:
        wrappers: dict[Callable, Callable] = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"ghbounds.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        return wrappers

    def install(self) -> None:
        """Patch every ghbounds module attribute that holds a layer function."""
        if self._patches:
            return
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for modname, mod in list(sys.modules.items()):
            if modname != "ghbounds" and not modname.startswith("ghbounds."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    setattr(mod, attr, self._wrappers[val])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    def columns(self) -> dict[str, Sequence]:
        return {"names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op}


# ---------------------------------------------------------------------------
# analysis


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> list[float]:
    """Duration of each span minus the summed durations of its children."""
    selfs = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            selfs[p] -= end[i] - start[i]
    return selfs


def _inside(i: int, ids: set[int], name: Sequence[int], parent: Sequence[int]) -> bool:
    """Whether some ancestor of span i has a name id in ids."""
    p = parent[i]
    while p != NO_PARENT and name[p] not in ids:
        p = parent[p]
    return p != NO_PARENT


def busy_time(spans_of: dict[int, list[int]], names: Sequence[str],
              name: Sequence[int], start: Sequence[float], end: Sequence[float],
              parent: Sequence[int], member: Callable[[str], bool]) -> float:
    """Union of the intervals of spans whose name satisfies `member`.

    spans_of maps a name id to its span indices. A span is counted only when
    no ancestor is also a member, so nested members (cover_from_json inside
    load_json's group, say) are not counted twice.
    """
    ids = {k for k, label in enumerate(names) if member(label)}
    return sum(end[i] - start[i] for k in ids for i in spans_of.get(k, ())
               if not _inside(i, ids, name, parent))


def analyze(tracer: Tracer, traced_op_s: Sequence[float], untraced_op_s: Sequence[float],
            heap_peak: dict[str, int]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics, per traced op, plus a summary for the report.

    traced_op_s and untraced_op_s are the wall times of the ops that passed.
    heap_peak is the `heap_peak` of a heap=True Tracer run on other ops.

    The summary holds the span count, the number of spans whose children
    add up to more than the span, and the largest self times as shares of
    op time.
    """
    names, name = tracer.names, tracer.name
    start, end, parent = tracer.start, tracer.end, tracer.parent
    spans_of: dict[int, list[int]] = defaultdict(list)
    for i, k in enumerate(name):
        spans_of[k].append(i)

    def spans(label: str) -> list[int]:
        return spans_of.get(tracer._ids.get(label), [])

    # every traced op, failed ones too, since the counters include them
    n_ops = max(1, len(spans(OP_SPAN)))

    selfs = self_times(start, end, parent)
    # children run one after another in one thread, so their summed time
    # can exceed the parent's only through a recording fault
    over = sum(1 for x in selfs if x < -1e-9)

    m: dict[str, float] = {}
    for metric, member in BUSY_GROUPS.items():
        m[metric] = busy_time(spans_of, names, name, start, end, parent, member) / n_ops
    for metric, member in SELF_GROUPS.items():
        m[metric] = sum(selfs[i] for k, label in enumerate(names) if member(label)
                        for i in spans_of.get(k, ())) / n_ops
    for metric, label in CALL_COUNTS.items():
        m[metric] = len(spans(label)) / n_ops

    c = tracer.counters
    cells = c["metric.hausdorff_cells"]
    m["metric.hausdorff_cells"] = cells / n_ops
    m["metric.hausdorff_block_bytes"] = 8.0 * cells / n_ops
    dh_busy = m["metric.directed_hausdorff_s"] * n_ops
    m["metric.hausdorff_cells_per_s"] = cells / dh_busy if dh_busy else 0.0

    # set_distance calls made by the family gap search, per member pair
    gap_ids = {tracer._ids.get("covers.check_r_disjoint")}
    gap_calls = sum(_inside(i, gap_ids, name, parent) for i in spans("metric.set_distance"))
    pairs = c["covers.member_pairs"]
    m["covers.gap_pairs_evaluated_frac"] = gap_calls / pairs if pairs else 0.0
    m["covers.check_r_disjoint_peak_mb"] = heap_peak.get("covers.check_r_disjoint", 0) / MB

    for key in ("serialize.bytes_read", "serialize.bytes_written", "constructions.gen_points",
                "correspondence.nodes", "correspondence.budget_exits",
                "correspondence.witness_budget_exits"):
        m[key] = c[key] / n_ops
    gh_busy = m["correspondence.exact_gh_s"] * n_ops
    m["correspondence.nodes_per_s"] = c["correspondence.nodes"] / gh_busy if gh_busy else 0.0

    traced_p50 = statistics.median(traced_op_s)
    untraced_p50 = statistics.median(untraced_op_s)
    m["trace.op_p50_s"] = traced_p50
    m["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0

    op_total = sum(end[i] - start[i] for i in spans(OP_SPAN))
    by_self: dict[str, float] = defaultdict(float)
    for k, idxs in spans_of.items():
        by_self[names[k]] += sum(selfs[i] for i in idxs)
    top = sorted(by_self.items(), key=lambda kv: -kv[1])[:8]
    summary = {
        "spans": len(start),
        "spans_over_cover": over,
        "untraced_op_p50_s": untraced_p50,
        "directed_hausdorff_share": dh_busy / op_total if op_total else 0.0,
        "top_self_share": [[label, s / op_total if op_total else 0.0] for label, s in top],
    }
    return m, summary
