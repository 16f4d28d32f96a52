"""One fresh benchmark process: set up, run a closed loop of ops, write a record.

Started by run.py; not meant to be run by hand. The record (JSON) holds the
monotonic time at which set-up ended, every op's wall time and check
result, the loop's wall time, this process's peak RSS and, when tracing,
the per-layer metrics. The loop ends at the first whole pass of the
workload's ops (`Workload.pass_ops`) after --seconds. With --trace 1 one
extra op first runs under a heap-measuring tracer, then each op runs twice,
untraced then traced, so the tracing overhead is measured on the same input.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy as np
    import ghbounds
    from tracing import OP_SPAN, Tracer, analyze
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    tracer = Tracer() if args.trace else None
    ready = time.monotonic()
    record: dict = {"ready": ready, "numpy": np.__version__, "ghbounds": ghbounds.__file__}
    if args.setup_only:
        Path(args.record).write_text(json.dumps(record))
        return 0

    ops: list[dict] = []

    def run_op(k: int, with_tracer: Tracer | None) -> dict:
        t_op = time.perf_counter()
        try:
            if with_tracer is None:
                res = workload.run_op(k)
            else:
                with_tracer.install()
                with with_tracer.span(OP_SPAN, k):
                    res = workload.run_op(k)
            error, seconds, codes = res.error, res.seconds, res.exit_codes
        except Exception:  # an op that raises is counted as failed, never retried
            error, codes = traceback.format_exc(limit=3), []
            seconds = time.perf_counter() - t_op
        finally:
            if with_tracer is not None:
                with_tracer.uninstall()
        op = {"k": k, "traced": with_tracer is not None, "seconds": seconds,
              "error": error, "exit_codes": codes}
        ops.append(op)
        return op

    heap_tracer = Tracer(heap=True) if tracer else None
    if heap_tracer:
        run_op(0, heap_tracer)["heap"] = True
    traced_s: list[float] = []
    untraced_s: list[float] = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    k = 0
    while True:
        for use in ((None, tracer) if tracer else (None,)):
            op = run_op(k, use)
            if op["error"] is None:
                (untraced_s if use is None else traced_s).append(op["seconds"])
        k += 1
        if k % workload.pass_ops == 0 and time.perf_counter() >= deadline:
            break
    record["loop_seconds"] = time.perf_counter() - t0
    record["ops"] = ops
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer and traced_s and untraced_s:
        record["per_layer"], record["trace_summary"] = analyze(
            tracer, traced_s, untraced_s, heap_tracer.heap_peak)
        if args.spans:
            cols = tracer.columns()
            np.savez_compressed(args.spans, names=np.array(cols["names"]),
                                **{c: np.asarray(cols[c]) for c in
                                   ("name", "start", "end", "parent", "op")})
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
