"""Run one ghbounds benchmark workload and print its metrics.

    python3 perfbench/run.py --workload comb-window --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
./src. Each run starts fresh worker processes (perfbench/worker.py): a few
that only set up, for the median set-up time, and one that sets up and then
runs ops in a closed loop, one caller, for --seconds. With --trace 0 it
prints the end-to-end metrics; with --trace 1 the per-layer metrics from
spans recorded around ghbounds' public functions. Human-readable lines come
first; the last line is one JSON object with the metrics that BENCHMARK.json
lists. A record of the run, with its environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER  # standard library only: ghbounds is imported by the workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("comb-window", "chess-cover", "brick-cover", "gh-exact")
SETUP_PROBES = 4  # set-up-only processes; the measuring process gives one more sample
TAIL_PER_MILLE = (750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10
DEADLINE_S = 170.0  # the whole run, set-up probes included


class BenchError(Exception):
    pass


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Nearest rank over the sorted values. Returns (percentile, value, number
    of samples ranked beyond it), or None when there are too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    found = None
    for per_mille in TAIL_PER_MILLE:
        rank = -(-per_mille * n // 1000)  # ceil, in integers
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            found = (per_mille / 10.0, xs[rank - 1], n - rank)
    return found


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghbounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def spawn_worker(args: argparse.Namespace, work: Path, record: Path, deadline: float,
                 extra: list[str]) -> tuple[float, dict]:
    """Start one worker, wait for it, return (spawn time, its record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), "--record", str(record), *extra]
    record.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s of the run")
    if code != 0 or not record.exists():
        raise BenchError(f"worker exited {code}")
    return t_spawn, json.loads(record.read_text())


def end_to_end(args: argparse.Namespace, rec: dict, setup: list[float]) -> tuple[dict, list[str]]:
    ops = rec["ops"]
    times = [op["seconds"] for op in ops]
    passed = sum(op["error"] is None for op in ops)
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed / rec["loop_seconds"], "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rec["maxrss_mb"], "MB"),
        "failed_frac": ((len(ops) - passed) / len(ops), "ratio"),
    }
    notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}"]
    tail = tail_percentile(times)
    if tail is None:
        notes.append(f"op_tail_s omitted: {len(times)} ops leave fewer than "
                     f"{TAIL_MIN_BEYOND} samples beyond p{TAIL_PER_MILLE[0] / 10:g}")
    else:
        p, value, beyond = tail
        m["op_tail_s"] = (value, "s")
        notes.append(f"op_tail_s is p{p:g} of {len(times)} ops, {beyond} samples beyond it")
    if args.workload == "gh-exact":
        optimal = sum(op["exit_codes"][-1:] == [0] for op in ops)
        m["gh_optimal_frac"] = (optimal / len(ops), "ratio")
    return m, notes


def per_layer(rec: dict) -> tuple[dict, list[str]]:
    values = rec["per_layer"]
    m = {lm.name: (values[lm.name], lm.unit) for lm in PER_LAYER}
    s = rec["trace_summary"]
    notes = [f"spans recorded: {s['spans']}; spans whose children exceed them: "
             f"{s['spans_over_cover']}",
             f"untraced op_p50_s in the same process: {s['untraced_op_p50_s']:.4f} s",
             f"metric.directed_hausdorff share of op time: {s['directed_hausdorff_share']:.3f}",
             "largest self times, share of op time: " + ", ".join(
                 f"{label} {share:.3f}" for label, share in s["top_self_share"])]
    return m, notes


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "ghbounds" / "__init__.py").is_file():
        raise BenchError(f"no ghbounds source under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    record = work / "record.json"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup: list[float] = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t_spawn, rec = spawn_worker(args, work, record, deadline, ["--setup-only"])
                setup.append(rec["ready"] - t_spawn)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")]
        t_spawn, rec = spawn_worker(args, work, record, deadline, extra)
        setup.append(rec["ready"] - t_spawn)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not rec["ghbounds"].startswith(str(ROOT / "src")):
        raise BenchError(f"imported ghbounds from {rec['ghbounds']}, not from this checkout")

    ops = rec["ops"]
    failed = [op for op in ops if op["error"] is not None]
    if args.trace:
        if "per_layer" not in rec:
            raise BenchError("no op passed both untraced and traced; nothing to analyze")
        metrics, notes = per_layer(rec)
        correct = not failed and rec["trace_summary"]["spans_over_cover"] == 0
    else:
        metrics, notes = end_to_end(args, rec, setup)
        correct = not failed

    env = environment(args.seed, rec["numpy"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: attempted={len(ops)} failed={len(failed)} loop={rec['loop_seconds']:.3f} s")
    for op in failed[:5]:
        print(f"failed op {op['k']}: {op['error'].strip().splitlines()[-1]}")
    moves = {lm.name: lm.moves for lm in PER_LAYER}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}"
              + (f"  [should move: {moves[name]}]" if args.trace else ""))
    for note in notes:
        print(note)
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "notes": notes, "ops": ops, "setup_samples": setup}, indent=1))

    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {}}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"{entry['name']} is measured in {unit}, BENCHMARK.json says "
                             f"{entry['unit']}")
        result["metrics"][entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
