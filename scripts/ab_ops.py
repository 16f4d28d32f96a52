#!/usr/bin/env python3
"""Time two source trees on the same CLI ops, interleaved in one process.

Each tree's ``src/ghbounds`` is copied into a temporary directory under its
own package name (``ghbounds_a`` and ``ghbounds_b``), so both import side
by side. Every op runs the workload's commands once per tree, in an order
drawn afresh for each op, and stops with an error unless both trees give
the same exit codes, report outputs and written files. At the end it prints
each tree's median op time with its quartiles, the ratio of the medians
(b / a), and in how many ops b was faster than a.

The workloads are the benchmark's three (``perfbench/workloads.py``):

  comb   reproduce example2 --window 12
  chess  gen chess on [0, 80]^2, verify-cover, lower-bound --model R2
  brick  gen brick --r 1 on [0, 100]^2, verify-cover, lower-bound --model R3

Both trees see the same host load op by op, so a difference of a few
percent shows here even when load drift between separate processes hides
it. This complements ``perfbench``, which measures the end-to-end metrics
in fresh processes; it does not replace it.

    python scripts/ab_ops.py --a ../parent --b . --workload comb --ops 200
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = {
    "comb": ([["reproduce", "example2", "--window", "12", "--out-dir", "{work}"]],
             ["example2.svg"]),
    "chess": ([["gen", "chess", "--window", "0,80,0,80", "--out", "{work}/cover.json"],
               ["verify-cover", "--cover", "{work}/cover.json"],
               ["lower-bound", "--cover", "{work}/cover.json", "--model", "R2"]],
              ["cover.json"]),
    "brick": ([["gen", "brick", "--window", "0,100,0,100", "--r", "1", "--out", "{work}/cover.json"],
               ["verify-cover", "--cover", "{work}/cover.json"],
               ["lower-bound", "--cover", "{work}/cover.json", "--model", "R3"]],
              ["cover.json"]),
}


def load_tree(root: Path, name: str, into: Path):
    """The ``cli`` module of root's ``src/ghbounds``, imported as package ``name``."""
    src = root / "src" / "ghbounds"
    if not (src / "cli.py").is_file():
        raise SystemExit(f"{root} holds no src/ghbounds/cli.py")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_op(cli, commands: list[list[str]], files: list[str], work: Path) -> tuple[float, list]:
    """Seconds of the commands, and what they produced with the work path taken out."""
    seen = []
    seconds = 0.0
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(work=work) for a in argv])
        seconds += time.perf_counter() - t0
        text = out.getvalue()
        outputs = json.loads(text)["outputs"] if text.strip() else None
        seen.append((argv[0], code, json.dumps(outputs).replace(str(work), "{work}"),
                     err.getvalue().replace(str(work), "{work}") if code else ""))
    seen.extend((name, (work / name).read_bytes()) for name in files)
    return seconds, seen


def describe(label: str, times: np.ndarray, root: Path) -> str:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return f"  {label}: median {med:.5f} s [Q1 {q1:.5f}, Q3 {q3:.5f}]  {root}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="root of the first source tree")
    ap.add_argument("--b", type=Path, required=True, help="root of the second source tree")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="comb")
    ap.add_argument("--ops", type=int, default=100, help="timed ops per tree")
    ap.add_argument("--warmup", type=int, default=1, help="untimed ops per tree first")
    ap.add_argument("--seed", type=int, default=0, help="seed of the per-op order")
    args = ap.parse_args()
    if args.ops < 1 or args.warmup < 0:
        ap.error("--ops must be positive and --warmup not negative")
    commands, files = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    times = np.zeros((args.ops, 2))
    with tempfile.TemporaryDirectory(prefix="ab_ops-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        clis = [load_tree(root.resolve(), f"ghbounds_{side}", tmp)
                for root, side in ((args.a, "a"), (args.b, "b"))]
        works = [tmp / "work-a", tmp / "work-b"]
        for work in works:
            work.mkdir()
        for k in range(-args.warmup, args.ops):
            seen = [None, None]
            for side in rng.permutation(2).tolist():
                seconds, seen[side] = run_op(clis[side], commands, files, works[side])
                if k >= 0:
                    times[k, side] = seconds
            if seen[0] != seen[1]:
                diff = next(i for i, (x, y) in enumerate(zip(*seen)) if x != y)
                raise SystemExit(f"op {k}: the trees differ at {seen[0][diff][0]!r}")
    a, b = times[:, 0], times[:, 1]
    print(f"{args.workload}: {args.ops} ops per tree, order drawn per op (seed {args.seed}); "
          "outputs equal in every op")
    print(describe("a", a, args.a))
    print(describe("b", b, args.b))
    print(f"  ratio of medians b/a: {np.median(b) / np.median(a):.4f}; "
          f"b faster in {int((b < a).sum())} of {args.ops} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
