#!/usr/bin/env python3
"""Time two source trees on the same CLI ops, interleaved in one process.

Each tree's ``src/ghbounds`` is copied into a temporary directory under its
own package name (``ghbounds_a`` and ``ghbounds_b``), so both import side
by side. Every op runs the workload's commands once per tree, in an order
drawn afresh for each op, and stops with an error unless both trees give
the same exit codes, report outputs and written files. A written SVG must
be the same bytes. A written cover is compared by the value each tree's
own ``load_cover`` reads from it: the points' bytes, each family's label
and index arrays, ``r``, ``strict`` and ``target``, so two trees that
write the same cover in different wire forms still compare equal. At the
end it prints each tree's median op time with its quartiles, the ratio of
the medians (b / a), and in how many ops b was faster than a; then the
same medians and ratio for each command and for each tree's ``load_cover``
of its own cover file.

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
    """The ``cli`` and ``serialize`` modules of root's ``src/ghbounds``, as package ``name``."""
    src = root / "src" / "ghbounds"
    if not (src / "cli.py").is_file():
        raise SystemExit(f"{root} holds no src/ghbounds/cli.py")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{module}") for module in ("cli", "serialize"))


def cover_value(serialize, path: Path) -> tuple:
    """The cover at path as serialize.load_cover reads it, arrays as bytes."""
    space, families, r, strict, target = serialize.load_cover(path)
    table = space.points if hasattr(space, "points") else space.matrix
    return (type(space).__name__, table.shape, table.tobytes(),
            [(f.label, *(a.tobytes() for a in f._index)) for f in families],
            r, strict, None if target is None else target.array.tobytes())


def run_op(tree, commands: list[list[str]], files: list[str],
           work: Path) -> tuple[list[float], list]:
    """Seconds of each command and of each cover's load, and what they produced.

    The work path is taken out of what they produced. tree is the pair of
    the tree's ``cli`` and ``serialize`` modules.
    """
    cli, serialize = tree
    seen = []
    seconds = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(work=work) for a in argv])
        seconds.append(time.perf_counter() - t0)
        text = out.getvalue()
        outputs = json.loads(text)["outputs"] if text.strip() else None
        seen.append((argv[0], code, json.dumps(outputs).replace(str(work), "{work}"),
                     err.getvalue().replace(str(work), "{work}") if code else ""))
    for name in files:
        if name.endswith(".json"):
            t0 = time.perf_counter()
            seen.append((name, cover_value(serialize, work / name)))
            seconds.append(time.perf_counter() - t0)
        else:
            seen.append((name, (work / name).read_bytes()))
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
    steps = ([argv[0] for argv in commands]
             + [f"load_cover {name}" for name in files if name.endswith(".json")])
    times = np.zeros((args.ops, 2, len(steps)))
    with tempfile.TemporaryDirectory(prefix="ab_ops-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        trees = [load_tree(root.resolve(), f"ghbounds_{side}", tmp)
                 for root, side in ((args.a, "a"), (args.b, "b"))]
        works = [tmp / "work-a", tmp / "work-b"]
        for work in works:
            work.mkdir()
        for k in range(-args.warmup, args.ops):
            seen = [None, None]
            for side in rng.permutation(2).tolist():
                seconds, seen[side] = run_op(trees[side], commands, files, works[side])
                if k >= 0:
                    times[k, side] = seconds
            if seen[0] != seen[1]:
                diff = next(i for i, (x, y) in enumerate(zip(*seen)) if x != y)
                raise SystemExit(f"op {k}: the trees differ at {seen[0][diff][0]!r}")
    # an op is its commands; a cover's load is timed apart
    ops = times[:, :, :len(commands)].sum(axis=2)
    a, b = ops[:, 0], ops[:, 1]
    print(f"{args.workload}: {args.ops} ops per tree, order drawn per op (seed {args.seed}); "
          "outputs equal in every op")
    print(describe("a", a, args.a))
    print(describe("b", b, args.b))
    print(f"  ratio of medians b/a: {np.median(b) / np.median(a):.4f}; "
          f"b faster in {int((b < a).sum())} of {args.ops} ops")
    for j, step in enumerate(steps):
        ma, mb = np.median(times[:, :, j], axis=0)
        print(f"  {step}: median a {ma:.5f} s, b {mb:.5f} s, ratio b/a {mb / ma:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
