#!/usr/bin/env python3
"""Time the JSON file boundary, each step in a fresh process.

Three cases on the square window [0, W]^2:

  brick   the r=1 brick cover of the quarter-spaced net, a cross product written
          as its two axes (grid2d)
  random  the same bricks over as many uniform random points, (4W + 1)^2,
          written as a point list (points2d)
  comb    the comb cover of ``gen comb-cover --delta 0.05``, whose comb is no
          cross product and is written as a point list (points2d)

For each case a child process runs ``gen ... --out`` (generate, then
``dump_json``), and another runs ``load_cover``, the reader of
``verify-cover`` and ``lower-bound``, on the file written. The random points
go through the brick ``gen`` path: the child builds them, then swaps the
brick generator for one that keys them into bricks by the same rule. Each child reports the seconds of its
step and its own peak RSS from ``resource.getrusage``; the table gives
every run and the median per step, with the size of the file written.

    PYTHONPATH=src python scripts/json_boundary.py --window 100 --repeats 5
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from ghbounds import EuclideanPointSet, cli, constructions
from ghbounds.serialize import load_cover


def _child(case: str, step: str, window: float, path: str) -> None:
    """Run one step and print "seconds peak_mb"."""
    square = f"0,{window},0,{window}"
    gen = ["gen", "brick", "--window", square, "--r", "1", "--out", path]
    if step == "load":
        t0 = time.perf_counter()
        load_cover(path)
    elif case == "brick":
        t0 = time.perf_counter()
        cli.main(gen)
    elif case == "comb":
        t0 = time.perf_counter()
        cli.main(["gen", "comb-cover", "--window", square, "--delta", "0.05", "--out", path])
    else:
        n = (int(4 * window) + 1) ** 2
        pts = EuclideanPointSet(np.random.default_rng(0).uniform(0.0, window, (n, 2)))

        def random_bricks(w, r, tile, spacing):
            """The brick rule of ``gen_brick_cover``, applied to pts point by point."""
            side = constructions._tile_side(r, tile)
            j = constructions._brick_row(pts.points[:, 1], side)
            i = constructions._brick_column(pts.points[:, 0], j, side)
            return pts, constructions._keyed_families(constructions._BRICK_LABELS,
                                                      (i - j) % 3, i, j)

        with mock.patch.object(cli, "gen_brick_cover", random_bricks):
            t0 = time.perf_counter()
            cli.main(gen)
    seconds = time.perf_counter() - t0
    print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--window", type=float, default=100.0, help="side W of the square window")
    ap.add_argument("--repeats", type=int, default=3, help="runs of each step")
    ap.add_argument("--child", nargs=4, metavar=("CASE", "STEP", "WINDOW", "PATH"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        case, step, window, path = args.child
        _child(case, step, float(window), path)
        return

    print(f"{'case':>7} {'step':>5} {'run':>4} {'seconds':>9} {'peak_mb':>8} {'bytes':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in ("brick", "random", "comb"):
            path = str(Path(tmp) / f"{case}.json")
            runs: dict[str, list[tuple[float, float]]] = {"dump": [], "load": []}
            for k in range(args.repeats):
                for step in ("dump", "load"):
                    proc = subprocess.run(
                        [sys.executable, __file__, "--child", case, step, str(args.window), path],
                        capture_output=True, text=True, check=True)
                    seconds, peak = map(float, proc.stdout.split()[-2:])
                    runs[step].append((seconds, peak))
                    print(f"{case:>7} {step:>5} {k:>4} {seconds:>9.4f} {peak:>8.1f} "
                          f"{os.path.getsize(path):>9}")
            for step, rows in runs.items():
                print(f"{case:>7} {step:>5} {'p50':>4} "
                      f"{statistics.median(s for s, _ in rows):>9.4f} "
                      f"{statistics.median(p for _, p in rows):>8.1f}")


if __name__ == "__main__":
    main()
