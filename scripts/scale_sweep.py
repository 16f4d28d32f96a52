#!/usr/bin/env python3
"""Time the chess cover path as the window grows, each step in a fresh process.

For each side N the chess families on the integer points of [0, N]^2
((N + 1)^2 points) go through the three commands of a cover check:

  gen           ``gen chess --out``: build the lattice and families, write the file
  verify-cover  load the file and measure every certificate condition
  lower-bound   load the file, certify it and emit the bound against R2

Each command runs in its own child process, one after another, so one size
is in memory at a time. A child reports the seconds of its command and its
own peak RSS from ``resource.getrusage``; a command that exits nonzero
stops the sweep with its message. N=999 is 1,000,000 points, the point cap.

    PYTHONPATH=src python scripts/scale_sweep.py --sizes 80,150,300,600,999
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ghbounds import cli

STEPS = ("gen", "verify-cover", "lower-bound")


def _child(step: str, n: int, path: str) -> None:
    """Run one command on the side-n chess cover at path and print "seconds peak_mb"."""
    argv = {
        "gen": ["gen", "chess", "--window", f"0,{n},0,{n}", "--out", path],
        "verify-cover": ["verify-cover", "--cover", path],
        "lower-bound": ["lower-bound", "--cover", path, "--model", "R2"],
    }[step]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # the command's JSON report
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        sys.exit(f"{step} exited {code}")
    print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="80,150,300,600,999",
                    help="comma-separated window sides N")
    ap.add_argument("--child", nargs=3, metavar=("STEP", "N", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        step, n, path = args.child
        _child(step, int(n), path)
        return

    print(f"{'N':>5} {'points':>9} {'step':>12} {'seconds':>9} {'peak_mb':>8} {'us_per_pt':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "chess.json")
        for n in (int(tok) for tok in args.sizes.split(",")):
            points = (n + 1) ** 2
            for step in STEPS:
                proc = subprocess.run([sys.executable, __file__, "--child", step, str(n), path],
                                      capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.exit(f"N={n} {step} failed: {proc.stderr.strip()}")
                seconds, peak = map(float, proc.stdout.split()[-2:])
                print(f"{n:>5} {points:>9} {step:>12} {seconds:>9.3f} {peak:>8.1f} "
                      f"{1e6 * seconds / points:>9.3f}", flush=True)


if __name__ == "__main__":
    main()
