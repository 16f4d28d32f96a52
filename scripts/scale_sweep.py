#!/usr/bin/env python3
"""Time the chess cover path and the comb experiment as the window grows.

For each side N the chess families on the integer points of [0, N]^2
((N + 1)^2 points) go through the three commands of a cover check:

  gen           ``gen chess --out``: build the lattice and families, write the file
  verify-cover  load the file and measure every certificate condition
  lower-bound   load the file, certify it and emit the bound against R2

Each command runs in its own child process, one after another, so one size
is in memory at a time. A child reports the seconds of its command and its
own peak RSS from ``resource.getrusage``; a command that exits nonzero
stops the sweep with its message. N=999 is 1,000,000 points, the point cap.

With ``--comb``, each window N runs ``reproduce example2 --window N`` the
same way: the comb cover, its certificate and the Hausdorff distance to a
net of the window, in one child per N. ``--sizes`` defaults to the sides
below only when ``--comb`` is not given.

    PYTHONPATH=src python scripts/scale_sweep.py --sizes 80,150,300,600,999
    PYTHONPATH=src python scripts/scale_sweep.py --comb 12,24,48
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
SIZES = "80,150,300,600,999"


def _child(step: str, n: int, path: str) -> None:
    """Run one command at window n, files at path, and print "seconds peak_mb".

    The chess steps use the side-n cover file at path; "reproduce" writes
    its report and figure to the directory path.
    """
    argv = {
        "gen": ["gen", "chess", "--window", f"0,{n},0,{n}", "--out", path],
        "verify-cover": ["verify-cover", "--cover", path],
        "lower-bound": ["lower-bound", "--cover", path, "--model", "R2"],
        "reproduce": ["reproduce", "example2", "--window", str(n), "--out-dir", path],
    }[step]
    t0 = time.perf_counter()
    # the command's JSON report, and the lines reproduce says on stderr
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        sys.exit(f"{step} exited {code}")
    print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _run(step: str, n: int, path: str) -> tuple[float, float]:
    """Seconds and peak MB of one step in a fresh child; a failed step stops the sweep."""
    proc = subprocess.run([sys.executable, __file__, "--child", step, str(n), path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"N={n} {step} failed: {proc.stderr.strip()}")
    seconds, peak = map(float, proc.stdout.split()[-2:])
    return seconds, peak


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", help=f"comma-separated chess window sides N (default {SIZES} "
                                    "unless --comb is given)")
    ap.add_argument("--comb", help="comma-separated comb windows N for reproduce example2")
    ap.add_argument("--child", nargs=3, metavar=("STEP", "N", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        step, n, path = args.child
        _child(step, int(n), path)
        return

    sizes = args.sizes or ("" if args.comb else SIZES)
    with tempfile.TemporaryDirectory() as tmp:
        if sizes:
            print(f"{'N':>5} {'points':>9} {'step':>12} {'seconds':>9} {'peak_mb':>8} {'us_per_pt':>9}")
            path = str(Path(tmp) / "chess.json")
            for n in (int(tok) for tok in sizes.split(",")):
                points = (n + 1) ** 2
                for step in STEPS:
                    seconds, peak = _run(step, n, path)
                    print(f"{n:>5} {points:>9} {step:>12} {seconds:>9.3f} {peak:>8.1f} "
                          f"{1e6 * seconds / points:>9.3f}", flush=True)
        if args.comb:
            print(f"{'N':>5} {'step':>12} {'seconds':>9} {'peak_mb':>8}")
            for n in (int(tok) for tok in args.comb.split(",")):
                seconds, peak = _run("reproduce", n, tmp)
                print(f"{n:>5} {'reproduce':>12} {seconds:>9.3f} {peak:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
