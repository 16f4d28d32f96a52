#!/usr/bin/env python3
"""Time the chess and brick cover paths and the comb experiment as the window grows.

For each side N the chess families on the integer points of [0, N]^2
((N + 1)^2 points) go through the three commands of a cover check:

  gen           ``gen chess --out``: build the lattice and families, write the file
  verify-cover  load the file and measure every certificate condition
  lower-bound   load the file, certify it and emit the bound against R2

With ``--brick``, each side N runs the same three commands on the r=1 brick
cover of [0, N]^2: ``gen brick --r 1`` (a net of spacing 0.25, so
(4N + 1)^2 points), ``verify-cover``, and ``lower-bound --model R3``, since
its three families exceed the plane's budget.

Each command runs in its own child process, one after another, so one size
is in memory at a time. A child reports the seconds of its command and its
own peak RSS from ``resource.getrusage``; a command that exits nonzero
stops the sweep with its message. N=999 is 1,000,000 points, the point cap.

With ``--comb``, each window N runs ``reproduce example2 --window N`` the
same way: the comb cover, its certificate and the Hausdorff distance to a
net of the window, in one child per N. ``--sizes`` defaults to the sides
below only when neither ``--comb`` nor ``--brick`` is given.

    PYTHONPATH=src python scripts/scale_sweep.py --sizes 80,150,300,600,999
    PYTHONPATH=src python scripts/scale_sweep.py --comb 12,24,48
    PYTHONPATH=src python scripts/scale_sweep.py --brick 50,100,200
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
BRICK_STEPS = ("gen-brick", "verify-cover", "lower-bound-R3")
SIZES = "80,150,300,600,999"


def _child(step: str, n: int, path: str) -> None:
    """Run one command at window n, files at path, and print "seconds peak_mb".

    The chess and brick steps use the side-n cover file at path; "reproduce"
    writes its report and figure to the directory path.
    """
    window = f"0,{n},0,{n}"
    argv = {
        "gen": ["gen", "chess", "--window", window, "--out", path],
        "verify-cover": ["verify-cover", "--cover", path],
        "lower-bound": ["lower-bound", "--cover", path, "--model", "R2"],
        "gen-brick": ["gen", "brick", "--window", window, "--r", "1", "--out", path],
        "lower-bound-R3": ["lower-bound", "--cover", path, "--model", "R3"],
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
                                    "unless --comb or --brick is given)")
    ap.add_argument("--comb", help="comma-separated comb windows N for reproduce example2")
    ap.add_argument("--brick", help="comma-separated brick window sides N for the r=1 cover")
    ap.add_argument("--child", nargs=3, metavar=("STEP", "N", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        step, n, path = args.child
        _child(step, int(n), path)
        return

    sizes = args.sizes or ("" if args.comb or args.brick else SIZES)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cover.json")
        for sides, steps, per_side in ((sizes, STEPS, 1), (args.brick, BRICK_STEPS, 4)):
            if not sides:
                continue
            print(f"{'N':>5} {'points':>9} {'step':>14} {'seconds':>9} {'peak_mb':>8} {'us_per_pt':>9}")
            for n in (int(tok) for tok in sides.split(",")):
                points = (per_side * n + 1) ** 2
                for step in steps:
                    seconds, peak = _run(step, n, path)
                    print(f"{n:>5} {points:>9} {step:>14} {seconds:>9.3f} {peak:>8.1f} "
                          f"{1e6 * seconds / points:>9.3f}", flush=True)
        if args.comb:
            print(f"{'N':>5} {'step':>14} {'seconds':>9} {'peak_mb':>8}")
            for n in (int(tok) for tok in args.comb.split(",")):
                seconds, peak = _run("reproduce", n, tmp)
                print(f"{n:>5} {'reproduce':>14} {seconds:>9.3f} {peak:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
