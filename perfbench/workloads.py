"""The benchmark's workloads: real CLI commands run in-process, outputs checked.

Each workload prepares its inputs in a work directory, then runs one op per
`run_op` call through `ghbounds.cli.main`, looked up at call time so a
tracer's patch applies. An op returns its CLI wall time and, when its output
is wrong, the reason. The comb, chess and brick inputs are fixed, with
pinned outputs; the seed drives only the rigid motions of the gh-exact pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ghbounds.cli
from ghbounds.correspondence import Correspondence, distortion
from ghbounds.metric import EuclideanPointSet

EXIT_OK = 0
EXIT_BUDGET = 4
SQRT2 = math.sqrt(2.0)


@dataclass
class OpResult:
    seconds: float = 0.0
    error: str | None = None
    exit_codes: list[int] = field(default_factory=list)

    def call(self, argv: list[str], expect: tuple[int, ...] = (EXIT_OK,)) -> dict | None:
        """Run one CLI command; return its JSON report, or None after an error."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ghbounds.cli.main(argv)
        self.seconds += time.perf_counter() - t0
        self.exit_codes.append(code)
        if code not in expect:
            self.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
            return None
        text = out.getvalue()
        return json.loads(text) if text.strip() else {}

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason

    def expect(self, what: str, got, want) -> None:
        """Fail the op unless got == want; JSON keeps floats exact, so this is bitwise."""
        if got != want:
            self.fail(f"{what}: got {got!r}, want {want!r}")


class Workload:
    name = ""
    pass_ops = 1  # a run ends only after a whole pass of this many ops

    def __init__(self, work: Path, seed: int, small: bool = False) -> None:
        self.work, self.seed, self.small = work, seed, small
        work.mkdir(parents=True, exist_ok=True)

    def run_op(self, k: int) -> OpResult:
        raise NotImplementedError


def _rigid_motion(rng: np.random.Generator, pts: np.ndarray) -> np.ndarray:
    """pts rotated, maybe reflected, and translated, all drawn from rng."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    if rng.random() < 0.5:
        rot[:, 1] = -rot[:, 1]
    return pts @ rot.T + rng.uniform(-1.0, 1.0, 2)


class CombWindow(Workload):
    """reproduce example2 --window 12: two directed Hausdorff scans dominate."""

    name = "comb-window"

    def run_op(self, k: int) -> OpResult:
        res = OpResult()
        window = "4" if self.small else "12"
        rep = res.call(["reproduce", "example2", "--window", window,
                        "--out-dir", str(self.work / "comb")])
        if rep is not None:
            out = rep["outputs"]
            res.expect("bound", out["bound"], 0.5)
            res.expect("hausdorff", out["hausdorff"], 0.5)
            res.expect("C", out["certificate"]["C"], 2.0)
            res.expect("agrees", out["agrees"], True)
        return res


class _CoverWorkload(Workload):
    """gen a cover file, then verify-cover and lower-bound on it."""

    gen_argv: list[str] = []
    model = "R2"
    want_bound = 0.0
    want_gap = 0.0
    want_c = 0.0

    def run_op(self, k: int) -> OpResult:
        res = OpResult()
        cover = str(self.work / f"{self.name}.json")
        if res.call(["gen", *self.gen_argv, "--out", cover]) is None:
            return res
        rep = res.call(["verify-cover", "--cover", cover])
        if rep is not None:
            out = rep["outputs"]
            res.expect("ok", out["ok"], True)
            res.expect("C", out["C"], self.want_c)
            res.expect("multiplicity", out["multiplicity"], 1)
            for fam in out["families"]:
                res.expect(f"gap of {fam['label']}", fam["min_gap"], self.want_gap)
        rep = res.call(["lower-bound", "--cover", cover, "--model", self.model])
        if rep is not None:
            res.expect("bound", rep["outputs"]["bound"], self.want_bound)
            res.expect("C", rep["outputs"]["C"], self.want_c)
        return res


class ChessCover(_CoverWorkload):
    """6,561 singleton members: the quadratic family gap search dominates."""

    name = "chess-cover"
    model = "R2"
    want_bound = 0.7071067811865476
    want_gap = SQRT2
    want_c = 0.0

    def __init__(self, work: Path, seed: int, small: bool = False) -> None:
        super().__init__(work, seed, small)
        self.gen_argv = ["chess", "--window", "0,10,0,10" if small else "0,80,0,80"]


class BrickCover(_CoverWorkload):
    """1,156 bricks over 160,801 points: JSON, subsets and diameters dominate."""

    name = "brick-cover"
    model = "R3"
    want_bound = 0.5
    want_gap = 1.7677669529663689
    want_c = 3.8890872965260113

    def __init__(self, work: Path, seed: int, small: bool = False) -> None:
        super().__init__(work, seed, small)
        self.gen_argv = ["brick", "--window", "0,20,0,20" if small else "0,100,0,100",
                         "--r", "1"]


class GhExact(Workload):
    """exact_gh on a fixed pool of random planar pairs: branch-and-bound search only.

    Pair k's shapes are pool pair k mod POOL_PAIRS, drawn once from BASE_SEED;
    the seed moves each space by its own random rigid motion. Distances, and
    so the search, stay the same up to rounding: per-pair cost spans 0.01 s
    to 7 s, so a seed that redrew the shapes would change a run's work by
    more than any time metric's bound.
    """

    name = "gh-exact"
    BASE_SEED = 7
    POOL_PAIRS = 18

    def __init__(self, work: Path, seed: int, small: bool = False) -> None:
        super().__init__(work, seed, small)
        self.sides = (4, 5, 6) if small else (8, 10, 12)
        self.pass_ops = 3 if small else self.POOL_PAIRS

    def pair(self, k: int) -> tuple[EuclideanPointSet, EuclideanPointSet]:
        """Pair k of this seed: pool pair k mod pass_ops, each side rigidly moved."""
        shapes = np.random.default_rng([self.BASE_SEED, k % self.pass_ops])
        nx, ny = (int(v) for v in shapes.choice(self.sides, size=2))
        motion = np.random.default_rng([self.seed, k])
        return tuple(EuclideanPointSet(_rigid_motion(motion, shapes.uniform(0.0, 1.0, (n, 2))))
                     for n in (nx, ny))

    def run_op(self, k: int) -> OpResult:
        x, y = self.pair(k)
        paths = []
        for tag, space in (("x", x), ("y", y)):
            path = self.work / f"pair-{tag}.json"
            path.write_text(json.dumps({"kind": "points2d", "pts": space.points.tolist()}))
            paths.append(str(path))
        res = OpResult()
        rep = res.call(["gh-exact", "--x", paths[0], "--y", paths[1]],
                       expect=(EXIT_OK, EXIT_BUDGET))
        if rep is not None:
            out = rep["outputs"]
            res.expect("optimal", out["optimal"], res.exit_codes[-1] == EXIT_OK)
            witness = Correspondence(tuple((i, j) for i, j in out["optimal_pairs"]), x.n, y.n)
            res.expect("distortion(witness)/2", distortion(x, y, witness) / 2.0, out["dgh"])
        return res


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CombWindow, ChessCover, BrickCover, GhExact)}
