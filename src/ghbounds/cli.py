"""Command-line surface: generators, checkers, and solvers as reproducible
experiments with JSON reports, CSV summaries, and SVG figures.

Exit codes: 0 success, 2 validation failure (bad input or a failed check),
3 theorem gate (too many families for the model's dimension, or a trivial
scaling stabilizer), 4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .constructions import (
    WindowSpec,
    _tile_side,
    gen_brick_cover,
    gen_chess_families,
    gen_comb_cover,
    gen_comb_set,
    gen_epsilon_net,
    gen_interval_cover,
    gen_lattice_window,
)
from .correspondence import DEFAULT_NODE_BUDGET, _check_sides, exact_gh
from .covers import (
    SubsetFamily,
    gh_lower_bound,
    inspect_cover,
    make_certificate,
    model_space,
)
from .errors import (
    EmptyFamilyList,
    GhBoundsError,
    NonEuclideanAmbient,
    TooManyFamilies,
    TrivialStabilizer,
)
from .metric import (EuclideanPointSet, SubsetRef, _planar_directed, _unmatched, directed_hausdorff,
                     planar_hausdorff, scale_points)
from .serialize import (
    _document,
    _finite,
    _space_size,
    certificate_report_json,
    dump_json,
    gh_result_to_json,
    load_cover,
    load_json,
    model_from_json,
    space_from_json,
    subset_from_json,
)
from .svgfig import render_families_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3
EXIT_BUDGET = 4

SQRT2 = math.sqrt(2.0)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj: Any, out: str | None) -> None:
    if out:
        dump_json(obj, out)
        _say(f"wrote {out}")
    else:
        # gen's document holds its arrays, each with a tolist() giving the plain value
        print(json.dumps(obj, indent=2, default=operator.methodcaller("tolist")))


def _report(command: str, inputs: dict[str, Any], outputs: dict[str, Any],
            t0: float) -> dict[str, Any]:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "runtime_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "version": __version__,
    }


def _load_euclidean(path: str) -> EuclideanPointSet:
    space = space_from_json(load_json(path))
    if not isinstance(space, EuclideanPointSet):
        raise NonEuclideanAmbient(f"{path} must hold a planar space (points2d or grid2d)")
    return space


# ---------------------------------------------------------------------------
# gen
#
# A kind returns its space, its families (None for a point set), the r and C
# a cover advertises, and a summary line. Generators are named in function
# bodies, so they are looked up when called and a patched one is used.

_Built = tuple[EuclideanPointSet, tuple[SubsetFamily, ...] | None, float, float, str]


def _points(kind: str, pts: EuclideanPointSet, spacing: float | None = None) -> _Built:
    at = "" if spacing is None else f" at spacing {spacing}"
    return pts, None, 0.0, 0.0, f"{kind}: {pts.n} points{at}"


def _chess(w: WindowSpec, args: argparse.Namespace) -> _Built:
    pts = gen_lattice_window(w)
    red, blue = gen_chess_families(pts)
    return pts, (red, blue), SQRT2, 0.0, (
        f"chess: {pts.n} points, {len(red)} red + {len(blue)} blue singletons, "
        f"advertised r={SQRT2!r} (sqrt 2), C=0")


def _comb_cover(w: WindowSpec, args: argparse.Namespace) -> _Built:
    pts = gen_comb_set(w, args.delta)
    red, blue = gen_comb_cover(pts, args.height)
    return pts, (red, blue), 1.0, float(args.height), (
        f"comb-cover: {pts.n} points, {len(red)} red + {len(blue)} blue pieces, "
        f"advertised r=1, C={args.height}")


def _tiled(w: WindowSpec, args: argparse.Namespace, make: Callable[..., Any],
           pieces: str, c_per_tile: float) -> _Built:
    """A brick or interval cover: both need --r, and C is c_per_tile times the tile side."""
    if args.r is None:
        raise ValueError(f"gen {args.kind} requires --r")
    net, fams = make(w, args.r, args.tile, args.spacing)
    c = _tile_side(args.r, args.tile) * c_per_tile
    return net, fams, args.r, c, (
        f"{args.kind}: {net.n} points, {'+'.join(str(len(f)) for f in fams)} {pieces} "
        f"in {len(fams)} families, advertised r={args.r}, C={c!r}")


_GEN_KINDS: dict[str, Callable[[WindowSpec, argparse.Namespace], _Built]] = {
    "lattice": lambda w, a: _points("lattice", gen_lattice_window(w)),
    "net": lambda w, a: _points("net", gen_epsilon_net(w, a.eps), a.eps),
    "chess": _chess,
    "comb": lambda w, a: _points("comb", gen_comb_set(w, a.delta), a.delta),
    "comb-cover": _comb_cover,
    "brick": lambda w, a: _tiled(w, a, gen_brick_cover, "bricks", SQRT2),
    "interval": lambda w, a: _tiled(w, a, gen_interval_cover, "intervals", 1.0),
}


def cmd_gen(args: argparse.Namespace) -> int:
    space, families, r, c, summary = _GEN_KINDS[args.kind](WindowSpec.parse(args.window), args)
    _say(summary)
    # the document keeps the point and index arrays, which dump_json writes
    # without a list per point, and without every member list at once
    _emit(_document(space, families, r, c), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# distances


def cmd_hausdorff(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.space_a or args.space_b:
        if not (args.space_a and args.space_b):
            raise ValueError("--space-a and --space-b must be given together")
        pa, pb = _load_euclidean(args.space_a), _load_euclidean(args.space_b)
        d_ab, d_ba = _planar_directed(pa.points, pb.points), _planar_directed(pb.points, pa.points)
        # the ambient is the union of the two sets: a point of both counts once
        n_ambient = pa.n + int(np.count_nonzero(_unmatched(pb.points, pa.points)))
        n_a, n_b = pa.n, pb.n
        inputs: dict[str, Any] = {"space_a": args.space_a, "space_b": args.space_b,
                                  "merged": True}
    else:
        if not args.space:
            raise ValueError("give either --space or both --space-a/--space-b")
        ambient = space_from_json(load_json(args.space))
        sa = (subset_from_json(load_json(args.a), ambient.n)
              if args.a else SubsetRef.full(ambient.n))
        sb = (subset_from_json(load_json(args.b), ambient.n)
              if args.b else SubsetRef.full(ambient.n))
        d_ab, d_ba = directed_hausdorff(ambient, sa, sb), directed_hausdorff(ambient, sb, sa)
        n_ambient, n_a, n_b = ambient.n, len(sa), len(sb)
        inputs = {"space": args.space, "a": args.a, "b": args.b, "merged": False}
    value = max(d_ab, d_ba)
    outputs = {
        "hausdorff": _finite(value),
        "directed_ab": _finite(d_ab),
        "directed_ba": _finite(d_ba),
        "n_ambient": n_ambient,
        "n_a": n_a,
        "n_b": n_b,
    }
    _say(f"d_H = {value!r} (directed {d_ab!r} / {d_ba!r})")
    _emit(_report("hausdorff", inputs, outputs, t0), args.out)
    return EXIT_OK


def cmd_gh_exact(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    docs = [load_json(args.x), load_json(args.y)]
    # a side past 62 points is refused before its space (a matrix's n^3 check) is built
    for size in map(_space_size, docs):
        if size is not None:
            _check_sides(size)
    x, y = (space_from_json(doc) for doc in docs)
    res = exact_gh(x, y, budget=args.budget)
    outputs = gh_result_to_json(res)
    _say(f"d_GH = {res.value!r} (dis {res.dis!r}, {res.nodes} nodes, "
         f"{'optimal' if res.optimal else 'budget exceeded: upper bound only'})")
    _emit(_report("gh-exact", {"x": args.x, "y": args.y, "budget": args.budget},
                  outputs, t0), args.out)
    return EXIT_OK if res.optimal else EXIT_BUDGET


# ---------------------------------------------------------------------------
# certificates and bounds


def _load_model(args: argparse.Namespace):
    if getattr(args, "model_file", None):
        return model_from_json(load_json(args.model_file))
    return model_space(args.model)


def _load_cover_args(args: argparse.Namespace):
    """``load_cover(args.cover)``, with r and strict as --r and --strict set them."""
    space, families, r_file, strict_file, target = load_cover(args.cover)
    r = args.r if args.r is not None else r_file
    return space, families, r, bool(args.strict or strict_file), target


def cmd_lower_bound(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    space, families, r, strict, target = _load_cover_args(args)
    cert = make_certificate(space, families, r, strict, target)
    model = _load_model(args)
    bound = gh_lower_bound(cert, model)
    outputs = certificate_report_json(cert, model, bound)
    for line in bound.trace:
        _say(f"trace: {line}")
    _say(f"lower bound: d_GH >= {bound.bound!r} against {model.name}")
    _emit(_report("lower-bound", {"cover": args.cover, "model": model.name,
                                  "r": r, "strict": strict}, outputs, t0), args.out)
    return EXIT_OK


def cmd_verify_cover(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    space, families, r, strict, target = _load_cover_args(args)
    found = inspect_cover(space, families, r, strict, target)
    fam_reports = [{
        "label": fam.label,
        "members": fam.members,
        "min_gap": _finite(fam.disjoint.min_gap),
        "witness": list(fam.disjoint.witness) if fam.disjoint.witness else None,
        "max_diam": _finite(fam.max_diam),
        "disjoint_ok": fam.disjoint.ok,
    } for fam in found.families]
    outputs = {
        "k": len(families),
        "r": r,
        "strictness": "strict" if strict else "non-strict",
        "C": _finite(found.c),
        "families": fam_reports,
        "cover_ok": found.cover.ok,
        "uncovered": list(found.cover.uncovered[:20]),
        "multiplicity": found.multiplicity,
        "ok": found.ok,
    }
    _say(f"verify-cover: {'OK' if found.ok else 'FAILED'} "
         f"(k={len(families)}, r={r!r}, C={found.c!r}, multiplicity={found.multiplicity})")
    _emit(_report("verify-cover", {"cover": args.cover, "r": r, "strict": strict},
                  outputs, t0), args.out)
    return EXIT_OK if found.ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# reproductions


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _say(f"wrote {path}")


@dataclass(frozen=True)
class _Example:
    """What one bundled reproduction fixes; the rest is one path."""

    cover: str  # the gen kind that builds the space and its families
    window: Callable[[float], WindowSpec]
    spacing: str  # the option, eps or delta, that spaces the net; reported in the inputs
    tolerance: Callable[[float, int], float]  # from that spacing and the window size
    counts_key: str
    title: str
    dot_radius: float


_EXAMPLES = {
    "example1": _Example("chess", lambda n: WindowSpec(0.0, n, 0.0, n), "eps",
                         lambda h, n: 1e-9, "lattice", "chess coloring of a lattice window", 0.18),
    "example2": _Example("comb-cover", lambda n: WindowSpec(0.0, n, -n / 2.0, n / 2.0), "delta",
                         lambda h, n: h + 2.0 / n, "comb", "two-family cover of a comb window", 0.05),
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    n = args.window
    if n < 4:
        raise ValueError("--window must be at least 4")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = _EXAMPLES[args.example]
    spacing = getattr(args, spec.spacing)
    w = spec.window(float(n))
    # the net is the larger set: one past the point cap is refused before the cover is built
    net = gen_epsilon_net(w, spacing)
    space, families, r, _, _ = _GEN_KINDS[spec.cover](w, args)
    cert = make_certificate(space, families, r, strict=False)
    result = gh_lower_bound(cert, model_space("R2"))
    value = planar_hausdorff(space, net)
    tolerance = spec.tolerance(spacing, n)
    svg_path = render_families_svg(space.points, families, out_dir / f"{args.example}.svg",
                                   dot_radius=spec.dot_radius, title=spec.title)

    difference = abs(result.bound - value)
    outputs = {
        "bound": result.bound,
        "hausdorff": value,
        "difference": difference,
        "tolerance": tolerance,
        "agrees": difference <= tolerance,
        "certificate": certificate_report_json(cert),
        "trace": list(result.trace),
        "counts": {spec.counts_key: space.n, "net": net.n},
        "svg": str(svg_path),
    }
    inputs = {"example": args.example, "window": n, "eps": None, "delta": None,
              "out_dir": str(out_dir)}
    inputs[spec.spacing] = spacing
    report = _report("reproduce", inputs, outputs, t0)
    report_path = out_dir / f"{args.example}-report.json"
    dump_json(report, report_path)
    _say(f"wrote {report_path}")
    if args.csv:
        _write_csv(args.csv, ["quantity", "value"],
                   [["bound", repr(result.bound)], ["hausdorff", repr(value)],
                    ["difference", repr(difference)], ["tolerance", repr(tolerance)]])
    _say(f"{args.example}: bound={result.bound!r} d_H={value!r} "
         f"|diff|={difference!r} (tolerance {tolerance!r})")
    _emit(report, args.out)
    if difference > tolerance:
        _say("stage equality-check failed: bound and Hausdorff value disagree")
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_scale_ladder(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    # an expanding scale whose top power lam**steps stays finite (nan fails too)
    if not (args.lam > 1.0 and 0 <= args.steps < 1023 / math.log2(args.lam)):
        raise ValueError("need --lam > 1 and --steps >= 0 with --lam ** --steps < 2**1023")
    space, families, _r, _strict, _target = load_cover(args.cover)
    if not isinstance(space, EuclideanPointSet):
        raise NonEuclideanAmbient("scale-ladder needs a planar ambient space")
    if not families:
        raise EmptyFamilyList("scale-ladder needs at least one family")

    measured = []  # (m, lam**m, min gap, C), each scale once; m = 0 is the space as loaded
    for m in range(args.steps + 1):
        lam_m = args.lam ** m
        found = inspect_cover(scale_points(space, lam_m) if m else space, families, 0.0)
        measured.append((m, lam_m, found.min_gap, found.c))
    gap0, diam0 = measured[0][2:]
    rows = []
    for m, lam_m, gap_m, diam_m in measured:
        gap_ok = (math.isinf(gap0) or
                  abs(gap_m - lam_m * gap0) <= 1e-9 * max(1.0, lam_m * gap0))
        diam_ok = (diam_m == lam_m * diam0 if diam0 in (0.0, math.inf) else
                   abs(diam_m - lam_m * diam0) <= 1e-9 * lam_m * diam0)
        rows.append({"m": m, "lambda_pow": lam_m, "gap": _finite(gap_m), "diam": _finite(diam_m),
                     "gap_ok": gap_ok, "diam_ok": diam_ok})
    ok = all(row["gap_ok"] and row["diam_ok"] for row in rows)
    outputs = {"lambda": args.lam, "steps": args.steps, "gap0": _finite(gap0),
               "diam0": _finite(diam0), "rows": rows, "ok": ok}
    if args.csv:
        _write_csv(args.csv, ["m", "lambda_pow", "gap", "diam"],
                   [[m, repr(lam_m), repr(gap_m), repr(diam_m)]
                    for m, lam_m, gap_m, diam_m in measured])
    _say(f"scale-ladder: {'OK' if ok else 'RATIO MISMATCH'} over {args.steps} steps "
         f"at lambda={args.lam}")
    _emit(_report("scale-ladder", {"cover": args.cover, "lam": args.lam,
                                   "steps": args.steps}, outputs, t0), args.out)
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ghbounds",
        description="Hausdorff/Gromov-Hausdorff distances, cover certificates, "
                    "and certified GH lower bounds on finite windows.",
    )
    parser.add_argument("--version", action="version", version=f"ghbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate point sets and covers")
    p.add_argument("kind", choices=list(_GEN_KINDS))
    p.add_argument("--window", required=True, help="xmin,xmax,ymin,ymax")
    p.add_argument("--eps", type=float, default=0.1, help="net spacing")
    p.add_argument("--delta", type=float, default=0.05, help="comb sample spacing")
    p.add_argument("--height", type=float, default=2.0,
                   help="comb cover piece height h (>= sqrt 3)")
    p.add_argument("--r", type=float, default=None, help="separation for brick/interval")
    p.add_argument("--tile", type=float, default=None, help="tile size L (default 3r)")
    p.add_argument("--spacing", type=float, default=None,
                   help="ambient net spacing (default r/4)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between subsets")
    p.add_argument("--space", default=None, help="ambient space JSON")
    p.add_argument("--a", default=None, help="subset JSON (defaults to all points)")
    p.add_argument("--b", default=None, help="subset JSON (defaults to all points)")
    p.add_argument("--space-a", dest="space_a", default=None,
                   help="planar space JSON (points2d or grid2d); merged with --space-b "
                        "into one ambient")
    p.add_argument("--space-b", dest="space_b", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gh-exact", help="exact Gromov-Hausdorff distance")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None)

    p = sub.add_parser("lower-bound", help="certified GH lower bound from a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--model", default="R2", help="model space name (R1, R2, ...)")
    p.add_argument("--model-file", dest="model_file", default=None,
                   help="JSON descriptor overriding --model")
    p.add_argument("--r", type=float, default=None, help="override the file's r")
    p.add_argument("--strict", action="store_true", help="require gaps strictly > r")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-cover", help="run certificate checks and report")
    p.add_argument("--cover", required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce", help="run a bundled end-to-end experiment")
    p.add_argument("example", choices=["example1", "example2"])
    p.add_argument("--window", type=int, default=12, help="window size (>= 4)")
    p.add_argument("--eps", type=float, default=0.1, help="net spacing (example1)")
    p.add_argument("--delta", type=float, default=0.05,
                   help="comb/net spacing (example2)")
    p.add_argument("--height", type=float, default=2.0, help="comb piece height")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scale-ladder", help="measure gap/diam across scales")
    p.add_argument("--cover", required=True)
    p.add_argument("--lam", type=float, default=2.0, help="scale factor (> 1)")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A file in the nested layout reads as one small list per member or
    # point, up to a million of them, freed by reference counting; the cyclic
    # collector would only scan them over and over. It is paused for the
    # command and left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # an overflowing coordinate difference or square is meant to give inf,
        # which every distance, gap and diameter reads as such: no warning is due
        with np.errstate(over="ignore"):
            # looked up by name when called, so a patched cmd_* is the one that runs
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (TooManyFamilies, TrivialStabilizer) as exc:
        _say(f"theorem gate: {exc}")
        return EXIT_GATE
    except (GhBoundsError, ValueError, KeyError, OSError) as exc:
        _say(f"validation: {exc}")
        return EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
