"""Independent oracles the tests compare the program against.

Exhaustive enumeration of correspondences, for the exact GH solver: every
subset of X x Y whose projections are both onto is scanned by bitmask, with
no pruning, so sizes are capped at ENUM_CELL_CAP cells (SizeCapExceeded).

The exact GH solver's former search, which chose each row's whole column
subset in turn, for the search over two maps: the same bisection and
cell-by-cell witness loop, so both give the same value and witness.

The SVG figure built as one ElementTree element per dot, for the text
writer in ``ghbounds.svgfig``, and the pieces per family counted from a
written figure's markup.

The comb cover grouped point by point into a dict of pieces, for the
array keys of ``ghbounds.constructions.gen_comb_cover``, and the duplicate
member search as one dict over every member, for ``make_certificate``.

The family min gap as one matrix of member gaps, reduced from the whole
distance matrix, for the planar gap search on families too large for the
pair-by-pair matrix scan.

One ambient set merged from two planar sets, for the distances that
``metric.planar_hausdorff`` and ``hausdorff --space-a/--space-b`` measure
without building it.

A bucket grid's cell assignment as one expression over (n, 2) rows, for
``metric._TargetGrid.cell_of``, which works per coordinate column.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ghbounds.constructions import _GRID_TOL, MIN_PIECE_HEIGHT
from ghbounds.correspondence import (Correspondence, GhResult, _Budget, _OutOfBudget,
                                     distortion)
from ghbounds.covers import SubsetFamily
from ghbounds.errors import GhBoundsError, HTooSmall, NonIntegerPoint
from ghbounds.metric import EuclideanPointSet, MetricLike, SubsetRef, _TargetGrid, as_subset

ENUM_CELL_CAP = 25


class SizeCapExceeded(GhBoundsError):
    def __init__(self, cells: int, cap: int):
        self.cells, self.cap = cells, cap
        super().__init__(f"nX*nY = {cells} exceeds enumeration cap {cap}")


def _surjectivity_masks(nx: int, ny: int) -> tuple[list[int], list[int]]:
    rows = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    cols = [sum(1 << (i * ny + j) for i in range(nx)) for j in range(ny)]
    return rows, cols


def _valid_mask_chunks(nx: int, ny: int, chunk: int = 1 << 18) -> Iterator[np.ndarray]:
    """Ascending bitmask scan of all subsets of X x Y with surjective projections."""
    cells = nx * ny
    if cells > ENUM_CELL_CAP:
        raise SizeCapExceeded(cells, ENUM_CELL_CAP)
    rows, cols = _surjectivity_masks(nx, ny)
    total = 1 << cells
    for start in range(0, total, chunk):
        m = np.arange(start, min(start + chunk, total), dtype=np.int64)
        valid = np.ones(m.shape, dtype=bool)
        for mask in rows:
            valid &= (m & mask) != 0
        for mask in cols:
            valid &= (m & mask) != 0
        if valid.any():
            yield m[valid]


def enumerate_correspondences(nx: int, ny: int) -> Iterator[Correspondence]:
    """Yield every correspondence between index sets, in numeric bitmask order.

    Scans all 2^(nx*ny) subsets; refuses nx*ny > ENUM_CELL_CAP.
    """
    for masks in _valid_mask_chunks(nx, ny):
        for mask in masks.tolist():
            pairs = []
            m = mask
            while m:
                c = (m & -m).bit_length() - 1
                pairs.append((c // ny, c % ny))
                m &= m - 1
            yield Correspondence(tuple(pairs), nx, ny)


def count_correspondences(nx: int, ny: int) -> int:
    return sum(int(masks.size) for masks in _valid_mask_chunks(nx, ny))


def min_distortion_bruteforce(x: MetricLike, y: MetricLike) -> float:
    """Minimum distortion over all correspondences by full enumeration.

    Independent oracle for the branch-and-bound solver: no pruning, every
    surjective subset of X x Y is scanned and its distortion evaluated.
    """
    nx, ny = x.n, y.n
    cells = nx * ny
    dx = np.asarray(x.block(range(nx), range(nx)))
    dy = np.asarray(y.block(range(ny), range(ny)))
    # discrepancy between cells c=(i,j) and c'=(i',j')
    disc = np.abs(dx[:, None, :, None] - dy[None, :, None, :]).reshape(cells, cells)
    shifts = np.arange(cells, dtype=np.int64)
    best = math.inf
    for masks in _valid_mask_chunks(nx, ny, chunk=1 << 16):
        sel = ((masks[:, None] >> shifts[None, :]) & 1).astype(bool)
        pair_sel = sel[:, :, None] & sel[:, None, :]
        dis = (disc[None, :, :] * pair_sel).max(axis=(1, 2))
        best = min(best, float(dis.min()))
    return best


def _compat_tables(dx: np.ndarray, dy: np.ndarray, t: float) -> tuple[list[list[list[int]]], list[int]]:
    """Bitmask tables for threshold t.

    cross[i][i2][j] = mask of j2 with |dx[i,i2] - dy[j,j2]| <= t;
    row_ok[j] = mask of j2 with dy[j,j2] <= t (same-x-point constraint).
    """
    nx, ny = dx.shape[0], dy.shape[0]
    ok = np.abs(dx[:, :, None, None] - dy[None, None, :, :]) <= t
    weights = (1 << np.arange(ny, dtype=np.int64))
    masks = (ok.astype(np.int64) * weights[None, None, None, :]).sum(axis=-1)
    cross = [[[int(masks[i, i2, j]) for j in range(ny)] for i2 in range(nx)] for i in range(nx)]
    row_ok = [int(m) for m in ((dy <= t).astype(np.int64) * weights[None, :]).sum(axis=-1)]
    return cross, row_ok


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _row_subsets_feasible(nx: int, ny: int, cross, row_ok, force_in: list[int],
                          forbid: list[int], budget: _Budget) -> list[int] | None:
    """Search for per-row selections forming a correspondence with dis <= t.

    force_in/forbid are per-row cell masks. Returns row masks of a witness,
    or None. Rows are processed in order; choosing S for a row propagates
    compatible-cell masks to later rows and prunes on empty rows or
    unreachable coverage.
    """
    full = (1 << ny) - 1
    allowed0 = [full & ~forbid[i] for i in range(nx)]
    witness = [0] * nx

    def try_candidate(s: int, level: int, allowed: list[int], covered: int) -> bool:
        budget.spend()
        if any(s & ~row_ok[j] for j in _iter_bits(s)):
            return False
        new_allowed = list(allowed)
        future = 0
        for i2 in range(level + 1, nx):
            a = allowed[i2]
            table = cross[level][i2]
            for j in _iter_bits(s):
                a &= table[j]
            if a == 0 or (force_in[i2] & ~a):
                return False
            new_allowed[i2] = a
            future |= a
        cov = covered | s
        if (cov | future) != full:
            return False
        witness[level] = s
        return rec(level + 1, new_allowed, cov)

    def rec(level: int, allowed: list[int], covered: int) -> bool:
        if level == nx:
            return covered == full
        base = allowed[level]
        must = force_in[level]
        if must & ~base:
            return False
        free = base & ~must
        sub = free
        while True:
            s = must | sub
            if s and try_candidate(s, level, allowed, covered):
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & free

    return list(witness) if rec(0, allowed0, 0) else None


def exact_gh_row_subsets(x: MetricLike, y: MetricLike, budget: int = 2_000_000) -> GhResult:
    """``exact_gh`` by the row-subset search: bisection, then the witness cell by cell."""
    nx, ny = x.n, y.n
    dx = np.asarray(x.block(range(nx), range(nx)), dtype=np.float64)
    dy = np.asarray(y.block(range(ny), range(ny)), dtype=np.float64)
    thresholds = np.unique(np.abs(dx[:, :, None, None] - dy[None, None, :, :]))
    tracker = _Budget(budget)

    # the full product is always a correspondence; its distortion is max(thresholds)
    best_rows = [(1 << ny) - 1] * nx
    best_t = float(thresholds[-1])

    lo, hi = 0, len(thresholds) - 1
    no_force = [0] * nx
    proven = False
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            t = float(thresholds[mid])
            cross, row_ok = _compat_tables(dx, dy, t)
            rows = _row_subsets_feasible(nx, ny, cross, row_ok, no_force, no_force, tracker)
            if rows is not None:
                hi = mid
                if t < best_t:
                    best_t, best_rows = t, rows
            else:
                lo = mid + 1
        proven = True
        t_star = float(thresholds[hi])

        # lexicographically smallest optimal correspondence, cell by cell
        cross, row_ok = _compat_tables(dx, dy, t_star)
        force_in = [0] * nx
        forbid = [0] * nx
        chosen_cols = 0
        for c in range(nx * ny):
            if all(force_in[i] for i in range(nx)) and chosen_cols == (1 << ny) - 1:
                break
            i, j = divmod(c, ny)
            trial = list(force_in)
            trial[i] |= 1 << j
            if _row_subsets_feasible(nx, ny, cross, row_ok, trial, forbid, tracker) is not None:
                force_in = trial
                chosen_cols |= 1 << j
            else:
                forbid[i] |= 1 << j
        best_rows, best_t = force_in, t_star
    except _OutOfBudget:
        pass

    pairs = tuple((i, j) for i, mask in enumerate(best_rows) for j in _iter_bits(mask))
    corr = Correspondence(pairs, nx, ny)
    if not proven:
        # the witness of the last feasible probe may do better than its threshold
        best_t = distortion(x, y, corr)
    return GhResult(value=best_t / 2.0, correspondence=corr,
                    nodes=tracker.spent, optimal=proven)


def render_families_svg_et(points: np.ndarray, families: Sequence[SubsetFamily],
                           path: str | Path, dot_radius: float = 0.12,
                           title: str | None = None) -> Path:
    """``svgfig.render_families_svg`` as a whole ElementTree, one element per dot.

    Each coordinate is formatted from its numpy scalar. Written as UTF-8, so
    the declaration reads ``encoding='utf-8'`` whatever the locale.
    """
    pts = np.asarray(points, dtype=np.float64)
    xmin, ymin = pts.min(axis=0) - 1.0
    xmax, ymax = pts.max(axis=0) + 1.0
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "viewBox": f"0 0 {xmax - xmin:g} {ymax - ymin:g}",
        "width": "640",
    })
    if title is not None:
        ET.SubElement(svg, "title").text = title
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0",
        "width": f"{xmax - xmin:g}", "height": f"{ymax - ymin:g}",
        "fill": "white",
    })
    fills = {"red": "#d62728", "blue": "#1f77b4", "green": "#2ca02c"}
    for fam in families:
        layer = ET.SubElement(svg, "g", {"class": f"family {fam.label}",
                                         "fill": fills.get(fam.label, "#777777")})
        for member in fam.members:
            piece = ET.SubElement(layer, "g", {"class": f"piece {fam.label}"})
            for i in member.indices:
                ET.SubElement(piece, "circle", {
                    "cx": f"{pts[i, 0] - xmin:g}",
                    "cy": f"{ymax - pts[i, 1]:g}",
                    "r": f"{dot_radius:g}",
                })
    out = Path(path)
    ET.ElementTree(svg).write(out, encoding="utf-8", xml_declaration=True)
    return out


def count_pieces(path: str | Path) -> dict[str, int]:
    """Pieces per family label in a written figure (markup round-trip check)."""
    root = ET.parse(path).getroot()
    counts: dict[str, int] = {}
    for g in root.iter("{http://www.w3.org/2000/svg}g"):
        classes = g.get("class", "").split()
        if classes and classes[0] == "piece":
            label = classes[1] if len(classes) > 1 else "?"
            counts[label] = counts.get(label, 0) + 1
    return counts


def _comb_piece_key(x: float, y: float, h: float) -> tuple:
    """The cover piece of one comb sample, as (n, kind, k, side)."""
    if abs(y) <= _GRID_TOL:
        n = math.floor(x + 0.5 + _GRID_TOL)
        return (n, 0, 0, 0)
    n = round(x)
    if abs(x - n) > _GRID_TOL:
        raise NonIntegerPoint(-1, (x, y))
    a = abs(y)
    if a <= h / 2 + _GRID_TOL:
        return (n, 0, 0, 0)
    k = math.ceil((a - h / 2) / h - _GRID_TOL) - 1
    side = 1 if y > 0 else -1
    return (n, 1, k, side)


def _piece_color(key: tuple) -> int:
    n, kind, k, _side = key
    return n % 2 if kind == 0 else (n + k + 1) % 2


def gen_comb_cover_loop(comb: EuclideanPointSet,
                        h: float = 2.0) -> tuple[SubsetFamily, SubsetFamily]:
    """``gen_comb_cover`` point by point: a dict of index lists per piece key."""
    if h < MIN_PIECE_HEIGHT - 1e-12:
        raise HTooSmall(h, MIN_PIECE_HEIGHT)
    groups: dict[tuple, list[int]] = {}
    for idx, (x, y) in enumerate(comb.points):
        try:
            key = _comb_piece_key(float(x), float(y), h)
        except NonIntegerPoint:
            raise NonIntegerPoint(idx, (float(x), float(y))) from None
        groups.setdefault(key, []).append(idx)
    members: dict[int, list[SubsetRef]] = {0: [], 1: []}
    for key in sorted(groups):
        members[_piece_color(key)].append(as_subset(groups[key]))
    return (SubsetFamily("red", tuple(members[0])),
            SubsetFamily("blue", tuple(members[1])))


def first_duplicate_member(fam: SubsetFamily) -> tuple[int, int] | None:
    """The first member equal to an earlier one, as (earlier, later) positions, or None."""
    seen: dict[tuple[int, ...], int] = {}
    for pos, mem in enumerate(fam.members):
        if mem.indices in seen:
            return seen[mem.indices], pos
        seen[mem.indices] = pos
    return None


def all_pairs_min_gap(matrix: np.ndarray, members: Sequence[Sequence[int]]) -> tuple[float, tuple[int, int]]:
    """Smallest gap between two of at least two members and its lexicographically first witness.

    The gap of members a and b is the least entry of the matrix block of
    their points, the value ``set_distance`` takes on a matrix space.
    """
    idx = np.concatenate([np.asarray(mem, dtype=np.intp) for mem in members])
    starts = np.cumsum([len(mem) for mem in members]) - [len(mem) for mem in members]
    gaps = np.minimum.reduceat(np.minimum.reduceat(matrix[np.ix_(idx, idx)], starts, axis=0),
                               starts, axis=1)
    a, b = np.triu_indices(len(members), 1)  # pairs in lexicographic order
    first = int(np.argmin(gaps[a, b]))
    return float(gaps[a[first], b[first]]), (int(a[first]), int(b[first]))


def merge_point_sets(a: EuclideanPointSet, b: EuclideanPointSet,
                     ) -> tuple[EuclideanPointSet, SubsetRef, SubsetRef]:
    """One ambient set from two, collapsing bit-identical duplicates.

    Returns the merged set (lexicographically sorted) plus each input's index
    set inside it, so cross-set quantities (Hausdorff distance, set distance)
    can be computed in a single space.
    """
    stacked = np.concatenate((a.points, b.points))
    order = np.lexsort((stacked[:, 1], stacked[:, 0]))
    rows = stacked[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    # merged index of each sorted row
    rank = np.cumsum(new) - 1
    from_a = order < a.n
    return EuclideanPointSet(rows[new]), SubsetRef(rank[from_a]), SubsetRef(rank[~from_a])


def cell_of_rows(grid: _TargetGrid, v: np.ndarray) -> np.ndarray:
    """The (column, row) cell of each row of v, clamped to grid, as an (n, 2) array."""
    shape = np.array([grid.nx, grid.ny])
    return np.minimum(np.maximum(np.floor((v - grid.lo) / grid.h), 0), shape - 1).astype(np.intp)
