"""Finite metric spaces, planar point sets, and set-level metric quantities.

Two interchangeable ambient backings are provided: ``FiniteMetricSpace``
stores a fully validated distance matrix, while ``EuclideanPointSet`` keeps
2-D coordinates and evaluates distance blocks on demand (a 10^4-point net
would need ~1 GB as a dense matrix, so large Euclidean ambients are never
materialized). All set-level operations accept either backing.

Nearest-point queries (directed Hausdorff, set distance, neighborhoods,
nearest-point correspondences) all reduce over ``_nearest``. On a matrix
space it scans distance blocks. On a planar set it buckets the targets in a
uniform grid of about one point per cell, stored CSR-style, and every
gather of targets reads a square of cells (``_square_gather``). A query is
bounded, then solved: ub is its distance to the nearest target in the
square of cells just past its distance to the targets' bounding box, the
square doubling until it holds one; its nearest target lies within ub,
widened for rounding, so in that disc's box of cells, which the square
usually holds already. A query whose square or box would cover a quarter
of the grid scans every target as one block instead, and so do all queries
when queries times targets fit in one gather (``_scan_first``), before any
grid is built. The grid kernels work per coordinate column. Candidate
distances use the same expression as ``EuclideanPointSet.block``, so every
minimum, maximum and argmin (ties to the smallest index) is bitwise equal
to the block scan's.

A planar directed Hausdorff distance needs only the largest nearest
distance, so it bounds whole cells of queries the same way and solves only
the cells whose bound exceeds the largest distance found
(``_grid_max_nearest``). Queries equal to a target are dropped (their
distance is 0.0), so two planar sets need no merged ambient
(``planar_hausdorff``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    DuplicatePoint,
    EmptySubset,
    IndexOutOfRange,
    NegativeEntry,
    NonpositiveLambda,
    NonzeroDiagonal,
    NotSymmetric,
    TriangleViolation,
    ZeroOffDiagonal,
)

DEFAULT_TOL = 1e-9

# cap on cells per distance block; aggregates chunk over rows beyond this.
# One float64 block is 2 MiB, a core's L2 cache on common x86 parts, and a
# gather of targets (_GATHER) keeps about a dozen arrays of a sixteenth of
# that, so its working set fits there too. On the comb experiment, 2**18 to
# 2**20 ran equally fast, smaller sizes slower, and larger ones only raise
# the heap peak
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, init=False, eq=False)
class SubsetRef:
    """A nonempty set of indices into an ambient space, held as ``array``.

    ``array`` is a read-only, strictly increasing int64 array; a family's
    members are views of its one index array. ``indices`` is the same as a
    tuple of ints. Equality and hashing go by the values, and a subset is
    immutable.
    """

    array: np.ndarray

    def __init__(self, values: Iterable[int], n: int | None = None) -> None:
        """The distinct index values, sorted.

        Raises ValueError for a value that is no integer (``_check_integers``),
        EmptySubset for no index, then IndexOutOfRange(i, 0) for the smallest
        i when it is negative, then IndexOutOfRange(i, n) for the largest i
        when it is at or past n. An integer beyond int64 raises OverflowError
        where neither applies.
        """
        if iter(values) is values:  # an iterator reads once; the checks read it again
            values = list(values)
        try:
            if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "i":
                a = values.astype(np.int64, copy=values.flags.writeable)
            else:
                _check_integers(values)
                a = np.fromiter(values, dtype=np.int64)
        except OverflowError:  # past int64, so at or past any ambient's size
            big = sorted(map(int, values))
            if big[0] >= 0 and n is None:
                raise
            raise IndexOutOfRange(*((big[0], 0) if big[0] < 0 else (big[-1], n))) from None
        if not (a[1:] > a[:-1]).all():
            a = np.unique(a)
        if not a.size:
            raise EmptySubset("subset must be nonempty")
        if a[0] < 0:
            raise IndexOutOfRange(int(a[0]), 0)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)
        if n is not None:
            self.check_ambient(n)

    @staticmethod
    def full(n: int) -> "SubsetRef":
        """Every index of an n-point ambient, 0..n-1."""
        return SubsetRef(np.arange(n))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def check_ambient(self, n: int) -> None:
        if self.array[-1] >= n:
            raise IndexOutOfRange(int(self.array[-1]), n)

    def __len__(self) -> int:
        return self.array.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.array.tolist())

    def __contains__(self, i: int) -> bool:
        k = int(np.searchsorted(self.array, i))
        return k < self.array.size and bool(self.array[k] == i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsetRef):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())


def _check_integers(values: Iterable[object]) -> None:
    """Raise ValueError for a value that is no Python or NumPy integer: a float, a bool."""
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"indices must be integers, got {kind.__name__}")


def as_subset(s: "SubsetRef | Iterable[int]", n: int | None = None) -> SubsetRef:
    if isinstance(s, SubsetRef):
        if n is not None:
            s.check_ambient(n)
        return s
    return SubsetRef(s, n)


def _checked_runs(flat: np.ndarray, counts: np.ndarray,
                  n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Runs of flat, member k holding counts[k] entries, as ``SubsetRef`` would keep them.

    Returns int64 entries and counts in which every run rises strictly; runs
    that do not are sorted and deduplicated. Raises the first failing
    member's ``SubsetRef(run, n)`` error: an empty run, a negative entry,
    or an entry at or past n.
    """
    flat = np.asarray(flat, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    bad = counts == 0
    full = np.flatnonzero(~bad)
    if full.size:
        bad[full] = np.minimum.reduceat(flat, starts[full]) < 0
        if n is not None:
            bad[full] |= np.maximum.reduceat(flat, starts[full]) >= n
    if bad.any():
        k = int(np.argmax(bad))
        SubsetRef(flat[starts[k]:ends[k]], n)  # raises that member's error
    # a position that does not rise above its predecessor, inside a run
    fall = flat[1:] <= flat[:-1]
    fall[starts[full[1:]] - 1] = False
    if not fall.any():
        return flat, counts
    owner = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((flat, owner))  # runs stay in place, each sorted
    flat = flat[order]
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
    return flat[keep], np.bincount(owner[keep], minlength=counts.size)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """n points with a full validated distance matrix. Immutable."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        return self.matrix[np.ix_(np.asarray(rows, dtype=np.intp),
                                  np.asarray(cols, dtype=np.intp))]


@dataclass(frozen=True, eq=False)
class EuclideanPointSet:
    """2-D points with pairwise-distinct coordinates.

    Distances are Euclidean and evaluated lazily in blocks, so the set can be
    large (fine nets) without a dense matrix.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        pts = np.ascontiguousarray(pts)
        if pts.shape[0] == 0:
            raise ValueError("point set must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        _check_distinct(pts)
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def d(self, i: int, j: int) -> float:
        dx = self.points[i, 0] - self.points[j, 0]
        dy = self.points[i, 1] - self.points[j, 1]
        return float(math.sqrt(dx * dx + dy * dy))

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        p, q = self.points[np.asarray(rows, dtype=np.intp)], self.points[np.asarray(cols, dtype=np.intp)]
        return _euclid(p[:, :1] - q[:, 0], p[:, 1:] - q[:, 1])


MetricLike = Union[FiniteMetricSpace, EuclideanPointSet]


def _check_distinct(pts: np.ndarray) -> None:
    # exact duplicates only; nearby-but-distinct doubles are legitimate points
    x, y = pts[:, 0], pts[:, 1]
    if ((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1]))).all():
        return  # rows already strictly increasing in (x, y) order are distinct
    order = np.lexsort((y, x))
    sx, sy = x[order], y[order]
    same = np.flatnonzero((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1]))
    if same.size:
        a, b = int(order[same[0]]), int(order[same[0] + 1])
        raise DuplicatePoint(min(a, b), max(a, b))


def _euclid(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The planar distance expression; every Euclidean distance array is made here."""
    return np.sqrt(dx * dx + dy * dy)


def _row_chunks(n_rows: int, n_cols: int) -> Iterator[slice]:
    step = max(1, _BLOCK_CELLS // max(1, n_cols))
    for s in range(0, n_rows, step):
        yield slice(s, min(s + step, n_rows))


def _batches(weights: np.ndarray, cap: int) -> Iterator[slice]:
    """Consecutive slices whose weights sum to at most cap; a heavier item goes alone."""
    csum = np.cumsum(weights)
    start = 0
    while start < csum.size:
        base = int(csum[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(csum, base + cap, side="right")))
        yield slice(start, stop)
        start = stop


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[k], starts[k] + counts[k]) concatenated, in order of k."""
    return np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


# ---------------------------------------------------------------------------
# nearest points

# relative and absolute allowances for rounding in cell assignment, cell
# edges and distances, here and in the planar family gap search of covers:
# thousands of ulps, and past 2**-537, to which a distance whose square is
# subnormal is computed, so every bound and reach stays conservative
_GRID_SLACK = 2.0 ** -40
_GRID_FLOOR = 2.0 ** -500
# a square or disc gather keeps about a dozen arrays per candidate (and per
# grid row), so one gather holds a sixteenth of a distance block's cells
_GATHER = _BLOCK_CELLS // 16


def _nearest(space: MetricLike, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Each ia index's distance to its nearest ib point, as ``space.block(ia, ib).min(axis=1)``."""
    if isinstance(space, EuclideanPointSet):
        return _grid_nearest(space.points[ia], space.points[ib])[0]
    return _scan_nearest(lambda rows: space.block(ia[rows], ib), ia.size, ib.size)[0]


def _scan_nearest(block, n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row minima and first argmins of the n_rows x n_cols matrix block(rows), chunked."""
    dist = np.empty(n_rows)
    pos = np.empty(n_rows, dtype=np.intp)
    for chunk in _row_chunks(n_rows, n_cols):
        blk = block(chunk)
        pos[chunk] = blk.argmin(axis=1)
        dist[chunk] = blk[np.arange(blk.shape[0]), pos[chunk]]
    return dist, pos


class _TargetGrid:
    """The rows of p on a uniform grid of about `per_cell` points per cell, cells at least `side` wide.

    Built once per target set; every planar gather reads its CSR buckets
    through ``_square_gather``, and they are sorted on the first gather that
    needs them. ``_grid_max_nearest`` groups its queries on one, and the
    planar family gap search in ``covers`` buckets member box corners on
    one, with cells as wide as its pairs need.

    The grid spans the bounding box [lo, hi] of p in nx x ny square cells of
    side h. Their count stays at most about three times the aim, also for
    collinear points; a single point gets one cell, and so does everything
    where the side or the extent is not finite.

    The box, the cell assignment (``cell_of``) and the bucketing work on the
    x and y columns of p: NumPy reduces and broadcasts along the short axis
    of an (n, 2) array many times slower than over two columns, for the same
    operations element by element.
    """

    def __init__(self, p: np.ndarray, side: float = 0.0, per_cell: int = 1):
        self.p = p
        x, y = p[:, 0], p[:, 1]
        self.lo, self.hi = np.array([x.min(), y.min()]), np.array([x.max(), y.max()])
        sx, sy = (self.hi - self.lo).tolist()
        cells = p.shape[0] / per_cell
        h = max(math.sqrt(sx) * math.sqrt(sy / cells), max(sx, sy) / cells, side)
        if not 0.0 < h < math.inf:
            h, sx, sy = 1.0, 0.0, 0.0
        self.h, self.nx, self.ny = h, int(sx // h) + 1, int(sy // h) + 1
        self._csr = None

    def cell_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The column and row of the cell of each point (x[k], y[k]), clamped to the grid."""
        (x0, y0), h = self.lo.tolist(), self.h
        return (np.minimum(np.maximum(np.floor((x - x0) / h), 0), self.nx - 1).astype(np.intp),
                np.minimum(np.maximum(np.floor((y - y0) / h), 0), self.ny - 1).astype(np.intp))

    def buckets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort order, cell offsets and sorted rows of p.

        CSR buckets: targets stably sorted by row-major cell id, so the
        cells [x0, x1) of grid row y are the run offs[y*nx + x0]:offs[y*nx + x1].
        """
        if self._csr is None:
            nx, ny = self.nx, self.ny
            cx, cy = self.cell_of(self.p[:, 0], self.p[:, 1])
            cid = cx + nx * cy
            # cell ids in the smallest unsigned type: up to 2**16 cells, a radix sort
            order = np.argsort(cid.astype(np.min_scalar_type(nx * ny - 1)), kind="stable")
            offs = np.zeros(nx * ny + 1, dtype=np.intp)
            np.cumsum(np.bincount(cid, minlength=nx * ny), out=offs[1:])
            self._csr = order, offs, self.p[order]
        return self._csr


def _scan_first(q: np.ndarray, p: np.ndarray) -> bool:
    """Whether q x p is at most _GATHER cells, where one block scan costs less than a grid."""
    return q.shape[0] * p.shape[0] <= _GATHER


def _grid_nearest(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest row of p for every row of q; see ``_scan_first`` and ``_grid_search``."""
    return _block_nearest(q, p) if _scan_first(q, p) else _grid_search(_TargetGrid(p), q)


def _block_nearest(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of p for every row of q by scanning every target, chunked."""
    return _scan_nearest(lambda rows: _euclid(q[rows, :1] - p[:, 0], q[rows, 1:] - p[:, 1]),
                         q.shape[0], p.shape[0])


def _grid_search(grid: _TargetGrid, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest row of grid.p for every row of q.

    Returns the distances and the positions in p; ties go to the smallest
    position. Each query is bounded, then solved, as a directed Hausdorff
    cell is. Bound: ub is the distance to the nearest target in the square
    of cells just past the query's distance to the bounding box of p; the
    square doubles until it holds a target. Solve: every nearest target
    lies within ``_widen(ub)`` of the query, so in the box of cells that
    ``_disc_gather`` gathers for that disc. Where the square holds that box,
    its nearest target is the answer; otherwise it is the box's. A query
    whose square or box covers a quarter of the grid scans all of p as one
    block instead.
    """
    h, nx, ny = grid.h, grid.nx, grid.ny
    (x0, y0), (x1, y1) = grid.lo.tolist(), grid.hi.tolist()
    qx, qy = q[:, 0], q[:, 1]

    # Once a square covers a quarter of the grid, the whole grid as one
    # block costs little more. When even a corner query's first square
    # would, every query scans at once, before any bucket is sorted.
    qx0, qx1, qy0, qy1 = float(qx.min()), float(qx.max()), float(qy.min()), float(qy.max())
    apart = math.hypot(max(x0 - qx1, qx0 - x1, 0.0), max(y0 - qy1, qy0 - y1, 0.0))
    r0 = math.ceil(min(apart / h, nx + ny)) + 1
    if 4 * (min(r0, nx - 1) + 1) * (min(r0, ny - 1) + 1) >= nx * ny:
        return _block_nearest(q, grid.p)
    best = np.empty(q.shape[0])
    bpos = np.empty(q.shape[0], dtype=np.intp)

    # bound: a square whose targets are all at overflowing distance holds a
    # target; its ub is inf, so its query's box covers the grid
    cx, cy = grid.cell_of(qx, qy)
    outside = _euclid(np.maximum(np.maximum(x0 - qx, qx - x1), 0.0),
                      np.maximum(np.maximum(y0 - qy, qy - y1), 0.0))
    r = (np.minimum(np.ceil(outside / h), max(nx, ny)) + 1).astype(np.intp)
    radius = np.empty(q.shape[0], dtype=np.intp)  # of the square each query was bounded in
    far = np.zeros(q.shape[0], dtype=bool)  # queries left to the block scan
    todo = np.arange(q.shape[0])
    while todo.size:
        tx, ty = cx[todo], cy[todo]
        sx0, sy0 = np.maximum(tx - r, 0), np.maximum(ty - r, 0)
        sx1, sy1 = np.minimum(tx + r + 1, nx), np.minimum(ty + r + 1, ny)
        big = 4 * (sx1 - sx0) * (sy1 - sy0) >= nx * ny
        far[todo[big]] = True
        keep = ~big
        todo, r = todo[keep], r[keep]
        if not todo.size:
            break
        d, pos, hit = _cells_nearest(grid, q[todo], (sx0[keep], sy0[keep]), (sx1[keep], sy1[keep]))
        best[todo[hit]], bpos[todo[hit]], radius[todo[hit]] = d[hit], pos[hit], r[hit]
        todo, r = todo[~hit], 2 * r[~hit]

    # solve the queries whose disc's box of cells leaves their square
    near = np.flatnonzero(~far)
    reach = _widen(best[near], float(np.abs([qx0, qy0, qx1, qy1, x0, y0, x1, y1]).max()))
    nqx, nqy = qx[near], qy[near]
    ax0, ay0 = grid.cell_of(nqx - reach, nqy - reach)
    ax1, ay1 = grid.cell_of(nqx + reach, nqy + reach)
    ax1 += 1
    ay1 += 1
    r, kx, ky = radius[near], cx[near], cy[near]
    out = (ax0 < kx - r) | (ay0 < ky - r) | (ax1 > kx + r + 1) | (ay1 > ky + r + 1)
    near, ax0, ay0, ax1, ay1 = near[out], ax0[out], ay0[out], ax1[out], ay1[out]
    big = 4 * (ax1 - ax0) * (ay1 - ay0) >= nx * ny
    far[near[big]] = True
    if not big.all():
        keep = ~big
        best[near[keep]], bpos[near[keep]], _ = _cells_nearest(
            grid, q[near[keep]], (ax0[keep], ay0[keep]), (ax1[keep], ay1[keep]))
    if far.any():
        best[far], bpos[far] = _block_nearest(q[far], grid.p)
    return best, bpos


# queries per cell of the bucketing that bounds a directed Hausdorff scan
_QUERY_CELL = 8
# a query cell's bound measures its centre against the targets this many
# target cells out on each side of its own: a 5 x 5 square
_BOUND_CELLS = 2


def _widen(d: np.ndarray, scale: float) -> np.ndarray:
    """d plus the allowance for rounding at coordinates of magnitude up to scale."""
    return d * (1.0 + 2.0 * _GRID_SLACK) + (_GRID_SLACK * scale + _GRID_FLOOR)


def _cell_boxes(qs: np.ndarray, starts: np.ndarray,
                targets: _TargetGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Centre and half-diagonal of each run's tight box, and the largest coordinate magnitude.

    Run k is qs[starts[k]:starts[k+1]]; the magnitude is over the runs and
    the bounding box of the targets. The corners are halved before they are
    added, so a centre stays finite where their sum would overflow (near
    +-1e308); the half-diagonal may then be inf, which only widens.
    """
    centre = np.empty((starts.size, 2))
    half, scale = [], float(np.abs(np.concatenate([targets.lo, targets.hi])).max())
    for c in range(2):
        blo = np.minimum.reduceat(qs[:, c], starts)
        bhi = np.maximum.reduceat(qs[:, c], starts)
        half.append(0.5 * (bhi - blo))
        scale = max(scale, float(np.abs(blo).max()), float(np.abs(bhi).max()))
        centre[:, c] = 0.5 * blo + 0.5 * bhi
    return centre, _euclid(*half), scale


def _square_gather(grid: _TargetGrid, squares: tuple[np.ndarray, ...]
                   ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The targets in each square of cells [x0, x1) x [y0, y1) of grid, in batches.

    Yields a slice of the squares, their targets' positions in
    ``grid.buckets()``'s sorted rows, grouped by square, and the square of
    each from the slice's start. A batch holds about _GATHER targets and
    grid rows, counted from prefix sums of the buckets, or one square.
    """
    _, offs, _ = grid.buckets()
    x0, y0, x1, y1 = squares
    tally = np.zeros((grid.ny + 1, grid.nx + 1), dtype=np.intp)
    tally[1:, 1:] = np.diff(offs).reshape(grid.ny, grid.nx).cumsum(axis=0).cumsum(axis=1)
    square = tally[y1, x1] - tally[y0, x1] - tally[y1, x0] + tally[y0, x0]
    for b in _batches(square + (y1 - y0), _GATHER):
        rows = y1[b] - y0[b]
        owner = np.repeat(np.arange(rows.size), rows)
        base = _ragged(y0[b], rows) * grid.nx
        s0 = offs[base + x0[b][owner]]
        run = offs[base + x1[b][owner]] - s0
        yield b, _ragged(s0, run), np.repeat(owner, run)


def _cells_nearest(grid: _TargetGrid, q: np.ndarray, c0: tuple[np.ndarray, np.ndarray],
                   c1: tuple[np.ndarray, np.ndarray], positions: bool = True
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The nearest target to each row q[k] among the cells [c0[k], c1[k]) of grid.

    c0 and c1 are (column, row) pairs of cell arrays. Returns the nearest
    distance (inf where the cells hold no target), its position in grid.p
    (ties to the smallest; None unless ``positions``) and whether the cells
    held a target. The distances do not depend on ``positions``.
    """
    order, _, ps = grid.buckets()
    dist = np.full(q.shape[0], math.inf)
    pos = np.zeros(q.shape[0], dtype=np.intp) if positions else None
    hit = np.zeros(q.shape[0], dtype=bool)
    for b, cand, k in _square_gather(grid, (*c0, *c1)):
        at = np.flatnonzero(np.diff(k, prepend=-1))
        size = np.diff(at, append=k.size)
        i = b.start + k[at]
        d = _euclid(np.repeat(q[i, 0], size) - ps[cand, 0], np.repeat(q[i, 1], size) - ps[cand, 1])
        dist[i] = np.minimum.reduceat(d, at)
        if positions:
            pos[i] = np.minimum.reduceat(np.where(d == np.repeat(dist[i], size), order[cand], ps.shape[0]), at)
        hit[i] = True
    return dist, pos, hit


def _cell_bounds(qs: np.ndarray, starts: np.ndarray, targets: _TargetGrid) -> np.ndarray:
    """An upper bound on every computed nearest distance in each run qs[starts[k]:starts[k+1]].

    With c and rho the centre and half-diagonal of the run's tight box, each
    query lies within rho of c, so by the triangle inequality its distance
    is at most d + rho, where d is the computed distance from c to any
    target: here the nearest in the 5 x 5 square of target cells around c,
    or the nearest of all where that square is empty. ``_widen`` covers the
    rounding of c, rho and every computed distance, subnormal squares
    included.
    """
    centre, rho, scale = _cell_boxes(qs, starts, targets)
    cx, cy = targets.cell_of(centre[:, 0], centre[:, 1])
    c0 = np.maximum(cx - _BOUND_CELLS, 0), np.maximum(cy - _BOUND_CELLS, 0)
    c1 = np.minimum(cx + _BOUND_CELLS + 1, targets.nx), np.minimum(cy + _BOUND_CELLS + 1, targets.ny)
    d, _, hit = _cells_nearest(targets, centre, c0, c1, positions=False)
    if not hit.all():
        d[~hit] = _grid_search(targets, centre[~hit])[0]
    return _widen(d + rho, scale)


def _disc_gather(grid: _TargetGrid, centre: np.ndarray,
                 reach: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The targets within reach[k] of centre[k], for every k, in the batches of ``_square_gather``.

    Gathers the square of cells between those of each disc's box corners
    (cell assignment rounds monotonically, so a target in the box is
    bucketed between them), then drops the targets whose computed distance
    to the centre exceeds the reach.
    """
    ps = grid.buckets()[2]
    cx, cy = centre[:, 0], centre[:, 1]
    x0, y0 = grid.cell_of(cx - reach, cy - reach)
    x1, y1 = grid.cell_of(cx + reach, cy + reach)
    for b, cand, k in _square_gather(grid, (x0, y0, x1 + 1, y1 + 1)):
        near = _euclid(ps[cand, 0] - centre[b, 0][k], ps[cand, 1] - centre[b, 1][k]) <= reach[b][k]
        yield b, cand[near], k[near]


def _solve_cells(grid: _TargetGrid, qs: np.ndarray, starts: np.ndarray,
                 centre: np.ndarray, reach: np.ndarray) -> float:
    """The largest nearest distance from the queries of the runs qs[starts[k]:starts[k+1]].

    Every query of run k has its computed nearest target within reach[k]
    of centre[k], so each run measures all its queries against its
    ``_disc_gather`` and takes the minimum per query. Runs are gathered in
    that function's batches; (query, target) pairs are made in batches of
    at most _GATHER (a query with more candidates goes alone), which may
    split a run.
    """
    ps = grid.buckets()[2]
    bounds = np.append(starts, qs.shape[0])
    sizes = np.diff(bounds)
    worst = 0.0
    for b1, cand, k in _disc_gather(grid, centre, reach):
        n_cand = np.bincount(k, minlength=b1.stop - b1.start)
        px, py = ps[cand, 0], ps[cand, 1]
        # per query of these runs: its coordinates, and its run's candidates
        rows = slice(bounds[b1.start], bounds[b1.stop])
        qx, qy = qs[rows, 0], qs[rows, 1]
        first = np.repeat(np.cumsum(n_cand) - n_cand, sizes[b1])
        weights = np.repeat(n_cand, sizes[b1])
        for b2 in _batches(weights, _GATHER):
            w = weights[b2]
            at = np.cumsum(w) - w
            pos = _ragged(first[b2], w)
            # _euclid's expression in place; sqrt is monotone, so the root of
            # the largest smallest square is the largest smallest distance
            dx = np.repeat(qx[b2], w)
            dx -= px[pos]
            dy = np.repeat(qy[b2], w)
            dy -= py[pos]
            dx *= dx
            dy *= dy
            dx += dy
            worst = max(worst, float(np.minimum.reduceat(dx, at).max()))
    return math.sqrt(worst)


def _grid_max_nearest(q: np.ndarray, p: np.ndarray) -> float:
    """The largest nearest distance from a row of q to p: ``_grid_nearest(q, p)[0].max()``.

    The queries go in a ``_TargetGrid`` of about _QUERY_CELL per cell, and
    each occupied cell gets an upper bound ub from the nearest target in the
    5 x 5 square of target cells around its centre (``_cell_bounds``). The
    cell with the largest bound is solved exactly first, then every cell
    whose bound exceeds it. A skipped query's distance is at most its cell's
    bound, which is at most a solved query's distance, so the value is the
    same. A kept cell with centre c and half-diagonal rho is solved as a
    whole: each of its queries has its nearest target within ub of itself
    and so within R = ub + rho of c, widened for rounding, so its queries
    are measured against the targets of that disc only (``_solve_cells``).
    Where ``_scan_first`` holds, one block scan gives the value instead.
    """
    if _scan_first(q, p):
        return float(_block_nearest(q, p)[0].max())
    targets = _TargetGrid(p)
    _, offs, qs = _TargetGrid(q, per_cell=_QUERY_CELL).buckets()
    starts = offs[:-1][offs[1:] > offs[:-1]]
    sizes = np.diff(np.append(starts, q.shape[0]))
    ub = _cell_bounds(qs, starts, targets)
    seed = int(np.argmax(ub))
    cmax = float(_grid_search(targets, qs[starts[seed]:starts[seed] + sizes[seed]])[0].max())
    keep = ub > cmax
    keep[seed] = False
    if keep.any():
        kept = np.cumsum(sizes[keep]) - sizes[keep]
        qk = qs[_ragged(starts[keep], sizes[keep])]
        centre, rho, scale = _cell_boxes(qk, kept, targets)
        cmax = max(cmax, _solve_cells(targets, qk, kept, centre, _widen(ub[keep] + rho, scale)))
    return cmax


def _unmatched(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether each row of q differs from every row of p.

    Both are C-contiguous float64 (n, 2) arrays, viewed as complex128 without
    a copy: NumPy sorts and compares complex values lexicographically, and
    ``==`` treats -0.0 as 0.0, as ``_check_distinct`` does. So the equal
    rows are found by one searchsorted against p's rows, which are sorted
    only when they are out of order.
    """
    qc, pc = q.view(np.complex128)[:, 0], p.view(np.complex128)[:, 0]
    if not (pc[1:] >= pc[:-1]).all():
        pc = np.sort(pc)
    return pc[np.minimum(np.searchsorted(pc, qc), pc.size - 1)] != qc


def _planar_directed(q: np.ndarray, p: np.ndarray) -> float:
    """The directed Hausdorff distance from the rows of q to the distinct rows of p.

    A query equal to a target is at distance 0.0, so it is dropped
    (``_unmatched``) before the search.
    """
    q = q[_unmatched(q, p)]
    return _grid_max_nearest(q, p) if q.size else 0.0


# ---------------------------------------------------------------------------
# construction


def build_space(matrix: Sequence[Sequence[float]] | np.ndarray) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    The triangle inequality is checked exhaustively over all index triples
    with additive tolerance DEFAULT_TOL; the first violating triple
    (lexicographic) is reported.
    """
    d = np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("matrix entries must be finite")
    n = d.shape[0]

    asym = np.abs(d - d.T) > DEFAULT_TOL
    if asym.any():
        i, j = map(int, np.argwhere(asym)[0])
        raise NotSymmetric(i, j, float(d[i, j]), float(d[j, i]))
    neg = d < -DEFAULT_TOL
    if neg.any():
        i, j = map(int, np.argwhere(neg)[0])
        raise NegativeEntry(i, j, float(d[i, j]))
    diag = np.abs(np.diagonal(d)) > DEFAULT_TOL
    if diag.any():
        i = int(np.argwhere(diag)[0][0])
        raise NonzeroDiagonal(i, float(d[i, i]))
    off = (np.abs(d) <= DEFAULT_TOL) & ~np.eye(n, dtype=bool)
    if off.any():
        i, j = map(int, np.argwhere(off)[0])
        raise ZeroOffDiagonal(i, j)

    # d[i,k] <= d[i,j] + d[j,k], all triples; chunk over i to bound memory
    step = max(1, _BLOCK_CELLS // max(1, n * n))
    for s in range(0, n, step):
        lhs = d[s:s + step, None, :]                      # [i, 1, k]
        rhs = d[s:s + step, :, None] + d[None, :, :]      # [i, j, k]
        bad = lhs > rhs + DEFAULT_TOL
        if bad.any():
            i, j, k = map(int, np.argwhere(bad)[0])
            i += s
            raise TriangleViolation(i, j, k, float(d[i, k]), float(d[i, j]), float(d[j, k]))
    return FiniteMetricSpace(d)


def induce_space(pts: EuclideanPointSet) -> FiniteMetricSpace:
    """Materialize the full Euclidean distance matrix of a (small) point set.

    The triangle inequality holds by construction and is not re-checked.
    """
    d = pts.block(range(pts.n), range(pts.n))
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


# ---------------------------------------------------------------------------
# set-level quantities


def diam(space: MetricLike, s: "SubsetRef | Iterable[int]") -> float:
    """Largest pairwise distance within the subset; 0 for singletons."""
    idx = as_subset(s, space.n).array
    if idx.size == 1:
        return 0.0
    worst = 0.0
    for chunk in _row_chunks(idx.size, idx.size):
        worst = max(worst, float(space.block(idx[chunk], idx).max()))
    return worst


def set_distance(space: MetricLike, a: "SubsetRef | Iterable[int]",
                 b: "SubsetRef | Iterable[int]") -> float:
    """min over cross pairs; 0 when the subsets share a point."""
    ia, ib = as_subset(a, space.n).array, as_subset(b, space.n).array
    return float(_nearest(space, ia, ib).min())


def neighborhood(space: MetricLike, a: "SubsetRef | Iterable[int]", r: float) -> SubsetRef:
    """Open r-neighborhood: indices at distance strictly below r from the subset."""
    if r <= 0:
        raise ValueError(f"neighborhood radius must be positive, got {r}")
    dist = _nearest(space, np.arange(space.n, dtype=np.intp), as_subset(a, space.n).array)
    return SubsetRef(np.flatnonzero(dist < r))


def directed_hausdorff(space: MetricLike, a: "SubsetRef | Iterable[int]",
                       b: "SubsetRef | Iterable[int]") -> float:
    """max over a of the distance to the nearest point of b."""
    ia, ib = as_subset(a, space.n).array, as_subset(b, space.n).array
    if isinstance(space, EuclideanPointSet):
        return _planar_directed(space.points[ia], space.points[ib])
    return float(_nearest(space, ia, ib).max())


def hausdorff(space: MetricLike, a: "SubsetRef | Iterable[int]",
              b: "SubsetRef | Iterable[int]") -> float:
    """Hausdorff distance between two nonempty subsets of one ambient space.

    Computed as max(max-min, max-min); on finite sets this value is attained
    and coincides with the enclosing-neighborhood infimum.
    """
    return max(directed_hausdorff(space, a, b), directed_hausdorff(space, b, a))


def planar_hausdorff(x: EuclideanPointSet, y: EuclideanPointSet) -> float:
    """Hausdorff distance between two planar sets, with the plane as their ambient.

    Equal to ``hausdorff`` over one ambient set that holds every point of
    either (a point of both once), to the bit, without building that set.
    """
    return max(_planar_directed(x.points, y.points), _planar_directed(y.points, x.points))


def scale(space: FiniteMetricSpace, lam: float) -> FiniteMetricSpace:
    """Multiply all distances by lam > 0. Metric axioms are preserved."""
    if lam <= 0:
        raise NonpositiveLambda(lam)
    return FiniteMetricSpace(space.matrix * lam)


def scale_points(pts: EuclideanPointSet, lam: float) -> EuclideanPointSet:
    """Multiply all coordinates by lam > 0; distances scale by exactly lam."""
    if lam <= 0:
        raise NonpositiveLambda(lam)
    return EuclideanPointSet(pts.points * lam)

