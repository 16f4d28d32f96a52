"""Generators for the concrete geometry: lattice windows, fine nets, the chess
coloring, the comb set with its two-family cover, and brick/interval covers.

All generators are deterministic: identical parameters give byte-identical
point orders and family memberships. Grid coordinates are emitted as single
products k*step (never cumulative sums) so that coincident points of aligned
grids compare exactly equal and deduplicate cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covers import SubsetFamily, _family_from_runs
from .errors import (
    DeltaNotDividingOne,
    EmptyWindow,
    HTooSmall,
    LTooSmall,
    NonIntegerPoint,
    TooManyPoints,
)
from .metric import EuclideanPointSet, _ragged

POINT_CAP = 1_000_000
_GRID_TOL = 1e-9
MIN_PIECE_HEIGHT = math.sqrt(3.0)


@dataclass(frozen=True)
class WindowSpec:
    """Closed axis-aligned rectangle; 1-D generators use only the x-range.

    Degenerate ranges (xmax == xmin) are allowed — a window may hold a single
    row, column, or point.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ValueError("window bounds must be finite")
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise EmptyWindow(f"window [{self.xmin},{self.xmax}]x[{self.ymin},{self.ymax}] is empty")

    @staticmethod
    def parse(text: str) -> "WindowSpec":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("window must be 'xmin,xmax,ymin,ymax'")
        return WindowSpec(*parts)

    @staticmethod
    def square(size: float) -> "WindowSpec":
        return WindowSpec(0.0, float(size), 0.0, float(size))


def _grid_range(lo: float, hi: float, step: float,
                pad_edges: bool) -> tuple[int, int, list[float], list[float]]:
    """The multiples k*step, k0 <= k <= k1, inside [lo, hi], and the edges put before and after.

    Tolerance-adjusted index bounds absorb division rounding; a multiple
    more than edge_tol outside [lo, hi] is not taken. A window too wide for
    its step to index in floats is refused as a ValueError.
    """
    k0, k1 = lo / step - _GRID_TOL, hi / step + _GRID_TOL
    if not (math.isfinite(k0) and math.isfinite(k1)):
        raise ValueError(f"spacing {step!r} is too fine for the range [{lo!r}, {hi!r}]")
    k0, k1 = math.ceil(k0), math.floor(k1)
    # the tolerance counts in steps: a multiple it admits beyond edge_tol is dropped
    edge_tol = _GRID_TOL * max(1.0, abs(lo), abs(hi))
    if float(k0) * step < lo - edge_tol:
        k0 += 1
    if float(k1) * step > hi + edge_tol:
        k1 -= 1
    # the first and last coordinate without edges; with no multiple, lo comes first
    first, last = (float(k0) * step, float(k1) * step) if k0 <= k1 else (math.inf, lo)
    head = [lo] if pad_edges and first > lo + edge_tol else []
    tail = [hi] if pad_edges and last < hi - edge_tol else []
    return k0, k1, head, tail


def _grid_size(lo: float, hi: float, step: float, pad_edges: bool) -> int:
    """The length of ``_grid_coords(lo, hi, step, pad_edges)``, counted without building it."""
    k0, k1, head, tail = _grid_range(lo, hi, step, pad_edges)
    return max(k1 - k0 + 1, 0) + len(head) + len(tail)


def _grid_coords(lo: float, hi: float, step: float, pad_edges: bool) -> np.ndarray:
    """Multiples of step inside [lo, hi], optionally with the exact edges added.

    Coordinates are single products, so aligned grids share bit-identical
    values. Generators count with ``_grid_size`` before they build.
    """
    k0, k1, head, tail = _grid_range(lo, hi, step, pad_edges)
    coords = np.arange(k0, k1 + 1, dtype=np.float64) * step
    return np.concatenate((head, coords, tail)) if head or tail else coords


def _check_count(count: int) -> None:
    if count > POINT_CAP:
        raise TooManyPoints(count, POINT_CAP)


def gen_lattice_window(w: WindowSpec) -> EuclideanPointSet:
    """All integer points in the closed window, in (x, y)-lexicographic order."""
    nx, ny = _grid_size(w.xmin, w.xmax, 1.0, False), _grid_size(w.ymin, w.ymax, 1.0, False)
    if nx == 0 or ny == 0:
        raise EmptyWindow("window contains no integer point")
    _check_count(nx * ny)
    xs = _grid_coords(w.xmin, w.xmax, 1.0, pad_edges=False)
    ys = _grid_coords(w.ymin, w.ymax, 1.0, pad_edges=False)
    return EuclideanPointSet.grid(xs, ys)


def gen_epsilon_net(w: WindowSpec, eps: float) -> EuclideanPointSet:
    """Grid of spacing eps covering the closed window.

    Coordinates are multiples of eps, so the grid passes through (xmin, ymin)
    whenever the window corners are themselves multiples of eps (every window
    used by the bundled experiments); otherwise the exact window edges are
    appended. Either way each window point is within eps*sqrt(2)/2 of the net.
    """
    if not eps > 0:  # nan too
        raise ValueError("net spacing must be positive")
    if eps == math.inf:
        raise ValueError("net spacing must be finite")
    _check_count(_grid_size(w.xmin, w.xmax, eps, True) * _grid_size(w.ymin, w.ymax, eps, True))
    return EuclideanPointSet.grid(_grid_coords(w.xmin, w.xmax, eps, pad_edges=True),
                                  _grid_coords(w.ymin, w.ymax, eps, pad_edges=True))


def _integer_coords(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer x and y columns of points that lie within _GRID_TOL of integers."""
    x, y = pts[:, 0], pts[:, 1]
    i, j = np.rint(x), np.rint(y)
    bad = np.flatnonzero((np.abs(x - i) > _GRID_TOL) | (np.abs(y - j) > _GRID_TOL))
    if bad.size:
        k = int(bad[0])
        raise NonIntegerPoint(k, (float(x[k]), float(y[k])))
    return i.astype(np.int64), j.astype(np.int64)


def _keyed_families(labels: tuple[str, ...], color: np.ndarray,
                    *keys: np.ndarray) -> tuple[SubsetFamily, ...]:
    """Group point indices by color, then by equal key tuples.

    Family c collects the points of color c (0 <= c < len(labels)): one
    member per distinct key tuple, members in ascending key order, indices
    ascending within a member.
    """
    order = np.lexsort((*keys[::-1], color))  # stable: indices stay ascending
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in (color, *keys):
        ks = key[order]
        new[1:] |= ks[1:] != ks[:-1]
    edges = np.append(np.flatnonzero(new), order.size)
    counts = np.diff(edges)
    cuts = np.searchsorted(color[order[edges[:-1]]], np.arange(len(labels) + 1))
    return tuple(_family_from_runs(label, order[edges[lo]:edges[hi]], counts[lo:hi])
                 for label, lo, hi in zip(labels, cuts[:-1], cuts[1:]))


def gen_chess_families(lattice: EuclideanPointSet) -> tuple[SubsetFamily, SubsetFamily]:
    """Chess coloring: red singletons where x+y is even, blue where odd.

    On any window containing a diagonal pair, each family's min gap is
    sqrt(2), realized by same-color diagonal neighbors.
    """
    i, j = _integer_coords(lattice.points)
    parity = (i + j) % 2
    # each point is its own key, so every member is a singleton
    red, blue = _keyed_families(("red", "blue"), parity, np.arange(lattice.n))
    return red, blue


def gen_comb_set(w: WindowSpec, delta: float) -> EuclideanPointSet:
    """delta-spaced samples of the horizontal axis plus every vertical integer
    line inside the window, deduplicated at the crossings.

    delta must divide 1 so axis samples land exactly on the crossings.
    Points come out (x, y)-lexicographically sorted.
    """
    # in this order, so nan, inf and a delta whose reciprocal overflows raise no other error
    if (not 0.0 < delta < math.inf or not 1.0 / delta < math.inf
            or abs(1.0 / delta - round(1.0 / delta)) > _GRID_TOL):
        raise DeltaNotDividingOne(delta)
    # the lines' samples, and the axis's off the lines: axis sample k*delta
    # is line j's crossing exactly when k = j/delta, as delta divides 1
    on_axis = w.ymin <= 0.0 <= w.ymax
    j0, j1, _, _ = _grid_range(w.xmin, w.xmax, 1.0, False)
    k0, k1, _, _ = _grid_range(w.xmin, w.xmax, delta, False) if on_axis else (0, -1, [], [])
    per_unit = round(1.0 / delta)
    crossings = max(min(j1, k1 // per_unit) - max(j0, -(-k0 // per_unit)) + 1, 0)
    count = (max(j1 - j0 + 1, 0) * _grid_size(w.ymin, w.ymax, delta, False)
             + max(k1 - k0 + 1, 0) - crossings)
    if count == 0:
        raise EmptyWindow("window holds no sample of the axis or a vertical line")
    _check_count(count)
    rows = []
    if on_axis:
        axis_x = _grid_coords(w.xmin, w.xmax, delta, pad_edges=False)
        rows.append(np.column_stack((axis_x, np.zeros_like(axis_x))))
    line_x = _grid_coords(w.xmin, w.xmax, 1.0, pad_edges=False)
    line_y = _grid_coords(w.ymin, w.ymax, delta, pad_edges=False)
    for x in line_x:
        rows.append(np.column_stack((np.full_like(line_y, x), line_y)))
    # complex128 rows sort and compare (x, y)-lexicographically
    pts = np.unique(np.concatenate(rows).view(np.complex128)).view(np.float64).reshape(-1, 2)
    return EuclideanPointSet(pts)


def _comb_piece_keys(pts: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """Assign every sample to its unique cover piece: the piece's colour and key arrays.

    Crossing piece P_n owns the vertical stretch |y| <= h/2 of line n plus the
    axis bar [n-1/2, n+1/2) (half-open, so bar samples split cleanly); its
    key is (n, 0, 0, 0). Off-axis stretches S_(n,k) own (h/2 + k*h,
    h/2 + (k+1)*h] of line n, above (side 1) and mirrored below (side -1),
    with key (n, 1, k, side); at a shared boundary the piece nearer the axis
    wins. Sort order of the keys fixes member order inside each family.
    """
    x, y = pts[:, 0], pts[:, 1]
    on_axis = np.abs(y) <= _GRID_TOL
    line = np.rint(x)  # rounds half to even, as round() does
    bad = np.flatnonzero(~on_axis & (np.abs(x - line) > _GRID_TOL))
    if bad.size:
        i = int(bad[0])
        raise NonIntegerPoint(i, (float(x[i]), float(y[i])))
    # n and k + 1 stay integer-valued floats, which no coordinate overflows;
    # as keys they order and group as n and k do
    n = np.where(on_axis, np.floor(x + 0.5 + _GRID_TOL), line)
    a = np.abs(y)
    stretch = ~on_axis & (a > h / 2 + _GRID_TOL)
    k1 = np.where(stretch, np.ceil((a - h / 2) / h - _GRID_TOL), 0.0)
    side = np.where(stretch, np.where(y > 0, 1, -1), 0)
    # the parity of n, or of n + k + 1 on a stretch; fmod is exact
    color = (np.abs(np.fmod(n, 2.0)) + np.abs(np.fmod(k1, 2.0))).astype(np.int64) % 2
    return color, n, stretch.astype(np.int64), k1, side


def gen_comb_cover(comb: EuclideanPointSet, h: float = 2.0) -> tuple[SubsetFamily, SubsetFamily]:
    """Two-family cover of a comb window by crossing pieces and line stretches.

    Pieces: P_n = vertical segment {n} x [-h/2, h/2] plus axis bar
    [n-1/2, n+1/2) x {0}, colored by parity of n; S_(n,k) = kth stretch of
    height h further out on line n (above and below), colored by parity of
    n+k+1. Every same-color pair of pieces is then at distance >= 1 provided
    h >= sqrt(3) (the binding corner pair (n±1/2, 0) to (n±1, h/2) has gap
    sqrt(1/4 + h^2/4)); with the default h=2 the max piece diameter is 2.
    """
    if not h < math.inf:  # nan too
        raise ValueError(f"piece height must be finite, got {h!r}")
    if h < MIN_PIECE_HEIGHT - 1e-12:
        raise HTooSmall(h, MIN_PIECE_HEIGHT)
    red, blue = _keyed_families(("red", "blue"), *_comb_piece_keys(comb.points, h))
    return red, blue


_BRICK_LABELS = ("red", "blue", "green")


def _tile_side(r: float, L: float | None) -> float:
    """The tile side of a brick or interval cover at separation r: L, or 3r when L is None.

    r must be positive and finite, and L finite and at least 2r (LTooSmall).
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"separation r must be positive and finite, got {r!r}")
    L = 3.0 * r if L is None else L
    if not L < math.inf:
        raise ValueError(f"tile size must be finite, got {L!r}")
    if L < 2.0 * r - 1e-12:
        raise LTooSmall(L, r)
    return L


def _brick_row(y: np.ndarray, L: float) -> np.ndarray:
    """The row j of the bricks of side L that hold ordinates y."""
    return np.floor(y / L + _GRID_TOL).astype(np.int64)


def _brick_column(x: np.ndarray, j: np.ndarray, L: float) -> np.ndarray:
    """The index i of the bricks of side L in rows j that hold abscissas x."""
    return np.floor((x - j * (L / 2.0)) / L + _GRID_TOL).astype(np.int64)


def gen_brick_cover(w: WindowSpec, r: float, L: float | None = None,
                    spacing: float | None = None,
                    ) -> tuple[EuclideanPointSet, tuple[SubsetFamily, SubsetFamily, SubsetFamily]]:
    """Brick-wall 3-coloring of a window net: same-color gap >= L/2, diam <= L*sqrt(2).

    Brick (i,j) spans x in [iL + jL/2, (i+1)L + jL/2), y in [jL, (j+1)L);
    color = (i - j) mod 3. Rows shift by half a brick, so the adjacency graph
    is triangular and three colors separate: every neighbor of (i,j) — (i±1,j),
    (i,j±1), (i-1,j+1), (i+1,j-1) — differs mod 3, and the nearest same-color
    bricks, e.g. (i,j) and (i+1,j+1), are offset by 3L/2 in x.

    The families are built from runs, with no sort of the net's points. The
    net is the x-major product of its ``axes``, and j rises with y, so each
    column's points in one row of bricks are one run of consecutive indices,
    all in one brick. The runs are sorted by (color, i, j), column order kept,
    so members and their indices come in the order of ``_keyed_families``.
    """
    L = _tile_side(r, L)
    net = gen_epsilon_net(w, spacing if spacing is not None else r / 4.0)
    xs, ys = net.axes
    row = _brick_row(ys, L)
    first = np.flatnonzero(np.diff(row, prepend=row[0] - 1))  # the first y of each row of bricks
    # one run per (column, row of bricks), column-major: its brick (i, j), first index, length
    i = _brick_column(xs[:, None], row[first], L).ravel()
    j = np.tile(row[first], xs.size)
    start = (np.arange(xs.size)[:, None] * ys.size + first).ravel()
    size = np.tile(np.diff(first, append=ys.size), xs.size)
    order = np.lexsort((j, i, (i - j) % 3))  # stable: a brick's runs stay in column order
    i, j, start, size = i[order], j[order], start[order], size[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    heads = np.flatnonzero(new)
    counts = np.add.reduceat(size, heads)
    flat = _ragged(start, size)
    ends = np.append(0, np.cumsum(counts))
    cuts = np.searchsorted((i[heads] - j[heads]) % 3, np.arange(len(_BRICK_LABELS) + 1))
    red, blue, green = (_family_from_runs(label, flat[ends[lo]:ends[hi]], counts[lo:hi])
                        for label, lo, hi in zip(_BRICK_LABELS, cuts[:-1], cuts[1:]))
    return net, (red, blue, green)


def gen_interval_cover(w: WindowSpec, r: float, L: float | None = None,
                       spacing: float | None = None,
                       ) -> tuple[EuclideanPointSet, tuple[SubsetFamily, SubsetFamily]]:
    """1-D analogue on the window's x-range: intervals [kL, (k+1)L) by parity of k.

    Same-color intervals are a full interval apart, so the gap is L >= 2r; each
    member's diameter is below L.
    """
    L = _tile_side(r, L)
    # the net of the x-range: its y-axis is the single coordinate 0.0
    net = gen_epsilon_net(WindowSpec(w.xmin, w.xmax, 0.0, 0.0),
                          spacing if spacing is not None else r / 4.0)
    k = np.floor(net.points[:, 0] / L + _GRID_TOL).astype(np.int64)
    red, blue = _keyed_families(("red", "blue"), k % 2, k)
    return net, (red, blue)

