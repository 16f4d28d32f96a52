"""Relations, correspondences, distortion, and the exact Gromov-Hausdorff solver.

For finite spaces the GH distance is half the minimum distortion over all
correspondences; the minimum is attained because there are finitely many.
The solver decides feasibility of "some correspondence has distortion <= t"
for thresholds t drawn from the finite discrepancy multiset
{ |d_X(i,i') - d_Y(j,j')| }, so the optimum is found exactly, without any
epsilon scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyImage,
    EmptyRelation,
    IndexOutOfRange,
    NotACorrespondence,
)
from .metric import (EuclideanPointSet, MetricLike, SubsetRef, as_subset, _grid_nearest,
                     _row_chunks)

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Relation:
    """A nonempty set of index pairs between two spaces."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise EmptyRelation("relation must be nonempty")
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))

    @staticmethod
    def of(pairs: Iterable[Sequence[int]]) -> "Relation":
        return Relation(tuple((int(i), int(j)) for i, j in pairs))

    def check_ranges(self, nx: int, ny: int) -> None:
        for i, j in self.pairs:
            if not 0 <= i < nx:
                raise IndexOutOfRange(i, nx)
            if not 0 <= j < ny:
                raise IndexOutOfRange(j, ny)


@dataclass(frozen=True)
class Correspondence:
    """A relation whose projections onto both index sets are surjective."""

    pairs: tuple[tuple[int, int], ...]
    nx: int
    ny: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))
        if not self.pairs:
            raise EmptyRelation("correspondence must be nonempty")
        Relation(self.pairs).check_ranges(self.nx, self.ny)
        left = {i for i, _ in self.pairs}
        right = {j for _, j in self.pairs}
        if len(left) != self.nx:
            missing = min(set(range(self.nx)) - left)
            raise NotACorrespondence(f"x-index {missing} is unmatched")
        if len(right) != self.ny:
            missing = min(set(range(self.ny)) - right)
            raise NotACorrespondence(f"y-index {missing} is unmatched")

    @staticmethod
    def of(pairs: Iterable[Sequence[int]], nx: int, ny: int) -> "Correspondence":
        return Correspondence(tuple((int(i), int(j)) for i, j in pairs), nx, ny)


# ---------------------------------------------------------------------------
# distortion and pushforward


def distortion(x: MetricLike, y: MetricLike, rel: Relation | Correspondence) -> float:
    """max over ordered pairs of matched pairs of | d_X(i,i') - d_Y(j,j') |."""
    pairs = rel.pairs
    if not pairs:
        raise EmptyRelation("relation must be nonempty")
    Relation(pairs).check_ranges(x.n, y.n)
    ii = np.fromiter((p[0] for p in pairs), dtype=np.intp)
    jj = np.fromiter((p[1] for p in pairs), dtype=np.intp)
    worst = 0.0
    for chunk in _row_chunks(ii.size, ii.size):
        dx = x.block(ii[chunk], ii)
        dy = y.block(jj[chunk], jj)
        worst = max(worst, float(np.abs(dx - dy).max()))
    return worst


def pushforward(rel: Relation | Correspondence, u: SubsetRef | Iterable[int]) -> SubsetRef:
    """Image of a subset of X under the relation: { j : (i,j) in rel, i in u }."""
    su = as_subset(u)
    pairs = np.array(rel.pairs, dtype=np.int64).reshape(-1, 2)
    image = pairs[np.isin(pairs[:, 0], su.array), 1]
    if not image.size:
        raise EmptyImage(f"subset {su.indices} meets no pair of the relation")
    return SubsetRef(image)


# ---------------------------------------------------------------------------
# exact solver


@dataclass(frozen=True)
class GhResult:
    value: float
    correspondence: Correspondence
    nodes: int
    optimal: bool

    @property
    def dis(self) -> float:
        return 2.0 * self.value


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, limit: int):
        self.left = limit
        self.spent = 0

    def spend(self) -> None:
        if self.left <= 0:
            raise _OutOfBudget
        self.left -= 1
        self.spent += 1


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


def _feasible(nx: int, ny: int, cross, row_ok, force_in: list[int],
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


def _rows_to_pairs(rows: list[int], ny: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, mask in enumerate(rows) for j in _iter_bits(mask))


def exact_gh(x: MetricLike, y: MetricLike, budget: int = DEFAULT_NODE_BUDGET) -> GhResult:
    """Exact Gromov-Hausdorff distance between two finite spaces.

    Binary-searches the sorted discrepancy multiset for the least feasible
    distortion threshold, then constructs the lexicographically smallest
    optimal correspondence cell by cell. If the node budget runs out before
    the search is settled, the best correspondence found so far is returned
    with optimal=False and half its own distortion as the value.
    """
    nx, ny = x.n, y.n
    if ny > 62 or nx > 62:
        raise ValueError("solver is sized for small spaces (at most 62 points per side)")
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
            rows = _feasible(nx, ny, cross, row_ok, no_force, no_force, tracker)
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
            if _feasible(nx, ny, cross, row_ok, trial, forbid, tracker) is not None:
                force_in = trial
                chosen_cols |= 1 << j
            else:
                forbid[i] |= 1 << j
        best_rows, best_t = force_in, t_star
    except _OutOfBudget:
        pass

    corr = Correspondence(_rows_to_pairs(best_rows, ny), nx, ny)
    if not proven:
        # the witness of the last feasible probe may do better than its threshold
        best_t = distortion(x, y, corr)
    return GhResult(value=best_t / 2.0, correspondence=corr,
                    nodes=tracker.spent, optimal=proven)


def gh_upper_bound_from_correspondence(x: MetricLike, y: MetricLike,
                                       rel: Correspondence) -> float:
    """distortion(rel)/2: a certified upper bound on the GH distance.

    rel must be a Correspondence sized x.n by y.n; its constructor has
    already checked that both projections are onto.
    """
    if not isinstance(rel, Correspondence) or (rel.nx, rel.ny) != (x.n, y.n):
        raise NotACorrespondence("upper bound requires a correspondence")
    return distortion(x, y, rel) / 2.0


def nearest_point_correspondence(a: EuclideanPointSet, b: EuclideanPointSet) -> Correspondence:
    """Match every point of each set with its nearest point of the other.

    The union of both directed nearest-point maps is surjective onto both
    sides; ties resolve to the smallest index.
    """
    _, a_to_b = _grid_nearest(a.points, b.points)
    _, b_to_a = _grid_nearest(b.points, a.points)
    pairs = set(enumerate(a_to_b.tolist()))
    pairs.update(zip(b_to_a.tolist(), range(b.n)))
    return Correspondence(tuple(sorted(pairs)), a.n, b.n)

