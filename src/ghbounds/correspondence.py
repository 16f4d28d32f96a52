"""Relations, correspondences, distortion, and the exact Gromov-Hausdorff solver.

For finite spaces the GH distance is half the minimum distortion over all
correspondences; the minimum is attained because there are finitely many.
The solver decides feasibility of "some correspondence has distortion <= t"
for thresholds t drawn from the finite discrepancy multiset
{ |d_X(i,i') - d_Y(j,j')| }, so the optimum is found exactly, without any
epsilon scheduling. Each decision is a search over two maps f: X -> Y and
g: Y -> X with R = graph f + graph g^-1: every correspondence of distortion
<= t contains such an R, whose distortion is no larger (Kalton & Ostrovskii,
Forum Math. 11, 1999: 2 d_GH = inf over f, g of max(dis f, dis g, codis(f, g))).
Variables are chosen fewest values first (Haralick & Elliott, Artificial
Intelligence 14, 1980), and the node budget counts the values tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

# ---------------------------------------------------------------------------
# distortion and pushforward


def distortion(x: MetricLike, y: MetricLike, rel: Relation | Correspondence) -> float:
    """max over ordered pairs of matched pairs of | d_X(i,i') - d_Y(j,j') |."""
    pairs = rel.pairs
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


def _check_sides(*sides: int) -> None:
    if max(sides) > 62:
        raise ValueError("solver is sized for small spaces (at most 62 points per side)")


def _tables(diff: np.ndarray, t: float) -> list[int]:
    """Row c = i*ny + j: the cells compatible with cell (i, j) at threshold t.

    diff[c, c2] is |d_X(i,i2) - d_Y(j,j2)|. Each row is a bitmask over two
    copies of the cells, the low one for the domains of f and the high one,
    shifted up by nx*ny bits, for the domains of g.
    """
    ok = diff <= t
    bits = np.packbits(np.concatenate([ok, ok], axis=1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _feasible(table: list[int], variables: list[int], domains: int, chosen: int,
              budget: _Budget) -> int | None:
    """Cell mask of a correspondence with dis <= t that contains ``chosen``, or None.

    Each variable is the mask of its domain's bits in ``domains``: f(i) is
    row i of the low copy, g(j) column j of the high one. Giving a variable
    the value of cell c puts c in the relation and ANDs ``table[c]`` into
    every domain. The next variable is the one with the fewest values left;
    an empty domain fails the branch.
    """
    cells = len(table)

    def rec(domains: int, free: list[int], chosen: int) -> int | None:
        var, fewest = None, cells + 1
        for v in free:
            k = (domains & v).bit_count()
            if k == 0:
                return None
            if k < fewest:
                var, fewest = v, k
        if var is None:
            return chosen
        rest = [v for v in free if v != var]
        values = domains & var
        while values:
            low = values & -values
            values ^= low
            c = (low.bit_length() - 1) % cells
            budget.spend()
            found = rec(domains & table[c], rest, chosen | (1 << c))
            if found is not None:
                return found
        return None

    return rec(domains, variables, chosen)


def exact_gh(x: MetricLike, y: MetricLike, budget: int = DEFAULT_NODE_BUDGET) -> GhResult:
    """Exact Gromov-Hausdorff distance between two finite spaces.

    Binary-searches the sorted discrepancy multiset for the least feasible
    distortion threshold, then constructs the lexicographically smallest
    optimal correspondence cell by cell. Each probe searches for the two
    maps f and g of the module docstring; ``nodes`` counts the values given
    to f(i) or g(j), and ``budget`` bounds it. If the budget runs out before
    the search is settled, the best correspondence found so far is returned
    with optimal=False and half its own distortion as the value.
    """
    nx, ny = x.n, y.n
    _check_sides(nx, ny)
    dx = np.asarray(x.block(range(nx), range(nx)), dtype=np.float64)
    dy = np.asarray(y.block(range(ny), range(ny)), dtype=np.float64)
    cells = nx * ny
    diff = np.abs(dx[:, None, :, None] - dy[None, :, None, :]).reshape(cells, cells)
    thresholds = np.unique(diff)
    tracker = _Budget(budget)

    rows = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    cols = [sum(1 << (i * ny + j) for i in range(nx)) for j in range(ny)]
    variables = rows + [col << cells for col in cols]
    everything = (1 << 2 * cells) - 1

    # the full product is always a correspondence; its distortion is max(thresholds)
    best_cells = (1 << cells) - 1
    best_t = float(thresholds[-1])

    lo, hi = 0, len(thresholds) - 1
    proven = False
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            t = float(thresholds[mid])
            found = _feasible(_tables(diff, t), variables, everything, 0, tracker)
            if found is not None:
                hi, best_t, best_cells = mid, t, found
            else:
                lo = mid + 1
        proven = True
        t_star = float(thresholds[hi])

        # lexicographically smallest optimal correspondence, cell by cell: a
        # forced cell prunes every domain, a forbidden (i, j) leaves f(i)'s and g(j)'s
        table = _tables(diff, t_star)
        forced, domains = 0, everything
        for c in range(cells):
            if all(forced & m for m in rows) and all(forced & m for m in cols):
                break
            trial, pruned = forced | (1 << c), domains & table[c]
            # the forced cells must be pairwise compatible
            if (pruned & trial == trial
                    and _feasible(table, variables, pruned, trial, tracker) is not None):
                forced, domains = trial, pruned
            else:
                domains &= ~((1 << c) | (1 << (c + cells)))
        best_cells, best_t = forced, t_star
    except _OutOfBudget:
        pass

    corr = Correspondence(tuple(divmod(c, ny) for c in range(cells) if best_cells >> c & 1),
                          nx, ny)
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

