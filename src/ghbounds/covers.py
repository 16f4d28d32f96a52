"""r-disjoint uniformly bounded families, cover certificates, and GH lower bounds.

A verified certificate (k families, separation r, diameter bound C, covered
target) entitles a lower bound of min(r, measured gap)/2 on the GH distance
to any model space whose asymptotic dimension is at least k and whose
scaling stabilizer is nontrivial. Model-space facts are axioms, not computed
from finite windows: ``model_space`` builds R<n>, for any n >= 1, from its
name, with asymptotic dimension n and a nontrivial stabilizer.

Every check of a cover is measured in one inspection pass,
``inspect_cover``: each family's min gap and witness, each family's largest
member diameter, and the target's coverage and multiplicity from one
``bincount``. ``make_certificate`` raises on what it finds and the CLI's
``verify-cover`` reports it.

A family is one read-only int64 index array plus member offsets, and
holds nothing else; a member is a slice of that array. The checks never
read ``members``, which makes one ``SubsetRef`` per member: the
duplicate-member check compares only members that start at the same index,
and the gap search slices the index array, on either backing.

On planar sets the member boxes and the diameter read member points
through one gather, ``_member_columns``. The family gap search measures
only pairs whose bounding boxes come within a distance already measured
between two members. Those pairs come from a sweep along the family's
longer axis or from a bucket grid whose cells are as wide as the largest
member plus that distance, whichever of the two counts fewer, and are made
a few thousand at a time. It returns the same bits and the same witness as
the all-pairs scan, which matrix spaces run a member's rows at a time
against the later members. The largest diameter measures
only the points that can attain it, in the members of two or more points.
Each member is cut to the endpoints of its chains, runs of consecutive
member points with x equal bit for bit and y strictly rising: a point's
largest computed distance to a chain is at one of its endpoints. Then an
endpoint whose distance to the farthest corner of its member's bounding
box is below a distance already measured between two extreme points of
some member is dropped, and the pairs of the rest are scanned in batches.
By monotone rounding the result keeps the bits of ``diam``'s block scan.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .correspondence import Correspondence, pushforward
from .errors import (
    EmptyFamilyList,
    IndexOutOfRange,
    NotACorrespondence,
    NotCovering,
    NotDisjoint,
    TooManyFamilies,
    TrivialStabilizer,
    UnknownModelSpace,
)
from .metric import (
    DEFAULT_TOL,
    EuclideanPointSet,
    MetricLike,
    SubsetRef,
    _GATHER,
    _TargetGrid,
    _batches,
    _check_integers,
    _checked_runs,
    _euclid,
    _ragged,
    _row_chunks,
    _widen,
    as_subset,
    set_distance,
)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SubsetFamily:
    """A labeled list of nonempty subsets of one ambient space.

    Members are expected to be pairwise distinct. A repeated one measures a
    gap of 0, which a non-strict check at r = 0 passes, so ``make_certificate``
    refuses it first (``_duplicate_members``). Pushforward images, however,
    may legitimately coincide and are kept as-is.

    A family holds only its members' indices: ``_index`` is one read-only
    int64 index array and the member offsets, and member k is
    ``flat[offsets[k]:offsets[k + 1]]``. ``members`` is the tuple of
    ``SubsetRef`` over those slices, made on each read. Equality and
    hashing are by (label, members), and families are immutable.
    """

    label: str
    _index: tuple[np.ndarray, np.ndarray]

    def __init__(self, label: str, members: Iterable[Iterable[int]], n: int | None = None) -> None:
        """The family of ``SubsetRef(m, n)`` for each member m, validated in one pass.

        Members that do not convert to int64 as a whole (values that are no
        integers, integers beyond 64 bits, unsized iterables) are built one
        by one, so the error is the first failing member's either way.
        """
        members = list(members)
        try:
            counts = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
            _check_integers(itertools.chain.from_iterable(members))
            flat = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int64,
                               count=int(counts.sum()))
        except (TypeError, ValueError, OverflowError):
            # one by one, so the first failing member raises; then their arrays in one pass
            self.__init__(label, [SubsetRef(m, n).array for m in members])
            return
        _set_index(self, label, flat, counts, n)

    @property
    def members(self) -> tuple[SubsetRef, ...]:
        flat, bounds = self._index[0], self._index[1].tolist()
        return tuple(SubsetRef(flat[s:e]) for s, e in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return self._index[1].size - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsetFamily):
            return NotImplemented
        # members are nonempty and strictly increasing, so equal arrays mean equal members
        return self.label == other.label and all(
            np.array_equal(x, y) for x, y in zip(self._index, other._index))

    def __hash__(self) -> int:
        return hash((self.label, *(a.tobytes() for a in self._index)))

    def __repr__(self) -> str:
        return f"SubsetFamily(label={self.label!r}, members={self.members!r})"


def _set_index(fam: SubsetFamily, label: str, flat: np.ndarray, counts: np.ndarray,
               n: int | None) -> None:
    """Set fam's label, and its members: the runs of counts[k] entries of flat, checked."""
    flat, counts = _checked_runs(flat, counts, n)
    flat = flat.view()
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat.setflags(write=False)
    offsets.setflags(write=False)
    object.__setattr__(fam, "label", label)
    object.__setattr__(fam, "_index", (flat, offsets))


def _family_from_runs(label: str, flat: np.ndarray, counts: np.ndarray,
                      n: int | None = None) -> SubsetFamily:
    """``SubsetFamily(label, runs, n)`` for the runs of counts[k] entries of flat."""
    fam = object.__new__(SubsetFamily)
    _set_index(fam, label, flat, counts, n)
    return fam


@dataclass(frozen=True)
class DisjointnessReport:
    ok: bool
    min_gap: float
    witness: tuple[int, int] | None
    r: float
    strict: bool


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    uncovered: tuple[int, ...]


@dataclass(frozen=True)
class FamilyInspection:
    label: str
    members: int
    disjoint: DisjointnessReport
    max_diam: float


@dataclass(frozen=True)
class CoverInspection:
    """Everything ``inspect_cover`` measured; it judges nothing by itself."""

    families: tuple[FamilyInspection, ...]
    target_size: int
    cover: CoverReport
    multiplicity: int
    given_target: SubsetRef | None = None  # None: the target is every point

    @property
    def c(self) -> float:
        return max((f.max_diam for f in self.families), default=0.0)

    @property
    def min_gap(self) -> float:
        return min((f.disjoint.min_gap for f in self.families), default=math.inf)


@dataclass(frozen=True)
class PushforwardReport:
    max_diam: float
    min_gap: float


@dataclass(frozen=True)
class ModelSpaceDescriptor:
    """Registry entry: facts about an (infinite) model space, with provenance."""

    name: str
    asdim_lower: int
    stabilizer_nontrivial: bool
    provenance: str


_RN_PROVENANCE = (
    "asdim(R^{n}) = n is a standard fact of coarse geometry (see Bell & "
    "Dranishnikov, 'Asymptotic dimension', Topology Appl. 155 (2008)); the "
    "stabilizer is nontrivial because x -> lam*x rescales every distance by lam."
)


def model_space(name: str) -> ModelSpaceDescriptor:
    """The model space R<n> named by name, for any n >= 1."""
    m = re.fullmatch(r"R(\d+)", name)
    n = int(m.group(1)) if m else 0
    if n < 1:
        raise UnknownModelSpace(name)
    return ModelSpaceDescriptor(name, n, True, _RN_PROVENANCE.format(n=n))


@dataclass(frozen=True)
class CoverCertificate:
    """Verified package: families, separation r, diameter bound C, covered target."""

    families: tuple[SubsetFamily, ...]
    r: float
    c: float
    strict: bool
    target_size: int
    min_gap: float
    given_target: SubsetRef | None = None  # None: the target is every point

    @property
    def k(self) -> int:
        return len(self.families)


# ---------------------------------------------------------------------------
# checks


# member pairs per gap-search batch, which keeps about a dozen arrays per pair
_GAP_PAIRS = 4096
# within-member point pairs per diameter batch
_DIAM_PAIRS = 65536


def _family_min_gap(space: MetricLike, fam: SubsetFamily) -> tuple[float, tuple[int, int] | None]:
    """Smallest gap between distinct members and its lexicographically first witness.

    On a matrix space the gap of members a < b is the least entry of
    matrix[A, B], as ``set_distance`` reads it. Each member a takes the
    column minima of its rows over the later members' entries, its rows
    ``_row_chunks`` at a time, and reduces them per member: the first least
    gap of a beats the best so far only when strictly smaller. Planar sets
    measure only candidate pairs (``_planar_min_gap``), with the same bits
    and the same witness.
    """
    m = len(fam)
    if m < 2:
        return math.inf, None
    if isinstance(space, EuclideanPointSet):
        return _planar_min_gap(space, fam)
    flat, offsets = fam._index
    best = math.inf
    witness: tuple[int, int] | None = None
    for a in range(m - 1):
        rows, cols = flat[offsets[a]:offsets[a + 1]], flat[offsets[a + 1]:]
        near = np.full(cols.size, math.inf)
        for chunk in _row_chunks(rows.size, cols.size):
            np.minimum(near, space.block(rows[chunk], cols).min(axis=0), out=near)
        gaps = np.minimum.reduceat(near, offsets[a + 1:-1] - offsets[a + 1])
        b = int(np.argmin(gaps))
        if gaps[b] < best:
            best, witness = float(gaps[b]), (a, a + 1 + b)
    return best, witness


def _member_columns(points: np.ndarray, flat: np.ndarray, offsets: np.ndarray
                    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """The points of members flat[offsets[k]:offsets[k + 1]], a group of members at a time.

    Yields the group's slice of members, each member's first position in
    the group, and the group's x and y, gathered as two columns from its
    contiguous slice of flat. A group holds at most _GATHER points, or one
    member, so a family over a large net never holds a copy of all its
    points at once.
    """
    for grp in _batches(np.diff(offsets), _GATHER):
        ids = flat[offsets[grp.start]:offsets[grp.stop]]
        yield grp, offsets[grp] - offsets[grp.start], points[ids, 0], points[ids, 1]


def _member_boxes(space: EuclideanPointSet, fam: SubsetFamily) -> tuple[np.ndarray, np.ndarray]:
    """Low and high corners of every member's bounding box, as (2, m) arrays."""
    lo, hi = np.empty((2, len(fam))), np.empty((2, len(fam)))
    for grp, first, *cols in _member_columns(space.points, *fam._index):
        for c, col in enumerate(cols):
            lo[c, grp] = np.minimum.reduceat(col, first)
            hi[c, grp] = np.maximum.reduceat(col, first)
    return lo, hi


class _Candidates(NamedTuple):
    """Member pairs to measure: position i // runs with each of begin[i] + [0, counts[i]).

    Positions index the members in the order ``order``; each position has
    ``runs`` consecutive runs of partners.
    """

    order: np.ndarray
    runs: int
    begin: np.ndarray
    counts: np.ndarray

    @property
    def pairs(self) -> int:
        return int(self.counts.sum())


def _planar_min_gap(space: EuclideanPointSet,
                    fam: SubsetFamily) -> tuple[float, tuple[int, int] | None]:
    """The all-pairs minimum and witness of ``_family_min_gap``, from candidate pairs.

    The threshold ub is the smallest distance between the first points of
    members adjacent in sweep order. Every pair whose bounding boxes come
    within ub is a candidate, by one of two rules: the sweep
    (``_sweep_candidates``) or the bucket grid (``_grid_candidates``).
    Both are counted before any pair is made, and the one with fewer pairs
    is measured (``_fewer_pairs``). Candidates are made in batches of
    at most _GAP_PAIRS. Box gaps use the distance expression of the points,
    so by monotone rounding they never exceed the measured gap of any cross
    pair. ``set_distance`` runs only on pairs whose box gap could still beat
    the best (gap, a, b), in ascending (box gap, a, b) order per batch.
    When every gap is inf (coordinates whose differences overflow), the
    witness is None, as in the all-pairs scan.
    """
    lo, hi = _member_boxes(space, fam)
    k = int(np.argmax(hi.max(axis=1) - lo.min(axis=1)))
    order = np.argsort(lo[k], kind="stable")
    # any point-to-point distance between two members bounds the minimum
    flat, offsets = fam._index
    first = space.points[flat[offsets[:-1][order]]]
    ub = float(_euclid(first[1:, 0] - first[:-1, 0], first[1:, 1] - first[:-1, 1]).min())
    del first
    # unpacked, so the candidates of the rule not taken are freed before measuring
    order, runs, begin, counts = _fewer_pairs(
        _sweep_candidates(lo[k, order], hi[k, order], order, ub), _grid_candidates(lo, hi, ub))

    lo, hi = lo[:, order], hi[:, order]
    best, witness = math.inf, (-1, -1)
    for i, u in _pair_batches(begin, counts, _GAP_PAIRS):
        t = i // runs
        del i
        g = _euclid(*(np.maximum(np.maximum(lo[c, u] - hi[c, t], lo[c, t] - hi[c, u]), 0.0)
                      for c in range(2)))
        near = np.flatnonzero(g <= min(best, ub))
        g, t, u = g[near], t[near], u[near]
        del near  # only the near candidates stay alive while measuring
        a = np.minimum(order[t], order[u])
        b = np.maximum(order[t], order[u])
        wa, wb = witness
        keep = (g < best) | ((g == best) & ((a < wa) | ((a == wa) & (b < wb))))
        g, a, b = g[keep], a[keep], b[keep]
        # one candidate at a time: the loop mostly stops after the first few
        for s in np.lexsort((b, a, g)):
            gi, ai, bi = float(g[s]), int(a[s]), int(b[s])
            if not (gi < best or (gi == best and (ai, bi) < witness)):
                break
            dist = set_distance(space, flat[offsets[ai]:offsets[ai + 1]],
                                flat[offsets[bi]:offsets[bi + 1]])
            if dist < best or (dist == best and (ai, bi) < witness):
                best, witness = dist, (ai, bi)
    return best, (witness if best < math.inf else None)


def _fewer_pairs(sweep: _Candidates, grid: _Candidates) -> _Candidates:
    """The grid's candidates where they are fewer than the sweep's, else the sweep's."""
    return grid if grid.pairs < sweep.pairs else sweep


def _sweep_candidates(key: np.ndarray, edge: np.ndarray, order: np.ndarray,
                      ub: float) -> _Candidates:
    """Pairs whose extents on the sweep axis come within ub.

    Members are in ``order``, sorted by the low edge ``key`` of their boxes
    on the family's longer axis; ``edge`` is the high edge. Row t pairs
    with every later member whose low edge is within ub of its high edge.
    """
    reach = edge + _widen(ub, np.abs(edge) + ub)
    begin = np.arange(1, key.size + 1)
    counts = np.maximum(np.searchsorted(key, reach, side="right") - begin, 0)
    return _Candidates(order, 1, begin, counts)


def _grid_candidates(lo: np.ndarray, hi: np.ndarray, ub: float) -> _Candidates:
    """Pairs whose box low corners lie in one cell or in neighbouring cells of a bucket grid.

    The cell side is at least the largest member extent plus ub, with
    rounding slack, so two boxes within ub of each other have low corners
    at most one cell apart on each axis. Members are bucketed by cell in
    row-major order. Row p pairs with two runs: the later members of its
    own cell and of the cell to its right, and the members of the three
    cells above. So each pair is a candidate once.
    """
    extent = float((hi - lo).max())
    scale = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
    side = _widen(extent + ub, scale + extent + ub)
    grid = _TargetGrid(lo.T, side)
    order, offs, _ = grid.buckets()
    nx, last = grid.nx, grid.nx * grid.ny
    cell = np.repeat(np.arange(last), np.diff(offs))  # row-major id, in bucket order
    cx = cell % nx
    right = cx + 1 < nx
    begin = np.empty(2 * order.size, dtype=np.intp)
    counts = np.empty_like(begin)
    begin[0::2] = np.arange(1, order.size + 1)
    counts[0::2] = offs[cell + 1 + right] - begin[0::2]
    # above the top row the indices clamp to the end: an empty run
    begin[1::2] = offs[np.minimum(cell + nx - (cx > 0), last)]
    counts[1::2] = offs[np.minimum(cell + nx + 1 + right, last)] - begin[1::2]
    return _Candidates(order, 2, begin, counts)


def _check_ambient(fam: SubsetFamily, n: int) -> None:
    """Raise IndexOutOfRange(i, n) for the first member holding an index at or past n.

    i is that member's largest index, as ``SubsetRef(member, n)`` names it.
    """
    flat, offsets = fam._index
    if flat.size and flat.max() >= n:
        tops = np.maximum.reduceat(flat, offsets[:-1])
        raise IndexOutOfRange(int(tops[np.argmax(tops >= n)]), n)


def check_r_disjoint(space: MetricLike, fam: SubsetFamily, r: float,
                     strict: bool = False) -> DisjointnessReport:
    """Verify pairwise member gaps against r.

    Strict mode requires gap > r; non-strict requires gap >= r - DEFAULT_TOL.
    """
    _check_separation(r)
    _check_ambient(fam, space.n)
    gap, witness = _family_min_gap(space, fam)
    ok = gap > r if strict else gap >= r - DEFAULT_TOL
    return DisjointnessReport(ok=ok, min_gap=gap, witness=witness, r=r, strict=strict)


def _check_separation(r: float) -> None:
    """Raise ValueError unless the separation r is finite and at least 0."""
    if not 0.0 <= r < math.inf:  # nan too
        raise ValueError(f"separation r must be finite and at least 0, got {r!r}")


def check_uniform_bound(space: MetricLike, fam: SubsetFamily) -> float:
    """Largest member diameter (the measured uniform bound C).

    The same bits as ``max(diam(space, m) for m in fam.members)``, 0 for an
    empty family, measured for the whole family at once.
    """
    _check_ambient(fam, space.n)
    flat, offsets = fam._index
    sizes = np.diff(offsets)
    multi = sizes > 1  # singletons have diameter 0
    if not multi.any():
        return 0.0
    if not multi.all():  # the members of two or more points, as one family's index
        sizes = sizes[multi]
        flat = flat[_ragged(offsets[:-1][multi], sizes)]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
    if not isinstance(space, EuclideanPointSet):
        # the entries of diam's block scan: every ordered pair of a member
        owner = np.repeat(np.arange(sizes.size), sizes)
        return _pair_max(lambda i, j: space.matrix[flat[i], flat[j]], offsets[owner], sizes[owner])
    x, y, owner = _diam_candidates(space.points, flat, offsets)
    rows = np.arange(x.size)
    end = np.searchsorted(owner, owner, side="right")
    return _pair_max(lambda i, j: _euclid(x[i] - x[j], y[i] - y[j]), rows + 1, end - rows - 1)


def _diam_candidates(points: np.ndarray, flat: np.ndarray,
                     offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points of members flat[offsets[k]:offsets[k + 1]] that can attain the largest diameter.

    Returns their x, their y and their members' positions k, grouped by
    member. Members are read in the groups of ``_member_columns``, as for
    bounding boxes, and each is first cut to the endpoints of its chains. A
    chain is a run of consecutive member points whose x is equal bit for bit
    and whose y strictly increases. For a fixed point p, fl(px - qx) is the
    same at every q of a chain, and |fl(py - qy)| falls and then rises along
    it, as rounding is monotone; so p's largest computed distance to the
    chain is at an endpoint, and the largest diameter is attained between
    endpoints. The chains come from the coordinates alone, whatever built
    the space. A chain's endpoints hold its box and its extreme points too.

    In each group, the member with the longest box diagonal gives a lower
    bound lb: the largest distance between two of its extreme points (min
    and max of x, y, x+y, x-y). The block scan computes that same distance,
    so the family's largest diameter is at least lb. An endpoint is dropped
    when its distance to the farthest corner of its member's bounding box is
    strictly below lb. Rounding is monotone, so each of its computed
    distances within the member is at most that corner distance: no pair
    with a dropped point reaches lb.
    """
    lb = 0.0
    kept: list[tuple[np.ndarray, ...]] = []
    a, b = np.triu_indices(8, 1)
    for grp, first, px, py in _member_columns(points, flat, offsets):
        # link t joins points t and t + 1 of one member into a chain
        link = (px[1:].view(np.int64) == px[:-1].view(np.int64)) & (py[1:] > py[:-1])
        link[first[1:] - 1] = False
        is_end = np.ones(px.size, dtype=bool)
        is_end[1:-1] = ~(link[:-1] & link[1:])
        # a member's first point is an endpoint, so every member keeps one
        counts = np.add.reduceat(is_end, first, dtype=np.intp)
        at = np.flatnonzero(is_end)
        px, py = px[at], py[at]
        own = np.repeat(np.arange(counts.size), counts)
        seg = np.cumsum(counts) - counts
        xlo, xhi = np.minimum.reduceat(px, seg), np.maximum.reduceat(px, seg)
        ylo, yhi = np.minimum.reduceat(py, seg), np.maximum.reduceat(py, seg)
        k = int(np.argmax(_euclid(xhi - xlo, yhi - ylo)))
        qx, qy = px[seg[k]:seg[k] + counts[k]], py[seg[k]:seg[k] + counts[k]]
        projs = (qx, qy, qx + qy, qx - qy)
        ext = np.array([v.argmin() for v in projs] + [v.argmax() for v in projs])
        ex, ey = qx[ext], qy[ext]
        lb = max(lb, float(_euclid(ex[a] - ex[b], ey[a] - ey[b]).max()))
        far = _euclid(np.maximum(px - xlo[own], xhi[own] - px),
                      np.maximum(py - ylo[own], yhi[own] - py))
        keep = far >= lb
        kept.append((px[keep], py[keep], own[keep] + grp.start, far[keep]))
    x, y, owner, far = (np.concatenate(col) for col in zip(*kept))
    keep = far >= lb  # lb has grown since earlier groups were filtered
    return x[keep], y[keep], owner[keep]


def _pair_max(dist: Callable[[np.ndarray, np.ndarray], np.ndarray],
              begin: np.ndarray, counts: np.ndarray) -> float:
    """Largest dist(i, j) over rows i and j in [begin[i], begin[i] + counts[i]); 0.0 if none.

    Pairs are made _DIAM_PAIRS at a time (``_pair_batches``).
    """
    worst = 0.0
    for i, j in _pair_batches(begin, counts, _DIAM_PAIRS):
        worst = max(worst, float(dist(i, j).max()))
    return worst


def _pair_batches(begin: np.ndarray, counts: np.ndarray,
                  cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row i paired with each of begin[i] + [0, counts[i]), cap pairs at a time.

    Pairs are numbered row after row; each batch is its rows and partners.
    No batch holds more than cap pairs, however long a row is.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    for g0 in range(0, total, cap):
        g1 = min(g0 + cap, total)
        # rows r0 .. r1 - 1 hold pairs g0 .. g1 - 1, each its share of them
        r0, r1 = np.searchsorted(ends, [g0, g1 - 1], side="right") + [0, 1]
        first = ends[r0:r1] - counts[r0:r1]  # the number of each row's first pair
        share = np.minimum(ends[r0:r1], g1) - np.maximum(first, g0)
        partner = np.repeat(begin[r0:r1] - first, share)
        partner += np.arange(g0, g1)
        yield np.repeat(np.arange(r0, r1), share), partner


def check_cover(space: MetricLike, families: Sequence[SubsetFamily],
                target: SubsetRef | Iterable[int]) -> CoverReport:
    return _coverage(space.n, families, as_subset(target, space.n))[0]


def multiplicity(space: MetricLike, families: Sequence[SubsetFamily],
                 target: SubsetRef | Iterable[int]) -> int:
    """Largest number of members containing a single target point."""
    return _coverage(space.n, families, as_subset(target, space.n))[1]


def _coverage(n: int, families: Sequence[SubsetFamily],
              tgt: SubsetRef | None) -> tuple[CoverReport, int]:
    """The uncovered target points and the most members on one, from one bincount.

    A target of None is every point.
    """
    for fam in families:
        _check_ambient(fam, n)
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + [fam._index[0] for fam in families])
    counts = np.bincount(flat, minlength=n)
    if tgt is None:
        uncovered = np.flatnonzero(counts == 0)
    else:
        counts = counts[tgt.array]
        uncovered = tgt.array[counts == 0]
    return CoverReport(ok=not uncovered.size, uncovered=tuple(uncovered.tolist())), int(counts.max())


def inspect_cover(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                  strict: bool = False,
                  target: SubsetRef | Iterable[int] | None = None) -> CoverInspection:
    """Measure every certificate condition once, raising on none of them.

    Per family: the min gap and its witness against r (``check_r_disjoint``)
    and the largest member diameter (``check_uniform_bound``). For the
    target (default: every point): the uncovered points and the largest
    number of members containing one point, from one ``bincount``.
    """
    _check_separation(r)
    fams = tuple(families)
    tgt = as_subset(target, space.n) if target is not None else None
    if tgt is not None and len(tgt) == space.n:  # n points in [0, n) are every point
        tgt = None
    measured = tuple(FamilyInspection(fam.label, len(fam),
                                      check_r_disjoint(space, fam, r, strict),
                                      check_uniform_bound(space, fam)) for fam in fams)
    return CoverInspection(measured, space.n if tgt is None else len(tgt),
                           *_coverage(space.n, fams, tgt), given_target=tgt)


def _duplicate_members(fam: SubsetFamily) -> tuple[int, int] | None:
    """The first member equal to an earlier one, as (earlier, later) positions, or None.

    Only members that start at the same index can be equal, so only those
    are compared, in position order.
    """
    flat, offsets = fam._index
    first = flat[offsets[:-1]]
    order = np.argsort(first, kind="stable")
    shared = np.zeros(first.size, dtype=bool)
    same = first[order[1:]] == first[order[:-1]]
    shared[order[1:][same]] = shared[order[:-1][same]] = True
    seen: dict[bytes, int] = {}
    for pos in np.flatnonzero(shared).tolist():
        mem = flat[offsets[pos]:offsets[pos + 1]].tobytes()
        if mem in seen:
            return seen[mem], pos
        seen[mem] = pos
    return None


def make_certificate(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                     strict: bool = False,
                     target: SubsetRef | Iterable[int] | None = None) -> CoverCertificate:
    """Run disjointness, boundedness, and coverage checks; package the result.

    C is set to the measured maximum member diameter. Raises a structured
    error naming the violated condition and its witness: an index outside
    the space first, then a duplicated member, then the first family whose
    gap fails, then coverage.
    """
    _check_separation(r)
    fams = tuple(families)
    if not fams:
        raise EmptyFamilyList("certificate needs at least one family")
    for fam in fams:
        _check_ambient(fam, space.n)
    for fam in fams:
        pair = _duplicate_members(fam)
        if pair is not None:
            raise NotDisjoint(fam.label, pair, 0.0, r)
    found = inspect_cover(space, fams, r, strict, target)
    for fam in found.families:
        if not fam.disjoint.ok:
            raise NotDisjoint(fam.label, fam.disjoint.witness, fam.disjoint.min_gap, r)
    if not found.cover.ok:
        raise NotCovering(found.cover.uncovered)
    return CoverCertificate(families=fams, r=r, c=found.c, strict=strict,
                            target_size=found.target_size, min_gap=found.min_gap,
                            given_target=found.given_target)


# ---------------------------------------------------------------------------
# the lower-bound engine


@dataclass(frozen=True)
class BoundResult:
    bound: float
    trace: tuple[str, ...]


def gh_lower_bound(cert: CoverCertificate, model: ModelSpaceDescriptor) -> BoundResult:
    """Emit the certified GH lower bound min(r, measured gap)/2 against an infinite model space.

    Gates: the certificate's family count k must satisfy k <= n for the
    model's dimension lower bound n, and the model's scaling stabilizer must
    be nontrivial. The emitted bound concerns the infinite model space, not
    any finite window. A non-strict certificate may accept a measured gap
    up to DEFAULT_TOL below r; the bound then uses the measured gap.
    """
    k, n = cert.k, model.asdim_lower
    if k > n:
        raise TooManyFamilies(k, n)
    if not model.stabilizer_nontrivial:
        raise TrivialStabilizer(model.name)
    mode = "strict (> r)" if cert.strict else "non-strict (>= r)"
    gap = "inf" if math.isinf(cert.min_gap) else f"{cert.min_gap:.17g}"
    short = cert.min_gap < cert.r
    bound = (cert.min_gap if short else cert.r) / 2.0
    trace = (
        f"certificate: k={k} families, separation r={cert.r:.17g} [{mode}], "
        f"measured min gap {gap}, uniform diameter bound C={cert.c:.17g}, "
        f"target of {cert.target_size} points covered",
        f"model space {model.name}: asymptotic dimension >= {n}, scaling stabilizer nontrivial",
        f"provenance: {model.provenance}",
        f"gate: k={k} <= n={n} and stabilizer nontrivial -- bound applies",
        "any correspondence of distortion below r would push the families to "
        "a positively separated uniformly bounded cover of the model space; "
        "rescaling that cover through the stabilizer at every scale would force "
        f"its asymptotic dimension below {k}, which is impossible for n >= {k}",
        f"conclusion: GH distance between the covered space and {model.name} "
        f"is at least {'(measured gap)/2' if short else 'r/2'} = {bound:.17g} "
        "(a statement about the infinite model space, reproduced here on finite windows)",
    )
    if short:
        trace = trace + (
            f"non-strict mode with tolerance {DEFAULT_TOL!r}: the measured gap "
            f"{gap} is {cert.r - cert.min_gap:.3g} below r, so the families are "
            "separated only by the measured gap, and the bound uses it in place of r",
        )
    elif not cert.strict:
        trace = trace + (
            "non-strict mode: the measured gap attains r exactly; the strict "
            "hypothesis holds for every r' < r, and sup of r'/2 over r' < r "
            "equals r/2, so the emitted bound is unchanged",
        )
    return BoundResult(bound=bound, trace=trace)


# ---------------------------------------------------------------------------
# proof-step machinery: pushforward of families


def pushforward_family(rel: Correspondence, fam: SubsetFamily,
                       target_space: MetricLike) -> tuple[SubsetFamily, PushforwardReport]:
    """Member-wise image of a family under a correspondence, with measured bounds.

    The report carries the images' max diameter and min gap so callers can
    check them against (source C + distortion) and (source r - distortion).
    """
    if not isinstance(rel, Correspondence):
        raise NotACorrespondence("family pushforward requires a correspondence")
    images = SubsetFamily(fam.label, tuple(pushforward(rel, mem) for mem in fam.members))
    gap, _ = _family_min_gap(target_space, images)
    return images, PushforwardReport(max_diam=check_uniform_bound(target_space, images),
                                     min_gap=gap)

