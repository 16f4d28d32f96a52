"""r-disjoint uniformly bounded families, cover certificates, and GH lower bounds.

A verified certificate (k families, separation r, diameter bound C, covered
target) entitles a lower bound of min(r, measured gap)/2 on the GH distance
to any model space whose asymptotic dimension is at least k and whose
scaling stabilizer is nontrivial. Model-space facts are axioms in a
read-only registry; they are not computable from finite windows.

Every check of a cover is measured in one inspection pass,
``inspect_cover``: each family's min gap and witness, each family's largest
member diameter, and the target's coverage and multiplicity from one
``bincount``. ``make_certificate`` raises on what it finds and the CLI's
``verify-cover`` reports it.

A family is one read-only int64 index array plus member offsets.
Generated and loaded families hold only those arrays; the tuple of
``SubsetRef`` members is built on first read of ``members``. The checks
never read it: the duplicate-member check compares only members that start
at the same index, and the gap search fetches only the members it passes to
``set_distance``.

On planar sets the family gap search sorts the members' bounding boxes
along the family's longer axis and sweeps them, measuring only pairs whose
boxes come within the best gap so far; it returns the same bits and the
same witness as the all-pairs scan that matrix spaces use. The largest
diameter measures only the points that can attain it: a point whose
distance to the farthest corner of its member's bounding box is below a
distance already measured between two extreme points of some member is
dropped, and the pairs of the rest are scanned in batches. By monotone
rounding the result is the same bits as the block scan of ``diam``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

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
    _batches,
    _checked_runs,
    _euclid,
    _int_runs,
    _ragged,
    _run_lists,
    _subsets_at,
    _trusted_subset,
    as_subset,
    set_distance,
)


class SubsetFamily:
    """A labeled list of nonempty subsets of one ambient space.

    Members are expected to be pairwise distinct; duplicated members measure
    a gap of 0 and therefore fail every disjointness check, so certificates
    cannot contain them. Pushforward images, however, may legitimately
    coincide and are kept as-is.

    A family holds its members as one read-only int64 index array plus
    member offsets (``_index``); generated and loaded families are built
    from those arrays alone. ``members``, the tuple of ``SubsetRef``, is
    built on first read and kept. Equality and hashing are by (label,
    members), and families are immutable.
    """

    label: str

    def __init__(self, label: str, members: tuple[SubsetRef, ...]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "members", members)

    @staticmethod
    def of(label: str, members: Iterable[Iterable[int]], n: int | None = None) -> "SubsetFamily":
        return SubsetFamily(label, tuple(as_subset(m, n) for m in members))

    @staticmethod
    def _from_index(label: str, flat: np.ndarray, counts: np.ndarray) -> "SubsetFamily":
        """The family whose member k is the run of counts[k] entries of flat, trusted to rise."""
        fam = object.__new__(SubsetFamily)
        object.__setattr__(fam, "label", label)
        object.__setattr__(fam, "_index", _index_arrays(flat, counts))
        return fam

    @cached_property
    def members(self) -> tuple[SubsetRef, ...]:
        return _subsets_at(*self._index)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, offsets), read-only int64: member k is flat[offsets[k]:offsets[k + 1]]."""
        counts = np.fromiter(map(len, self.members), dtype=np.int64, count=len(self.members))
        flat = np.fromiter(itertools.chain.from_iterable(mem.indices for mem in self.members),
                           dtype=np.int64, count=int(counts.sum()))
        return _index_arrays(flat, counts)

    def _member(self, k: int) -> SubsetRef:
        """Member k, without building the others."""
        flat, offsets = self._index
        return _trusted_subset(tuple(flat[offsets[k]:offsets[k + 1]].tolist()))

    def _runs(self) -> list[list[int]]:
        """Each member's indices as a list of ints, without building the tuple of members."""
        return _run_lists(*self._index)

    def __len__(self) -> int:
        return self._index[1].size - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsetFamily):
            return NotImplemented
        # members are nonempty and strictly increasing, so equal arrays mean equal members
        return self.label == other.label and all(
            np.array_equal(x, y) for x, y in zip(self._index, other._index))

    def __hash__(self) -> int:
        return hash((self.label, self.members))

    def __repr__(self) -> str:
        return f"SubsetFamily(label={self.label!r}, members={self.members!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _index_arrays(flat: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = flat.astype(np.int64, copy=False).view()
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat.setflags(write=False)
    offsets.setflags(write=False)
    return flat, offsets


def _family_from_runs(label: str, flat: np.ndarray, counts: np.ndarray,
                      n: int | None = None) -> SubsetFamily:
    """``SubsetFamily(label, _subsets_from_runs(flat, counts, n))``, kept as arrays."""
    return SubsetFamily._from_index(label, *_checked_runs(flat, counts, n))


def _family_from_lists(label: str, members: Sequence[Iterable[int]],
                       n: int | None = None) -> SubsetFamily:
    """``SubsetFamily.of(label, members, n)``, validated in one pass where members are int64."""
    runs = _int_runs(members)
    if runs is None:
        return SubsetFamily.of(label, members, n)
    return _family_from_runs(label, *runs, n)


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
    target: SubsetRef
    cover: CoverReport
    multiplicity: int

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

MODEL_SPACES: dict[str, ModelSpaceDescriptor] = {
    f"R{n}": ModelSpaceDescriptor(f"R{n}", n, True, _RN_PROVENANCE.format(n=n))
    for n in (1, 2, 3)
}


def model_space(name: str) -> ModelSpaceDescriptor:
    """Look up a model space; accepts any 'R<n>' plus the seeded entries."""
    if name in MODEL_SPACES:
        return MODEL_SPACES[name]
    m = re.fullmatch(r"R(\d+)", name)
    if m:
        n = int(m.group(1))
        if n >= 1:
            return ModelSpaceDescriptor(name, n, True, _RN_PROVENANCE.format(n=n))
    raise UnknownModelSpace(name)


@dataclass(frozen=True)
class CoverCertificate:
    """Verified package: families, separation r, diameter bound C, covered target."""

    space: MetricLike
    families: tuple[SubsetFamily, ...]
    r: float
    c: float
    strict: bool
    target: SubsetRef
    min_gap: float
    tolerance: float = DEFAULT_TOL

    @property
    def k(self) -> int:
        return len(self.families)


# ---------------------------------------------------------------------------
# checks


# member pairs per sweep batch, which keeps about a dozen arrays per pair,
# and the sweep rows whose windows one batch measures to fill it
_SWEEP_PAIRS = 4096
_SWEEP_ROWS = 256
# member points gathered at once to build bounding boxes
_BOX_POINTS = 16384
# within-member point pairs per diameter batch
_DIAM_PAIRS = 65536
# the sweep window reaches past the threshold by thousands of ulps of its
# coordinates, and by at least a gap whose square does not underflow, so
# rounding never drops a pair whose box gap is at most the threshold
_SWEEP_SLACK = 2.0 ** -40
_SWEEP_FLOOR = 2.0 ** -500


def _family_min_gap(space: MetricLike, fam: SubsetFamily) -> tuple[float, tuple[int, int] | None]:
    """Smallest gap between distinct members and its lexicographically first witness."""
    m = len(fam)
    if m < 2:
        return math.inf, None
    if isinstance(space, EuclideanPointSet):
        return _sweep_min_gap(space, fam)
    members = [fam._member(k) for k in range(m)]
    best = math.inf
    witness: tuple[int, int] | None = None
    for a in range(m - 1):
        for b in range(a + 1, m):
            d = set_distance(space, members[a], members[b])
            if d < best:
                best, witness = d, (a, b)
    return best, witness


def _member_boxes(space: EuclideanPointSet, fam: SubsetFamily) -> tuple[np.ndarray, np.ndarray]:
    """Low and high corners of every member's bounding box, as (2, m) arrays.

    Members are gathered in groups of a few thousand points, so a family
    over a large net never holds a copy of all its points at once.
    """
    flat, offsets = fam._index
    sizes = np.diff(offsets)
    lo, hi = np.empty((2, sizes.size)), np.empty((2, sizes.size))
    for grp in _batches(sizes, _BOX_POINTS):
        idx = flat[offsets[grp.start]:offsets[grp.stop]]
        starts = offsets[grp] - offsets[grp.start]
        for c in range(2):
            col = space.points[idx, c]
            lo[c, grp] = np.minimum.reduceat(col, starts)
            hi[c, grp] = np.maximum.reduceat(col, starts)
    return lo, hi


def _sweep_min_gap(space: EuclideanPointSet, fam: SubsetFamily) -> tuple[float, tuple[int, int]]:
    """The all-pairs minimum and witness of ``_family_min_gap``, by sort and sweep.

    Members are sorted by the low edge of their bounding box along the
    family's longer axis. Only pairs whose extents on that axis come within
    the threshold -- the best gap so far, or a true distance between two
    sweep-adjacent members if smaller -- are generated, in batches. Box gaps
    use the distance expression of the points, so by monotone rounding they
    never exceed the measured gap of any cross pair. ``set_distance`` runs
    only on pairs whose box gap could still beat the best (gap, a, b), in
    ascending (box gap, a, b) order.
    """
    m = len(fam)
    lo, hi = _member_boxes(space, fam)
    k = int(np.argmax(hi.max(axis=1) - lo.min(axis=1)))
    order = np.argsort(lo[k], kind="stable")
    # sweep axis k and cross axis j, in sweep order; along k, lo never
    # decreases, so a pair's box gap on k is key[u] - hik[t] or 0
    key, hik, loj, hij = lo[k, order], hi[k, order], lo[1 - k, order], hi[1 - k, order]
    # any point-to-point distance between two members bounds the minimum
    flat, offsets = fam._index
    first = space.points[flat[offsets[:-1][order]]]
    ub = float(_euclid(first[1:, 0] - first[:-1, 0], first[1:, 1] - first[:-1, 1]).min())

    best, witness = math.inf, (-1, -1)
    t, u = 0, 1  # the next pair to generate, as sorted positions t < u
    while t < m - 1:
        stop = min(t + _SWEEP_ROWS, m - 1)
        edge, thr = hik[t:stop], min(best, ub)
        reach = edge + thr + (_SWEEP_SLACK * (np.abs(edge) + thr) + _SWEEP_FLOOR)
        begin = np.arange(t + 1, stop + 1)
        begin[0] = u
        counts = np.maximum(np.searchsorted(key, reach, side="right") - begin, 0)
        full = int(np.searchsorted(np.cumsum(counts), _SWEEP_PAIRS, side="right"))
        if full:
            begin, counts = begin[:full], counts[:full]
            t0, t, u = t, t + full, t + full + 1
        else:  # row t alone overflows a batch: take the next part of it
            begin, counts = begin[:1], np.array([_SWEEP_PAIRS])
            t0, u = t, u + _SWEEP_PAIRS
        pu, pt = _ragged(begin, counts)
        pt += t0
        g = _euclid(np.maximum(key[pu] - hik[pt], 0.0),
                    np.maximum(np.maximum(loj[pu] - hij[pt], loj[pt] - hij[pu]), 0.0))
        a, b = np.minimum(order[pt], order[pu]), np.maximum(order[pt], order[pu])
        del pu, pt  # only the kept candidates stay alive while measuring
        wa, wb = witness
        keep = (g <= ub) & ((g < best) | ((g == best) & ((a < wa) | ((a == wa) & (b < wb)))))
        g, a, b = g[keep], a[keep], b[keep]
        sel = np.lexsort((b, a, g))
        for gi, ai, bi in zip(g[sel].tolist(), a[sel].tolist(), b[sel].tolist()):
            if not (gi < best or (gi == best and (ai, bi) < witness)):
                break
            dist = set_distance(space, fam._member(ai), fam._member(bi))
            if dist < best or (dist == best and (ai, bi) < witness):
                best, witness = dist, (ai, bi)
    return best, witness


def check_r_disjoint(space: MetricLike, fam: SubsetFamily, r: float,
                     strict: bool = False, tolerance: float = DEFAULT_TOL) -> DisjointnessReport:
    """Verify pairwise member gaps against r.

    Strict mode requires gap > r; non-strict requires gap >= r - tolerance.
    """
    gap, witness = _family_min_gap(space, fam)
    ok = gap > r if strict else gap >= r - tolerance
    return DisjointnessReport(ok=ok, min_gap=gap, witness=witness, r=r, strict=strict)


def check_uniform_bound(space: MetricLike, fam: SubsetFamily) -> float:
    """Largest member diameter (the measured uniform bound C).

    The same bits as ``max(diam(space, m) for m in fam.members)``, 0 for an
    empty family, measured for the whole family at once.
    """
    flat, offsets = fam._index
    if flat.size and flat.max() >= space.n:  # diam's error, for the first member past the ambient
        tops = np.maximum.reduceat(flat, offsets[:-1])
        raise IndexOutOfRange(int(tops[np.argmax(tops >= space.n)]), space.n)
    sizes = np.diff(offsets)
    multi = np.flatnonzero(sizes > 1)  # singletons have diameter 0
    if not multi.size:
        return 0.0
    starts, sizes = offsets[multi], sizes[multi]
    if not isinstance(space, EuclideanPointSet):
        # the entries of diam's block scan: every ordered pair of a member
        pos, owner = _ragged(starts, sizes)
        idx, first = flat[pos], np.cumsum(sizes) - sizes
        return _pair_max(lambda i, j: space.matrix[idx[i], idx[j]], first[owner], sizes[owner])
    idx, owner = _diam_candidates(space.points, flat, starts, sizes)
    x, y = space.points[idx, 0], space.points[idx, 1]
    rows = np.arange(idx.size)
    end = np.searchsorted(owner, owner, side="right")
    return _pair_max(lambda i, j: _euclid(x[i] - x[j], y[i] - y[j]), rows + 1, end - rows - 1)


def _diam_candidates(points: np.ndarray, flat: np.ndarray, starts: np.ndarray,
                     sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points of members flat[starts[k]:starts[k] + sizes[k]] that can attain the largest diameter.

    Returns their indices and their members' positions k, grouped by member.
    Members are gathered in groups of at most _BOX_POINTS points, as for
    bounding boxes. In each group, the member with the longest box diagonal
    gives a lower bound lb: the largest distance between two of its extreme
    points (min and max of x, y, x+y, x-y). The block scan computes that
    same distance, so the family's largest diameter is at least lb. A point
    is dropped when its distance to the farthest corner of its member's
    bounding box is strictly below lb. Rounding is monotone, so each of its
    computed distances within the member is at most that corner distance:
    no pair with a dropped point reaches lb.
    """
    lb = 0.0
    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    a, b = np.triu_indices(8, 1)
    for grp in _batches(sizes, _BOX_POINTS):
        pos, own = _ragged(starts[grp], sizes[grp])
        p = points[flat[pos]]
        seg = np.cumsum(sizes[grp]) - sizes[grp]
        lo, hi = np.minimum.reduceat(p, seg), np.maximum.reduceat(p, seg)
        k = int(np.argmax(_euclid(*(hi - lo).T)))
        q = p[seg[k]:seg[k] + sizes[grp][k]]
        proj = np.column_stack((q, q[:, 0] + q[:, 1], q[:, 0] - q[:, 1]))
        ext = q[np.concatenate((proj.argmin(axis=0), proj.argmax(axis=0)))]
        lb = max(lb, float(_euclid(ext[a, 0] - ext[b, 0], ext[a, 1] - ext[b, 1]).max()))
        far = _euclid(np.maximum(p[:, 0] - lo[own, 0], hi[own, 0] - p[:, 0]),
                      np.maximum(p[:, 1] - lo[own, 1], hi[own, 1] - p[:, 1]))
        keep = far >= lb
        kept.append((flat[pos[keep]], own[keep] + grp.start, far[keep]))
    idx, owner, far = (np.concatenate(col) for col in zip(*kept))
    keep = far >= lb  # lb has grown since earlier groups were filtered
    return idx[keep], owner[keep]


def _pair_max(dist: Callable[[np.ndarray, np.ndarray], np.ndarray],
              begin: np.ndarray, counts: np.ndarray) -> float:
    """Largest dist(i, j) over rows i and j in [begin[i], begin[i] + counts[i]); 0.0 if none.

    Pairs are numbered row after row and generated _DIAM_PAIRS at a time,
    so no batch holds more, however long a row is.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    worst = 0.0
    for g0 in range(0, total, _DIAM_PAIRS):
        g = np.arange(g0, min(g0 + _DIAM_PAIRS, total))
        i = np.searchsorted(ends, g, side="right")
        worst = max(worst, float(dist(i, begin[i] + (g - (ends[i] - counts[i]))).max()))
    return worst


def check_cover(space: MetricLike, families: Sequence[SubsetFamily],
                target: SubsetRef | Iterable[int]) -> CoverReport:
    return _coverage(space.n, families, as_subset(target, space.n))[0]


def multiplicity(space: MetricLike, families: Sequence[SubsetFamily],
                 target: SubsetRef | Iterable[int]) -> int:
    """Largest number of members containing a single target point."""
    return _coverage(space.n, families, as_subset(target, space.n))[1]


def _coverage(n: int, families: Sequence[SubsetFamily], tgt: SubsetRef) -> tuple[CoverReport, int]:
    """The uncovered target points and the most members on one target point, from one bincount."""
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + [fam._index[0] for fam in families])
    # a target of n points in [0, n), sorted and distinct, is every point
    t = (np.arange(n) if len(tgt) == n
         else np.fromiter(tgt.indices, dtype=np.intp, count=len(tgt)))
    counts = np.bincount(flat, minlength=n)[t]
    uncovered = tuple(t[counts == 0].tolist())
    return CoverReport(ok=not uncovered, uncovered=uncovered), int(counts.max())


def inspect_cover(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                  strict: bool = False, target: SubsetRef | Iterable[int] | None = None,
                  tolerance: float = DEFAULT_TOL) -> CoverInspection:
    """Measure every certificate condition once, raising on none of them.

    Per family: the min gap and its witness against r (``check_r_disjoint``)
    and the largest member diameter (``check_uniform_bound``). For the
    target (default: every point): the uncovered points and the largest
    number of members containing one point, from one ``bincount``.
    """
    fams = tuple(families)
    tgt = as_subset(target, space.n) if target is not None else SubsetRef.full(space.n)
    measured = tuple(FamilyInspection(fam.label, len(fam),
                                      check_r_disjoint(space, fam, r, strict, tolerance),
                                      check_uniform_bound(space, fam)) for fam in fams)
    return CoverInspection(measured, tgt, *_coverage(space.n, fams, tgt))


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
    seen: dict[tuple[int, ...], int] = {}
    for pos in np.flatnonzero(shared).tolist():
        mem = fam._member(pos).indices
        if mem in seen:
            return seen[mem], pos
        seen[mem] = pos
    return None


def make_certificate(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                     strict: bool = False, target: SubsetRef | Iterable[int] | None = None,
                     tolerance: float = DEFAULT_TOL) -> CoverCertificate:
    """Run disjointness, boundedness, and coverage checks; package the result.

    C is set to the measured maximum member diameter. Raises a structured
    error naming the violated condition and its witness: a duplicated
    member first, then the first family whose gap fails, then coverage.
    """
    fams = tuple(families)
    if not fams:
        raise EmptyFamilyList("certificate needs at least one family")
    for fam in fams:
        pair = _duplicate_members(fam)
        if pair is not None:
            raise NotDisjoint(fam.label, pair, 0.0, r)
    found = inspect_cover(space, fams, r, strict, target, tolerance)
    for fam in found.families:
        if not fam.disjoint.ok:
            assert fam.disjoint.witness is not None
            raise NotDisjoint(fam.label, fam.disjoint.witness, fam.disjoint.min_gap, r)
    if not found.cover.ok:
        raise NotCovering(found.cover.uncovered)
    return CoverCertificate(space=space, families=fams, r=r, c=found.c, strict=strict,
                            target=found.target, min_gap=found.min_gap, tolerance=tolerance)


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
    up to its tolerance below r; the bound then uses the measured gap.
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
        f"target of {len(cert.target)} points covered",
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
            f"non-strict mode with tolerance {cert.tolerance!r}: the measured gap "
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

