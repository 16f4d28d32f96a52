"""r-disjoint uniformly bounded families, cover certificates, and GH lower bounds.

A verified certificate (k families, separation r, diameter bound C, covered
target) entitles a lower bound of min(r, measured gap)/2 on the GH distance
to any model space whose asymptotic dimension is at least k and whose
scaling stabilizer is nontrivial. Model-space facts are axioms in a
read-only registry; they are not computable from finite windows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .correspondence import Correspondence, pushforward
from .errors import (
    EmptyFamilyList,
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
    as_subset,
    diam,
    scale_points,
    set_distance,
)


@dataclass(frozen=True)
class SubsetFamily:
    """A labeled list of nonempty subsets of one ambient space.

    Members are expected to be pairwise distinct; duplicated members measure
    a gap of 0 and therefore fail every disjointness check, so certificates
    cannot contain them. Pushforward images, however, may legitimately
    coincide and are kept as-is.
    """

    label: str
    members: tuple[SubsetRef, ...]

    @staticmethod
    def of(label: str, members: Iterable[Iterable[int]], n: int | None = None) -> "SubsetFamily":
        return SubsetFamily(label, tuple(as_subset(m, n) for m in members))

    def __len__(self) -> int:
        return len(self.members)


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


def _family_min_gap(space: MetricLike, fam: SubsetFamily) -> tuple[float, tuple[int, int] | None]:
    """Smallest gap between distinct members and its lexicographically first witness."""
    m = len(fam.members)
    if m < 2:
        return math.inf, None
    best = math.inf
    witness: tuple[int, int] | None = None
    if isinstance(space, EuclideanPointSet):
        # axis-aligned bounding boxes lower-bound the true gap, so pairs at
        # box distance >= best cannot improve the minimum and are skipped
        lo = np.empty((m, 2))
        hi = np.empty((m, 2))
        for t, mem in enumerate(fam.members):
            pts = space.points[np.fromiter(mem.indices, dtype=np.intp)]
            lo[t] = pts.min(axis=0)
            hi[t] = pts.max(axis=0)
        for a in range(m - 1):
            g = np.maximum(0.0, np.maximum(lo[a] - hi[a + 1:], lo[a + 1:] - hi[a]))
            row = np.hypot(g[:, 0], g[:, 1])
            for off in np.nonzero(row < best)[0]:
                if row[off] >= best:
                    continue
                b = a + 1 + int(off)
                d = set_distance(space, fam.members[a], fam.members[b])
                if d < best:
                    best, witness = d, (a, b)
        return best, witness
    for a in range(m - 1):
        for b in range(a + 1, m):
            d = set_distance(space, fam.members[a], fam.members[b])
            if d < best:
                best, witness = d, (a, b)
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
    """Largest member diameter (the measured uniform bound C)."""
    return max((diam(space, mem) for mem in fam.members), default=0.0)


def check_cover(space: MetricLike, families: Sequence[SubsetFamily],
                target: SubsetRef | Iterable[int]) -> CoverReport:
    tgt = as_subset(target, space.n)
    covered = set()
    for fam in families:
        for mem in fam.members:
            covered.update(mem.indices)
    uncovered = tuple(i for i in tgt.indices if i not in covered)
    return CoverReport(ok=not uncovered, uncovered=uncovered)


def multiplicity(space: MetricLike, families: Sequence[SubsetFamily],
                 target: SubsetRef | Iterable[int]) -> int:
    """Largest number of members containing a single target point."""
    tgt = as_subset(target, space.n)
    counts = np.zeros(space.n, dtype=np.int64)
    for fam in families:
        for mem in fam.members:
            counts[np.fromiter(mem.indices, dtype=np.intp)] += 1
    return int(counts[np.fromiter(tgt.indices, dtype=np.intp)].max())


def make_certificate(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                     strict: bool = False, target: SubsetRef | Iterable[int] | None = None,
                     tolerance: float = DEFAULT_TOL) -> CoverCertificate:
    """Run disjointness, boundedness, and coverage checks; package the result.

    C is set to the measured maximum member diameter. Raises a structured
    error naming the violated condition and its witness.
    """
    fams = tuple(families)
    if not fams:
        raise EmptyFamilyList("certificate needs at least one family")
    for fam in fams:
        seen: dict[tuple[int, ...], int] = {}
        for pos, mem in enumerate(fam.members):
            if mem.indices in seen:
                raise NotDisjoint(fam.label, (seen[mem.indices], pos), 0.0, r)
            seen[mem.indices] = pos
    tgt = as_subset(target if target is not None else range(space.n), space.n)

    min_gap = math.inf
    for fam in fams:
        rep = check_r_disjoint(space, fam, r, strict, tolerance)
        if not rep.ok:
            assert rep.witness is not None
            raise NotDisjoint(fam.label, rep.witness, rep.min_gap, r)
        min_gap = min(min_gap, rep.min_gap)

    cov = check_cover(space, fams, tgt)
    if not cov.ok:
        raise NotCovering(cov.uncovered)

    c = max(check_uniform_bound(space, fam) for fam in fams)
    return CoverCertificate(space=space, families=fams, r=r, c=c, strict=strict,
                            target=tgt, min_gap=min_gap, tolerance=tolerance)


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
# proof-step machinery: pushforward and scaling of families


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
    max_diam = max((diam(target_space, mem) for mem in images.members), default=0.0)
    return images, PushforwardReport(max_diam=max_diam, min_gap=gap)


def scale_family(pts: EuclideanPointSet, fams: Sequence[SubsetFamily],
                 lam: float) -> tuple[EuclideanPointSet, tuple[SubsetFamily, ...]]:
    """Scale the ambient coordinates by lam; families carry over by index.

    Gaps and diameters of every family scale by exactly lam (up to fp).
    """
    return scale_points(pts, lam), tuple(fams)
