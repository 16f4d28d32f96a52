"""Exception types raised across the toolkit.

Every validation error carries the witnessing indices/values so callers
(and tests) can verify the reported violation independently.
"""

from __future__ import annotations


class GhBoundsError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# metric construction


class NotSymmetric(GhBoundsError):
    def __init__(self, i: int, j: int, dij: float, dji: float):
        self.i, self.j, self.dij, self.dji = i, j, dij, dji
        super().__init__(f"matrix not symmetric at ({i},{j}): {dij} != {dji}")


class NegativeEntry(GhBoundsError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"negative entry at ({i},{j}): {value}")


class NonzeroDiagonal(GhBoundsError):
    def __init__(self, i: int, value: float):
        self.i, self.value = i, value
        super().__init__(f"diagonal entry at ({i},{i}) is {value}, expected 0")


class ZeroOffDiagonal(GhBoundsError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"off-diagonal entry at ({i},{j}) is 0; points must be distinct")


class TriangleViolation(GhBoundsError):
    """d(i,k) > d(i,j) + d(j,k) beyond tolerance."""

    def __init__(self, i: int, j: int, k: int, dik: float, dij: float, djk: float):
        self.i, self.j, self.k = i, j, k
        self.dik, self.dij, self.djk = dik, dij, djk
        super().__init__(
            f"triangle inequality fails at ({i},{j},{k}): "
            f"d({i},{k})={dik} > d({i},{j})+d({j},{k})={dij + djk}"
        )


class DuplicatePoint(GhBoundsError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"points {i} and {j} coincide")


# ---------------------------------------------------------------------------
# subsets and relations


class EmptySubset(GhBoundsError):
    pass


class IndexOutOfRange(GhBoundsError):
    def __init__(self, index: int, n: int):
        self.index, self.n = index, n
        super().__init__(f"index {index} out of range for ambient of size {n}")


class EmptyRelation(GhBoundsError):
    pass


class EmptyImage(GhBoundsError):
    """A subset met no pair of the relation, so its pushforward is empty."""


class NotACorrespondence(GhBoundsError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


# ---------------------------------------------------------------------------
# covers and certificates


class EmptyFamilyList(GhBoundsError):
    pass


class NotDisjoint(GhBoundsError):
    def __init__(self, family: str, pair: tuple[int, int], gap: float, r: float):
        self.family, self.pair, self.gap, self.r = family, pair, gap, r
        super().__init__(
            f"family {family!r}: members {pair[0]} and {pair[1]} are at gap {gap}, "
            f"not r-disjoint for r={r}"
        )


class NotCovering(GhBoundsError):
    def __init__(self, uncovered: tuple[int, ...]):
        self.uncovered = uncovered
        super().__init__(f"{len(uncovered)} target indices uncovered, first: {uncovered[:10]}")


class TooManyFamilies(GhBoundsError):
    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        super().__init__(f"certificate has k={k} families but model dimension lower bound is n={n}; "
                         f"the bound requires k <= n")


class TrivialStabilizer(GhBoundsError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"model space {name!r} has trivial scaling stabilizer; no bound emitted")


class UnknownModelSpace(GhBoundsError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown model space {name!r}: model spaces are named R<n>, n >= 1")


# ---------------------------------------------------------------------------
# generators


class NonpositiveLambda(GhBoundsError):
    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"scale factor must be positive and finite, got {lam}")


class EmptyWindow(GhBoundsError):
    pass


class TooManyPoints(GhBoundsError):
    def __init__(self, count: int, cap: int):
        self.count, self.cap = count, cap
        super().__init__(f"generator would emit {count} points, cap is {cap}")


class SpaceTooLarge(TooManyPoints):
    def __init__(self, kind: str, count: int, cap: int):
        self.kind, self.count, self.cap = kind, count, cap
        GhBoundsError.__init__(self, f"{kind} space lists {count} points, cap is {cap}")


class NonIntegerPoint(GhBoundsError):
    def __init__(self, index: int, xy: tuple[float, float]):
        self.index, self.xy = index, xy
        super().__init__(f"point {index} at {xy} is not an integer lattice point")


class DeltaNotDividingOne(GhBoundsError):
    def __init__(self, delta: float):
        self.delta = delta
        super().__init__(f"sample spacing {delta} must divide 1")


class HTooSmall(GhBoundsError):
    def __init__(self, h: float, minimum: float):
        self.h, self.minimum = h, minimum
        super().__init__(f"piece height {h} below minimum {minimum}; "
                         f"crossing-to-adjacent-column separation would drop under 1")


class LTooSmall(GhBoundsError):
    def __init__(self, L: float, r: float):
        self.L, self.r = L, r
        super().__init__(f"tile size {L} must be at least 2*r = {2 * r}")


class NonEuclideanAmbient(GhBoundsError):
    pass
