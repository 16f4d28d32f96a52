"""Family checks, certificates, the lower-bound engine, and its gates."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (outcome, random_correspondence, random_metric_matrix, random_space,
                      read_family)
from ghbounds import (DEFAULT_TOL, Correspondence, EuclideanPointSet, Relation, SubsetFamily,
                      WindowSpec, build_space, check_cover, check_r_disjoint,
                      check_uniform_bound, diam, distortion,
                      gen_brick_cover, gen_chess_families, gen_comb_cover, gen_comb_set,
                      gen_lattice_window, gh_lower_bound, induce_space,
                      make_certificate, model_space, multiplicity,
                      pushforward_family, scale_points, set_distance)
from ghbounds import covers
from ghbounds.metric import SubsetRef
from ghbounds.errors import (EmptyFamilyList, IndexOutOfRange, NotACorrespondence, NotCovering,
                             NotDisjoint, TooManyFamilies, TrivialStabilizer,
                             UnknownModelSpace)
from oracles import all_pairs_min_gap, first_duplicate_member

SQRT2 = math.sqrt(2.0)


def chess_setup(n: float = 6.0):
    lat = gen_lattice_window(WindowSpec(0.0, n, 0.0, n))
    red, blue = gen_chess_families(lat)
    return lat, red, blue


def _family_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, list[list[int]]]:
    """Distinct points and members over them (members may overlap or repeat)."""
    n = int(rng.integers(2, 40))
    if kind == "dense":  # hundreds of singletons: the bucket grid's case
        n = int(rng.integers(500, 700))
        side = int(rng.integers(23, 40))
        cells = rng.choice(side * side, size=min(n, side * side), replace=False)
        pts = np.column_stack([cells // side, cells % side]) * rng.choice([0.5, 1.0, 3.0])
    elif kind == "clusters":  # two far-apart clusters: most grid cells are empty
        half = rng.integers(-8, 9, (n, 2)) / 2.0
        pts = half + np.where(rng.random((n, 1)) < 0.5, 0.0, 1e4)
    elif kind == "offset":  # quarter steps near 1e6: cell edges fall between rounded values
        pts = 1e6 + rng.integers(-24, 25, (max(n, 20), 2)) / 4.0
    elif kind == "diagonal":  # collinear on slope 1: one crowded diagonal of cells
        t = rng.integers(-30, 30, max(n, 20)) / 2.0
        pts = np.column_stack([t, t])
    elif kind == "integer":  # many equal gaps
        pts = rng.integers(0, 7, (n, 2)).astype(float)
    elif kind == "half":
        pts = rng.integers(-6, 7, (n, 2)) / 2.0
    elif kind == "horizontal":
        pts = np.column_stack([rng.integers(0, 40, n) / 2.0, np.full(n, 3.0)])
    elif kind == "vertical":
        pts = np.column_stack([np.full(n, -1.5), rng.uniform(-5.0, 5.0, n)])
    elif kind == "collinear":  # a slope, so neither axis is constant
        t = rng.integers(0, 30, n).astype(float)
        pts = np.column_stack([t / 2.0, 3.0 * t - 7.0])
    else:
        pts = rng.uniform(-10.0, 10.0, (n, 2))
    pts = np.unique(pts, axis=0)
    n = pts.shape[0]
    perm = rng.permutation(n).tolist()
    if kind == "mixed":  # singletons beside a few large members
        big = int(rng.integers(1, 4))
        owner = rng.integers(0, big, n)
        solo = rng.random(n) < 0.5
        members = [[int(i)] for i in np.flatnonzero(solo)]
        members += [np.flatnonzero(~solo & (owner == b)).tolist() for b in range(big)]
    elif kind == "long":  # one member spanning the points' widest axis, the rest singletons
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        line = np.flatnonzero(rng.random(n) < 0.2).tolist() + [int(np.argmin(pts[:, axis])),
                                                              int(np.argmax(pts[:, axis]))]
        members = [sorted(set(line))] + [[i] for i in perm if i not in line]
    elif kind in ("dense", "clusters", "offset", "diagonal"):
        members = [[i] for i in perm]
    elif kind == "repeated":  # every member twice, or overlapping its neighbour: gap 0
        members = [[i] for i in perm]
        members = ([m for m in members for _ in range(2)] if rng.random() < 0.5
                   else [sorted({i, j}) for i, j in zip(perm, perm[1:] + perm[:1])])
    else:  # interleaved: random assignment, so member boxes overlap
        k = int(rng.integers(1, n + 1))
        owner = rng.integers(0, k, n)
        members = [[perm[i] for i in np.flatnonzero(owner == b)] for b in range(k)]
    members = [mem for mem in members if mem]
    if rng.random() < 0.2:  # an identical copy of one member: gap 0
        members.insert(int(rng.integers(0, len(members) + 1)),
                       list(members[int(rng.integers(0, len(members)))]))
    elif rng.random() < 0.2:  # two members sharing a point: gap 0
        a, b = rng.integers(0, len(members), 2)
        members[a] = sorted(set(members[a]) | {members[b][0]})
    return pts, members


def _all_pairs_gap(planar: EuclideanPointSet, fam: SubsetFamily,
                   members: list[list[int]]) -> tuple[float, tuple[int, int] | None]:
    """The matrix path's min gap and witness; one matrix reduction for large families."""
    if len(fam) <= 60:
        scan = check_r_disjoint(induce_space(planar), fam, 1.0)
        return scan.min_gap, scan.witness
    return all_pairs_min_gap(induce_space(planar).matrix, members)


FAMILY_KINDS = ("integer", "half", "horizontal", "vertical", "collinear", "uniform", "mixed",
                "dense", "long", "clusters", "offset", "diagonal", "repeated")


def _diameter_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, list[list[int]]]:
    """Distinct points and a partition of them into members, some singletons.

    Points come sorted x-major, so a member's points in one column are
    chains (equal x, rising y), except in kind "unsorted", whose columns
    hold their points in random order. Kind "cross" cuts the indices into
    consecutive runs, which cross from one column into the next, and keeps
    them in index order half the time, so chains of adjacent members meet.
    """
    n = int(rng.integers(1, 60))
    if kind == "integer":
        pts = rng.integers(0, 8, (n, 2)).astype(float)
    elif kind == "quarter":
        pts = rng.integers(-12, 13, (n, 2)) / 4.0
    elif kind == "horizontal":
        pts = np.column_stack([rng.integers(0, 60, n) / 4.0, np.full(n, 1.5)])
    elif kind == "vertical":
        pts = np.column_stack([np.full(n, -2.0), rng.uniform(-5.0, 5.0, n)])
    elif kind == "sloped":  # x = t/3 rounds, so equal steps give near-equal distances
        t = rng.integers(0, 40, n).astype(float)
        pts = np.column_stack([t / 3.0, 2.0 * t - 5.0])
    elif kind == "diagonal":  # min x, min y and min x+y are one point
        t = rng.uniform(-3.0, 3.0, n)
        pts = np.column_stack([t, t])
    elif kind == "near-tie":  # distances that differ by a few ulps
        pts = rng.integers(0, 4, (n, 2)) + rng.integers(-2, 3, (n, 2)) * 2.0 ** -50
    elif kind == "circle":  # every point is on the hull: nothing can be dropped
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = float(rng.uniform(0.5, 100.0)) * np.column_stack([np.cos(theta), np.sin(theta)])
    elif kind == "columns":  # many quarter-grid columns, some of one point
        pts = np.column_stack([rng.integers(-20, 21, n), rng.integers(-8, 9, n)]) / 4.0
    elif kind == "unsorted":  # a few tall columns
        pts = np.column_stack([rng.integers(-3, 4, n), rng.integers(-12, 13, n)]) / 4.0
    elif kind == "signed-zero":  # columns at x = 0.0 and x = -0.0, interleaved by y
        y = rng.choice(np.arange(-40, 40), size=n, replace=False) / 4.0
        pts = np.column_stack([rng.choice([0.0, 0.0, 0.5], n), y])
    elif kind == "subnormal":  # squares of differences round to subnormals or to 0
        pts = rng.integers(-6, 7, (n, 2)) * np.array([5e-324, 2.0 ** -537])
    elif kind == "overflow":  # beside a cluster at 0, differences that overflow
        pts = rng.integers(-4, 5, (n, 2)) * np.where(rng.random((n, 1)) < 0.5, 1.0, 4e307)
        pts[:, 1] += np.where(rng.random(n) < 0.3, 1e300, 0.0)
    elif kind == "cross":  # a few columns with y in overlapping ranges
        pts = np.column_stack([rng.integers(0, 5, n) / 2.0, rng.integers(-10, 11, n) / 4.0])
    else:
        pts = rng.uniform(-10.0, 10.0, (n, 2))
    pts = np.unique(pts, axis=0)
    n = pts.shape[0]
    if kind == "signed-zero":
        pts[:, 0] = np.where(pts[:, 0] == 0.0, rng.choice([0.0, -0.0], n), pts[:, 0])
    if kind == "unsorted":  # x-major still, y in random order
        pts = pts[np.lexsort((rng.random(n), pts[:, 0]))]
    if kind == "cross":
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(int(rng.integers(0, 6)), n - 1),
                                  replace=False)) if n > 1 else []
        members = [run.tolist() for run in np.split(np.arange(n), cuts)]
        if rng.random() < 0.5:
            rng.shuffle(members)
        return pts, members
    perm = rng.permutation(n)
    solo = rng.random(n) < float(rng.choice([0.0, 0.3, 0.9]))
    big = int(rng.integers(1, 5))
    owner = rng.integers(0, big, n)
    members = [[int(i)] for i in perm[solo[perm]]]
    members += [perm[~solo[perm] & (owner[perm] == b)].tolist() for b in range(big)]
    members = [mem for mem in members if mem]
    rng.shuffle(members)
    return pts, members


DIAMETER_KINDS = ("integer", "quarter", "horizontal", "vertical", "sloped", "diagonal",
                  "near-tie", "circle", "uniform", "columns", "unsorted", "signed-zero",
                  "subnormal", "overflow", "cross")


# ---------------------------------------------------------------------------
# families and the three checks

class TestSubsetFamily:
    def test_of_builds_members(self):
        fam = SubsetFamily("f", [[0, 1], [2]], n=4)
        assert fam.label == "f"
        assert len(fam) == 2
        assert fam.members[0].indices == (0, 1)

    def test_equality_with_another_type_is_not_implemented(self):
        fam = SubsetFamily("f", [[0]])
        assert fam.__eq__(("f", [[0]])) is NotImplemented
        assert fam != ("f", [[0]])


class TestDisjointness:
    def test_single_member_is_vacuously_disjoint(self):
        lat, red, _ = chess_setup(2.0)
        solo = SubsetFamily("solo", (red.members[0],))
        rep = check_r_disjoint(lat, solo, 1e9)
        assert rep.ok and rep.min_gap == math.inf and rep.witness is None

    def test_overflowing_gaps_have_no_witness(self):
        # every difference overflows, so every gap is inf: no pair attains it
        pts = EuclideanPointSet(np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]]))
        fam = SubsetFamily("far", tuple(SubsetRef((i,)) for i in range(3)))
        with np.errstate(over="ignore"):
            reps = [check_r_disjoint(space, fam, 1.0) for space in (pts, induce_space(pts))]
        for rep in reps:
            assert rep.ok and rep.min_gap == math.inf and rep.witness is None

    def test_chess_gap_is_the_diagonal(self):
        lat, red, blue = chess_setup()
        for fam in (red, blue):
            rep = check_r_disjoint(lat, fam, SQRT2)
            assert rep.ok
            assert rep.min_gap == SQRT2

    def test_strict_fails_exactly_at_the_gap(self):
        lat, red, _ = chess_setup()
        rep = check_r_disjoint(lat, red, SQRT2, strict=True)
        assert not rep.ok
        assert rep.min_gap == SQRT2
        # but any r' < r passes strictly
        assert check_r_disjoint(lat, red, SQRT2 - 1e-9, strict=True).ok

    def test_witness_attains_the_minimum(self):
        lat, red, _ = chess_setup()
        rep = check_r_disjoint(lat, red, 10.0)
        assert not rep.ok
        a, b = rep.witness
        assert a < b
        assert set_distance(lat, red.members[a], red.members[b]) == rep.min_gap

    def test_box_prefilter_agrees_with_direct_scan(self):
        # the Euclidean fast path and the generic all-pairs path must agree
        # on both the value and the lexicographically first witness
        rng = np.random.default_rng(14)
        for _ in range(20):
            pts = EuclideanPointSet(np.unique(
                rng.uniform(-10, 10, size=(30, 2)), axis=0))
            idx = rng.permutation(pts.n)
            cuts = sorted(rng.choice(range(1, pts.n), size=5, replace=False))
            members = [seg.tolist() for seg in np.split(idx, cuts) if len(seg)]
            fam = SubsetFamily("parts", members, n=pts.n)
            fast = check_r_disjoint(pts, fam, 1.0)
            slow = check_r_disjoint(induce_space(pts), fam, 1.0)
            assert fast.min_gap == slow.min_gap
            assert fast.witness == slow.witness

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 7, 1 << 18]))
    def test_matrix_gaps_match_all_pairs(self, seed, block_cells):
        # integer distances tie often, members overlap or repeat, and half the
        # matrices are asymmetric within DEFAULT_TOL, so a gap must read
        # matrix[A, B] with a's rows; tiny blocks read a member's rows one by one
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        m = random_metric_matrix(rng, n, low=1.0, high=4.0, integer=rng.random() < 0.5)
        if rng.random() < 0.5:
            m = m + np.triu(rng.integers(0, 3, (n, n)), 1) * 2.0 ** -32
        space = build_space(m)
        members = [sorted(set(rng.choice(n, int(rng.integers(1, 4))).tolist()))
                   for _ in range(int(rng.integers(2, 12)))]
        if rng.random() < 0.3:  # an identical copy of one member: gap 0
            members.append(list(members[int(rng.integers(0, len(members)))]))
        fam = SubsetFamily("f", members, n)
        with mock.patch("ghbounds.metric._BLOCK_CELLS", block_cells):
            got = check_r_disjoint(space, fam, 1.0)
        gap, witness = all_pairs_min_gap(space.matrix, members)
        assert (got.min_gap.hex(), got.witness) == (gap.hex(), witness)

    @settings(max_examples=150)
    @given(st.sampled_from(FAMILY_KINDS), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.integers(min_value=1, max_value=3))
    def test_sweep_matches_all_pairs(self, kind, seed, tiny_batches, batch):
        # the planar gap search by its rule, forced to the sweep and forced to
        # the bucket grid, against the matrix path's all-pairs scan; tiny
        # batches force many steps, each with a fresh best gap
        rng = np.random.default_rng(seed)
        pts, members = _family_case(kind, rng)
        planar = EuclideanPointSet(pts)
        fam = SubsetFamily("f", members, n=planar.n)
        want = _all_pairs_gap(planar, fam, members)
        if len(fam) >= 500:  # still hundreds of steps, in a fraction of the time
            batch *= 16
        sizes = {name: batch if tiny_batches else getattr(covers, name)
                 for name in ("_GAP_PAIRS", "_GATHER")}
        for force in ({}, {"_fewer_pairs": lambda sweep, grid: sweep},
                      {"_fewer_pairs": lambda sweep, grid: grid}):
            with mock.patch.multiple(covers, **sizes, **force):
                got = check_r_disjoint(planar, fam, 1.0)
            assert (got.min_gap, got.witness) == want

    def test_rule_takes_both_branches(self):
        # dense singletons make fewer grid pairs; a member as wide as the
        # family makes one grid cell, every pair, so the sweep is kept
        real, chosen = covers._fewer_pairs, []

        def spy(sweep, grid):
            pick = real(sweep, grid)
            chosen.append("grid" if pick is grid else "sweep")
            return pick

        for kind, want in (("dense", "grid"), ("long", "sweep")):
            for seed in range(4):
                pts, members = _family_case(kind, np.random.default_rng(seed))
                planar = EuclideanPointSet(pts)
                fam = SubsetFamily("f", members, n=planar.n)
                with mock.patch.object(covers, "_fewer_pairs", spy):
                    got = check_r_disjoint(planar, fam, 1.0)
                assert chosen.pop() == want
                assert (got.min_gap, got.witness) == _all_pairs_gap(planar, fam, members)

    def test_box_gap_rounds_like_the_point_distances(self):
        # box gaps must round like point distances: np.hypot puts the box gap
        # of (0, 2) one ulp above its measured gap, which would prune the
        # pair that attains the minimum and report (0, 1) with a larger gap
        pts = EuclideanPointSet(np.array([[0.0, 0.0],
                                          [1.380197857157211, 1.8267155902738015],
                                          [1.380197857157211, -1.8267155902738013]]))
        fam = SubsetFamily("solo", [[0], [1], [2]], n=3)
        gap = 2.289505617518926
        for space in (pts, induce_space(pts)):
            rep = check_r_disjoint(space, fam, gap, strict=True)
            assert rep.min_gap == gap
            assert rep.witness == (0, 2)
            assert not rep.ok
        assert set_distance(pts, [0], [1]) == 2.2895056175189263

    def test_sweep_window_allows_for_rounding(self):
        # -1 + 1 rounds to 0, short of the point at 2**-60 whose gap to -1
        # also rounds to 1; a window cut at 0 misses the first tie (0, 1)
        pts = EuclideanPointSet(np.array([[2.0 ** -60, 0.0], [-1.0, 0.0],
                                          [10.0, 0.0], [11.0, 0.0]]))
        fam = SubsetFamily("row", [[0], [1], [2], [3]], n=4)
        rep = check_r_disjoint(pts, fam, 1.0)
        assert rep.min_gap == 1.0 and rep.witness == (0, 1)

    def test_touching_members_have_zero_gap(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        fam = SubsetFamily("touch", [[0, 1], [1, 2]], n=3)
        rep = check_r_disjoint(pts, fam, 0.5)
        assert not rep.ok and rep.min_gap == 0.0


class TestBoundAndCover:
    def test_uniform_bound_of_singletons_is_zero(self):
        lat, red, _ = chess_setup(4.0)
        assert check_uniform_bound(lat, red) == 0.0

    def test_uniform_bound_is_the_largest_member_diameter(self):
        pts = EuclideanPointSet(np.array(
            [[0.0, 0.0], [0.0, 3.0], [5.0, 0.0], [5.0, 1.0]]))
        fam = SubsetFamily("two", [[0, 1], [2, 3]], n=4)
        assert check_uniform_bound(pts, fam) == 3.0

    @settings(max_examples=200)
    @given(st.sampled_from(DIAMETER_KINDS), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.integers(min_value=1, max_value=3))
    def test_batched_diameter_matches_diam(self, kind, seed, tiny_batches, batch):
        # the planar scan over chain endpoints, pruned and batched, and the
        # matrix path's batched block entries against diam, for the family
        # and member by member; tiny batches split rows and groups, so the
        # lower bound grows between groups
        rng = np.random.default_rng(seed)
        pts, members = _diameter_case(kind, rng)
        planar = EuclideanPointSet(pts)
        fam = SubsetFamily("f", members, n=planar.n)
        sizes = {name: batch if tiny_batches else getattr(covers, name)
                 for name in ("_DIAM_PAIRS", "_GATHER")}
        with np.errstate(over="ignore"), mock.patch.multiple(covers, **sizes):
            matrix = induce_space(planar)
            each = [diam(matrix, mem) for mem in fam.members]
            assert check_uniform_bound(planar, fam) == max(each)
            assert check_uniform_bound(matrix, fam) == max(each)
            # member by member, so no member's error hides below another's diameter
            for mem, want in zip(fam.members, each):
                assert check_uniform_bound(planar, SubsetFamily("m", [mem])) == want

    def test_diameter_of_singletons_among_larger_members(self):
        # singletons between members of two and more points, read a few
        # points at a time: the larger members are measured apart from them
        pts = EuclideanPointSet(np.column_stack([np.arange(12.0), np.arange(12.0) % 5]))
        members = [[0], [1, 2], [3], [4], [5, 6, 7], [8], [9, 11], [10]]
        fam = SubsetFamily("f", members, n=pts.n)
        want = max(diam(pts, mem) for mem in members)
        assert want == math.sqrt(13.0)  # points 9 and 11, at (9, 4) and (11, 1)
        for gather in (covers._GATHER, 1, 2, 3):
            with mock.patch.object(covers, "_GATHER", gather):
                for space in (pts, induce_space(pts)):
                    assert check_uniform_bound(space, fam) == want

    def test_chains_break_between_members(self):
        # one column of rising y cut into two members: a chain joined across
        # the cut would drop point 2 and point 3 and measure both members 0
        pts = EuclideanPointSet(np.column_stack([np.zeros(6), [0.0, 1.0, 10.0, 11.0, 12.0, 13.0]]))
        fam = SubsetFamily("f", [[0, 1, 2], [3, 4, 5]], n=pts.n)
        assert check_uniform_bound(pts, fam) == 10.0

    def test_batched_diameter_on_a_brick(self):
        # a rectangle of grid points: only its corners can attain the diameter
        net = gen_lattice_window(WindowSpec(0.0, 30.0, 0.0, 20.0))
        fam = SubsetFamily("brick", [range(net.n)], n=net.n)
        assert check_uniform_bound(net, fam) == diam(net, range(net.n)) == math.hypot(30.0, 20.0)

    def test_uniform_bound_keeps_the_range_error(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        fam = SubsetFamily("f", [[0], [1, 5], [2, 7]])
        with pytest.raises(IndexOutOfRange) as ei:
            check_uniform_bound(pts, fam)
        assert (ei.value.index, ei.value.n) == (5, 3)

    def test_every_check_refuses_an_index_past_the_ambient(self):
        # a family built without n names index 20 of a 16-point lattice
        lat = gen_lattice_window(WindowSpec(0.0, 3.0, 0.0, 3.0))
        good = SubsetFamily("good", [[0, 1], [9]])
        bad = SubsetFamily("bad", [[0], [5, 6], [20, 3], [30]])
        for space in (lat, induce_space(lat)):
            for check in (lambda: check_r_disjoint(space, bad, 1.0),
                          lambda: check_uniform_bound(space, bad),
                          lambda: covers.inspect_cover(space, (good, bad), 1.0),
                          lambda: make_certificate(space, (good, bad), 1.0),
                          lambda: check_cover(space, (good, bad), range(16)),
                          lambda: multiplicity(space, (good, bad), range(16))):
                with pytest.raises(IndexOutOfRange) as ei:
                    check()
                assert (ei.value.index, ei.value.n) == (20, 16)

    def test_uniform_bound_of_no_members_is_zero(self):
        lat, _, _ = chess_setup(2.0)
        assert check_uniform_bound(lat, SubsetFamily("none", ())) == 0.0

    def test_cover_reports_exact_misses(self):
        lat, red, blue = chess_setup(2.0)
        both = check_cover(lat, (red, blue), range(lat.n))
        assert both.ok and both.uncovered == ()
        only_red = check_cover(lat, (red,), range(lat.n))
        blue_points = {i for mem in blue.members for i in mem.indices}
        assert not only_red.ok
        assert set(only_red.uncovered) == blue_points

    def test_multiplicity_counts_stacked_members(self):
        lat, red, blue = chess_setup(2.0)
        assert multiplicity(lat, (red, blue), range(lat.n)) == 1
        assert multiplicity(lat, (red, red, blue), range(lat.n)) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_coverage_and_multiplicity_match_a_set_count(self, seed):
        rng = np.random.default_rng(seed)
        lat = gen_lattice_window(WindowSpec(0.0, 5.0, 0.0, 3.0))
        families = [SubsetFamily(f"f{t}", [rng.choice(lat.n, int(rng.integers(1, 5)))
                                              for _ in range(int(rng.integers(0, 6)))], n=lat.n)
                    for t in range(int(rng.integers(1, 4)))]
        target = rng.choice(lat.n, int(rng.integers(1, lat.n)), replace=False)
        covered = set()
        hits = [0] * lat.n
        for fam in families:
            for mem in fam.members:
                covered.update(mem.indices)
                for i in mem.indices:
                    hits[i] += 1
        rep = check_cover(lat, families, target)
        assert rep.uncovered == tuple(i for i in sorted(target.tolist()) if i not in covered)
        assert rep.ok == (not rep.uncovered)
        assert multiplicity(lat, families, target) == max(hits[i] for i in target.tolist())


class TestFamilyIndex:
    """A family's flat index array and offsets hold its members, however it was built."""

    @staticmethod
    def assert_holds_members(fam):
        flat, offsets = fam._index
        assert flat.dtype == np.int64 and not flat.flags.writeable
        assert [tuple(flat[s:e].tolist()) for s, e in zip(offsets[:-1], offsets[1:])] \
            == [mem.indices for mem in fam.members]

    def test_generated_families(self):
        lat, red, blue = chess_setup(4.0)
        _, bricks = gen_brick_cover(WindowSpec(0.0, 9.0, 0.0, 9.0), 1.0)
        for fam in (red, blue, *bricks):
            assert "_index" in vars(fam) and "members" not in vars(fam)  # arrays only
            self.assert_holds_members(fam)

    def test_loaded_and_constructed_families(self):
        members = [[3, 1], [2, 2, 0], [4], [5, 6]]  # unsorted and duplicated runs
        loaded = read_family({"label": "f", "members": members}, 7)
        assert "members" not in vars(loaded)  # sorted and deduplicated as arrays
        assert loaded == SubsetFamily("f", members, n=7)
        for fam in (loaded, read_family({"label": "g", "members": [[0, 2], [5]]}, 6),
                    SubsetFamily("h", [np.array([1, 2], dtype=np.int32), [np.int64(0)]]),
                    SubsetFamily("none", ())):
            self.assert_holds_members(fam)


_RUN = st.one_of(
    st.sets(st.integers(0, 30), min_size=1, max_size=6).map(sorted),  # as loaded files hold them
    st.lists(st.integers(-3, 34), max_size=6),  # unsorted, duplicated, empty, negative, too large
    st.builds(lambda i: [i], st.integers(0, 30)),
)
_VALID_RUN = st.one_of(st.lists(st.integers(0, 4), min_size=1, max_size=3), _RUN.filter(bool).map(
    lambda run: [abs(i) for i in run]))
_LABELS = st.sampled_from(["red", "", "f\u00e9", 'a&b <c> "d"'])


class TestArrayFamilies:
    """Families built from index arrays against the member tuples of ``SubsetFamily``."""

    @settings(max_examples=300)
    @given(_LABELS, st.lists(_RUN, max_size=10), st.integers(1, 35))
    def test_loaded_family_equals_of(self, label, members, n):
        want = outcome(lambda: SubsetFamily(label, members, n))
        got = outcome(lambda: read_family({"label": label, "members": members}, n))
        if not isinstance(want, SubsetFamily):
            assert got == want  # the same error, for the same first failing member
            return
        assert "members" not in vars(got)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(got._index, want._index))
        assert got == want and want == got
        assert "members" not in vars(got)  # equality reads the arrays
        assert hash(got) == hash(want)
        assert got.members == want.members
        assert all(type(i) is int for mem in got.members for i in mem.indices)

    @settings(max_examples=200)
    @given(_LABELS, st.lists(_VALID_RUN, max_size=6), st.lists(_VALID_RUN, max_size=6))
    def test_equality_is_by_label_and_members(self, label, one, two):
        a = read_family({"label": label, "members": one}, 35)
        b = read_family({"label": label, "members": two}, 35)
        same = SubsetFamily(label, one).members == SubsetFamily(label, two).members
        assert (a == b) == same
        assert (a == SubsetFamily(label, two)) == same
        assert a != read_family({"label": label + "x", "members": one}, 35)

    def test_frozen(self):
        fam = read_family({"label": "f", "members": [[0, 1]]}, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.label = "g"
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.members = ()
        assert repr(fam) == repr(SubsetFamily("f", [[0, 1]]))

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.sets(st.integers(0, 6), min_size=1, max_size=3).map(sorted),
                              st.builds(lambda i: [i], st.integers(0, 40))), max_size=14))
    def test_duplicate_witness_matches_dict_loop(self, members):
        lat = gen_lattice_window(WindowSpec(0.0, 6.0, 0.0, 6.0))
        fam = read_family({"label": "f", "members": members}, lat.n)
        want = first_duplicate_member(SubsetFamily("f", members))
        assert covers._duplicate_members(fam) == want
        if want is not None:
            with pytest.raises(NotDisjoint) as ei:
                make_certificate(lat, (fam,), 1.0)
            got = ei.value
            assert (got.family, got.pair, got.gap, got.r) == ("f", want, 0.0, 1.0)

    def test_full_target_matches_an_explicit_one(self):
        net, bricks = gen_brick_cover(WindowSpec(0.0, 9.0, 0.0, 9.0), 1.0)
        hits = np.zeros(net.n, dtype=int)
        for fam in bricks[:2]:
            for mem in fam.members:
                hits[list(mem.indices)] += 1
        found = covers.inspect_cover(net, bricks[:2], 2.0)
        assert found == covers.inspect_cover(net, bricks[:2], 2.0, target=list(range(net.n)))
        assert found.given_target is None and found.target_size == net.n
        assert found.cover.uncovered == tuple(np.flatnonzero(hits == 0).tolist())
        assert found.multiplicity == hits.max()
        assert not found.cover.ok


class TestInspectCover:
    def test_measures_what_the_single_checks_measure(self):
        net, bricks = gen_brick_cover(WindowSpec(0.0, 9.0, 0.0, 9.0), 1.0)
        target = range(0, net.n, 3)
        found = covers.inspect_cover(net, bricks, 2.0, target=target)
        for fam, got in zip(bricks, found.families):
            assert got.label == fam.label and got.members == len(fam)
            assert got.disjoint == check_r_disjoint(net, fam, 2.0)
            assert got.max_diam == check_uniform_bound(net, fam)
        assert found.cover == check_cover(net, bricks, target)
        assert found.multiplicity == multiplicity(net, bricks, target)
        assert found.given_target.indices == tuple(target)
        assert found.target_size == len(target)

    def test_matrix_spaces_never_read_members(self):
        # members makes a SubsetRef per member; the checks read the index arrays
        net, bricks = gen_brick_cover(WindowSpec(0.0, 4.0, 0.0, 4.0), 1.0)
        lat, red, blue = chess_setup(8.0)
        for planar, families in ((net, bricks), (lat, (red, blue))):
            space = induce_space(planar)
            want = covers.inspect_cover(planar, families, 1.0)
            with mock.patch.object(SubsetFamily, "members", new_callable=mock.PropertyMock,
                                   side_effect=AssertionError("members read")):
                got = covers.inspect_cover(space, families, 1.0)
            assert got.families == want.families
            assert (got.cover, got.multiplicity) == (want.cover, want.multiplicity)

    def test_reports_failures_without_raising(self):
        lat, red, _ = chess_setup(4.0)
        found = covers.inspect_cover(lat, (red, red), 2.0)
        assert [f.disjoint.ok for f in found.families] == [False, False]
        assert not found.cover.ok and found.multiplicity == 2
        assert found.c == 0.0 and found.min_gap == SQRT2

    def test_not_exported(self):
        import ghbounds
        assert "inspect_cover" not in ghbounds.__all__


# ---------------------------------------------------------------------------
# certificates

class TestMakeCertificate:
    def test_chess_certifies(self):
        lat, red, blue = chess_setup()
        cert = make_certificate(lat, (red, blue), SQRT2)
        assert cert.k == 2
        assert cert.c == 0.0
        assert cert.min_gap == SQRT2
        assert cert.target_size == lat.n

    def test_separation_failure_names_the_witness(self):
        lat, red, blue = chess_setup()
        with pytest.raises(NotDisjoint) as ei:
            make_certificate(lat, (red, blue), 2.0)
        exc = ei.value
        assert exc.family == "red"
        assert exc.gap == SQRT2
        assert exc.r == 2.0
        a, b = exc.pair
        assert set_distance(lat, red.members[a], red.members[b]) == SQRT2

    def test_coverage_failure_lists_missing_points(self):
        lat, red, blue = chess_setup(2.0)
        with pytest.raises(NotCovering) as ei:
            make_certificate(lat, (red,), SQRT2)
        blue_points = {i for mem in blue.members for i in mem.indices}
        assert set(ei.value.uncovered) == blue_points

    def test_duplicate_member_is_rejected_with_positions(self):
        lat, red, _ = chess_setup(2.0)
        doubled = SubsetFamily("red", red.members + (red.members[0],))
        with pytest.raises(NotDisjoint) as ei:
            make_certificate(lat, (doubled,), SQRT2)
        assert ei.value.gap == 0.0
        assert ei.value.pair == (0, len(red.members))

    def test_a_repeated_member_passes_the_gap_check_only_at_r_zero(self):
        lat, _, _ = chess_setup(2.0)
        doubled = SubsetFamily("f", [[0], [0], [5]])
        report = check_r_disjoint(lat, doubled, 0.0)
        assert report.ok and report.min_gap == 0.0 and report.witness == (0, 1)
        assert not check_r_disjoint(lat, doubled, 0.5).ok
        with pytest.raises(NotDisjoint) as ei:
            make_certificate(lat, (doubled,), 0.0)
        assert (ei.value.pair, ei.value.gap) == ((0, 1), 0.0)

    def test_an_index_past_the_ambient_is_refused_before_a_repeated_member(self):
        # the repeated [0] would raise NotDisjoint, but index 7 names no point of 3,
        # also when the family past the ambient comes after one with a repeat
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        doubled = SubsetFamily("b", [[1], [1]])
        for fams in ([SubsetFamily("a", [[0], [0], [7]])],
                     [doubled, SubsetFamily("a", [[0], [7]])]):
            for space in (pts, induce_space(pts)):
                with pytest.raises(IndexOutOfRange) as ei:
                    make_certificate(space, fams, 1.0)
                assert (ei.value.index, ei.value.n) == (7, 3)

    def test_empty_family_list_is_rejected(self):
        lat, _, _ = chess_setup(2.0)
        with pytest.raises(EmptyFamilyList):
            make_certificate(lat, (), 1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -3.0])
    def test_a_separation_must_be_finite_and_at_least_zero(self, r):
        lat, red, blue = chess_setup(2.0)
        checks = (lambda: check_r_disjoint(lat, red, r),
                  lambda: covers.inspect_cover(lat, (red, blue), r),
                  lambda: covers.inspect_cover(lat, (), r),
                  lambda: make_certificate(lat, (red, blue), r),
                  lambda: make_certificate(lat, (), r))
        # refused before any family is measured
        with mock.patch.object(covers, "_family_min_gap", side_effect=AssertionError):
            for check in checks:
                with pytest.raises(ValueError, match="separation r must be finite and at least 0"):
                    check()

    def test_partial_target_allows_larger_members(self):
        lat, red, blue = chess_setup(2.0)
        target = red.members[0]
        cert = make_certificate(lat, (red, blue), SQRT2, target=target)
        assert cert.target_size == 1 and cert.given_target == target


# ---------------------------------------------------------------------------
# model spaces by name, and the bound

class TestModelRegistry:
    def test_seeded_planes(self):
        for name, dim in (("R1", 1), ("R2", 2), ("R3", 3)):
            m = model_space(name)
            assert m.asdim_lower == dim
            assert m.stabilizer_nontrivial

    def test_parses_higher_dimensions(self):
        assert model_space("R7").asdim_lower == 7

    def test_unknown_names_are_rejected(self):
        for name in ("H2", "R0", "R-1", "plane"):
            with pytest.raises(UnknownModelSpace):
                model_space(name)

    def test_descriptor_is_frozen(self):
        m = model_space("R2")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.asdim_lower = 5


class TestLowerBound:
    def test_chess_bound_is_half_the_diagonal(self):
        lat, red, blue = chess_setup()
        cert = make_certificate(lat, (red, blue), SQRT2)
        result = gh_lower_bound(cert, model_space("R2"))
        assert result.bound == SQRT2 / 2.0

    def test_comb_bound_is_one_half(self):
        comb = gen_comb_set(WindowSpec(0.0, 6.0, -3.0, 3.0), 0.05)
        families = gen_comb_cover(comb, 2.0)
        cert = make_certificate(comb, families, 1.0)
        result = gh_lower_bound(cert, model_space("R2"))
        assert result.bound == 0.5

    def test_trace_names_the_gate_and_the_model(self):
        lat, red, blue = chess_setup(4.0)
        cert = make_certificate(lat, (red, blue), SQRT2)
        result = gh_lower_bound(cert, model_space("R2"))
        text = "\n".join(result.trace)
        assert "k=2" in text
        assert "R2" in text
        assert "infinite" in text
        assert "non-strict mode" in text  # the sup over r' < r note

    def test_bound_never_exceeds_the_measured_gap(self):
        # the non-strict tolerance accepts r just above the measured gap fl(sqrt 2);
        # the bound must follow the gap, not r
        lat, red, blue = chess_setup()
        cert = make_certificate(lat, (red, blue), SQRT2 + 5e-10)
        assert cert.min_gap == SQRT2 < cert.r
        result = gh_lower_bound(cert, model_space("R2"))
        assert result.bound == 0.7071067811865476
        text = "\n".join(result.trace)
        assert f"tolerance {DEFAULT_TOL!r}" in text
        assert "bound uses it in place of r" in text
        assert "attains r exactly" not in text

    def test_strict_certificates_drop_the_sup_note(self):
        lat, red, blue = chess_setup(4.0)
        cert = make_certificate(lat, (red, blue), 1.0, strict=True)
        result = gh_lower_bound(cert, model_space("R2"))
        assert "non-strict mode" not in "\n".join(result.trace)
        assert result.bound == 0.5

    def test_too_many_families_gate(self):
        lat, red, blue = chess_setup(4.0)
        thirds = (red, blue, SubsetFamily("extra", red.members))
        cert = make_certificate(lat, thirds, 1.0)
        with pytest.raises(TooManyFamilies):
            gh_lower_bound(cert, model_space("R2"))
        # a roomier model admits the same certificate
        assert gh_lower_bound(cert, model_space("R3")).bound == 0.5

    def test_trivial_stabilizer_gate(self):
        lat, red, blue = chess_setup(4.0)
        cert = make_certificate(lat, (red, blue), SQRT2)
        frozen = dataclasses.replace(model_space("R2"), name="frozen-plane",
                                     stabilizer_nontrivial=False)
        with pytest.raises(TrivialStabilizer):
            gh_lower_bound(cert, frozen)


# ---------------------------------------------------------------------------
# proof-step machinery

class TestPushforwardFamily:
    def test_identity_preserves_measurements(self):
        lat, red, _ = chess_setup(3.0)
        ident = Correspondence([(i, i) for i in range(lat.n)], lat.n, lat.n)
        images, report = pushforward_family(ident, red, lat)
        assert images.members == red.members
        assert report.min_gap == SQRT2
        assert report.max_diam == 0.0

    def test_a_plain_relation_is_refused(self):
        lat, red, _ = chess_setup(2.0)
        with pytest.raises(NotACorrespondence):
            pushforward_family(Relation([(i, i) for i in range(lat.n)]), red, lat)

    def test_full_product_collapses_gaps(self):
        lat, red, _ = chess_setup(2.0)
        full = Correspondence(
            [(i, j) for i in range(lat.n) for j in range(lat.n)], lat.n, lat.n)
        images, report = pushforward_family(full, red, lat)
        assert report.min_gap == 0.0
        assert report.max_diam == diam(lat, range(lat.n))

    def test_distortion_bounds_the_image_measurements(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            nx, ny = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            x = random_space(rng, nx)
            y = random_space(rng, ny)
            rel = random_correspondence(rng, nx, ny)
            dis = distortion(x, y, rel)
            members = [[i] for i in range(nx)]
            rng.shuffle(members)
            half = max(1, nx // 2)
            fam = SubsetFamily("bits", members[:half], n=nx)
            src_gap = check_r_disjoint(x, fam, 0.0).min_gap
            src_diam = check_uniform_bound(x, fam)
            _, report = pushforward_family(rel, fam, y)
            assert report.max_diam <= src_diam + dis + 1e-9
            if len(fam.members) > 1 and math.isfinite(src_gap):
                assert report.min_gap >= src_gap - dis - 1e-9


class TestScaleFamily:
    def test_unit_scale_is_identity(self):
        lat, red, blue = chess_setup(3.0)
        scaled = scale_points(lat, 1.0)
        assert np.array_equal(scaled.points, lat.points)

    def test_doubling_doubles_gap_and_diameter(self):
        comb = gen_comb_set(WindowSpec(0.0, 4.0, -2.0, 2.0), 0.25)
        families = gen_comb_cover(comb, 2.0)
        gap0 = min(check_r_disjoint(comb, f, 0.0).min_gap for f in families)
        diam0 = max(check_uniform_bound(comb, f) for f in families)
        scaled = scale_points(comb, 2.0)
        gap1 = min(check_r_disjoint(scaled, f, 0.0).min_gap for f in families)
        diam1 = max(check_uniform_bound(scaled, f) for f in families)
        assert gap1 == pytest.approx(2.0 * gap0, rel=1e-12)
        assert diam1 == pytest.approx(2.0 * diam0, rel=1e-12)

    def test_two_steps_compose(self):
        lat, red, blue = chess_setup(3.0)
        twice = scale_points(scale_points(lat, 2.0), 2.0)
        gap = check_r_disjoint(twice, red, 0.0).min_gap
        assert gap == pytest.approx(4.0 * SQRT2, rel=1e-12)
