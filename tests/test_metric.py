"""Metric containers, validation, and the basic set-to-set measurements."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import outcome, random_metric_matrix, random_space
from oracles import cell_of_rows, merge_point_sets
from ghbounds import (EuclideanPointSet, FiniteMetricSpace, SubsetFamily,
                      SubsetRef, WindowSpec, as_subset, build_space, diam,
                      directed_hausdorff, gen_comb_set, gen_epsilon_net,
                      gen_lattice_window, hausdorff, induce_space,
                      nearest_point_correspondence,
                      neighborhood, scale, scale_points, set_distance)
from ghbounds import metric
from ghbounds.covers import _family_from_runs
from ghbounds.metric import planar_hausdorff
from ghbounds.errors import (DuplicatePoint, EmptySubset, IndexOutOfRange,
                             NegativeEntry, NonpositiveLambda, NonzeroDiagonal,
                             NotSymmetric, TriangleViolation, ZeroOffDiagonal)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# subset references

class TestSubsetRef:
    def test_sorts_and_dedups(self):
        s = SubsetRef([3, 1, 1, 2])
        assert s.indices == (1, 2, 3)
        assert len(s) == 3
        assert 2 in s and 0 not in s
        assert list(s) == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(EmptySubset):
            SubsetRef([])

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SubsetRef([0, 5], n=3)
        with pytest.raises(IndexOutOfRange):
            SubsetRef([-1])

    def test_check_ambient(self):
        s = SubsetRef([0, 4])
        s.check_ambient(5)
        with pytest.raises(IndexOutOfRange):
            s.check_ambient(4)

    def test_as_subset_passthrough(self):
        s = SubsetRef([0, 1])
        assert as_subset(s) is s
        assert as_subset([1, 0]).indices == (0, 1)
        assert as_subset(range(3)).indices == (0, 1, 2)

    def test_beyond_int64(self):
        with pytest.raises(OverflowError):
            SubsetRef([2 ** 70])
        with pytest.raises(IndexOutOfRange) as err:
            SubsetRef([0, 2 ** 70], n=4)
        assert (err.value.index, err.value.n) == (2 ** 70, 4)
        with pytest.raises(IndexOutOfRange) as err:
            SubsetRef(i for i in (2 ** 70, -2 ** 70))
        assert (err.value.index, err.value.n) == (-2 ** 70, 0)

    @pytest.mark.parametrize("values", [
        lambda: [0.7, True, 2.2], lambda: [1.5], lambda: [True], lambda: [0, False],
        lambda: [2.0], lambda: [np.float64(1.0)], lambda: [np.bool_(True)],
        lambda: np.array([0.5, 1.7]), lambda: np.array([1.0, 2.0]),
        lambda: np.array([True, False]), lambda: np.array([1, 2.5], dtype=object),
        lambda: (i for i in (1, 2.0)),
    ])
    def test_refuses_floats_and_booleans(self, values):
        # as the wire readers refuse them: a float or a boolean is no index, not truncated
        with pytest.raises(ValueError, match="indices must be integers"):
            SubsetRef(values())
        with pytest.raises(ValueError, match="indices must be integers"):
            as_subset(values(), 9)

    def test_numpy_integers_stay_accepted(self):
        assert SubsetRef([np.int64(3), np.int32(1), 2, np.uint8(0)]).indices == (0, 1, 2, 3)
        for dtype in (np.int8, np.int32, np.int64, np.uint16, np.uint64):
            assert SubsetRef(np.array([4, 1], dtype=dtype)).indices == (1, 4)
        assert SubsetRef(np.array([2, 0], dtype=object)).indices == (0, 2)

    def test_full(self):
        assert SubsetRef.full(5) == SubsetRef(range(5))
        assert SubsetRef.full(1).indices == (0,)
        with pytest.raises(EmptySubset):
            SubsetRef.full(0)


def _member_by_member(members, n):
    return tuple(SubsetRef(m, n) for m in members)


_INDEX = st.integers(min_value=-3, max_value=45)
_MEMBER = st.one_of(
    st.sets(_INDEX, min_size=1, max_size=8).map(sorted),           # the fast path
    st.lists(_INDEX, max_size=8),                                   # unsorted, duplicates, empty
    st.builds(lambda i: [i], _INDEX),                               # singletons
    st.builds(lambda a, k: list(range(a, a + k)),                   # large members
              st.integers(min_value=-2, max_value=40), st.integers(min_value=1, max_value=400)),
)
_INT_TYPES = st.sampled_from([int, np.int64, np.int32, np.intp])


class TestBatchedSubsets:
    """``SubsetFamily``'s members against ``SubsetRef`` member by member."""

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_MEMBER, _INT_TYPES), max_size=12),
           st.one_of(st.none(), st.integers(min_value=1, max_value=45)))
    def test_matches_member_by_member(self, typed_members, n):
        members = [[cast(i) for i in m] for m, cast in typed_members]
        want = outcome(lambda: _member_by_member(members, n))
        got = outcome(lambda: SubsetFamily("f", members, n).members)
        assert got == want
        if isinstance(want, tuple) and want and isinstance(want[0], SubsetRef):
            assert all(type(i) is int for s in got for i in s.indices)

    @pytest.mark.parametrize("members", [
        lambda: [[0, 2], [2 ** 70]],            # beyond int64: member-by-member path
        lambda: [[1.0, 0.0], [3.5]],            # a float is no index: ValueError
        lambda: [[0], [float("nan")]],          # int(nan) raises ValueError
        lambda: [[0], [None]],                  # TypeError from int(None)
        lambda: [[1], (i for i in (2, 0))],     # an unsized member
        lambda: [[], [-1]],                     # the first failing member wins
        lambda: [[5, -1], [99]],                # negative before out of range
    ])
    @pytest.mark.parametrize("n", [None, 4])
    def test_odd_inputs_match(self, members, n):
        want = outcome(lambda: _member_by_member(members(), n))
        assert outcome(lambda: SubsetFamily("f", members(), n).members) == want

    @pytest.mark.parametrize("members", [
        [[1.5, True], [2.9]], [[0], [1.0]], [[0, 1], [True]], [np.array([0.5, 1.7])],
        [[2], np.array([False])], [SubsetRef([1]), [np.float32(2)]],
    ])
    @pytest.mark.parametrize("n", [None, 4])
    def test_refuses_floats_and_booleans(self, members, n):
        with pytest.raises(ValueError, match="indices must be integers"):
            SubsetFamily("f", members, n)

    def test_runs_of_an_array(self):
        flat = np.array([0, 3, 7, 2, 2, 1, 9], dtype=np.intp)
        got = _family_from_runs("f", flat, np.array([3, 3, 1]), 10).members
        assert got == (SubsetRef((0, 3, 7)), SubsetRef((1, 2)), SubsetRef((9,)))
        assert _family_from_runs("f", flat[:0], np.array([], dtype=np.intp)).members == ()
        with pytest.raises(EmptySubset):
            _family_from_runs("f", flat, np.array([3, 0, 4]))
        with pytest.raises(IndexOutOfRange) as err:
            _family_from_runs("f", flat, np.array([3, 4]), 9)
        assert (err.value.index, err.value.n) == (9, 9)


_SUBSET = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8)


class TestSubsetRefValues:
    """``SubsetRef``'s value semantics against the sorted tuple of its distinct indices."""

    @settings(max_examples=300)
    @given(st.lists(_SUBSET, min_size=1, max_size=6),
           st.lists(st.integers(min_value=-3, max_value=45), max_size=8))
    def test_matches_sorted_tuples(self, runs, probes):
        want = [tuple(sorted(set(run))) for run in runs]
        fam = SubsetFamily("f", runs)
        views = fam.members  # slices of the family's one index array
        assert all(np.shares_memory(v.array, fam._index[0]) for v in views)
        sources = [np.array(run) for run in runs]
        built = [SubsetRef(src) for src in sources]
        for src in sources:
            src[:] = 0  # the subsets hold their own copies
        for refs in (built, views, [SubsetRef(run) for run in runs]):
            for s, w in zip(refs, want):
                assert s.indices == w and tuple(s) == w and len(s) == len(w)
                assert all(type(i) is int for i in s) and all(type(i) is int for i in s.indices)
                assert [p in s for p in probes] == [p in w for p in probes]
                assert s.array.dtype == np.int64 and not s.array.flags.writeable
                with pytest.raises(ValueError):
                    s.array[0] = 1  # read-only
                assert s != w  # a subset never equals a tuple
            for s, w in zip(refs, want):
                for t, v in zip(built, want):
                    assert (s == t) == (w == v)
                    if w == v:
                        assert hash(s) == hash(t)
        assert len(set(built) | set(views)) == len(set(want))


# ---------------------------------------------------------------------------
# matrix-backed spaces

class TestBuildSpace:
    def test_accepts_valid(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        assert isinstance(x, FiniteMetricSpace)
        assert x.n == 2 and x.d(0, 1) == 1.0

    def test_accepts_singleton(self):
        assert build_space([[0.0]]).n == 1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            build_space([[0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            build_space([[0.0, math.inf], [math.inf, 0.0]])

    def test_rejects_asymmetry(self):
        with pytest.raises(NotSymmetric):
            build_space([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            build_space([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            build_space([[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal):
            build_space([[0.0, 0.0], [0.0, 0.0]])

    def test_reports_first_triangle_violation(self):
        m = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        with pytest.raises(TriangleViolation) as ei:
            build_space(m)
        exc = ei.value
        assert (exc.i, exc.j, exc.k) == (0, 1, 2)
        assert exc.dik > exc.dij + exc.djk
        assert "(0,1,2)" in str(exc)

    def test_random_shortest_path_closures_pass(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            build_space(random_metric_matrix(rng, n))

    def test_block_matches_entries(self):
        rng = np.random.default_rng(1)
        x = random_space(rng, 6)
        rows, cols = [0, 3, 5], [1, 2]
        blk = x.block(rows, cols)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert blk[a, b] == x.d(i, j)


# ---------------------------------------------------------------------------
# point-backed spaces

class TestEuclideanPointSet:
    def test_distance_and_block(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
        assert pts.d(0, 1) == 5.0
        assert pts.d(0, 2) == SQRT2
        blk = pts.block([0], [1, 2])
        assert blk.shape == (1, 2)
        assert blk[0, 0] == 5.0

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePoint):
            EuclideanPointSet(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_points_that_are_not_pairs(self):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\), got \(3, 3\)"):
            EuclideanPointSet(np.eye(3))

    @pytest.mark.parametrize("kind", ["sorted", "reversed", "duplicated", "signed zeros", "shuffled"])
    def test_duplicate_check_matches_the_sort(self, kind):
        # the strictly-increasing fast path against the lexsort-only check
        rng = np.random.default_rng(3)
        pts = np.unique(rng.integers(-6, 7, (300, 2)).astype(float), axis=0)
        pts[pts == 0.0] = -0.0
        if kind == "reversed":
            pts = pts[::-1]
        elif kind == "duplicated":
            pts = np.insert(pts, 50, pts[49], axis=0)
        elif kind == "signed zeros":  # (0.0, 0.0) right after (-0.0, -0.0), which it equals
            k = int(np.flatnonzero((pts == 0.0).all(axis=1))[0])
            pts = np.insert(pts, k + 1, [0.0, 0.0], axis=0)
        elif kind == "shuffled":
            pts = np.vstack([pts, pts[:1]])[rng.permutation(len(pts) + 1)]

        def by_sort(p):
            order = np.lexsort((p[:, 1], p[:, 0]))
            same = np.nonzero((p[order][1:] == p[order][:-1]).all(axis=1))[0]
            if same.size:
                a, b = int(order[same[0]]), int(order[same[0] + 1])
                return min(a, b), max(a, b)
            return None

        try:
            metric._check_distinct(pts)
            got = None
        except DuplicatePoint as e:
            got = (e.i, e.j)
        assert got == by_sort(pts)
        assert (got is None) == (kind in ("sorted", "reversed"))

    def test_induce_space_agrees(self):
        rng = np.random.default_rng(2)
        pts = EuclideanPointSet(rng.uniform(-5, 5, size=(8, 2)))
        x = induce_space(pts)
        full = x.block(range(8), range(8))
        lazy = pts.block(range(8), range(8))
        assert np.allclose(full, lazy, atol=0)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_planar_distances_form_a_metric(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-50, 50, size=(n, 2)).astype(float)
        pts = np.unique(pts, axis=0)
        if len(pts) < 2:
            return
        induce_space(EuclideanPointSet(pts))  # build_space validation inside


# ---------------------------------------------------------------------------
# measurements

class TestMeasurements:
    def setup_method(self):
        self.pts = EuclideanPointSet(np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 0.0],
             [0.0, 2.0]]))

    def test_diam(self):
        assert diam(self.pts, [0]) == 0.0
        assert diam(self.pts, [0, 3]) == SQRT2
        assert diam(self.pts, [0, 1, 4]) == 5.0

    def test_set_distance(self):
        assert set_distance(self.pts, [0, 1], [1, 2]) == 0.0
        assert set_distance(self.pts, [0], [4, 5]) == 2.0

    def test_neighborhood_is_strict(self):
        hit = neighborhood(self.pts, [0], 1.1)
        assert hit.indices == (0, 1, 2)
        assert neighborhood(self.pts, [0], 1e-6).indices == (0,)
        assert len(neighborhood(self.pts, [0], 100.0)) == self.pts.n

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_neighborhood_radius_must_be_positive(self, r):
        with pytest.raises(ValueError, match="neighborhood radius must be positive"):
            neighborhood(self.pts, [0], r)

    def test_neighborhood_axis_pattern(self):
        grid = EuclideanPointSet(np.array(
            [[x, y] for x in range(-2, 3) for y in range(-2, 3)], dtype=float))
        origin = [i for i in range(grid.n)
                  if grid.points[i, 0] == 0 and grid.points[i, 1] == 0]
        hit = neighborhood(grid, origin, 1.1)
        got = {tuple(grid.points[i]) for i in hit.indices}
        assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_directed_hausdorff_asymmetry(self):
        a, b = [0], [0, 4]
        assert directed_hausdorff(self.pts, a, b) == 0.0
        assert directed_hausdorff(self.pts, b, a) == 5.0

    def test_hausdorff_basics(self):
        assert hausdorff(self.pts, [0, 1], [0, 1]) == 0.0
        assert hausdorff(self.pts, [0], [0, 4]) == 5.0
        assert hausdorff(self.pts, [0], [0, 4]) == hausdorff(self.pts, [0, 4], [0])

    def test_hausdorff_triangle_inequality(self):
        rng = np.random.default_rng(3)
        x = random_space(rng, 15)
        for _ in range(100):
            a = tuple(sorted(rng.choice(15, size=rng.integers(1, 16), replace=False)))
            b = tuple(sorted(rng.choice(15, size=rng.integers(1, 16), replace=False)))
            c = tuple(sorted(rng.choice(15, size=rng.integers(1, 16), replace=False)))
            hab, hbc, hac = (hausdorff(x, a, b), hausdorff(x, b, c),
                             hausdorff(x, a, c))
            assert hac <= hab + hbc + 1e-12

    def test_hausdorff_dominates_set_distance(self):
        rng = np.random.default_rng(4)
        x = random_space(rng, 12)
        for _ in range(50):
            a = tuple(sorted(rng.choice(12, size=rng.integers(1, 13), replace=False)))
            b = tuple(sorted(rng.choice(12, size=rng.integers(1, 13), replace=False)))
            assert set_distance(x, a, b) <= hausdorff(x, a, b) + 1e-12


# ---------------------------------------------------------------------------
# the grid nearest-point layer against the block scan

def _planar_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Query and target coordinates of one differential case."""
    n, m = int(rng.integers(1, 50)), int(rng.integers(1, 50))
    if kind == "integer":  # exact ties everywhere
        return rng.integers(-4, 5, (n, 2)).astype(float), rng.integers(-4, 5, (m, 2)).astype(float)
    if kind == "quarter":
        return rng.integers(-8, 9, (n, 2)) / 4.0, rng.integers(-8, 9, (m, 2)) / 4.0
    if kind == "edges":
        # s*s targets spanning [0, s]^2 give cells of side exactly 1, so
        # integer and half-integer queries sit on cell edges
        s = int(rng.integers(2, 7))
        cells = np.array([[x, y] for x in range(s + 1) for y in range(s + 1)], dtype=float)
        inner = cells[1:-1][rng.permutation(len(cells) - 2)[:s * s - 2]]
        return rng.integers(-2, 2 * s + 3, (n, 2)) / 2.0, np.vstack([cells[:1], inner, cells[-1:]])
    if kind == "collinear":
        t = rng.integers(-6, 7, m).astype(float)
        slope = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        target = np.column_stack([t, slope * t]) if rng.random() < 0.5 else np.column_stack([slope * t, t])
        return rng.integers(-8, 9, (n, 2)) / 2.0, target
    if kind == "sparse":  # grids of hundreds of cells: searches take several steps
        span = int(rng.integers(20, 60))
        target = rng.integers(-span, span + 1, (int(rng.integers(100, 400)), 2)).astype(float)
        return rng.integers(-span - 5, span + 6, (200, 2)).astype(float), target
    if kind == "single":
        return rng.uniform(-3, 3, (n, 2)), rng.integers(-2, 3, (1, 2)).astype(float)
    if kind == "clustered":  # tight clusters of targets: most first squares are empty and double
        centres = rng.uniform(-40, 40, (int(rng.integers(2, 5)), 2))
        target = (centres[:, None, :] + rng.normal(0.0, 0.3, (len(centres), 30, 2))).reshape(-1, 2)
        return rng.uniform(-50, 50, (200, 2)), target
    if kind == "far":  # queries well outside the target's bounding box
        far = rng.uniform(-1e3, 1e3, (n, 2))
        return np.vstack([far, far[:1] * 1e6]), rng.uniform(0.0, 1.0, (m, 2))
    # lattice merged with a net, the shape of the reproduce experiments
    w = WindowSpec(0.0, 3.0, 0.0, 3.0)
    net_step = float(rng.choice([0.25, 0.5, 0.75]))
    both, lat, net = merge_point_sets(gen_lattice_window(w), gen_epsilon_net(w, net_step))
    pts = both.points
    return pts[list(lat.indices)], pts[list(net.indices)]


PLANAR_KINDS = ("integer", "quarter", "edges", "collinear", "sparse", "clustered", "single", "far",
                "merged")


class TestRuns:
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 6)), max_size=12))
    def test_ragged_concatenates_the_ranges(self, runs):
        starts = np.array([s for s, _ in runs], dtype=np.int64)
        counts = np.array([c for _, c in runs], dtype=np.int64)
        want = np.concatenate([np.arange(s, s + c) for s, c in runs] + [np.zeros(0, np.int64)])
        got = metric._ragged(starts, counts)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @given(st.lists(st.integers(0, 9), max_size=30), st.integers(1, 12))
    def test_batches_cut_in_order_within_the_cap(self, weights, cap):
        cuts = list(metric._batches(np.array(weights, dtype=np.int64), cap))
        bounds = [0] + [b.stop for b in cuts]
        assert [b.start for b in cuts] == bounds[:-1] and bounds[-1] == len(weights)
        for b in cuts:  # as many items as fit, and at least one
            assert b.stop - b.start == 1 or sum(weights[b]) <= cap
            assert b.stop == len(weights) or sum(weights[b.start:b.stop + 1]) > cap


class TestGridNearest:
    @settings(max_examples=200)
    @given(st.sampled_from(PLANAR_KINDS), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    def test_matches_the_block_scan(self, kind, seed, tiny_batches):
        rng = np.random.default_rng(seed)
        q, t = _planar_case(kind, rng)
        ambient, inv = np.unique(np.vstack([q, t]), axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        a, b = sorted(set(inv[:len(q)].tolist())), sorted(set(inv[len(q):].tolist()))
        grid = EuclideanPointSet(ambient)
        block = induce_space(grid)  # matrix-backed: the chunked block path
        r = float(block.matrix[a[0], b[-1]]) or 1.0  # a real distance: ties with r
        gather = 3 if tiny_batches else metric._GATHER
        with mock.patch.object(metric, "_GATHER", gather):
            assert directed_hausdorff(grid, a, b) == directed_hausdorff(block, a, b)
            assert directed_hausdorff(grid, b, a) == directed_hausdorff(block, b, a)
            assert set_distance(grid, a, b) == set_distance(block, a, b)
            assert neighborhood(grid, b, r) == neighborhood(block, b, r)

            # nearest points of two separate sets, against a brute-force argmin
            qs, ts = EuclideanPointSet(np.unique(q, axis=0)), EuclideanPointSet(np.unique(t, axis=0))
            dx = qs.points[:, :1] - ts.points[:, 0]
            dy = qs.points[:, 1:] - ts.points[:, 1]
            d = np.sqrt(dx * dx + dy * dy)
            want = set(enumerate(d.argmin(axis=1).tolist()))
            want.update(zip(d.argmin(axis=0).tolist(), range(ts.n)))
            assert set(nearest_point_correspondence(qs, ts).pairs) == want

    def test_clustered_queries_take_every_branch(self):
        # some queries find a target in their first square, some only once it
        # doubled, and some scan every target, in either phase
        q, t = _planar_case("clustered", np.random.default_rng(0))
        calls, scanned = [], []
        cells, scan = metric._cells_nearest, metric._scan_nearest

        def spy_cells(grid, qs, c0, c1):
            out = cells(grid, qs, c0, c1)
            calls.append((qs.copy(), out[2]))  # the queries, and whether their cells held a target
            return out

        def spy_scan(block, n_rows, n_cols):
            scanned.append(n_rows)
            return scan(block, n_rows, n_cols)

        with mock.patch.object(metric, "_cells_nearest", spy_cells), \
                mock.patch.object(metric, "_scan_nearest", spy_scan):
            dist, pos = metric._grid_nearest(q, t)
        first = {tuple(p) for p, hit in zip(*calls[0]) if hit}
        missed = {tuple(p) for p, hit in zip(*calls[0]) if not hit}
        later = {tuple(p) for qs, hits in calls[1:] for p, hit in zip(qs, hits) if hit}
        assert first and missed & later and sum(scanned) > 0
        dx, dy = q[:, :1] - t[:, 0], q[:, 1:] - t[:, 1]
        d = np.sqrt(dx * dx + dy * dy)
        assert np.array_equal(pos, d.argmin(axis=1)) and np.array_equal(dist, d.min(axis=1))

    @pytest.mark.parametrize("gather", [None, 12])
    def test_small_blocks_scan_without_a_grid(self, gather):
        # q x p cells at the threshold scan at once; one more cell builds a grid
        gather = gather or metric._GATHER
        built, grid = [], metric._TargetGrid

        class Spy(grid):
            def __init__(self, *args, **kwargs):
                built.append(args[0].shape[0])
                super().__init__(*args, **kwargs)

        rng = np.random.default_rng(3)
        side = math.isqrt(gather)
        shapes = [(side, gather // side), (1, gather), (gather, 1),  # at the threshold
                  (side, gather // side + 1), (1, gather + 1), (gather + 1, 1)]  # past it
        for n, m in shapes:
            # integer points with many equal distances, and signed zeros
            q = rng.integers(-3, 4, (n, 2)) * rng.choice([-0.0, 0.5, 1.0], (n, 2))
            t = rng.integers(-3, 4, (m, 2)) * rng.choice([-0.0, 0.5, 1.0], (m, 2))
            built.clear()
            with mock.patch.object(metric, "_TargetGrid", Spy), \
                    mock.patch.object(metric, "_GATHER", gather):
                dist, pos = metric._grid_nearest(q, t)
            assert built == ([] if n * m <= gather else [m])
            dx, dy = q[:, :1] - t[:, 0], q[:, 1:] - t[:, 1]
            d = np.sqrt(dx * dx + dy * dy)
            assert np.array_equal(pos, d.argmin(axis=1))  # ties to the smallest position
            assert dist.tobytes() == d.min(axis=1).tobytes()
            # the largest nearest distance follows the same rule: past it, a grid of targets
            # and one of queries
            built.clear()
            with mock.patch.object(metric, "_TargetGrid", Spy), \
                    mock.patch.object(metric, "_GATHER", gather):
                worst = metric._grid_max_nearest(q, t)
            assert built == ([] if n * m <= gather else [m, n])
            assert np.float64(worst).tobytes() == dist.max().tobytes()

    @pytest.mark.parametrize("kind", ["quarter", "edges", "largest float", "subnormal"])
    def test_cell_of_matches_the_rows_expression(self, kind):
        rng = np.random.default_rng(9)
        if kind == "quarter":
            t = np.unique(rng.integers(-8, 9, (40, 2)) / 4.0, axis=0)
        elif kind == "edges":  # 4 x 4 targets over [0, 4]^2: cells of side exactly 1
            t = np.array([[x, y] for x in (0, 4 / 3, 8 / 3, 4) for y in (0, 4 / 3, 8 / 3, 4)])
        elif kind == "largest float":
            t = np.array([[-1e308, -1e308], [1e308, 1e308], [0.0, 1e308], [1e308, -0.0]])
        else:
            t = rng.integers(-20, 21, (30, 2)) * 5e-324
        half = np.arange(-2, 11) / 2.0  # cell edges and centres of the unit grid
        extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
                    1.7976931348623157e308, -1.7976931348623157e308]
        v = np.vstack([rng.integers(-12, 13, (200, 2)) / 4.0,
                       np.array([[x, y] for x in half for y in half]),
                       np.array([[x, y] for x in extremes for y in extremes]),
                       t, t * 0.5])
        with np.errstate(over="ignore"):  # far points overflow to infinite cells, then clamp
            grid = metric._TargetGrid(t)
            got, want = np.column_stack(grid.cell_of(v[:, 0], v[:, 1])), cell_of_rows(grid, v)
        assert np.array_equal(grid.lo, t.min(axis=0)) and np.array_equal(grid.hi, t.max(axis=0))
        assert kind != "edges" or grid.h == 1.0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", PLANAR_KINDS)
    def test_cell_distances_do_not_depend_on_positions(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(5):
            q, t = _planar_case(kind, rng)
            grid = metric._TargetGrid(t)
            cx, cy = grid.cell_of(q[:, 0], q[:, 1])
            r = rng.integers(0, 3, q.shape[0])
            c0 = np.maximum(cx - r, 0), np.maximum(cy - r, 0)
            c1 = np.minimum(cx + r + 1, grid.nx), np.minimum(cy + r + 1, grid.ny)
            for gather in (metric._GATHER, 7):
                with mock.patch.object(metric, "_GATHER", gather):
                    d, pos, hit = metric._cells_nearest(grid, q, c0, c1)
                    d2, pos2, hit2 = metric._cells_nearest(grid, q, c0, c1, positions=False)
                assert d.tobytes() == d2.tobytes() and np.array_equal(hit, hit2) and pos2 is None
                dx, dy = q[:, :1] - t[:, 0], q[:, 1:] - t[:, 1]
                assert np.all(d[hit] >= np.sqrt(dx * dx + dy * dy).min(axis=1)[hit])

    def test_nearest_is_exact_on_the_comb_shape(self):
        # vertical lines and an axis against a fine net: many exact ties at 0.5
        lines = np.array([[x, 0.05 * y] for x in range(7) for y in range(-60, 61)])
        net = np.array([[0.05 * x, 0.05 * y] for x in range(121) for y in range(-60, 61, 4)])
        for q, t in ((net, lines), (lines, net)):
            dist, pos = metric._grid_nearest(q, t)
            for rows in (slice(0, len(q) // 2), slice(len(q) // 2, len(q))):
                dx = q[rows, :1] - t[:, 0]
                dy = q[rows, 1:] - t[:, 1]
                d = np.sqrt(dx * dx + dy * dy)
                assert np.array_equal(pos[rows], d.argmin(axis=1))
                assert np.array_equal(dist[rows], d.min(axis=1))


# ---------------------------------------------------------------------------
# the cell-bounded directed Hausdorff scan against the block scan

def _pruning_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Queries and targets of one case, with 400 or more queries unless the kind says otherwise."""
    if kind == "comb":  # vertical lines at tenths against a net: many ties at the maximum
        lines = np.array([[x, 0.1 * y] for x in range(8) for y in range(-40, 41)])
        step = float(rng.choice([0.2, 0.25, 0.3]))
        net = np.array([[step * x, step * y] for x in range(int(7 / step) + 1)
                        for y in range(-int(4 / step), int(4 / step) + 1)])
        return lines, net
    if kind == "integer":  # sparse integer points: exact ties
        pts = rng.permutation(np.array([[x, y] for x in range(-40, 41) for y in range(-40, 41)]))
        return pts[:600].astype(float), pts[600:750].astype(float)
    if kind == "clustered":
        centres = rng.uniform(-50, 50, (4, 2))
        target = (centres[:, None, :] + rng.normal(0.0, 0.5, (4, 40, 2))).reshape(-1, 2)
        return rng.uniform(-60, 60, (700, 2)), target
    if kind == "collinear":  # every query cell is a segment
        t = rng.uniform(-20, 20, 600)
        slope = float(rng.choice([0.0, 1.0, 3.0]))
        q = np.column_stack([t, slope * t]) if rng.random() < 0.5 else np.column_stack([slope * t, t])
        return q, rng.uniform(-20, 20, (200, 2))
    if kind == "far":  # queries 1e6 outside the target's bounding box
        return 1e6 + rng.uniform(0.0, 30.0, (600, 2)), rng.uniform(0.0, 1.0, (150, 2))
    if kind == "one cell":  # too few queries for more than one cell
        return rng.uniform(0.0, 1.0, (int(rng.integers(1, 5)), 2)), rng.uniform(-2, 2, (300, 2))
    if kind == "largest float":  # a column at x = 1e308: corner sums overflow, and the
        # rounding allowance there keeps every cell, so 240 queries keep it quick
        ys = rng.permutation(np.arange(-150.0, 150.0))
        return np.column_stack([np.full(240, 1e308), ys[:240]]), np.column_stack([np.full(60, 1e308), ys[240:]])
    if kind == "tiny scale":  # squared differences are subnormal: rounding is absolute
        scale = 10.0 ** -rng.uniform(160.0, 162.0)
        return rng.uniform(0, 1, (400, 2)) * scale, rng.uniform(0, 1, (400, 2)) * scale
    # signed zeros: queries on the y axis at x = -0.0, targets on the x axis at y = -0.0
    ys = rng.permutation(550) / 8.0
    q = np.vstack([np.column_stack([np.full(ys.size, -0.0), ys]), rng.uniform(-5, 5, (50, 2))])
    xs = np.unique(rng.integers(-60, 61, 120)) / 8.0
    return q, np.column_stack([xs, np.full(xs.size, -0.0)])


PRUNING_KINDS = ("comb", "integer", "clustered", "collinear", "far", "one cell", "signed zeros",
                 "tiny scale", "largest float")


def _grouped_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Queries, the starts of their runs and targets; any grouping of queries into runs works.

    Rays through the one target make the triangle inequality tight, so
    rounding decides, and far out the rounding of each centre is large
    against the distances.
    """
    if kind.startswith("rays"):
        t = rng.uniform(-3, 3, (1, 2)) + (1e6 if kind == "rays far out" else 0.0)
        angle = rng.uniform(0.0, 2 * math.pi, 300)
        along = rng.uniform(1.0, 2.0, (300, 4))
        ray = np.column_stack([np.cos(angle), np.sin(angle)])
        q = (t + along[:, :, None] * ray[:, None, :]).reshape(-1, 2)  # four per ray, consecutive
        return q, np.arange(0, len(q), 4), t
    q, t = _pruning_case(kind, rng)
    q = q[rng.permutation(len(q))]
    return q, np.flatnonzero(np.concatenate([[True], rng.random(len(q) - 1) < 0.2])), t


def _bounded_runs(q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, metric._TargetGrid]:
    """The query runs, their starts and the target grid that ``_grid_max_nearest`` bounds."""
    seen, bounds = [], metric._cell_bounds

    def spy(qs, starts, targets):
        seen.append((qs, starts, targets))
        return bounds(qs, starts, targets)

    with mock.patch.object(metric, "_cell_bounds", spy):
        metric._grid_max_nearest(q, t)
    return seen[0]


def _exact_centre_bounds(qs: np.ndarray, starts: np.ndarray, grid: metric._TargetGrid) -> np.ndarray:
    """Each run's bound from its centre's exact nearest distance."""
    centre, rho, scale = metric._cell_boxes(qs, starts, grid)
    return metric._widen(metric._grid_search(grid, centre)[0] + rho, scale)


class TestBoundedDirectedHausdorff:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", PRUNING_KINDS)
    def test_matches_the_block_scan(self, kind, seed):
        q, t = _pruning_case(kind, np.random.default_rng(seed))
        # one ambient without np.unique, which would merge -0.0 into 0.0
        t = t[~(t[:, None, :] == q[None, :, :]).all(axis=2).any(axis=1)]
        grid = EuclideanPointSet(np.vstack([q, t]))
        block = induce_space(grid)  # matrix-backed: the chunked block path
        a, b = range(len(q)), range(len(q), grid.n)
        # also with batches of a few pairs, whose edges split the query cells
        for gather in (metric._GATHER, 7):
            with mock.patch.object(metric, "_GATHER", gather):
                assert directed_hausdorff(grid, a, b) == directed_hausdorff(block, a, b)
                assert directed_hausdorff(grid, b, a) == directed_hausdorff(block, b, a)
                assert metric._grid_max_nearest(q, t) == float(metric._grid_nearest(q, t)[0].max())
                # queries that are also targets, some or all of them
                shared = [*a[::2], *b[::3]]
                assert directed_hausdorff(grid, shared, b) == directed_hausdorff(block, shared, b)
                assert directed_hausdorff(grid, b[::3], b) == directed_hausdorff(block, b[::3], b) == 0.0

    def test_subnormal_squares_match_the_block_scan(self):
        # squares this small are subnormal: the bounds must cover absolute rounding
        rng = np.random.default_rng(210)
        q = rng.uniform(0, 1, (400, 2)) * 1e-160
        p = rng.uniform(0, 1, (400, 2)) * 1e-160
        grid = EuclideanPointSet(np.vstack([q, p]))
        a, b = range(400), range(400, 800)
        assert directed_hausdorff(grid, a, b) == directed_hausdorff(induce_space(grid), a, b)

    def test_overflowing_extents_match_the_block_scan(self):
        # points at x = +-1e308: box extents and distances overflow, so
        # bounds and reaches are inf
        ys = np.arange(100.0)
        grid = EuclideanPointSet(np.column_stack([np.where(ys % 2 == 0, 1e308, -1e308), ys]))
        with np.errstate(over="ignore"):
            block = induce_space(grid)
            for a, b in ((range(1, 100), [0]), (range(0, 100, 3), range(1, 100, 3))):
                for gather in (metric._GATHER, 7):
                    with mock.patch.object(metric, "_GATHER", gather):
                        assert directed_hausdorff(grid, a, b) == directed_hausdorff(block, a, b)

    def test_pruning_skips_most_queries_on_the_comb(self):
        # net against comb: most query cells are bounded below the maximum
        lines = np.array([[x, 0.1 * y] for x in range(8) for y in range(-40, 41)])
        net = np.array([[0.1 * x, 0.1 * y] for x in range(71) for y in range(-40, 41) if x % 10])
        solved = []
        search, solve = metric._grid_search, metric._solve_cells

        def spy(grid, qs):
            solved.append(len(qs))
            return search(grid, qs)

        def spy_cells(grid, qs, *args):
            solved.append(len(qs))
            return solve(grid, qs, *args)

        with mock.patch.object(metric, "_grid_search", spy), \
                mock.patch.object(metric, "_solve_cells", spy_cells):
            got = metric._grid_max_nearest(net, lines)
        assert got == float(metric._grid_nearest(net, lines)[0].max())
        # the seed cell and the kept cells' queries, and any cell centre with
        # no target in its square of cells (the other centres' bounds are
        # square gathers, which measure no query)
        assert sum(solved) < len(net) / 2

    @pytest.mark.parametrize("kind", ["rays", "rays far out", "comb", "collinear", "far", "tiny scale",
                                      "integer", "clustered", "signed zeros", "largest float"])
    def test_cell_bound_covers_every_computed_distance(self, kind):
        q, starts, t = _grouped_case(kind, np.random.default_rng(11))
        ub = metric._cell_bounds(q, starts, metric._TargetGrid(t))
        dist = metric._grid_nearest(q, t)[0]
        owner = np.searchsorted(starts, np.arange(len(q)), side="right") - 1
        assert (dist <= ub[owner]).all()
        # batches of one or two squares give the same bounds
        with mock.patch.object(metric, "_GATHER", 7):
            assert np.array_equal(metric._cell_bounds(q, starts, metric._TargetGrid(t)), ub)

    @pytest.mark.parametrize("kind", PRUNING_KINDS)
    def test_cell_bound_is_at_least_the_exact_centre_bound(self, kind):
        # a target in the centre's square is no nearer than its nearest one
        q, starts, t = _grouped_case(kind, np.random.default_rng(12))
        grid = metric._TargetGrid(t)
        exact = _exact_centre_bounds(q, starts, grid)
        for gather in (metric._GATHER, 7):
            with mock.patch.object(metric, "_GATHER", gather):
                assert (metric._cell_bounds(q, starts, grid) >= exact).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_comb_bound_keeps_the_exact_centre_bounds_cells(self, seed):
        lines, net = _pruning_case("comb", np.random.default_rng(seed))
        searched, search = [], metric._grid_search

        def spy(grid, qs):
            searched.append(len(qs))
            return search(grid, qs)

        # lines -> net keeps every cell; net -> lines, as in the comb experiment, prunes
        for q, t in ((lines, net), (net, lines)):
            qs, starts, grid = _bounded_runs(q, t)
            with mock.patch.object(metric, "_grid_search", spy):
                ub = metric._cell_bounds(qs, starts, grid)
            whole = float(metric._grid_nearest(q, t)[0].max())
            assert np.array_equal(ub > whole, _exact_centre_bounds(qs, starts, grid) > whole)
        # every centre's square of cells holds a target: no exact search
        assert searched == []

    def test_cell_bound_takes_both_branches_on_clusters(self):
        # centres far from the four clusters have empty squares of cells
        q, t = _pruning_case("clustered", np.random.default_rng(0))
        qs, starts, grid = _bounded_runs(q, t)
        searched, search = [], metric._grid_search

        def spy(grid, qs):
            searched.append(len(qs))
            return search(grid, qs)

        with mock.patch.object(metric, "_grid_search", spy):
            metric._cell_bounds(qs, starts, grid)
        assert len(searched) == 1 and 0 < searched[0] < starts.size

    @pytest.mark.parametrize("kind", ["rays", "rays far out", "comb", "tiny scale"])
    def test_disc_holds_every_computed_nearest_target(self, kind):
        # the gather and the disc filter of each run keep its queries' nearest targets
        q, starts, t = _grouped_case(kind, np.random.default_rng(11))
        grid = metric._TargetGrid(t)
        # each query is within rho of its run's centre, and its nearest target within ub of it
        centre, rho, scale = metric._cell_boxes(q, starts, grid)
        reach = metric._widen(metric._cell_bounds(q, starts, grid) + rho, scale)
        order = grid.buckets()[0]
        owner = np.searchsorted(starts, np.arange(len(q)), side="right") - 1
        nearest = metric._grid_nearest(q, t)[1]
        # also with batches of a few targets, one or two runs each
        for gather in (metric._GATHER, 7):
            with mock.patch.object(metric, "_GATHER", gather):
                kept = {(b.start + k, int(order[c])) for b, cand, ks in metric._disc_gather(grid, centre, reach)
                        for c, k in zip(cand, ks.tolist())}
            assert all(pair in kept for pair in zip(owner.tolist(), nearest.tolist()))

    def test_a_bound_that_ties_the_maximum_is_not_solved(self):
        # with the seed cell holding the maximum and every other cell bounded
        # by exactly that value, only the seed cell's queries are solved
        rng = np.random.default_rng(5)
        q, t = rng.uniform(0, 10, (400, 2)), rng.uniform(0, 10, (100, 2))
        whole = float(metric._grid_nearest(q, t)[0].max())
        seed_size, solved = [], []

        def tied(qs, starts, targets):
            dx, dy = qs[:, :1] - t[:, 0], qs[:, 1:] - t[:, 1]
            cell_max = np.maximum.reduceat(np.sqrt(dx * dx + dy * dy).min(axis=1), starts)
            seed = int(np.argmax(cell_max))
            seed_size.append(int(np.diff(np.append(starts, len(qs)))[seed]))
            ub = np.full(starts.size, whole)
            ub[seed] = 2 * whole
            return ub

        search, solve = metric._grid_search, metric._solve_cells

        def spy(grid, qs):
            solved.append(len(qs))
            return search(grid, qs)

        def spy_cells(grid, qs, *args):
            solved.append(len(qs))
            return solve(grid, qs, *args)

        with mock.patch.object(metric, "_cell_bounds", tied), \
                mock.patch.object(metric, "_grid_search", spy), \
                mock.patch.object(metric, "_solve_cells", spy_cells):
            assert metric._grid_max_nearest(q, t) == whole
        # the seed cell's queries only: no kept cell reaches _solve_cells
        assert solved == seed_size


# ---------------------------------------------------------------------------
# two planar sets without a merged ambient, against the merged one

def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The first copy of each row (-0.0 and 0.0 equal), in a's order."""
    _, first = np.unique(a, axis=0, return_index=True)
    return a[np.sort(first)]


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def _assert_planar_matches_the_merge(x: np.ndarray, y: np.ndarray) -> None:
    """planar_hausdorff and both _planar_directed directions equal the merged ambient's, by bits."""
    xs, ys = EuclideanPointSet(x), EuclideanPointSet(y)
    merged, sa, sb = merge_point_sets(xs, ys)
    for gather in (metric._GATHER, 7):
        with mock.patch.object(metric, "_GATHER", gather):
            ab, ba = directed_hausdorff(merged, sa, sb), directed_hausdorff(merged, sb, sa)
            assert _bits(metric._planar_directed(xs.points, ys.points)) == _bits(ab)
            assert _bits(metric._planar_directed(ys.points, xs.points)) == _bits(ba)
            assert _bits(planar_hausdorff(xs, ys)) == _bits(max(ab, ba))
            # both paths drop shared queries; the exact scan of every query does not
            assert _bits(ab) == _bits(metric._grid_nearest(xs.points, ys.points)[0].max())
            assert _bits(ba) == _bits(metric._grid_nearest(ys.points, xs.points)[0].max())


class TestPlanarHausdorff:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PLANAR_KINDS), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    def test_matches_the_merged_ambient(self, kind, seed, shuffle):
        rng = np.random.default_rng(seed)
        x, y = (_distinct_rows(a) for a in _planar_case(kind, rng))
        if shuffle:  # unsorted targets take the sort before the search
            x, y = x[rng.permutation(len(x))], y[rng.permutation(len(y))]
        _assert_planar_matches_the_merge(x, y)

    @pytest.mark.parametrize("kind", PRUNING_KINDS)
    def test_pruning_cases_match_the_merged_ambient(self, kind):
        q, t = _pruning_case(kind, np.random.default_rng(3))
        # -0.0 equals 0.0: drop from t what q already holds, as the merge would
        t = t[~(t[:, None, :] == q[None, :, :]).all(axis=2).any(axis=1)]
        _assert_planar_matches_the_merge(q, t)

    def test_one_set_inside_the_other(self):
        rng = np.random.default_rng(11)
        x = _distinct_rows(rng.integers(-20, 21, (300, 2)) / 4.0)
        y = x[rng.permutation(len(x))[:40]]
        assert metric._planar_directed(y, x) == 0.0
        assert metric._planar_directed(x, x[::-1].copy()) == 0.0
        _assert_planar_matches_the_merge(x, y)
        _assert_planar_matches_the_merge(y, x)
        _assert_planar_matches_the_merge(x, x[::-1].copy())
        # only the queries outside the unsorted targets are measured
        seen, inner = [], metric._grid_max_nearest
        with mock.patch.object(metric, "_grid_max_nearest", lambda q, p: seen.append(len(q)) or inner(q, p)):
            metric._planar_directed(x, y)
        assert seen == [len(x) - len(y)]

    def test_single_points(self):
        one, other = np.array([[0.5, -2.0]]), np.array([[3.5, 2.0]])
        assert planar_hausdorff(EuclideanPointSet(one), EuclideanPointSet(other)) == 5.0
        _assert_planar_matches_the_merge(one, other)
        _assert_planar_matches_the_merge(one, one.copy())
        many = np.random.default_rng(12).uniform(-3, 3, (50, 2))
        _assert_planar_matches_the_merge(one, many)
        _assert_planar_matches_the_merge(many, np.vstack([many[7:8], one]))

    def test_signed_zeros_are_one_point(self):
        x = np.array([[-0.0, 1.0], [2.0, -0.0], [0.0, 3.0], [-0.0, -0.0], [4.0, 4.0]])
        y = np.array([[0.0, 1.0], [2.0, 0.0], [-0.0, 3.0], [0.0, 0.0], [1.0, 1.0]])
        assert metric._planar_directed(x[:4].copy(), y) == 0.0
        assert metric._planar_directed(y[:4].copy(), x) == 0.0
        _assert_planar_matches_the_merge(x, y)
        _assert_planar_matches_the_merge(y[::-1].copy(), x)

    def test_points_near_the_largest_float(self):
        ys = np.arange(100.0)
        x = np.column_stack([np.where(ys % 2 == 0, 1e308, -1e308), ys])
        with np.errstate(over="ignore"):
            _assert_planar_matches_the_merge(x, x[::3].copy())  # one direction 0.0
            _assert_planar_matches_the_merge(x[1::2].copy(), x[::2].copy())  # both inf
            _assert_planar_matches_the_merge(x[::2].copy(), np.array([[1e308, 0.5], [1.7e308, 99.0]]))


def _traced(fn):
    """fn() and the tracemalloc peak in MB of the memory it allocated."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Chunked distance kernels keep a bounded heap, whatever the input size."""

    def test_comb_hausdorff(self):
        # the comb experiment at window 12: 3,361 comb points against a 58,081-point net
        w = WindowSpec(0.0, 12.0, -6.0, 6.0)
        comb, net = gen_comb_set(w, 0.05), gen_epsilon_net(w, 0.05)
        value, peak = _traced(lambda: planar_hausdorff(comb, net))
        assert value == 0.5
        assert peak < 8.0

    def test_planar_diam(self):
        pts = EuclideanPointSet(np.random.default_rng(30).uniform(0.0, 1.0, (3000, 2)))
        every = SubsetRef.full(pts.n)
        value, peak = _traced(lambda: diam(pts, every))
        assert peak < 16.0
        assert value == diam(induce_space(pts), every)


# ---------------------------------------------------------------------------
# scaling

class TestScaling:
    def test_scale_matrix(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        y = scale(x, 2.0)
        assert y.d(0, 1) == 2.0
        assert scale(x, 1.0).d(0, 1) == 1.0

    def test_scale_points_exact_roundtrip(self):
        rng = np.random.default_rng(5)
        pts = EuclideanPointSet(rng.uniform(-3, 3, size=(10, 2)))
        doubled = scale_points(pts, 2.0)
        back = scale_points(doubled, 0.5)
        assert np.array_equal(back.points, pts.points)

    def test_scale_scales_diameter(self):
        rng = np.random.default_rng(6)
        x = random_space(rng, 9)
        assert diam(scale(x, 3.0), range(9)) == pytest.approx(3.0 * diam(x, range(9)))

    def test_rejects_nonpositive(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonpositiveLambda):
            scale(x, 0.0)
        with pytest.raises(NonpositiveLambda):
            scale_points(EuclideanPointSet(np.zeros((1, 2))), -2.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_nonfinite(self, lam):
        # a matrix times nan or inf would hold nan with no error
        with pytest.raises(NonpositiveLambda, match="must be positive and finite"):
            scale(build_space([[0.0, 1.0], [1.0, 0.0]]), lam)
        with pytest.raises(NonpositiveLambda, match="must be positive and finite"):
            scale_points(EuclideanPointSet(np.ones((1, 2))), lam)

