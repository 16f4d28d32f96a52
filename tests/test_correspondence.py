"""Correspondences, distortion, the enumeration oracle, and the exact solver."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from conftest import random_correspondence, random_space
from ghbounds import (Correspondence, EuclideanPointSet, Relation, WindowSpec,
                      build_space, diam, distortion, exact_gh, gen_epsilon_net,
                      gen_lattice_window, gh_upper_bound_from_correspondence,
                      hausdorff, nearest_point_correspondence,
                      pushforward, scale)
from ghbounds.errors import EmptyImage, EmptyRelation, IndexOutOfRange, NotACorrespondence
from oracles import (SizeCapExceeded, count_correspondences, enumerate_correspondences,
                     exact_gh_row_subsets, merge_point_sets, min_distortion_bruteforce)


# ---------------------------------------------------------------------------
# relations and correspondences

class TestRelation:
    def test_sorts_and_dedups(self):
        rel = Relation([(1, 0), (0, 1), (1, 0)])
        assert rel.pairs == ((0, 1), (1, 0))

    def test_rejects_empty(self):
        with pytest.raises(EmptyRelation):
            Relation(())

    def test_check_ranges(self):
        rel = Relation([(0, 2)])
        rel.check_ranges(1, 3)
        with pytest.raises(IndexOutOfRange):
            rel.check_ranges(1, 2)

    def test_check_ranges_names_an_x_index_past_nx(self):
        with pytest.raises(IndexOutOfRange) as ei:
            Relation([(0, 0), (2, 0)]).check_ranges(2, 1)
        assert (ei.value.index, ei.value.n) == (2, 2)


class TestCorrespondence:
    def test_accepts_full_product(self):
        c = Correspondence([(i, j) for i in range(2) for j in range(3)], 2, 3)
        assert len(c.pairs) == 6

    def test_rejects_empty(self):
        with pytest.raises(EmptyRelation):
            Correspondence((), 0, 0)

    def test_rejects_unmatched_x(self):
        with pytest.raises(NotACorrespondence, match="x-index 1"):
            Correspondence([(0, 0), (0, 1)], 2, 2)

    def test_rejects_unmatched_y(self):
        with pytest.raises(NotACorrespondence, match="y-index 1"):
            Correspondence([(0, 0), (1, 0)], 2, 2)


# ---------------------------------------------------------------------------
# distortion and pushforward

class TestDistortion:
    def test_identity_has_zero_distortion(self):
        rng = np.random.default_rng(0)
        x = random_space(rng, 5)
        ident = Correspondence([(i, i) for i in range(5)], 5, 5)
        assert distortion(x, x, ident) == 0.0

    def test_collapse_to_point_costs_the_diameter(self):
        rng = np.random.default_rng(1)
        y = random_space(rng, 6)
        point = build_space([[0.0]])
        full = Correspondence([(0, j) for j in range(6)], 1, 6)
        assert distortion(point, y, full) == diam(y, range(6))

    def test_two_point_lines(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        y = build_space([[0.0, 3.0], [3.0, 0.0]])
        ident = Correspondence([(0, 0), (1, 1)], 2, 2)
        assert distortion(x, y, ident) == 2.0

    def test_range_validation(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(IndexOutOfRange):
            distortion(x, x, Relation([(0, 5)]))


class TestPushforward:
    def test_image_of_identity(self):
        ident = Relation([(i, i) for i in range(4)])
        assert pushforward(ident, [1, 3]).indices == (1, 3)

    def test_image_merges_fibers(self):
        rel = Relation([(0, 1), (0, 2), (1, 0)])
        assert pushforward(rel, [0]).indices == (1, 2)
        assert pushforward(rel, [0, 1]).indices == (0, 1, 2)

    def test_empty_image_raises(self):
        rel = Relation([(0, 0)])
        with pytest.raises(EmptyImage):
            pushforward(rel, [3])


# ---------------------------------------------------------------------------
# enumeration (the oracle itself is cross-checked against a closed form)

def count_by_inclusion_exclusion(nx: int, ny: int) -> int:
    """Number of relations with surjective projections, counted directly."""
    total = 0
    for i in range(nx + 1):
        for j in range(ny + 1):
            total += ((-1) ** (i + j) * comb(nx, i) * comb(ny, j)
                      * 2 ** ((nx - i) * (ny - j)))
    return total


class TestEnumeration:
    def test_singleton_pairings(self):
        assert count_correspondences(1, 1) == 1
        assert count_correspondences(1, 4) == 1
        only = list(enumerate_correspondences(1, 3))
        assert len(only) == 1
        assert only[0].pairs == ((0, 0), (0, 1), (0, 2))

    def test_two_by_two_has_seven(self):
        got = list(enumerate_correspondences(2, 2))
        assert len(got) == 7
        assert count_correspondences(2, 2) == 7
        # ascending bitmask order: the antidiagonal matching comes first
        assert got[0].pairs == ((0, 1), (1, 0))

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
                                       (2, 4), (4, 2)])
    def test_counts_match_closed_form(self, nx, ny):
        assert count_correspondences(nx, ny) == count_by_inclusion_exclusion(nx, ny)
        assert sum(1 for _ in enumerate_correspondences(nx, ny)) == \
            count_by_inclusion_exclusion(nx, ny)

    def test_every_enumerated_relation_is_a_correspondence(self):
        for c in enumerate_correspondences(2, 3):
            assert {i for i, _ in c.pairs} == {0, 1}
            assert {j for _, j in c.pairs} == {0, 1, 2}

    def test_refuses_oversized_grids(self):
        with pytest.raises(SizeCapExceeded):
            list(enumerate_correspondences(6, 5))
        with pytest.raises(SizeCapExceeded):
            min_distortion_bruteforce(random_space(np.random.default_rng(2), 6),
                                      random_space(np.random.default_rng(3), 5))


# ---------------------------------------------------------------------------
# the exact solver

class TestExactGh:
    def test_identical_spaces_are_at_distance_zero(self):
        rng = np.random.default_rng(4)
        x = random_space(rng, 4)
        res = exact_gh(x, x)
        assert res.value == 0.0 and res.optimal

    def test_point_against_spread(self):
        rng = np.random.default_rng(5)
        y = random_space(rng, 4)
        res = exact_gh(build_space([[0.0]]), y)
        assert res.value == diam(y, range(4)) / 2.0

    def test_two_point_spaces(self):
        x = build_space([[0.0, 2.0], [2.0, 0.0]])
        y = build_space([[0.0, 5.0], [5.0, 0.0]])
        assert exact_gh(x, y).value == 1.5

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_space(rng, int(rng.integers(1, 5)), integer=True)
            b = random_space(rng, int(rng.integers(1, 5)), integer=True)
            assert exact_gh(a, b).value == exact_gh(b, a).value

    def test_scaling_bounds_the_distance(self):
        rng = np.random.default_rng(7)
        x = random_space(rng, 4)
        y = scale(x, 2.0)
        res = exact_gh(x, y)
        assert res.value <= diam(x, range(4)) / 2.0 + 1e-12
        assert res.value >= (diam(y, range(4)) - diam(x, range(4))) / 2.0 - 1e-12

    def test_witness_distortion_matches_value(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = random_space(rng, int(rng.integers(1, 5)))
            b = random_space(rng, int(rng.integers(1, 5)))
            res = exact_gh(a, b)
            assert res.optimal
            assert distortion(a, b, res.correspondence) == res.dis

    def test_witness_is_lexicographically_least_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_space(rng, 3, integer=True)
            b = random_space(rng, 3, integer=True)
            res = exact_gh(a, b)
            best = res.dis
            optimal_pairs = [c.pairs for c in enumerate_correspondences(3, 3)
                             if distortion(a, b, c) <= best]
            assert res.dis == min(distortion(a, b, Correspondence(p, 3, 3))
                                  for p in optimal_pairs)
            assert res.correspondence.pairs == min(optimal_pairs)

    def test_budget_exhaustion_returns_upper_bound(self):
        rng = np.random.default_rng(10)
        a = random_space(rng, 6)
        b = random_space(rng, 6)
        res = exact_gh(a, b, budget=3)
        assert not res.optimal
        assert res.value >= exact_gh(a, b).value
        assert distortion(a, b, res.correspondence) == res.dis

    def test_budget_exit_reports_the_witness_distortion(self):
        # the last feasible threshold here is 0.4337073272915658, but the
        # witness that probe returned has a smaller distortion
        rng = np.random.default_rng(0)
        n1, n2 = rng.integers(4, 8, 2)
        x = EuclideanPointSet(rng.uniform(0, 1, (n1, 2)))
        y = EuclideanPointSet(rng.uniform(0, 1, (n2, 2)))
        res = exact_gh(x, y, budget=100)
        assert (x.n, y.n) == (7, 6)
        assert not res.optimal
        assert res.dis == distortion(x, y, res.correspondence) == 0.4318168208598113
        assert res.value >= exact_gh(x, y).value

    @pytest.mark.parametrize("k, want", [(1, 0.15842961892571206),
                                         (3, 0.17027722671572826),
                                         (9, 0.17092751556101998)])
    def test_proves_pool_pairs_at_the_default_budget(self, k, want):
        # pairs of 12 and 12 random planar points, drawn as perfbench's
        # gh-exact pool draws its shapes; the row-subset search spent its
        # budget on each of them
        shapes = np.random.default_rng([7, k])
        nx, ny = (int(v) for v in shapes.choice((8, 10, 12), size=2))
        x, y = (EuclideanPointSet(shapes.uniform(0.0, 1.0, (n, 2))) for n in (nx, ny))
        res = exact_gh(x, y)
        assert res.optimal and res.value == want
        assert distortion(x, y, res.correspondence) == res.dis

    def test_matches_the_row_subset_search(self):
        # uniform points, and points on a 3x3 integer grid, where many
        # distances tie and many correspondences are optimal
        rng = np.random.default_rng(19)
        for k in range(120):
            nx, ny = (int(v) for v in rng.integers(1, 8, 2))
            if k % 3 == 0:
                x, y = (EuclideanPointSet(rng.uniform(0, 1, (n, 2))) for n in (nx, ny))
            else:
                x, y = (EuclideanPointSet(np.stack(np.divmod(rng.choice(9, n, replace=False),
                                                             3), axis=1).astype(float))
                        for n in (nx, ny))
            got, want = exact_gh(x, y), exact_gh_row_subsets(x, y)
            assert (got.value, got.correspondence.pairs, got.optimal) == \
                (want.value, want.correspondence.pairs, want.optimal)

    def test_matches_oracle_on_mixed_sizes(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nx = int(rng.integers(1, 5))
            ny = int(rng.integers(1, 5))
            a = random_space(rng, nx)
            b = random_space(rng, ny)
            assert exact_gh(a, b).value == min_distortion_bruteforce(a, b) / 2.0


# ---------------------------------------------------------------------------
# certified upper bounds from explicit correspondences

class TestUpperBounds:
    def test_identity_gives_zero(self):
        rng = np.random.default_rng(12)
        x = random_space(rng, 5)
        ident = Correspondence([(i, i) for i in range(5)], 5, 5)
        assert gh_upper_bound_from_correspondence(x, x, ident) == 0.0

    def test_upper_bound_dominates_exact_value(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            a = random_space(rng, nx)
            b = random_space(rng, ny)
            rel = random_correspondence(rng, nx, ny)
            assert gh_upper_bound_from_correspondence(a, b, rel) >= \
                exact_gh(a, b).value - 1e-12

    def test_nearest_point_matching_is_surjective(self):
        w = WindowSpec(0.0, 3.0, 0.0, 3.0)
        lat = gen_lattice_window(w)
        net = gen_epsilon_net(w, 0.5)
        rel = nearest_point_correspondence(lat, net)
        assert {i for i, _ in rel.pairs} == set(range(lat.n))
        assert {j for _, j in rel.pairs} == set(range(net.n))
        # every lattice point is also a net point, so (i, that point) appears
        for i in range(lat.n):
            js = [j for a, j in rel.pairs if a == i]
            assert any(np.array_equal(net.points[j], lat.points[i]) for j in js)

    def test_nearest_point_matching_bounds_by_hausdorff(self):
        # the paper's upper bound d_GH <= d_H, certified by a correspondence
        w = WindowSpec(0.0, 4.0, 0.0, 4.0)
        lat = gen_lattice_window(w)
        net = gen_epsilon_net(w, 0.1)
        merged, sa, sb = merge_point_sets(lat, net)
        dh = hausdorff(merged, sa, sb)
        ub = gh_upper_bound_from_correspondence(lat, net, nearest_point_correspondence(lat, net))
        assert dh == 0.7071067811865476
        assert ub == 0.6363961030678928
        assert ub <= dh + 1e-9

    def test_requires_a_correspondence_between_the_two_spaces(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        bijection = Correspondence([(0, 0), (1, 1)], 2, 2)
        assert gh_upper_bound_from_correspondence(x, x, bijection) == 0.0
        for a, b in ((build_space([[0.0]]), x), (x, random_space(np.random.default_rng(14), 3))):
            with pytest.raises(NotACorrespondence):
                gh_upper_bound_from_correspondence(a, b, bijection)
        with pytest.raises(NotACorrespondence):
            gh_upper_bound_from_correspondence(x, x, Relation(bijection.pairs))
