"""Window generators: lattices, nets, chess/comb/brick/interval covers."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import outcome
from ghbounds import (EuclideanPointSet, SubsetFamily, SubsetRef, WindowSpec,
                      check_cover, check_r_disjoint, check_uniform_bound, gen_brick_cover, gen_chess_families,
                      gen_comb_cover, gen_comb_set, gen_epsilon_net,
                      gen_interval_cover, gen_lattice_window, hausdorff,
                      make_certificate, multiplicity)
from ghbounds import constructions
from ghbounds.constructions import MIN_PIECE_HEIGHT, _grid_coords
from ghbounds.errors import (DeltaNotDividingOne, EmptyWindow, HTooSmall,
                             LTooSmall, NonIntegerPoint, TooManyPoints)
from oracles import gen_comb_cover_loop, merge_point_sets

SQRT2 = math.sqrt(2.0)

_EDGE = st.integers(-6, 6).flatmap(
    lambda k: st.sampled_from([k, k + 5e-10, k - 5e-10, k + 2e-9, k + 0.3]))


def point_set(pts) -> set[tuple[float, float]]:
    return {(float(x), float(y)) for x, y in pts.points}


# ---------------------------------------------------------------------------
# windows

class TestWindowSpec:
    def test_parse(self):
        w = WindowSpec.parse("0,10,-5,5")
        assert (w.xmin, w.xmax, w.ymin, w.ymax) == (0.0, 10.0, -5.0, 5.0)

    def test_square(self):
        assert WindowSpec.square(6) == WindowSpec(0.0, 6.0, 0.0, 6.0)

    def test_rejects_reversed_ranges(self):
        with pytest.raises(EmptyWindow):
            WindowSpec(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(EmptyWindow):
            WindowSpec.parse("0,1,5,-5")

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite_bounds(self, slot, bound):
        # before the emptiness check, which a nan passes and an inf may fail
        bounds = [0.0, 1.0, 0.0, 1.0]
        bounds[slot] = bound
        for make in (lambda: WindowSpec(*bounds),
                     lambda: WindowSpec.parse(",".join(map(str, bounds)))):
            with pytest.raises(ValueError, match="^window bounds must be finite$"):
                make()

    def test_degenerate_point_window(self):
        w = WindowSpec(0.0, 0.0, 0.0, 0.0)
        assert gen_lattice_window(w).n == 1

    def test_parse_needs_four_fields(self):
        with pytest.raises(ValueError):
            WindowSpec.parse("0,1,2")


# ---------------------------------------------------------------------------
# lattices and nets

class TestLattice:
    @pytest.mark.parametrize("size,count", [(2, 9), (10, 121), (0, 1)])
    def test_counts(self, size, count):
        assert gen_lattice_window(WindowSpec.square(size)).n == count

    def test_non_integer_bounds_shrink_inward(self):
        lat = gen_lattice_window(WindowSpec(0.5, 2.5, -0.5, 0.5))
        assert point_set(lat) == {(1.0, 0.0), (2.0, 0.0)}

    def test_window_between_integers_is_empty(self):
        with pytest.raises(EmptyWindow):
            gen_lattice_window(WindowSpec(0.2, 0.8, 0.2, 0.8))

    def test_lexicographic_order(self):
        lat = gen_lattice_window(WindowSpec.square(1))
        assert [tuple(p) for p in lat.points] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("window", [
        (-7.5, 3.0, -12.0, -4.2),           # negative, fractional edges
        (-3.0, 0.0, -0.5, 0.5),             # zero beside negative values
        (1e15, 1e15 + 4, -2.0 ** 53, -2.0 ** 53 + 6),  # large magnitudes, still exact
        (-1e12 - 2, -1e12 + 2, 1e9, 1e9 + 3),
    ])
    def test_points_are_the_integer_cross_product(self, window):
        xmin, xmax, ymin, ymax = window
        lat = gen_lattice_window(WindowSpec(*window))
        # every integer (x, y) in the window, x-major: the same bits
        want = np.array([(float(x), float(y))
                         for x in range(math.ceil(xmin), math.floor(xmax) + 1)
                         for y in range(math.ceil(ymin), math.floor(ymax) + 1)])
        assert lat.points.tobytes() == want.tobytes()

    def test_refuses_oversized_windows(self):
        with pytest.raises(TooManyPoints):
            gen_lattice_window(WindowSpec.square(2000))


class TestEpsilonNet:
    def test_counts_on_aligned_window(self):
        net = gen_epsilon_net(WindowSpec.square(10), 0.1)
        assert net.n == 101 * 101

    def test_grid_values_are_single_products(self):
        net = gen_epsilon_net(WindowSpec.square(1), 0.1)
        xs = np.unique(net.points[:, 0])
        assert np.array_equal(xs, np.arange(11) * 0.1)

    def test_contains_lattice_exactly(self):
        w = WindowSpec.square(3)
        lat = gen_lattice_window(w)
        net = gen_epsilon_net(w, 0.5)
        assert point_set(lat) <= point_set(net)

    def test_unaligned_edges_are_appended(self):
        net = gen_epsilon_net(WindowSpec(0.0, 1.0, 0.0, 0.0), 0.3)
        xs = net.points[:, 0].tolist()
        assert xs == [0.0, 0.3, 0.6, 0.3 * 3, 1.0]
        assert xs[-1] == 1.0  # the exact edge, not a rounded multiple

    @pytest.mark.parametrize("eps", [1e300, 1e308, 1e20, 10.0])
    def test_a_step_wider_than_the_window_gives_its_corners(self, eps):
        # the index tolerance counts in steps: at 1e300 it admitted 0, outside [1, 2]
        for w in (WindowSpec(1.0, 2.0, 1.0, 2.0), WindowSpec(-2.0, -1.0, 1.0, 2.0)):
            net = gen_epsilon_net(w, eps)
            assert net.points.tolist() == [[w.xmin, 1.0], [w.xmin, 2.0],
                                           [w.xmax, 1.0], [w.xmax, 2.0]]

    def test_a_multiple_within_rounding_of_the_edge_is_kept(self):
        # 0.3 * 3 and 0.7 * 3 round one ulp below 0.9 and 2.1: both stay, as edges
        xs = gen_epsilon_net(WindowSpec(0.0, 0.9, 0.0, 0.0), 0.3).points[:, 0].tolist()
        assert xs == [0.0, 0.3, 0.6, 0.3 * 3]
        xs = gen_epsilon_net(WindowSpec(2.1, 3.0, 0.0, 0.0), 0.7).points[:, 0].tolist()
        assert xs == [0.7 * 3, 0.7 * 4, 3.0]

    def test_negative_ranges(self):
        net = gen_epsilon_net(WindowSpec(-1.0, 1.0, -1.0, 1.0), 0.5)
        assert net.n == 25
        assert (-1.0, -1.0) in point_set(net)

    def test_covering_radius(self):
        w = WindowSpec.square(5)
        net = gen_epsilon_net(w, 0.5)
        rng = np.random.default_rng(16)
        probes = rng.uniform(0.0, 5.0, size=(200, 2))
        for p in probes:
            gaps = np.hypot(net.points[:, 0] - p[0], net.points[:, 1] - p[1])
            assert gaps.min() <= 0.5 * SQRT2 / 2.0 + 1e-12

    def test_rejects_bad_spacing_and_size(self):
        with pytest.raises(ValueError):
            gen_epsilon_net(WindowSpec.square(1), 0.0)
        with pytest.raises(TooManyPoints):
            gen_epsilon_net(WindowSpec.square(10), 0.001)
        with pytest.raises(ValueError, match="too fine"):  # 1 / 1e-320 is inf
            gen_epsilon_net(WindowSpec.square(1), 1e-320)


# ---------------------------------------------------------------------------
# chess families

class TestChessFamilies:
    def test_parity_split(self):
        lat = gen_lattice_window(WindowSpec.square(10))
        red, blue = gen_chess_families(lat)
        assert len(red) == 61 and len(blue) == 60  # ceil/floor of 121/2
        for fam, want in ((red, 0), (blue, 1)):
            for mem in fam.members:
                assert len(mem) == 1
                x, y = lat.points[mem.indices[0]]
                assert int(x + y) % 2 == want

    def test_families_partition_the_window(self):
        lat = gen_lattice_window(WindowSpec.square(5))
        families = gen_chess_families(lat)
        assert check_cover(lat, families, range(lat.n)).ok
        assert multiplicity(lat, families, range(lat.n)) == 1

    def test_gap_is_the_diagonal(self):
        lat = gen_lattice_window(WindowSpec.square(6))
        red, blue = gen_chess_families(lat)
        assert check_r_disjoint(lat, red, SQRT2).min_gap == SQRT2
        assert check_uniform_bound(lat, red) == 0.0

    def test_rejects_non_integer_inputs(self):
        net = gen_epsilon_net(WindowSpec.square(2), 0.5)
        with pytest.raises(NonIntegerPoint):
            gen_chess_families(net)

    def test_certificate_round_trip(self):
        lat = gen_lattice_window(WindowSpec.square(4))
        cert = make_certificate(lat, gen_chess_families(lat), SQRT2)
        assert cert.k == 2 and cert.c == 0.0


# ---------------------------------------------------------------------------
# comb set and its cover

class TestCombSet:
    def test_frozen_small_window(self):
        comb = gen_comb_set(WindowSpec(0.0, 2.0, -1.0, 1.0), 1.0)
        assert point_set(comb) == {
            (0.0, -1.0), (0.0, 0.0), (0.0, 1.0),
            (1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
            (2.0, -1.0), (2.0, 0.0), (2.0, 1.0),
        }

    def test_every_point_lies_on_the_continuum_set(self):
        comb = gen_comb_set(WindowSpec(0.0, 5.0, -2.0, 2.0), 0.25)
        for x, y in comb.points:
            assert y == 0.0 or x == round(x)

    def test_crossings_are_deduplicated(self):
        comb = gen_comb_set(WindowSpec(0.0, 3.0, -1.0, 1.0), 0.5)
        assert len(point_set(comb)) == comb.n

    def test_lexicographic_order(self):
        comb = gen_comb_set(WindowSpec(0.0, 2.0, -1.0, 1.0), 0.5)
        rows = [tuple(p) for p in comb.points]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.2, 0.05])
    @pytest.mark.parametrize("window", [(0.0, 12.0, -6.0, 6.0), (-3.0, 4.5, -7.25, -0.5),
                                        (-2.5, 2.5, -4.0, 0.0), (-6.0, -1.0, -3.3, 1.7)])
    def test_dedupe_matches_unique_rows(self, window, delta):
        # the generator's rows rebuilt: the axis samples, then each vertical line
        w = WindowSpec(*window)
        rows = []
        if w.ymin <= 0.0 <= w.ymax:
            axis_x = _grid_coords(w.xmin, w.xmax, delta, pad_edges=False)
            rows.append(np.column_stack((axis_x, np.zeros_like(axis_x))))
        line_y = _grid_coords(w.ymin, w.ymax, delta, pad_edges=False)
        for x in _grid_coords(w.xmin, w.xmax, 1.0, pad_edges=False):
            rows.append(np.column_stack((np.full_like(line_y, x), line_y)))
        want = np.unique(np.concatenate(rows), axis=0)
        got = gen_comb_set(w, delta).points
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_axis_only_window(self):
        comb = gen_comb_set(WindowSpec(0.25, 0.75, -1.0, 1.0), 0.25)
        assert point_set(comb) == {(0.25, 0.0), (0.5, 0.0), (0.75, 0.0)}

    def test_rejects_spacing_not_dividing_one(self):
        with pytest.raises(DeltaNotDividingOne):
            gen_comb_set(WindowSpec.square(2), 0.3)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, 1e-320])
    def test_rejects_spacing_that_is_not_positive_and_finite(self, delta):
        with pytest.raises(DeltaNotDividingOne):
            gen_comb_set(WindowSpec.square(2), delta)

    def test_rejects_window_missing_the_set(self):
        with pytest.raises(EmptyWindow):
            gen_comb_set(WindowSpec(0.25, 0.75, 0.5, 1.0), 0.25)

    @pytest.mark.parametrize("window, delta", [
        ((0.3, 0.7, -1.0, 1.0), 1.0),  # meets the axis row between its samples
        ((0.3, 0.45, 0.0, 0.0), 0.5),
        ((-0.2, 0.2, 0.3, 0.4), 0.5),  # meets a vertical line between its samples
    ])
    def test_window_without_a_sample_is_empty(self, window, delta):
        with pytest.raises(EmptyWindow, match="no sample"):
            gen_comb_set(WindowSpec(*window), delta)

    @settings(max_examples=200)
    @given(st.lists(_EDGE, min_size=2, max_size=2).map(sorted),
           st.lists(_EDGE, min_size=2, max_size=2).map(sorted),
           st.sampled_from([1.0, 0.5, 0.25, 0.2]))
    def test_empty_exactly_when_no_sample(self, xs, ys, delta):
        w = WindowSpec(*xs, *ys)
        try:
            n = gen_comb_set(w, delta).n
        except EmptyWindow:
            n = 0
        on_axis = w.ymin <= 0.0 <= w.ymax
        lines = _grid_coords(w.xmin, w.xmax, 1.0, pad_edges=False).size
        want = (lines * _grid_coords(w.ymin, w.ymax, delta, pad_edges=False).size
                + on_axis * np.setdiff1d(_grid_coords(w.xmin, w.xmax, delta, pad_edges=False),
                                         _grid_coords(w.xmin, w.xmax, 1.0, pad_edges=False)).size)
        assert n == want


class TestCombCover:
    def setup_method(self):
        self.window = WindowSpec(0.0, 6.0, -3.0, 3.0)
        self.comb = gen_comb_set(self.window, 0.05)
        self.families = gen_comb_cover(self.comb, 2.0)

    def find_piece(self, x: float, y: float) -> tuple[str, int]:
        idx = int(np.nonzero((self.comb.points[:, 0] == x)
                             & (self.comb.points[:, 1] == y))[0][0])
        for fam in self.families:
            for pos, mem in enumerate(fam.members):
                if idx in mem:
                    return fam.label, pos
        raise AssertionError("point not covered")

    def test_partition_and_certificate(self):
        assert check_cover(self.comb, self.families, range(self.comb.n)).ok
        assert multiplicity(self.comb, self.families, range(self.comb.n)) == 1
        cert = make_certificate(self.comb, self.families, 1.0)
        assert cert.c == 2.0
        assert cert.min_gap >= 1.0

    def test_crossing_pieces_alternate_colors(self):
        assert self.find_piece(0.0, 0.0)[0] == "red"
        assert self.find_piece(1.0, 0.0)[0] == "blue"
        assert self.find_piece(2.0, 0.0)[0] == "red"

    def test_axis_bars_split_at_half_integers(self):
        # 0.5 opens line 1's bar, so it shares a piece with (1, 0)
        label, pos = self.find_piece(0.5, 0.0)
        assert (label, pos) == self.find_piece(1.0, 0.0)
        assert self.find_piece(0.45, 0.0) == self.find_piece(0.0, 0.0)

    def test_crossing_piece_owns_half_height(self):
        assert self.find_piece(0.0, 1.0) == self.find_piece(0.0, 0.0)
        assert self.find_piece(0.0, -1.0) == self.find_piece(0.0, 0.0)

    def test_stretches_alternate_away_from_the_axis(self):
        # first stretch above line 0 covers (1, 3]; opposite color to P_0
        assert self.find_piece(0.0, 1.05)[0] == "blue"
        assert self.find_piece(0.0, 3.0)[0] == "blue"
        assert self.find_piece(0.0, -3.0)[0] == "blue"
        # mirrored stretches are distinct members
        assert self.find_piece(0.0, 1.05) != self.find_piece(0.0, -1.05)

    def test_piece_diameters_are_bounded_by_the_height(self):
        for fam in self.families:
            assert check_uniform_bound(self.comb, fam) <= 2.0

    def test_rejects_short_pieces(self):
        with pytest.raises(HTooSmall):
            gen_comb_cover(self.comb, 1.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_rejects_nonfinite_heights(self, h):
        with pytest.raises(ValueError, match="piece height must be finite"):
            gen_comb_cover(self.comb, h)

    def test_rejects_off_line_points(self):
        net = gen_epsilon_net(WindowSpec.square(2), 0.5)
        with pytest.raises(NonIntegerPoint):
            gen_comb_cover(net, 2.0)

    def test_deterministic(self):
        again = gen_comb_cover(self.comb, 2.0)
        assert again == self.families


_HEIGHTS = st.one_of(st.sampled_from([MIN_PIECE_HEIGHT, 1.8, 2.0, 2.5, 3.0, 1.5]),
                     st.floats(MIN_PIECE_HEIGHT, 6.0))


class TestCombCoverMatchesLoop:
    """The array keys of ``gen_comb_cover`` against the point-by-point dict of pieces."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-6, 6).map(lambda v: v / 2), st.integers(0, 16).map(lambda v: v / 2),
           st.integers(-8, 2).map(lambda v: v / 2), st.integers(0, 16).map(lambda v: v / 2),
           st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.05]), _HEIGHTS)
    def test_windows(self, x0, w, y0, h_win, delta, h):
        try:
            comb = gen_comb_set(WindowSpec(x0, x0 + w, y0, y0 + h_win), delta)
        except (EmptyWindow, ValueError):  # no sample in the window
            return
        want = outcome(lambda: gen_comb_cover_loop(comb, h))
        got = outcome(lambda: gen_comb_cover(comb, h))
        assert got == want
        if isinstance(want, tuple) and isinstance(want[0], SubsetFamily):
            assert [f.members for f in got] == [f.members for f in want]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-12, 12).map(lambda v: v / 4),
                              st.integers(-20, 20).map(lambda v: v / 4)),
                    min_size=1, max_size=30, unique=True), _HEIGHTS)
    def test_off_line_points_fail_at_the_first(self, xy, h):
        pts = EuclideanPointSet(np.array(xy, dtype=np.float64))
        assert outcome(lambda: gen_comb_cover(pts, h)) == \
            outcome(lambda: gen_comb_cover_loop(pts, h))

    def test_line_numbers_beyond_int64(self):
        lines = [2.0 ** 63, 2.0 ** 63 + 2048.0, 2.0 ** 53 + 2.0, -(2.0 ** 64), 1e19, 3.0]
        pts = EuclideanPointSet(np.array([(x, y / 2) for x in lines for y in range(-13, 14)]))
        for h in (MIN_PIECE_HEIGHT, 2.0, 2.5):
            got, want = gen_comb_cover(pts, h), gen_comb_cover_loop(pts, h)
            assert [f.members for f in got] == [f.members for f in want]

    def test_first_offending_index(self):
        pts = EuclideanPointSet(np.array([[0.3, 0.0], [1.0, 2.5], [0.5, 1.0], [1.5, -1.0]]))
        with pytest.raises(NonIntegerPoint) as err:
            gen_comb_cover(pts, 2.0)
        assert (err.value.index, err.value.xy) == (2, (0.5, 1.0))


# ---------------------------------------------------------------------------
# brick and interval covers

class TestBrickCover:
    def test_three_families_partition_the_net(self):
        net, families = gen_brick_cover(WindowSpec.square(20), 2.0)
        assert [f.label for f in families] == ["red", "blue", "green"]
        assert check_cover(net, families, range(net.n)).ok
        assert multiplicity(net, families, range(net.n)) == 1

    def test_certificate_with_margin(self):
        net, families = gen_brick_cover(WindowSpec.square(30), 2.0)
        cert = make_certificate(net, families, 2.0)
        assert cert.min_gap >= 3.0  # continuum L/2 with L = 6
        assert cert.c <= 6.0 * SQRT2

    def test_custom_tile_size(self):
        net, families = gen_brick_cover(WindowSpec.square(12), 1.0, L=2.0)
        cert = make_certificate(net, families, 1.0)
        assert cert.c <= 2.0 * SQRT2

    def test_rejects_tiles_below_twice_the_separation(self):
        with pytest.raises(LTooSmall):
            gen_brick_cover(WindowSpec.square(12), 1.0, L=1.9)
        with pytest.raises(ValueError):
            gen_brick_cover(WindowSpec.square(12), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(_EDGE, _EDGE, st.integers(0, 8), st.integers(0, 8),
           st.sampled_from([0.3, 0.5, 1.0, 1.7]), st.sampled_from([None, 2.0, 2.6, 4.5]),
           st.sampled_from([None, 0.1, 0.25, 0.3, 0.7, 1e300]))
    def test_families_from_runs_equal_the_point_grouping(self, x0, y0, wx, wy, r, per_r, spacing):
        # the runs of (column, row of bricks) against the brick of every point,
        # grouped by one sort over the net
        w = WindowSpec(x0, x0 + wx, y0, y0 + wy)
        net, families = gen_brick_cover(w, r, None if per_r is None else per_r * r, spacing)
        # the net is the epsilon net's, bit for bit, axes included
        eps_net = gen_epsilon_net(w, r / 4.0 if spacing is None else spacing)
        assert net.points.tobytes() == eps_net.points.tobytes()
        assert [a.tobytes() for a in net.axes] == [a.tobytes() for a in eps_net.axes]
        side = 3.0 * r if per_r is None else per_r * r
        j = constructions._brick_row(net.points[:, 1], side)
        i = constructions._brick_column(net.points[:, 0], j, side)
        assert families == constructions._keyed_families(constructions._BRICK_LABELS,
                                                         (i - j) % 3, i, j)

    def test_rows_shift_by_half_a_brick(self):
        net, families = gen_brick_cover(WindowSpec.square(12), 1.0)
        by_label = {f.label: f for f in families}
        # (0,0) and (1.5,3) sit in bricks (0,0) and (0,1): different colors
        def color_of(x, y):
            idx = int(np.nonzero((net.points[:, 0] == x)
                                 & (net.points[:, 1] == y))[0][0])
            for label, fam in by_label.items():
                if any(idx in mem for mem in fam.members):
                    return label
            raise AssertionError
        assert color_of(0.0, 0.0) != color_of(1.5, 3.0)
        assert color_of(0.0, 0.0) != color_of(3.0, 0.0)


class TestIntervalCover:
    def test_parity_intervals_on_the_axis(self):
        net, families = gen_interval_cover(WindowSpec(0.0, 13.0, 0.0, 0.0), 1.0)
        assert all((net.points[:, 1] == 0.0).tolist())
        assert check_cover(net, families, range(net.n)).ok
        assert multiplicity(net, families, range(net.n)) == 1

    def test_measured_gap_and_diameter(self):
        net, families = gen_interval_cover(WindowSpec(0.0, 13.0, 0.0, 0.0), 1.0)
        red, blue = families
        # same-parity intervals of [kL,(k+1)L) at L=3, sampled each 0.25:
        # gap L + spacing, member diameter L - spacing
        assert check_r_disjoint(net, red, 1.0).min_gap == 3.25
        assert check_uniform_bound(net, red) == 2.75
        cert = make_certificate(net, families, 1.0)
        assert cert.min_gap == 3.25 and cert.c == 2.75

    def test_rejects_short_tiles(self):
        with pytest.raises(LTooSmall):
            gen_interval_cover(WindowSpec(0.0, 10.0, 0.0, 0.0), 2.0, L=3.0)


class TestCountsBeforeBuilding:
    """Each generator's cap check sees the number of points it then builds."""

    @settings(max_examples=300)
    @given(st.lists(_EDGE, min_size=2, max_size=2).map(sorted),
           st.lists(_EDGE, min_size=2, max_size=2).map(sorted),
           st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 1 / 3]))
    def test_counted_size_is_the_built_size(self, xs, ys, step):
        w = WindowSpec(*xs, *ys)
        makers = [lambda: gen_lattice_window(w), lambda: gen_epsilon_net(w, step),
                  lambda: gen_comb_set(w, step), lambda: gen_interval_cover(w, 4 * step)[0]]
        for make in makers:
            with mock.patch.object(constructions, "_check_count", wraps=constructions._check_count) as check:
                try:
                    n = make().n
                except (EmptyWindow, ValueError):  # no point in the window
                    continue
            assert [c.args[0] for c in check.call_args_list] == [n]

    def test_axes_are_counted_as_built(self):
        for lo, hi in ((0.0, 1.0), (-7.5, 3.0), (0.0, 0.0), (0.1, 0.2), (1e15, 1e15 + 4)):
            for step in (1.0, 0.3, 0.25, 1 / 3):
                for pad in (False, True):
                    assert constructions._grid_size(lo, hi, step, pad) == _grid_coords(lo, hi, step, pad).size


def _dict_grouped(labels, color, *keys) -> tuple[SubsetFamily, ...]:
    """Reference grouping: a dict of index lists per color, members in sorted key order."""
    fams = []
    for c, label in enumerate(labels):
        groups: dict[tuple[int, ...], list[int]] = {}
        for idx in np.nonzero(color == c)[0]:
            groups.setdefault(tuple(int(k[idx]) for k in keys), []).append(int(idx))
        fams.append(SubsetFamily(label, tuple(SubsetRef(groups[key]) for key in sorted(groups))))
    return tuple(fams)


class TestGroupingMatchesDictReference:
    @settings(max_examples=60)
    @given(st.integers(-12, 6), st.integers(0, 9), st.integers(-12, 6), st.integers(0, 9),
           st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([None, 2.0, 2.6, 4.0]),
           st.sampled_from([None, 0.3, 0.5, 0.7]))
    def test_brick(self, x0, w, y0, h, r, l_factor, spacing):
        L = None if l_factor is None else l_factor * r
        net, fams = gen_brick_cover(WindowSpec(x0, x0 + w, y0, y0 + h), r, L, spacing)
        tile = 3.0 * r if L is None else L
        x, y = net.points[:, 0], net.points[:, 1]
        j = np.floor(y / tile + 1e-9).astype(np.int64)
        i = np.floor((x - j * (tile / 2.0)) / tile + 1e-9).astype(np.int64)
        assert fams == _dict_grouped(("red", "blue", "green"), (i - j) % 3, i, j)

    @settings(max_examples=60)
    @given(st.integers(-15, 6), st.integers(0, 14), st.sampled_from([0.5, 1.0, 1.5]),
           st.sampled_from([None, 2.0, 3.5]), st.sampled_from([None, 0.2, 0.45]))
    def test_interval(self, x0, w, r, l_factor, spacing):
        L = None if l_factor is None else l_factor * r
        net, fams = gen_interval_cover(WindowSpec(x0, x0 + w, 0.0, 0.0), r, L, spacing)
        tile = 3.0 * r if L is None else L
        k = np.floor(net.points[:, 0] / tile + 1e-9).astype(np.int64)
        assert fams == _dict_grouped(("red", "blue"), k % 2, k)


# ---------------------------------------------------------------------------
# merging ambient sets

class TestMergePointSets:
    def test_disjoint_sets_concatenate(self):
        a = gen_lattice_window(WindowSpec(0.0, 1.0, 0.0, 0.0))
        b = gen_lattice_window(WindowSpec(5.0, 6.0, 0.0, 0.0))
        merged, sa, sb = merge_point_sets(a, b)
        assert merged.n == a.n + b.n
        assert len(sa) == a.n and len(sb) == b.n
        assert set(sa.indices).isdisjoint(sb.indices)

    def test_shared_points_collapse_exactly(self):
        w = WindowSpec.square(4)
        lat = gen_lattice_window(w)
        net = gen_epsilon_net(w, 0.5)
        merged, sa, sb = merge_point_sets(lat, net)
        assert merged.n == net.n  # the lattice is a bit-exact subset
        assert len(sb) == net.n
        got = {tuple(merged.points[i]) for i in sa.indices}
        assert got == point_set(lat)

    def test_matches_row_unique(self):
        # the lexsort dedup against numpy's row unique: same order, same inverse
        rng = np.random.default_rng(21)
        for _ in range(100):
            pool = np.unique(rng.integers(-4, 5, (60, 2)) / float(rng.choice([1, 2, 4])), axis=0)
            a, b = (EuclideanPointSet(pool[rng.choice(len(pool), int(rng.integers(1, 40)),
                                                      replace=False)]) for _ in range(2))
            merged, sa, sb = merge_point_sets(a, b)
            rows, inverse = np.unique(np.concatenate((a.points, b.points)), axis=0,
                                      return_inverse=True)
            inverse = inverse.reshape(-1)
            assert np.array_equal(merged.points, rows)
            assert sa.indices == tuple(sorted(set(inverse[:a.n].tolist())))
            assert sb.indices == tuple(sorted(set(inverse[a.n:].tolist())))

    def test_hausdorff_through_the_merge(self):
        w = WindowSpec.square(4)
        lat = gen_lattice_window(w)
        net = gen_epsilon_net(w, 0.5)
        merged, sa, sb = merge_point_sets(lat, net)
        # the half-step net contains the unit-cell centers, the farthest
        # points from the lattice
        assert hausdorff(merged, sa, sb) == math.sqrt(0.5)

    def test_deterministic_generators(self):
        w = WindowSpec(0.0, 5.0, -2.0, 2.0)
        one = gen_comb_set(w, 0.2)
        two = gen_comb_set(w, 0.2)
        assert np.array_equal(one.points, two.points)
        net1, fams1 = gen_brick_cover(w, 1.0)
        net2, fams2 = gen_brick_cover(w, 1.0)
        assert np.array_equal(net1.points, net2.points)
        assert fams1 == fams2
