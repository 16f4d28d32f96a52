"""JSON wire-format round-trips."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import struct
import tracemalloc
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_metric_matrix
from ghbounds import (SubsetFamily, WindowSpec,
                      build_space, exact_gh, gen_brick_cover, gen_chess_families, gen_comb_set,
                      gen_epsilon_net, gen_interval_cover, gen_lattice_window, make_certificate,
                      model_space)
from ghbounds.serialize import (certificate_report_json, cover_from_json,
                                cover_to_json, dump_json, family_from_json,
                                family_to_json, gh_result_to_json, load_json,
                                model_from_json, space_from_json,
                                space_to_json, subset_from_json,
                                subset_to_json)
from ghbounds import cli, serialize
from ghbounds.constructions import POINT_CAP
from ghbounds.errors import DuplicatePoint, SpaceTooLarge, TooManyPoints, TriangleViolation
from ghbounds.metric import EuclideanPointSet, SubsetRef


class TestSpaceRoundTrip:
    def test_points_without_labels(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [0.25, 0.75]]))
        obj = space_to_json(pts)
        assert obj.keys() == {"kind", "pts"}
        back = space_from_json(obj)
        assert np.array_equal(back.points, pts.points)
        # a space written with per-point labels reads as its points
        old = space_from_json({**obj, "labels": ["(0,0)", "(1,1)"]})
        assert old.points.tobytes() == pts.points.tobytes()

    def test_matrix_revalidates(self):
        rng = np.random.default_rng(17)
        m = random_metric_matrix(rng, 5)
        obj = space_to_json(build_space(m))
        assert obj["kind"] == "matrix" and obj["n"] == 5
        back = space_from_json(obj)
        assert np.array_equal(back.matrix, m)
        # tampering with an entry breaks the triangle inequality on reload
        obj["d"][0][1] = obj["d"][1][0] = 1e9
        with pytest.raises(TriangleViolation):
            space_from_json(obj)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            space_from_json({"kind": "polar"})

    def test_float_payloads_survive_exactly(self):
        # shortest round-trip reprs: parsing the serialized text restores bits
        pts = EuclideanPointSet(np.array([[0.1 * 3, math.sqrt(2)],
                                          [0.7071067811865476, 1e-9]]))
        text = json.dumps(space_to_json(pts))
        back = space_from_json(json.loads(text))
        assert np.array_equal(back.points, pts.points)


class TestPointRows:
    """points2d rows are read by one fromiter; the result is np.asarray's to the bit."""

    def test_rows_read_like_asarray(self):
        rng = np.random.default_rng(23)
        rows = np.concatenate([rng.uniform(-1e3, 1e3, (200, 2)),
                               [[-0.0, 5e-324], [0.1 * 3, 1e308], [-1e-300, 2.0 ** 60]]])
        for pts in (rows.tolist(), rows[:1].tolist(), [[1, 2], [True, 3.5]]):
            got = space_from_json({"kind": "points2d", "pts": pts}).points
            want = np.asarray(pts, dtype=np.float64)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pts", [
        [[0.0, 0.0], [1.0, 2.0, 3.0]],  # a point with three coordinates
        [[0.0, 0.0, 1.0], [2.0]],  # ragged: the right number of values in all
        [[0.0, 0.0], [1.0]],
        [[0.0, 0.0], "12"],  # a string row of length 2
        "12",
        [[0.0, "x"], [1.0, 2.0]],
        [],
    ], ids=["three-coordinates", "ragged-compensating", "ragged", "string-row", "string",
            "non-number", "empty"])
    def test_malformed_rows_are_rejected_up_front(self, pts, tmp_path):
        obj = {"kind": "points2d", "pts": pts}
        with pytest.raises(ValueError):
            space_from_json(obj)
        path = tmp_path / "bad.json"
        dump_json(obj, path)
        assert cli.main(["hausdorff", "--space", str(path)]) == 2


# gen's planar sets on quarter-grid, negative and padded-edge windows, single rows,
# columns and points: each is the x-major cross product of two axes
_GRID_SETS = {
    "lattice": lambda: gen_lattice_window(WindowSpec(-3.0, 4.0, -2.0, 5.0)),
    "lattice-negative": lambda: gen_lattice_window(WindowSpec(-7.5, -2.0, -4.0, -1.0)),
    "lattice-row": lambda: gen_lattice_window(WindowSpec(0.0, 9.0, 3.0, 3.0)),
    "lattice-column": lambda: gen_lattice_window(WindowSpec(-2.0, -2.0, 0.0, 9.0)),
    "lattice-point": lambda: gen_lattice_window(WindowSpec(1.0, 1.0, -1.0, -1.0)),
    "net-quarter": lambda: gen_epsilon_net(WindowSpec(0.0, 3.0, -1.0, 2.0), 0.25),
    "net-negative": lambda: gen_epsilon_net(WindowSpec(-2.0, -0.5, -3.0, -1.0), 0.25),
    "net-padded": lambda: gen_epsilon_net(WindowSpec(0.1, 2.3, -0.7, 1.9), 0.3),
    "net-tenth": lambda: gen_epsilon_net(WindowSpec(-1.0, 1.0, 0.0, 1.0), 0.1),
    "net-point": lambda: gen_epsilon_net(WindowSpec(0.3, 0.3, 0.7, 0.7), 0.25),
    "brick": lambda: gen_brick_cover(WindowSpec(-1.0, 5.0, 0.5, 4.5), 1.0)[0],
    "interval": lambda: gen_interval_cover(WindowSpec(-2.0, 3.3, 0.0, 0.0), 1.0)[0],
    "signed-zero": lambda: EuclideanPointSet(np.array([[-0.0, 0.0], [-0.0, 1.0]])),
}


# planar sets that are no x-major cross product, bit for bit
_LISTED_SETS = {
    "comb": lambda: gen_comb_set(WindowSpec(0.0, 3.0, -2.0, 2.0), 0.25),
    "rows-swapped": lambda: EuclideanPointSet(
        gen_lattice_window(WindowSpec(0.0, 3.0, 0.0, 2.0)).points[[0, 3, 2, 1, *range(4, 12)]]),
    "y-major": lambda: EuclideanPointSet(
        gen_lattice_window(WindowSpec(0.0, 3.0, 0.0, 2.0)).points[:, ::-1]),
    "one-point-off": lambda: EuclideanPointSet(np.vstack((
        gen_lattice_window(WindowSpec(0.0, 3.0, 0.0, 2.0)).points[:-1], [[3.0, 2.5]]))),
    # equal to a grid's columns by value, not by bits
    "signed-zero": lambda: EuclideanPointSet(np.array([[0.0, 0.0], [-0.0, 1.0]])),
    "signed-zero-x": lambda: EuclideanPointSet(
        np.array([[1.0, 0.0], [1.0, 1.0], [-0.0, 0.0], [0.0, 1.0]])),
    "signed-zero-y": lambda: EuclideanPointSet(
        np.array([[0.0, -0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])),
    "ragged": lambda: EuclideanPointSet(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])),
}


def _reread(space: EuclideanPointSet, tmp_path) -> tuple[dict[str, Any], np.ndarray, np.ndarray]:
    """The plain document of a space, and its points read back from it and from gen's file."""
    obj = space_to_json(space)
    path = tmp_path / "s.json"
    dump_json(serialize._document(space, arrays=True), path)
    assert load_json(path) == obj  # gen's file holds the plain document
    return (obj, space_from_json(json.loads(json.dumps(obj))).points,
            space_from_json(load_json(path)).points)


class TestGridSpaces:
    """A planar set that is the cross product of two axes is written as them, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_GRID_SETS))
    def test_cross_products_are_written_as_their_axes(self, name, tmp_path):
        space = _GRID_SETS[name]()
        obj, plain, filed = _reread(space, tmp_path)
        assert obj.keys() == {"kind", "x", "y"} and obj["kind"] == "grid2d"
        assert len(obj["x"]) * len(obj["y"]) == space.n
        for back in (plain, filed):
            assert back.view(np.int64).tolist() == space.points.view(np.int64).tolist()

    @pytest.mark.parametrize("name", sorted(_LISTED_SETS))
    def test_other_sets_are_written_as_points(self, name, tmp_path):
        space = _LISTED_SETS[name]()
        obj, plain, filed = _reread(space, tmp_path)
        assert obj["kind"] == "points2d"
        for back in (plain, filed):
            assert back.view(np.int64).tolist() == space.points.view(np.int64).tolist()

    # distinct by value within an axis, so -0.0 and 0.0 are never both drawn
    _AXIS = st.lists(st.sampled_from([-0.0, 5e-324, 1e-7, 1e22, -2.5, 0.1 * 3, 3.5, -7.0]),
                     min_size=1, max_size=6, unique=True)

    @given(_AXIS, _AXIS, st.integers(0, 2 ** 32 - 1))
    def test_random_axes_and_their_shuffles(self, xs, ys, seed):
        pts = np.array([[x, y] for x in xs for y in ys])
        shuffled = pts[np.random.default_rng(seed).permutation(len(pts))]
        for rows in (pts, shuffled):
            obj = space_to_json(EuclideanPointSet(rows))
            assert obj["kind"] == "grid2d" or rows is shuffled
            back = space_from_json(json.loads(json.dumps(obj))).points
            assert back.view(np.int64).tolist() == rows.view(np.int64).tolist()

    def test_the_point_cap_is_counted_before_any_point(self):
        axes = {"kind": "grid2d", "x": list(range(1001)), "y": list(range(1000))}
        tracemalloc.start()
        try:
            with pytest.raises(TooManyPoints) as info:
                space_from_json(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.count, info.value.cap) == (1_001_000, POINT_CAP)
        assert peak < 1 << 16  # the 1,001,000 points would take 16 MB

    @pytest.mark.parametrize("x", [
        [[0.0], [1.0]], [0.0, [1.0]], [], [0.0, "1"], [True, 2.0], [0.0, None], 5, "01", None,
        {"a": 1.0},
    ], ids=["nested", "one-nested", "empty", "string", "boolean", "null", "number", "text",
            "null-axis", "object"])
    def test_malformed_axes_are_rejected(self, x, tmp_path):
        for obj in ({"kind": "grid2d", "x": x, "y": [0.0, 1.0]},
                    {"kind": "grid2d", "x": [0.0, 1.0], "y": x}):
            with pytest.raises(ValueError, match="grid2d x and y must be nonempty"):
                space_from_json(obj)
            path = tmp_path / "bad.json"
            dump_json(obj, path)
            assert cli.main(["hausdorff", "--space", str(path)]) == 2

    @pytest.mark.parametrize("x, error", [
        ([0.0, 1.0, 0.0], DuplicatePoint), ([0.0, -0.0], DuplicatePoint),
        ([0.0, float("inf")], ValueError), ([1, 10 ** 400], ValueError),
    ])
    def test_axes_go_through_the_point_set_checks(self, x, error, tmp_path):
        obj = {"kind": "grid2d", "x": x, "y": [0.5]}
        with pytest.raises(error):
            space_from_json(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["hausdorff", "--space", str(path)]) == 2


class TestSizeCaps:
    """Every space document is counted against its kind's cap before anything is built."""

    @pytest.mark.parametrize("kind, key, rows, cap", [
        ("matrix", "d", 1001, 1000), ("points2d", "pts", POINT_CAP + 1, POINT_CAP)])
    def test_listed_rows_are_counted_before_any_array(self, kind, key, rows, cap):
        # every row is one shared list, so the document itself is cheap
        doc = {"kind": kind, key: [[0.0] * (rows if kind == "matrix" else 2)] * rows}
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge) as info:
                space_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.kind, info.value.count, info.value.cap) == (kind, rows, cap)
        assert str(info.value) == f"{kind} space lists {rows} points, cap is {cap}"
        assert peak < 1 << 16  # the float array would take 8 or 16 MB

    def test_a_matrix_at_the_cap_is_counted_not_refused(self):
        assert serialize._SPACE_LISTS["matrix"][1] ** 2 == POINT_CAP
        assert serialize._space_size({"kind": "matrix", "d": [[0.0]] * 1000}) == 1000

    def test_both_cover_readers_count_the_points(self, tmp_path, monkeypatch):
        space = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 3.0]]))
        doc = cover_to_json(space, [SubsetFamily("a", [[0], [1], [2]])], 0.5)
        path = tmp_path / "cover.json"
        dump_json(doc, path)
        assert serialize._cover_parts(path.read_text()) is not None  # the array reader's layout
        monkeypatch.setitem(serialize._SPACE_LISTS, "points2d", (("pts",), 2))
        for read in (lambda: serialize.load_cover(path), lambda: cover_from_json(doc)):
            with pytest.raises(SpaceTooLarge) as info:
                read()
            assert (info.value.kind, info.value.count, info.value.cap) == ("points2d", 3, 2)

    @pytest.mark.parametrize("doc", [
        [1, 2], {"kind": "points2d", "pts": 5}, {"kind": "grid2d", "x": [0.0]},
        {"kind": "matrix"}, {"kind": "other", "d": [[0.0]]}, {"kind": ["matrix"], "d": [[0.0]]}])
    def test_documents_without_their_lists_have_no_size(self, doc):
        assert serialize._space_size(doc) is None


class TestSmallObjects:
    def test_subset(self):
        s = SubsetRef([4, 1])
        assert subset_to_json(s) == [1, 4]
        assert subset_from_json([1, 4], n=5) == s

    def test_family(self):
        fam = SubsetFamily("f", [[0], [2, 3]], n=4)
        obj = family_to_json(fam)
        assert obj == {"label": "f", "members": [[0], [2, 3]]}
        assert family_from_json(obj, n=4) == fam


class TestCoverRoundTrip:
    def test_full_cycle(self):
        lat = gen_lattice_window(WindowSpec.square(3))
        families = gen_chess_families(lat)
        obj = cover_to_json(lat, families, math.sqrt(2), strict=False, c=0.0)
        assert obj["kind"] == "cover"
        space, fams, r, strict, target = cover_from_json(obj)
        assert np.array_equal(space.points, lat.points)
        assert fams == families
        assert r == math.sqrt(2) and strict is False and target is None

    def test_target_is_preserved(self):
        lat = gen_lattice_window(WindowSpec.square(2))
        families = gen_chess_families(lat)
        obj = cover_to_json(lat, families, 1.0, target=SubsetRef([0, 1]))
        *_, target = cover_from_json(obj)
        assert target.indices == (0, 1)

    def test_non_cover_payloads_are_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            cover_from_json({"kind": "points2d"})


class TestReports:
    def test_gh_result_shape(self):
        x = build_space([[0.0, 1.0], [1.0, 0.0]])
        obj = gh_result_to_json(exact_gh(x, x))
        assert obj == {"dgh": 0.0, "dis": 0.0, "optimal_pairs": [[0, 0], [1, 1]],
                       "nodes": obj["nodes"], "optimal": True}
        assert obj["nodes"] >= 1

    def test_certificate_report_keys(self):
        lat = gen_lattice_window(WindowSpec.square(4))
        cert = make_certificate(lat, gen_chess_families(lat), math.sqrt(2))
        obj = certificate_report_json(cert)
        assert obj["k"] == 2 and obj["C"] == 0.0
        assert obj["strictness"] == "non-strict"
        assert obj["min_gap"] == math.sqrt(2)
        assert [f["label"] for f in obj["families"]] == ["red", "blue"]
        assert obj["target_size"] == lat.n
        assert "bound" not in obj

    def test_infinite_gap_becomes_null(self):
        lat = gen_lattice_window(WindowSpec(0.0, 0.0, 0.0, 0.0))
        fam = SubsetFamily("solo", [[0]], n=1)
        cert = make_certificate(lat, (fam,), 1.0)
        assert certificate_report_json(cert)["min_gap"] is None

    def test_model_defaults(self):
        m = model_from_json({"name": "X", "asdim_lower": 4,
                             "stabilizer_nontrivial": True})
        assert m.provenance == "user supplied"
        assert m.asdim_lower == 4
        seeded = model_space("R2")
        assert model_from_json({"name": seeded.name,
                                "asdim_lower": seeded.asdim_lower,
                                "stabilizer_nontrivial": True}).name == "R2"


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "x.json"
        payload = {"a": [1, 2], "b": 0.1 * 3}
        dump_json(payload, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert load_json(path) == payload

    def test_floats_reload_bit_exactly(self, tmp_path):
        path = tmp_path / "f.json"
        values = [-0.0, 5e-324, 1e-05, 0.1 * 3, math.sqrt(2), -1.7976931348623157e308]
        dump_json({"v": values}, path)
        back = load_json(path)["v"]
        assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in values]

    def test_one_line_with_a_trailing_newline(self, tmp_path):
        path = tmp_path / "c.json"
        lat = gen_lattice_window(WindowSpec.square(3))
        dump_json(cover_to_json(lat, gen_chess_families(lat), math.sqrt(2)), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1

    def test_cover_written_in_slices_equals_one_dumps(self, tmp_path):
        # 6,561 points and about 3,280 members per family: both lists are
        # longer than one slice. Listed y-major, the lattice is written as its
        # points; listed x-major, as its two axes
        lat = gen_lattice_window(WindowSpec.square(80))
        for space, kind in ((EuclideanPointSet(lat.points[:, ::-1]), "points2d"),
                            (lat, "grid2d")):
            obj = cover_to_json(space, gen_chess_families(space), math.sqrt(2), c=0.0,
                                target=SubsetRef.full(space.n))
            assert obj["space"]["kind"] == kind
            assert kind == "grid2d" or len(obj["space"]["pts"]) > serialize._DUMP_SLICE
            path = tmp_path / "chess.json"
            dump_json(obj, path)
            assert path.read_bytes() == (json.dumps(obj) + "\n").encode("utf-8")

    @pytest.mark.parametrize("obj", [
        {"a": [[1, 2], [3]] * 4, "b": {"c": list(range(9)), "d": []}, "e": {}},
        {1: "int key", "x": [0.5] * 7},                 # non-string keys: encoded whole
        [(1, 2)] * 5 + [{"k": "v\u00e9"}, None, True, float("inf")],
        [{"k": [1, 2, 3]}, [4], {"k": {"j": None}, 5: 6}, {}, "x"],  # a list of dicts, by item
        list(range(7)),
        [],
        "text",
    ])
    def test_every_slice_boundary_matches_dumps(self, tmp_path, obj):
        path = tmp_path / "s.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", 2):
            dump_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj) + "\n").encode("utf-8")


# values the encoder must keep apart or format exactly; -0.0 and 0.0 differ only in bits
SPECIAL = [-0.0, 0.0, 5e-324, 1e-7, 1e16, 1e22, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1 * 3, -2.5]


@st.composite
def _float_tables(draw) -> np.ndarray:
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["quarter", "uniform", "special", "constant", "mixed"]))
    if kind == "quarter":
        a = rng.integers(-8, 9, (rows, cols)) * 0.25
    elif kind == "uniform":
        a = rng.uniform(-1e3, 1e3, (rows, cols))
    elif kind == "special":
        a = rng.choice(SPECIAL, (rows, cols))
    elif kind == "constant":
        a = np.full((rows, cols), draw(st.sampled_from(SPECIAL)))
    else:  # a quarter grid in some rows, random values in the others
        a = rng.integers(-2, 3, (rows, cols)) * 0.25
        noisy = rng.random(rows) < 0.5
        a[noisy] = rng.uniform(-1.0, 1.0, (int(noisy.sum()), cols))
    return np.asfortranarray(a) if draw(st.booleans()) else a


class TestArrayEncoder:
    """dump_json of a document holding float64 arrays is json.dumps of its tolist() form."""

    @staticmethod
    def _check(tmp_path, a: np.ndarray, extra: np.ndarray, slice_rows: int | None) -> None:
        doc = {"kind": "cover", "space": {"kind": "points2d", "pts": a, "labels": ["p"]},
               "d": extra, "r": 1.0}
        plain = {"kind": "cover", "space": {"kind": "points2d", "pts": a.tolist(),
                                            "labels": ["p"]},
                 "d": extra.tolist(), "r": 1.0}
        path = tmp_path / "a.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", slice_rows or serialize._DUMP_SLICE):
            dump_json(doc, path)
        assert path.read_bytes() == (json.dumps(plain) + "\n").encode("utf-8")

    @given(a=_float_tables(), extra=_float_tables(),
           slice_rows=st.one_of(st.none(), st.integers(1, 3)))
    @example(a=np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]), extra=np.zeros((1, 1)),
             slice_rows=None)
    @example(a=np.array([[-0.0, 0.0], [0.0, -0.0], [1.5, -0.0]]), extra=np.full((4, 2), 1e22),
             slice_rows=2)
    @example(a=np.array([[5e-324, 1e-7, 1e16]]), extra=np.array([[1e22, 1e22]]),
             slice_rows=1)
    # a slice of repeats, then a slice of distinct values, then repeats again
    @example(a=np.array([[0.25, 0.25], [0.5, 0.25], [0.1, 0.2], [0.3, 0.4], [1.0, 1.0]]),
             extra=np.array([[1.7976931348623157e308], [-1.7976931348623157e308]]),
             slice_rows=2)
    def test_matches_dumps_of_lists(self, tmp_path_factory, a, extra, slice_rows):
        self._check(tmp_path_factory.mktemp("enc"), a, extra, slice_rows)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (1, 1), (5, 1)])
    def test_degenerate_shapes(self, tmp_path, shape):
        self._check(tmp_path, np.full(shape, -0.0), np.zeros((2, 2)), 2)

    def test_brick_net_file_is_unchanged(self, tmp_path):
        # quarter-spaced net: each 4,096-row slice has few distinct values
        net = gen_epsilon_net(WindowSpec.square(20), 0.25)
        assert net.n > serialize._DUMP_SLICE
        self._check(tmp_path, net.points, np.zeros((0, 2)), None)

    @pytest.mark.parametrize("axis", [np.zeros(0), np.array(SPECIAL), np.arange(9) * 0.25])
    @pytest.mark.parametrize("slice_values", [1, 2, 4096])
    def test_axes_match_dumps_of_lists(self, tmp_path, axis, slice_values):
        # a grid2d axis, written as a 1-D float64 array a slice at a time
        path = tmp_path / "x.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", slice_values):
            dump_json({"x": axis, "y": axis[::-1]}, path)
        plain = {"x": axis.tolist(), "y": axis[::-1].tolist()}
        assert path.read_bytes() == (json.dumps(plain) + "\n").encode("utf-8")

    def test_other_arrays_are_refused_like_dumps(self, tmp_path):
        for bad in (np.zeros((2, 2, 2)), np.zeros(3, dtype=np.float32),
                    np.zeros((2, 2), dtype=np.int64)):
            with pytest.raises(TypeError):
                dump_json({"a": bad}, tmp_path / "x.json")


def _runs(members: list[list[int]]) -> list[list[int]]:
    """Each sorted member as the start, stop pairs of its maximal runs of consecutive indices."""
    out = []
    for member in members:
        pairs: list[int] = []
        for i in member:
            if pairs and pairs[-1] == i:
                pairs[-1] = i + 1
            else:
                pairs += [i, i + 1]
        out.append(pairs)
    return out


def _wire_family(label: str, members: list[list[int]]) -> dict[str, Any]:
    """A family's wire object: its ranges when 2 * (maximal runs) < entries, else its members."""
    ranges = _runs(members)
    if sum(map(len, ranges)) < sum(map(len, members)):
        return {"label": label, "ranges": ranges}
    return {"label": label, "members": members}


_FAMILY_MEMBERS = st.one_of(
    st.lists(st.integers(0, 19).map(lambda i: [i]), max_size=9),  # singletons
    st.lists(st.sets(st.integers(0, 19), min_size=1, max_size=9).map(sorted), max_size=6),
    st.just([]),  # an empty family
    st.builds(lambda k: [list(range(k))], st.integers(1, 20)),  # one member
    # many members of mixed lengths, so a slice cuts through the family
    st.lists(st.sets(st.integers(0, 19), min_size=1, max_size=12).map(sorted), max_size=30),
)


class TestFamilyArrayEncoder:
    """A gen document of a cover, written from its families' index arrays, against json.dumps.

    Slices of 1 to 8 entries cut through families, put several members in
    one slice, and leave longer members alone.
    """

    SPACE = EuclideanPointSet(np.column_stack((np.arange(20) * 0.5, np.arange(20) % 3 * 0.25)))

    @given(st.lists(st.tuples(st.sampled_from(["red", "", "f\u00e9", 'a&b <c> "d"\n']),
                              _FAMILY_MEMBERS), max_size=4),
           st.one_of(st.none(), st.integers(1, 8)), st.booleans())
    def test_matches_dumps_of_lists(self, tmp_path_factory, families, slice_items, loaded):
        fams = tuple(family_from_json({"label": label, "members": members}) if loaded
                     else SubsetFamily(label, members) for label, members in families)
        doc = serialize._document(self.SPACE, fams, 1.5, c=2.0, arrays=True)
        plain = cover_to_json(self.SPACE, fams, 1.5, c=2.0)
        assert plain["families"] == [_wire_family(label, [sorted(set(m)) for m in members])
                                     for label, members in families]
        path = tmp_path_factory.mktemp("fam") / "c.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", slice_items or serialize._DUMP_SLICE):
            dump_json(doc, path)
        assert path.read_bytes() == (json.dumps(plain) + "\n").encode("utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc, None)
        assert out.getvalue() == json.dumps(plain, indent=2) + "\n"

    def test_pieces_hold_at_most_a_slice_of_entries(self):
        fam = SubsetFamily("f", [[0, 1, 2], [3], [4, 5], [6, 7, 8, 9, 10, 11], [12], [13]])
        with mock.patch.object(serialize, "_DUMP_SLICE", 4):
            pieces = list(serialize._encode(serialize._Members(*fam._index)))
        assert "".join(pieces) == json.dumps([list(m.indices) for m in fam.members])
        # three members, then one member alone, written 4 entries at a time, then two
        assert pieces == ["[", "[0, 1, 2], [3]", ", ", "[4, 5]", ", ", "[", "6, 7, 8, 9", ", 10, 11",
                          "]", ", ", "[12], [13]", "]"]

    def test_gen_document_never_holds_a_family_of_lists(self, tmp_path):
        # 160,801 points in two families of about 80,400 singletons
        lat = gen_lattice_window(WindowSpec.square(400))
        families = gen_chess_families(lat)
        tracemalloc.start()
        try:
            lists = family_to_json(families[0])
            whole = tracemalloc.get_traced_memory()[0]
            del lists
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            doc = serialize._document(lat, families, math.sqrt(2), c=0.0, arrays=True)
            dump_json(doc, tmp_path / "chess.json")
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < whole / 2
        assert json.loads((tmp_path / "chess.json").read_text()) == cover_to_json(
            lat, families, math.sqrt(2), c=0.0)


class TestRowsText:
    """_rows_text is json.dumps of the rows' lists, on either side of the half-distinct rule."""

    @staticmethod
    def _slice(distinct: np.ndarray, cells: int, seed: int) -> np.ndarray:
        """A (cells / 2, 2) slice holding exactly the given distinct values, in shuffled cells."""
        rng = np.random.default_rng(seed)
        flat = np.concatenate([distinct, rng.choice(distinct, cells - distinct.size)])
        return rng.permutation(flat).reshape(-1, 2)

    @pytest.mark.parametrize("rows", [1, 2, 7, 4096])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_at_and_past_the_half_distinct_boundary(self, rows, signed_zeros):
        cells = 2 * rows
        rng = np.random.default_rng(rows)
        for distinct, joined in ((cells // 2, True), (cells // 2 + 1, False), (cells, False)):
            values = rng.uniform(-1e3, 1e3, distinct)
            if signed_zeros and distinct >= 2:
                values[:2] = [-0.0, 0.0]  # distinct by bits
            a = self._slice(values, cells, distinct)
            with mock.patch("numpy.unique", wraps=np.unique) as unique:
                text = serialize._rows_text(a)
            assert text == json.dumps(a.tolist())[1:-1]
            assert unique.called is joined

    def test_all_distinct_and_signed_zero_slices(self):
        rng = np.random.default_rng(5)
        for a in (rng.uniform(-1.0, 1.0, (4096, 2)), np.array([[-0.0, 0.0]] * 9),
                  np.array([[-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0]]), np.zeros((0, 2))):
            assert serialize._rows_text(a) == json.dumps(a.tolist())[1:-1]


# coordinate tokens json reads, some of which numpy's text parsers read another way
_COORDINATES = ["-0.0", "-0", "0", "5e-324", "1e+300", "1E5", "7", "-2.5e-3",
                "123456789012345678901", "1" + "0" * 400, "1e400"]
_ENTRIES = ["-0", "-1", "0", "99999", "1.0", "1" + "0" * 25]
# breaks of a family's ranges: an odd count, a == b, not increasing, a start below 0, a
# stop past n, a float and a boolean entry ("empty-member" empties a ranges member too)
_RANGE_BREAKS = ["ranges-odd", "ranges-empty", "ranges-order", "ranges-negative",
                 "ranges-past-n", "ranges-float", "ranges-bool"]
_PERTURBATIONS = ["none", "space", "indent", "reorder", "matrix", "coordinate", "entry",
                  "ragged", "empty-member", "truncate", "label", "labels", "labels-null",
                  "target", "late-space", "strict", "empty-space", "repeat", *_RANGE_BREAKS]
# gen arguments of every cover kind, on windows of side a by b
_GEN_COVERS = {
    "chess": lambda a, b: ["chess", "--window", f"0,{a},0,{b}"],
    "comb-cover": lambda a, b: ["comb-cover", "--window", f"0,{a},-{b + 1},{b + 1}",
                                "--delta", "0.5"],
    "brick": lambda a, b: ["brick", "--window", f"0,{a},0,{b}", "--r", "1"],
    "interval": lambda a, b: ["interval", "--window", f"0,{a},0,{b}", "--r", "1"],
}
_NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")
_LIST = re.compile(r"\[[^\[\]]*\]")  # a points2d row or a grid2d axis


def _as_points2d(text: str) -> str:
    """A cover file's text with its space written as the list of its points."""
    obj = json.loads(text)
    obj["space"] = {"kind": "points2d", "pts": space_from_json(obj["space"]).points.tolist()}
    return json.dumps(obj) + "\n"


def _with_ranges(text: str) -> str:
    """A cover file's text with its families written as ranges, unless one already is."""
    if '"ranges": ' in text:
        return text
    obj = json.loads(text)
    obj["families"] = [{"label": f["label"], "ranges": _runs(f["members"])}
                       for f in obj["families"]]
    return json.dumps(obj) + "\n"


def _perturb(text: str, how: str, rng: np.random.Generator) -> str:
    """A cover file's text changed one way; most ways leave dump_json's layout.

    The coordinates are a points2d space's rows or a grid2d space's axes.
    On a points2d space "ragged" changes a row's length, "empty-space"
    empties the rows and "repeat" repeats a row; on a grid2d space they nest
    an axis value, empty an axis and repeat an axis value, and "labels" is
    a space key besides kind, x and y. A break of ranges (_RANGE_BREAKS)
    first writes the families as ranges where none is.
    """
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    if how in _RANGE_BREAKS:
        text = _with_ranges(text)
        ms = [m for s in re.finditer(r'"ranges": \[', text)
              for m in _LIST.finditer(text, s.end(), text.index("}", s.end()))]
        if not ms:
            return text
        m = pick(ms)
        nums = [int(v) for v in m[0][1:-1].split(", ")]
        k = int(rng.integers(len(nums)))
        words = list(map(str, nums))
        if how == "ranges-odd":
            del words[k]
        elif how == "ranges-empty":  # a pair's stop set to its start
            words[k | 1] = words[k & ~1]
        elif how == "ranges-order":
            words.reverse()
        elif how == "ranges-negative":
            words[0] = pick(["-1", "-7", "-" + "9" * 20])
        elif how == "ranges-past-n":
            n = space_from_json(json.loads(text)["space"]).n
            words[-1] = pick([str(n + 1), str(n + 5), "9" * 20])
        else:
            words[k] = pick([words[k] + ".0", words[k] + "e0", "1E1"] if how == "ranges-float"
                            else ["true", "false"])
        return text[:m.start()] + "[" + ", ".join(words) + "]" + text[m.end():]

    grid = text.startswith(serialize._GRID_HEAD)
    # the space's coordinates: from the rows' "[[", or the x axis' "[", to just past the last "]"
    if grid:
        pts_start = text.index('"x": ') + len('"x": ')
        pts_end = text.index('}, "families": ')
    else:
        pts_start = text.index('"pts": ') + len('"pts": ')
        pts_end = text.index("]]", pts_start) + 2
    numbers = list(_NUMBER.finditer(text, pts_start, pts_end))
    if how == "space":
        at = pick([m.end() for m in re.finditer(r", |: ", text)])
        return text[:at] + " " + text[at:]
    if how in ("indent", "reorder", "matrix"):
        obj = json.loads(text)
        if how == "indent":
            return json.dumps(obj, indent=int(rng.integers(0, 3)))
        if how == "reorder":
            obj["space"] = dict(reversed(obj["space"].items()))
            return json.dumps(dict(reversed(obj.items())))
        pts = space_from_json(obj["space"]).points
        d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
        obj["space"] = {"kind": "matrix", "n": len(pts), "d": d.tolist()}
        return json.dumps(obj)
    if how in ("coordinate", "ragged"):
        if how == "coordinate":
            m = pick(numbers)
            return text[:m.start()] + pick(_COORDINATES) + text[m.end():]
        if grid:
            m = pick(numbers)
            return text[:m.start()] + pick([f"[{m[0]}]", f"[{m[0]}, 0.5]"]) + text[m.end():]
        m = pick(list(re.finditer(r"\[([^\[\]]*), ([^\[\]]*)\]", text[:pts_end])))
        row = pick([f"[{m[1]}]", f"[{m[1]}, {m[2]}, 0.5]", f"[{m[1]}, {m[2]}, 0.5], [0.5]"])
        return text[:m.start()] + row + text[m.end():]
    if how == "empty-space":
        m = pick(list(_LIST.finditer(text, pts_start, pts_end))) if grid else None
        at, end = (m.start(), m.end()) if grid else (pts_start, pts_end)
        return text[:at] + "[]" + text[end:]
    if how == "repeat":  # a point, or an axis value, twice
        m = pick(numbers if grid else list(_LIST.finditer(text, pts_start + 1, pts_end)))
        return text[:m.end()] + ", " + m[0] + text[m.end():]
    if how == "entry":
        ms = [m for s in re.finditer(r'"(?:members|ranges)": ', text)
              for m in _NUMBER.finditer(text, s.end(), text.index("}", s.end()))]
        if not ms:
            return text
        m = pick(ms)
        return text[:m.start()] + pick(_ENTRIES) + text[m.end():]
    if how == "empty-member":
        at = pick([m.end() - 1 for m in re.finditer(r'"(?:members|ranges)": \[', text)])
        return text[:at + 1] + ("[]" if text[at + 1] == "]" else "[], ") + text[at + 1:]
    if how == "truncate":
        return text[:int(rng.integers(len(text)))]
    if how == "label":
        label = json.dumps('x"}, {"label": "y", "members": [[0]]}], "pts": [[0.0, 1.0]]')
        return re.sub(r'(\{"label": )("(?:[^"\\]|\\.)*")', lambda m: m[1] + label, text, count=1)
    if how in ("target", "late-space"):  # a key after the others: json keeps the last "space"
        key = pick(['"target": [0]', '"target": [0, 3]', '"target": []']) if how == "target" \
            else '"space": ' + pick(['{"kind": "points2d", "pts": [[5.0, 5.0]]}',
                                     '{"kind": "grid2d", "x": [5.0], "y": [5.0, 6.0]}'])
        return text.rstrip()[:-1] + ", " + key + "}\n"
    if how in ("labels", "labels-null"):  # per-point labels, as older files have them
        n = space_from_json(json.loads(text)["space"]).n
        labels = pick([n, n + 1, n - 1]) * ["(0,0)"] if how == "labels" else None
        return text[:pts_end] + ', "labels": ' + json.dumps(labels) + text[pts_end:]
    if how == "strict":
        return text.replace('"strict": false', '"strict": ' + pick(['"false"', "0", "null", "true"]))
    return text


def _outcome(read: Callable[[], Any]) -> tuple:
    """What a cover reader returns, points and matrices as bits, or its error's type and text."""
    try:
        space, families, r, strict, target = read()
    except Exception as exc:  # both readers must fail alike
        return type(exc), str(exc)
    table = space.points if isinstance(space, EuclideanPointSet) else space.matrix
    return (type(space), table.shape, table.view(np.int64).tolist(),
            [(fam.label, fam._index[0].tolist(), fam._index[1].tolist()) for fam in families],
            struct.pack("<d", r), strict, target)


_TWO = "[[0.0, 0.0], [1.0, 0.0]]"
_FOUR = "[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]"
_TAIL = ', "r": 1.0, "strict": false}\n'


def _family(members: str, label: str = '"red"') -> str:
    return '[{"label": %s, "members": %s}]' % (label, members)


class TestLoadCover:
    """load_cover against cover_from_json(load_json(...)): the same bits, or the same error."""

    @pytest.mark.parametrize("pts, families, tail, fast", [
        (_TWO, _family("[[0], [1]]"), _TAIL, True),
        ("[[-0.0, 5e-324], [1E5, 1e+300], [7, 123456789012345678901]]", _family("[[0, 2], [1]]"),
         _TAIL, True),
        (_TWO, _family("[[0]]", json.dumps('"pts": [[0.0, 1.0]], "members": [[1]]')), _TAIL, True),
        (_TWO, _family("[]"), _TAIL, True),
        (_TWO, "[]", ', "r": 1.0, "target": [1]}\n', True),
        ("[[1.0, 0.0], [1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, True),  # a duplicate point
        ("[[0.0, 0.0, 1.0], [2.0]]", _family("[[0]]"), _TAIL, False),  # ragged, four values
        ("[[0.0, 0.0], [1.0]]", _family("[[0]]"), _TAIL, False),
        (_TWO, _family("[[]]"), _TAIL, False),  # empty members
        (_TWO, _family("[[0], []]"), _TAIL, False),
        (_TWO, _family("[[], [1]]"), _TAIL, False),
        # three spaces in one member and none in the other: a count from the brackets'
        # positions would read members of 3 and 1 entries
        (_FOUR, _family("[[0,   1], [2,3]]"), _TAIL, False),
        (_TWO, _family("5[0]]"), _TAIL, False),  # not JSON
        (_TWO, _family("[3[0]]"), _TAIL, False),
        (_TWO, _family("[[0]1, [1]]"), _TAIL, False),
        ("[[0.0, 0.0]1, [1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, False),
        (_TWO, _family("[[0] [1]]"), _TAIL, False),
        (_TWO, _family("[[0], [1]]"), '}{"r": 1.0}\n', False),
        ("[[0.0, 0.0],[1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, False),
        ("[[+1.0, 0.0], [1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, False),  # json refuses these
        ("[[.5, 0.0], [1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, False),
        ("[[01, 0.0], [1.0, 0.0]]", _family("[[0], [1]]"), _TAIL, False),
        # per-point labels, of any length, are read by the plain path and ignored
        (_TWO + ', "labels": ["a"]', _family("[[0], [1]]"), _TAIL, False),
        # a strict that is not a JSON boolean fails on the array path as on the plain one
        (_TWO, _family("[[0], [1]]"), ', "r": 1.0, "strict": "false"}\n', True),
        (_TWO, _family("[[0], [1]]"), ', "r": 1.0, "strict": 0}\n', True),
    ])
    def test_hand_written_files(self, tmp_path, pts, families, tail, fast):
        path = tmp_path / "c.json"
        path.write_text(serialize._COVER_HEAD + pts + serialize._FAMILIES[:-1] + families + tail,
                        encoding="utf-8")
        want = _outcome(lambda: cover_from_json(load_json(path)))
        with mock.patch.object(serialize, "cover_from_json",
                               wraps=serialize.cover_from_json) as plain, \
                mock.patch.object(json, "loads", wraps=json.loads) as loads:
            got = _outcome(lambda: serialize.load_cover(path))
        assert got == want
        # a file off the array path is parsed whole, by json.loads of its text
        assert (plain.call_count == 0
                and path.read_text() not in [c.args[0] for c in loads.call_args_list]) is fast

    @pytest.mark.parametrize("space, fast", [
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [-0.0]}', True),
        ('{"kind": "grid2d", "x": [-1, 1E5, 5e-324], "y": [2.5, 123456789012345678901]}', True),
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0], "x": [2.0, 3.0]}', True),  # json's last
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0]  }', True),
        ('{"kind": "grid2d", "x": [0.0, 0.0], "y": [0.0]}', True),  # a duplicate point
        ('{"kind": "grid2d", "x": [0.0, 1e400], "y": [0.0]}', True),
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": []}', True),
        ('{"kind": "grid2d", "x": [0.0, [1.0]], "y": [0.0]}', True),
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0], "labels": ["a", "b"]}', False),
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0], "pts": [[0.0, 0.0]]}', False),
        ('{"kind": "grid2d", "x": [0.0, 1.0]}', False),
        ('{"kind": "grid2d", "y": [0.0], "x": [0.0, 1.0]}', False),
        ('{"kind": "grid2d",  "x": [0.0, 1.0], "y": [0.0]}', False),
        ('{"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0]]', False),  # not JSON
    ])
    def test_hand_written_grid_files(self, tmp_path, space, fast):
        path = tmp_path / "c.json"
        path.write_text('{"kind": "cover", "space": ' + space + serialize._FAMILIES[1:-1]
                        + _family("[[0], [1]]") + _TAIL, encoding="utf-8")
        want = _outcome(lambda: cover_from_json(load_json(path)))
        with mock.patch.object(serialize, "cover_from_json",
                               wraps=serialize.cover_from_json) as plain, \
                mock.patch.object(json, "loads", wraps=json.loads) as loads:
            got = _outcome(lambda: serialize.load_cover(path))
        assert got == want
        assert (plain.call_count == 0
                and path.read_text() not in [c.args[0] for c in loads.call_args_list]) is fast

    # every perturbation, of the file as gen writes it and of its points2d rewrite
    @pytest.mark.parametrize("layout", ["gen", "points2d"])
    @pytest.mark.parametrize("how", _PERTURBATIONS)
    @settings(max_examples=6)
    @given(kind=st.sampled_from(sorted(_GEN_COVERS)), a=st.integers(0, 3), b=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1), read_chars=st.sampled_from([1, 40, None]))
    @example(kind="chess", a=2, b=2, seed=0, read_chars=None)
    @example(kind="brick", a=3, b=3, seed=0, read_chars=1)
    @example(kind="chess", a=1, b=2, seed=0, read_chars=None)
    @example(kind="interval", a=3, b=0, seed=0, read_chars=None)
    @example(kind="comb-cover", a=3, b=1, seed=0, read_chars=40)
    def test_matches_the_plain_reader(self, tmp_path_factory, layout, how, kind, a, b, seed,
                                      read_chars):
        path = tmp_path_factory.mktemp("cover") / "c.json"
        assert cli.main(["gen", *_GEN_COVERS[kind](a, b), "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        if layout == "points2d":
            text = _as_points2d(text)
        if how == "matrix" and space_from_json(json.loads(text)["space"]).n > 60:
            how = "none"  # keep the triangle check of the matrix small
        path.write_text(_perturb(text, how, np.random.default_rng(seed)), encoding="utf-8")
        want = _outcome(lambda: cover_from_json(load_json(path)))
        with mock.patch.object(serialize, "_READ_CHARS", read_chars or serialize._READ_CHARS), \
                mock.patch.object(serialize, "cover_from_json",
                                  wraps=serialize.cover_from_json) as plain:
            got = _outcome(lambda: serialize.load_cover(path))
        assert got == want
        if how == "none":
            assert plain.call_count == 0  # a file as gen writes it takes the array path
            assert len(got) > 2


@st.composite
def _run_families(draw) -> tuple[int, list[list[list[int]]]]:
    """n, and families over n points whose members are unions of drawn runs.

    Runs of 1, 2 or 3 indices, or up to the last index, so singletons,
    two-entry runs, gaps between runs and a last stop equal to n all occur.
    """
    n = draw(st.integers(1, 30))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        members = []
        for _ in range(draw(st.integers(0, 5))):
            member: set[int] = set()
            for _ in range(draw(st.integers(1, 4))):
                start = draw(st.integers(0, n - 1))
                member.update(range(start, min(start + draw(st.sampled_from([1, 2, 3, n])), n)))
            members.append(sorted(member))
        families.append(members)
    return n, families


class TestRanges:
    """A family written as ranges reads as the family its members list."""

    @staticmethod
    def _text(n: int, families: list[dict[str, Any]]) -> str:
        space = {"kind": "grid2d", "x": [float(i) for i in range(n)], "y": [0.0]}
        return json.dumps({"kind": "cover", "space": space, "families": families,
                           "r": 1.0, "strict": False}) + "\n"

    @given(_run_families(), st.sampled_from([1, 8, None]))
    @example((3, [[[0, 1, 2]], [[0], [2]]]), None)  # one run up to n; singletons
    @example((5, [[[0, 1, 3, 4], [2]]]), 1)  # two-entry runs around a gap
    def test_members_and_ranges_read_alike(self, tmp_path_factory, drawn, read_chars):
        n, families = drawn
        want = tuple(SubsetFamily(f"f{k}", members, n) for k, members in enumerate(families))
        path = tmp_path_factory.mktemp("ranges") / "c.json"
        for key, value in (("members", lambda m: m), ("ranges", _runs)):
            text = self._text(n, [{"label": f"f{k}", key: value(members)}
                                  for k, members in enumerate(families)])
            path.write_text(text, encoding="utf-8")
            with mock.patch.object(serialize, "_READ_CHARS", read_chars or serialize._READ_CHARS), \
                    mock.patch.object(serialize, "cover_from_json",
                                      wraps=serialize.cover_from_json) as plain:
                fast = serialize.load_cover(path)[1]
            assert plain.call_count == 0  # the array reader took it
            assert cover_from_json(json.loads(text))[1] == fast == want

    @pytest.mark.parametrize("ranges, error", [
        ([[0, 2, 1, 3]], "strictly increasing"),
        ([[0, 1, 1, 2]], "strictly increasing"),  # adjacent runs are one range
        ([[2, 2]], "strictly increasing"),
        ([[0, 1, 2]], "got 3 numbers"),
        ([[]], "subset must be nonempty"),
        ([[0, 1], [-2, 1]], "index -2 out of range for ambient of size 0"),
        ([[0, 5]], "index 4 out of range for ambient of size 4"),
        # far past n: the index is named before the entries are counted against the cap
        ([[0, 2 ** 40]], f"index {2 ** 40 - 1} out of range for ambient of size 4"),
        ([[-(2 ** 40), 1]], f"index {-(2 ** 40)} out of range for ambient of size 0"),
        ([[0, 10 ** 20]], f"index {10 ** 20 - 1} out of range for ambient of size 4"),
        ([[-(10 ** 20), 1]], f"index {-(10 ** 20)} out of range for ambient of size 0"),
        ([[0, 1.0]], "JSON integers"),
        ([[0, True]], "JSON integers"),
        ([[0, 1], 2], "JSON array of arrays"),
        ({"0": 1}, "JSON array of arrays"),
    ])
    def test_malformed_ranges_are_refused(self, ranges, error):
        with pytest.raises(Exception, match=re.escape(error)):
            family_from_json({"label": "f", "ranges": ranges}, n=4)

    @pytest.mark.parametrize("obj", [{"label": "f"},
                                     {"label": "f", "members": [[0]], "ranges": [[0, 1]]}])
    def test_a_family_holds_one_of_the_forms(self, obj):
        with pytest.raises(ValueError, match="exactly one of members and ranges"):
            family_from_json(obj, n=4)

    def test_ranges_past_the_entry_cap_are_refused_unexpanded(self, tmp_path, capsys):
        # 101 members of 10,000 entries over a 100 x 100 grid: a 2 kB file
        # that would expand to 1,010,000 entries, past POINT_CAP
        axis = list(range(100))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "cover", "space": {"kind": "grid2d", "x": axis,
                                                               "y": axis},
                                    "families": [{"label": "f", "ranges": [[0, 10000]] * 101}],
                                    "r": 1.0, "strict": False}), encoding="utf-8")
        assert path.stat().st_size < 2200
        for read in (lambda: serialize.load_cover(path),
                     lambda: cover_from_json(load_json(path))):
            with mock.patch.object(serialize, "_expand_ranges",
                                   wraps=serialize._expand_ranges) as expand:
                with pytest.raises(TooManyPoints, match="1010000 member entries, cap is 1000000"):
                    read()
            assert expand.call_count == 0
        tracemalloc.start()
        try:
            assert cli.main(["verify-cover", "--cover", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < POINT_CAP  # bytes: an eighth of the expanded int64 array
        assert capsys.readouterr().err.splitlines() == [
            "validation: ranges families list 1010000 member entries, cap is 1000000"]

    @pytest.mark.parametrize("kind, key", [("chess", "members"), ("brick", "ranges"),
                                           ("interval", "ranges"), ("comb-cover", "ranges")])
    def test_gen_picks_the_form_by_runs(self, tmp_path, kind, key):
        path = tmp_path / "c.json"
        assert cli.main(["gen", *_GEN_COVERS[kind](6, 6), "--out", str(path)]) == 0
        families = json.loads(path.read_text())["families"]
        assert families and all(list(f) == ["label", key] for f in families)

    @pytest.mark.parametrize("members, key", [
        ([[0, 1], [3, 4]], "members"),  # 2 * 2 runs == 4 entries
        ([[0], [2]], "members"),
        ([[0, 1, 2], [4, 5]], "ranges"),  # 2 * 2 runs < 5 entries
        ([[0, 1], [2, 3]], "members"),  # a run ends where its member ends
        ([[0, 1, 2, 3], [5]], "ranges"),
        ([], "members"),
    ])
    def test_the_form_boundary(self, members, key):
        fam = SubsetFamily("f", members, 8)
        obj = family_to_json(fam)
        assert obj == _wire_family("f", members) and key in obj
        assert family_from_json(obj, 8) == fam
