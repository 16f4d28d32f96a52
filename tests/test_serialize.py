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
from hypothesis import example, given, strategies as st

from conftest import nested_layout, random_metric_matrix
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
from ghbounds.errors import (DuplicatePoint, EmptySubset, IndexOutOfRange, SpaceTooLarge,
                             TooManyPoints, TriangleViolation)
from ghbounds.metric import EuclideanPointSet, SubsetRef


class TestSpaceRoundTrip:
    def test_points_without_labels(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [0.25, 0.75]]))
        obj = space_to_json(pts)
        assert obj == {"kind": "points2d", "xy": [0.0, 0.0, 0.25, 0.75]}
        back = space_from_json(obj)
        assert np.array_equal(back.points, pts.points)
        # a space written as rows, with per-point labels, reads as its points
        old = space_from_json({"kind": "points2d", "pts": [[0.0, 0.0], [0.25, 0.75]],
                               "labels": ["(0,0)", "(1,1)"]})
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
    """points2d coordinates are xy, or pts rows flattened into it; either is np.asarray's bits."""

    def test_rows_read_like_asarray(self):
        rng = np.random.default_rng(23)
        rows = np.concatenate([rng.uniform(-1e3, 1e3, (200, 2)),
                               [[-0.0, 5e-324], [0.1 * 3, 1e308], [-1e-300, 2.0 ** 60]]])
        for pts in (rows.tolist(), rows[:1].tolist(), [[1, 2], [-0, 3.5]]):
            want = np.asarray(pts, dtype=np.float64)
            for obj in ({"kind": "points2d", "pts": pts},
                        {"kind": "points2d", "xy": [v for row in pts for v in row]}):
                got = space_from_json(obj).points
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("obj", [
        {"pts": [[0.0, 0.0], [1.0, 2.0, 3.0]]},  # a point with three coordinates
        {"pts": [[0.0, 0.0, 1.0], [2.0]]},  # ragged: the right number of values in all
        {"pts": [[0.0, 0.0], [1.0]]},
        {"pts": [[0.0, 0.0], "12"]},  # a string row of length 2
        {"pts": "12"},
        {"pts": [[0.0, "x"], [1.0, 2.0]]},
        {"pts": [[1, 2], [True, 3.5]]},  # a boolean is no coordinate
        {"pts": [[0.0, None]]},
        {"pts": []},
        {"xy": [0.0, 1.0, 2.0]},
        {"xy": [0.0, "1"]},
        {"xy": [True, 1.0]},
        {"xy": [[0.0, 1.0]]},
        {"xy": [None, 0.0]},
        {"xy": []},
        {"xy": "01"},
        {"xy": [0.0, 1.0], "pts": [[0.0, 1.0]]},
        {},
    ], ids=["three-coordinates", "ragged-compensating", "ragged", "string-row", "string",
            "non-number", "boolean", "null", "empty", "xy-odd", "xy-string", "xy-boolean",
            "xy-nested", "xy-null", "xy-empty", "xy-text", "both-keys", "no-key"])
    def test_malformed_rows_are_rejected_up_front(self, obj, tmp_path):
        obj = {"kind": "points2d", **obj}
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
        ("matrix", "d", 1001, 1000), ("points2d", "pts", POINT_CAP + 1, POINT_CAP),
        ("points2d", "xy", POINT_CAP + 1, POINT_CAP)])
    def test_listed_rows_are_counted_before_any_array(self, kind, key, rows, cap):
        # every row is one shared list, and xy one float repeated, so the document is cheap
        doc = {"kind": kind, key: [0.0] * (2 * rows) if key == "xy"
               else [[0.0] * (rows if kind == "matrix" else 2)] * rows}
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

    def test_a_cover_counts_its_points_in_either_layout(self, tmp_path, monkeypatch):
        space = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 3.0]]))
        doc = cover_to_json(space, [SubsetFamily("a", [[0], [1], [2]])], 0.5)
        path = tmp_path / "cover.json"
        dump_json(doc, path)
        monkeypatch.setitem(serialize._SPACE_LISTS, "points2d", (("pts",), 2))
        for read in (lambda: serialize.load_cover(path),
                     lambda: cover_from_json(nested_layout(doc))):
            with pytest.raises(SpaceTooLarge) as info:
                read()
            assert (info.value.kind, info.value.count, info.value.cap) == ("points2d", 3, 2)

    @pytest.mark.parametrize("doc", [
        [1, 2], {"kind": "points2d", "pts": 5}, {"kind": "points2d", "xy": 5},
        {"kind": "grid2d", "x": [0.0]},
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
        assert obj == {"label": "f", "members": [0, 2, 3], "sizes": [1, 2]}
        assert family_from_json(obj, n=4) == fam
        assert family_from_json({"label": "f", "members": [[0], [2, 3]]}, n=4) == fam


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
            assert kind == "grid2d" or len(obj["space"]["xy"]) > serialize._DUMP_SLICE
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
    """dump_json of a document holding 1-D float64 arrays is json.dumps of its tolist() form."""

    @staticmethod
    def _check(tmp_path, a: np.ndarray, extra: np.ndarray, slice_values: int | None) -> None:
        # a's values in row order, and extra's last column, a strided view
        xy, column = a.ravel(), extra[:, -1]
        doc = {"kind": "cover", "space": {"kind": "points2d", "xy": xy, "labels": ["p"]},
               "d": column, "r": 1.0}
        plain = {"kind": "cover", "space": {"kind": "points2d", "xy": xy.tolist(),
                                            "labels": ["p"]},
                 "d": column.tolist(), "r": 1.0}
        path = tmp_path / "a.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", slice_values or serialize._DUMP_SLICE):
            dump_json(doc, path)
        assert path.read_bytes() == (json.dumps(plain) + "\n").encode("utf-8")

    @given(a=_float_tables(), extra=_float_tables(),
           slice_values=st.one_of(st.none(), st.integers(1, 5)))
    @example(a=np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]), extra=np.zeros((1, 1)),
             slice_values=None)
    @example(a=np.array([[-0.0, 0.0], [0.0, -0.0], [1.5, -0.0]]), extra=np.full((4, 2), 1e22),
             slice_values=4)
    @example(a=np.array([[5e-324, 1e-7, 1e16]]), extra=np.array([[1e22, 1e22]]),
             slice_values=1)
    # a slice of repeats, then a slice of distinct values, then repeats again
    @example(a=np.array([[0.25, 0.25], [0.5, 0.25], [0.1, 0.2], [0.3, 0.4], [1.0, 1.0]]),
             extra=np.array([[1.7976931348623157e308], [-1.7976931348623157e308]]),
             slice_values=4)
    def test_matches_dumps_of_lists(self, tmp_path_factory, a, extra, slice_values):
        self._check(tmp_path_factory.mktemp("enc"), a, extra, slice_values)

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
        for bad in (np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros(3, dtype=np.float32),
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
    """A family's wire object: its ranges when 2 * (maximal runs) < entries, else its members.

    The member lists go one after another into one list, with their sizes.
    """
    ranges = _runs(members)
    if sum(map(len, ranges)) < sum(map(len, members)):
        return _flat_family(label, "ranges", ranges)
    return _flat_family(label, "members", members)


def _flat_family(label: str, key: str, lists: list[list[int]]) -> dict[str, Any]:
    """A family's wire object from its members' index or range lists, one after another."""
    return {"label": label, key: [i for m in lists for i in m], "sizes": list(map(len, lists))}


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

    def test_pieces_hold_at_most_a_slice_of_values(self):
        fam = SubsetFamily("f", [[0, 2, 4], [6], [8, 10], [12, 14, 16, 18, 20, 22], [24], [26]])
        with mock.patch.object(serialize, "_DUMP_SLICE", 4):
            pieces = list(serialize._encode(serialize._family_document(fam, arrays=True)))
        assert "".join(pieces) == json.dumps(family_to_json(fam))
        # the entries and the sizes, each written 4 values at a time
        assert pieces == ["{", '"label": ', '"f"', ', "members": ', "[", "0, 2, 4, 6",
                          ", 8, 10, 12, 14", ", 16, 18, 20, 22", ", 24, 26", "]", ', "sizes": ',
                          "[", "3, 1, 2, 6", ", 1, 1", "]", "}"]

    def test_gen_document_never_holds_a_family_of_lists(self, tmp_path):
        # 160,801 points in two families of about 80,400 singletons: the document
        # keeps their index arrays and sizes, a slice of which is a list at a time
        lat = gen_lattice_window(WindowSpec.square(400))
        families = gen_chess_families(lat)
        tracemalloc.start()
        try:
            lists = [family_to_json(f) for f in families]
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


class TestValuesText:
    """_values_text is json.dumps of the values' list, on either side of the half-distinct rule."""

    @staticmethod
    def _slice(distinct: np.ndarray, size: int, seed: int) -> np.ndarray:
        """A slice of size values holding exactly the given distinct values, shuffled."""
        rng = np.random.default_rng(seed)
        return rng.permutation(np.concatenate([distinct, rng.choice(distinct,
                                                                    size - distinct.size)]))

    @pytest.mark.parametrize("size", [2, 4, 14, 8192])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_at_and_past_the_half_distinct_boundary(self, size, signed_zeros):
        rng = np.random.default_rng(size)
        for distinct, joined in ((size // 2, True), (size // 2 + 1, False), (size, False)):
            values = rng.uniform(-1e3, 1e3, distinct)
            if signed_zeros and distinct >= 2:
                values[:2] = [-0.0, 0.0]  # distinct by bits
            a = self._slice(values, size, distinct)
            with mock.patch("numpy.unique", wraps=np.unique) as unique:
                text = serialize._values_text(a)
            assert text == json.dumps(a.tolist())[1:-1]
            assert unique.called is joined

    def test_all_distinct_and_signed_zero_slices(self):
        rng = np.random.default_rng(5)
        for a in (rng.uniform(-1.0, 1.0, 8192), np.array([-0.0, 0.0] * 9),
                  np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 0.0]), np.zeros(0),
                  np.arange(12.0)[::3], np.zeros((4, 2))[:, 1]):  # strided views too
            assert serialize._values_text(a) == json.dumps(a.tolist())[1:-1]


# gen arguments of every cover kind, on windows of side a by b
_GEN_COVERS = {
    "chess": lambda a, b: ["chess", "--window", f"0,{a},0,{b}"],
    "comb-cover": lambda a, b: ["comb-cover", "--window", f"0,{a},-{b + 1},{b + 1}",
                                "--delta", "0.5"],
    "brick": lambda a, b: ["brick", "--window", f"0,{a},0,{b}", "--r", "1"],
    "interval": lambda a, b: ["interval", "--window", f"0,{a},0,{b}", "--r", "1"],
}


def _outcome(read: Callable[[], Any]) -> tuple:
    """What a cover read returns, points and matrices as bits, or its error's type and text."""
    try:
        space, families, r, strict, target = read()
    except Exception as exc:  # both layouts must fail alike
        return type(exc), str(exc)
    table = space.points if isinstance(space, EuclideanPointSet) else space.matrix
    return (type(space), table.shape, table.view(np.int64).tolist(),
            [(fam.label, fam._index[0].tolist(), fam._index[1].tolist()) for fam in families],
            struct.pack("<d", r), strict, target)


def _draw_families(draw, n: int) -> list[list[list[int]]]:
    """Families over n points: all singletons, or members that are unions of drawn runs.

    Runs of 1, 2 or 3 indices, or up to the last index, so singletons,
    two-entry runs, gaps between runs and a last stop equal to n all occur.
    """
    families = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            families.append([[i] for i in sorted(draw(st.sets(st.integers(0, n - 1))))])
            continue
        members = []
        for _ in range(draw(st.integers(0, 5))):
            member: set[int] = set()
            for _ in range(draw(st.integers(1, 4))):
                start = draw(st.integers(0, n - 1))
                member.update(range(start, min(start + draw(st.sampled_from([1, 2, 3, n])), n)))
            members.append(sorted(member))
        families.append(members)
    return families


@st.composite
def _run_families(draw) -> tuple[int, list[list[list[int]]]]:
    """n, and families over n points (``_draw_families``)."""
    n = draw(st.integers(1, 30))
    return n, _draw_families(draw, n)


# coordinates that stay apart by bits: -0.0 and 0.0 are never on one axis
_SIGNED = [-0.0, 5e-324, 0.1 * 3, 1e22, -2.5, 7.0]


@st.composite
def _planar_covers(draw) -> tuple[EuclideanPointSet, list[list[list[int]]]]:
    """A grid2d or points2d set, with signed zeros, and families over its points."""
    axis = st.lists(st.sampled_from(_SIGNED), min_size=1, max_size=5, unique=True)
    xs, ys = draw(axis), draw(axis)
    pts = np.array([[x, y] for x in xs for y in ys])
    if draw(st.booleans()):  # a shuffle, which is no cross product unless it is one point
        pts = pts[np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(pts))]
    return EuclideanPointSet(pts), _draw_families(draw, len(pts))


def _broken(doc: dict[str, Any], how: str) -> dict[str, Any]:
    """A gen cover document broken one way: its first family's lists, or its space's coordinates."""
    doc = json.loads(json.dumps(doc))
    n = space_from_json(doc["space"]).n
    fam = doc["families"][0]
    values, sizes = fam["members" if "members" in fam else "ranges"], fam["sizes"]
    space = doc["space"]
    coords = space["xy"] if "xy" in space else space["x"]
    if how == "entry-negative" or how == "ranges-negative":
        values[0] = -1
    elif how == "entry-past-n":  # an index n, or a stop n + 1
        values[-1] = n + ("ranges" in fam)
    elif how == "entry-huge":
        values[-1] = 10 ** 25
    elif how == "entry-float":
        values[0] = float(values[0])
    elif how in ("entry-bool", "ranges-bool"):
        values[1 if how == "ranges-bool" else 0] = True
    elif how == "empty-member":
        sizes.insert(0, 0)
    elif how == "coordinate":
        coords[-1] = 10 ** 400
    elif how == "coordinate-nan":
        coords[0] = float("nan")
    elif how == "repeat":  # a point, or an axis value, twice
        coords.extend(coords[:2] if "xy" in space else coords[:1])
    elif how == "ranges-odd":
        del values[1]
        sizes[0] -= 1
    elif how == "ranges-empty":  # a pair's stop set to its start
        values[1] = values[0]
    elif how == "ranges-order":
        values[:sizes[0]] = values[:sizes[0]][::-1]
    elif how == "ranges-past-n":
        values[sizes[0] - 1] = n + 1
    elif how == "ranges-float":
        values[1] = float(values[1])
    return doc


# each break, and the error the one reader raises for it
_BREAKS = {"entry-negative": IndexOutOfRange, "entry-past-n": IndexOutOfRange,
           "entry-huge": IndexOutOfRange, "entry-float": ValueError, "entry-bool": ValueError,
           "empty-member": EmptySubset, "coordinate": ValueError, "coordinate-nan": ValueError,
           "repeat": DuplicatePoint}
_RANGE_BREAKS = {"ranges-odd": ValueError, "ranges-empty": ValueError,
                 "ranges-order": ValueError, "ranges-negative": IndexOutOfRange,
                 "ranges-past-n": IndexOutOfRange, "ranges-float": ValueError,
                 "ranges-bool": ValueError}
# coordinate tokens json reads, some of which numpy's text parsers read another way
_COORDINATES = ["-0.0", "-0", "0", "5e-324", "1e+300", "1E5", "7", "-2.5e-3",
                "123456789012345678901", "1" + "0" * 400, "1e400"]
_FOUR_POINTS = {"kind": "points2d", "xy": [0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]}


class TestOneReader:
    """load_cover is cover_from_json(load_json(...)); nested input is flattened, then checked."""

    @given(_planar_covers(), st.floats(0.0, 4.0), st.booleans(), st.booleans())
    @example((EuclideanPointSet(np.array([[-0.0, 0.0], [-0.0, 1.0], [1.0, 0.0]])),
              [[[0], [1], [2]], [[0, 1, 2]]]), 1.0, False, True)
    def test_nested_and_flat_forms_read_alike(self, tmp_path_factory, cover, r, strict, target):
        space, members = cover
        families = tuple(SubsetFamily(f"f{k}", m, space.n) for k, m in enumerate(members))
        target = SubsetRef(range(0, space.n, 2)) if target else None
        path = tmp_path_factory.mktemp("one") / "c.json"
        dump_json(serialize._document(space, families, r, strict, 1.0, target, arrays=True), path)
        flat = load_json(path)
        nested = nested_layout(flat)
        assert all("sizes" not in f for f in nested["families"])
        want = _outcome(lambda: (space, families, r, strict, target))
        assert _outcome(lambda: serialize.load_cover(path)) == want
        assert _outcome(lambda: cover_from_json(nested)) == want

    @pytest.mark.parametrize("kind, how", [
        *((kind, how) for kind in sorted(_GEN_COVERS) for how in _BREAKS),
        *((kind, how) for kind in ("brick", "comb-cover", "interval") for how in _RANGE_BREAKS)])
    def test_broken_gen_files_are_refused(self, kind, how, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert cli.main(["gen", *_GEN_COVERS[kind](3, 3), "--out", str(path)]) == 0
        doc = _broken(load_json(path), how)
        dump_json(doc, path)
        got = _outcome(lambda: serialize.load_cover(path))
        assert got[0] is {**_BREAKS, **_RANGE_BREAKS}[how]
        assert _outcome(lambda: cover_from_json(nested_layout(doc))) == got
        capsys.readouterr()
        assert cli.main(["verify-cover", "--cover", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"validation: {got[1]}"]

    @pytest.mark.parametrize("token", _COORDINATES)
    def test_coordinates_read_as_json_reads_them(self, token, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"kind": "cover", "space": {"kind": "points2d", "xy": [%s, 0.5, 1.5, '
                        '0.5]}, "families": [], "r": 1.0}' % token, encoding="utf-8")
        try:
            x = float(json.loads(token))
        except OverflowError:  # an integer past the largest float
            x = math.inf
        if not math.isfinite(x):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                serialize.load_cover(path)
            return
        points = serialize.load_cover(path)[0].points
        assert struct.pack("<d", points[0, 0]) == struct.pack("<d", x)

    @pytest.mark.parametrize("fields, error", [
        ({"members": [0, 1, 2], "sizes": [1, 1]}, "sizes add up to 2, but members holds 3 numbers"),
        ({"members": [0, 1], "sizes": [1, 1, 1]}, "sizes add up to 3, but members holds 2 numbers"),
        ({"ranges": [0, 2, 3, 4], "sizes": [2]}, "sizes add up to 2, but ranges holds 4 numbers"),
        ({"members": [0, 1], "sizes": [0, 2]}, "subset must be nonempty"),
        ({"ranges": [0, 2], "sizes": [0, 2]}, "subset must be nonempty"),
        ({"members": [0, 1], "sizes": [-1, 3]}, "sizes must be at least 1, got -1"),
        ({"members": [0, 1], "sizes": [1.0, 1]}, "sizes must be a JSON array of integers"),
        ({"members": [0, 1], "sizes": [True, 1]}, "sizes must be a JSON array of integers"),
        ({"members": [0], "sizes": [2 ** 64]},
         f"sizes add up to {2 ** 64}, but members holds 1 numbers"),
        ({"members": [0, 1], "sizes": [2 ** 64, 2 - 2 ** 64]},
         f"sizes must be at least 1, got {2 - 2 ** 64}"),
        ({"ranges": [0, 1, 2], "sizes": [3]},
         "a ranges member holds start, stop pairs, got 3 numbers"),
        ({"ranges": [0, 1, 2, 3], "sizes": [1, 3]},
         "a ranges member holds start, stop pairs, got 1 numbers"),
        ({"members": [0], "sizes": 1}, "sizes must be a JSON array of integers"),
        ({"members": 5, "sizes": [1]}, "members must be a JSON array of integers"),
        ({"members": [[0]], "sizes": [1]}, "members must be a JSON array of integers"),
        ({"members": [0, 4], "sizes": [2]}, "index 4 out of range for ambient of size 4"),
        ({"members": [0, 10 ** 25], "sizes": [1, 1]},
         f"index {10 ** 25} out of range for ambient of size 4"),
        ({"ranges": [0, 10 ** 25], "sizes": [2]},
         f"index {10 ** 25 - 1} out of range for ambient of size 4"),
    ])
    def test_malformed_flat_families(self, fields, error, tmp_path, capsys):
        doc = {"kind": "cover", "space": _FOUR_POINTS, "families": [{"label": "f", **fields}],
               "r": 1.0}
        with pytest.raises(Exception, match=re.escape(error)):
            cover_from_json(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify-cover", "--cover", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"validation: {error}"]

    @pytest.mark.parametrize("xy", [[0.0, 0.0, 1.0], [0.0, 0.0, "1", 0.0], [0.0, 0.0, None, 1.0]])
    def test_malformed_xy(self, xy, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "cover", "space": {"kind": "points2d", "xy": xy},
                                    "families": [], "r": 1.0}), encoding="utf-8")
        assert cli.main(["verify-cover", "--cover", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation: points2d coordinates must be JSON numbers, two per point"]


class TestRanges:
    """A family written as ranges reads as the family its members list."""

    @staticmethod
    def _text(n: int, families: list[dict[str, Any]]) -> str:
        space = {"kind": "grid2d", "x": [float(i) for i in range(n)], "y": [0.0]}
        return json.dumps({"kind": "cover", "space": space, "families": families,
                           "r": 1.0, "strict": False}) + "\n"

    @given(_run_families())
    @example((3, [[[0, 1, 2]], [[0], [2]]]))  # one run up to n; singletons
    @example((5, [[[0, 1, 3, 4], [2]]]))  # two-entry runs around a gap
    def test_members_and_ranges_read_alike(self, tmp_path_factory, drawn):
        n, families = drawn
        want = tuple(SubsetFamily(f"f{k}", members, n) for k, members in enumerate(families))
        path = tmp_path_factory.mktemp("ranges") / "c.json"
        for key, value in (("members", lambda m: m), ("ranges", _runs)):
            nested = [{"label": f"f{k}", key: value(members)}
                      for k, members in enumerate(families)]
            for fams in (nested, [_flat_family(f["label"], key, f[key]) for f in nested]):
                path.write_text(self._text(n, fams), encoding="utf-8")
                assert serialize.load_cover(path)[1] == want

    @given(st.lists(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)), max_size=4),
                    max_size=5))
    def test_expanded_ranges_match_a_range_by_range_expansion(self, members):
        # each member's ranges as [a, b) pairs; a member of no ranges expands to no entries
        values = np.array([v for mem in members for a, w in mem for v in (a, a + w)],
                          dtype=np.int64)
        counts = np.array([2 * len(mem) for mem in members], dtype=np.int64)
        flat, totals = serialize._expand_ranges(values, counts)
        assert flat.tolist() == [i for mem in members for a, w in mem for i in range(a, a + w)]
        assert totals.tolist() == [sum(w for _, w in mem) for mem in members]

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
        ([[0, 1.0]], "ranges must be a JSON array of integers"),
        ([[0, True]], "ranges must be a JSON array of integers"),
        ([[0, 1], 2], "JSON array of arrays"),
        ({"0": 1}, "JSON array of arrays"),
    ])
    def test_malformed_ranges_are_refused(self, ranges, error):
        forms = [{"label": "f", "ranges": ranges}]
        if type(ranges) is list and all(type(m) is list for m in ranges):
            forms.append(_flat_family("f", "ranges", ranges))
        for obj in forms:
            with pytest.raises(Exception, match=re.escape(error)):
                family_from_json(obj, n=4)

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
        # (the flat form adds a sizes list of 101 twos)
        for family, size in (({"label": "f", "ranges": [[0, 10000]] * 101}, 2200),
                             (_flat_family("f", "ranges", [[0, 10000]] * 101), 2600)):
            path.write_text(json.dumps({"kind": "cover",
                                        "space": {"kind": "grid2d", "x": axis, "y": axis},
                                        "families": [family], "r": 1.0, "strict": False}),
                            encoding="utf-8")
            assert path.stat().st_size < size
            with mock.patch.object(serialize, "_expand_ranges",
                                   wraps=serialize._expand_ranges) as expand:
                with pytest.raises(TooManyPoints, match="1010000 member entries, cap is 1000000"):
                    serialize.load_cover(path)
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
        assert families and all(list(f) == ["label", key, "sizes"] for f in families)

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
