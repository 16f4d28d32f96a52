"""JSON wire-format round-trips."""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import random_metric_matrix
from ghbounds import (SubsetFamily, WindowSpec,
                      build_space, exact_gh, gen_chess_families, gen_epsilon_net,
                      gen_lattice_window, make_certificate, model_space)
from ghbounds.serialize import (certificate_report_json, cover_from_json,
                                cover_to_json, dump_json, family_from_json,
                                family_to_json, gh_result_to_json, load_json,
                                model_from_json, space_from_json,
                                space_to_json, subset_from_json,
                                subset_to_json)
from ghbounds import cli, serialize
from ghbounds.errors import TriangleViolation
from ghbounds.metric import EuclideanPointSet, SubsetRef


class TestSpaceRoundTrip:
    def test_points_with_labels(self):
        lat = gen_lattice_window(WindowSpec.square(2))
        back = space_from_json(json.loads(json.dumps(space_to_json(lat))))
        assert isinstance(back, EuclideanPointSet)
        assert np.array_equal(back.points, lat.points)
        assert back.labels == lat.labels

    def test_points_without_labels(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [0.25, 0.75]]))
        back = space_from_json(space_to_json(pts))
        assert back.labels is None
        assert np.array_equal(back.points, pts.points)

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


class TestSmallObjects:
    def test_subset(self):
        s = SubsetRef.of([4, 1])
        assert subset_to_json(s) == [1, 4]
        assert subset_from_json([1, 4], n=5) == s

    def test_family(self):
        fam = SubsetFamily.of("f", [[0], [2, 3]], n=4)
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
        obj = cover_to_json(lat, families, 1.0, target=SubsetRef.of([0, 1]))
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
        fam = SubsetFamily.of("solo", [[0]], n=1)
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
        # longer than one slice
        lat = gen_lattice_window(WindowSpec.square(80))
        obj = cover_to_json(lat, gen_chess_families(lat), math.sqrt(2), c=0.0,
                            target=SubsetRef.full(lat.n))
        assert len(obj["space"]["pts"]) > serialize._DUMP_SLICE
        path = tmp_path / "chess.json"
        dump_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj) + "\n").encode("utf-8")

    @pytest.mark.parametrize("obj", [
        {"a": [[1, 2], [3]] * 4, "b": {"c": list(range(9)), "d": []}, "e": {}},
        {1: "int key", "x": [0.5] * 7},                 # non-string keys: encoded whole
        [(1, 2)] * 5 + [{"k": "v\u00e9"}, None, True, float("inf")],
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

    def test_other_arrays_are_refused_like_dumps(self, tmp_path):
        for bad in (np.zeros(3), np.zeros((2, 2), dtype=np.int64)):
            with pytest.raises(TypeError):
                dump_json({"a": bad}, tmp_path / "x.json")


_FAMILY_MEMBERS = st.one_of(
    st.lists(st.integers(0, 19).map(lambda i: [i]), max_size=9),  # singletons
    st.lists(st.sets(st.integers(0, 19), min_size=1, max_size=9).map(sorted), max_size=6),
    st.just([]),  # an empty family
    st.builds(lambda k: [list(range(k))], st.integers(1, 20)),  # one member
)


class TestFamilyArrayEncoder:
    """A gen document of a cover, whose member lists are cut from index arrays, against json.dumps."""

    SPACE = EuclideanPointSet(np.column_stack((np.arange(20) * 0.5, np.arange(20) % 3 * 0.25)))

    @given(st.lists(st.tuples(st.sampled_from(["red", "", "f\u00e9", 'a&b <c> "d"\n']),
                              _FAMILY_MEMBERS), max_size=4),
           st.one_of(st.none(), st.integers(1, 3)), st.booleans())
    def test_matches_dumps_of_lists(self, tmp_path_factory, families, slice_items, loaded):
        fams = tuple(family_from_json({"label": label, "members": members}) if loaded
                     else SubsetFamily.of(label, members) for label, members in families)
        doc = serialize._document(np.asarray, self.SPACE, fams, 1.5, c=2.0)
        plain = cover_to_json(self.SPACE, fams, 1.5, c=2.0)
        assert plain["families"] == [{"label": label, "members": [sorted(set(m)) for m in members]}
                                     for label, members in families]
        path = tmp_path_factory.mktemp("fam") / "c.json"
        with mock.patch.object(serialize, "_DUMP_SLICE", slice_items or serialize._DUMP_SLICE):
            dump_json(doc, path)
        assert path.read_bytes() == (json.dumps(plain) + "\n").encode("utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc, None)
        assert out.getvalue() == json.dumps(plain, indent=2) + "\n"
