"""Command-line behavior: exit codes, report shapes, files on disk."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ghbounds
from conftest import nested_layout, run_cli, run_cli_report
from oracles import count_pieces
from ghbounds import __version__, cli, exact_gh, gen_lattice_window, serialize
from ghbounds.constructions import POINT_CAP
from ghbounds.covers import SubsetFamily, make_certificate
from ghbounds.errors import TooManyPoints
from ghbounds.metric import EuclideanPointSet, SubsetRef
from ghbounds.serialize import cover_from_json, dump_json, load_cover, load_json, space_from_json
from ghbounds import build_space

SQRT2 = math.sqrt(2.0)


def _strict_json(text: str):
    """The JSON document in text, refusing the Infinity and NaN that JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# generators

class TestGen:
    def test_lattice_to_stdout(self, capsys):
        assert run_cli(["gen", "lattice", "--window", "0,2,0,2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        # the window's points are the cross product of its two axes
        assert obj == {"kind": "grid2d", "x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 2.0]}
        assert space_from_json(obj).points.tolist() == [[x, y] for x in range(3) for y in range(3)]

    def test_chess_cover_file(self, tmp_path):
        out = tmp_path / "chess.json"
        assert run_cli(["gen", "chess", "--window", "0,4,0,4",
                        "--out", str(out)]) == 0
        space, families, r, strict, target = cover_from_json(load_json(out))
        assert space.n == 25
        assert [len(f) for f in families] == [13, 12]
        assert r == SQRT2 and not strict and target is None

    def test_comb_cover_file(self, tmp_path):
        out = tmp_path / "comb.json"
        assert run_cli(["gen", "comb-cover", "--window", "0,4,-2,2",
                        "--delta", "0.25", "--out", str(out)]) == 0
        obj = load_json(out)
        assert obj["kind"] == "cover" and obj["r"] == 1.0 and obj["c"] == 2.0

    def test_brick_and_interval_require_r(self, tmp_path):
        assert run_cli(["gen", "brick", "--window", "0,9,0,9"]) == 2
        assert run_cli(["gen", "interval", "--window", "0,9,0,0"]) == 2
        out = tmp_path / "brick.json"
        assert run_cli(["gen", "brick", "--window", "0,9,0,9", "--r", "1",
                        "--out", str(out)]) == 0
        _, families, r, *_ = cover_from_json(load_json(out))
        assert len(families) == 3 and r == 1.0

    @pytest.mark.parametrize("kind, window", [("brick", "0,4,0,4"), ("interval", "0,4,0,0")])
    @pytest.mark.parametrize("args", [
        ["--r", "1", "--spacing", "0"], ["--r", "1", "--spacing", "-0.25"],
        ["--r", "1", "--spacing", "nan"], ["--r", "1", "--spacing", "inf"],
        ["--r", "1", "--tile", "nan"], ["--r", "1", "--tile", "inf"], ["--r", "1", "--tile", "1"],
        ["--r", "0"], ["--r", "nan"], ["--r", "inf"],
    ])
    def test_refused_tiling_input(self, kind, window, args, tmp_path, capsys):
        # brick and interval share one tile rule and one net
        out = tmp_path / "cover.json"
        assert run_cli(["gen", kind, "--window", window, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("validation: ")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["comb-cover", "--height", "nan"], "piece height must be finite, got nan"),
        (["comb-cover", "--height", "inf"], "piece height must be finite, got inf"),
        (["comb", "--delta", "nan"], "sample spacing nan must divide 1"),
        (["comb", "--delta", "inf"], "sample spacing inf must divide 1"),
        (["comb", "--delta", "1e-320"], "sample spacing 1e-320 must divide 1"),
        (["comb-cover", "--delta", "inf"], "sample spacing inf must divide 1"),
    ])
    def test_refused_comb_input(self, args, message, tmp_path, capsys):
        out = tmp_path / "comb.json"
        assert run_cli(["gen", args[0], "--window", "0,4,-2,2", *args[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"validation: {message}"]
        assert not out.exists()

    def test_bad_window_is_a_validation_error(self):
        assert run_cli(["gen", "lattice", "--window", "5,1,0,1"]) == 2
        assert run_cli(["gen", "lattice", "--window", "zero,1,0,1"]) == 2
        assert run_cli(["gen", "lattice", "--window", "0.2,0.8,0.2,0.8"]) == 2

    @pytest.mark.parametrize("args", [
        ["lattice"], ["net"], ["comb"], ["chess"], ["interval", "--r", "1"],
        ["brick", "--r", "1"], ["comb-cover"],
    ])
    def test_oversized_windows_are_refused_before_any_array(self, args, capsys):
        # 10^15 points and more: counted from the axes, never allocated
        tracemalloc.start()
        try:
            rc = run_cli(["gen", args[0], "--window", "0,1e15,-1,1", *args[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
            "validation: generator would emit ")
        assert peak < 1 << 20

    def test_comb_window_without_a_sample_is_empty(self, capsys):
        # the window meets the axis row between two samples
        assert run_cli(["gen", "comb", "--window", "0.3,0.7,-1,1", "--delta", "1"]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "validation: window holds no sample of the axis or a vertical line")

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_window_bounds_are_named(self, slot, bound, capsys):
        bounds = ["0", "1", "0", "1"]
        bounds[slot] = bound
        for kind in cli._GEN_KINDS:
            assert run_cli(["gen", kind, f"--window={','.join(bounds)}", "--r", "1"]) == 2
            assert capsys.readouterr().err.strip().splitlines() == [
                "validation: window bounds must be finite"]

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(["gen", "comb-cover", "--window", "0,6,-3,3",
                            "--delta", "0.05", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# distances

class TestHausdorff:
    def test_merged_euclidean_form(self, tmp_path):
        lat, net = tmp_path / "lat.json", tmp_path / "net.json"
        assert run_cli(["gen", "lattice", "--window", "0,4,0,4",
                        "--out", str(lat)]) == 0
        assert run_cli(["gen", "net", "--window", "0,4,0,4", "--eps", "0.5",
                        "--out", str(net)]) == 0
        rc, report = run_cli_report(
            ["hausdorff", "--space-a", str(lat), "--space-b", str(net)],
            tmp_path / "h.json")
        assert rc == 0
        assert report["outputs"]["hausdorff"] == math.sqrt(0.5)
        assert report["outputs"]["directed_ab"] == 0.0  # lattice inside net
        assert report["inputs"]["merged"] is True

    def test_grid_and_point_list_files_give_the_same_outputs(self, tmp_path):
        # gen writes the net as its axes; the comb is no cross product, so it lists its points
        net, comb, listed = tmp_path / "net.json", tmp_path / "comb.json", tmp_path / "listed.json"
        assert run_cli(["gen", "net", "--window", "0,4,-2,2", "--eps", "0.5",
                        "--out", str(net)]) == 0
        assert run_cli(["gen", "comb", "--window", "0,4,-2,2", "--delta", "0.25",
                        "--out", str(comb)]) == 0
        assert load_json(net)["kind"] == "grid2d" and load_json(comb)["kind"] == "points2d"
        dump_json({"kind": "points2d",
                   "pts": space_from_json(load_json(net)).points.tolist()}, listed)
        reports = [run_cli_report(["hausdorff", "--space-a", str(a), "--space-b", str(comb)],
                                  tmp_path / f"{a.stem}.out") for a in (net, listed)]
        assert reports[0][0] == reports[1][0] == 0
        assert reports[0][1]["outputs"] == reports[1][1]["outputs"]
        assert reports[0][1]["outputs"]["n_a"] == 81

    def test_two_space_outputs_pinned(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json({"kind": "points2d", "pts": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 0.0]]}, a)
        # (0, 0) is in both sets, and (-0.0, 1) is the same point as a's (0.0, 1)
        dump_json({"kind": "points2d", "pts": [[0.0, 0.0], [-0.0, 1.0], [1.0, 1.0], [1.0, 3.0]]}, b)
        rc, report = run_cli_report(["hausdorff", "--space-a", str(a), "--space-b", str(b)],
                                    tmp_path / "h.json")
        assert rc == 0
        assert report["outputs"] == {
            "hausdorff": math.sqrt(10.0),  # (4, 0) to (1, 1)
            "directed_ab": math.sqrt(10.0),
            "directed_ba": math.sqrt(5.0),  # (1, 3) to (0, 1)
            "n_ambient": 6,
            "n_a": 4,
            "n_b": 4,
        }

    def test_subset_form_with_defaults(self, tmp_path):
        space = tmp_path / "space.json"
        suba = tmp_path / "a.json"
        dump_json(serialize._document(space_from_json(
            {"kind": "points2d", "pts": [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]})),
            space)
        dump_json([0, 1], suba)
        rc, report = run_cli_report(
            ["hausdorff", "--space", str(space), "--a", str(suba)],
            tmp_path / "h.json")
        assert rc == 0
        # b defaults to every point; the unmatched point is at distance 4
        assert report["outputs"]["hausdorff"] == 4.0

    def test_requires_a_complete_space_choice(self, tmp_path):
        lat = tmp_path / "lat.json"
        assert run_cli(["gen", "lattice", "--window", "0,2,0,2",
                        "--out", str(lat)]) == 0
        assert run_cli(["hausdorff", "--space-a", str(lat)]) == 2
        assert run_cli(["hausdorff"]) == 2

    def test_overflowing_distances_are_null_without_warnings(self, tmp_path, capsys):
        # every difference of 1e308 squares past the largest float, so every
        # computed distance is inf: the report writes null, and NumPy says nothing
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json({"kind": "points2d", "pts": [[-1e308, 0.0], [1e308, 0.0]]}, a)
        dump_json({"kind": "points2d", "pts": [[0.0, 0.0], [1e308, 1.0]]}, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["hausdorff", "--space-a", str(a), "--space-b", str(b)]) == 0
        assert caught == []
        out, err = capsys.readouterr()
        assert err.splitlines() == ["d_H = inf (directed inf / inf)"]
        outputs = _strict_json(out)["outputs"]
        assert outputs == {"hausdorff": None, "directed_ab": None, "directed_ba": None,
                           "n_ambient": 4, "n_a": 2, "n_b": 2}

    def test_matrix_space_cannot_merge(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        dump_json({"kind": "matrix", "n": 2, "d": [[0.0, 1.0], [1.0, 0.0]]}, m)
        assert run_cli(["hausdorff", "--space-a", str(m),
                        "--space-b", str(m)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"validation: {m} must hold a planar space (points2d or grid2d)")


class TestGhExact:
    def write_pair(self, tmp_path):
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        dump_json({"kind": "matrix", "n": 2, "d": [[0.0, 2.0], [2.0, 0.0]]}, x)
        dump_json({"kind": "matrix", "n": 2, "d": [[0.0, 5.0], [5.0, 0.0]]}, y)
        return x, y

    def test_reports_the_distance(self, tmp_path):
        x, y = self.write_pair(tmp_path)
        rc, report = run_cli_report(["gh-exact", "--x", str(x), "--y", str(y)],
                                    tmp_path / "g.json")
        assert rc == 0
        outs = report["outputs"]
        assert outs["dgh"] == 1.5 and outs["dis"] == 3.0
        assert outs["optimal"] is True
        assert outs["optimal_pairs"] == [[0, 0], [1, 1]]

    def test_budget_exhaustion_exits_4(self, tmp_path):
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        rng = np.random.default_rng(18)
        from conftest import random_metric_matrix
        dump_json(serialize._document(build_space(random_metric_matrix(rng, 6))), x)
        dump_json(serialize._document(build_space(random_metric_matrix(rng, 6))), y)
        rc, report = run_cli_report(
            ["gh-exact", "--x", str(x), "--y", str(y), "--budget", "3"],
            tmp_path / "g.json")
        assert rc == 4
        assert report["outputs"]["optimal"] is False
        exact = exact_gh(space_from_json(load_json(x)), space_from_json(load_json(y)))
        assert report["outputs"]["dgh"] >= exact.value

    def test_refuses_an_oversized_side_before_building_it(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(serialize, "build_space", built.append)
        x, _ = self.write_pair(tmp_path)
        big = tmp_path / "big.json"
        dump_json({"kind": "matrix", "n": 63, "d": np.ones((63, 63)).tolist()}, big)
        assert run_cli(["gh-exact", "--x", str(x), "--y", str(big)]) == 2
        assert built == []
        assert "at most 62 points per side" in capsys.readouterr().err

    def test_refuses_an_oversized_point_list_side_before_reading_it(self, tmp_path, monkeypatch,
                                                                    capsys):
        read = []
        monkeypatch.setattr(serialize, "_coordinates", read.append)
        x, _ = self.write_pair(tmp_path)
        pts = tmp_path / "pts.json"
        dump_json({"kind": "points2d", "pts": [[float(k), 0.0] for k in range(63)]}, pts)
        assert run_cli(["gh-exact", "--x", str(pts), "--y", str(x)]) == 2
        assert read == []
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "validation: solver is sized for small spaces (at most 62 points per side)")

    def test_refuses_an_oversized_grid_side_before_building_it(self, tmp_path, monkeypatch,
                                                               capsys):
        # 8 x 8 axes list 16 values but hold 64 points
        built = []
        monkeypatch.setattr(EuclideanPointSet, "grid", staticmethod(lambda *a: built.append(a)))
        x, _ = self.write_pair(tmp_path)
        grid = tmp_path / "grid.json"
        dump_json({"kind": "grid2d", "x": list(range(8)), "y": list(range(8))}, grid)
        assert run_cli(["gh-exact", "--x", str(x), "--y", str(grid)]) == 2
        assert built == []
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "validation: solver is sized for small spaces (at most 62 points per side)")


# ---------------------------------------------------------------------------
# bounds and verification

@pytest.fixture
def chess_cover(tmp_path):
    out = tmp_path / "chess.json"
    assert run_cli(["gen", "chess", "--window", "0,6,0,6", "--out", str(out)]) == 0
    return out


@pytest.fixture
def brick_cover(tmp_path):
    out = tmp_path / "brick.json"
    assert run_cli(["gen", "brick", "--window", "0,12,0,12", "--r", "1",
                    "--out", str(out)]) == 0
    return out


class TestLowerBound:
    def test_chess_bound(self, chess_cover, tmp_path):
        rc, report = run_cli_report(["lower-bound", "--cover", str(chess_cover)],
                                    tmp_path / "b.json")
        assert rc == 0
        outs = report["outputs"]
        assert outs["bound"] == SQRT2 / 2.0
        assert outs["model"] == "R2"
        assert outs["k"] == 2 and outs["C"] == 0.0
        assert any("non-strict mode" in line for line in outs["trace"])

    def test_r_override_rescales_the_bound(self, chess_cover, tmp_path):
        rc, report = run_cli_report(
            ["lower-bound", "--cover", str(chess_cover), "--r", "1.0"],
            tmp_path / "b.json")
        assert rc == 0
        assert report["outputs"]["bound"] == 0.5

    def test_strict_mode_fails_at_the_boundary_gap(self, chess_cover, capsys):
        assert run_cli(["lower-bound", "--cover", str(chess_cover),
                        "--strict"]) == 2
        err = capsys.readouterr().err
        assert "1.4142135623730951" in err  # the offending gap is reported

    def test_three_families_exceed_the_plane(self, brick_cover):
        assert run_cli(["lower-bound", "--cover", str(brick_cover)]) == 3

    def test_three_families_fit_a_roomier_model(self, brick_cover, tmp_path):
        rc, report = run_cli_report(
            ["lower-bound", "--cover", str(brick_cover), "--model", "R3"],
            tmp_path / "b.json")
        assert rc == 0
        assert report["outputs"]["bound"] == 0.5

    def test_trivial_stabilizer_is_gated(self, chess_cover, tmp_path):
        frozen = tmp_path / "frozen.json"
        dump_json({"name": "frozen-plane", "asdim_lower": 2,
                   "stabilizer_nontrivial": False}, frozen)
        assert run_cli(["lower-bound", "--cover", str(chess_cover),
                        "--model-file", str(frozen)]) == 3

    def test_unknown_model_is_a_validation_error(self, chess_cover):
        assert run_cli(["lower-bound", "--cover", str(chess_cover),
                        "--model", "H2"]) == 2


class TestRefusedSeparation:
    """r must be finite and at least 0, from --r or from the file, before any family is measured."""

    @pytest.fixture
    def pair_cover(self, tmp_path):
        # two one-member families: no gap to measure, so only the r check can refuse
        out = tmp_path / "pair.json"
        assert run_cli(["gen", "chess", "--window", "0,1,0,0", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("command", [["verify-cover"], ["lower-bound", "--model", "R2"]])
    @pytest.mark.parametrize("r", ["nan", "inf", "-3"])
    def test_flag(self, command, r, pair_cover, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli([*command, "--cover", str(pair_cover), "--r", r, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"validation: separation r must be finite and at least 0, got {float(r)!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify-cover"], ["lower-bound", "--model", "R2"]])
    @pytest.mark.parametrize("r", [math.nan, math.inf, -3.0])
    def test_file(self, command, r, tmp_path, capsys):
        # Python's json reads the NaN and Infinity that json.dumps writes
        cover = tmp_path / "cover.json"
        cover.write_text(json.dumps(_cover_doc(r=r, families=[{"label": "a", "members": [[0]]}])))
        out = tmp_path / "report.json"
        assert run_cli([*command, "--cover", str(cover), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"validation: separation r must be finite and at least 0, got {r!r}"]
        assert not out.exists()

    def test_zero_is_measured(self, pair_cover, tmp_path):
        # scale-ladder inspects a cover at r = 0
        out = tmp_path / "report.json"
        assert run_cli(["verify-cover", "--cover", str(pair_cover), "--r", "0",
                        "--out", str(out)]) == 0
        outputs = _strict_json(out.read_text())["outputs"]
        assert outputs["r"] == 0.0 and outputs["ok"]
        assert [fam["min_gap"] for fam in outputs["families"]] == [None, None]
        assert run_cli(["lower-bound", "--cover", str(pair_cover), "--r", "0",
                        "--out", str(out)]) == 0
        outputs = _strict_json(out.read_text())["outputs"]
        assert outputs["r"] == 0.0 and outputs["bound"] == 0.0 and outputs["min_gap"] is None


@pytest.fixture
def overflow_cover(tmp_path):
    # three columns 1e308 apart, whose gaps and boxes overflow to inf
    out = tmp_path / "far.json"
    dump_json({"kind": "cover", "r": 1.0, "strict": False,
               "space": {"kind": "grid2d", "x": [-1e308, 0.0, 1e308], "y": [0.0, 1.0]},
               "families": [{"label": "f", "members": [[0, 1], [2, 3], [4, 5]]}]}, out)
    return out


class TestOverflowIsQuiet:
    """Overflowing differences give inf by design; the commands print no NumPy warning."""

    def _run(self, args, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(args)
        assert caught == []
        out, err = capsys.readouterr()
        return rc, _strict_json(out)["outputs"], err.splitlines()

    def test_verify_cover(self, overflow_cover, capsys):
        rc, outputs, err = self._run(["verify-cover", "--cover", str(overflow_cover)], capsys)
        assert rc == 0
        assert err == ["verify-cover: OK (k=1, r=1.0, C=1.0, multiplicity=1)"]
        assert outputs == {"k": 1, "r": 1.0, "strictness": "non-strict", "C": 1.0,
                           "families": [{"label": "f", "members": 3, "min_gap": None,
                                         "witness": None, "max_diam": 1.0,
                                         "disjoint_ok": True}],
                           "cover_ok": True, "uncovered": [], "multiplicity": 1, "ok": True}

    def test_lower_bound(self, overflow_cover, capsys):
        rc, outputs, err = self._run(["lower-bound", "--cover", str(overflow_cover)], capsys)
        assert rc == 0
        assert err[-1] == "lower bound: d_GH >= 0.5 against R2"
        assert [line[len("trace: "):] for line in err[:-1]] == outputs["trace"]
        assert (outputs["bound"], outputs["C"], outputs["min_gap"]) == (0.5, 1.0, None)
        assert "measured min gap inf" in outputs["trace"][0]

    def test_an_overflowing_diameter_is_null(self, tmp_path, capsys):
        # each member spans x = -1e308 to 1e308, so its diameter is inf
        cover = tmp_path / "wide.json"
        dump_json({"kind": "cover", "r": 1.0, "strict": False,
                   "space": {"kind": "grid2d", "x": [-1e308, 1e308], "y": [0.0, 1.0]},
                   "families": [{"label": "f", "members": [[0, 2], [1, 3]]}]}, cover)
        rc, outputs, err = self._run(["verify-cover", "--cover", str(cover)], capsys)
        assert rc == 0 and err == ["verify-cover: OK (k=1, r=1.0, C=inf, multiplicity=1)"]
        assert outputs["C"] is None and outputs["families"][0]["max_diam"] is None
        assert outputs["families"][0]["min_gap"] == 1.0
        rc, outputs, err = self._run(["lower-bound", "--cover", str(cover)], capsys)
        assert rc == 0 and (outputs["C"], outputs["min_gap"], outputs["bound"]) == (None, 1.0, 0.5)
        # 1.5e308 is still finite, and the diameter stays inf at that scale
        rc, outputs, err = self._run(["scale-ladder", "--cover", str(cover), "--lam", "1.5",
                                      "--steps", "1"], capsys)
        assert rc == 0 and outputs["ok"] and outputs["diam0"] is None
        assert [(row["gap"], row["diam"]) for row in outputs["rows"]] == [(1.0, None), (1.5, None)]


class TestVerifyCover:
    def test_passing_report(self, chess_cover, tmp_path):
        rc, report = run_cli_report(["verify-cover", "--cover", str(chess_cover)],
                                    tmp_path / "v.json")
        assert rc == 0
        outs = report["outputs"]
        assert outs["ok"] and outs["cover_ok"]
        assert outs["multiplicity"] == 1
        assert [f["label"] for f in outs["families"]] == ["red", "blue"]
        for fam in outs["families"]:
            assert fam["disjoint_ok"]
            assert fam["min_gap"] == SQRT2
            assert fam["max_diam"] == 0.0

    def test_failing_r_reports_witness(self, chess_cover, tmp_path):
        rc, report = run_cli_report(
            ["verify-cover", "--cover", str(chess_cover), "--r", "2.0"],
            tmp_path / "v.json")
        assert rc == 2
        outs = report["outputs"]
        assert not outs["ok"]
        failing = [f for f in outs["families"] if not f["disjoint_ok"]]
        assert failing and all(f["witness"] is not None for f in failing)

    @pytest.mark.parametrize("gen, model, space_key, family_key", [
        (["chess", "--window", "0,8,0,8"], "R2", "x", "members"),
        (["brick", "--window", "0,12,0,12", "--r", "1"], "R3", "x", "ranges"),
        (["comb-cover", "--window", "0,6,-3,3", "--delta", "0.25"], "R2", "xy", "ranges"),
    ])
    def test_a_nested_file_gives_the_same_cover_and_outputs(self, gen, model, space_key,
                                                            family_key, tmp_path):
        # earlier releases listed one array per member and a points2d space's [x, y] rows
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert run_cli(["gen", *gen, "--out", str(new)]) == 0
        doc = load_json(new)
        assert space_key in doc["space"] and all(family_key in f for f in doc["families"])
        old.write_text(json.dumps(nested_layout(doc)) + "\n", encoding="utf-8")
        (space, families, *rest), (old_space, old_families, *old_rest) = map(load_cover,
                                                                               (new, old))
        assert space.points.tobytes() == old_space.points.tobytes()
        assert families == old_families and rest == old_rest
        for command in (["verify-cover"], ["lower-bound", "--model", model]):
            (rc_old, got), (rc_new, want) = (
                run_cli_report([*command, "--cover", str(path)], tmp_path / f"{path.stem}.out")
                for path in (old, new))
            assert rc_old == rc_new == 0
            assert got["outputs"] == want["outputs"]

    def test_a_file_with_point_labels_gives_the_same_outputs(self, tmp_path):
        # earlier releases wrote the lattice as a points2d list, each point's label "(x,y)"
        # after the points
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert run_cli(["gen", "chess", "--window", "0,6,0,6", "--out", str(new)]) == 0
        doc = load_json(new)
        assert doc["space"]["kind"] == "grid2d"
        pts = space_from_json(doc["space"]).points.tolist()
        labels = [f"({int(x)},{int(y)})" for x, y in pts]
        doc["space"] = {"kind": "points2d", "pts": pts, "labels": labels}
        old.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        for command in ("verify-cover", "lower-bound"):
            (rc_old, got), (rc_new, want) = (
                run_cli_report([command, "--cover", str(path)], tmp_path / f"{path.stem}.out")
                for path in (old, new))
            assert rc_old == rc_new == 0
            assert got["outputs"] == want["outputs"]


# Outputs of verify-cover and lower-bound on one cover file of every generator,
# pinned from the release that measured each check separately: per family
# (min_gap, witness, max_diam), then the cover fields, then lower-bound's
# model, bound and C.
PINNED_COVERS = {
    "chess": (["chess", "--window", "0,8,0,8"],
              [[SQRT2, [0, 5], 0.0], [SQRT2, [0, 4], 0.0]],
              0.0, "R2", 0.7071067811865476),
    "brick": (["brick", "--window", "0,20,0,20", "--r", "1"],
              [[1.7677669529663689, [0, 3], 3.8890872965260113],
               [1.7677669529663689, [0, 2], 3.8890872965260113],
               [1.7677669529663689, [0, 2], 3.8890872965260113]],
              3.8890872965260113, "R3", 0.5),
    "interval": (["interval", "--window", "0,30,0,0", "--r", "1"],
                 [[3.25, [0, 1], 2.75], [3.25, [0, 1], 2.75]],
                 2.75, "R2", 0.5),
    "comb-cover": (["comb-cover", "--window", "0,6,-3,3", "--delta", "0.25"],
                   [[1.0307764064044151, [0, 1], 2.0], [1.0307764064044151, [0, 2], 2.0]],
                   2.0, "R2", 0.5),
}


class TestPinnedCoverOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_COVERS))
    def test_every_generator(self, name, tmp_path):
        gen, families, c, model, bound = PINNED_COVERS[name]
        cover = tmp_path / "cover.json"
        assert run_cli(["gen", *gen, "--out", str(cover)]) == 0
        rc, report = run_cli_report(["verify-cover", "--cover", str(cover)], tmp_path / "v.json")
        outs = report["outputs"]
        assert rc == 0
        assert [[f["min_gap"], f["witness"], f["max_diam"]] for f in outs["families"]] == families
        assert (outs["C"], outs["cover_ok"], outs["uncovered"], outs["multiplicity"],
                outs["ok"]) == (c, True, [], 1, True)
        rc, report = run_cli_report(["lower-bound", "--cover", str(cover), "--model", model],
                                    tmp_path / "b.json")
        assert rc == 0
        assert (report["outputs"]["bound"], report["outputs"]["C"]) == (bound, c)

    @pytest.mark.parametrize("case, edit, extra, families, cover, error", [
        # red is 25 singletons, written as one flat list with sizes of 1
        ("uncovered", lambda obj: (obj["families"][0]["members"].pop(3),
                                   obj["families"][0]["sizes"].pop()), [],
         [[SQRT2, [0, 4], True], [SQRT2, [0, 4], True]], (False, [6], 1),
         "validation: 1 target indices uncovered, first: (6,)"),
        ("closer than r", lambda obj: None, ["--r", "2"],
         [[SQRT2, [0, 5], False], [SQRT2, [0, 4], False]], (True, [], 1),
         "validation: family 'red': members 0 and 5 are at gap 1.4142135623730951, "
         "not r-disjoint for r=2.0"),
        ("duplicated member",
         lambda obj: (obj["families"][0]["members"].insert(5, obj["families"][0]["members"][2]),
                      obj["families"][0]["sizes"].append(1)), [],
         [[0.0, [2, 5], False], [SQRT2, [0, 4], True]], (True, [], 2),
         "validation: family 'red': members 2 and 5 are at gap 0.0, "
         "not r-disjoint for r=1.4142135623730951"),
        # a gap of 0 passes r = 0, but a repeated member fails either command
        ("duplicated member at r 0",
         lambda obj: (obj["families"][0]["members"].insert(5, obj["families"][0]["members"][2]),
                      obj["families"][0]["sizes"].append(1)), ["--r", "0"],
         [[0.0, [2, 5], False], [SQRT2, [0, 4], True]], (True, [], 2),
         "validation: family 'red': members 2 and 5 are at gap 0.0, not r-disjoint for r=0.0"),
    ])
    def test_failing_covers(self, case, edit, extra, families, cover, error, tmp_path, capsys):
        path = tmp_path / "chess.json"
        assert run_cli(["gen", "chess", "--window", "0,8,0,8", "--out", str(path)]) == 0
        obj = load_json(path)
        edit(obj)
        dump_json(obj, path)
        rc, report = run_cli_report(["verify-cover", "--cover", str(path), *extra],
                                    tmp_path / "v.json")
        outs = report["outputs"]
        assert rc == 2 and outs["ok"] is False
        measured = [[f["min_gap"], f["witness"], f["disjoint_ok"]] for f in outs["families"]]
        assert measured == families
        assert (outs["cover_ok"], outs["uncovered"], outs["multiplicity"]) == cover
        capsys.readouterr()
        assert run_cli(["lower-bound", "--cover", str(path), *extra]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == error


# ---------------------------------------------------------------------------
# reproductions and the scale ladder

class TestReproduce:
    def test_chess_window_end_to_end(self, tmp_path):
        rc = run_cli(["reproduce", "example1", "--window", "4",
                      "--out-dir", str(tmp_path), "--csv",
                      str(tmp_path / "rows.csv")])
        assert rc == 0
        report = json.loads((tmp_path / "example1-report.json").read_text())
        outs = report["outputs"]
        assert outs["agrees"] and outs["difference"] <= 1e-9
        assert outs["bound"] == SQRT2 / 2.0
        assert outs["hausdorff"] == SQRT2 / 2.0

        svg = tmp_path / "example1.svg"
        assert svg.exists()
        ET.parse(svg)  # well-formed
        pieces = count_pieces(svg)
        assert pieces["red"] == 13 and pieces["blue"] == 12

        with open(tmp_path / "rows.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "value"]
        assert {r[0] for r in rows[1:]} >= {"bound", "hausdorff", "difference"}

    def test_comb_window_end_to_end(self, tmp_path):
        rc = run_cli(["reproduce", "example2", "--window", "6",
                      "--delta", "0.1", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "example2-report.json").read_text())
        outs = report["outputs"]
        assert outs["bound"] == 0.5
        assert outs["agrees"]
        cert = outs["certificate"]
        assert cert["k"] == 2 and cert["r"] == 1.0 and cert["C"] == 2.0
        pieces = count_pieces(tmp_path / "example2.svg")
        assert pieces["red"] == cert["families"][0]["members"]
        assert pieces["blue"] == cert["families"][1]["members"]

    def test_tiny_windows_are_rejected(self, tmp_path):
        assert run_cli(["reproduce", "example1", "--window", "3",
                        "--out-dir", str(tmp_path)]) == 2

    def test_oversized_net_is_refused_before_the_cover(self, tmp_path, capsys):
        cover = mock.Mock(side_effect=AssertionError("the cover was built"))
        with mock.patch.dict(cli._GEN_KINDS, {"chess": cover}):
            assert run_cli(["reproduce", "example1", "--window", "999",
                            "--out-dir", str(tmp_path)]) == 2
        cover.assert_not_called()
        # 9,991 net coordinates on each axis at eps 0.1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == f"validation: {TooManyPoints(9991 ** 2, POINT_CAP)}"

    def test_zero_spacing_is_refused_by_the_net(self, tmp_path, capsys):
        assert run_cli(["reproduce", "example2", "--window", "4", "--delta", "0",
                        "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "validation: net spacing must be positive")

    def test_disagreement_is_a_failed_check(self, tmp_path):
        with mock.patch.object(cli, "planar_hausdorff", lambda x, y: 0.0):
            assert run_cli(["reproduce", "example1", "--window", "4",
                            "--out-dir", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "example1-report.json").read_text())
        assert report["outputs"]["agrees"] is False


# Every gen kind and both reproductions at tiny windows: SHA-256 of each file
# written (the reproduce report without runtime_ms) and gen's summary line.
PINNED_GEN = {
    "lattice": (["--window", "0,6,0,6"],
                "269617928837a7a0b743a01538a4198ad7620358737ec042b24e4555b8f5e5dc",
                "lattice: 49 points"),
    "net": (["--window", "0,2,0,2", "--eps", "0.25"],
            "2bef3e57568ce61fe51b1acffb8f8bef3d3ae7ff831f0ef32ab50388a5708de2",
            "net: 81 points at spacing 0.25"),
    "chess": (["--window", "0,6,0,6"],
              "badfcb497d7995662a12c01b943aa70bb54b772f76416d0a1e14a4cb4a788b44",
              "chess: 49 points, 25 red + 24 blue singletons, "
              "advertised r=1.4142135623730951 (sqrt 2), C=0"),
    "comb": (["--window", "0,4,-2,2", "--delta", "0.25"],
             "2cd11ba0d1106d1ce254f71836fb6f990610e8ec932dc0da20ca1e35bc330f3e",
             "comb: 97 points at spacing 0.25"),
    "comb-cover": (["--window", "0,4,-2,2", "--delta", "0.25"],
                   "40e7dfe91f8e0e618c593abd6eaf9fd9a7df51e012d75f9f44de6245b95ea0c3",
                   "comb-cover: 97 points, 7 red + 8 blue pieces, advertised r=1, C=2.0"),
    "brick": (["--window", "0,6,0,6", "--r", "1"],
              "08a7aa06c1c60877965c3858ea3ed1d71d30d96123f5e0dd54c7259d50bdbb77",
              "brick: 625 points, 3+3+3 bricks in 3 families, advertised r=1.0, "
              "C=4.242640687119286"),
    "interval": (["--window", "0,6,0,0", "--r", "1"],
                 "a50e39ee9cc940dc0b88e34f0b332058780d65d3e02eda6e3016a47233bae05a",
                 "interval: 25 points, 2+1 intervals in 2 families, advertised r=1.0, C=3.0"),
}
# SHA-256 of gen's stdout (indented JSON) for the same arguments, without --out
PINNED_GEN_STDOUT = {
    "lattice": "2b53070255ea7d6e22ebcafd3dec38dac0d06a094e7748709ee42afe6755dbda",
    "net": "6c9d40d48030614a01163cbe05cbd8a6287cd0db41900030d29389f98f726353",
    "chess": "353d3668205fcb7130d471c1225110b62dab0791cde30706173b59dc49f53196",
    "comb": "942693be36e8dcdddabd4129a5bbcbdb2096fcab8ee12eec825b0cb87332028f",
    "comb-cover": "782f8ef18af1cfe28fd3c92071fa077d9f3eb8ac2a809e2345e9a30f6b5364f9",
    "brick": "f2645b2d2c570d89c7ff4f572ba8c4b47577b2474a4b7ae00d883a6d2a173a37",
    "interval": "c43d49e5d5f4f9e8f51e535989d52500ed00983f683c64827db0617c611d32b2",
}
# SHA-256 of the same files and stdout rewritten in the nested layout (one
# array per member, points2d as [x, y] rows): the bytes of earlier releases
PINNED_GEN_NESTED = {
    "chess": ("36479abecb14336e3aca7ee339394048b03901fb8d0bca0805f52d75ffe5a12e",
              "bb516890aef16e27e44416034f559077851d7692d65591616939c5311fda417f"),
    "comb": ("13b8ce3bdb4b264233e390d765c0075dfc8a5c153eda4da117b81a98e4086cd7",
             "6863503ada7ffe9dedb0c23bdae03c962c2ec984b83183c8181a843cc11f606c"),
    "comb-cover": ("ec4235054c39be98d0c1a63fe963a91eafea119b5f48930c202b030fc484c73b",
                   "e906efd45cf934b528b029ee521c3c5bfa02ceb15362487eba9efc679309d777"),
    "brick": ("1c696148f1fe59494c5b534d20193481dc216c9215057649a618e98ad104795a",
              "1c4135fde02fb9120c74ea206422554b7acff0be6349307c9f037065b7c327ad"),
    "interval": ("8bee627ce008d161960f8ce844dbcbef5ea23f088df9a8589d94a69209bef9b8",
                 "80af5feaa5c9c725d4048fc44d4b34593f582c70ea6398651ad23aa4fac6fb2a"),
}
PINNED_REPRODUCE = {  # report, CSV, SVG
    "example1": ("452d14913307d9095b05a2f0e5a7f0ae22733c2df631e5e4bc5aadba51f8b6eb",
                 "eb5d991fdf9f895fce5f11db3fe901537c7c7966d9e54c4cb9f0636b817c036a",
                 "e060fb4acd4120a52b85c9e6d72513ee4993dc66ae7f6830a284abb858fd4abf"),
    "example2": ("7a3289df7840cbb89cbac5cc90cdd89f54516392e88e79d870bc574572542148",
                 "f97d12579738171e1ed5974c44c8c9a782f8d72bdd1c27d5ba436c46e2a0c5f8",
                 "027282430370956aef77830195b08654e749a25b1ce11a9e6f5c52b20518c71f"),
}

# a comb window that misses the x-axis holds the cross product of its lines and
# their samples, but its points are not built by EuclideanPointSet.grid: gen
# writes them as points2d (SHA-256 below), the points of the grid2d document
# that earlier releases wrote for it
OFF_AXIS_COMB = (["--window", "0,3,1,2", "--delta", "0.5"],
                 "740534b29fe85472efec15e46d5484328cdd9c2b5b74cf5c9f67898e6859a93c",
                 {"kind": "grid2d", "x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 1.5, 2.0]})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("kind", sorted(PINNED_GEN))
    def test_gen(self, kind, tmp_path, capsys):
        args, digest, line = PINNED_GEN[kind]
        out = tmp_path / f"{kind}.json"
        assert run_cli(["gen", kind, *args, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [line, f"wrote {out}"]
        assert _sha256(out.read_bytes()) == digest

    def test_gen_off_axis_comb(self, tmp_path):
        args, digest, earlier = OFF_AXIS_COMB
        out = tmp_path / "comb.json"
        assert run_cli(["gen", "comb", *args, "--out", str(out)]) == 0
        assert _sha256(out.read_bytes()) == digest
        doc = load_json(out)
        assert doc["kind"] == "points2d"
        assert (space_from_json(doc).points.tobytes()
                == space_from_json(earlier).points.tobytes())

    @pytest.mark.parametrize("kind", sorted(PINNED_GEN))
    def test_gen_stdout(self, kind, capsys):
        args, _, line = PINNED_GEN[kind]
        assert run_cli(["gen", kind, *args]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [line]
        assert _sha256(out.encode()) == PINNED_GEN_STDOUT[kind]

    @pytest.mark.parametrize("kind", sorted(PINNED_GEN_NESTED))
    def test_gen_in_the_nested_layout(self, kind, tmp_path, capsys):
        args, _, _ = PINNED_GEN[kind]
        out = tmp_path / f"{kind}.json"
        assert run_cli(["gen", kind, *args, "--out", str(out)]) == 0
        assert run_cli(["gen", kind, *args]) == 0
        stdout = capsys.readouterr().out
        nested = (json.dumps(nested_layout(load_json(out))) + "\n",
                  json.dumps(nested_layout(json.loads(stdout)), indent=2) + "\n")
        assert tuple(_sha256(text.encode()) for text in nested) == PINNED_GEN_NESTED[kind]

    @pytest.mark.parametrize("example", sorted(PINNED_REPRODUCE))
    def test_reproduce(self, example, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths, so the report is the same bytes
        assert run_cli(["reproduce", example, "--window", "4", "--out-dir", "out",
                        "--csv", f"out/{example}.csv"]) == 0
        report = json.loads(Path(f"out/{example}-report.json").read_text())
        del report["runtime_ms"]
        got = (_sha256(json.dumps(report).encode()),
               _sha256(Path(f"out/{example}.csv").read_bytes()),
               _sha256(Path(f"out/{example}.svg").read_bytes()))
        assert got == PINNED_REPRODUCE[example]


class TestScaleLadder:
    def test_chess_ladder(self, chess_cover, tmp_path):
        csv_path = tmp_path / "ladder.csv"
        rc, report = run_cli_report(
            ["scale-ladder", "--cover", str(chess_cover), "--lam", "2",
             "--steps", "4", "--csv", str(csv_path)],
            tmp_path / "l.json")
        assert rc == 0
        outs = report["outputs"]
        assert outs["ok"] and len(outs["rows"]) == 5
        assert outs["gap0"] == SQRT2
        for row in outs["rows"]:
            assert row["gap"] == (2.0 ** row["m"]) * SQRT2
            assert row["diam"] == 0.0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "lambda_pow", "gap", "diam"]
        assert len(rows) == 6

    def test_ratio_mismatch_is_a_failed_check(self, chess_cover, tmp_path):
        with mock.patch.object(cli, "scale_points", lambda pts, lam: pts):
            rc, report = run_cli_report(["scale-ladder", "--cover", str(chess_cover),
                                         "--steps", "2"], tmp_path / "l.json")
        assert rc == 2 and report["outputs"]["ok"] is False

    def test_contracting_lambda_is_rejected(self, chess_cover):
        assert run_cli(["scale-ladder", "--cover", str(chess_cover),
                        "--lam", "1.0"]) == 2

    @pytest.mark.parametrize("lam, steps", [
        ("1e200", "3"),  # lam**steps overflows a float
        ("2", "1023"),
        ("inf", "0"),
        ("2", "-3"),
        ("nan", "1"),
    ])
    def test_unusable_ladders_are_rejected(self, chess_cover, lam, steps, capsys):
        assert run_cli(["scale-ladder", "--cover", str(chess_cover),
                        "--lam", lam, "--steps", steps]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "validation: need --lam > 1 and --steps >= 0 with --lam ** --steps < 2**1023"]

    def test_matrix_covers_cannot_scale(self, tmp_path):
        cover = tmp_path / "m.json"
        dump_json({"kind": "cover", "r": 1.0, "strict": False,
                   "space": {"kind": "matrix", "n": 2,
                             "d": [[0.0, 2.0], [2.0, 0.0]]},
                   "families": [{"label": "a", "members": [[0], [1]]}]}, cover)
        assert run_cli(["scale-ladder", "--cover", str(cover)]) == 2

    def test_no_families_is_refused(self, tmp_path, capsys):
        cover = tmp_path / "none.json"
        dump_json({"kind": "cover", "r": 1.0, "strict": False,
                   "space": {"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0]},
                   "families": []}, cover)
        assert run_cli(["scale-ladder", "--cover", str(cover)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation: scale-ladder needs at least one family"]

    def test_a_gapless_family_writes_null_gaps(self, tmp_path):
        # one member has no gap to another: the gap is inf, written as null
        cover = tmp_path / "one.json"
        dump_json({"kind": "cover", "r": 1.0, "strict": False,
                   "space": {"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0, 2.0]},
                   "families": [{"label": "a", "members": [[0, 1, 2, 3]]}]}, cover)
        out = tmp_path / "l.json"
        assert run_cli(["scale-ladder", "--cover", str(cover), "--steps", "2",
                        "--out", str(out)]) == 0
        outputs = _strict_json(out.read_text())["outputs"]
        assert outputs["ok"] and outputs["gap0"] is None and outputs["diam0"] == math.sqrt(5.0)
        assert [(row["gap"], row["diam"]) for row in outputs["rows"]] == [
            (None, math.sqrt(5.0) * 2.0 ** m) for m in range(3)]

    def test_each_scale_is_measured_once(self, chess_cover, tmp_path):
        with mock.patch.object(cli, "inspect_cover", wraps=cli.inspect_cover) as found:
            rc, _ = run_cli_report(["scale-ladder", "--cover", str(chess_cover),
                                    "--steps", "3"], tmp_path / "l.json")
        assert rc == 0 and found.call_count == 4


# ---------------------------------------------------------------------------
# packaging

def _child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH puts the imported ``ghbounds`` first."""
    src = str(Path(ghbounds.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = src if not inherited else os.pathsep.join([src, inherited])
    return {**os.environ, "PYTHONPATH": path}


def _assert_version(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ghbounds {__version__}"


class TestMemberTuplesStayUnbuilt:
    """The gen, verify-cover and lower-bound path never builds a family's member tuples."""

    @pytest.mark.parametrize("gen_args, model", [
        (["chess", "--window", "0,10,0,10"], "R2"),
        (["brick", "--window", "0,12,0,12", "--r", "1"], "R3"),
        (["comb-cover", "--window", "0,4,-3,3", "--delta", "0.25"], "R2"),
    ])
    def test_no_member_tuples(self, gen_args, model, tmp_path):
        reads = []
        real = SubsetFamily.members

        def counted(fam):
            reads.append(fam.label)
            return real.fget(fam)

        cover = str(tmp_path / "cover.json")
        with mock.patch.object(SubsetFamily, "members", property(counted)):
            assert run_cli(["gen", *gen_args, "--out", cover]) == 0
            assert run_cli(["gen", *gen_args]) == 0
            assert run_cli(["verify-cover", "--cover", cover]) == 0
            assert run_cli(["lower-bound", "--cover", cover, "--model", model]) == 0
            assert reads == []
            # the counter sees a read when something reads the members
            assert len(cover_from_json(load_json(cover))[1][0].members) > 0
        assert len(reads) == 1


class TestFullTargetStaysUnbuilt:
    """A cover read from its file and checked against every point builds no per-point objects."""

    @pytest.mark.parametrize("gen_args, model", [
        (["chess", "--window", "0,10,0,10"], "R2"),
        (["brick", "--window", "0,12,0,12", "--r", "1"], "R3"),
        (["comb-cover", "--window", "0,4,-3,3", "--delta", "0.25"], "R2"),
    ])
    def test_no_target_tuple_or_point_rows(self, gen_args, model, tmp_path):
        cover = str(tmp_path / "cover.json")
        with mock.patch.object(SubsetRef, "full", wraps=SubsetRef.full) as full, \
                mock.patch.object(serialize, "_flattened",
                                  wraps=serialize._flattened) as nested:
            assert run_cli(["gen", *gen_args, "--out", cover]) == 0
            assert run_cli(["verify-cover", "--cover", cover]) == 0
            assert run_cli(["lower-bound", "--cover", cover, "--model", model]) == 0
            space, families, r, strict, target = load_cover(cover)
            cert = make_certificate(space, families, r, strict, target)
            # gen's files hold flat lists: no nested rows or members are read
            assert full.call_count == 0 and nested.call_count == 0
            assert cert.target_size == space.n and cert.given_target is None


_SPACE = {"kind": "points2d", "pts": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}


def _cover_doc(**fields):
    return {"kind": "cover", "space": _SPACE, "r": 0.5,
            "families": [{"label": "a", "members": [[0], [1, 2]]}], **fields}


class TestMalformedDocuments:
    """Valid JSON of the wrong shape is refused as a validation error, not a traceback."""

    # each file option, with the rest of a command line that reads it
    COMMANDS = {
        "--space": ["hausdorff"],
        "--space-a": ["hausdorff", "--space-b", "{good}"],
        "--x": ["gh-exact", "--y", "{good}"],
        "--cover": ["verify-cover"],
        "--a": ["hausdorff", "--space", "{good}"],
        "--model-file": ["lower-bound", "--cover", "{cover}"],
    }

    @pytest.mark.parametrize("option, doc", [
        *((option, doc) for option in ("--space", "--cover", "--x", "--space-a", "--model-file")
          for doc in ([1, 2], "x")),
        ("--space", {"kind": "points2d", "pts": {"a": 1}}),
        ("--x", {"kind": ["matrix"], "d": [[0.0]]}),  # a kind no dict key can be
        ("--cover", _cover_doc(families=[{"label": "a", "members": [0, 1]}])),
        ("--cover", _cover_doc(target=5)),
        ("--cover", _cover_doc(families=[5])),
        *(("--cover", _cover_doc(strict=flag)) for flag in ("false", 0, None)),
        *(("--model-file", {"name": "m", "asdim_lower": 2, "stabilizer_nontrivial": flag})
          for flag in ("false", 1)),
    ])
    def test_exit_2(self, option, doc, tmp_path, capsys):
        assert self.run(option, doc, tmp_path) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("validation: ")

    @pytest.mark.parametrize("option, doc, message", [
        ("--space-a", {"kind": "points2d", "pts": [[10 ** 400, 0.0]]},
         "coordinates must be finite"),
        ("--space", {"kind": "points2d", "pts": [[0.0, 1.0], [-(10 ** 400), 0.0]]},
         "coordinates must be finite"),
        ("--cover", _cover_doc(r=10 ** 400), "r: int too large to convert to float"),
        ("--space", {"kind": "matrix", "d": [[0.0]] * 1001},
         "matrix space lists 1001 points, cap is 1000"),
        # a side whose list is malformed reaches space_from_json's own error
        ("--x", {"kind": "points2d", "pts": 5}, "pts must be a JSON array of arrays"),
        # an index is a JSON integer: a float or a boolean is refused, not truncated
        ("--cover", _cover_doc(families=[{"label": "a", "members": [[1.5, True], [2.9]]}]),
         "members must be a JSON array of integers"),
        ("--cover", _cover_doc(families=[{"label": "a", "members": [0, 1.0], "sizes": [1, 1]}]),
         "members must be a JSON array of integers"),
        ("--cover", _cover_doc(families=[{"label": "a", "ranges": [0, 2], "sizes": [2.0]}]),
         "sizes must be a JSON array of integers"),
        ("--cover", _cover_doc(families=[{"label": "a", "ranges": [0, True], "sizes": [2]}]),
         "ranges must be a JSON array of integers"),
        ("--cover", _cover_doc(target=[0.5, True]), "a subset must be a JSON array of integers"),
        ("--a", [0.7, True, 2.2], "a subset must be a JSON array of integers"),
        # every other value has its JSON type too: none is converted
        ("--cover", _cover_doc(r="0.5"), "r must be a JSON number, got '0.5'"),
        ("--cover", _cover_doc(r=True), "r must be a JSON number, got True"),
        *(("--model-file", {"name": "m", "asdim_lower": value, "stabilizer_nontrivial": True},
           f"asdim_lower must be a JSON integer, got {value!r}") for value in (2.9, True, "2")),
        *(("--space", {"kind": "matrix", "d": d}, "matrix d must hold JSON numbers")
          for d in ([["0", "1"], ["1", "0"]], [[False, True], [True, False]])),
        *(("--cover", _cover_doc(families=[{"label": label, "members": [[0], [1, 2]]}]),
           f"label must be a JSON string, got {label!r}") for label in ([1, 2], None)),
        *(("--model-file", {"name": name, "asdim_lower": 2, "stabilizer_nontrivial": True},
           f"name must be a JSON string, got {name!r}") for name in ([1, 2], None, 2)),
        *(("--model-file", {"name": "m", "asdim_lower": 2, "stabilizer_nontrivial": True,
                            "provenance": value},
           f"provenance must be a JSON string, got {value!r}") for value in ([1, 2], None)),
        # a model's dimension is at least 1, as R<n> needs n >= 1
        *(("--model-file", {"name": "m", "asdim_lower": value, "stabilizer_nontrivial": True},
           f"asdim_lower must be at least 1, got {value}") for value in (0, -3)),
    ])
    def test_one_validation_line(self, option, doc, message, tmp_path, capsys):
        assert self.run(option, doc, tmp_path) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"validation: {message}"]

    def run(self, option, doc, tmp_path):
        """The command of option, reading doc there and valid files elsewhere; its exit code."""
        files = {"good": tmp_path / "good.json", "cover": tmp_path / "cover.json"}
        files["good"].write_text(json.dumps(_SPACE))
        files["cover"].write_text(json.dumps(_cover_doc()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        command, *rest = self.COMMANDS[option]
        return run_cli([command, option, str(bad), *(a.format(**files) for a in rest)])


class TestCollectorPause:
    """main pauses the cyclic collector for the command and restores it."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_during_the_command_and_restored(self, enabled, tmp_path):
        (gc.enable if enabled else gc.disable)()
        during = []

        def lattice(w):
            during.append(gc.isenabled())
            return gen_lattice_window(w)

        with mock.patch.object(cli, "gen_lattice_window", lattice):
            assert run_cli(["gen", "lattice", "--window", "0,2,0,2",
                            "--out", str(tmp_path / "l.json")]) == 0
        assert during == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_after_a_validation_error(self, enabled, tmp_path):
        (gc.enable if enabled else gc.disable)()
        assert run_cli(["verify-cover", "--cover", str(tmp_path / "missing.json")]) == 2
        assert gc.isenabled() is enabled

    def test_restored_when_a_command_raises(self):
        gc.enable()
        with mock.patch.object(cli, "gen_lattice_window", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                run_cli(["gen", "lattice", "--window", "0,2,0,2"])
        assert gc.isenabled()


class TestEntryPoint:
    def test_version_flag(self):
        proc = subprocess.run([sys.executable, "-m", "ghbounds", "--version"],
                              capture_output=True, text=True, env=_child_env())
        _assert_version(proc)

    @pytest.mark.skipif(shutil.which("ghbounds") is None,
                        reason="ghbounds console script not on PATH "
                               "(created by pip install)")
    def test_console_script_version_flag(self):
        proc = subprocess.run(["ghbounds", "--version"], capture_output=True,
                              text=True)
        _assert_version(proc)

    def test_console_script_points_at_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["ghbounds"] == "ghbounds.cli:main"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghbounds.cli", "gen", "lattice",
             "--window", "0,1,0,1"], capture_output=True, text=True,
            env=_child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"kind": "grid2d", "x": [0.0, 1.0], "y": [0.0, 1.0]}


class TestScripts:
    """The scripts import public names; running them catches a moved or deleted one."""

    @pytest.mark.parametrize("script, args", [
        ("brick_sweep.py", ["--window", "10", "--rs", "1,2"]),
        ("reproduce_all.py", ["--window", "4", "--out-dir", "{tmp}"]),
        ("json_boundary.py", ["--window", "4", "--repeats", "1"]),
        ("scale_sweep.py", ["--sizes", "4,6"]),
        ("scale_sweep.py", ["--comb", "4"]),
        ("scale_sweep.py", ["--brick", "10"]),
        ("ab_ops.py", ["--a", "{root}", "--b", "{root}", "--workload", "comb", "--ops", "3"]),
        ("ab_ops.py", ["--a", "{root}", "--b", "{root}", "--workload", "brick", "--ops", "1"]),
    ])
    def test_runs(self, script, args, tmp_path):
        root = Path(__file__).resolve().parents[1]
        path = root / "scripts" / script
        proc = subprocess.run(
            [sys.executable, str(path), *(a.format(tmp=tmp_path, root=root) for a in args)],
            capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
