"""The SVG text writer against the ElementTree oracle, byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghbounds import SubsetFamily, WindowSpec, gen_chess_families, gen_lattice_window
from ghbounds.constructions import gen_comb_cover, gen_comb_set
from ghbounds.svgfig import render_families_svg
from oracles import count_pieces, render_families_svg_et

AWKWARD = 'a&b <c> "d"\nnext\tline'


def _same_bytes(tmp_path, points, families, **kw) -> bytes:
    got = render_families_svg(points, families, tmp_path / "text.svg", **kw).read_bytes()
    want = render_families_svg_et(points, families, tmp_path / "et.svg", **kw).read_bytes()
    assert got == want
    return got


def _chess():
    lat = gen_lattice_window(WindowSpec.square(4))
    return lat.points, gen_chess_families(lat)


def _comb():
    comb = gen_comb_set(WindowSpec(0.0, 4.0, -2.0, 2.0), 0.25)
    return comb.points, gen_comb_cover(comb, 2.0)


def _awkward_labels():
    pts = np.array([[0.0, 0.0], [1.5, -2.0], [3.0, 1e-7]])
    return pts, (SubsetFamily(AWKWARD, [[0], [2]]), SubsetFamily("blue", [[1, 2]]))


def _empty_family():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    return pts, (SubsetFamily("red", []), SubsetFamily("green", [[0, 1]]),
                 SubsetFamily("blue", []))


def _single_point():
    return np.array([[2.5, -7.0]]), (SubsetFamily("red", [[0]]),)


def _signed_zeros():
    # signed zeros, far-apart magnitudes, and points shared by two families
    pts = np.array([[-0.0, 0.0], [0.0, -0.0], [-1.0, 0.25], [1e16, -1e22]])
    return pts, (SubsetFamily("red", [[0, 1], [3]]), SubsetFamily("blue", [[1, 2, 3]]))


@pytest.mark.parametrize("make", [_chess, _comb, _awkward_labels, _empty_family,
                                  _single_point, _signed_zeros])
@pytest.mark.parametrize("title", [None, "", "plain", AWKWARD])
def test_matches_the_element_tree_writer(make, title, tmp_path):
    points, families = make()
    text = _same_bytes(tmp_path, points, families, dot_radius=0.05, title=title)
    assert text.startswith(b"<?xml version='1.0' encoding='utf-8'?>\n<svg ")
    want: dict[str, int] = {}
    for fam in families:
        if fam.members:
            label = fam.label.split()[0]
            want[label] = want.get(label, 0) + len(fam.members)
    assert count_pieces(tmp_path / "text.svg") == want


@given(cells=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1,
                      max_size=40, unique=True),
       seed=st.integers(0, 2 ** 32 - 1), spacing=st.sampled_from([1.0, 0.5, 0.1, 1 / 3]))
def test_random_grids_match(tmp_path_factory, cells, seed, spacing):
    rng = np.random.default_rng(seed)
    points = np.array(cells, dtype=np.float64) * spacing
    families = tuple(
        SubsetFamily(label, [rng.choice(len(points), int(rng.integers(1, len(points) + 1)),
                                           replace=False).tolist()
                                for _ in range(int(rng.integers(0, 4)))])
        for label in ("red", "blue", "other"))
    _same_bytes(tmp_path_factory.mktemp("svg"), points, families)
