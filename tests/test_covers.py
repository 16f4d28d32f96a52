"""Family checks, certificates, the lower-bound engine, and its gates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_correspondence, random_space
from ghbounds import (Correspondence, EuclideanPointSet, SubsetFamily,
                      WindowSpec, check_cover, check_r_disjoint,
                      check_uniform_bound, diam, distortion,
                      gen_chess_families, gen_comb_cover, gen_comb_set,
                      gen_lattice_window, gh_lower_bound, induce_space,
                      make_certificate, model_space, multiplicity,
                      pushforward_family, scale_family, set_distance)
from ghbounds.errors import (EmptyFamilyList, NotCovering, NotDisjoint,
                             TooManyFamilies, TrivialStabilizer,
                             UnknownModelSpace)

SQRT2 = math.sqrt(2.0)


def chess_setup(n: float = 6.0):
    lat = gen_lattice_window(WindowSpec(0.0, n, 0.0, n))
    red, blue = gen_chess_families(lat)
    return lat, red, blue


# ---------------------------------------------------------------------------
# families and the three checks

class TestSubsetFamily:
    def test_of_builds_members(self):
        fam = SubsetFamily.of("f", [[0, 1], [2]], n=4)
        assert fam.label == "f"
        assert len(fam) == 2
        assert fam.members[0].indices == (0, 1)


class TestDisjointness:
    def test_single_member_is_vacuously_disjoint(self):
        lat, red, _ = chess_setup(2.0)
        solo = SubsetFamily("solo", (red.members[0],))
        rep = check_r_disjoint(lat, solo, 1e9)
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
            fam = SubsetFamily.of("parts", members, n=pts.n)
            fast = check_r_disjoint(pts, fam, 1.0)
            slow = check_r_disjoint(induce_space(pts), fam, 1.0)
            assert fast.min_gap == slow.min_gap
            assert fast.witness == slow.witness

    def test_touching_members_have_zero_gap(self):
        pts = EuclideanPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        fam = SubsetFamily.of("touch", [[0, 1], [1, 2]], n=3)
        rep = check_r_disjoint(pts, fam, 0.5)
        assert not rep.ok and rep.min_gap == 0.0


class TestBoundAndCover:
    def test_uniform_bound_of_singletons_is_zero(self):
        lat, red, _ = chess_setup(4.0)
        assert check_uniform_bound(lat, red) == 0.0

    def test_uniform_bound_is_the_largest_member_diameter(self):
        pts = EuclideanPointSet(np.array(
            [[0.0, 0.0], [0.0, 3.0], [5.0, 0.0], [5.0, 1.0]]))
        fam = SubsetFamily.of("two", [[0, 1], [2, 3]], n=4)
        assert check_uniform_bound(pts, fam) == 3.0

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


# ---------------------------------------------------------------------------
# certificates

class TestMakeCertificate:
    def test_chess_certifies(self):
        lat, red, blue = chess_setup()
        cert = make_certificate(lat, (red, blue), SQRT2)
        assert cert.k == 2
        assert cert.c == 0.0
        assert cert.min_gap == SQRT2
        assert len(cert.target) == lat.n

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

    def test_empty_family_list_is_rejected(self):
        lat, _, _ = chess_setup(2.0)
        with pytest.raises(EmptyFamilyList):
            make_certificate(lat, (), 1.0)

    def test_partial_target_allows_larger_members(self):
        lat, red, blue = chess_setup(2.0)
        target = red.members[0]
        cert = make_certificate(lat, (red, blue), SQRT2, target=target)
        assert len(cert.target) == 1


# ---------------------------------------------------------------------------
# the model registry and the bound

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
        assert f"tolerance {cert.tolerance!r}" in text
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
        ident = Correspondence.of([(i, i) for i in range(lat.n)], lat.n, lat.n)
        images, report = pushforward_family(ident, red, lat)
        assert images.members == red.members
        assert report.min_gap == SQRT2
        assert report.max_diam == 0.0

    def test_full_product_collapses_gaps(self):
        lat, red, _ = chess_setup(2.0)
        full = Correspondence.of(
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
            fam = SubsetFamily.of("bits", members[:half], n=nx)
            src_gap = check_r_disjoint(x, fam, 0.0).min_gap
            src_diam = check_uniform_bound(x, fam)
            _, report = pushforward_family(rel, fam, y)
            assert report.max_diam <= src_diam + dis + 1e-9
            if len(fam.members) > 1 and math.isfinite(src_gap):
                assert report.min_gap >= src_gap - dis - 1e-9


class TestScaleFamily:
    def test_unit_scale_is_identity(self):
        lat, red, blue = chess_setup(3.0)
        scaled, fams = scale_family(lat, (red, blue), 1.0)
        assert np.array_equal(scaled.points, lat.points)
        assert fams == (red, blue)

    def test_doubling_doubles_gap_and_diameter(self):
        comb = gen_comb_set(WindowSpec(0.0, 4.0, -2.0, 2.0), 0.25)
        families = gen_comb_cover(comb, 2.0)
        gap0 = min(check_r_disjoint(comb, f, 0.0).min_gap for f in families)
        diam0 = max(check_uniform_bound(comb, f) for f in families)
        scaled, fams = scale_family(comb, families, 2.0)
        gap1 = min(check_r_disjoint(scaled, f, 0.0).min_gap for f in fams)
        diam1 = max(check_uniform_bound(scaled, f) for f in fams)
        assert gap1 == pytest.approx(2.0 * gap0, rel=1e-12)
        assert diam1 == pytest.approx(2.0 * diam0, rel=1e-12)

    def test_two_steps_compose(self):
        lat, red, blue = chess_setup(3.0)
        once, fams = scale_family(lat, (red, blue), 2.0)
        twice, fams = scale_family(once, fams, 2.0)
        gap = check_r_disjoint(twice, fams[0], 0.0).min_gap
        assert gap == pytest.approx(4.0 * SQRT2, rel=1e-12)
