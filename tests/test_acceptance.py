"""End-to-end acceptance checks with pinned values and tolerances.

Each check records exactly one PASS/FAIL line in the terminal summary (see
conftest.acceptance_line). The pinned numbers were derived independently:
closed forms for the grid constructions, and full-enumeration oracles for
the solver.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from conftest import (acceptance_line, random_metric_matrix, random_space,
                      random_correspondence, random_subset, run_cli,
                      run_cli_report)
from ghbounds import (WindowSpec, build_space, check_r_disjoint, diam,
                      exact_gh, gen_brick_cover, gen_chess_families,
                      gen_lattice_window, make_certificate, multiplicity,
                      pushforward, set_distance)
from ghbounds.errors import TriangleViolation
from oracles import min_distortion_bruteforce

SQRT2 = math.sqrt(2.0)
HALF_DIAGONAL = 0.7071067811865476  # sqrt(2)/2 to the last float digit


def test_lattice_vs_fine_net_hausdorff(window10_hausdorff):
    """Integer lattice vs 0.1-net on [0,10]^2: d_H is half the cell diagonal."""
    with acceptance_line(1, "lattice vs 0.1-net Hausdorff on [0,10]^2 "
                            "= sqrt(2)/2 within 1e-9, under 5 s") as out:
        rc = window10_hausdorff["rc"]
        value = window10_hausdorff["value"]
        elapsed = window10_hausdorff["elapsed"]
        out["detail"] = f"d_H={value!r}, {elapsed:.2f}s"
        out["ok"] = (rc == 0
                     and abs(value - HALF_DIAGONAL) <= 1e-9
                     and elapsed < 5.0)
        assert out["ok"], out["detail"]


def test_chess_certificates_and_emitted_bound(window10_hausdorff, tmp_path):
    """Chess families certify (k=2, r=sqrt2, C=0) at several window sizes and
    the emitted lower bound equals the measured Hausdorff distance."""
    with acceptance_line(2, "chess covers certify C=0 for N in {4,12,20}; "
                            "bound sqrt(2)/2 matches the measured d_H") as out:
        oks = []
        for n in (4, 12, 20):
            lat = gen_lattice_window(WindowSpec(0.0, float(n), 0.0, float(n)))
            cert = make_certificate(lat, gen_chess_families(lat), SQRT2)
            oks.append(cert.k == 2 and cert.c == 0.0 and cert.min_gap == SQRT2)

        chess12 = tmp_path / "chess12.json"
        assert run_cli(["gen", "chess", "--window", "0,12,0,12",
                        "--out", str(chess12)]) == 0
        rc, report = run_cli_report(
            ["lower-bound", "--cover", str(chess12), "--model", "R2"],
            tmp_path / "bound12.json")
        bound = report["outputs"]["bound"]
        gap = abs(bound - window10_hausdorff["value"])
        out["detail"] = f"bound={bound!r}, |bound - d_H|={gap:.2e}"
        out["ok"] = all(oks) and rc == 0 and gap <= 1e-9
        assert out["ok"], out["detail"]


def test_comb_reproduction_certifies_and_matches(tmp_path):
    """The comb experiment at window 12 certifies (k=2, r=1, C=2), emits 1/2,
    and the measured comb-vs-net Hausdorff distance is 1/2 within 0.06."""
    with acceptance_line(3, "comb window 12 certifies (k=2, r=1, C=2); "
                            "bound 1/2 matches d_H within 0.06") as out:
        rc = run_cli(["reproduce", "example2", "--window", "12",
                      "--delta", "0.05", "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "example2-report.json").read_text())
        cert = report["outputs"]["certificate"]

        comb_f = tmp_path / "comb12.json"
        net_f = tmp_path / "net12.json"
        assert run_cli(["gen", "comb", "--window", "0,12,-6,6",
                        "--delta", "0.05", "--out", str(comb_f)]) == 0
        assert run_cli(["gen", "net", "--window", "0,12,-6,6",
                        "--eps", "0.05", "--out", str(net_f)]) == 0
        rc2, hrep = run_cli_report(
            ["hausdorff", "--space-a", str(comb_f), "--space-b", str(net_f)],
            tmp_path / "h12.json")
        value = hrep["outputs"]["hausdorff"]

        out["detail"] = (f"k={cert['k']}, r={cert['r']!r}, C={cert['C']!r}, "
                         f"bound={report['outputs']['bound']!r}, d_H={value!r}")
        out["ok"] = (rc == 0 and rc2 == 0
                     and cert["k"] == 2 and cert["r"] == 1.0 and cert["C"] == 2.0
                     and report["outputs"]["bound"] == 0.5
                     and abs(value - 0.5) <= 0.06)
        assert out["ok"], out["detail"]


def test_exact_distance_matches_enumeration_oracle():
    """Branch-and-bound equals full enumeration on 100 random small pairs."""
    with acceptance_line(4, "exact GH distance equals the enumeration oracle "
                            "on 100 random pairs (plus forced cases), under 60 s") as out:
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260814)
        mismatches = 0

        # forced cases: identical spaces, and a singleton against a spread
        x = random_space(rng, 4, integer=True)
        assert exact_gh(x, x).value == 0.0
        point = build_space([[0.0]])
        spread = random_space(rng, 4, integer=True)
        res = exact_gh(point, spread)
        assert res.value == diam(spread, range(spread.n)) / 2.0

        for _ in range(100):
            nx = int(rng.integers(1, 5))
            ny = int(rng.integers(1, 5))
            a = random_space(rng, nx, integer=True)
            b = random_space(rng, ny, integer=True)
            got = exact_gh(a, b)
            want = min_distortion_bruteforce(a, b) / 2.0
            if got.value != want or not got.optimal:
                mismatches += 1
        elapsed = time.perf_counter() - t0
        out["detail"] = f"mismatches={mismatches}, {elapsed:.2f}s"
        out["ok"] = mismatches == 0 and elapsed < 60.0
        assert out["ok"], out["detail"]


def test_pushforward_controls_diameter_and_distance():
    """Images under a correspondence obey the distortion inequalities."""
    with acceptance_line(5, "1000 random trials: diam(R(U)) <= diam(U) + dis R "
                            "and d(R(U),R(U')) >= d(U,U') - dis R") as out:
        from ghbounds import distortion

        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(1000):
            nx = int(rng.integers(2, 26))
            ny = int(rng.integers(2, 26))
            x = random_space(rng, nx)
            y = random_space(rng, ny)
            rel = random_correspondence(rng, nx, ny)
            dis = distortion(x, y, rel)

            u = random_subset(rng, nx)
            v = random_subset(rng, nx)
            ru = pushforward(rel, u)
            rv = pushforward(rel, v)
            if diam(y, ru) > diam(x, u) + dis + 1e-9:
                violations += 1
            elif set_distance(y, ru, rv) < set_distance(x, u, v) - dis - 1e-9:
                violations += 1
        out["detail"] = f"violations={violations}/1000"
        out["ok"] = violations == 0
        assert out["ok"], out["detail"]


def test_scale_ladder_doubles_certificate_quantities(tmp_path):
    """Doubling coordinates doubles measured gaps and diameters, step by step."""
    with acceptance_line(6, "scale ladder at lambda=2, 5 steps: gap and diam "
                            "ratios are exact powers of two (rel 1e-9)") as out:
        chess = tmp_path / "chess.json"
        brick = tmp_path / "brick.json"
        assert run_cli(["gen", "chess", "--window", "0,12,0,12",
                        "--out", str(chess)]) == 0
        assert run_cli(["gen", "brick", "--window", "0,40,0,40", "--r", "2",
                        "--out", str(brick)]) == 0

        checked = []
        for name, cover in (("chess", chess), ("brick", brick)):
            rc, report = run_cli_report(
                ["scale-ladder", "--cover", str(cover), "--lam", "2",
                 "--steps", "5"],
                tmp_path / f"ladder-{name}.json")
            outs = report["outputs"]
            ratios_ok = True
            for row in outs["rows"]:
                lam_m = 2.0 ** row["m"]
                if abs(row["gap"] - lam_m * outs["gap0"]) > 1e-9 * max(1.0, row["gap"]):
                    ratios_ok = False
                want_diam = lam_m * outs["diam0"]
                if outs["diam0"] == 0.0:
                    if row["diam"] != 0.0:
                        ratios_ok = False
                elif abs(row["diam"] - want_diam) > 1e-9 * want_diam:
                    ratios_ok = False
            checked.append(rc == 0 and outs["ok"] and ratios_ok)
        out["detail"] = f"chess ok={checked[0]}, brick ok={checked[1]}"
        out["ok"] = all(checked)
        assert out["ok"], out["detail"]


def test_brick_certificates_across_separations():
    """Brick covers on [0,100]^2 certify r-disjointness with margin for
    r = 1, 2.5, and 7, with multiplicity one."""
    with acceptance_line(7, "brick covers at r in {1, 2.5, 7} on [0,100]^2: "
                            "gap >= 1.5 r, C <= 3 r sqrt(2), multiplicity 1") as out:
        w = WindowSpec(0.0, 100.0, 0.0, 100.0)
        details = []
        all_ok = True
        for r in (1.0, 2.5, 7.0):
            net, families = gen_brick_cover(w, r)
            cert = make_certificate(net, families, r)
            mult = multiplicity(net, families, range(net.n))
            ok = (cert.min_gap >= 1.5 * r - 1e-9
                  and cert.c <= 3.0 * r * SQRT2 + 1e-9
                  and mult == 1)
            all_ok = all_ok and ok
            details.append(f"r={r}: gap={cert.min_gap:.3f}, C={cert.c:.3f}")
        out["detail"] = "; ".join(details)
        out["ok"] = all_ok
        assert out["ok"], out["detail"]


def test_gates_reject_invalid_bound_requests(tmp_path):
    """Too many families and trivial-stabilizer models exit with the gate
    code; strict disjointness at the boundary gap fails while non-strict
    passes."""
    with acceptance_line(8, "gates: k=3 cover and trivial-stabilizer model "
                            "exit 3; strict r=sqrt(2) fails at gap sqrt(2), "
                            "non-strict passes") as out:
        brick = tmp_path / "brick.json"
        chess = tmp_path / "chess.json"
        assert run_cli(["gen", "brick", "--window", "0,12,0,12", "--r", "1",
                        "--out", str(brick)]) == 0
        assert run_cli(["gen", "chess", "--window", "0,8,0,8",
                        "--out", str(chess)]) == 0

        rc_families = run_cli(["lower-bound", "--cover", str(brick)])

        frozen = tmp_path / "frozen-model.json"
        frozen.write_text(json.dumps({"name": "frozen-plane", "asdim_lower": 2,
                                      "stabilizer_nontrivial": False}))
        rc_stab = run_cli(["lower-bound", "--cover", str(chess),
                           "--model-file", str(frozen)])

        rc_strict = run_cli(["lower-bound", "--cover", str(chess), "--strict"])
        rc_loose = run_cli(["lower-bound", "--cover", str(chess)])

        lat = gen_lattice_window(WindowSpec(0.0, 8.0, 0.0, 8.0))
        red, blue = gen_chess_families(lat)
        strict_rep = check_r_disjoint(lat, red, SQRT2, strict=True)
        loose_rep = check_r_disjoint(lat, red, SQRT2, strict=False)

        out["detail"] = (f"exit codes {rc_families}/{rc_stab}/{rc_strict}/{rc_loose}, "
                         f"strict gap={strict_rep.min_gap!r}")
        out["ok"] = (rc_families == 3 and rc_stab == 3
                     and rc_strict == 2 and rc_loose == 0
                     and not strict_rep.ok and strict_rep.min_gap == SQRT2
                     and loose_rep.ok)
        assert out["ok"], out["detail"]


def test_matrix_validation_pinpoints_triangle_violations():
    """1000 planted triangle violations are rejected with genuine witnesses."""
    with acceptance_line(9, "1000 planted triangle violations rejected, each "
                            "witness verified by an independent scan") as out:
        rng = np.random.default_rng(7)
        n = 8
        failures = 0
        for _ in range(1000):
            m = random_metric_matrix(rng, n)
            i, j = rng.choice(n, size=2, replace=False).tolist()
            through = m[i] + m[:, j]
            through[[i, j]] = np.inf
            m[i, j] = m[j, i] = float(through.min()) + float(rng.uniform(0.5, 2.0))
            try:
                build_space(m)
                failures += 1
                continue
            except TriangleViolation as exc:
                # the reported triple must genuinely violate the inequality
                if not m[exc.i, exc.k] > m[exc.i, exc.j] + m[exc.j, exc.k] + 1e-9:
                    failures += 1
                    continue
            # independent cubic scan must agree something is wrong
            lhs = m[:, None, :]
            rhs = m[:, :, None] + m[None, :, :]
            if not (lhs > rhs + 1e-9).any():
                failures += 1
        out["detail"] = f"failures={failures}/1000"
        out["ok"] = failures == 0
        assert out["ok"], out["detail"]
