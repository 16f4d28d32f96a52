"""Shared generators, CLI helpers, and the acceptance-line recorder."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from hypothesis import settings

from ghbounds import Correspondence, FiniteMetricSpace, SubsetFamily, build_space, cli, serialize

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# random instances

def random_metric_matrix(rng: np.random.Generator, n: int, *,
                         low: float = 1.0, high: float = 10.0,
                         integer: bool = False) -> np.ndarray:
    """Random n-point metric: symmetrize, then take the shortest-path closure."""
    if integer:
        m = rng.integers(int(low), int(high) + 1, size=(n, n)).astype(float)
    else:
        m = rng.uniform(low, high, size=(n, n))
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    for k in range(n):
        m = np.minimum(m, m[:, k][:, None] + m[k, :][None, :])
    np.fill_diagonal(m, 0.0)
    return m


def random_space(rng: np.random.Generator, n: int, **kw: Any) -> FiniteMetricSpace:
    return build_space(random_metric_matrix(rng, n, **kw))


def random_correspondence(rng: np.random.Generator, nx: int, ny: int) -> Correspondence:
    """A random surjective-both-ways relation on nx x ny."""
    count = int(rng.integers(1, nx * ny + 1))
    pairs = {(int(rng.integers(nx)), int(rng.integers(ny))) for _ in range(count)}
    hit_x = {i for i, _ in pairs}
    hit_y = {j for _, j in pairs}
    for i in range(nx):
        if i not in hit_x:
            pairs.add((i, int(rng.integers(ny))))
    for j in range(ny):
        if j not in hit_y:
            pairs.add((int(rng.integers(nx)), j))
    return Correspondence(tuple(sorted(pairs)), nx, ny)


def random_subset(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    size = int(rng.integers(1, n + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


# ---------------------------------------------------------------------------
# CLI helpers

def outcome(build):
    """build()'s value, or its exception as (type, args, fields) so two paths compare."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), exc.args, vars(exc)


def run_cli(args: list[str]) -> int:
    """Invoke the command line entry point in-process."""
    return cli.main(args)


def run_cli_report(args: list[str], out: Path) -> tuple[int, dict[str, Any]]:
    """Run a subcommand with --out and parse the written report."""
    rc = cli.main([*args, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else {}
    return rc, payload


def plain(doc: Any) -> Any:
    """A wire document with its arrays as JSON values: what json.loads of its file gives."""
    return json.loads(json.dumps(doc, default=np.ndarray.tolist))


def read_family(obj: Any, n: int) -> SubsetFamily:
    """One family object, read and checked as a cover file's families are, over n points."""
    return serialize._families([serialize._family_part(obj, n)], n)[0]


def nested_layout(doc: Any) -> Any:
    """A space or cover document in the nested layout of earlier releases.

    A points2d space's ``xy`` becomes its ``pts`` rows [[x, y], ...], and a
    family's flat list with its ``sizes`` becomes one array per member.
    Anything else is returned as it is.
    """
    if not isinstance(doc, dict):
        return doc
    if doc.get("kind") == "points2d" and "xy" in doc:
        xy = doc["xy"]
        return {"kind": "points2d", "pts": [xy[i:i + 2] for i in range(0, len(xy), 2)]}
    if doc.get("kind") != "cover":
        return doc
    families = []
    for fam in doc["families"]:
        key = "members" if "members" in fam else "ranges"
        bounds = np.cumsum([0, *fam["sizes"]]).tolist()
        families.append({"label": fam["label"],
                         key: [fam[key][s:e] for s, e in zip(bounds, bounds[1:])]})
    return {**doc, "space": nested_layout(doc["space"]), "families": families}


# ---------------------------------------------------------------------------
# acceptance-line recording

_ACCEPTANCE: list[tuple[int, bool, str, str]] = []


def record_acceptance(number: int, label: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE.append((number, ok, label, detail))


@contextmanager
def acceptance_line(number: int, label: str) -> Iterator[dict[str, Any]]:
    """Record one PASS/FAIL summary line for an acceptance check.

    The line is emitted even when the body raises, so every criterion shows
    up exactly once in the terminal summary.
    """
    outcome: dict[str, Any] = {"ok": False, "detail": ""}
    try:
        yield outcome
    except BaseException as exc:
        if not outcome["detail"]:
            outcome["detail"] = f"raised {type(exc).__name__}: {exc}"
        raise
    finally:
        record_acceptance(number, label, bool(outcome["ok"]), str(outcome["detail"]))


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, label, detail in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"ACCEPTANCE {number} {status}: {label}{suffix}")


# ---------------------------------------------------------------------------
# session-scoped artifacts shared by the acceptance checks

@pytest.fixture(scope="session")
def cli_workdir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("cliwork")


@pytest.fixture(scope="session")
def window10_files(cli_workdir: Path) -> dict[str, Path]:
    """Integer lattice, 0.1-net, and chess cover on [0,10]^2, via the CLI."""
    paths = {
        "lattice": cli_workdir / "lattice10.json",
        "net": cli_workdir / "net10.json",
        "chess": cli_workdir / "chess10.json",
    }
    assert run_cli(["gen", "lattice", "--window", "0,10,0,10",
                    "--out", str(paths["lattice"])]) == 0
    assert run_cli(["gen", "net", "--window", "0,10,0,10", "--eps", "0.1",
                    "--out", str(paths["net"])]) == 0
    assert run_cli(["gen", "chess", "--window", "0,10,0,10",
                    "--out", str(paths["chess"])]) == 0
    return paths


@pytest.fixture(scope="session")
def window10_hausdorff(window10_files: dict[str, Path],
                       cli_workdir: Path) -> dict[str, Any]:
    """Timed CLI run of the lattice-vs-net Hausdorff distance on [0,10]^2."""
    out = cli_workdir / "hausdorff10.json"
    t0 = time.perf_counter()
    rc = run_cli(["hausdorff", "--space-a", str(window10_files["lattice"]),
                  "--space-b", str(window10_files["net"]), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text())
    return {"rc": rc, "elapsed": elapsed,
            "value": report["outputs"]["hausdorff"], "report": report}
