"""JSON wire formats for spaces, subsets, families, and reports.

Spaces:   {"kind": "matrix", "n": N, "d": [[...], ...]}
          {"kind": "points2d", "pts": [[x, y], ...], "labels": [...]?}
Subsets:  sorted index arrays.
Family:   {"label": "red", "members": [[i, ...], ...]}.
Cover:    {"kind": "cover", "space": ..., "families": [...], "r": ...,
           "strict": ..., "c": ...?, "target": ...?}

Floats pass through json untouched, so distances print in Python's
shortest round-trip form (e.g. 0.7071067811865476) and reload bit-exactly.
Files are written as single-line JSON by the C encoder; ``python -m
json.tool`` pretty-prints them.

``dump_json`` also takes documents that hold a 2-D float64 array, as
``gen`` hands it the point array, and writes the bytes of ``json.dumps``
of its ``tolist()``. It works _DUMP_SLICE rows at a time. A slice whose
distinct values (by bit pattern, so -0.0 and 0.0 stay apart) number at
most half its cells is written by formatting each distinct value once and
joining the rows by index; the brick net's 160,801 points hold 401
distinct coordinates. Any other slice goes through the C encoder whole.
"""

from __future__ import annotations

import itertools
import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .correspondence import GhResult
from .covers import (BoundResult, CoverCertificate, ModelSpaceDescriptor, SubsetFamily,
                     _family_from_lists)
from .metric import (
    EuclideanPointSet,
    MetricLike,
    SubsetRef,
    _subsets_from_lists,
    build_space,
)

# list items, or array rows, per slice in dump_json
_DUMP_SLICE = 4096


def _document(table: Callable[[np.ndarray], Any], space: MetricLike,
              families: Sequence[SubsetFamily] | None = None, r: float = 0.0,
              strict: bool = False, c: float | None = None,
              target: SubsetRef | None = None) -> dict[str, Any]:
    """The wire layout of a space, or of a cover of it when families are given.

    The space's point or distance array is stored as ``table(array)``:
    ``np.ndarray.tolist`` gives plain JSON values, ``np.asarray`` keeps the
    array for ``dump_json``.
    """
    if isinstance(space, EuclideanPointSet):
        obj: dict[str, Any] = {"kind": "points2d", "pts": table(space.points)}
        if space.labels is not None:
            obj["labels"] = list(space.labels)
    else:
        obj = {"kind": "matrix", "n": space.n, "d": table(space.matrix)}
    if families is None:
        return obj
    obj = {
        "kind": "cover",
        "space": obj,
        "families": [family_to_json(f) for f in families],
        "r": r,
        "strict": strict,
    }
    if c is not None:
        obj["c"] = c
    if target is not None:
        obj["target"] = subset_to_json(target)
    return obj


def space_to_json(space: MetricLike) -> dict[str, Any]:
    return _document(np.ndarray.tolist, space)


def space_from_json(obj: dict[str, Any]) -> MetricLike:
    kind = obj.get("kind")
    if kind == "points2d":
        labels = tuple(obj["labels"]) if obj.get("labels") is not None else None
        return EuclideanPointSet(_points_from_rows(obj["pts"]), labels)
    if kind == "matrix":
        return build_space(np.asarray(obj["d"], dtype=np.float64))
    raise ValueError(f"unknown space kind {kind!r}")


def _points_from_rows(pts: Any) -> np.ndarray:
    """``np.asarray(pts, dtype=np.float64)`` for JSON rows [[x, y], ...], without nesting.

    A list of lists, each of length 2, is read by one ``np.fromiter`` over
    the flattened pairs; anything else goes through ``np.asarray``, whose
    shape ``EuclideanPointSet`` checks, as do rows it cannot read.
    """
    if (type(pts) is list and set(map(type, pts)) == {list}
            and list(map(len, pts)).count(2) == len(pts)):
        try:
            flat = np.fromiter(itertools.chain.from_iterable(pts), dtype=np.float64,
                               count=2 * len(pts))
        except (TypeError, ValueError):  # None, say, which asarray reads as nan
            pass
        else:
            return flat.reshape(-1, 2)
    return np.asarray(pts, dtype=np.float64)


def subset_to_json(s: SubsetRef) -> list[int]:
    return list(s.indices)


def subset_from_json(obj: Sequence[int], n: int | None = None) -> SubsetRef:
    return _subsets_from_lists((obj,), n)[0]


def family_to_json(fam: SubsetFamily) -> dict[str, Any]:
    return {"label": fam.label, "members": fam._runs()}


def family_from_json(obj: dict[str, Any], n: int | None = None) -> SubsetFamily:
    return _family_from_lists(str(obj["label"]), obj["members"], n)


def cover_to_json(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                  strict: bool = False, c: float | None = None,
                  target: SubsetRef | None = None) -> dict[str, Any]:
    return _document(np.ndarray.tolist, space, families, r, strict, c, target)


def cover_from_json(obj: dict[str, Any]) -> tuple[MetricLike, tuple[SubsetFamily, ...],
                                                  float, bool, SubsetRef | None]:
    if obj.get("kind") != "cover":
        raise ValueError(f"expected a cover file, got kind {obj.get('kind')!r}")
    space = space_from_json(obj["space"])
    families = tuple(family_from_json(f, space.n) for f in obj["families"])
    target = subset_from_json(obj["target"], space.n) if obj.get("target") is not None else None
    return space, families, float(obj["r"]), bool(obj.get("strict", False)), target


def gh_result_to_json(res: GhResult) -> dict[str, Any]:
    return {
        "dgh": res.value,
        "dis": res.dis,
        "optimal_pairs": [[i, j] for i, j in res.correspondence.pairs],
        "nodes": res.nodes,
        "optimal": res.optimal,
    }


def certificate_report_json(cert: CoverCertificate, model: ModelSpaceDescriptor | None = None,
                            bound: BoundResult | None = None) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "k": cert.k,
        "r": cert.r,
        "C": cert.c,
        "strictness": "strict" if cert.strict else "non-strict",
        "min_gap": None if cert.min_gap == float("inf") else cert.min_gap,
        "families": [{"label": f.label, "members": len(f)} for f in cert.families],
        "target_size": len(cert.target),
    }
    if model is not None:
        obj["model"] = model.name
    if bound is not None:
        obj["bound"] = bound.bound
        obj["trace"] = list(bound.trace)
    return obj


def model_from_json(obj: dict[str, Any]) -> ModelSpaceDescriptor:
    return ModelSpaceDescriptor(
        name=str(obj["name"]),
        asdim_lower=int(obj["asdim_lower"]),
        stabilizer_nontrivial=bool(obj["stabilizer_nontrivial"]),
        provenance=str(obj.get("provenance", "user supplied")),
    )


def load_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rows_text(rows: np.ndarray) -> str:
    """``json.dumps(rows.tolist())[1:-1]`` for a 2-D float64 array.

    When the distinct bit patterns number at most half the cells, each is
    formatted once and the rows are joined from those words by index.
    """
    keys, inverse = np.unique(rows.view(np.int64).ravel(), return_inverse=True)
    if not 0 < 2 * len(keys) <= inverse.size:
        return json.dumps(rows.tolist())[1:-1]
    words = json.dumps(keys.view(np.float64).tolist())[1:-1].split(", ")
    m = rows.shape[1]
    # column j's copy of each word carries the row's "[" (j = 0) and "]" (j = m - 1)
    table = [("[" if j == 0 else "") + w + ("]" if j == m - 1 else "")
             for j in range(m) for w in words]
    cells = inverse.reshape(-1, m) + len(words) * np.arange(m)
    return ", ".join(itemgetter(*cells.ravel().tolist())(table))


def _encode(obj: Any) -> Iterator[str]:
    """The text of ``json.dumps(obj)``, in pieces of bounded size.

    Dicts with string keys, lists longer than _DUMP_SLICE items and 2-D
    float64 arrays (as their ``tolist()``) are taken apart _DUMP_SLICE items
    or rows at a time; everything else goes through the C encoder in one call.
    """
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        yield "{"
        for t, (k, v) in enumerate(obj.items()):
            yield (", " if t else "") + json.dumps(k) + ": "
            yield from _encode(v)
        yield "}"
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 2:
        yield "["
        for s in range(0, len(obj), _DUMP_SLICE):
            yield (", " if s else "") + _rows_text(obj[s:s + _DUMP_SLICE])
        yield "]"
    elif isinstance(obj, (list, tuple)) and len(obj) > _DUMP_SLICE:
        yield "["
        for s in range(0, len(obj), _DUMP_SLICE):
            yield (", " if s else "") + json.dumps(obj[s:s + _DUMP_SLICE])[1:-1]
        yield "]"
    else:
        yield json.dumps(obj)


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj as single-line JSON plus a newline: the bytes of ``json.dumps(obj)``.

    A 2-D float64 array in a dict value is written as its ``tolist()``.
    ``json.dumps`` without an indent runs the C encoder; large lists and
    arrays are encoded a slice at a time so no whole-file string is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")
