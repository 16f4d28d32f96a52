"""JSON wire formats for spaces, subsets, families, and reports.

Spaces:   {"kind": "matrix", "n": N, "d": [[...], ...]}
          {"kind": "grid2d", "x": [...], "y": [...]}
          {"kind": "points2d", "pts": [[x, y], ...]}
Subsets:  sorted index arrays.
Family:   {"label": "red", "members": [[i, ...], ...]}.
Cover:    {"kind": "cover", "space": ..., "families": [...], "r": ...,
           "strict": ..., "c": ...?, "target": ...?}

A planar set is written as grid2d when its points are the x-major cross
product of two axes, bit for bit: point k is (x[k // len(y)], y[k % len(y)]),
as every lattice window, net and interval net of ``gen`` is. The reader
rebuilds that array with ``constructions._cross_product_points``. Any other
planar set is written as points2d.

Size limits: a space lists len(x) * len(y), len(pts) or len(d) points
(``_space_size``), counted before anything is built. A grid2d or points2d
space may list ``POINT_CAP`` = 1,000,000 points and a matrix 1,000 (its
1,000,000 entries); a larger one is refused with ``SpaceTooLarge``.

Floats pass through json untouched, so distances print in Python's
shortest round-trip form (e.g. 0.7071067811865476) and reload bit-exactly.
Files are written as single-line JSON by the C encoder; ``python -m
json.tool`` pretty-prints them.

``dump_json`` also takes the documents ``gen`` hands it, which hold a
points2d point array as a 2-D float64 array and each family's members as
its index arrays (``_Members``), and writes the bytes of ``json.dumps`` of
their ``tolist()``. Points go _DUMP_SLICE rows at a time. A slice whose
distinct values (by bit pattern, so -0.0 and 0.0 stay apart) number at
most half its cells is written by formatting each distinct value once and
joining the rows by index; a comb's points repeat a few line and sample
coordinates. Any other slice goes through the C encoder whole.
Members go through the C encoder as lists cut from the index array, at
most _DUMP_SLICE entries at a time, so no family's member lists are held
whole.

``load_cover`` reads a cover file straight into arrays when its text has
the layout ``dump_json`` writes for a planar cover: the keys in
``_document``'s order, ", " and ": " separators, no indentation. A grid2d
space is decoded by json where it stands and read by ``space_from_json``;
it must hold exactly the keys kind, x and y. A points2d point array and
each family's member array are parsed by ``json.loads`` of their text with
the inner brackets removed, about _READ_CHARS characters at a time, so
json's grammar and float bits hold, no list is made per point or member,
and json's lists stay small. Points per row and entries per member come
from the "], [" separators, and the text with the number characters
deleted must read as those rows and members. The family labels, ``r``,
``strict``, ``c`` and ``target`` come from json as well. Any other file
(indented, reordered keys, a matrix space, a check that fails, a space with
other keys) is read by ``cover_from_json(json.loads(text))``, so its
values and errors are those of the plain path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .constructions import POINT_CAP, _cross_product_points
from .correspondence import GhResult
from .covers import (BoundResult, CoverCertificate, ModelSpaceDescriptor, SubsetFamily,
                     _family_from_runs)
from .errors import SpaceTooLarge
from .metric import EuclideanPointSet, MetricLike, SubsetRef, build_space

# list items, array rows or member entries per slice in dump_json
_DUMP_SLICE = 4096


@dataclass(frozen=True)
class _Members:
    """A family's members as its index arrays: member k is flat[offsets[k]:offsets[k + 1]]."""

    flat: np.ndarray
    offsets: np.ndarray

    def tolist(self) -> list[list[int]]:
        entries, bounds = self.flat.tolist(), self.offsets.tolist()
        return [entries[s:e] for s, e in zip(bounds, bounds[1:])]


def _document(space: MetricLike, families: Sequence[SubsetFamily] | None = None,
              r: float = 0.0, strict: bool = False, c: float | None = None,
              target: SubsetRef | None = None, arrays: bool = False) -> dict[str, Any]:
    """The wire layout of a space, or of a cover of it when families are given.

    Plain JSON values by default. With ``arrays``, a points2d point array or
    a matrix's distance array and each family's members (``_Members``) are
    kept as arrays for ``dump_json``; each has a ``tolist()`` giving the
    plain value. A grid2d space's axes are lists either way.
    """
    def table(a: np.ndarray | _Members) -> Any:
        return a if arrays else a.tolist()

    if isinstance(space, EuclideanPointSet):
        axes = _axes(space.points)
        if axes is None:
            obj: dict[str, Any] = {"kind": "points2d", "pts": table(space.points)}
        else:
            obj = {"kind": "grid2d", "x": axes[0].tolist(), "y": axes[1].tolist()}
    else:
        obj = {"kind": "matrix", "n": space.n, "d": table(space.matrix)}
    if families is None:
        return obj
    obj = {
        "kind": "cover",
        "space": obj,
        "families": [{"label": f.label, "members": table(_Members(*f._index))}
                     for f in families],
        "r": r,
        "strict": strict,
    }
    if c is not None:
        obj["c"] = c
    if target is not None:
        obj["target"] = subset_to_json(target)
    return obj


def _axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The axes xs, ys whose x-major cross product is points, bit for bit, or None.

    Bit patterns are compared, so -0.0 and 0.0 stay apart. x's first run
    gives len(ys): a cross product of distinct points has distinct axis values.
    """
    bits = points.view(np.int64)
    ny = int(np.argmax(bits[:, 0] != bits[0, 0])) or len(bits)
    if len(bits) % ny:
        return None
    grid = bits.reshape(-1, ny, 2)
    if (grid[:, :, 0] == grid[:, :1, 0]).all() and (grid[:, :, 1] == grid[:1, :, 1]).all():
        return points[::ny, 0], points[:ny, 1]
    return None


def space_to_json(space: MetricLike) -> dict[str, Any]:
    return _document(space)


def _dict(obj: Any, what: str) -> dict[str, Any]:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _read(convert: Callable[[Any], Any], value: Any, what: str) -> Any:
    """convert(value); a JSON value of the wrong type or range for it raises ValueError."""
    try:
        return convert(value)
    except (TypeError, OverflowError) as exc:  # a list for a number, an int past the floats
        raise ValueError(f"{what}: {exc}") from None


def _bool(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON boolean, got {value!r}")
    return value


# per space kind: the keys of the lists whose lengths multiply to its number
# of points, and the most points read (a matrix of n points holds n^2 entries)
_SPACE_LISTS = {"grid2d": (("x", "y"), POINT_CAP), "points2d": (("pts",), POINT_CAP),
                "matrix": (("d",), math.isqrt(POINT_CAP))}


def _space_size(obj: Any) -> int | None:
    """The points a space document lists (None without its lists); SpaceTooLarge past its cap."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    keys, cap = _SPACE_LISTS[kind] if isinstance(kind, str) and kind in _SPACE_LISTS else ((), 0)
    lists = [obj.get(key) for key in keys]
    if not lists or not all(isinstance(v, (list, np.ndarray)) for v in lists):
        return None
    size = math.prod(map(len, lists))
    if size > cap:
        raise SpaceTooLarge(kind, size, cap)
    return size


def space_from_json(obj: dict[str, Any]) -> MetricLike:
    kind = _dict(obj, "a space").get("kind")
    _space_size(obj)  # refused past its cap before anything is built
    if kind == "grid2d":
        axes = obj["x"], obj["y"]
        if not all(type(a) is list and a and set(map(type, a)) <= {int, float} for a in axes):
            raise ValueError("grid2d x and y must be nonempty JSON arrays of numbers")
        return EuclideanPointSet(_cross_product_points(*map(_coordinates, axes)))
    if kind == "points2d":
        return EuclideanPointSet(_read(_points_from_rows, obj["pts"], "pts"))
    if kind == "matrix":
        return build_space(_read(lambda d: np.asarray(d, dtype=np.float64), obj["d"], "d"))
    raise ValueError(f"unknown space kind {kind!r}")


def _coordinates(values: Any) -> np.ndarray:
    """``np.asarray(values, dtype=np.float64)``; an integer past the largest float is not finite."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("coordinates must be finite") from None


def _points_from_rows(pts: Any) -> np.ndarray:
    """``_coordinates(pts)`` for JSON rows [[x, y], ...], without nesting.

    A list of lists, each of length 2, is read by one ``np.fromiter`` over
    the flattened pairs; anything else goes through ``_coordinates``, whose
    shape ``EuclideanPointSet`` checks, as do rows it cannot read.
    """
    if (type(pts) is list and set(map(type, pts)) == {list}
            and list(map(len, pts)).count(2) == len(pts)):
        try:
            flat = np.fromiter(itertools.chain.from_iterable(pts), dtype=np.float64,
                               count=2 * len(pts))
        except (TypeError, ValueError, OverflowError):  # None, say, which asarray reads as nan
            pass
        else:
            return flat.reshape(-1, 2)
    return _coordinates(pts)


def subset_to_json(s: SubsetRef) -> list[int]:
    return list(s.indices)


def subset_from_json(obj: Sequence[int], n: int | None = None) -> SubsetRef:
    return _read(lambda s: SubsetRef(s, n), obj, "a subset")


def family_to_json(fam: SubsetFamily) -> dict[str, Any]:
    return {"label": fam.label, "members": _Members(*fam._index).tolist()}


def family_from_json(obj: dict[str, Any], n: int | None = None) -> SubsetFamily:
    return _read(lambda f: SubsetFamily(str(f["label"]), f["members"], n), obj, "a family")


def cover_to_json(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                  strict: bool = False, c: float | None = None,
                  target: SubsetRef | None = None) -> dict[str, Any]:
    return _document(space, families, r, strict, c, target)


def cover_from_json(obj: dict[str, Any]) -> tuple[MetricLike, tuple[SubsetFamily, ...],
                                                  float, bool, SubsetRef | None]:
    if _dict(obj, "a cover").get("kind") != "cover":
        raise ValueError(f"expected a cover file, got kind {obj.get('kind')!r}")
    space = space_from_json(obj["space"])
    families = tuple(family_from_json(f, space.n) for f in _read(list, obj["families"], "families"))
    return (space, families, *_cover_tail(obj, space.n))


def _cover_tail(obj: dict[str, Any], n: int) -> tuple[float, bool, SubsetRef | None]:
    """A cover's ``r``, ``strict`` and ``target``, read from its top-level keys."""
    target = subset_from_json(obj["target"], n) if obj.get("target") is not None else None
    return _read(float, obj["r"], "r"), _bool(obj.get("strict", False), "strict"), target


def load_cover(path: str | Path) -> tuple[MetricLike, tuple[SubsetFamily, ...], float, bool,
                                          SubsetRef | None]:
    """``cover_from_json(load_json(path))``, read straight into arrays where the layout allows."""
    return load_json(path, _cover_from_text)


_DECODER = json.JSONDecoder()
# what dump_json writes around a planar cover's arrays, in _document's key order
_COVER_SPACE = '{"kind": "cover", "space": '
_COVER_HEAD = _COVER_SPACE + '{"kind": "points2d", "pts": '
_GRID_HEAD = _COVER_SPACE + '{"kind": "grid2d", "x": '
_FAMILIES = '}, "families": ['
_LABEL = '{"label": '
_MEMBERS = ', "members": '
_TAIL_KEYS = frozenset({"r", "strict", "c", "target"})
# what json writes in a number: digits, sign, point and exponent
_NUMBER_CHARS = b"0123456789+-.eE"
# characters of an array that one json.loads reads at a time
_READ_CHARS = 1 << 16


def _cover_from_text(text: str) -> tuple[MetricLike, tuple[SubsetFamily, ...], float, bool,
                                          SubsetRef | None]:
    """``cover_from_json(json.loads(text))``: its values, or its error.

    Text in dump_json's layout is parsed by ``_cover_parts``; any other text,
    or text whose arrays fail a check, goes to ``json.loads`` whole. The
    parsed parts are then validated in ``cover_from_json``'s order by the
    same checks: the point set, each family's runs, the target, r.
    """
    try:
        parts = _cover_parts(text)
    except (ValueError, OverflowError):  # JSON and encoding errors, an int beyond the dtype
        parts = None
    if parts is None:
        return cover_from_json(json.loads(text))
    head, runs, tail = parts
    space = space_from_json(head) if isinstance(head, dict) else EuclideanPointSet(head)
    families = tuple(_family_from_runs(str(label), flat, counts, space.n)
                     for label, flat, counts in runs)
    return (space, families, *_cover_tail(tail, space.n))


def _cover_parts(text: str) -> tuple[np.ndarray | dict[str, Any],
                                     list[tuple[Any, np.ndarray, np.ndarray]],
                                     dict[str, Any]] | None:
    """The space, each family's (label, entries, counts) and the keys after them.

    The space is a grid2d space object as json reads it, or a points2d
    space's point array, counted against its cap. None where the text
    departs from dump_json's layout of a planar cover. Each literal piece of
    the layout is matched in place, the grid2d space and each family label
    are read by json's decoder where they stand, and each array ends at its
    first "]]", which no number contains.
    """
    if text.startswith(_GRID_HEAD):
        head, end = _DECODER.raw_decode(text, len(_COVER_SPACE))
        if list(head) != ["kind", "x", "y"]:
            return None
        end -= 1  # back to the space's "}", where _FAMILIES starts
    elif text.startswith(_COVER_HEAD + "[["):
        end = text.find("]]", len(_COVER_HEAD)) + 2
        rows = _runs_at(text, len(_COVER_HEAD), end, np.float64, width=2)
        if rows is None:
            return None
        head = rows[0].reshape(-1, 2)
        _space_size({"kind": "points2d", "pts": head})  # its cap, as space_from_json counts it
    else:
        return None
    if not text.startswith(_FAMILIES, end):
        return None
    i = end + len(_FAMILIES)
    runs = []
    while not text.startswith("]", i):
        if runs:
            if not text.startswith(", ", i):
                return None
            i += 2
        if not text.startswith(_LABEL, i):
            return None
        label, i = _DECODER.raw_decode(text, i + len(_LABEL))
        if not text.startswith(_MEMBERS, i):
            return None
        i += len(_MEMBERS)
        end = i + 2 if text.startswith("[]", i) else text.find("]]", i) + 2
        members = _runs_at(text, i, end, np.int64)
        if members is None or not text.startswith("}", end):
            return None
        runs.append((label, *members))
        i = end + 1
    if not text.startswith(", ", i + 1):
        return None
    tail = json.loads("{" + text[i + 3:])
    if not tail.keys() <= _TAIL_KEYS:  # a later "space", say, would replace the one read
        return None
    return head, runs, tail


def _runs_at(text: str, i: int, end: int, dtype: type,
             width: int | None = None) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The array of number arrays text[i:end], which ends in "]", as its values and run lengths.

    None unless the text reads "[]" or "[[v, ...], [v, ...], ...]" with
    dump_json's separators, every run ``width`` long when that is given;
    the run lengths are then None. It is read a piece of about _READ_CHARS
    at a time, cut after a run's "]", so json's lists stay small and no list
    is made per run; see ``_piece_runs``.
    """
    if not (text.startswith("[", i) and end > i + 1):
        return None
    values, counts = [], []
    start = i + 1
    while start < end - 1:
        cut = text.find("], [", start + _READ_CHARS, end)
        stop = end - 1 if cut < 0 else cut + 1
        piece = _piece_runs(text[start:stop], dtype, width)
        if piece is None:
            return None
        values.append(piece[0])
        counts.append(piece[1])
        start = stop + 2
    flat = np.concatenate([np.empty(0, dtype=dtype)] + values)
    if width is not None:
        return flat, None
    return flat, np.concatenate([np.empty(0, dtype=np.intp)] + counts)


def _piece_runs(piece: str, dtype: type,
                width: int | None) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Runs "[v, ...], [v, ...], ..." as a ``dtype`` array of their values and each run's length.

    With the number characters deleted the piece must read as m runs
    joined by "], [", each a "[" and "]" around ", " separators: exactly
    m runs of ``width`` when that is given, whose lengths are then None. The
    values are one ``json.loads`` of the piece with its "], [" separators
    made ", ", so json's grammar and float bits hold, and ``np.fromiter``
    converts them as ``cover_from_json`` does. A run's length is its commas
    plus one, and the lengths (m * width with a width) must add up to the
    values read, so an empty run, which has no value but counts one, fails.
    """
    raw = piece.encode("ascii")
    skeleton = raw.translate(None, _NUMBER_CHARS)
    m = skeleton.count(b"], [") + 1
    if width is not None:
        run = b"[" + b", " * (width - 1) + b"]"
        if skeleton != (run + b", ") * (m - 1) + run:
            return None
        counts, total = None, m * width
    else:
        if skeleton.replace(b", ", b"") != b"[]" * m:
            return None
        # a run of c values reads "[" + ", " * (c - 1) + "]" and a ", " follows it
        opens = np.flatnonzero(np.frombuffer(skeleton, dtype=np.uint8) == ord("["))
        counts = np.diff(opens, append=len(skeleton) + 2) // 2 - 1
        total = int(counts.sum())
    # any "]" or "[" left after the separators go would end json's list early
    values = json.loads(raw.replace(b"], [", b", "))
    if total != len(values):
        return None
    return np.fromiter(values, dtype=dtype, count=len(values)), counts


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
        "target_size": cert.target_size,
    }
    if model is not None:
        obj["model"] = model.name
    if bound is not None:
        obj["bound"] = bound.bound
        obj["trace"] = list(bound.trace)
    return obj


def model_from_json(obj: dict[str, Any]) -> ModelSpaceDescriptor:
    return ModelSpaceDescriptor(
        name=str(_dict(obj, "a model")["name"]),
        asdim_lower=_read(int, obj["asdim_lower"], "asdim_lower"),
        stabilizer_nontrivial=_bool(obj["stabilizer_nontrivial"], "stabilizer_nontrivial"),
        provenance=str(obj.get("provenance", "user supplied")),
    )


def load_json(path: str | Path, decode: Callable[[str], Any] = json.loads) -> Any:
    """The JSON value in the file at path: ``decode`` of its text, ``json.loads`` by default."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode(fh.read())


def _rows_text(rows: np.ndarray) -> str:
    """``json.dumps(rows.tolist())[1:-1]`` for a 2-D float64 array.

    When the distinct bit patterns number at most half the cells, each is
    formatted once and the rows are joined from those words by index. A
    sort of the bit patterns counts them, a quarter of the time of
    ``np.unique`` with the inverse, which only a slice that is joined needs.
    """
    bits = rows.view(np.int64).ravel()
    keys = np.sort(bits)
    distinct = np.count_nonzero(keys[1:] != keys[:-1]) + 1
    if 2 * distinct > bits.size:  # an empty slice too
        return json.dumps(rows.tolist())[1:-1]
    keys, inverse = np.unique(bits, return_inverse=True)
    words = json.dumps(keys.view(np.float64).tolist())[1:-1].split(", ")
    m = rows.shape[1]
    # column j's copy of each word carries the row's "[" (j = 0) and "]" (j = m - 1)
    table = [("[" if j == 0 else "") + w + ("]" if j == m - 1 else "")
             for j in range(m) for w in words]
    cells = inverse.reshape(-1, m) + len(words) * np.arange(m)
    return ", ".join(itemgetter(*cells.ravel().tolist())(table))


def _members_text(members: _Members) -> Iterator[str]:
    """The text of ``json.dumps(members.tolist())``, at most _DUMP_SLICE entries per piece.

    Consecutive members are cut from the index array as lists and go
    through the C encoder together while their entries fit in one slice.
    Members are nonempty, so a slice holds at most _DUMP_SLICE members; a
    longer member is written alone, by the list branch of ``_encode``.
    """
    flat, offsets = members.flat, members.offsets
    yield "["
    start = 0
    while start < offsets.size - 1:
        lo = int(offsets[start])
        # the most members from start whose entries fit in a slice, at least one
        stop = max(start + 1, int(np.searchsorted(offsets, lo + _DUMP_SLICE, side="right")) - 1)
        hi = int(offsets[stop])
        if start:
            yield ", "
        if hi - lo > _DUMP_SLICE:
            yield from _encode(flat[lo:hi].tolist())
        else:
            yield json.dumps(_Members(flat[lo:hi], offsets[start:stop + 1] - lo).tolist())[1:-1]
        start = stop
    yield "]"


def _encode(obj: Any) -> Iterator[str]:
    """The text of ``json.dumps(obj)``, in pieces of bounded size.

    Dicts with string keys, lists of dicts, lists longer than _DUMP_SLICE
    items, 2-D float64 arrays and ``_Members`` (as their ``tolist()``) are
    taken apart, _DUMP_SLICE items, rows or entries at a time; everything
    else goes through the C encoder in one call.
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
    elif isinstance(obj, _Members):
        yield from _members_text(obj)
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):  # a cover's families
        yield "["
        for t, v in enumerate(obj):
            if t:
                yield ", "
            yield from _encode(v)
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

    A 2-D float64 array or ``_Members`` in a dict value is written as its ``tolist()``.
    ``json.dumps`` without an indent runs the C encoder; large lists and
    arrays are encoded a slice at a time so no whole-file string is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")
