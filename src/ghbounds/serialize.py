"""JSON wire formats for spaces, subsets, families, and reports.

Spaces:   {"kind": "matrix", "n": N, "d": [[...], ...]}
          {"kind": "grid2d", "x": [...], "y": [...]}
          {"kind": "points2d", "xy": [x0, y0, x1, y1, ...]}
Subsets:  sorted index arrays.
Family:   {"label": "red", "members": [i, ...], "sizes": [c0, c1, ...]}
          {"label": "red", "ranges": [a0, b0, a1, b1, ...], "sizes": [c0, c1, ...]}
Cover:    {"kind": "cover", "space": ..., "families": [...], "r": ...,
           "strict": ...?, "c": ...?, "target": ...?}

A planar set built by ``EuclideanPointSet.grid``, as every lattice window,
net and interval net of ``gen`` is, is written as grid2d from its ``axes``:
point k is (x[k // len(y)], y[k % len(y)]), and ``grid`` reads it back. Any
other planar set, a cross product or not, is written as points2d: point k
is (xy[2k], xy[2k + 1]).

A family's list holds its members one after another: member k is the next
sizes[k] numbers. With ``members`` they are its indices. With ``ranges``
they are start, stop pairs, and the member is the union of the half-open
index ranges [a, b), a0 < b0 < a1 < b1 < ... strictly increasing, so every
range is a maximal run and the form is canonical. The writer picks
``ranges`` when twice the family's maximal runs of consecutive indices are
fewer than its entries, and ``members`` otherwise: a brick is a few runs of
x-major indices, a chess family is singletons. A family holds exactly one
of the two keys.

Every index list (members, ranges, sizes, a subset or a cover's target) must
be a JSON array of JSON integers: a float or a boolean is refused. Other
values keep their JSON type (``_typed``): ``r`` and a matrix's entries are
numbers, ``strict`` is a boolean, a label is a string. Every size
is at least 1 (a 0 is an empty member, ``EmptySubset``), the sizes add up to
the length of the list, and a ranges size is even. A ranges member's numbers
rise strictly, with a0 >= 0 (else ``IndexOutOfRange(a0, 0)``) and its last
stop at most n (else ``IndexOutOfRange(stop - 1, n)``, the largest index, as
``members`` names it). ``xy`` has an even length and holds only numbers.

The nested forms that hand-written files and earlier releases use are read
too: a family without ``sizes`` lists one array per member (``"members":
[[i, ...], ...]`` or ``"ranges": [[a0, b0, ...], ...]``), and a points2d
space may list ``"pts": [[x, y], ...]``. They are flattened into the lists
above (``_flattened``) and then checked as those are.

Size limits: a space lists len(x) * len(y), len(xy) / 2, len(pts) or len(d)
points (``_space_size``), counted before anything is built. A grid2d or
points2d space may list ``POINT_CAP`` = 1,000,000 points and a matrix 1,000
(its 1,000,000 entries); a larger one is refused with ``SpaceTooLarge``. The
ranges families of one file may expand to ``POINT_CAP`` entries in all,
sum(b - a), counted before any of them is expanded; past it they are
refused with ``_TooManyEntries``. Every ``gen`` cover has multiplicity 1,
so it holds at most n entries. A ``members`` list is bounded by its text.

Floats pass through json untouched, so distances print in Python's
shortest round-trip form (e.g. 0.7071067811865476) and reload bit-exactly.
Files are written as single-line JSON by the C encoder; ``python -m
json.tool`` pretty-prints them.

One writer, ``_document``, builds the layout: ``gen`` calls it. Its
cover is non-strict, with its advertised ``c`` and no target; the reader
also takes a ``strict`` (false when absent) and a ``target`` from a file
written by hand. The document holds each list above as a 1-D float64 or
int64 array, and ``dump_json`` writes the bytes of ``json.dumps`` of
their ``tolist()``, _DUMP_SLICE values at a time. A slice
of floats whose distinct values (by bit pattern, so -0.0 and 0.0 stay
apart) number at most half its values is written by formatting each
distinct value once and joining them by index; a comb's points repeat a
few line and sample coordinates.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .constructions import POINT_CAP
from .correspondence import GhResult
from .covers import (BoundResult, CoverCertificate, ModelSpaceDescriptor, SubsetFamily,
                     _family_from_runs)
from .errors import EmptySubset, GhBoundsError, IndexOutOfRange, SpaceTooLarge, TooManyPoints
from .metric import EuclideanPointSet, MetricLike, SubsetRef, _ragged, build_space

# list items or array values per slice in dump_json
_DUMP_SLICE = 4096


def _family_document(fam: SubsetFamily) -> dict[str, Any]:
    """A family's wire object: its ``ranges`` when 2 * (maximal runs) < entries, else ``members``.

    A run ends where the next index is not the previous one + 1, or where a
    member ends. Member k's ranges are the start, stop pairs of its runs.
    The lists are int64 arrays, which ``dump_json`` writes.
    """
    flat, offsets = fam._index
    cut = np.ones(flat.size, dtype=bool)
    cut[1:] = flat[1:] != flat[:-1] + 1
    cut[offsets[:-1]] = True  # members are nonempty, so each offset but the last is an entry
    starts = np.flatnonzero(cut)
    if 2 * starts.size >= flat.size:  # an empty family too
        key, values, sizes = "members", flat, np.diff(offsets)
    else:
        stops = np.append(starts[1:], flat.size)
        key, values = "ranges", np.column_stack((flat[starts], flat[stops - 1] + 1)).ravel()
        # every member starts a run, so its runs begin at its offset's place in starts
        sizes = 2 * np.diff(np.searchsorted(starts, offsets))
    return {"label": fam.label, key: values, "sizes": sizes}


def _document(space: MetricLike, families: Sequence[SubsetFamily] | None = None,
              r: float = 0.0, c: float = 0.0) -> dict[str, Any]:
    """The wire layout of a space, or of a cover of it when families are given.

    The one writer of the layout; ``gen`` calls it. A planar space's
    ``axes`` or ``xy`` and each family's lists are 1-D arrays, which
    ``dump_json`` writes as their ``tolist()``. A cover is written
    non-strict, without a target.
    """
    if not isinstance(space, EuclideanPointSet):
        obj: dict[str, Any] = {"kind": "matrix", "n": space.n, "d": space.matrix.tolist()}
    elif space.axes is None:
        obj = {"kind": "points2d", "xy": space.points.ravel()}
    else:
        obj = {"kind": "grid2d", "x": space.axes[0], "y": space.axes[1]}
    if families is None:
        return obj
    return {"kind": "cover", "space": obj, "families": [_family_document(f) for f in families],
            "r": r, "strict": False, "c": c}


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


def _typed(value: Any, kinds: tuple[type, ...], what: str) -> Any:
    """value, whose type must be one of kinds: a boolean is no number, and no value is converted."""
    if type(value) not in kinds:
        name = {bool: "boolean", int: "integer", float: "number", str: "string"}[kinds[-1]]
        raise ValueError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _integers(values: Any, what: str) -> list[int]:
    """values, which must be a JSON array of integers: a float or a boolean is no index."""
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be a JSON array of integers")
    return values


def _flattened(rows: Any, what: str) -> tuple[list[Any], list[int]]:
    """A nested JSON array [[v, ...], ...] as its values in one list, and each row's length."""
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise ValueError(f"{what} must be a JSON array of arrays")
    return list(itertools.chain.from_iterable(rows)), list(map(len, rows))


# per space kind: the keys of the lists whose lengths multiply to its number
# of points, and the most points read (a matrix of n points holds n^2 entries);
# a points2d space's xy, where it has one, lists two numbers per point instead
_SPACE_LISTS = {"grid2d": (("x", "y"), POINT_CAP), "points2d": (("pts",), POINT_CAP),
                "matrix": (("d",), math.isqrt(POINT_CAP))}


def _space_size(obj: Any) -> int | None:
    """The points a space document lists (None without its lists); SpaceTooLarge past its cap."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    keys, cap = _SPACE_LISTS[kind] if isinstance(kind, str) and kind in _SPACE_LISTS else ((), 0)
    if kind == "points2d" and "xy" in obj:
        keys = ("xy",)
    lists = [obj.get(key) for key in keys]
    if not lists or not all(isinstance(v, list) for v in lists):
        return None
    size = math.prod(map(len, lists)) // (2 if keys == ("xy",) else 1)
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
        return EuclideanPointSet.grid(*map(_coordinates, axes))
    if kind == "points2d":
        return EuclideanPointSet(_coordinates(_xy(obj)).reshape(-1, 2))
    if kind == "matrix":
        if not set(map(type, _flattened(obj["d"], "d")[0])) <= {int, float}:
            raise ValueError("matrix d must hold JSON numbers")
        return build_space(_read(lambda d: np.asarray(d, dtype=np.float64), obj["d"], "d"))
    raise ValueError(f"unknown space kind {kind!r}")


def _xy(obj: dict[str, Any]) -> list[Any]:
    """A points2d space's coordinates x0, y0, x1, y1, ...: its xy, or its pts rows flattened."""
    if ("xy" in obj) == ("pts" in obj):
        raise ValueError("a points2d space must hold exactly one of xy and pts")
    if "xy" in obj:
        xy = obj["xy"]
    else:
        xy, lengths = _flattened(obj["pts"], "pts")
        if lengths.count(2) != len(lengths):
            raise ValueError("pts rows must be [x, y] pairs")
    if type(xy) is not list or len(xy) % 2 or not set(map(type, xy)) <= {int, float}:
        raise ValueError("points2d coordinates must be JSON numbers, two per point")
    return xy


def _coordinates(values: Any) -> np.ndarray:
    """``np.asarray(values, dtype=np.float64)``; an integer past the largest float is not finite."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("coordinates must be finite") from None


def subset_from_json(obj: list[int], n: int) -> SubsetRef:
    return _read(lambda s: SubsetRef(s, n), _integers(obj, "a subset"), "a subset")


# a family read but not built yet: its label, range numbers and numbers per member, checked
_RangesPart = tuple[str, np.ndarray, np.ndarray]


class _TooManyEntries(TooManyPoints):
    """A file's ranges families expand to more member entries than ``POINT_CAP``."""

    def __init__(self, count: int, cap: int):
        self.count, self.cap = count, cap
        GhBoundsError.__init__(self, f"ranges families list {count} member entries, cap is {cap}")


def _family_part(obj: Any, n: int) -> SubsetFamily | _RangesPart:
    """A family object's members family, built, or its ranges, checked but not expanded.

    The nested form is flattened first, so both forms pass the same checks:
    the index lists' types, the sizes, then ``_family_from_runs`` or
    ``_checked_ranges`` on the arrays.
    """
    label = _typed(_dict(obj, "a family")["label"], (str,), "label")
    if ("members" in obj) == ("ranges" in obj):
        raise ValueError("a family must hold exactly one of members and ranges")
    key = "members" if "members" in obj else "ranges"
    values, sizes = obj[key], obj.get("sizes")
    if sizes is None:  # the nested form: one array per member
        values, sizes = _flattened(values, key)
    values, sizes = _integers(values, key), _integers(sizes, "sizes")
    if min(sizes, default=0) < 0:
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")
    if sum(sizes) != len(values):
        raise ValueError(f"sizes add up to {sum(sizes)}, but {key} holds {len(values)} numbers")
    counts = np.fromiter(sizes, dtype=np.int64, count=len(sizes))  # each at most len(values)
    try:
        flat = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError as exc:  # past int64: the first failing member, checked alone, raises
        check = SubsetRef if key == "members" else _check_range_member
        entries = iter(values)
        for size in sizes:
            _read(lambda member: check(member, n), list(itertools.islice(entries, size)), key)
        raise ValueError(f"{key}: {exc}") from None
    if key == "members":
        return _family_from_runs(label, flat, counts, n)
    return (label, *_checked_ranges(flat, counts, n))


def _check_range_member(member: list[int], n: int) -> None:
    """Raise the error of a ranges member that is not nonempty start, stop pairs within [0, n]."""
    if not member:
        raise EmptySubset("subset must be nonempty")
    if len(member) % 2:
        raise ValueError(f"a ranges member holds start, stop pairs, got {len(member)} numbers")
    if any(a >= b for a, b in zip(member, member[1:])):
        raise ValueError("a ranges member must be strictly increasing")
    if member[0] < 0:
        raise IndexOutOfRange(member[0], 0)
    if member[-1] > n:
        raise IndexOutOfRange(member[-1] - 1, n)


def _checked_ranges(values: np.ndarray, counts: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """values and counts, member k holding counts[k] numbers; else the first failing member's error.

    The checks are ``_check_range_member``'s, over all members at once.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    bad = (counts == 0) | (counts % 2 == 1)
    full = np.flatnonzero(counts)
    bad[full] |= (values[starts[full]] < 0) | (values[ends[full] - 1] > n)
    # a number that does not rise above its predecessor in the same member
    fall = np.flatnonzero(values[1:] <= values[:-1]) + 1
    owner = np.searchsorted(ends, fall, side="right")
    bad[owner[fall != starts[owner]]] = True
    if bad.any():
        k = int(np.argmax(bad))
        _check_range_member(values[starts[k]:ends[k]].tolist(), n)
    return values, counts


def _families(parts: Sequence[SubsetFamily | _RangesPart], n: int) -> tuple[SubsetFamily, ...]:
    """The families of one file, its ranges expanded once their entries are counted.

    Past ``POINT_CAP`` entries in all, sum(b - a), ``_TooManyEntries`` is
    raised before any ranges family is expanded. The expansion's (entries,
    counts) go to ``_family_from_runs``, which checks them as any members.
    """
    ranges = [part for part in parts if isinstance(part, tuple)]
    entries = sum(sum((values[1::2] - values[::2]).tolist()) for _, values, _ in ranges)
    if entries > POINT_CAP:
        raise _TooManyEntries(entries, POINT_CAP)
    return tuple(part if isinstance(part, SubsetFamily)
                 else _family_from_runs(part[0], *_expand_ranges(*part[1:]), n)
                 for part in parts)


def _expand_ranges(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked ranges as members: every index of each [a, b), and each member's count of them."""
    lo, length = values[::2], values[1::2] - values[::2]
    # member k's entries end where its last range does: at ends[(numbers up to it) / 2]
    ends = np.concatenate(([0], np.cumsum(length)))
    return _ragged(lo, length), np.diff(ends[np.cumsum(counts) // 2], prepend=0)


def cover_from_json(obj: dict[str, Any]) -> tuple[MetricLike, tuple[SubsetFamily, ...],
                                                  float, bool, SubsetRef | None]:
    if _dict(obj, "a cover").get("kind") != "cover":
        raise ValueError(f"expected a cover file, got kind {obj.get('kind')!r}")
    space = space_from_json(obj["space"])
    n = space.n
    families = _families([_family_part(f, n)
                          for f in _read(list, obj["families"], "families")], n)
    target = subset_from_json(obj["target"], n) if obj.get("target") is not None else None
    return (space, families, _read(float, _typed(obj["r"], (int, float), "r"), "r"),
            _typed(obj.get("strict", False), (bool,), "strict"), target)


def load_cover(path: str | Path) -> tuple[MetricLike, tuple[SubsetFamily, ...], float, bool,
                                          SubsetRef | None]:
    return cover_from_json(load_json(path))


def gh_result_to_json(res: GhResult) -> dict[str, Any]:
    return {
        "dgh": res.value,
        "dis": res.dis,
        "optimal_pairs": [[i, j] for i, j in res.correspondence.pairs],
        "nodes": res.nodes,
        "optimal": res.optimal,
    }


def _finite(value: float) -> float | None:
    """value, or None where it is infinite: a report writes null, as JSON has no Infinity."""
    return None if math.isinf(value) else value


def certificate_report_json(cert: CoverCertificate, model: ModelSpaceDescriptor | None = None,
                            bound: BoundResult | None = None) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "k": cert.k,
        "r": cert.r,
        "C": _finite(cert.c),
        "strictness": "strict" if cert.strict else "non-strict",
        "min_gap": _finite(cert.min_gap),
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
        name=_typed(_dict(obj, "a model")["name"], (str,), "name"),
        asdim_lower=_typed(obj["asdim_lower"], (int,), "asdim_lower"),
        stabilizer_nontrivial=_typed(obj["stabilizer_nontrivial"], (bool,),
                                     "stabilizer_nontrivial"),
        provenance=_typed(obj.get("provenance", "user supplied"), (str,), "provenance"),
    )


def load_json(path: str | Path) -> Any:
    """The JSON value in the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def _values_text(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())[1:-1]`` for a 1-D float64 array.

    When the distinct bit patterns number at most half the values, each is
    formatted once and the values are joined from those words by index. A
    sort of the bit patterns counts them, a quarter of the time of
    ``np.unique`` with the inverse, which only a slice that is joined needs.
    """
    bits = values.view(np.int64)
    keys = np.sort(bits)
    distinct = np.count_nonzero(keys[1:] != keys[:-1]) + 1
    if 2 * distinct > bits.size:  # an empty slice too
        return json.dumps(values.tolist())[1:-1]
    keys, inverse = np.unique(bits, return_inverse=True)
    words = json.dumps(keys.view(np.float64).tolist())[1:-1].split(", ")
    # a joined slice holds at least two values, so itemgetter returns a tuple
    return ", ".join(itemgetter(*inverse.tolist())(words))


def _encode(obj: Any) -> Iterator[str]:
    """The text of ``json.dumps(obj)``, in pieces of bounded size.

    Dicts with string keys and lists of dicts are taken apart item by item,
    and 1-D float64 and int64 arrays (as their ``tolist()``) _DUMP_SLICE
    values at a time; everything else goes through the C encoder in one call.
    """
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        yield "{"
        for t, (k, v) in enumerate(obj.items()):
            yield (", " if t else "") + json.dumps(k) + ": "
            yield from _encode(v)
        yield "}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):  # a cover's families
        yield "["
        for t, v in enumerate(obj):
            if t:
                yield ", "
            yield from _encode(v)
        yield "]"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype in (np.float64, np.int64):
        yield "["
        for s in range(0, obj.size, _DUMP_SLICE):
            part = obj[s:s + _DUMP_SLICE]
            text = (_values_text(part) if part.dtype == np.float64
                    else json.dumps(part.tolist())[1:-1])
            yield (", " if s else "") + text
        yield "]"
    else:
        yield json.dumps(obj)


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj as single-line JSON plus a newline: the bytes of ``json.dumps(obj)``.

    A 1-D float64 or int64 array in a dict value is written as its ``tolist()``.
    ``json.dumps`` without an indent runs the C encoder; arrays are encoded
    a slice at a time so no whole-file string is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")
