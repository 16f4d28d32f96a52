"""JSON wire formats for spaces, subsets, families, and reports.

Spaces:   {"kind": "matrix", "n": N, "d": [[...], ...]}
          {"kind": "grid2d", "x": [...], "y": [...]}
          {"kind": "points2d", "pts": [[x, y], ...]}
Subsets:  sorted index arrays.
Family:   {"label": "red", "members": [[i, ...], ...]}
          {"label": "red", "ranges": [[a0, b0, a1, b1, ...], ...]}
Cover:    {"kind": "cover", "space": ..., "families": [...], "r": ...,
           "strict": ..., "c": ...?, "target": ...?}

A planar set is written as grid2d when its points are the x-major cross
product of two axes, bit for bit: point k is (x[k // len(y)], y[k % len(y)]),
as every lattice window, net and interval net of ``gen`` is. The reader
rebuilds that array with ``constructions._cross_product_points``. Any other
planar set is written as points2d.

A family lists each member's indices (``members``) or, as ``ranges``, each
member as the union of the half-open index ranges [a, b) of its start,
stop pairs, a0 < b0 < a1 < b1 < ... strictly increasing, so every range is
a maximal run and the form is canonical. The writer picks ``ranges`` when
twice the family's maximal runs of consecutive indices are fewer than its
entries, and ``members`` otherwise: a brick is a few runs of x-major
indices, a chess family is singletons. A family holds exactly one of the
two keys. A ranges member must be a nonempty list of an even count of JSON
integers, strictly increasing, with a0 >= 0 (else ``IndexOutOfRange(a0,
0)``) and its last stop at most n (else ``IndexOutOfRange(stop - 1, n)``,
the largest index, as ``members`` names it).

Size limits: a space lists len(x) * len(y), len(pts) or len(d) points
(``_space_size``), counted before anything is built. A grid2d or points2d
space may list ``POINT_CAP`` = 1,000,000 points and a matrix 1,000 (its
1,000,000 entries); a larger one is refused with ``SpaceTooLarge``. The
ranges families of one file may expand to ``POINT_CAP`` entries in all,
sum(b - a), counted before any of them is expanded; past it they are
refused with ``_TooManyEntries``. Every ``gen`` cover has multiplicity 1,
so it holds at most n entries. A ``members`` list is bounded by its text.

Floats pass through json untouched, so distances print in Python's
shortest round-trip form (e.g. 0.7071067811865476) and reload bit-exactly.
Files are written as single-line JSON by the C encoder; ``python -m
json.tool`` pretty-prints them.

``dump_json`` also takes the documents ``gen`` hands it, which hold a
grid2d axis as a 1-D float64 array, a points2d point array as a 2-D
float64 array and each family's members or ranges as index arrays
(``_Members``), and writes the bytes of ``json.dumps`` of their
``tolist()``. An axis goes _DUMP_SLICE values at a time, and points
_DUMP_SLICE rows at a time. A slice of points whose distinct values (by
bit pattern, so -0.0 and 0.0 stay apart) number at most half its cells is
written by formatting each distinct value once and joining the rows by
index; a comb's points repeat a few line and sample coordinates. Any other
slice goes through the C encoder whole. Members go through the C encoder
as lists cut from the index array, at most _DUMP_SLICE entries at a time,
so no family's member lists are held whole.

``load_cover`` reads a cover file straight into arrays when its text has
the layout ``dump_json`` writes for a planar cover: the keys in
``_document``'s order, ", " and ": " separators, no indentation. A grid2d
space is decoded by json where it stands and read by ``space_from_json``;
it must hold exactly the keys kind, x and y. A points2d point array and
each family's member or range array are parsed by ``json.loads`` of their
text with the inner brackets removed, about _READ_CHARS characters at a
time, so json's grammar and float bits hold, no list is made per point or
member, and json's lists stay small. Points per row and entries per member
come from the "], [" separators, and the text with the number characters
deleted must read as those rows and members. A range array holds no ".",
"e" or "E", so its numbers are JSON integers. The family labels, ``r``,
``strict``, ``c`` and ``target`` come from json as well. Any other file
(indented, reordered keys, a matrix space, a check that fails, a space with
other keys) is read by ``cover_from_json(json.loads(text))``, so its
values and errors are those of the plain path. Both readers check and
expand ranges through the same functions (``_checked_ranges``,
``_families``).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .constructions import POINT_CAP, _cross_product_points
from .correspondence import GhResult
from .covers import (BoundResult, CoverCertificate, ModelSpaceDescriptor, SubsetFamily,
                     _family_from_runs)
from .errors import EmptySubset, GhBoundsError, IndexOutOfRange, SpaceTooLarge, TooManyPoints
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


def _family_document(fam: SubsetFamily, table: Callable[[_Members], Any]) -> dict[str, Any]:
    """A family's wire object: its ``ranges`` when 2 * (maximal runs) < entries, else ``members``.

    A run ends where the next index is not the previous one + 1, or where a
    member ends. Member k's ranges are the start, stop pairs of its runs.
    """
    flat, offsets = fam._index
    cut = np.ones(flat.size, dtype=bool)
    cut[1:] = flat[1:] != flat[:-1] + 1
    cut[offsets[:-1]] = True  # members are nonempty, so each offset but the last is an entry
    starts = np.flatnonzero(cut)
    if 2 * starts.size >= flat.size:  # an empty family too
        return {"label": fam.label, "members": table(_Members(flat, offsets))}
    stops = np.append(starts[1:], flat.size)
    pairs = np.column_stack((flat[starts], flat[stops - 1] + 1)).ravel()
    # every member starts a run, so its runs begin at its offset's place in starts
    return {"label": fam.label,
            "ranges": table(_Members(pairs, 2 * np.searchsorted(starts, offsets)))}


def _document(space: MetricLike, families: Sequence[SubsetFamily] | None = None,
              r: float = 0.0, strict: bool = False, c: float | None = None,
              target: SubsetRef | None = None, arrays: bool = False) -> dict[str, Any]:
    """The wire layout of a space, or of a cover of it when families are given.

    Plain JSON values by default. With ``arrays``, a grid2d space's axes, a
    points2d point array or a matrix's distance array and each family's
    members or ranges (``_Members``) are kept as arrays for ``dump_json``;
    each has a ``tolist()`` giving the plain value.
    """
    def table(a: np.ndarray | _Members) -> Any:
        return a if arrays else a.tolist()

    if isinstance(space, EuclideanPointSet):
        axes = _axes(space.points)
        if axes is None:
            obj: dict[str, Any] = {"kind": "points2d", "pts": table(space.points)}
        else:
            obj = {"kind": "grid2d", "x": table(axes[0]), "y": table(axes[1])}
    else:
        obj = {"kind": "matrix", "n": space.n, "d": table(space.matrix)}
    if families is None:
        return obj
    obj = {
        "kind": "cover",
        "space": obj,
        "families": [_family_document(f, table) for f in families],
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
    return _family_document(fam, _Members.tolist)


def family_from_json(obj: dict[str, Any], n: int | None = None) -> SubsetFamily:
    return _families([_family_part(obj, n)], n)[0]


# a family read but not built yet: its label, range numbers and numbers per member, checked
_RangesPart = tuple[str, np.ndarray, np.ndarray]


class _TooManyEntries(TooManyPoints):
    """A file's ranges families expand to more member entries than ``POINT_CAP``."""

    def __init__(self, count: int, cap: int):
        self.count, self.cap = count, cap
        GhBoundsError.__init__(self, f"ranges families list {count} member entries, cap is {cap}")


def _family_part(obj: Any, n: int | None) -> SubsetFamily | _RangesPart:
    """A family object's members family, built, or its ranges, checked but not expanded."""
    label = str(_dict(obj, "a family")["label"])
    if ("members" in obj) == ("ranges" in obj):
        raise ValueError("a family must hold exactly one of members and ranges")
    if "members" in obj:
        return _read(lambda m: SubsetFamily(label, m, n), obj["members"], "a family")
    return (label, *_read(lambda r: _range_numbers(r, n), obj["ranges"], "a family"))


def _range_numbers(ranges: Any, n: int | None) -> tuple[np.ndarray, np.ndarray]:
    """A JSON ranges list as its numbers, one int64 array, and each member's count; checked."""
    if type(ranges) is not list or not all(type(m) is list for m in ranges):
        raise ValueError("ranges must be a JSON array of arrays")
    numbers = list(itertools.chain.from_iterable(ranges))
    if not set(map(type, numbers)) <= {int}:  # a bool or a float is not an index
        raise ValueError("ranges must hold JSON integers")
    counts = np.fromiter(map(len, ranges), dtype=np.intp, count=len(ranges))
    try:
        values = np.fromiter(numbers, dtype=np.int64, count=len(numbers))
    except OverflowError:  # past int64: the first failing member, checked as ints, raises
        for member in ranges:
            _check_range_member(member, n)
        raise
    return _checked_ranges(values, counts, n)


def _check_range_member(member: list[int], n: int | None) -> None:
    """Raise the error of a ranges member that is not nonempty start, stop pairs within [0, n]."""
    if not member:
        raise EmptySubset("subset must be nonempty")
    if len(member) % 2:
        raise ValueError(f"a ranges member holds start, stop pairs, got {len(member)} numbers")
    if any(a >= b for a, b in zip(member, member[1:])):
        raise ValueError("a ranges member must be strictly increasing")
    if member[0] < 0:
        raise IndexOutOfRange(member[0], 0)
    if n is not None and member[-1] > n:
        raise IndexOutOfRange(member[-1] - 1, n)


def _checked_ranges(values: np.ndarray, counts: np.ndarray,
                    n: int | None) -> tuple[np.ndarray, np.ndarray]:
    """values and counts, member k holding counts[k] numbers; else the first failing member's error.

    The checks are ``_check_range_member``'s, over all members at once.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    bad = (counts == 0) | (counts % 2 == 1)
    full = np.flatnonzero(counts)
    bad[full] |= values[starts[full]] < 0
    if n is not None:
        bad[full] |= values[ends[full] - 1] > n
    # a number that does not rise above its predecessor in the same member
    fall = np.flatnonzero(values[1:] <= values[:-1]) + 1
    owner = np.searchsorted(ends, fall, side="right")
    bad[owner[fall != starts[owner]]] = True
    if bad.any():
        k = int(np.argmax(bad))
        _check_range_member(values[starts[k]:ends[k]].tolist(), n)
    return values, counts


def _families(parts: Sequence[SubsetFamily | _RangesPart],
              n: int | None) -> tuple[SubsetFamily, ...]:
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
    lo, hi = values[::2], values[1::2]
    ends = np.cumsum(hi - lo)
    # each entry is the one before it + 1, but a range's first, which steps to its start
    flat = np.ones(ends[-1] if ends.size else 0, dtype=np.int64)
    flat[ends[:-1]] = lo[1:] - hi[:-1] + 1
    flat[:1] = lo[:1]
    np.cumsum(flat, out=flat)
    # member k's last range ends at ends[(numbers before it + counts[k]) / 2 - 1]
    totals = np.concatenate(([0], ends))[np.cumsum(counts) // 2]
    return flat, np.diff(totals, prepend=0)


def cover_to_json(space: MetricLike, families: Sequence[SubsetFamily], r: float,
                  strict: bool = False, c: float | None = None,
                  target: SubsetRef | None = None) -> dict[str, Any]:
    return _document(space, families, r, strict, c, target)


def cover_from_json(obj: dict[str, Any]) -> tuple[MetricLike, tuple[SubsetFamily, ...],
                                                  float, bool, SubsetRef | None]:
    if _dict(obj, "a cover").get("kind") != "cover":
        raise ValueError(f"expected a cover file, got kind {obj.get('kind')!r}")
    space = space_from_json(obj["space"])
    families = _families([_family_part(f, space.n)
                          for f in _read(list, obj["families"], "families")], space.n)
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
_RANGES = ', "ranges": '
# what a JSON number holds only when it is not an integer
_FRACTION = re.compile("[.eE]")
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
    same checks: the point set, each family's runs or ranges, the target, r.
    """
    try:
        parts = _cover_parts(text)
    except (ValueError, OverflowError):  # JSON and encoding errors, an int beyond the dtype
        parts = None
    if parts is None:
        return cover_from_json(json.loads(text))
    head, runs, tail = parts
    space = space_from_json(head) if isinstance(head, dict) else EuclideanPointSet(head)
    n = space.n
    families = _families([(str(label), *_checked_ranges(flat, counts, n)) if form == _RANGES
                          else _family_from_runs(str(label), flat, counts, n)
                          for label, form, flat, counts in runs], n)
    return (space, families, *_cover_tail(tail, space.n))


def _cover_parts(text: str) -> tuple[np.ndarray | dict[str, Any],
                                     list[tuple[Any, str, np.ndarray, np.ndarray]],
                                     dict[str, Any]] | None:
    """The space, each family's (label, key, numbers, counts) and the keys after them.

    The key is _MEMBERS or _RANGES, and the numbers are the member entries
    or the range numbers, counts[k] of them for member k.

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
        form = _MEMBERS if text.startswith(_MEMBERS, i) else _RANGES
        if not text.startswith(form, i):
            return None
        i += len(form)
        end = i + 2 if text.startswith("[]", i) else text.find("]]", i) + 2
        if form == _RANGES and _FRACTION.search(text, i, end):  # not JSON integers
            return None
        members = _runs_at(text, i, end, np.int64)
        if members is None or not text.startswith("}", end):
            return None
        runs.append((label, form, *members))
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
    items, 1-D and 2-D float64 arrays and ``_Members`` (as their
    ``tolist()``) are taken apart, _DUMP_SLICE items, values, rows or
    entries at a time; everything else goes through the C encoder in one
    call.
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
    elif (isinstance(obj, (list, tuple)) and len(obj) > _DUMP_SLICE
          or isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1):
        yield "["
        for s in range(0, len(obj), _DUMP_SLICE):
            part = obj[s:s + _DUMP_SLICE]
            yield (", " if s else "") + json.dumps(
                part.tolist() if isinstance(part, np.ndarray) else part)[1:-1]
        yield "]"
    else:
        yield json.dumps(obj)


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj as single-line JSON plus a newline: the bytes of ``json.dumps(obj)``.

    A 1-D or 2-D float64 array or ``_Members`` in a dict value is written as its ``tolist()``.
    ``json.dumps`` without an indent runs the C encoder; large lists and
    arrays are encoded a slice at a time so no whole-file string is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")
