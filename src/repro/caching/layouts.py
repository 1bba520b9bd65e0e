"""Cache/materialisation layouts (paper Figure 4 and §5 "Re-using and
re-shaping results").

ViDa "can keep copies of the same information of interest in its caches
using different data layouts and use the most suitable layout during query
evaluation". The layouts here are the four of Figure 4 plus the two
relational ones:

=============  ==============================================================
``rows``       list of tuples (row-oriented, NSM-like)
``columns``    dict field → list (DSM-like; serves any field subset)
``objects``    list of parsed Python objects (Figure 4(c), "C++ object")
``json_text``  list of raw JSON text fragments (Figure 4(a))
``bson``       list of BSON-lite blobs (Figure 4(b))
``positions``  list of (start, end) byte spans (Figure 4(d))
=============  ==============================================================

Each layout knows how to materialise from an iterator, iterate back in a
requested field order, and estimate its memory footprint — the inputs to the
optimizer's layout decision.
"""

from __future__ import annotations

import json as _json
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from ..errors import ViDaError
from ..formats.jsonfmt import bson as _bson

LAYOUTS = ("rows", "columns", "objects", "json_text", "bson", "positions")


#: how many container levels below a value are sized; anything nested deeper
#: is charged a flat :data:`_DEEP_CELL_BYTES`
_MAX_DEPTH = 6
_DEEP_CELL_BYTES = 64
_CONTAINERS = (dict, list, tuple, set)
#: exact types the collector does not track, so ``sys.getsizeof(v)`` is
#: ``type(v).__sizeof__(v)`` — which ``map`` can call without a Python frame
_UNTRACKED = frozenset((int, float, str, bool, bytes, type(None)))


def deep_bytes(values) -> int:
    """Rough total memory estimate of a sequence of Python values.

    One nesting level at a time, each with whole-level builtins: a sum of
    sizes over the level, its *type set* to tell whether anything in it
    nests, and ``chain.from_iterable`` to gather the members of its
    containers for the next level — no Python call per cell. Dict keys and
    dict values travel as separate groups, so each group tends to hold one
    scalar type and takes the cheap ``__sizeof__`` route.
    """
    total = 0
    groups = [values]
    for _ in range(_MAX_DEPTH + 1):
        below: list[list] = []
        for group in groups:
            kinds = set(map(type, group))
            sizeof = sys.getsizeof
            if len(kinds) == 1 and kinds <= _UNTRACKED:
                sizeof = next(iter(kinds)).__sizeof__
            total += sum(map(sizeof, group))
            nesting = [t for t in kinds if issubclass(t, _CONTAINERS)]
            if not nesting:
                continue
            if len(nesting) < len(kinds):
                group = [v for v in group if isinstance(v, _CONTAINERS)]
            below.append(list(chain.from_iterable(group)))  # dict: its keys
            if any(issubclass(t, dict) for t in nesting):
                dicts = group if all(issubclass(t, dict) for t in nesting) \
                    else [v for v in group if isinstance(v, dict)]
                below.append(list(chain.from_iterable(
                    map(dict.values, dicts))))
        if not below:
            return total
        groups = below
    return total + _DEEP_CELL_BYTES * sum(map(len, groups))


@dataclass
class CachedData:
    """Materialised data in one layout.

    ``fields`` names the tuple positions for rows/columns layouts; for
    object-ish layouts it records which projection produced the data
    (empty tuple = whole element).
    """

    layout: str
    fields: tuple[str, ...]
    data: object
    nbytes: int
    count: int

    def iter_rows(self, fields: Sequence[str] | None = None) -> Iterator[tuple]:
        """Yield tuples in ``fields`` order (None = stored order)."""
        if self.layout == "rows":
            rows = self.data  # type: ignore[assignment]
            if fields is None or tuple(fields) == self.fields:
                return iter(rows)
            idx = [self.fields.index(f) for f in fields]
            return (tuple(r[i] for i in idx) for r in rows)
        if self.layout == "columns":
            cols: dict = self.data  # type: ignore[assignment]
            names = list(fields) if fields is not None else list(self.fields)
            missing = [f for f in names if f not in cols]
            if missing:
                raise ViDaError(f"cached columns missing fields {missing}")
            return zip(*(cols[f] for f in names))
        if self.layout == "objects":
            objs = self.data  # type: ignore[assignment]
            if fields is None:
                return ((o,) for o in objs)
            return (tuple(_navigate(o, f) for f in fields) for o in objs)
        if self.layout == "json_text":
            texts = self.data  # type: ignore[assignment]
            if fields is None:
                return ((_json.loads(t),) for t in texts)
            return (
                tuple(_navigate(_json.loads(t), f) for f in fields) for t in texts
            )
        if self.layout == "bson":
            blobs = self.data  # type: ignore[assignment]
            if fields is None:
                return ((_bson.decode(b),) for b in blobs)
            return (
                tuple(_navigate(_bson.decode(b), f) for f in fields) for b in blobs
            )
        if self.layout == "positions":
            raise ViDaError(
                "positions layout holds byte spans, not values; "
                "assemble() them through the owning JSONSource"
            )
        raise ViDaError(f"unknown layout {self.layout!r}")

    def covers(self, fields: Sequence[str]) -> bool:
        """Can this entry serve a query needing ``fields``?"""
        if self.layout in ("objects", "json_text", "bson"):
            return not self.fields  # whole elements serve any projection
        return all(f in self.fields for f in fields)


def _navigate(obj, path: str):
    from ..formats.jsonfmt import get_path

    return get_path(obj, path)


_LIST_BYTES = sys.getsizeof([])
_SLOT_BYTES = sys.getsizeof([None]) - _LIST_BYTES


def list_bytes(n: int) -> int:
    """A column list's own footprint at ``n`` items: its header and one slot
    per item, without the spare capacity its growth left — that depends on
    how the list was built (extended per chunk, merged per morsel,
    unpickled), and the same column must size the same however it ran."""
    return _LIST_BYTES + _SLOT_BYTES * n


def _columns_bytes(cols: dict[str, list]) -> int:
    """Footprint of a columnar entry: the cells plus the column lists."""
    return sum(deep_bytes(col) + list_bytes(len(col)) for col in cols.values())


def materialize_columns(fields: Sequence[str], columns: Sequence[list]) -> CachedData:
    """Build a columnar :class:`CachedData` directly from column lists.

    The batch scan path gathers whole columns during a chunked scan; admitting
    them must not round-trip through per-row tuples (``zip(*columns)``).
    Takes ownership of the lists — callers pass freshly-built ones.
    """
    fields = tuple(fields)
    if len(fields) != len(columns):
        raise ViDaError(
            f"{len(columns)} columns for {len(fields)} fields in columnar admission"
        )
    count = len(columns[0]) if columns else 0
    for f, col in zip(fields, columns):
        if len(col) != count:
            raise ViDaError(
                f"ragged columnar admission: field {f!r} has {len(col)} rows, "
                f"expected {count}"
            )
    cols = {f: col if isinstance(col, list) else list(col)
            for f, col in zip(fields, columns)}
    return CachedData("columns", fields, cols, _columns_bytes(cols), count)


def materialize(
    layout: str,
    fields: Sequence[str],
    rows: Iterable,
) -> CachedData:
    """Build a :class:`CachedData` in ``layout`` from an iterable.

    For rows/columns, ``rows`` yields tuples aligned with ``fields``.
    For objects/json_text/bson, ``rows`` yields the elements themselves.
    For positions, ``rows`` yields (start, end) pairs.
    """
    fields = tuple(fields)
    if layout == "rows":
        data = [tuple(r) for r in rows]
        return CachedData(layout, fields, data, deep_bytes(data), len(data))
    if layout == "columns":
        cols: dict[str, list] = {f: [] for f in fields}
        count = 0
        for r in rows:
            for f, v in zip(fields, r):
                cols[f].append(v)
            count += 1
        return CachedData(layout, fields, cols, _columns_bytes(cols), count)
    if layout == "objects":
        data = list(rows)
        return CachedData(layout, (), data, deep_bytes(data), len(data))
    if layout == "json_text":
        data = [o if isinstance(o, str) else _json.dumps(o) for o in rows]
        nbytes = sum(len(t) for t in data)
        return CachedData(layout, (), data, nbytes, len(data))
    if layout == "bson":
        data = [o if isinstance(o, bytes) else _bson.encode(o) for o in rows]
        nbytes = sum(len(b) for b in data)
        return CachedData(layout, (), data, nbytes, len(data))
    if layout == "positions":
        data = [(int(a), int(b)) for a, b in rows]
        nbytes = len(data) * 16
        return CachedData(layout, (), data, nbytes, len(data))
    raise ViDaError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
