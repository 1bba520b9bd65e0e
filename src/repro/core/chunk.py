"""Columnar batch ("chunk") protocol shared by every scan path.

ViDa's generated code eliminates per-tuple interpretation (paper §4); the
Python reproduction additionally has to fight Python's own per-row
interpretation tax at the plugin → runtime → engine boundary. The fix is the
classic complement of JIT compilation: vectorized (batch-at-a-time)
execution. Format plugins tokenize/convert a fixed-size batch of rows into
column lists with tight per-column kernels (list comprehensions run at C
speed), and both engines iterate those columns with ``zip`` instead of
making a Python-level call per row.

A :class:`Chunk` is the unit that crosses the boundary:

- ``fields``  — the dotted paths the columns are aligned with,
- ``columns`` — one Python list per field, all the same length,
- ``whole``   — optionally, the whole elements (row dicts / parsed JSON
  objects) for scans that must bind the full record.

Chunks are dense: a producer that drops rows (a cleaning policy skipping a
dirty row, a pushed-down predicate) yields only the survivors, so no
consumer ever has to honour a pending selection.

Cache hits are served as *zero-copy* chunk views: a cached columnar entry's
lists are wrapped in a single Chunk without copying a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: default rows-per-chunk when the planner has no better information
DEFAULT_BATCH_SIZE = 1024


@dataclass
class Chunk:
    """One columnar batch of rows flowing through the scan pipeline."""

    fields: tuple[str, ...]
    columns: tuple[list, ...]
    length: int
    whole: list | None = None
    #: physical rows the producer scanned for this batch when that exceeds
    #: ``length`` — set by selection-pushdown scans that materialise only
    #: predicate survivors (late materialization); used for raw-row stats
    scanned: int | None = None

    @classmethod
    def from_columns(
        cls,
        fields: Sequence[str],
        columns: Sequence[list],
        whole: list | None = None,
    ) -> "Chunk":
        fields = tuple(fields)
        columns = tuple(columns)
        if columns:
            length = len(columns[0])
            for col in columns[1:]:
                if len(col) != length:
                    raise ValueError(
                        f"ragged chunk: column lengths {[len(c) for c in columns]}"
                    )
        elif whole is not None:
            length = len(whole)
        else:
            length = 0
        if whole is not None and columns and len(whole) != length:
            raise ValueError(
                f"whole-element list of {len(whole)} rows misaligned with "
                f"columns of {length}"
            )
        return cls(fields, columns, length, whole)

    @classmethod
    def from_rows(cls, fields: Sequence[str], rows: Iterable[tuple]) -> "Chunk":
        """Columnarize an iterable of aligned row tuples.

        Every row must carry exactly ``len(fields)`` values: ``zip(*rows)``
        truncates to the shortest row, so ragged input is rejected up front
        with the same ``ValueError`` contract as :meth:`from_columns`.
        """
        fields = tuple(fields)
        rows = list(rows)
        if not rows:
            return cls(fields, tuple([] for _ in fields), 0)
        width = len(fields)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"ragged chunk: row {i} has {len(row)} values for "
                    f"{width} fields"
                )
        columns = tuple(list(col) for col in zip(*rows))
        return cls(fields, columns, len(rows))

    def column(self, name: str) -> list:
        try:
            return self.columns[self.fields.index(name)]
        except ValueError:
            raise KeyError(f"chunk has no column {name!r}; has {self.fields}") from None

    @property
    def selected_length(self) -> int:
        """Rows the chunk carries (the benchmark tracer reads this name)."""
        return self.length

    def iter_rows(self) -> Iterator[tuple]:
        """Yield aligned value tuples, with C-level ``zip`` over the columns."""
        if not self.columns:
            return iter(() for _ in range(self.length))
        if len(self.columns) == 1:
            return ((v,) for v in self.columns[0])
        return zip(*self.columns)

    def rows(self) -> list[tuple]:
        return list(self.iter_rows())

    def iter_whole(self) -> Iterator:
        """Yield the whole elements (none when the chunk carries none)."""
        return iter(self.whole if self.whole is not None else ())

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class Morsel:
    """One independently scannable range of a source (parallel scan unit).

    ``kind`` tells the plugin how to interpret ``lo``/``hi``:

    - ``"all"``      — the whole source (unsplittable fallback; a single
      worker runs the full scan),
    - ``"bytes"``    — a raw byte range ``[lo, hi)``; the reader aligns
      itself to record boundaries (CSV cold scans; a JSON range holds whole
      objects: a generation's prefix of the file),
    - ``"rows"``     — a row-index range ``[lo, hi)`` (CSV warm scans via
      the positional map, cache row-range chunk views),
    - ``"spans"``    — a semi-index span range ``[lo, hi)`` (JSON),
    - ``"elements"`` — a linear element range ``[lo, hi)`` (binary arrays).

    ``start_row`` carries the global index of the first record when the
    split kind knows it (row/span/element ranges); byte splits leave it
    None and downstream row numbering is morsel-local.
    """

    kind: str
    lo: int = 0
    hi: int = 0
    start_row: int | None = None


#: the degenerate single-morsel plan for unsplittable sources
MORSEL_ALL = Morsel("all")


def split_ranges(count: int, parts: int, kind: str,
                 row_aligned: bool = True) -> list[Morsel]:
    """Tile ``[0, count)`` into at most ``parts`` contiguous morsels.

    Ranges differ in size by at most one; empty ranges are never emitted.
    ``row_aligned`` kinds record the global start index on each morsel.
    """
    if parts <= 1 or count <= 1:
        return [Morsel(kind, 0, count, start_row=0 if row_aligned else None)]
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    morsels: list[Morsel] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        morsels.append(Morsel(kind, lo, hi,
                              start_row=lo if row_aligned else None))
        lo = hi
    return morsels


def chunked(items: Iterable, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[list]:
    """Greedily batch any iterable into lists of ``batch_size`` items."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: list = []
    append = batch.append
    for item in items:
        append(item)
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch
