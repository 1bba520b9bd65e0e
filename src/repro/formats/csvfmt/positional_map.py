"""Positional maps for CSV files (paper §3.1/§5; Alagiannis et al., NoDB).

A positional map stores "binary positions of a file's fields ... during
initial accesses, used to facilitate navigation in the file for later
queries". We store:

- the absolute byte offset of every data row (``row_offsets``), and
- for a *subset* of columns, the offset of the field start **relative to its
  row start** (``_col_offsets``). Columns enter the map when a query accesses
  them (access-driven population) plus an optional fixed stride so later
  queries for unseen columns can start tokenizing from a nearby anchor
  instead of the row start.

The cost model consequence (paper §5): retrieving column ``c`` costs
tokenizing from the nearest recorded anchor column ≤ ``c``; an unmapped file
pays full tokenization from the row start.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PosMapStats:
    """Counters describing how useful the map was during scans."""

    direct_hits: int = 0        # field located exactly from a recorded offset
    anchored_scans: int = 0     # tokenized forward from a nearby anchor
    full_scans: int = 0         # tokenized from row start (map useless)


class PositionalMap:
    """Positional index over one CSV file.

    ``stride`` controls eager anchor density: during a full parse, every
    ``stride``-th column is recorded even if not requested (0 disables).
    """

    def __init__(self, ncols: int, delimiter: str = ",", stride: int = 8):
        self.ncols = ncols
        self.delimiter = delimiter
        self.stride = stride
        self.row_offsets: list[int] = []
        self._col_offsets: dict[int, list[int]] = {}
        self.complete = False  # True once every row offset is recorded
        self.stats = PosMapStats()

    # -- population ---------------------------------------------------------

    def anchor_columns(self, requested: list[int]) -> list[int]:
        """Columns to record during a parse: requested + stride anchors."""
        cols = set(requested)
        if self.stride:
            cols.update(range(0, self.ncols, self.stride))
        cols.update(self._col_offsets)
        return sorted(cols)

    def begin_population(self, columns: list[int]) -> None:
        """Prepare per-column offset lists for a fresh full-file parse."""
        self.row_offsets = []
        for col in columns:
            self._col_offsets[col] = []

    def record_row(self, offset: int, line: str, columns: list[int]) -> None:
        """Record one row's start offset and the relative offsets of ``columns``.

        ``line`` is the decoded row content (without the newline).
        """
        self.row_offsets.append(offset)
        if not columns:
            return
        delim = self.delimiter
        pos = 0
        col = 0
        want = iter(columns)
        target = next(want)
        while True:
            if col == target:
                self._col_offsets[target].append(pos)
                nxt = next(want, None)
                if nxt is None:
                    break
                target = nxt
            cut = line.find(delim, pos)
            if cut < 0:
                # row ended early: the remaining targets point one past the
                # line's end, where no present cell can start (an empty
                # trailing cell starts *at* the end) — navigation reads ""
                # there and the column kernel can tell the cell is missing
                for t in [target] + list(want):
                    self._col_offsets[t].append(len(line) + 1)
                break
            pos = cut + 1
            col += 1

    def finish_population(self) -> None:
        self.complete = True

    def clone_for_extension(self) -> "PositionalMap":
        """A fresh, *incomplete* map seeded with this map's offsets.

        The delta-refresh path records an appended tail onto the clone and
        swaps it in whole — never mutating this map, whose identity is the
        adopt-or-discard guard for in-flight scans (and whose offsets a
        pinned generation may still be navigating). Cheap: C-level list
        copies, no re-read of mapped bytes.
        """
        pm = PositionalMap(self.ncols, self.delimiter, self.stride)
        pm.row_offsets = list(self.row_offsets)
        pm._col_offsets = {c: list(v) for c, v in self._col_offsets.items()}
        return pm

    def adopt_partials(self, partials: list["PositionalMap"]) -> None:
        """Merge per-morsel partial maps, in morsel order, into this map.

        A parallel cold scan records offsets into one fresh partial map per
        byte-range morsel; byte ranges tile the data region in file order,
        so concatenating the partials' row and column offset lists
        reconstructs exactly the sequential population. All partials must
        have been populated with the same anchor-column set.
        """
        if self.complete or not partials:
            return
        columns = partials[0].mapped_columns
        self.begin_population(columns)
        for pm in partials:
            self.row_offsets.extend(pm.row_offsets)
            for col in columns:
                self._col_offsets[col].extend(pm._col_offsets[col])
        self.finish_population()

    # -- lookup ---------------------------------------------------------------

    @property
    def mapped_columns(self) -> list[int]:
        return sorted(self._col_offsets)

    def has_column(self, col: int) -> bool:
        return col in self._col_offsets

    def nearest_anchor(self, col: int) -> int | None:
        """The largest mapped column ≤ ``col``, or None."""
        best: int | None = None
        for c in self._col_offsets:
            if c <= col and (best is None or c > best):
                best = c
        return best

    def anchor_offsets(self, col: int) -> tuple[int | None, list[int] | None]:
        """``(anchor, its per-row offset list)`` for reaching ``col``.

        What a scan resolves once per column before it navigates batches:
        the list is indexed by global row id and never mutated once the
        map is complete, so a caller may hold it for the whole scan.
        """
        anchor = self.nearest_anchor(col)
        if anchor is None:
            return None, None
        return anchor, self._col_offsets[anchor]

    def field_in_line(self, line: str, row: int, col: int) -> str:
        """Extract column ``col`` of ``row`` from its decoded line text.

        The one-row form of the plugin's column kernel (and its test
        oracle): a cell the row does not have reads as ``""``.
        """
        delim = self.delimiter
        anchor = self.nearest_anchor(col)
        if anchor is None:
            self.stats.full_scans += 1
            pos = 0
            skip = col
        elif anchor == col:
            self.stats.direct_hits += 1
            pos = self._col_offsets[col][row]
            skip = 0
        else:
            self.stats.anchored_scans += 1
            pos = self._col_offsets[anchor][row]
            skip = col - anchor
        for _ in range(skip):
            cut = line.find(delim, pos)
            if cut < 0:
                return ""
            pos = cut + 1
        end = line.find(delim, pos)
        return line[pos:] if end < 0 else line[pos:end]

    def navigation_cost(self, col: int) -> int:
        """Number of delimiter hops needed to reach ``col`` (cost model input)."""
        anchor = self.nearest_anchor(col)
        if anchor is None:
            return col
        return col - anchor

    def memory_bytes(self) -> int:
        """Rough in-memory footprint (for cache/pollution accounting)."""
        per_list = 8  # CPython small-int list entries, order of magnitude
        total = len(self.row_offsets) * per_list
        for offsets in self._col_offsets.values():
            total += len(offsets) * per_list
        return total
