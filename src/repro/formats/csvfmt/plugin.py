"""CSV input plugin: schema inference, conversion, and scan access paths.

The plugin is the format-specific component a ViDa operator invokes for each
input binding (paper Figure 3). It offers:

- schema inference (header + type sniffing over a sample),
- a **cold scan** that tokenizes rows while *building the positional map*
  (NoDB-style piggybacking), and
- a **warm scan** that navigates straight to requested fields using the map.

Parsing scope: delimiter-separated text without quoted-field delimiters
(the HBP-style exports the paper processes). ``None`` is produced for empty
fields and configured null tokens.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from operator import gt
from typing import Callable, Iterator, Sequence

from ...errors import DataFormatError
from ...mcc import types as T
from ...storage.io import RawFile, read_spans
from ..descriptions import NULL_TOKENS as _NULL_TOKENS
from .positional_map import PositionalMap


@dataclass(frozen=True)
class CSVOptions:
    delimiter: str = ","
    header: bool = True
    null_tokens: frozenset = _NULL_TOKENS
    sample_rows: int = 100
    encoding: str = "utf-8"


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "t", "1", "yes"):
        return True
    if lowered in ("false", "f", "0", "no"):
        return False
    raise ValueError(f"not a bool: {text!r}")


#: the builtins themselves: a conversion comprehension pays no Python call
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "string": str,
}


def _sniff_type(values: list[str]) -> str:
    """Infer a column type from sample values (int ⊂ float ⊂ string)."""
    non_null = [v for v in values if v not in _NULL_TOKENS]
    if not non_null:
        return "string"
    for name in ("int", "float", "bool"):
        conv = _CONVERTERS[name]
        try:
            for v in non_null:
                conv(v)
            return name
        except ValueError:
            continue
    return "string"


class CSVSource:
    """One CSV file exposed as a bag of records.

    ``columns``/``types`` may be given explicitly (from a source description)
    or inferred from the file. The positional map is owned by the source and
    persists across scans — exactly the amortisation the paper measures.
    """

    format_name = "csv"

    def __init__(
        self,
        path: str | os.PathLike,
        options: CSVOptions | None = None,
        columns: Sequence[str] | None = None,
        types: Sequence[str] | None = None,
        posmap_stride: int = 8,
    ):
        self.path = os.fspath(path)
        self.options = options or CSVOptions()
        if columns is not None and types is not None:
            self.columns = list(columns)
            self.types = list(types)
        else:
            self.columns, self.types = self._infer_schema()
        if len(self.columns) != len(self.types):
            raise DataFormatError(
                f"{self.path}: {len(self.columns)} columns but {len(self.types)} types"
            )
        self.posmap = PositionalMap(len(self.columns), self.options.delimiter,
                                    stride=posmap_stride)
        self.col_index = {name: i for i, name in enumerate(self.columns)}
        self._data_start = self._header_length()
        # serialises posmap adoption/invalidation when sessions share the
        # plugin (leaf lock; the runtime's catalog source lock orders it
        # against generation bumps)
        self._aux_lock = threading.Lock()

    # -- schema ----------------------------------------------------------------

    def _header_length(self) -> int:
        if not self.options.header:
            return 0
        with open(self.path, "rb") as fh:
            first = fh.readline()
        return len(first)

    def _infer_schema(self) -> tuple[list[str], list[str]]:
        opts = self.options
        with open(self.path, "r", encoding=opts.encoding) as fh:
            first = fh.readline().rstrip("\n")
            if not first:
                raise DataFormatError(f"{self.path}: empty CSV file")
            cells = first.split(opts.delimiter)
            if opts.header:
                names = cells
                sample_source = fh
            else:
                names = [f"c{i}" for i in range(len(cells))]
                sample_source = None
            samples: list[list[str]] = [[] for _ in names]
            if sample_source is None:
                for i, cell in enumerate(cells):
                    samples[i].append(cell)
            rows_read = 0
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                for i, cell in enumerate(line.split(opts.delimiter)[: len(names)]):
                    samples[i].append(cell)
                rows_read += 1
                if rows_read >= opts.sample_rows:
                    break
        types = [_sniff_type(col) for col in samples]
        return names, types

    def element_type(self) -> T.RecordType:
        prim = {"int": T.INT, "float": T.FLOAT, "bool": T.BOOL, "string": T.STRING}
        return T.RecordType(tuple((n, prim[t]) for n, t in zip(self.columns, self.types)))

    def schema(self) -> T.CollectionType:
        return T.bag_of(self.element_type())

    # -- conversion --------------------------------------------------------------

    def converter(self, col: int) -> Callable[[str], object]:
        conv = _CONVERTERS[self.types[col]]
        null_tokens = self.options.null_tokens

        def convert(text: str):
            if text in null_tokens:
                return None
            try:
                return conv(text)
            except ValueError as exc:
                raise DataFormatError(
                    f"{self.path}: cannot parse {text!r} as {self.types[col]} "
                    f"(column {self.columns[col]!r})"
                ) from exc

        return convert

    def field_indexes(self, fields: Sequence[str]) -> list[int]:
        try:
            return [self.col_index[f] for f in fields]
        except KeyError as exc:
            raise DataFormatError(
                f"{self.path}: unknown column {exc.args[0]!r}; "
                f"available: {', '.join(self.columns)}"
            ) from None

    # -- access paths --------------------------------------------------------------

    def scan(
        self,
        fields: Sequence[str] | None = None,
        device=None,
        clean=None,
    ) -> Iterator[tuple]:
        """Yield tuples of converted values for ``fields`` (None = all): the
        row-at-a-time view of :meth:`scan_chunks`. ``clean`` is an optional
        :class:`repro.cleaning.CleaningPolicy`."""
        for chunk in self.scan_chunks(fields, device=device, clean=clean):
            yield from chunk.iter_rows()

    # -- batched access path (chunk pipeline) ----------------------------------

    def scan_splits(self, dop: int) -> list:
        """Independently scannable morsels for a parallel scan.

        With a complete positional map the file splits into exact row
        ranges (workers know their global row numbers and navigate with the
        map); otherwise the data region splits into byte ranges that each
        worker aligns to line boundaries at read time — no pre-pass.
        """
        from ...core.chunk import Morsel, split_ranges

        if self.posmap.complete:
            return split_ranges(len(self.posmap.row_offsets), dop, "rows")
        size = os.path.getsize(self.path)
        start = self._data_start
        if dop <= 1 or size - start <= dop:
            return [Morsel("all")]
        bounds = [start + (size - start) * i // dop for i in range(dop + 1)]
        return [Morsel("bytes", lo, hi)
                for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    def iter_line_batches(
        self,
        batch_size: int,
        device=None,
        record_anchors: list[int] | None = None,
        byte_range: tuple[int, int] | None = None,
        start_row: int = 0,
        record_map: "PositionalMap | None" = None,
    ) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(start_row, lines)`` batches of decoded data lines.

        When ``record_anchors`` is given, row and anchor offsets are
        recorded into ``record_map`` on the pass (the caller brackets it
        with ``begin_population``/``finish_population`` on that map — a
        detached partial or an extension clone, never the shared map).

        ``byte_range`` restricts the pass to lines *starting* inside
        ``[lo, hi)``: a line belongs to the range holding its first byte,
        so ranges tiling the data region partition the rows exactly. The
        reader self-aligns — a range starting mid-line skips that line
        (it belongs to the previous range). ``start_row`` seeds the row
        numbering for ranges that know their global position.
        """
        encoding = self.options.encoding
        record = record_map.record_row if record_anchors is not None else None
        if byte_range is None:
            # a full scan is the degenerate range: the whole data region
            byte_range = (self._data_start, os.path.getsize(self.path))
        lo, hi = byte_range
        with RawFile(self.path, device=device) as raw:
            skip_first = False
            if lo > self._data_start:
                skip_first = raw.read_at(lo - 1, 1) != b"\n"
            else:
                lo = self._data_start
            raw.seek(lo)
            pos = lo
            carry = b""
            row = start_row
            start = row
            batch = []
            done = False
            while not done:
                data = raw.read(1 << 20)
                if not data:
                    break
                parts = (carry + data).split(b"\n")
                carry = parts.pop()
                for line_bytes in parts:
                    line_start = pos
                    pos += len(line_bytes) + 1
                    if skip_first:
                        skip_first = False
                        continue
                    if line_start >= hi:
                        done = True
                        break
                    line = line_bytes.decode(encoding)
                    if not line:
                        continue
                    if record is not None:
                        record(line_start, line, record_anchors)
                    batch.append(line)
                    row += 1
                    if len(batch) >= batch_size:
                        yield start, batch
                        start = row
                        batch = []
            if carry and not done and not skip_first and pos < hi:
                # trailing line without a final newline starts at ``pos``
                line = carry.decode(encoding)
                if line:
                    if record is not None:
                        record(pos, line, record_anchors)
                    batch.append(line)
            if batch:
                yield start, batch

    def convert_batch(self, cols: list[int], cells_rows: list[list[str]]) -> list[list]:
        """Convert split rows into per-column value lists (column kernels).

        One tight list comprehension per requested column; raises
        ``ValueError``/``IndexError`` on the first dirty value, at which
        point callers with a cleaning policy fall back to row-at-a-time
        conversion for the batch.
        """
        null_tokens = self.options.null_tokens
        out: list[list] = []
        for c in cols:
            tname = self.types[c]
            if tname == "string":
                out.append([None if (v := r[c]) in null_tokens else v
                            for r in cells_rows])
            else:
                conv = _CONVERTERS[tname]
                out.append([None if (v := r[c]) in null_tokens else conv(v)
                            for r in cells_rows])
        return out

    def convert_row(self, cols: list[int], cells: list[str]) -> tuple:
        """Row-at-a-time conversion with descriptive errors (slow path)."""
        return tuple(
            self.converter(c)(cells[c] if c < len(cells) else "") for c in cols
        )

    def scan_chunks(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        device=None,
        clean=None,
        whole: bool = False,
        access: str | None = None,
        split=None,
        pred_fields: Sequence[str] | None = None,
        pred_kernel=None,
        byproducts=None,
    ):
        """Batched scan: yield :class:`~repro.core.chunk.Chunk` objects.

        Rows are tokenized and converted a batch at a time with per-column
        kernels. ``whole`` additionally materialises full row dicts
        (``chunk.whole``). ``access`` forces ``"cold"``/``"warm"``; default
        picks by map state. ``split`` restricts the scan to one
        :class:`~repro.core.chunk.Morsel` from :meth:`scan_splits`.

        ``pred_kernel`` + ``pred_fields`` push the selection vector into the
        scan (late materialization, warm navigated path only): the kernel —
        a callable over the predicate columns returning surviving row
        indexes — runs right after the predicate columns are navigated, an
        empty vector skips the batch, and the remaining columns materialise
        *only at the surviving indexes*. Yielded chunks are dense survivors;
        ``Chunk.scanned`` preserves the physical row count for accounting.

        ``byproducts`` (a :class:`~repro.core.byproducts.ScanByproducts`)
        is what the scan leaves behind for its caller to adopt or discard.
        A cold full-file or byte-morsel pass records row and anchor offsets
        into its detached ``posmap`` partial — never into the shared map.
        Every batch is ``advance``d, and ``record``ed with the converted
        values of the ``wanted`` fields for *every* physical row: predicate
        columns are navigated densely before the selection kernel narrows
        them, so pushed-down scans give full coverage for free. Batches a
        cleaning policy touched are advanced but not recorded.

        Without ``byproducts`` a cold full-file scan still builds a detached
        partial and adopts it itself when it runs to the end
        (:meth:`adopt_posmap_partials`: one winner per concurrent race).
        """
        from ...core.chunk import Chunk

        field_list = list(fields) if fields is not None else list(self.columns)
        cols = self.field_indexes(field_list)
        if access is None:
            access = "warm" if self.posmap.complete else "cold"
        byte_range = None
        start_row = 0
        if split is not None and split.kind != "all":
            if split.kind == "rows":
                offsets = self.posmap.row_offsets
                if split.lo >= len(offsets) or split.lo >= split.hi:
                    return
                end = offsets[split.hi] if split.hi < len(offsets) \
                    else os.path.getsize(self.path)
                byte_range = (offsets[split.lo], end)
                start_row = split.lo
            elif split.kind == "bytes":
                byte_range = (split.lo, split.hi)
            else:
                raise DataFormatError(
                    f"{self.path}: CSV scans cannot interpret a "
                    f"{split.kind!r} morsel"
                )
        all_cols = list(range(len(self.columns))) if whole else None
        conv_cols = all_cols if whole else cols
        pm = self.posmap  # one map per scan: a refresh swaps, never mutates
        record_map = byproducts.posmap if byproducts is not None else None
        standalone = byproducts is None and access == "cold" \
            and byte_range is None
        if standalone:
            record_map = self.new_posmap_partial()
        record_anchors = None
        if record_map is not None:
            record_anchors = pm.anchor_columns(cols)
            record_map.begin_population(record_anchors)
        delim = self.options.delimiter
        validate = clean is not None and getattr(clean, "validate_always", False)
        # Warm narrow projections navigate with the positional map: one jump
        # per requested field instead of tokenizing the whole (possibly very
        # wide) line. Whole-row binding and cleaning need the full cell list.
        navigate = (access == "warm" and pm.complete and not whole
                    and bool(cols) and clean is None)
        push = navigate and pred_kernel is not None and pred_fields
        if push:
            pred_cols = self.field_indexes(list(pred_fields))
            pred_pos = {c: i for i, c in enumerate(pred_cols)}
            rest_cols = [c for c in cols if c not in pred_pos]
            rest_pos = {c: i for i, c in enumerate(rest_cols)}
            fetch_rest = self._column_kernel(pm, rest_cols)
        if navigate:
            scan_cols = pred_cols if push else cols
            fetch = self._column_kernel(pm, scan_cols)
        # by-product fields this file has, by column; recorded from the
        # column lists the scan materialises anyway
        wanted = {f: self.col_index[f] for f in byproducts.wanted
                  if f in self.col_index} if byproducts is not None else {}
        if navigate and wanted:
            # a wanted column outside the navigated ones (normally none) is
            # navigated once per batch
            extra_cols = sorted(set(wanted.values()).difference(scan_cols))
            fetch_extra = self._column_kernel(pm, extra_cols)
        for start, lines in self.iter_line_batches(batch_size, device=device,
                                                   record_anchors=record_anchors,
                                                   byte_range=byte_range,
                                                   start_row=start_row,
                                                   record_map=record_map):
            if byproducts is not None:
                byproducts.advance(start, len(lines))
            if navigate:
                rows = range(start, start + len(lines))
                navigated = fetch(lines, rows)
                if wanted:
                    have = dict(zip(scan_cols, navigated))
                    if extra_cols:
                        have.update(zip(extra_cols, fetch_extra(lines, rows)))
                    byproducts.record(
                        start, {f: have[c] for f, c in wanted.items()})
                if not push:
                    yield Chunk.from_columns(field_list, navigated)
                    continue
                # late materialization: the predicate columns are in hand;
                # run the selection kernel, fetch the rest for survivors only
                sel = pred_kernel(*navigated)
                if not sel:
                    # account the physically scanned lines, carry no rows
                    yield Chunk(tuple(field_list), tuple([] for _ in cols),
                                0, scanned=len(lines))
                    continue
                dense = len(sel) == len(lines)
                rest = fetch_rest(lines, rows) if dense else fetch_rest(
                    [lines[i] for i in sel], [start + i for i in sel])
                out: list[list] = []
                for c in cols:
                    if c in pred_pos:
                        pc = navigated[pred_pos[c]]
                        out.append(pc if dense else [pc[i] for i in sel])
                    else:
                        out.append(rest[rest_pos[c]])
                chunk = Chunk.from_columns(field_list, out)
                chunk.scanned = len(lines)
                yield chunk
                continue
            cells_rows = [line.split(delim) for line in lines]
            columns = self._convert_clean_batch(
                conv_cols, cells_rows, start, clean, validate
            )
            if wanted and clean is None:
                byproducts.record(start, {
                    f: columns[conv_cols.index(c)]
                    for f, c in wanted.items() if c in conv_cols})
            if whole:
                names = self.columns
                whole_rows = [dict(zip(names, vals)) for vals in zip(*columns)] \
                    if columns else [dict() for _ in range(len(cells_rows))]
                picked = [columns[c] for c in cols]
                chunk = Chunk.from_columns(field_list, picked, whole=whole_rows)
            elif cols:
                chunk = Chunk.from_columns(field_list, columns)
            else:
                # pure-count projection: no columns, but the row count matters
                chunk = Chunk((), (), len(cells_rows))
            yield chunk
        if standalone:
            self.adopt_posmap_partials([record_map], expect=pm)

    def _column_kernel(self, pm: PositionalMap, cols: list[int]):
        """The positional column kernel: ``fetch(lines, rows) -> columns``.

        ``lines`` are decoded data lines and ``rows`` their global row ids
        (a ``range`` for a dense batch, a list for push-down survivors or
        index candidates — the same call either way). Each column's anchor
        and that anchor's offset list are resolved here, once per scan and
        column; ``fetch`` then runs one comprehension per column chosen by
        the hop count from the anchor — a recorded offset slices the cell
        out, an earlier anchor splits forward from its offset, no anchor
        splits from the row start — and one conversion comprehension.

        A dirty value or a row without the cell raises the typed error of
        :meth:`_raise_dirty`, never the comprehension's bare exception.
        """
        delim = self.options.delimiter
        null_tokens = self.options.null_tokens
        stats = pm.stats
        plans = []
        for c in cols:
            anchor, offsets = pm.anchor_offsets(c)
            tname = self.types[c]
            plans.append((c, anchor, offsets,
                          None if tname == "string" else _CONVERTERS[tname]))

        def fetch(lines: list[str], rows) -> list[list]:
            out: list[list] = []
            for c, anchor, offsets, conv in plans:
                try:
                    if anchor is None:
                        stats.full_scans += len(lines)
                        raw = [line.split(delim, c + 1)[c] for line in lines]
                    else:
                        at = offsets[rows.start:rows.stop] \
                            if isinstance(rows, range) \
                            else [offsets[r] for r in rows]
                        if anchor == c:
                            stats.direct_hits += len(lines)
                            raw = [line[p:e]
                                   if (e := line.find(delim, p)) >= 0
                                   else line[p:] for line, p in zip(lines, at)]
                            # "" is also what a missing cell's offset (one
                            # past the line) reads as
                            if "" in raw and any(
                                    map(gt, at, map(len, lines))):
                                raise IndexError(c)
                        else:
                            stats.anchored_scans += len(lines)
                            hops = c - anchor
                            raw = [line[p:].split(delim, hops + 1)[hops]
                                   for line, p in zip(lines, at)]
                    if conv is None:
                        out.append([None if v in null_tokens else v
                                    for v in raw])
                    else:
                        out.append([None if v in null_tokens else conv(v)
                                    for v in raw])
                except (ValueError, IndexError):
                    self._raise_dirty(c, lines, rows)
                    raise  # pragma: no cover - the re-run above raises first
            return out

        return fetch

    def _raise_dirty(self, c: int, lines: list[str], rows) -> None:
        """Row-wise re-run of a column the kernel failed on: raise the
        typed error for the first row that lacks the cell or holds a value
        its type cannot parse."""
        delim = self.options.delimiter
        null_tokens = self.options.null_tokens
        tname = self.types[c]
        conv = _CONVERTERS[tname]
        for line, row in zip(lines, rows):
            cells = line.split(delim)
            if len(cells) <= c:
                raise DataFormatError(
                    f"{self.path}: row {row} has {len(cells)} cells but "
                    f"column {self.columns[c]!r} was requested"
                ) from None
            text = cells[c]
            if text in null_tokens:
                continue
            try:
                conv(text)
            except ValueError:
                raise DataFormatError(
                    f"{self.path}: row {row}: cannot parse {text!r} as "
                    f"{tname} (column {self.columns[c]!r})"
                ) from None

    def _convert_clean_batch(
        self, cols: list[int], cells_rows: list[list[str]], start_row: int,
        clean, validate: bool,
    ) -> list[list]:
        """Convert one batch, routing failures through the cleaning policy.

        Mirrors the row path's contract: validating policies see every row;
        otherwise the fast kernels run and only the *columns* of a dirty
        batch degrade to per-value conversion — dirty rows are repaired in
        place afterwards, so a few bad values don't tax the whole batch.
        Rows the policy dropped are compacted away here: the columns hold
        the surviving rows only, so chunks reach the engines dense.
        """
        if not cols:
            return []
        if clean is None:
            try:
                return self.convert_batch(cols, cells_rows)
            except (ValueError, IndexError):
                # locate the offending row for a descriptive error
                max_col = max(cols)
                for i, cells in enumerate(cells_rows):
                    if len(cells) <= max_col:
                        raise DataFormatError(
                            f"{self.path}: row {start_row + i} has "
                            f"{len(cells)} cells but column "
                            f"{self.columns[max_col]!r} was requested"
                        ) from None
                    self.convert_row(cols, cells)
                raise  # pragma: no cover - the re-run above raises first
        if validate:
            rows_out: list[tuple] = []
            for i, cells in enumerate(cells_rows):
                values = clean.repair(self, start_row + i, cells, cols)
                if values is not None:
                    rows_out.append(values)
            if not rows_out:
                return [[] for _ in cols]
            return [list(col) for col in zip(*rows_out)]
        null_tokens = self.options.null_tokens
        columns: list[list] = []
        bad_rows: set[int] = set()
        for c in cols:
            try:
                columns.append(self.convert_batch([c], cells_rows)[0])
                continue
            except (ValueError, IndexError):
                pass
            conv = _CONVERTERS[self.types[c]]
            col_vals: list = []
            for i, r in enumerate(cells_rows):
                if c < len(r):
                    v = r[c]
                    if v in null_tokens:
                        col_vals.append(None)
                        continue
                    try:
                        col_vals.append(conv(v))
                        continue
                    except ValueError:
                        pass
                col_vals.append(None)
                bad_rows.add(i)
            columns.append(col_vals)
        if not bad_rows:
            return columns
        dropped: set[int] = set()
        for i in sorted(bad_rows):
            values = clean.repair(self, start_row + i, cells_rows[i], cols)
            if values is None:
                dropped.add(i)
            else:
                for j in range(len(cols)):
                    columns[j][i] = values[j]
        if not dropped:
            return columns
        kept = [i for i in range(len(cells_rows)) if i not in dropped]
        return [[col[i] for i in kept] for col in columns]

    def new_posmap_partial(self) -> PositionalMap:
        """A fresh per-morsel recorder for sharded positional-map population."""
        return PositionalMap(len(self.columns), self.options.delimiter,
                             self.posmap.stride)

    def adopt_posmap_partials(self, partials: list[PositionalMap],
                              expect: PositionalMap | None = None) -> bool:
        """Atomically merge morsel-ordered partial maps into the source's
        map — or discard them. Adoption proceeds only if the map is still
        incomplete and (when ``expect`` is given) is still the same object
        observed at scan start — an in-place file update swaps the map, so
        a stale scan's offsets can never poison the fresh one. Returns True
        when the partials were adopted (one winner per cold-scan race)."""
        with self._aux_lock:
            target = self.posmap
            if expect is not None and target is not expect:
                return False
            if target.complete or not partials:
                return False
            target.adopt_partials(partials)
            return target.complete

    def fetch_row(self, row: int, fields: Sequence[str], device=None) -> tuple:
        """Positional access path: fetch one row's fields via the map."""
        if not self.posmap.complete:
            raise DataFormatError(
                f"{self.path}: positional access requires a populated map; scan first"
            )
        cols = self.field_indexes(list(fields))
        convs = [self.converter(c) for c in cols]
        offsets = self.posmap.row_offsets
        start = offsets[row]
        end = offsets[row + 1] - 1 if row + 1 < len(offsets) else None
        with RawFile(self.path, device=device) as raw:
            if end is None:
                raw.seek(start)
                line = raw.read().split(b"\n", 1)[0].decode(self.options.encoding)
            else:
                line = raw.read_at(start, end - start).decode(self.options.encoding)
        return tuple(conv(self.posmap.field_in_line(line, row, c))
                     for c, conv in zip(cols, convs))

    def fetch_rows(self, rows: Sequence[int], fields: Sequence[str],
                   device=None) -> list[list]:
        """Batched positional fetch: per-column value lists for ``rows``.

        The index-lookup access path's workhorse, where a query fetches
        many scattered rows at once: neighbouring candidates share a read
        (:func:`~repro.storage.io.read_spans`) and the lines go through
        the same column kernel as a warm scan's batches.
        """
        pm = self.posmap
        if not pm.complete:
            raise DataFormatError(
                f"{self.path}: positional access requires a populated map; scan first"
            )
        cols = self.field_indexes(list(fields))
        offsets = pm.row_offsets
        last = len(offsets) - 1
        encoding = self.options.encoding
        with RawFile(self.path, device=device) as raw:
            size = raw.size
            spans = [(offsets[r], offsets[r + 1] - 1 if r < last else size)
                     for r in rows]
            # a line ends at its first newline: the last row's span runs to
            # the end of the file, and blank lines may follow any row
            lines = [data.partition(b"\n")[0].decode(encoding)
                     for data in read_spans(raw, spans)]
        return self._column_kernel(pm, cols)(lines, rows)

    def row_count(self) -> int:
        """Number of data rows (cheap once the positional map is complete)."""
        if self.posmap.complete:
            return len(self.posmap.row_offsets)
        count = 0
        with open(self.path, "rb") as fh:
            if self.options.header:
                fh.readline()
            for line in fh:
                if line.strip():
                    count += 1
        return count

    def invalidate_auxiliary(self) -> None:
        """Drop the positional map (file changed in place, paper §2.1).

        Swaps in a fresh map object rather than mutating: scans that
        captured the old map discard their partials at adoption time."""
        with self._aux_lock:
            self.posmap = PositionalMap(
                len(self.columns), self.options.delimiter, self.posmap.stride
            )

    def extend_for_append(
        self,
        old_size: int,
        new_size: int,
        fields: Sequence[str],
        batch_size: int = 4096,
        device=None,
    ) -> tuple[dict[str, list], int, int]:
        """Delta refresh for an append-classified mutation: O(delta) rescan.

        Re-reads only the tail bytes ``[old_size, new_size)``, records the
        appended rows onto a :meth:`~PositionalMap.clone_for_extension` of
        the complete map (same anchor set, so every existing offset stays
        valid), converts ``fields`` for just those rows, and atomically
        swaps the extended map in. The superseded map object is never
        mutated — its identity remains the adopt-or-discard guard for
        in-flight scans, and pinned generation snapshots keep navigating
        its prefix.

        Returns ``(tail_columns, tail_rows, bytes_read)``. Raises
        :class:`DataFormatError` if the map is incomplete (nothing to
        extend — the caller falls back to a cold rebuild); a conversion
        error on dirty tail rows propagates the same way, leaving the
        live map untouched.
        """
        with self._aux_lock:
            old_map = self.posmap
        if not old_map.complete:
            raise DataFormatError(
                f"{self.path}: delta refresh needs a complete positional map"
            )
        newmap = old_map.clone_for_extension()
        anchors = newmap.mapped_columns
        old_rows = len(newmap.row_offsets)
        field_list = list(fields)
        cols = self.field_indexes(field_list)
        delim = self.options.delimiter
        tail_columns: dict[str, list] = {f: [] for f in field_list}
        tail_rows = 0
        for _start, lines in self.iter_line_batches(
            batch_size, device=device, record_anchors=anchors,
            byte_range=(old_size, new_size), start_row=old_rows,
            record_map=newmap,
        ):
            if cols:
                cells_rows = [line.split(delim) for line in lines]
                converted = self.convert_batch(cols, cells_rows)
                for f, values in zip(field_list, converted):
                    tail_columns[f].extend(values)
            tail_rows += len(lines)
        newmap.finish_population()
        with self._aux_lock:
            self.posmap = newmap
        return tail_columns, tail_rows, new_size - old_size
