"""JSON input plugin: hierarchical data as a first-class ViDa source.

Supports newline-delimited JSON and single-top-level-array files. Offers the
access paths the engine's optimizer chooses between (paper §5, Figure 4):

- ``scan_objects`` — parse every object (the first full parse *is* the
  semi-index build: each object's end offset is where the decoder stopped),
- ``scan_positions`` — yield only ``(start, end)`` spans via the semi-index,
  never parsing (the pollution-avoiding layout (d)),
- ``load_span`` / ``load_object`` — positional access path: parse one object
  on demand from its byte range,
- ``scan_paths`` — project dotted paths, parsing objects but materialising
  only the requested scalars.

Schema inference unions record types over a sample of objects.
"""

from __future__ import annotations

import codecs
import json
import os
import re
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

from ...errors import DataFormatError
from ...mcc import types as T
from ...storage.io import RawFile, read_spans
from .semi_index import JSONSemiIndex, ObjectSpan, iter_spans

#: what may separate two top-level objects for the first parse to stay on
#: the decoder: anything the boundary scanner would also skip without
#: changing state (no quote, no brace)
_GAP = re.compile(r'[^"{}]*')
_raw_decode = json.JSONDecoder().raw_decode
#: codecs under which ASCII bytes decode to the same characters one for one
_ASCII_TRANSPARENT = frozenset(("utf-8", "ascii", "iso8859-1"))


def get_path(obj, path: str):
    """Navigate a dotted path through dicts (and list indexes) — None on miss.

    >>> get_path({'a': {'b': [10, 20]}}, 'a.b.1')
    20
    """
    current = obj
    for step in path.split("."):
        if isinstance(current, dict):
            current = current.get(step)
        elif isinstance(current, list):
            try:
                current = current[int(step)]
            except (ValueError, IndexError):
                return None
        else:
            return None
        if current is None:
            return None
    return current


@dataclass(frozen=True)
class JSONOptions:
    encoding: str = "utf-8"
    sample_objects: int = 50


class JSONSource:
    """One JSON file exposed as a bag of (nested) records."""

    format_name = "json"

    def __init__(self, path: str | os.PathLike, options: JSONOptions | None = None):
        self.path = os.fspath(path)
        self.options = options or JSONOptions()
        self._semi_index: JSONSemiIndex | None = None
        #: bumped by every invalidation, so a scan that was parsing the
        #: superseded bytes cannot publish its index afterwards
        self._aux_epoch = 0
        self._schema: T.CollectionType | None = None
        self._aux_lock = threading.Lock()

    # -- auxiliary structure -------------------------------------------------

    @property
    def semi_index(self) -> JSONSemiIndex:
        """The structural index. A serial cold scan leaves it behind as a
        by-product of its parse; anything that needs it earlier (morsel
        splitting, positional access) builds it here with one boundary
        scan, no parsing. Double-checked under a lock so concurrent
        sessions build it once and always observe a fully-constructed
        index."""
        if self._semi_index is None:
            with self._aux_lock:
                if self._semi_index is None:
                    self._semi_index = JSONSemiIndex.build_from_file(self.path)
        return self._semi_index

    def has_semi_index(self) -> bool:
        return self._semi_index is not None

    def invalidate_auxiliary(self) -> None:
        """Drop the semi-index (underlying file changed in place)."""
        with self._aux_lock:
            self._aux_epoch += 1
            self._semi_index = None
        self._schema = None

    def extend_for_append(
        self, old_size: int, new_size: int, device=None
    ) -> tuple[list, int, int]:
        """Delta refresh for an append-classified mutation: O(delta) rescan.

        Reads only the tail bytes ``[old_size, new_size)``, boundary-scans
        them into tail spans (the appended region must be self-contained
        JSON — true for NDJSON appends, since the old content was balanced
        at depth 0), parses the appended objects once, and atomically swaps
        in an extended semi-index. The superseded index object is never
        mutated: in-flight scans and pinned generation snapshots keep
        reading its prefix spans.

        Returns ``(tail_objects, start_row, bytes_read)`` where
        ``start_row`` is the object count before the append. Raises
        :class:`DataFormatError` when no semi-index exists or the tail is
        not self-contained JSON — callers fall back to full invalidation,
        leaving the live index untouched.
        """
        with self._aux_lock:
            old_index = self._semi_index
        if old_index is None:
            raise DataFormatError(
                f"{self.path}: delta refresh needs an existing semi-index"
            )
        with RawFile(self.path, device=device) as raw:
            tail = raw.read_at(old_size, new_size - old_size)
        # DataFormatError on a truncated or unbalanced tail
        tail_spans = JSONSemiIndex.build(tail, base=old_size).spans
        encoding = self.options.encoding
        try:
            tail_objects = [
                json.loads(tail[s.start - old_size:s.end - old_size]
                           .decode(encoding))
                for s in tail_spans
            ]
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(
                f"{self.path}: bad JSON object in appended tail: {exc}"
            ) from exc
        new_index = JSONSemiIndex(list(old_index.spans) + tail_spans)
        with self._aux_lock:
            self._semi_index = new_index
        return tail_objects, len(old_index.spans), new_size - old_size

    # -- schema ----------------------------------------------------------------

    def schema(self) -> T.CollectionType:
        """Schema by sampling. Reads only a bounded file prefix unless the
        semi-index already exists — registration must stay cheap (NoDB: costs
        are paid at first *query*, not at registration)."""
        if self._schema is None:
            elem: T.Type = T.ANY
            if self._semi_index is not None:
                sample = (
                    self.load_span(span)
                    for span in self._semi_index.spans[: self.options.sample_objects]
                )
            else:
                sample = self._iter_prefix_objects(self.options.sample_objects)
            for obj in sample:
                inferred = T.type_of_python_value(obj)
                unified = T.unify(elem, inferred)
                elem = unified if unified is not None else T.ANY
            self._schema = T.bag_of(elem)
        return self._schema

    def _iter_prefix_objects(self, limit: int, prefix_bytes: int = 1 << 20):
        """Parse up to ``limit`` objects from the first ``prefix_bytes`` only."""
        with open(self.path, "rb") as fh:
            data = fh.read(prefix_bytes)
        try:
            for count, span in enumerate(iter_spans((data,)), 1):
                yield json.loads(
                    data[span.start:span.end].decode(self.options.encoding))
                if count >= limit:
                    return
        except (DataFormatError, json.JSONDecodeError, UnicodeDecodeError):
            return  # the prefix cut an object short, or the file is broken

    def element_type(self) -> T.Type:
        return self.schema().elem

    # -- access paths --------------------------------------------------------------

    def object_count(self) -> int:
        return len(self.semi_index)

    def scan_objects(self, device=None) -> Iterator[dict]:
        """Parse and yield every top-level object (builds the semi-index)."""
        for objs in self.scan_object_chunks(device=device):
            yield from objs

    def scan_splits(self, dop: int) -> list:
        """Independently scannable morsels: contiguous semi-index span ranges.

        Builds the semi-index if absent (one raw pass, no parsing) — the
        split decision runs in the coordinating process before workers
        start, and the spans ship to them in the kernel spec.
        """
        from ...core.chunk import split_ranges

        return split_ranges(len(self.semi_index.spans), dop, "spans")

    def scan_object_chunks(self, batch_size: int = 1024, device=None,
                           span_range: tuple[int, int] | None = None,
                           byte_range: tuple[int, int] | None = None
                           ) -> Iterator[list]:
        """Parse top-level objects a batch at a time (chunk pipeline).

        Amortises the per-object Python iteration overhead over
        ``batch_size`` objects. A full scan of a file that has no
        semi-index yet leaves one behind (:meth:`_first_parse`).
        ``span_range`` restricts the pass to spans ``[lo, hi)`` and reads
        only the bytes covering them; ``byte_range`` reads bytes
        ``[lo, hi)``, which must hold whole objects (a file's prefix as it
        was before an append), and boundary-scans them without an index.
        """
        if byte_range is not None:
            lo, hi = byte_range
            with RawFile(self.path, device=device) as raw:
                data = raw.read_at(lo, hi - lo)
            yield from self._parse_spans(data, list(iter_spans((data,), lo)),
                                         lo, batch_size)
            return
        if span_range is None and self._semi_index is None:
            yield from self._first_parse(batch_size, device)
            return
        spans = self.semi_index.spans
        base = 0
        with RawFile(self.path, device=device) as raw:
            if span_range is None:
                data = raw.read()
            else:
                lo, hi = span_range
                spans = spans[lo:hi]
                if not spans:
                    return
                base = spans[0].start
                data = raw.read_at(base, spans[-1].end - base)
        yield from self._parse_spans(data, spans, base, batch_size)

    def _parse_spans(self, data: bytes, spans: list, base: int,
                     batch_size: int) -> Iterator[list]:
        """Parse known spans out of ``data`` (which starts at file offset
        ``base``), one ``slice → decode → loads`` per object."""
        encoding = self.options.encoding
        loads = json.loads
        for i in range(0, len(spans), batch_size):
            group = spans[i:i + batch_size]
            try:
                objs = [loads(data[s.start - base:s.end - base].decode(encoding))
                        for s in group]
            except json.JSONDecodeError:
                for span in group:  # locate the bad object for the error
                    try:
                        loads(data[span.start - base:span.end - base].decode(encoding))
                    except json.JSONDecodeError as exc:
                        raise DataFormatError(
                            f"{self.path}: bad JSON object at bytes "
                            f"{span.start}-{span.end}: {exc}"
                        ) from exc
                raise  # pragma: no cover - the re-run above raises first
            yield objs

    def _first_parse(self, batch_size: int, device) -> Iterator[list]:
        """Cold full scan: the semi-index is born from the parse.

        The file is decoded once and walked with the JSON decoder itself:
        where ``raw_decode`` stops after an object *is* that object's end
        offset, so no boundary pre-pass and no per-object slice/decode is
        needed. Character offsets equal byte offsets only for ASCII text
        in an ASCII-transparent encoding; anything else — and whatever the
        walk cannot take (a malformed object, a stray top-level string or
        brace) — goes through the byte-exact boundary scanner instead,
        which yields the same spans and raises the same typed errors.
        The index is published only when the scan ran to the end of the
        bytes it read and nothing invalidated the source meanwhile.
        """
        epoch = self._aux_epoch
        with RawFile(self.path, device=device) as raw:
            data = raw.read()
        spans: list[ObjectSpan] = []
        base = 0
        if data.isascii() and codecs.lookup(self.options.encoding).name \
                in _ASCII_TRANSPARENT:
            text = data.decode("ascii")
            del data  # one copy of the file in memory, as on the warm path
            gap, decode, size = _GAP.match, _raw_decode, len(text)
            objs: list = []
            while True:
                base = gap(text, base).end()
                if base == size or text[base] != "{":
                    break
                try:
                    obj, end = decode(text, base)
                except json.JSONDecodeError:
                    break
                spans.append(ObjectSpan(base, end))
                objs.append(obj)
                base = end
                if len(objs) == batch_size:
                    yield objs
                    objs = []
            if objs:
                yield objs
            data = text[base:].encode("ascii")
            del text
        if data:
            rest = list(iter_spans((data,), base))
            spans += rest
            yield from self._parse_spans(data, rest, base, batch_size)
        with self._aux_lock:
            if self._semi_index is None and self._aux_epoch == epoch:
                self._semi_index = JSONSemiIndex(spans)

    @staticmethod
    def project_paths(objs: list, paths: Sequence[str]) -> list[list]:
        """Columnarize dotted-path projections over an object batch.

        One comprehension per path — the JSON column kernel; top-level
        attributes skip the generic path walker entirely.
        """
        cols: list[list] = []
        for p in paths:
            if "." in p:
                cols.append([get_path(o, p) for o in objs])
            else:
                cols.append([o.get(p) for o in objs])
        return cols

    def scan_chunks(
        self,
        paths: Sequence[str] = (),
        batch_size: int = 1024,
        device=None,
        whole: bool = False,
        split=None,
        byproducts=None,
    ):
        """Batched scan yielding :class:`~repro.core.chunk.Chunk` objects.

        ``paths`` become aligned columns; ``whole`` keeps the parsed objects
        on ``chunk.whole`` for scans that bind the full element. ``split``
        restricts the scan to one span-range morsel from :meth:`scan_splits`,
        or to a byte-range morsel holding whole objects.

        ``byproducts`` (a :class:`~repro.core.byproducts.ScanByproducts`)
        is advanced once per batch and handed the projected columns of its
        ``wanted`` dotted paths; rows are global semi-index span numbers,
        so morsel partials merge without shifting.
        """
        from ...core.chunk import Chunk

        span_range = byte_range = None
        row = 0
        if split is not None and split.kind == "bytes":
            byte_range = (split.lo, split.hi)
        elif split is not None and split.kind != "all":
            if split.kind != "spans":
                raise DataFormatError(
                    f"{self.path}: JSON scans cannot interpret a "
                    f"{split.kind!r} morsel"
                )
            span_range = (split.lo, split.hi)
            row = split.lo
        paths = tuple(paths)
        # wanted fields are normally a subset of ``paths``: project each
        # distinct path once per batch
        wanted = byproducts.wanted if byproducts is not None else ()
        extra = tuple(f for f in wanted if f not in paths)
        for objs in self.scan_object_chunks(batch_size, device=device,
                                            span_range=span_range,
                                            byte_range=byte_range):
            columns = self.project_paths(objs, paths) if paths else []
            if byproducts is not None:
                byproducts.advance(row, len(objs))
                if wanted:
                    have = dict(zip(paths, columns))
                    have.update(zip(extra, self.project_paths(objs, extra)))
                    byproducts.record(row, have)
            row += len(objs)
            yield Chunk.from_columns(paths, columns,
                                     whole=objs if whole or not paths else None)

    def scan_positions(self) -> Iterator[ObjectSpan]:
        """Yield object spans only — no parsing, no materialisation."""
        yield from self.semi_index

    def load_span(self, span: ObjectSpan, device=None) -> dict:
        """Parse one object from its byte range (positional access path)."""
        with RawFile(self.path, device=device) as raw:
            payload = raw.read_at(span.start, span.length)
        try:
            return json.loads(payload.decode(self.options.encoding))
        except json.JSONDecodeError as exc:
            raise DataFormatError(
                f"{self.path}: bad JSON object at bytes {span.start}-{span.end}: {exc}"
            ) from exc

    def load_object(self, index: int, device=None) -> dict:
        return self.load_span(self.semi_index[index], device=device)

    def scan_paths(
        self, paths: Sequence[str], device=None
    ) -> Iterator[tuple]:
        """Yield tuples of dotted-path projections, one per object."""
        for obj in self.scan_objects(device=device):
            yield tuple(get_path(obj, p) for p in paths)

    def assemble(self, spans: Sequence[ObjectSpan], device=None) -> list[dict]:
        """Late materialisation: parse exactly the qualifying objects.

        This is the projection-time re-assembly of Figure 4(d): carry
        positions through the plan, touch raw bytes once per survivor —
        neighbouring survivors share a read (``read_spans``).
        """
        encoding = self.options.encoding
        with RawFile(self.path, device=device) as raw:
            return [json.loads(payload.decode(encoding))
                    for payload in read_spans(
                        raw, [(s.start, s.end) for s in spans])]
