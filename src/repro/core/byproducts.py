"""What one scan leaves behind besides its chunks: a single by-product object.

ViDa's auxiliary structures — positional maps (paper §2.1), value indexes,
table statistics — and its data caches are by-products of scans queries run
anyway. A format plugin sees them as one :class:`ScanByproducts` handed in
through ``scan_chunks(byproducts=)``: per batch it calls :meth:`advance`
once and :meth:`record` with whatever dense columns it materialised, and
records row offsets into :attr:`posmap` when one is attached. Cache
population needs no plugin: the runtime hands every chunk the scan yields
to :attr:`cache`. The runtime builds one per scan or morsel, and
:meth:`merge` puts a scan's morsels back together under each kind's
coverage rule before the single adopt-or-discard gate
(``QueryRuntime._adopt_byproducts``).
"""

from __future__ import annotations


class CachePartial:
    """What one scan (or morsel) offers the data cache: the ``fields``
    columns of every chunk it yielded, in row order — or, for a layout other
    than ``"columns"``, the whole elements."""

    __slots__ = ("fields", "layout", "data")

    def __init__(self, fields: tuple, layout: str):
        self.fields = fields
        self.layout = layout
        self.data: list = [[] for _ in fields] if layout == "columns" else []

    def record(self, chunk) -> None:
        if self.layout == "columns":
            for f, col in zip(self.fields, self.data):
                col.extend(chunk.column(f))
        else:
            self.data.extend(chunk.whole)

    def merge(self, other: "CachePartial") -> None:
        if self.layout == "columns":
            for col, more in zip(self.data, other.data):
                col.extend(more)
        else:
            self.data.extend(other.data)


class ScanByproducts:
    """By-product recorders of one scan, or one morsel of a parallel scan.

    Any of ``posmap`` (a detached :class:`~repro.formats.csvfmt.PositionalMap`
    partial), ``index`` (:class:`~repro.indexing.IndexPartial`), ``stats``
    (:class:`~repro.stats.StatsPartial`) and ``cache`` (:class:`CachePartial`)
    may be None. ``wanted`` is the union of fields the plugin must hand to
    :meth:`record` densely — one value per physical row of the batch, before
    any selection narrows it. Picklable: process workers ship theirs home as
    they are.
    """

    __slots__ = ("posmap", "index", "stats", "cache", "wanted")

    def __init__(self, posmap=None, index=None, stats=None, cache=None):
        self.posmap = posmap
        self.index = index
        self.stats = stats
        self.cache = cache
        self.wanted = tuple(dict.fromkeys(
            (index.fields if index is not None else ())
            + (stats.fields if stats is not None else ())))

    def advance(self, start: int, nrows: int) -> None:
        """Rows ``[start, start + nrows)`` passed through the scan. Called
        exactly once per batch whether or not it records: the statistics
        partial *counts* rows."""
        if self.stats is not None:
            self.stats.advance(start, nrows)

    def record(self, start: int, columns: dict[str, list]) -> None:
        """Record a batch's dense converted values (field → one value per
        physical row from ``start``). A batch a cleaning policy repaired or
        thinned is advanced but never recorded — its values no longer line
        up with physical rows."""
        for part in (self.index, self.stats):
            if part is not None:
                values = {f: columns[f] for f in part.fields if f in columns}
                if values:
                    part.record(start, values)

    @staticmethod
    def merge(parts: dict, splits: list, untruncated: bool) -> tuple:
        """Put one scan's per-morsel by-products back together in morsel
        order: ``(posmap partials, index partials, statistics partial, cache
        partial)``, each empty/None where its coverage rule says discard.

        =========  ========================================================
        posmap     every split present (offsets must tile the file)
        index      whatever completed adopts on its own (index partials
                   carry file rows)
        stats      every split present and no LIMIT cut the query short
                   (a row count and min/max/NDV claim the whole table)
        cache      the same as stats: a partial column must never pose as
                   the whole source
        =========  ========================================================
        """
        have = [parts[s] for s in splits if s in parts]
        full = bool(have) and len(have) == len(splits)
        posmaps = [p.posmap for p in have if p.posmap is not None]
        if not full or len(posmaps) != len(have):
            posmaps = []
        indexes = [p.index for p in have if p.index is not None]
        complete = full and untruncated
        stats = cache = None
        if complete and all(p.stats is not None for p in have):
            stats = have[0].stats
            for p in have[1:]:
                stats.merge(p.stats)
        if complete and all(p.cache is not None for p in have):
            cache = have[0].cache
            for p in have[1:]:
                cache.merge(p.cache)
        return posmaps, indexes, stats, cache
