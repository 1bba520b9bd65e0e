"""One registration's home: everything the engine derives from a source.

The catalog owns each source's plugin, "which in turn owns its auxiliary
structures" (paper §3), and an in-place file update invalidates everything
held for that source (§2.1). A :class:`SourceState` is that everything for
one registration — owned by its :class:`~repro.core.catalog.CatalogEntry`,
never shared with a later registration of the same name:

- its **generation token** (from one process-wide sequence, so no two
  states or generations ever share one) and the **lock** that orders
  freshness checks, generation moves and by-product adoption;
- its **cache entries** — the :class:`~repro.caching.DataCache` that admits
  them charges their bytes to the one engine-wide budget and LRU clock (the
  cache knows its states, a state never its cache: whoever moves the
  generation passes the cache in);
- its **value indexes** and their **rent tally** (the candidate rows index
  fetches have read from the file since the last populating scan);
- its **table statistics**;
- its **generation history** (time travel).

The plugin keeps its positional map or semi-index. Whatever changes the
state runs under ``lock``: the by-product gate adopting into it, the rent
tally, :meth:`drop` — which forgets everything derived from the bytes
(rewrite, or the end of the registration) — and :meth:`extend`, which grows
it by an appended tail. The last two move the generation, so a reader that
captured the state with an older token (a scan that began before) misses
instead of reading the new bytes' structures, and a stale adopter finds a
dead token rather than a live name.
"""

from __future__ import annotations

import itertools
import threading

from ..indexing import ValueIndex
from ..stats import TableStats
from .generations import GenerationHistory

#: process-wide generation sequence: re-registering a name or refreshing a
#: file never reuses a token
_GENERATIONS = itertools.count()


class SourceState:
    """What the engine knows about one registration, dropped or extended
    as one."""

    def __init__(self, plugin=None):
        self.plugin = plugin
        #: the live generation; None once the registration has ended
        self.generation: int | None = next(_GENERATIONS)
        self.lock = threading.Lock()
        #: (layout, fields) → CacheEntry; mutated only by the DataCache
        self.cached: dict = {}
        self.indexes: dict[str, ValueIndex] = {}
        #: candidate rows index fetches read from the file; a buy is due once
        #: they add up to the file's row count (ski rental)
        self.rented = 0
        self.stats: TableStats | None = None
        self.history = GenerationHistory()

    # -- readers holding a token --------------------------------------------

    def index(self, field: str, token) -> ValueIndex | None:
        """The index on ``field`` while ``token`` is live, else None."""
        return self.indexes.get(field) if token == self.generation else None

    def known(self, token) -> tuple[bool, frozenset]:
        """(row count known?, column names known) while ``token`` is live —
        what a scan need not collect again."""
        stats = self.stats if token == self.generation else None
        if stats is None:
            return (False, frozenset())
        return (stats.row_count is not None, frozenset(stats.columns))

    def rent(self, token, rows: int, total_rows: int) -> bool:
        """Add the ``rows`` an index-served scan fetched from the file to the
        tally; True when this made a buy due (the tally reached
        ``total_rows``, the price of one full scan)."""
        with self.lock:
            if token != self.generation or rows <= 0:
                return False
            due = self.rented >= total_rows
            self.rented += rows
            return not due and self.rented >= total_rows

    # -- adoption (the by-product gate, under ``lock``) ---------------------

    def adopt_indexes(self, partials) -> int:
        """Merge index partials (file rows) in morsel order. Returns how many
        fields' indexes gained rows (covered ranges add nothing)."""
        grown: set[str] = set()
        for part in partials:
            for field, runs in part.runs.items():
                if not runs:
                    continue
                idx = self.indexes.get(field)
                if idx is None:
                    idx = self.indexes[field] = ValueIndex(field)
                for start, values in runs:
                    if idx.add_run(start, values):
                        grown.add(field)
        return len(grown)

    def adopt_stats(self, partial) -> bool:
        """Adopt-or-skip a complete scan's statistics: the row count only
        while unknown, a column only while absent — so racing and repeated
        scans converge instead of double-counting. True if anything was
        learned."""
        if self.stats is None:
            self.stats = TableStats()
        stats, changed = self.stats, False
        if stats.row_count is None:
            stats.row_count = partial.rows_seen
            changed = True
        for name, cs in partial.columns.items():
            if name not in stats.columns and (cs.count or cs.nulls):
                stats.columns[name] = cs
                changed = True
        return changed

    # -- the two generation moves (under ``lock``) --------------------------

    def drop(self, cache=None, end: bool = False) -> None:
        """Forget everything derived from the file's bytes — cache entries
        (``cache``'s share of this state), indexes, rent, statistics and the
        plugin's positional map or semi-index — and move to a fresh
        generation, or (``end``) to none: the registration is over and no
        token matches it again."""
        if cache is not None:
            cache.drop(self)
        if hasattr(self.plugin, "invalidate_auxiliary"):
            self.plugin.invalidate_auxiliary()
        self.indexes = {}
        self.rented = 0
        self.stats = None
        self.generation = None if end else next(_GENERATIONS)

    def extend(self, cache, base_rows: int, tail_rows: int,
               tail_columns: dict, tail_objects: list | None = None) -> None:
        """An append: grow cache entries (in ``cache``), indexes and
        statistics by the tail (rows ``base_rows`` on, ``tail_columns`` per
        field) and move to a fresh generation. Row numbers stay valid — the old content is a
        byte-prefix of the new — so indexes and the rent tally carry over;
        an index field with no tail values keeps its coverage (the hole scan
        fills it), while a statistics column with none would describe only
        the prefix and is dropped. Column summaries are order-independent,
        so folding in the tail equals a cold rebuild."""
        cache.extend_source(self, base_rows, tail_rows, tail_columns,
                            tail_objects)
        for field, idx in self.indexes.items():
            values = tail_columns.get(field)
            if values:
                idx.add_run(base_rows, values)
        stats = self.stats
        if stats is not None:
            if stats.row_count is not None:
                stats.row_count += tail_rows
            for name in list(stats.columns):
                values = tail_columns.get(name)
                if values is None:
                    del stats.columns[name]
                else:
                    stats.columns[name].observe_batch(values)
        self.generation = next(_GENERATIONS)
