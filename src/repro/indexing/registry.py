"""Engine-wide registry of JIT value indexes, shared by tenant sessions.

Indexes are keyed by ``(source name, source generation, field)``. The
generation is the catalog's per-source file-generation token: it bumps
whenever ``EngineContext.refresh_source`` sees the file's fingerprint
change, which is the same moment positional maps and cached columns are
dropped or delta-extended —
so a registry hit is by construction consistent with the bytes the posmap
describes. A peek or adoption under a different generation silently drops
the stale entry (second line of defense behind the session's freshness
sweep).

The registry also keeps each source's **rent tally**: the candidate rows
index-served scans have fetched from the raw file. A column reached only
through an index is never cached (an index-served scan sees matching rows
only), so every such query pays the file again; once the rows rented add up
to the file's own row count they have paid for one full scan — the
ski-rental break-even — and the planner lets the next such scan run as a
populating warm scan instead (*buy*). The tally lives and dies with the
index generation: a rewrite drops it with the indexes, an append carries it.
"""

from __future__ import annotations

import threading
from typing import Sequence

from .value_index import IndexPartial, ValueIndex


class _SourceIndexes:
    """One source's indexes at one generation, plus its rent tally."""

    __slots__ = ("generation", "by_field", "rented")

    def __init__(self, generation: int):
        self.generation = generation
        self.by_field: dict[str, ValueIndex] = {}
        self.rented = 0


class IndexRegistry:
    """Engine-lifetime store of incrementally built value indexes.

    Shared by every session of an :class:`~repro.core.engine.EngineContext`:
    peeks and adoptions serialise on an internal mutex (a leaf lock — the
    runtime's adopt-or-discard additionally holds the catalog's per-source
    lock, which orders adoption against generation bumps).
    """

    def __init__(self):
        self._sources: dict[str, _SourceIndexes] = {}
        self._mutex = threading.RLock()
        #: how many rent tallies have reached their break-even; part of the
        #: plan epoch, so prepared index plans re-plan when a buy falls due
        self.buys_due = 0

    def _current(self, source: str, generation: int) -> _SourceIndexes | None:
        """``source``'s entry at ``generation`` (call under the mutex). An
        entry of an older generation is stale and evicted; a caller still
        holding an older token than the entry's (a query that began before
        a refresh) is the stale one and just misses."""
        hit = self._sources.get(source)
        if hit is None or hit.generation == generation:
            return hit
        if hit.generation < generation:
            del self._sources[source]
        return None

    def peek(self, source: str, generation: int,
             field: str) -> ValueIndex | None:
        """The index for ``source.field`` at ``generation``, or ``None``.
        A generation mismatch evicts the stale source entry."""
        with self._mutex:
            hit = self._current(source, generation)
            return None if hit is None else hit.by_field.get(field)

    def fields(self, source: str, generation: int) -> tuple[str, ...]:
        with self._mutex:
            hit = self._sources.get(source)
            if hit is None or hit.generation != generation:
                return ()
            return tuple(hit.by_field)

    # -- rent or buy --------------------------------------------------------

    def rent(self, source: str, generation: int, rows: int,
             total_rows: int) -> None:
        """Add the ``rows`` an index-served scan just fetched from the raw
        file to ``source``'s tally; reaching ``total_rows`` (the rent has
        paid for one full scan) makes a buy due."""
        with self._mutex:
            hit = self._current(source, generation)
            if hit is None or rows <= 0:
                return
            due = hit.rented >= total_rows
            hit.rented += rows
            if not due and hit.rented >= total_rows:
                self.buys_due += 1

    def rented(self, source: str, generation: int) -> int:
        with self._mutex:
            hit = self._current(source, generation)
            return 0 if hit is None else hit.rented

    def settle(self, source: str) -> None:
        """A populating scan of ``source`` ran: whatever could be bought
        has been; renting starts afresh."""
        with self._mutex:
            hit = self._sources.get(source)
            if hit is not None:
                hit.rented = 0

    def adopt(self, source: str, generation: int,
              partials: Sequence[IndexPartial]) -> int:
        """Merge scan partials (in morsel order) into ``source``'s indexes.

        Partials with ``local_rows`` (cold byte morsels) are shifted by the
        cumulative ``rows_seen`` of the partials before them — the same
        prefix-sum rule ``adopt_posmap_partials`` uses for offsets. Returns
        the number of fields whose index actually gained rows (re-scans of
        already-covered ranges add nothing and count nothing).
        """
        if not partials:
            return 0
        with self._mutex:
            hit = self._current(source, generation)
            if hit is None:
                hit = self._sources[source] = _SourceIndexes(generation)
            by_field = hit.by_field
            grown: set[str] = set()
            base = 0
            for part in partials:
                shift = base if part.local_rows else 0
                for field, runs in part.runs.items():
                    if not runs:
                        continue
                    idx = by_field.get(field)
                    if idx is None:
                        idx = by_field[field] = ValueIndex(field)
                    for start, values in runs:
                        if idx.add_run(start + shift, values):
                            grown.add(field)
                base += part.rows_seen
            return len(grown)

    def extend_source(
        self,
        source: str,
        old_generation: int,
        new_generation: int,
        start_row: int,
        tail_columns: dict[str, list],
    ) -> int:
        """Delta refresh: re-key ``source``'s indexes from ``old_generation``
        to ``new_generation`` and extend each field with the appended tail
        run starting at ``start_row``.

        Appends leave every existing row number valid (the old content is a
        byte-prefix of the new file), so — unlike :meth:`adopt`'s
        generation-mismatch eviction — the built indexes carry over whole.
        Fields with no tail values keep their coverage as-is; the uncovered
        tail is served by the existing hole-scan fallback (which re-emits
        and converges coverage). The rent tally carries over with them.
        Returns the number of fields extended.
        """
        with self._mutex:
            hit = self._sources.get(source)
            if hit is None or hit.generation != old_generation:
                return 0
            grown = 0
            for field, idx in hit.by_field.items():
                values = tail_columns.get(field)
                if values and idx.add_run(start_row, values):
                    grown += 1
            hit.generation = new_generation
            return grown

    def invalidate_source(self, source: str) -> None:
        with self._mutex:
            self._sources.pop(source, None)

    def clear(self) -> None:
        with self._mutex:
            self._sources.clear()
