"""ViDa's data caches (paper §2.1, §5, §6).

"ViDa also maintains caches of previously accessed data [fields]." In the
evaluation, ~80% of the HBP workload is served from these caches. Entries
are keyed by ``(source, fields, layout)``; a columnar entry can serve any
subset of its fields, so successive queries touching overlapping attribute
sets hit.

Eviction is LRU under a byte budget; admission and layout demotion are
delegated to :class:`~repro.caching.policy.AdmissionPolicy`. In-place file
updates invalidate all entries of the affected source (paper §2.1).
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .layouts import (
    CachedData,
    deep_bytes,
    list_bytes,
    materialize,
    materialize_columns,
)
from .policy import DEFAULT_POLICY, AdmissionPolicy

#: lookup preference among layouts able to serve a request
_LAYOUT_RANK = {"columns": 0, "rows": 1, "objects": 2, "bson": 3,
                "json_text": 4, "positions": 5}


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    admissions: int = 0
    rejections: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    source: str
    cached: CachedData
    last_used: int = 0
    uses: int = 0

    @property
    def key(self) -> tuple:
        return (self.source, self.cached.layout, self.cached.fields)


class DataCache:
    """Byte-budgeted, LRU, multi-layout field cache.

    Concurrency-safe for many tenant sessions: every public operation runs
    under one reentrant mutex (lookup mutates LRU state, admissions merge
    and evict), so interleaved scans can never observe a half-merged entry.
    The mutex is a leaf lock — nothing else is acquired while holding it.
    """

    def __init__(
        self,
        budget_bytes: int = 256 << 20,
        policy: AdmissionPolicy | None = None,
    ):
        self.budget_bytes = budget_bytes
        self.policy = policy or DEFAULT_POLICY
        self._entries: dict[tuple, CacheEntry] = {}
        #: running ``sum(nbytes)`` over ``_entries``; every mutation of the
        #: dict goes through :meth:`_insert` / :meth:`_remove`
        self._used_bytes = 0
        self._clock = itertools.count()
        self._mutex = threading.RLock()
        self.stats = CacheStats()

    # -- inspection ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def _insert(self, entry: CacheEntry) -> None:
        self._remove(entry.key)
        self._entries[entry.key] = entry
        self._used_bytes += entry.cached.nbytes

    def _remove(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used_bytes -= entry.cached.nbytes

    def entries(self) -> list[CacheEntry]:
        with self._mutex:
            return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ----------------------------------------------------------------

    def lookup(
        self, source: str, fields: Sequence[str], layouts: Sequence[str] | None = None
    ) -> CacheEntry | None:
        """Find an entry of ``source`` able to serve ``fields``.

        Preference order: exact columnar cover, then whole-element layouts
        (objects > bson > json_text). ``layouts`` restricts candidates.
        """
        with self._mutex:
            self.stats.lookups += 1
            ranked: list[tuple[int, CacheEntry]] = []
            for entry in self._entries.values():
                if entry.source != source:
                    continue
                if layouts is not None and entry.cached.layout not in layouts:
                    continue
                if entry.cached.covers(fields):
                    ranked.append((_LAYOUT_RANK.get(entry.cached.layout, 9), entry))
            if not ranked:
                return None
            ranked.sort(key=lambda pair: pair[0])
            entry = ranked[0][1]
            entry.last_used = next(self._clock)
            entry.uses += 1
            self.stats.hits += 1
            return entry

    def peek(self, source: str, fields: Sequence[str], whole: bool = False) -> bool:
        """Non-counting check: could ``fields`` of ``source`` be cache-served?

        ``whole=True`` asks for full-element service, which only the
        object-ish layouts (objects / bson / json_text) can provide.
        """
        whole_layouts = ("objects", "bson", "json_text")
        with self._mutex:
            for e in self._entries.values():
                if e.source != source or e.cached.layout == "positions":
                    continue
                if whole:
                    if e.cached.layout in whole_layouts and not e.cached.fields:
                        return True
                    continue
                if e.cached.covers(fields):
                    return True
            return False

    def can_add_columns(self, source: str, fields: Sequence[str],
                        rows: int, source_width: int) -> bool:
        """Dry run of :meth:`put_columns` for columns no scan has produced
        yet: would ``rows``-long columns for those of ``fields`` that
        ``source`` does not hold merge into its resident entry, pass the
        policy and evict nothing — and would the entry still pass with all
        ``source_width`` columns of the source merged into it? (Columns of
        one source merge into one entry, and a merged entry the policy
        refuses takes its resident columns with it.)

        Their size is unknown before the scan, so a column is charged the
        mean of the resident ones it would merge with; with none resident
        there is nothing to price by and the answer is no."""
        with self._mutex:
            resident = [self._entries[k].cached
                        for k in self._aligned(source, rows)]
            held = {f for c in resident for f in c.fields}
            if not held:
                return False
            nbytes = sum(c.nbytes for c in resident)
            column = nbytes // len(held)
            added = len(set(fields) - held) * column
            return (self._used_bytes + added <= self.budget_bytes
                    and self.policy.admit(
                        max(nbytes + added, source_width * column),
                        self.budget_bytes))

    # -- admission ---------------------------------------------------------------

    def put(
        self,
        source: str,
        layout: str,
        fields: Sequence[str],
        rows: Iterable,
        expected_reuse: int = 1,
    ) -> CacheEntry | None:
        """Materialise ``rows`` into the cache; returns the entry or None.

        Admission may be declined by policy (too large, no expected reuse).
        Columnar entries of the same source **merge** when their row counts
        match (full-scan extracts share file row order), so the cached field
        set *accumulates* across queries — this is what lets a workload with
        attribute locality reach the paper's ~80% cache service rate.
        """
        cached = materialize(layout, fields, rows)
        with self._mutex:
            if layout == "columns":
                cached = self._merge_columns(source, cached)
            return self._admit(source, cached, expected_reuse)

    def put_columns(
        self,
        source: str,
        fields: Sequence[str],
        columns: Sequence[list],
        expected_reuse: int = 1,
    ) -> CacheEntry | None:
        """Admit whole column batches gathered by a chunked scan.

        The batch analogue of :meth:`put` for the columnar layout — no
        per-row tuple round-trip; the column lists are adopted as-is.
        """
        cached = materialize_columns(fields, columns)
        with self._mutex:
            cached = self._merge_columns(source, cached)
            return self._admit(source, cached, expected_reuse)

    def _admit(self, source: str, cached: CachedData,
               expected_reuse: int) -> CacheEntry | None:
        with self._mutex:
            if not self.policy.admit(cached.nbytes, self.budget_bytes,
                                     expected_reuse):
                self.stats.rejections += 1
                return None
            entry = CacheEntry(source, cached, last_used=next(self._clock))
            self._insert(entry)
            self.stats.admissions += 1
            self._evict_to_budget(protected=entry.key)
            return self._entries.get(entry.key)

    def _aligned(self, source: str, count: int) -> list[tuple]:
        """Keys of ``source``'s columnar entries a ``count``-row columnar
        admission merges with; any other count is a different row universe
        (e.g. cleaning skipped rows)."""
        return [key for key, entry in self._entries.items()
                if entry.source == source
                and entry.cached.layout == "columns"
                and entry.cached.count == count]

    def _merge_columns(self, source: str, cached: CachedData) -> CachedData:
        """Fold existing aligned columnar entries of ``source`` into ``cached``."""
        victims = self._aligned(source, cached.count)
        if not victims:
            return cached
        columns: dict = dict(cached.data)  # type: ignore[arg-type]
        nbytes = cached.nbytes
        for key in victims:
            resident = self._entries[key].cached
            for f, col in resident.data.items():  # type: ignore[union-attr]
                if f not in columns:
                    columns[f] = col
            nbytes += resident.nbytes
        for key in victims:
            self._remove(key)
        fields = tuple(sorted(columns))
        return CachedData("columns", fields, columns, nbytes, cached.count)

    def put_cached(self, source: str, cached: CachedData,
                   expected_reuse: int = 1) -> CacheEntry | None:
        """Admit pre-materialised data (used by generated code)."""
        return self._admit(source, cached, expected_reuse)

    def _evict_to_budget(self, protected: tuple | None = None) -> None:
        while self._used_bytes > self.budget_bytes and len(self._entries) > 1:
            victim_key = min(
                (k for k in self._entries if k != protected),
                key=lambda k: self._entries[k].last_used,
                default=None,
            )
            if victim_key is None:
                return
            self._remove(victim_key)
            self.stats.evictions += 1

    # -- delta refresh ---------------------------------------------------------

    def extend_source(
        self,
        source: str,
        base_count: int,
        tail_rows: int,
        tail_columns: dict[str, list],
        tail_objects: list | None = None,
    ) -> int:
        """Grow ``source``'s aligned entries by an appended tail in place of
        invalidating them (append-classified refresh).

        Columnar entries whose row count equals ``base_count`` and whose
        fields all have tail values are extended by ``tail_rows``; object
        layouts (objects / json_text) are extended with ``tail_objects``
        when provided. Entries with a different row universe (cleaning
        skipped rows) or no tail data are dropped — serving them for the
        new generation would silently miss the appended rows. Extended
        entries are **new** :class:`CachedData` objects: the superseded
        ones may be pinned by generation snapshots or mid-iteration as
        zero-copy chunk views, and are never mutated. Returns the number
        of entries extended.
        """
        extended = 0
        with self._mutex:
            for key in list(self._entries):
                entry = self._entries[key]
                if entry.source != source:
                    continue
                old = entry.cached
                grown: CachedData | None = None
                if old.layout == "columns" and old.count == base_count \
                        and all(f in tail_columns for f in old.fields):
                    cols = {f: old.data[f] + tail_columns[f]
                            for f in old.fields}
                    tail_bytes = sum(
                        deep_bytes(tail_columns[f]) for f in old.fields
                    ) + len(old.fields) * (list_bytes(base_count + tail_rows)
                                           - list_bytes(base_count))
                    grown = CachedData("columns", old.fields, cols,
                                       old.nbytes + tail_bytes,
                                       base_count + tail_rows)
                elif old.layout in ("objects", "json_text") \
                        and old.count == base_count and tail_objects is not None:
                    if old.layout == "objects":
                        tail = list(tail_objects)
                        tail_bytes = deep_bytes(tail)
                    else:
                        tail = [json.dumps(o) for o in tail_objects]
                        tail_bytes = sum(len(t) for t in tail)
                    grown = CachedData(old.layout, old.fields,
                                       old.data + tail,
                                       old.nbytes + tail_bytes,
                                       base_count + tail_rows)
                self._remove(key)
                if grown is None:
                    self.stats.invalidations += 1
                    continue
                self._insert(CacheEntry(source, grown,
                                        last_used=entry.last_used,
                                        uses=entry.uses))
                extended += 1
            if extended:
                self._evict_to_budget()
        return extended

    # -- invalidation ---------------------------------------------------------------

    def invalidate_source(self, source: str) -> int:
        """Drop every entry of ``source`` (in-place update handling)."""
        with self._mutex:
            victims = [k for k, e in self._entries.items()
                       if e.source == source]
            for k in victims:
                self._remove(k)
            self.stats.invalidations += len(victims)
            return len(victims)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._used_bytes = 0
