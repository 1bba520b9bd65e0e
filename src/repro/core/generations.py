"""Per-source generation history: snapshot pinning for time travel.

Raw files evolve underneath a virtualization engine. PR 8/9 made the
*invalidation* of auxiliary state race-safe via generation tokens; this
module retains a bounded history of observed generations so queries can
pin one (``SELECT ... FROM t AS OF GENERATION k``) and append-mostly
files can refresh in O(delta) instead of rebuilding.

Two snapshot flavours, by how the mutation that superseded a generation
was classified (``EngineContext.refresh_source``):

- **live-prefix** (``live=True``): every later mutation was an append, so
  the generation's content survives verbatim as the first ``byte_size``
  bytes — the first ``row_count`` rows (CSV) / objects (JSON) — of the live
  file. Such a snapshot pins *no* data: a query AS OF it is the ordinary
  scan bounded to those rows, served from whatever the engine holds for
  the live file (cached columns, value indexes, positional map or
  semi-index) and tokenised from the bytes only when none of it exists,
  which is why an arbitrarily long append history costs O(1) memory.
- **pinned** (``live=False``): a non-append mutation destroyed the old
  bytes. At that moment every live-prefix snapshot in the history is
  handed one shared :class:`PinnedState` holding *references* to the
  source state's cache entries and table stats observed just before the
  rewrite (``SourceState.drop`` unlinks entries but never mutates the
  :class:`~repro.caching.layouts.CachedData` objects, so the references
  stay intact at zero copy cost). A pinned snapshot is servable only for
  fields some pinned entry covers, sliced down to the snapshot's own row
  count; anything else raises :class:`~repro.errors.GenerationError`.

Retention is LRU with refcounts: ``ViDa(retain_generations=N)`` bounds
the history per source, in-flight ``AS OF`` queries hold a refcount so
the generation they pinned cannot be evicted under them, and eviction
skips referenced snapshots (temporarily exceeding the bound rather than
breaking a running query).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..storage.io import FileFingerprint

#: default bounded history depth per source (overridable per context via
#: ``EngineContext(retain_generations=N)`` / ``ViDa(retain_generations=N)``)
DEFAULT_RETAIN_GENERATIONS = 4


@dataclass
class PinnedState:
    """State rescued from the source state just before a rewrite drops it.

    Shared by every live-prefix snapshot that the rewrite froze: each
    serves by slicing an entry down to its own ``row_count``, which is
    only sound for entries whose ``count`` equals ``total_rows`` — the
    live row count at pin time (entries with a different count were
    produced under cleaning/limits and are not prefix-addressable).
    """

    #: references to CachedData-bearing cache entries observed at pin time
    cached: list = field(default_factory=list)
    #: the live TableStats at pin time (None if none were collected)
    stats: object | None = None
    #: live row count at pin time (None when no complete structure knew it)
    total_rows: int | None = None


@dataclass
class GenerationSnapshot:
    """One retained ``(generation, fingerprint, byte_size, snapshot)``."""

    generation: int
    fingerprint: FileFingerprint
    byte_size: int
    #: rows/objects the source held at this generation (None when no
    #: complete posmap/semi-index observed it — then only a scan of its
    #: ``byte_size`` bytes can serve it)
    row_count: int | None = None
    #: True while every later mutation was an append (content is a live
    #: byte-prefix); flipped False, with ``pinned`` attached, on rewrite
    live: bool = True
    pinned: PinnedState | None = None
    #: in-flight AS OF queries holding this snapshot (guards eviction)
    refcount: int = 0


class GenerationHistory:
    """Bounded, refcounted, insertion-ordered history of one source."""

    def __init__(self, capacity: int = DEFAULT_RETAIN_GENERATIONS):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._snapshots: dict[int, GenerationSnapshot] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def generations(self) -> tuple[int, ...]:
        """Retained generation tokens, oldest first."""
        with self._lock:
            return tuple(self._snapshots)

    def add(self, snapshot: GenerationSnapshot) -> None:
        """Retain ``snapshot``, evicting oldest *unreferenced* snapshots
        beyond ``capacity`` (a referenced one outlives the bound until
        its pinning query releases it)."""
        with self._lock:
            self._snapshots[snapshot.generation] = snapshot
            excess = len(self._snapshots) - self.capacity
            if excess > 0:
                for gen in [g for g, s in self._snapshots.items()
                            if s.refcount == 0][:excess]:
                    del self._snapshots[gen]

    def get(self, generation: int) -> GenerationSnapshot | None:
        with self._lock:
            return self._snapshots.get(generation)

    def acquire(self, generation: int) -> GenerationSnapshot | None:
        """Look up and refcount a snapshot (AS OF query start)."""
        with self._lock:
            snap = self._snapshots.get(generation)
            if snap is not None:
                snap.refcount += 1
            return snap

    def release(self, snapshot: GenerationSnapshot) -> None:
        with self._lock:
            if snapshot.refcount > 0:
                snapshot.refcount -= 1
            if len(self._snapshots) > self.capacity:
                excess = len(self._snapshots) - self.capacity
                for gen in [g for g, s in self._snapshots.items()
                            if s.refcount == 0][:excess]:
                    del self._snapshots[gen]

    def pin_all(self, pinned: PinnedState) -> None:
        """A non-append mutation happened: freeze every still-live
        snapshot onto the shared pinned state (their prefix bytes are
        gone; only rescued cache entries can serve them now)."""
        with self._lock:
            for snap in self._snapshots.values():
                if snap.live:
                    snap.live = False
                    snap.pinned = pinned

    def clear(self) -> None:
        with self._lock:
            self._snapshots.clear()
