"""Query runtime: the services generated (and interpreted) plans call into.

A fresh :class:`QueryRuntime` is created per query execution. It owns no
data itself — it mediates access to the catalog's plugins, the session-wide
:class:`~repro.caching.DataCache`, cleaning policies, and optional simulated
devices, while accounting execution statistics (raw rows parsed, cache rows
served, raw bytes touched) that the benchmarks report.
"""

from __future__ import annotations

import bisect
import os
import pickle
import threading
from dataclasses import dataclass, field
from operator import itemgetter
from time import perf_counter

from ...caching import DataCache
from ...errors import ExecutionError, GenerationError
from ...formats.descriptions import NULL_TOKENS
from ...indexing import IndexPartial
from ...mcc.monoids import get_monoid
from ...stats import ScanTiming, StatsPartial
from ..byproducts import ScanByproducts
from ..chunk import DEFAULT_BATCH_SIZE, MORSEL_ALL, Chunk, Morsel, split_ranges
from .scheduler import MorselScheduler


@dataclass
class ExecStats:
    """Per-query execution counters."""

    raw_rows: int = 0
    cache_rows: int = 0
    raw_bytes: int = 0
    raw_sources: set = field(default_factory=set)
    cache_sources: set = field(default_factory=set)
    cleaned_rows: int = 0
    skipped_rows: int = 0
    #: morsels cancelled unstarted because a LIMIT was already satisfied
    morsels_cancelled: int = 0
    #: value indexes created or extended as scan byproducts this query
    index_builds: int = 0
    #: scans served through a JIT value index (access=index, or a probe
    #: gathering from cached columns)
    index_hits: int = 0
    #: candidate rows resolved through an index instead of scanned
    index_rows_served: int = 0

    @property
    def cache_only(self) -> bool:
        """True when the query never touched a raw file."""
        return not self.raw_sources


class _CountingPolicy:
    """Wraps a cleaning policy so batch scans account repairs/skips.

    The batch path hands the policy to the plugin's chunked scan, so the
    accounting wraps the policy rather than living in a runtime callback:
    ``counts`` is the scan's own tally, flushed into the query's stats when
    the scan ends. ``lock`` serialises repairs — morsel workers and
    sub-query scans share the underlying (possibly stateful) policy object.
    """

    def __init__(self, policy, counts: "ExecStats", lock):
        self._policy = policy
        self._lock = lock
        self.counts = counts
        self.validate_always = bool(getattr(policy, "validate_always", False))

    def repair(self, plugin, row: int, cells: list, cols: list):
        with self._lock:
            repaired = self._policy.repair(plugin, row, cells, list(cols))
            if repaired is None:
                self.counts.skipped_rows += 1
            else:
                self.counts.cleaned_rows += 1
            return repaired


class QueryRuntime:
    """Execution-time context handed to compiled/interpreted plans."""

    def __init__(
        self,
        catalog,
        cache: DataCache,
        cleaning: dict | None = None,
        devices: dict | None = None,
        row_limit: int | None = None,
        process_pool=None,
        indexes=None,
        engine=None,
        table_stats=None,
        stats_hint: dict | None = None,
        as_of: dict | None = None,
    ):
        self.catalog = catalog
        self.cache = cache
        #: time travel: source → pinned :class:`GenerationSnapshot`. Scans of
        #: a pinned source serve that generation's rows (live-prefix re-scan
        #: or pinned cache slices) and emit no byproducts — nothing a pinned
        #: query produces may leak into live shared state
        self.as_of = as_of or {}
        #: owning :class:`~repro.core.engine.EngineContext` (None in worker
        #: children and standalone uses) — receives cross-tenant sharing
        #: counters from the adopt-or-discard merge points
        self.engine = engine
        #: session-wide :class:`~repro.indexing.IndexRegistry`, or ``None``
        #: when JIT value indexes are disabled (worker-process children run
        #: without one, so byproduct emission degrades to a no-op there)
        self.indexes = indexes
        self.cleaning = cleaning or {}
        self.devices = devices or {}
        #: session-lifetime worker-process pool, present when the session was
        #: opened with ``backend="process"`` (scans the planner marked
        #: ``backend="process"`` fan their kernel specs out through it)
        self.process_pool = process_pool
        self.stats = ExecStats()
        #: SQL LIMIT (or query(limit=...)) — lets LIMIT-countable parallel
        #: folds stop consuming morsels once enough rows are in hand
        self.row_limit = row_limit
        #: True once a limited scan stopped early: the query saw a prefix of
        #: the source, so cache admissions must be suppressed
        self.truncated = False
        # morsel-parallel scans: stats flushes, cleaning-policy calls and
        # cache admissions from worker threads serialise on this lock
        self._lock = threading.Lock()
        # one cache lookup per (source, fields, whole) per query, shared by
        # every morsel worker slicing row-range chunk views off it
        self._cache_scan_memo: dict[tuple, tuple] = {}
        # per-morsel by-products of parallel scans awaiting the coordinator's
        # ordered merge in finish_scan (source → {Morsel: ScanByproducts})
        self._byproducts: dict[str, dict] = {}
        #: shared :class:`~repro.stats.StatsRegistry`, or ``None`` when
        #: adaptive statistics are off (then ``stats_hint`` may still carry
        #: a worker child's marching orders: source → (have_rows, known
        #: fields), so children collect exactly what the parent is missing)
        self.table_stats = table_stats
        self._stats_hint = stats_hint or {}
        # per-source collection state memoised at first touch so every
        # morsel of one scan builds identically-shaped stats partials
        self._stats_states: dict[str, tuple | None] = {}
        #: measured per-scan wall-clock timings (serial scans only — morsel
        #: workers overlap, so their per-worker times aren't wall-clock);
        #: the session feeds these into the shared CostCalibration
        self.scan_timings: list[ScanTiming] = []
        # generation token of each source captured at scan start; adoption
        # and cache admission compare it against the catalog's current token
        # under the per-source lock (adopt-or-discard)
        self._generations: dict[str, int] = {}
        # the posmap object observed at scan start, per source — an
        # in-place update swaps the map, so identity doubles as a guard
        self._posmap_expect: dict[str, object] = {}

    # -- generic -----------------------------------------------------------

    def monoid(self, name: str, params: tuple = ()):
        return get_monoid(name, params)

    def device_for(self, source: str):
        return self.devices.get(source) or self.devices.get("*")

    # -- generation-token adoption gates -----------------------------------

    def touch_generation(self, source: str) -> int:
        """Capture ``source``'s generation token at scan start (memoised
        per query). Everything this scan produces — posmap partials, index
        partials, cache columns — may only merge into shared state while
        the catalog still carries this token."""
        gen = self._generations.get(source)
        if gen is None:
            # setdefault: concurrent morsel workers agree on one token
            gen = self._generations.setdefault(
                source, self.catalog.get(source).generation)
        return gen

    def _generation_current(self, source: str) -> bool:
        """True when the captured token still matches the catalog's (call
        under the source lock for an atomic adopt-or-discard decision).

        Beyond the token compare, the file's current stat is checked against
        the catalog fingerprint: a mutation that happened *during* the scan
        has not bumped the generation yet (no refresh ran), but the partials
        were built over a mix of dead and live bytes — discard them."""
        gen = self._generations.get(source)
        if gen is None:
            return True
        entry = self.catalog.get(source)
        if gen != entry.generation:
            return False
        fp = getattr(entry, "fingerprint", None)
        path = getattr(entry.plugin, "path", None)
        if fp is not None and path is not None:
            try:
                if not fp.stat_matches(path):
                    return False
            except OSError:
                return False
        return True

    def _count_engine(self, **deltas: int) -> None:
        if self.engine is not None:
            deltas = {k: v for k, v in deltas.items() if v}
            if deltas:
                self.engine.count(**deltas)

    # -- morsel-parallel scan protocol ------------------------------------------

    def run_morsels(self, kernel, morsels: list, dop: int,
                    limited: bool = False) -> list:
        """Fan per-morsel kernels out over the scheduler; partials return in
        morsel order so callers merge deterministically.

        ``limited`` marks a LIMIT-countable fold (``bag``/``list`` driver):
        each partial's first element is its ordered output-row list, so once
        the morsel-ordered prefix carries ``row_limit`` rows the scheduler
        stops consuming and cancels pending morsels — the merged prefix
        holds the same first ``row_limit`` rows a full run would return.
        """
        stop = None
        if limited and self.row_limit is not None:
            target = self.row_limit
            seen = 0

            def stop(partial):
                nonlocal seen
                seen += len(partial[0])
                return seen >= target

        scheduler = MorselScheduler(dop)
        partials = scheduler.map(kernel, morsels, stop=stop)
        if len(partials) < len(morsels):
            # the query saw a prefix of the scan: suppress cache admission
            # (and posmap adoption skips the holes via finish_scan's guard).
            # In-flight morsels drain with their results discarded; only the
            # truly-unstarted ones count as cancelled.
            self.truncated = True
            if scheduler.cancelled:
                with self._lock:
                    self.stats.morsels_cancelled += scheduler.cancelled
        return partials

    def run_morsels_spec(self, module_source: str, worker: str, shared: dict,
                         morsels: list, dop: int, limited: bool = False) -> list:
        """Process-backend fan-out of a JIT parallel scan.

        Packages the generated module plus the worker's read-only closure
        state into a picklable :class:`~.procpool.KernelSpec`, runs it over
        the session's worker-process pool, and returns unpacked worker
        partials in morsel order — shaped exactly like the thread path's, so
        the generated merge loop is backend-agnostic. Worker stat deltas are
        flushed under the runtime lock and each worker's by-products are
        stored for :meth:`finish_scan`, mirroring the thread contract.
        """
        import functools

        from . import procpool

        spec = procpool.jit_spec(self, module_source, worker, shared)
        kernel = functools.partial(procpool.run_jit_morsel, pickle.dumps(spec))
        return self._run_spec(kernel, morsels, dop, limited)

    def run_morsels_plan(self, plan, shared_ix: dict, morsels: list, dop: int,
                         limited: bool = False) -> list:
        """Process-backend fan-out of a static-engine parallel scan: ships
        the pickled physical plan plus chain-indexed prebuilt join state."""
        import functools

        from . import procpool

        spec = procpool.static_spec(self, plan, shared_ix)
        kernel = functools.partial(procpool.run_static_morsel, pickle.dumps(spec))
        return self._run_spec(kernel, morsels, dop, limited)

    def _run_spec(self, kernel, morsels: list, dop: int, limited: bool) -> list:
        """Shared spec-kernel driver: schedule, take worker stat deltas and
        by-products in the parent (children never touch the parent's cache,
        maps or registries; :meth:`finish_scan` adopts or discards), unpack
        shared-memory columns, and return worker partials in morsel order."""
        from . import procpool
        from .scheduler import ProcessMorselScheduler

        stop = None
        if limited and self.row_limit is not None:
            target = self.row_limit
            seen = 0

            def stop(result):
                nonlocal seen
                # result[0] is the packed partial; its first element is the
                # ordered output-row list (len works on shm placeholders too)
                seen += len(result[0][0])
                return seen >= target

        scheduler = ProcessMorselScheduler(dop, self.process_pool)
        scheduler.discard = procpool.release_result
        results = scheduler.map(kernel, morsels, stop=stop)
        if len(results) < len(morsels):
            self.truncated = True
            if scheduler.cancelled:
                with self._lock:
                    self.stats.morsels_cancelled += scheduler.cancelled
        partials = []
        for morsel, (packed, deltas, byproducts) in zip(morsels, results):
            raw_rows, cleaned, skipped, cache_rows = deltas
            with self._lock:
                self.stats.raw_rows += raw_rows
                self.stats.cleaned_rows += cleaned
                self.stats.skipped_rows += skipped
                self.stats.cache_rows += cache_rows
                for src, part in byproducts.items():
                    self._byproducts.setdefault(src, {})[morsel] = part
            partials.append(procpool.unpack_partial(packed))
        return partials

    def account_raw(self, source: str) -> None:
        """File-level raw accounting for a parallel scan, charged once by
        the coordinator (split scans skip it so workers don't multiply it)."""
        entry = self.catalog.get(source)
        with self._lock:
            self.stats.raw_sources.add(source)
            self.stats.raw_bytes += os.path.getsize(entry.plugin.path)

    #: split multiplier for LIMIT-countable parallel folds: finer morsels
    #: mean the scheduler can stop sooner once the limit is satisfied
    LIMIT_OVERSPLIT = 4

    def scan_splits(self, source: str, dop: int, access: str = "cold",
                    fields: tuple = (), whole: bool = False,
                    limited: bool = False) -> list:
        """Morsels for a parallel scan of ``source`` (at most ``dop``).

        Cache scans split into row ranges over the (single, memoised)
        lookup; raw formats delegate to the plugin's splittable-range
        contract; anything else degrades to the single-morsel plan.
        ``limited`` + an active row limit over-partitions (more morsels than
        workers) so early termination has pending morsels to cancel.
        """
        parts = dop
        if limited and self.row_limit is not None:
            parts = dop * self.LIMIT_OVERSPLIT
        if access == "cache":
            data, _layout = self._cache_scan_once(source, tuple(fields), whole)
            count = len(data) if whole else (len(data[0]) if data else 0)
            return split_ranges(count, parts, "rows")
        self.touch_generation(source)
        plugin = self.catalog.get(source).plugin
        if hasattr(plugin, "posmap"):
            self._posmap_expect[source] = plugin.posmap
        splits = getattr(plugin, "scan_splits", None)
        if splits is None:
            return [MORSEL_ALL]
        return splits(parts)

    def finish_scan(self, source: str, splits: list) -> None:
        """Coordinator epilogue of a parallel scan: merge what its morsels
        left behind, in morsel order, and adopt or discard it. No-op for
        sources whose morsels recorded nothing."""
        parts = self._byproducts.pop(source, None)
        if parts:
            self._adopt_byproducts(source, parts, splits)

    # -- scan by-products: request, adopt or discard -------------------------

    def _stats_state(self, source: str) -> tuple | None:
        """(row count known?, known column names) for ``source``, or None
        when this runtime collects no statistics. Memoised per query so all
        morsels of one scan agree on the partial's shape (bit-identity
        across DoP depends on it)."""
        if source in self._stats_states:
            return self._stats_states[source]
        if self.table_stats is not None:
            gen = self.touch_generation(source)
            state = self.table_stats.known(source, gen)
        else:
            state = self._stats_hint.get(source)
        self._stats_states[source] = state
        return state

    def _request_byproducts(self, source: str, split, stat_fields=None,
                            index_fields: tuple = (), posmap_of=None):
        """The by-products one scan (or morsel) of ``source`` should leave
        behind, or None: a detached positional-map partial for a cold pass
        of CSV plugin ``posmap_of``, a value-index partial over
        ``index_fields`` when indexes are on, and a statistics partial over
        whichever ``stat_fields`` (None = collect none) the shared registry
        doesn't know yet — in the steady state scans carry none of it."""
        self.touch_generation(source)
        posmap = index = stats = None
        if posmap_of is not None and (
                split is None or split.kind in ("all", "bytes")):
            posmap = posmap_of.new_posmap_partial()
            if split is None:
                self._posmap_expect[source] = posmap_of.posmap
        if index_fields and self.indexes is not None:
            # byte morsels count rows from 0; adoption shifts them
            index = IndexPartial(index_fields, local_rows=split is not None
                                 and split.kind == "bytes")
        state = self._stats_state(source) if stat_fields is not None else None
        if state is not None:
            have_rows, known = state
            needed = tuple(f for f in stat_fields if f not in known)
            if needed or not have_rows:
                stats = StatsPartial(needed)
        if posmap is None and index is None and stats is None:
            return None
        return ScanByproducts(posmap, index, stats)

    def _adopt_byproducts(self, source: str, parts: dict, splits: list) -> None:
        """The one adopt-or-discard gate: merge a finished scan's by-products
        (``parts``: Morsel → ScanByproducts) in ``splits`` order and install
        every kind its coverage rule lets through — or none of them.

        One decision under the source lock: the generation token captured at
        scan start must still be the catalog's and the file's stat must still
        match it (a scan over since-mutated bytes poisons nothing). The map
        adopts only into the map object seen at scan start (one winner per
        concurrent cold race); indexes and statistics merge idempotently.
        """
        posmaps, indexes, stats = ScanByproducts.merge(
            parts, splits, untruncated=not self.truncated)
        if self.indexes is None:
            indexes = []
        if self.table_stats is None:
            stats = None
        if not (posmaps or indexes or stats is not None):
            return
        entry = self.catalog.get(source)
        mapped = grown = learned = False
        with self.catalog.source_lock(source):
            current = self._generation_current(source)
            if current:
                if posmaps:
                    mapped = entry.plugin.adopt_posmap_partials(
                        posmaps, expect=self._posmap_expect.get(source))
                if indexes:
                    grown = self.indexes.adopt(source, entry.generation,
                                               indexes)
                if stats is not None:
                    learned = self.table_stats.adopt(
                        source, entry.generation, stats, True)
        if grown:
            with self._lock:
                self.stats.index_builds += grown
        self._count_engine(
            posmap_adoptions=int(mapped),
            posmap_discards=int(bool(posmaps) and not mapped),
            index_adoptions=int(bool(grown)),
            index_discards=int(bool(indexes) and not current),
            stats_adoptions=int(learned),
            stats_discards=int(stats is not None and not current))

    def _stats_spec(self) -> tuple:
        """Per-source collection state shipped to worker processes: each
        child builds sinks for exactly the fields the parent is missing,
        so parent-side adoption converges instead of double-counting."""
        if self.table_stats is None:
            return ()
        out = []
        for source in sorted(self._generations):
            state = self._stats_state(source)
            if state is not None:
                have_rows, known = state
                out.append((source, bool(have_rows), tuple(sorted(known))))
        return tuple(out)

    def _cache_scan_once(self, source: str, fields: tuple, whole: bool):
        key = (source, fields, bool(whole))
        with self._lock:
            hit = self._cache_scan_memo.get(key)
            if hit is None:
                hit = self.cache_data(source, fields, whole)
                self._cache_scan_memo[key] = hit
        return hit

    # -- time travel: pinned-generation serving -----------------------------

    @staticmethod
    def _check_pinned_split(source: str, split) -> None:
        """Pinned scans are planned serial; reject real morsels defensively."""
        if split is not None and split.kind != "all":
            raise ExecutionError(
                f"pinned scans of {source!r} are serial; got a "
                f"{split.kind!r} morsel")

    def _pinned_csv_chunks(self, source: str, fields: tuple, batch_size: int,
                           whole: bool, split) -> "Iterator[Chunk]":
        """Serve a CSV scan AS OF a pinned generation.

        Live-prefix snapshots re-scan exactly the generation's byte range of
        the current file (append-only history keeps old bytes in place), cold
        and byproduct-free. Rewritten-away generations fall back to the cache
        entries pinned at invalidation time, sliced to the snapshot's rows.
        """
        self._check_pinned_split(source, split)
        snap = self.as_of[source]
        if not snap.live:
            yield from self._pinned_cached_chunks(source, snap, fields,
                                                  batch_size, whole)
            return
        plugin = self.catalog.get(source).plugin
        self.stats.raw_sources.add(source)
        self.stats.raw_bytes += max(0, snap.byte_size - plugin._data_start)
        cols = plugin.field_indexes(fields)
        names = tuple(plugin.columns)
        conv_cols = list(range(len(names))) if whole else cols
        count = 0
        for _start, lines in plugin.iter_line_batches(
                batch_size, device=self.device_for(source),
                byte_range=(plugin._data_start, snap.byte_size)):
            cells_rows = [line.split(plugin.options.delimiter)
                          for line in lines]
            columns = plugin.convert_batch(conv_cols, cells_rows) \
                if conv_cols else []
            count += len(cells_rows)
            if whole:
                records = [dict(zip(names, vals)) for vals in zip(*columns)] \
                    if columns else [{} for _ in cells_rows]
                picked = tuple(columns[c] for c in cols)
                yield Chunk(fields, picked, len(cells_rows), whole=records)
            elif cols:
                yield Chunk(fields, tuple(columns), len(cells_rows))
            else:
                yield Chunk((), (), len(cells_rows))
        self.stats.raw_rows += count

    def _pinned_json_chunks(self, source: str, paths: tuple, batch_size: int,
                            whole: bool, split) -> "Iterator[Chunk]":
        """Serve a JSON scan AS OF a pinned generation (live-prefix spans
        re-parsed from the head of the current file, or pinned cache
        slices for rewritten-away generations)."""
        self._check_pinned_split(source, split)
        snap = self.as_of[source]
        if not snap.live:
            yield from self._pinned_cached_chunks(source, snap, paths,
                                                  batch_size, whole)
            return
        import json as _json

        from ...storage import RawFile
        plugin = self.catalog.get(source).plugin
        self.stats.raw_sources.add(source)
        self.stats.raw_bytes += snap.byte_size
        with RawFile(plugin.path, device=self.device_for(source)) as raw:
            data = raw.read_at(0, snap.byte_size)
        if plugin.has_semi_index():
            spans = [s for s in plugin.semi_index.spans
                     if s.end <= snap.byte_size]
        else:
            from ...formats.jsonfmt.semi_index import JSONSemiIndex
            spans = list(JSONSemiIndex.build(data).spans)
        encoding = plugin.options.encoding
        count = 0
        for i in range(0, len(spans), batch_size):
            group = spans[i:i + batch_size]
            objs = [_json.loads(data[s.start:s.end].decode(encoding))
                    for s in group]
            columns = plugin.project_paths(objs, paths) if paths else []
            count += len(objs)
            yield Chunk(paths, tuple(columns), len(objs),
                        whole=objs if whole else None)
        self.stats.raw_rows += count

    def _pinned_cached_chunks(self, source: str, snap, fields: tuple,
                              batch_size: int, whole: bool
                              ) -> "Iterator[Chunk]":
        """Serve a rewritten-away generation from the cache entries pinned
        when its file content was invalidated, sliced to the snapshot's row
        count (every live snapshot at pin time was a row-prefix of the
        pinned total). Raises :class:`GenerationError` when nothing pinned
        covers the requested shape — the generation's rows are gone."""
        import json as _json

        pinned = snap.pinned
        n = snap.row_count
        if pinned is None or n is None or pinned.total_rows is None:
            raise GenerationError(
                f"generation {snap.generation} of {source!r} is no longer "
                "materializable: the file was rewritten and no pinned data "
                "covers it")
        candidates = [c for c in pinned.cached
                      if c.count == pinned.total_rows]
        if not whole and fields:
            for c in candidates:
                if c.layout == "columns" and all(f in c.fields
                                                 for f in fields):
                    self.stats.cache_sources.add(source)
                    self.stats.cache_rows += n
                    for i in range(0, n, batch_size):
                        yield Chunk(fields,
                                    tuple(c.data[f][i:min(n, i + batch_size)]
                                          for f in fields),
                                    min(n, i + batch_size) - i)
                    return
        objs = None
        for c in candidates:
            if c.fields:
                continue
            if c.layout == "objects":
                objs = c.data[:n]
                break
            if c.layout == "json_text":
                objs = [_json.loads(t) for t in c.data[:n]]
                break
        if objs is not None:
            from ...formats.jsonfmt.plugin import JSONSource
            self.stats.cache_sources.add(source)
            self.stats.cache_rows += n
            for i in range(0, n, batch_size):
                group = objs[i:i + batch_size]
                columns = JSONSource.project_paths(group, fields) \
                    if fields else []
                yield Chunk(fields, tuple(columns), len(group),
                            whole=group if whole else None)
            return
        if not fields and not whole:
            # pure row-count service needs no pinned values at all
            self.stats.cache_sources.add(source)
            self.stats.cache_rows += n
            yield Chunk((), (), n)
            return
        raise GenerationError(
            f"generation {snap.generation} of {source!r} is no longer "
            f"materializable: no pinned cache entry covers fields {fields!r}")

    # -- memory sources -----------------------------------------------------------

    def memory(self, source: str):
        entry = self.catalog.get(source)
        if entry.data is None:
            raise ExecutionError(f"source {source!r} is not an in-memory collection")
        self.stats.cache_rows += len(entry.data)
        return entry.data

    # -- cache access -----------------------------------------------------------

    def cache_data(self, source: str, fields: tuple, whole: bool):
        """Serve a scan from the cache; returns (data, layout).

        For field projections the result is a list of column lists aligned
        with ``fields``; for whole-element service it is an iterable of
        elements.
        """
        if whole:
            entry = self.cache.lookup(source, [], layouts=("objects", "bson", "json_text"))
        else:
            entry = self.cache.lookup(source, list(fields))
        if entry is None:
            raise ExecutionError(
                f"planner chose cache access for {source!r} but no entry covers "
                f"fields {fields!r}"
            )
        cached = entry.cached
        self.stats.cache_sources.add(source)
        self.stats.cache_rows += cached.count
        if whole:
            if cached.layout in ("objects", "bson", "json_text"):
                return [row[0] for row in cached.iter_rows(None)], cached.layout
            raise ExecutionError(
                f"cache entry for {source!r} has layout {cached.layout!r}, "
                "cannot serve whole elements"
            )
        if cached.layout == "columns":
            return [cached.data[f] for f in fields], "columns"
        cols: list[list] = [[] for _ in fields]
        for row in cached.iter_rows(fields):
            for i, v in enumerate(row):
                cols[i].append(v)
        return cols, cached.layout

    def admit_columns(self, source: str, fields: tuple, columns: tuple) -> None:
        """Admit piggybacked columnar data gathered during a raw scan.

        Whole column batches go straight into the cache — no per-row tuple
        round-trip (the batch pipeline's population lists are adopted as-is).
        A LIMIT-truncated execution saw only a prefix of the source, so
        nothing is admitted (a partial column must never pose as complete).
        """
        if self.truncated or source in self.as_of:
            return
        with self.catalog.source_lock(source):
            if not self._generation_current(source):
                self._count_engine(stale_admissions_dropped=1)
                return
            self.cache.put_columns(source, fields, columns)
            self._settle_rent(source)

    def admit_elements(self, source: str, layout: str, elements: list) -> None:
        if self.truncated or source in self.as_of:
            return
        with self.catalog.source_lock(source):
            if not self._generation_current(source):
                self._count_engine(stale_admissions_dropped=1)
                return
            self.cache.put(source, layout, (), elements)
            self._settle_rent(source)

    def _settle_rent(self, source: str) -> None:
        """A full scan of ``source`` just offered its columns to the cache:
        what index fetches were renting has been bought — or refused, and
        then the next offer waits for another scan's worth of rent."""
        if self.indexes is not None:
            self.indexes.settle(source)

    # -- chunked scan protocol (shared by both engines) ------------------------

    def cache_chunks(self, source: str, fields: tuple, whole: bool,
                     split=None, lookup: tuple | None = None):
        """Serve a cached scan as one zero-copy chunk view.

        Columnar entries are wrapped without copying a value; row/object
        layouts are columnarised once. Returns a list so callers iterate a
        uniform chunk stream regardless of access path. ``split`` serves a
        row-range chunk view of the (memoised, shared) lookup instead —
        morsel workers each slice their rows off one cache entry.

        ``lookup`` is the planner's value-index probe for this scan: when
        the index can serve it, only its candidates (and whatever rows it
        has not covered) are handed over, gathered from the cached columns
        (:meth:`_gathered_chunks`); otherwise the full view is.
        """
        if source in self.as_of:
            raise GenerationError(
                f"live cache entries cannot serve {source!r} AS OF a pinned "
                "generation")
        if split is None:
            if lookup is not None:
                # before the snapshot: an index peeked at this token then
                # describes the snapshot's rows or an append's extension of
                # them, never the rows of a file rewritten in between
                self.touch_generation(source)
            data, layout = self.cache_data(source, fields, whole)
            if lookup is not None and layout == "columns":
                chunks = self._gathered_chunks(source, tuple(fields), data,
                                               lookup)
                if chunks is not None:
                    return chunks
        else:
            data, _layout = self._cache_scan_once(source, tuple(fields), whole)
            if split.kind == "rows":
                if whole:
                    data = data[split.lo:split.hi]
                else:
                    data = [col[split.lo:split.hi] for col in data]
            elif split.kind != "all":
                raise ExecutionError(
                    f"cache scans cannot interpret a {split.kind!r} morsel"
                )
        if whole:
            return [Chunk((), (), len(data), whole=data)]
        length = len(data[0]) if data else 0
        return [Chunk(tuple(fields), tuple(data), length)]

    def _probe(self, source: str, lookup: tuple | None, total: int):
        """Resolve an index probe over rows ``[0, total)`` of ``source``:
        ``(candidate rows, uncovered ranges)``, or None when the probe
        cannot be served (no index at the generation captured for this
        query, or a probe type it has no ordered run for). Coverage is read
        before the candidates: a concurrent adoption files its keys before
        it widens the coverage, so every row of a range seen covered here is
        among the candidates."""
        if self.indexes is None or lookup is None:
            return None
        idx = self.indexes.peek(source, self.touch_generation(source),
                                lookup[1])
        if idx is None:
            return None
        holes = idx.uncovered_ranges(total)
        rows = idx.lookup(lookup)
        if rows is None:
            return None
        return rows, holes

    @staticmethod
    def _file_rows(entry) -> int | None:
        """How many rows (top-level objects) ``entry``'s file holds, read off
        its positional structure; None while that is not built — this never
        reads the file."""
        plugin = entry.plugin
        if entry.format == "csv":
            posmap = plugin.posmap
            return len(posmap.row_offsets) if posmap.complete else None
        if entry.format == "json" and plugin.has_semi_index():
            return plugin.object_count()
        return None

    @staticmethod
    def _row_order(rows: list, holes: list, total: int):
        """Walk candidates and holes in ascending row order: yields
        ``(candidates before the hole, (lo, hi))`` per uncovered range and
        once more for the candidates after the last one (``lo == hi``) —
        the order a sequential scan would meet the same rows in."""
        pos = 0
        for lo, hi in holes + [(total, total)]:
            j = bisect.bisect_left(rows, lo, pos)
            yield rows[pos:j], (lo, hi)
            # candidates can't live inside an uncovered hole; skip defensively
            pos = bisect.bisect_left(rows, hi, j)

    def _gathered_chunks(self, source: str, fields: tuple, data: list,
                         lookup: tuple) -> list | None:
        """An index probe over cached columns (``access=cache+index``).

        ``data`` is the cached column snapshot the scan would otherwise
        stream in full. Candidates are gathered per column and interleaved,
        in ascending row order, with plain slices of the ranges the index
        has not covered — the rows a full scan would filter down to, in the
        order it would meet them, so the predicate recheck the engines keep
        makes the answer bit-identical. Candidates at or past the snapshot's
        length are dropped: a concurrent delta refresh extends the index in
        place but *replaces* the cached entry."""
        length = len(data[0]) if data else 0
        if length != self._file_rows(self.catalog.get(source)):
            # the cache is shared and keeps whatever row universe a scan
            # admitted: a tenant whose cleaning policy skips rows leaves
            # compacted columns, and position i of those is not file row i
            return None
        probe = self._probe(source, lookup, length)
        if probe is None:
            return None
        rows, holes = probe
        del rows[bisect.bisect_left(rows, length):]
        chunks = []
        for cand, (lo, hi) in self._row_order(rows, holes, length):
            if len(cand) == 1:
                chunks.append(Chunk(fields,
                                    tuple([col[cand[0]]] for col in data), 1))
            elif cand:
                pick = itemgetter(*cand)
                chunks.append(Chunk(fields,
                                    tuple(list(pick(col)) for col in data),
                                    len(cand)))
            if hi > lo:
                chunks.append(Chunk(fields,
                                    tuple(col[lo:hi] for col in data),
                                    hi - lo))
        with self._lock:
            self.stats.index_hits += 1
            self.stats.index_rows_served += len(rows)
            # cache_data counted the whole entry; only these were handed over
            self.stats.cache_rows -= length - sum(c.length for c in chunks)
        return chunks

    def _scan(self, source: str, chunks, split=None, byproducts=None,
              counts: ExecStats | None = None, timing: tuple | None = None,
              own: bool = False):
        """The one body of a raw scan: what every ``*_chunks`` does around
        its plugin call.

        A serial scan (``split`` None) is the one-morsel case of a parallel
        one: it charges the file's bytes itself (a morsel leaves that to the
        coordinator's :meth:`account_raw`), records the wall-clock spent
        *inside* the plugin iterator for cost calibration (``timing``:
        format, access, field count; consumer time excluded, and morsels
        overlap, so theirs isn't wall-clock) and, being the whole scan — as
        is a morsel that is ``own`` — puts its by-products through the
        adopt-or-discard gate when it runs to the end; any other morsel
        stashes them for :meth:`finish_scan`. An abandoned scan (LIMIT)
        records and adopts nothing. Row and cleaning counters (``counts``,
        filled by a :class:`_CountingPolicy`) accumulate scan-locally and
        flush once under the runtime lock — rows the policy dropped were
        still physically scanned. A plugin without a file behind it (a DBMS
        store) serves already-loaded rows: they count as ``cache_rows``.
        """
        own = own or split is None
        path = getattr(self.catalog.get(source).plugin, "path", None)
        if split is None and path is not None:
            with self._lock:
                self.stats.raw_sources.add(source)
                self.stats.raw_bytes += os.path.getsize(path)
        count = nchunks = 0
        elapsed = 0.0
        it = iter(chunks)
        while True:
            t0 = perf_counter()
            chunk = next(it, None)
            elapsed += perf_counter() - t0
            if chunk is None:
                break
            count += chunk.scanned if chunk.scanned is not None \
                else chunk.selected_length
            nchunks += 1
            yield chunk
        with self._lock:
            if split is None and timing is not None:
                fmt, access, nfields = timing
                self.scan_timings.append(ScanTiming(
                    source, fmt, access, count, nfields, nchunks, elapsed))
            if counts is not None:
                count += counts.skipped_rows
                self.stats.cleaned_rows += counts.cleaned_rows
                self.stats.skipped_rows += counts.skipped_rows
            if path is None:
                self.stats.cache_rows += count
            else:
                self.stats.raw_rows += count
            if byproducts is not None and not own:
                self._byproducts.setdefault(source, {})[split] = byproducts
        if byproducts is not None and own:
            key = split if split is not None else MORSEL_ALL
            self._adopt_byproducts(source, {key: byproducts}, [key])

    def _unpinnable(self, source: str) -> None:
        if source in self.as_of:
            raise GenerationError(
                f"source {source!r} has format "
                f"{self.catalog.get(source).format!r}, which does not "
                "support AS OF generation pinning")

    def csv_chunks(
        self,
        source: str,
        fields: tuple,
        access: str | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
        split=None,
        pred_fields: tuple = (),
        pred_kernel=None,
        index_fields: tuple = (),
    ):
        """Batched CSV scan: converted column chunks with piggybacked
        positional-map population (cold) and batch-level cleaning.
        ``access`` defaults to the map's state (warm once it is complete).

        ``index_fields`` requests value-index by-product emission: the
        plugin records those columns' converted values while scanning, and
        they are adopted into the session registry when the scan (or, for
        morsels, the coordinator's :meth:`finish_scan`) completes. Index and
        statistics emission is suppressed under cleaning policies —
        repaired/skipped rows would desynchronise values from physical rows.

        ``pred_fields``/``pred_kernel`` forward a selection-pushdown filter
        to the plugin's warm navigated path (late materialization); chunks
        then arrive as dense predicate survivors with ``Chunk.scanned``
        carrying the physical row count for accounting."""
        if source in self.as_of:
            return self._pinned_csv_chunks(source, tuple(fields),
                                           batch_size, whole, split)
        plugin = self.catalog.get(source).plugin
        if access is None:
            access = "warm" if plugin.posmap.complete else "cold"
        # a projection that touches no raw attribute cannot fail conversion
        clean = self.cleaning.get(source) if (fields or whole) else None
        # statistics cover the materialised columns (all of them on a
        # whole-row binding)
        sfields = tuple(fields) if fields \
            else (tuple(plugin.columns) if whole else ())
        byproducts = self._request_byproducts(
            source, split, sfields if clean is None else None,
            index_fields if clean is None else (),
            posmap_of=plugin if access == "cold" else None)
        counts = None
        if clean is not None:
            counts = ExecStats()
            clean = _CountingPolicy(clean, counts, self._lock)
        chunks = plugin.scan_chunks(
            fields, batch_size=batch_size, device=self.device_for(source),
            clean=clean, whole=whole, access=access, split=split,
            pred_fields=pred_fields, pred_kernel=pred_kernel,
            byproducts=byproducts)
        return self._scan(source, chunks, split, byproducts, counts,
                          timing=("csv", access, len(sfields)))

    def json_chunks(
        self,
        source: str,
        paths: tuple = (),
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
        split=None,
        index_fields: tuple = (),
    ):
        """Batched JSON scan: dotted-path column chunks and/or whole objects.

        ``index_fields`` requests value-index by-product emission over those
        dotted paths (JSON rows are semi-index span numbers, always global,
        so morsel partials never need shifting)."""
        if source in self.as_of:
            return self._pinned_json_chunks(source, tuple(paths),
                                            batch_size, whole, split)
        plugin = self.catalog.get(source).plugin
        byproducts = self._request_byproducts(source, split, tuple(paths),
                                              index_fields)
        access = "warm" if plugin.has_semi_index() else "cold"
        chunks = plugin.scan_chunks(paths, batch_size=batch_size,
                                    device=self.device_for(source),
                                    whole=whole, split=split,
                                    byproducts=byproducts)
        return self._scan(source, chunks, split, byproducts,
                          timing=("json", access, len(paths)))

    def index_chunks(
        self,
        source: str,
        fields: tuple,
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
        lookup: tuple | None = None,
        emit_fields: tuple = (),
    ):
        """Serve a scan through a JIT value index (``access=index``).

        Candidate rows matching the ``lookup`` spec are resolved through the
        session registry and fetched positionally (posmap seek for CSV,
        semi-index span assembly for JSON); row ranges the index has not
        covered yet are scanned in full — with byproduct emission on, so
        coverage converges toward 100% across queries. Candidate fetches and
        uncovered-range scans interleave in ascending row order, making the
        emitted row stream bit-identical to a full sequential scan's. The
        caller keeps the original predicate as a recheck, so candidate
        false positives (hash-equality quirks, multi-conjunct predicates)
        and uncovered-range rows are filtered exactly as a scan would.

        Degrades to the plain chunked scan when the registry went stale
        between planning and execution or the probe type is unservable.
        """
        if source in self.as_of:
            # pinned scans never ride a live index (it describes the live
            # generation) and never emit byproducts
            fmt = self.catalog.get(source).format
            if fmt == "csv":
                yield from self.csv_chunks(source, fields,
                                           batch_size=batch_size, whole=whole)
            else:
                yield from self.json_chunks(source, fields,
                                            batch_size=batch_size, whole=whole)
            return
        entry = self.catalog.get(source)
        fmt = entry.format
        gen = self.touch_generation(source)
        total = self._file_rows(entry)
        probe = None if total is None \
            else self._probe(source, lookup, total)
        if probe is None:
            if fmt == "csv":
                yield from self.csv_chunks(
                    source, fields, access="warm", batch_size=batch_size,
                    whole=whole, index_fields=emit_fields,
                )
            else:
                yield from self.json_chunks(
                    source, fields, batch_size=batch_size, whole=whole,
                    index_fields=emit_fields,
                )
            return
        rows, holes = probe
        self.stats.index_hits += 1
        self.stats.raw_sources.add(source)
        device = self.device_for(source)
        served = 0
        for cand, (lo, hi) in self._row_order(rows, holes, total):
            for i in range(0, len(cand), batch_size):
                batch = cand[i:i + batch_size]
                yield self._fetch_rows_chunk(entry, batch, fields, whole,
                                             device)
                served += len(batch)
            if hi > lo:
                yield from self._index_hole_scan(entry, lo, hi, fields, whole,
                                                 batch_size, emit_fields,
                                                 device)
        self.stats.index_rows_served += served
        self.stats.raw_rows += served
        # rent: these rows were read from the file because their columns
        # are not cached; the planner buys once the rent has paid for a scan
        self.indexes.rent(source, gen, served, total)

    def _fetch_rows_chunk(self, entry, rows: list, fields: tuple,
                          whole: bool, device) -> Chunk:
        """Positionally fetch ``rows`` (global row/span numbers) as one
        dense chunk, mirroring the shapes the plain chunked scans yield."""
        plugin = entry.plugin
        fields = tuple(fields)
        if entry.format == "csv":
            if whole:
                names = tuple(plugin.columns)
                cols = plugin.fetch_rows(rows, names, device=device)
                records = [dict(zip(names, vals)) for vals in zip(*cols)]
                picked = tuple(cols[names.index(f)] for f in fields)
                return Chunk(fields, picked, len(rows), whole=records)
            if not fields:
                return Chunk((), (), len(rows))
            cols = plugin.fetch_rows(rows, fields, device=device)
            return Chunk(fields, tuple(cols), len(rows))
        spans = [plugin.semi_index[i] for i in rows]
        objs = plugin.assemble(spans, device=device)
        cols = tuple(plugin.project_paths(objs, list(fields))) if fields \
            else ()
        if whole:
            return Chunk(fields, cols, len(objs), whole=objs)
        return Chunk(fields, cols, len(objs))

    def _index_hole_scan(self, entry, lo: int, hi: int, fields: tuple,
                         whole: bool, batch_size: int, emit_fields: tuple,
                         device):
        """Full scan of one uncovered row range during an index-served scan,
        emitting index by-products so the range is covered next time."""
        plugin = entry.plugin
        csv = entry.format == "csv"
        split = Morsel("rows" if csv else "spans", lo, hi, start_row=lo)
        byproducts = self._request_byproducts(entry.name, split,
                                              index_fields=emit_fields)
        kwargs = {"access": "warm"} if csv else {}
        chunks = plugin.scan_chunks(
            fields, batch_size=batch_size, device=device, whole=whole,
            split=split, byproducts=byproducts, **kwargs)
        return self._scan(entry.name, chunks, split, byproducts, own=True)

    def array_chunks(
        self,
        source: str,
        fields: tuple = (),
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
        split=None,
    ):
        """Batched binary-array scan (fused-struct batch decode)."""
        self._unpinnable(source)
        byproducts = self._request_byproducts(source, split, tuple(fields))
        chunks = self.catalog.get(source).plugin.scan_chunks(
            fields, batch_size=batch_size, device=self.device_for(source),
            whole=whole, split=split, byproducts=byproducts)
        return self._scan(source, chunks, split, byproducts,
                          timing=("array", "cold", len(fields)))

    def xls_chunks(
        self,
        source: str,
        fields: tuple = (),
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
    ):
        """Batched workbook scan of the source's registered sheet."""
        self._unpinnable(source)
        entry = self.catalog.get(source)
        chunks = entry.plugin.scan_chunks(
            entry.description.options.get("sheet"), fields,
            batch_size=batch_size, device=self.device_for(source),
            whole=whole)
        return self._scan(source, chunks)

    # -- DBMS sources -----------------------------------------------------------

    def dbms_chunks(
        self,
        source: str,
        fields: tuple = (),
        batch_size: int = DEFAULT_BATCH_SIZE,
        whole: bool = False,
    ):
        """Batched scan of a registered DBMS source (full scans only; index
        lookups stay row-at-a-time via :meth:`dbms_rows`). The store is not
        a raw file: its rows count as already-loaded (``cache_rows``)."""
        self._unpinnable(source)
        chunks = self.catalog.get(source).plugin.scan_chunks(
            fields or None, batch_size=batch_size, whole=whole)
        return self._scan(source, chunks)

    def dbms_rows(self, source: str, fields: tuple, index_eq: tuple | None):
        """Scan a registered DBMS source; uses the store index when the
        planner pushed an equality down (paper §2.1)."""
        plugin = self.catalog.get(source).plugin
        count = 0
        if index_eq is not None:
            if len(index_eq) == 3 and index_eq[2] == "in":
                field_name, values, _ = index_eq
                # dict.fromkeys dedupes hash-equal probes (1 vs 1.0) so a
                # record never surfaces twice for one IN-list
                for value in dict.fromkeys(values):
                    for doc in plugin.index_lookup(field_name, value):
                        yield doc
                        count += 1
            else:
                field_name, value = index_eq
                for doc in plugin.index_lookup(field_name, value):
                    yield doc
                    count += 1
        else:
            for record in plugin.scan(list(fields) or None):
                yield record
                count += 1
        self.stats.cache_rows += count

    # -- generic element iterator (sub-queries, interpreter) -------------------

    def iter_source(self, source: str):
        """Yield every element of a source as a record-like value, over the
        same chunked scans top-level plans use (``whole=True``): CSV, array
        and xls rows surface as dicts so path navigation works uniformly;
        JSON objects, DBMS records and memory elements pass through."""
        entry = self.catalog.get(source)
        if entry.data is not None:
            yield from self.memory(source)
            return
        scans = {"csv": self.csv_chunks, "json": self.json_chunks,
                 "array": self.array_chunks, "xls": self.xls_chunks,
                 "dbms": self.dbms_chunks}
        if entry.format not in scans:
            raise ExecutionError(
                f"cannot iterate source of format {entry.format!r}")
        for chunk in scans[entry.format](source, (), whole=True):
            yield from chunk.iter_whole()
