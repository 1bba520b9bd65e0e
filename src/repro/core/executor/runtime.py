"""Query runtime: the services generated (and interpreted) plans call into.

A fresh :class:`QueryRuntime` is created per query execution. It owns no
data itself — it mediates access to the catalog's plugins and source states
(cache entries, value indexes, statistics), the session-wide
:class:`~repro.caching.DataCache`, cleaning policies, and optional simulated
devices, while accounting execution statistics (raw rows parsed, cache rows
served, raw bytes touched) that the benchmarks report.
"""

from __future__ import annotations

import bisect
import functools
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from operator import itemgetter
from time import perf_counter

from ...caching import DataCache
from ...errors import ExecutionError, GenerationError
from ...formats.descriptions import NULL_TOKENS
from ...indexing import IndexPartial
from ...mcc.monoids import get_monoid
from ...stats import ScanTiming, StatsPartial
from ..byproducts import CachePartial, ScanByproducts
from ..chunk import MORSEL_ALL, Chunk, Morsel
from ..physical import PhysScan
from .scheduler import ProcessMorselScheduler


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
    the scan ends.
    """

    def __init__(self, policy, counts: "ExecStats"):
        self._policy = policy
        self.counts = counts
        self.validate_always = bool(getattr(policy, "validate_always", False))

    def repair(self, plugin, row: int, cells: list, cols: list):
        repaired = self._policy.repair(plugin, row, cells, list(cols))
        if repaired is None:
            self.counts.skipped_rows += 1
        else:
            self.counts.cleaned_rows += 1
        return repaired


# -- how a parallel scan's morsel partials combine, always in morsel order --


def _merge_fold(monoid, partials):
    """Partials are the root monoid's own accumulators."""
    acc = monoid.zero()
    for part in partials:
        acc = monoid.merge(acc, part)
    return acc


def _merge_tables(_monoid, partials) -> dict:
    """Partial hash tables: each key's build rows extend in morsel order —
    the serial insertion order."""
    table: dict = {}
    for part in partials:
        for key, rows in part.items():
            have = table.get(key)
            if have is None:
                table[key] = rows
            else:
                have.extend(rows)
    return table


def _merge_groups(monoid, partials) -> dict:
    """Partial groups (hashable key → (raw key, accumulator)): each key
    merges through the group monoid; its first occurrence fixes its place
    and raw key, as serially."""
    groups: dict = {}
    for part in partials:
        for key, (raw, acc) in part.items():
            have = groups.get(key)
            groups[key] = (raw, acc) if have is None \
                else (have[0], monoid.merge(have[1], acc))
    return groups


#: merge kind → merge rule (:meth:`QueryRuntime.run_parallel`)
MERGES = {"fold": _merge_fold, "table": _merge_tables,
          "groups": _merge_groups}


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
        indexes: bool = False,
        engine=None,
        table_stats: bool = False,
        stats_hint: dict | None = None,
        as_of: dict | None = None,
    ):
        self.catalog = catalog
        self.cache = cache
        #: time travel: source → pinned :class:`GenerationSnapshot`. Scans of
        #: a pinned source serve that generation's rows — the ordinary scan
        #: bounded to its live prefix, or pinned cache slices — and request
        #: no by-products: nothing a pinned query produces may leak into
        #: live shared state
        self.as_of = as_of or {}
        #: owning :class:`~repro.core.engine.EngineContext` (None in worker
        #: children and standalone uses) — receives cross-tenant sharing
        #: counters from the adopt-or-discard merge points
        self.engine = engine
        #: JIT value indexes on: scans probe their source state's indexes and
        #: emit index partials (worker-process children run with them off,
        #: so index emission degrades to a no-op there)
        self.indexes = indexes
        self.cleaning = cleaning or {}
        self.devices = devices or {}
        #: session-lifetime worker-process pool, present when the session was
        #: opened with ``parallelism > 1`` (scans the planner marked
        #: ``parallel`` fan their kernel specs out through it)
        self.process_pool = process_pool
        #: (engine name, physical plan) of the query being run, set by the
        #: engine that runs it: what a parallel scan ships so worker
        #: processes build the same morsel workers
        self.program: tuple | None = None
        self.stats = ExecStats()
        #: SQL LIMIT (or query(limit=...)) — lets LIMIT-countable parallel
        #: folds stop consuming morsels once enough rows are in hand
        self.row_limit = row_limit
        #: True once a limited scan stopped early: the query saw a prefix of
        #: the source, so cache admissions must be suppressed
        self.truncated = False
        # by-products of the morsel a worker process ran, shipped home for
        # run_parallel's ordered merge (source → ScanByproducts)
        self._byproducts: dict[str, object] = {}
        #: adaptive statistics on: scans collect what their source state's
        #: table stats miss (off, ``stats_hint`` may still carry a worker
        #: child's marching orders: source → (have_rows, known fields), so
        #: children collect exactly what the parent is missing)
        self.table_stats = table_stats
        self._stats_hint = stats_hint or {}
        # per-source collection state memoised at first touch so every
        # morsel of one scan builds identically-shaped stats partials
        self._stats_states: dict[str, tuple | None] = {}
        #: measured per-scan wall-clock timings (serial scans only — morsel
        #: workers overlap, so their per-worker times aren't wall-clock);
        #: the session feeds these into the shared CostCalibration
        self.scan_timings: list[ScanTiming] = []
        # source → (catalog entry, generation token) captured at its first
        # scan: the one name resolution of the query (touch_generation)
        self._touched: dict[str, tuple] = {}
        # the posmap object observed at scan start, per source — an
        # in-place update swaps the map, so identity doubles as a guard
        self._posmap_expect: dict[str, object] = {}

    # -- generic -----------------------------------------------------------

    def monoid(self, name: str, params: tuple = ()):
        return get_monoid(name, params)

    def device_for(self, source: str):
        return self.devices.get(source) or self.devices.get("*")

    # -- generation-token adoption gates -----------------------------------

    def touch_generation(self, source: str) -> tuple:
        """Resolve ``source`` once per query, at its first scan: ``(catalog
        entry, generation token)``. Every later step — cache reads, index
        probes, rent, statistics, the by-product gate — uses that entry's
        state and token, never the name again. What a scan produces merges
        into the state only while it still carries the token; a source
        rewritten, deregistered or re-registered meanwhile is a state the
        token no longer matches."""
        hit = self._touched.get(source)
        if hit is None:
            entry = self.catalog.get(source)
            hit = self._touched[source] = (entry, entry.generation)
        return hit

    @staticmethod
    def _generation_current(entry, token) -> bool:
        """True when ``token`` is still ``entry``'s live generation (call
        under its state's lock for an atomic adopt-or-discard decision).

        Beyond the token compare, the file's current stat is checked against
        the catalog fingerprint: a mutation that happened *during* the scan
        has not moved the generation yet (no refresh ran), but the partials
        were built over a mix of dead and live bytes — discard them."""
        if token != entry.state.generation:
            return False
        fp = entry.fingerprint
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

    # -- the morsel driver: one parallel scan, start to finish ---------------

    def run_parallel(self, node: PhysScan, worker, shared: dict,
                     merge: tuple):
        """One parallel scan of ``node``, start to finish: the one
        coordinator both engines call. The engine supplies only
        ``worker(rt, shared, split)``, which returns one morsel's partial,
        and ``shared``, the read-only state it built first (hash tables, NL
        inner rows), keyed by names that survive pickling.

        The driver charges the file's bytes once (:meth:`account_raw`), asks
        for splits and ships the query's ``program`` and the worker's name
        to the worker processes; each builds the worker with the same
        engine and returns its morsel's partial with what the morsel counted
        and left behind. Partials merge in morsel order by ``merge = (kind,
        monoid)`` (:data:`MERGES`), what the morsels left behind goes
        through the by-product gate, and the merged partial is returned.

        A ``bag``/``list`` fold under a row limit is LIMIT-countable: its
        splits over-partition and the scheduler stops once the
        morsel-ordered prefix holds ``row_limit`` rows — the first rows a
        full run would return. A worker process dying resets the pool and
        fails the query with :class:`ExecutionError`; the next query runs
        on fresh workers.
        """
        from . import procpool

        kind, monoid = merge
        source = node.source
        self.account_raw(source)
        limited = kind == "fold" and monoid.name in ("bag", "list") \
            and self.row_limit is not None
        splits = self._scan_splits(node, limited)
        spec = pickle.dumps(procpool.kernel_spec(self, worker, shared))
        kernel = functools.partial(procpool.run_morsel, spec)
        scheduler = ProcessMorselScheduler(node.parallel, self.process_pool)
        stop = None
        if limited:
            seen = 0

            def stop(result):
                nonlocal seen
                # a morsel returns (partial, deltas, by-products)
                seen += len(result[0])
                return seen >= self.row_limit

        try:
            results = scheduler.map(kernel, splits, stop=stop)
        except BrokenProcessPool as exc:
            self.process_pool.shutdown(permanent=False)
            raise ExecutionError(procpool.worker_died(
                f"during the parallel scan of {source!r}")) from exc
        if len(results) < len(splits):
            # the query saw a prefix of the scan: suppress cache admission
            # (and posmap adoption skips the holes). In-flight morsels
            # drained with their results discarded; only the truly-unstarted
            # ones count as cancelled.
            self.truncated = True
            self.stats.morsels_cancelled += scheduler.cancelled
        partials, parts = [], {}
        for morsel, (partial, deltas, byproducts) in zip(splits, results):
            raw_rows, cleaned, skipped, cache_rows = deltas
            self.stats.raw_rows += raw_rows
            self.stats.cleaned_rows += cleaned
            self.stats.skipped_rows += skipped
            self.stats.cache_rows += cache_rows
            if source in byproducts:
                parts[morsel] = byproducts[source]
            partials.append(partial)
        merged = MERGES[kind](monoid, partials)
        if parts:
            self._adopt_byproducts(source, parts, splits)
        return merged

    def account_raw(self, source: str) -> None:
        """File-level raw accounting for a parallel scan, charged once by
        the coordinator (split scans skip it so workers don't multiply it)."""
        entry, _token = self.touch_generation(source)
        self.stats.raw_sources.add(source)
        self.stats.raw_bytes += os.path.getsize(entry.plugin.path)

    #: split multiplier for LIMIT-countable parallel folds: finer morsels
    #: mean the scheduler can stop sooner once the limit is satisfied
    LIMIT_OVERSPLIT = 4

    def _scan_splits(self, node: PhysScan, limited: bool) -> list:
        """Morsels for a parallel scan of ``node`` (at most its ``parallel``).

        Raw formats delegate to the plugin's splittable-range contract;
        anything else degrades to the single-morsel plan. ``limited``
        over-partitions (more morsels than workers) so early termination
        has pending morsels to cancel.
        """
        parts = node.parallel
        if limited:
            parts *= self.LIMIT_OVERSPLIT
        source = node.source
        plugin = self.touch_generation(source)[0].plugin
        if hasattr(plugin, "posmap"):
            self._posmap_expect[source] = plugin.posmap
        splits = getattr(plugin, "scan_splits", None)
        if splits is None:
            return [MORSEL_ALL]
        return splits(parts)

    # -- scan by-products: request, adopt or discard -------------------------

    def _stats_state(self, source: str) -> tuple | None:
        """(row count known?, known column names) for ``source``, or None
        when this runtime collects no statistics. Memoised per query so all
        morsels of one scan agree on the partial's shape (bit-identity
        across DoP depends on it)."""
        if source in self._stats_states:
            return self._stats_states[source]
        if self.table_stats:
            entry, token = self.touch_generation(source)
            state = entry.state.known(token)
        else:
            state = self._stats_hint.get(source)
        self._stats_states[source] = state
        return state

    def _request_byproducts(self, source: str, split, stat_fields=None,
                            index_fields: tuple = (), posmap_of=None,
                            populate: tuple = (), layout: str = "columns"):
        """The by-products one scan (or morsel) of ``source`` should leave
        behind, or None: a detached positional-map partial for a cold pass
        of CSV plugin ``posmap_of``, a value-index partial over
        ``index_fields`` when indexes are on, a statistics partial over
        whichever ``stat_fields`` (None = collect none) the source state's
        statistics don't know yet, and the cache population the plan chose
        (``populate`` fields, or ``("*",)`` for whole elements in
        ``layout``) — in the steady state scans carry none of it, and a
        scan of a pinned generation never does."""
        self.touch_generation(source)
        if source in self.as_of:
            return None
        posmap = index = stats = cache = None
        if posmap_of is not None and (
                split is None or split.kind in ("all", "bytes")):
            posmap = posmap_of.new_posmap_partial()
            if split is None:
                self._posmap_expect[source] = posmap_of.posmap
        if index_fields and self.indexes:
            index = IndexPartial(index_fields)
        state = self._stats_state(source) if stat_fields is not None else None
        if state is not None:
            have_rows, known = state
            needed = tuple(f for f in stat_fields if f not in known)
            if needed or not have_rows:
                stats = StatsPartial(needed)
        if populate:
            cache = CachePartial(() if populate == ("*",) else populate,
                                 layout)
        if posmap is None and index is None and stats is None \
                and cache is None:
            return None
        return ScanByproducts(posmap, index, stats, cache)

    def _adopt_byproducts(self, source: str, parts: dict, splits: list) -> None:
        """The one adopt-or-discard gate: merge a finished scan's by-products
        (``parts``: Morsel → ScanByproducts) in ``splits`` order and install
        every kind its coverage rule lets through — or none of them.

        One decision under the lock of the source state captured at scan
        start (:meth:`touch_generation`): the state must still carry the
        token captured with it and the file's stat must still match (a scan
        over since-mutated bytes, or of a since-deregistered source, poisons
        nothing). The map adopts only into the map object seen at scan
        start (one winner per concurrent cold race); indexes and statistics
        merge idempotently into the state; the cache is offered the scan's
        columns (or elements) for the state, and with that offer what index
        fetches were renting of the source is settled — bought, or refused
        and left to accrue another scan's worth of rent.
        """
        posmaps, indexes, stats, offer = ScanByproducts.merge(
            parts, splits, untruncated=not self.truncated)
        if not self.indexes:
            indexes = []
        if not self.table_stats:
            stats = None
        if not (posmaps or indexes or stats is not None or offer is not None):
            return
        entry, token = self._touched[source]
        state = entry.state
        mapped = grown = learned = False
        with state.lock:
            current = self._generation_current(entry, token)
            if current:
                if posmaps:
                    mapped = entry.plugin.adopt_posmap_partials(
                        posmaps, expect=self._posmap_expect.get(source))
                if indexes:
                    grown = state.adopt_indexes(indexes)
                if stats is not None:
                    learned = state.adopt_stats(stats)
                if offer is not None:
                    if offer.layout == "columns":
                        self.cache.put_columns(state, offer.fields,
                                               offer.data)
                    else:
                        self.cache.put(state, offer.layout, (), offer.data)
                    if self.indexes:
                        state.rented = 0
        self.stats.index_builds += grown
        self._count_engine(
            posmap_adoptions=int(mapped),
            posmap_discards=int(bool(posmaps) and not mapped),
            index_adoptions=int(bool(grown)),
            index_discards=int(bool(indexes) and not current),
            stats_adoptions=int(learned),
            stats_discards=int(stats is not None and not current),
            stale_admissions_dropped=int(offer is not None and not current))

    def _stats_spec(self) -> tuple:
        """Per-source collection state shipped to worker processes: each
        child builds sinks for exactly the fields the parent is missing,
        so parent-side adoption converges instead of double-counting."""
        if not self.table_stats:
            return ()
        out = []
        for source in sorted(self._touched):
            state = self._stats_state(source)
            if state is not None:
                have_rows, known = state
                out.append((source, bool(have_rows), tuple(sorted(known))))
        return tuple(out)

    # -- the one scan call (both engines) --------------------------------------

    def scan(self, node: PhysScan, split=None, pred_kernel=None):
        """The chunk stream of one plan scan — the one runtime call either
        engine makes per ``PhysScan``. ``split`` restricts it to a morsel of
        a parallel scan; ``pred_kernel`` is the engine's pushed-down
        predicate for a ``sel_push`` scan, called with the columns of
        ``node.pred_fields()`` and returning the surviving row indexes.

        Chunks carry :meth:`_columns` of the scan, plus whole elements where
        the engines bind them (``bind_whole``, :meth:`PhysScan.binds_objects`;
        a raw JSON scan always carries its parsed objects). Cached,
        index-served and raw scans differ only behind this call, and what a
        raw scan leaves behind — positional map, value indexes, statistics
        and cache population — goes through one by-product object and one
        adopt-or-discard gate.

        A scan of a source pinned to a live-prefix generation (``as_of``) is
        the same scan bounded to the generation's rows — the first
        ``row_count`` rows of the live file — and leaves nothing behind; a
        rewritten-away generation is served from the state pinned when its
        bytes went (:meth:`_pinned_cached_chunks`). Pinned and cached scans
        are planned serial.
        """
        snap = self.as_of.get(node.source)
        if (snap is not None or node.access == "cache") \
                and split is not None and split.kind != "all":
            raise ExecutionError(
                f"{'pinned' if snap is not None else 'cache'} scans of "
                f"{node.source!r} are serial; got a {split.kind!r} morsel")
        if snap is not None and not snap.live:
            return self._pinned_cached_chunks(node, snap)
        if node.access == "cache":
            return self._cache_chunks(node)
        if node.access == "index":
            return self._index_chunks(node)
        return self._raw_chunks(node, split, pred_kernel)

    @staticmethod
    def _columns(node: PhysScan) -> tuple:
        """The columns ``node``'s chunks carry: its chunk fields, less the
        bound ones when the engines bind whole objects instead."""
        if node.binds_objects():
            return tuple(f for f in node.populate if f != "*")
        return node.chunk_fields()

    def _raw_chunks(self, node: PhysScan, split=None, pred_kernel=None,
                    access: str | None = None):
        """A scan of the raw file (or DBMS store) behind ``node``: the format
        plugin's chunk stream inside the one scan body :meth:`_scan`, with
        the by-products the plan asks for — a positional-map partial on a
        cold CSV pass, value-index emission (``node.index_emit``), statistics
        over the materialised columns, cache population (``node.populate``).

        Under a cleaning policy a CSV scan emits no index, statistics or
        population — repaired and skipped rows no longer line up with the
        file's rows, and the shared cache must not serve one tenant's
        repairs to another. ``access`` overrides the node's (an index scan
        whose probe cannot be served runs warm). A pinned scan reads the
        generation's morsel of the live file (:meth:`_prefix_morsel`)."""
        source = node.source
        entry = self.touch_generation(source)[0]
        plugin = entry.plugin
        fields = self._columns(node)
        device = self.device_for(source)
        fmt = entry.format
        pop = {"populate": node.populate, "layout": node.populate_layout}
        snap = self.as_of.get(source)
        access = access or node.access
        # what the plugin reads: a pinned scan is the serial scan of its
        # generation's morsel of the live file
        bound = split
        if snap is not None:
            bound, access = self._prefix_morsel(entry, snap, access)
        if fmt == "csv":
            whole = node.bind_whole
            # a projection that touches no raw attribute cannot fail
            # conversion; statistics cover the materialised columns (all of
            # them on a whole-row binding)
            clean = self.cleaning.get(source) if (fields or whole) else None
            sfields = fields or (tuple(plugin.columns) if whole else ())
            posmap_of = plugin if access == "cold" else None
            counts = None
            if clean is None:
                byproducts = self._request_byproducts(
                    source, split, sfields, node.index_emit, posmap_of, **pop)
            else:
                byproducts = self._request_byproducts(source, split,
                                                      posmap_of=posmap_of)
                counts = ExecStats()
                clean = _CountingPolicy(clean, counts)
            chunks = plugin.scan_chunks(
                fields, batch_size=node.batch_size, device=device,
                clean=clean, whole=whole, access=access, split=bound,
                pred_fields=node.pred_fields() if pred_kernel else (),
                pred_kernel=pred_kernel, byproducts=byproducts)
            return self._scan(source, chunks, split, byproducts, counts,
                              timing=("csv", access, len(sfields)))
        if fmt == "json":
            byproducts = self._request_byproducts(
                source, split, fields, node.index_emit, **pop)
            if snap is None:
                access = "warm" if plugin.has_semi_index() else "cold"
            chunks = plugin.scan_chunks(
                fields, batch_size=node.batch_size, device=device,
                whole=True, split=bound, byproducts=byproducts)
            return self._scan(source, chunks, split, byproducts,
                              timing=("json", access, len(fields)))
        if fmt == "array":
            byproducts = self._request_byproducts(source, split, fields,
                                                  **pop)
            chunks = plugin.scan_chunks(
                fields, batch_size=node.batch_size, device=device,
                whole=node.bind_whole, split=split, byproducts=byproducts)
            return self._scan(source, chunks, split, byproducts,
                              timing=("array", "cold", len(fields)))
        if fmt == "xls":
            byproducts = self._request_byproducts(source, None, **pop)
            chunks = plugin.scan_chunks(
                entry.description.options.get("sheet"), fields,
                batch_size=node.batch_size, device=device,
                whole=node.bind_whole)
            return self._scan(source, chunks, byproducts=byproducts)
        if fmt == "dbms":
            # the store is not a raw file: its rows count as already-loaded
            chunks = plugin.scan_chunks(fields or None,
                                        batch_size=node.batch_size,
                                        whole=node.binds_objects())
            return self._scan(source, chunks)
        raise ExecutionError(f"no chunked scan for format {fmt!r}")

    # -- time travel: pinned-generation serving -----------------------------

    @staticmethod
    def _prefix_morsel(entry, snap, access: str):
        """``(morsel, access)`` reading a live-prefix generation's rows off
        the live file: its first ``row_count`` rows through the positional
        map (a warm CSV scan) or semi-index spans (JSON) when those reach
        that far, otherwise its ``byte_size`` bytes tokenised cold."""
        n, rows = snap.row_count, entry.file_rows()
        if access != "cold" and None not in (n, rows) and n <= rows:
            return Morsel("rows" if entry.format == "csv" else "spans",
                          0, n, start_row=0), "warm"
        start = entry.plugin._data_start if entry.format == "csv" else 0
        return Morsel("bytes", start, snap.byte_size), "cold"

    def _pinned_cached_chunks(self, node: PhysScan, snap):
        """Serve a rewritten-away generation from the cache entries pinned
        when its file content was invalidated, sliced to the snapshot's row
        count (every live snapshot at pin time was a row-prefix of the
        pinned total). Raises :class:`GenerationError` when nothing pinned
        covers the requested shape — the generation's rows are gone."""
        import json as _json

        source, batch_size = node.source, node.batch_size
        fields = self._columns(node)
        whole = node.bind_whole or node.binds_objects()
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
        entry = self.touch_generation(source)[0]
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
        state = self.touch_generation(source)[0].state
        if whole:
            entry = self.cache.lookup(state, [], layouts=("objects", "bson", "json_text"))
        else:
            entry = self.cache.lookup(state, list(fields))
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

    # -- cached scans ------------------------------------------------------------

    def _cache_chunks(self, node: PhysScan) -> list:
        """Serve a cached scan as one zero-copy chunk view.

        Columnar entries are wrapped without copying a value; row/object
        layouts are columnarised once.

        ``node.index_lookup`` is the planner's value-index probe for this
        scan: when the index can serve it, only its candidates (and whatever
        rows it has not covered) are handed over, gathered from the cached
        columns (:meth:`_gathered_chunks`); otherwise the full view is. A
        scan pinned to a live-prefix generation is served the first
        ``row_count`` cached rows the same way, or reads the file when the
        entry's rows are not the file's.
        """
        source = node.source
        snap = self.as_of.get(source)
        fields, whole = self._columns(node), node.binds_objects()
        lookup = node.index_lookup
        # cache_data captures the token before it takes the snapshot: an
        # index peeked at this token then describes the snapshot's rows or
        # an append's extension of them, never the rows of a file rewritten
        # in between
        data, layout = self.cache_data(source, fields, whole)
        length = len(data) if whole else (len(data[0]) if data else 0)
        # index rows and a generation's rows are file rows: use only a
        # snapshot whose position i is file row i (the cache admits full
        # scans of uncleaned sources only; this keeps any other row universe
        # off the probe and prefix paths)
        aligned = length == self.touch_generation(source)[0].file_rows()
        if snap is not None:
            n = snap.row_count
            if not aligned or n > length:
                self.stats.cache_rows -= length
                return self._raw_chunks(node)
            self.stats.cache_rows -= length - n
            data = data[:n] if whole else [col[:n] for col in data]
        if lookup is not None and layout == "columns" and aligned:
            chunks = self._gathered_chunks(source, fields, data, lookup)
            if chunks is not None:
                return chunks
        if whole:
            return [Chunk((), (), len(data), whole=data)]
        length = len(data[0]) if data else 0
        return [Chunk(fields, tuple(data), length)]

    def _probe(self, source: str, lookup: tuple | None, total: int):
        """Resolve an index probe over rows ``[0, total)`` of ``source``:
        ``(candidate rows, uncovered ranges)``, or None when the probe
        cannot be served (no index at the generation captured for this
        query, or a probe type it has no ordered run for). Coverage is read
        before the candidates: a concurrent adoption files its keys before
        it widens the coverage, so every row of a range seen covered here is
        among the candidates."""
        if not self.indexes or lookup is None:
            return None
        entry, token = self.touch_generation(source)
        idx = entry.state.index(lookup[1], token)
        if idx is None:
            return None
        holes = idx.uncovered_ranges(total)
        rows = idx.lookup(lookup)
        if rows is None:
            return None
        return rows, holes

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

        ``data`` is the cached column snapshot (or a pinned generation's
        prefix of it) the scan would otherwise stream in full, its position
        i being file row i. Candidates are gathered per column and
        interleaved, in ascending row order, with plain slices of the ranges
        the index has not covered — the rows a full scan would filter down
        to, in the order it would meet them, so the predicate recheck the
        engines keep makes the answer bit-identical. Candidates at or past
        the snapshot's length are dropped: a concurrent delta refresh
        extends the index in place but *replaces* the cached entry, and a
        pinned generation ends where the file did."""
        length = len(data[0]) if data else 0
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
        self.stats.index_hits += 1
        self.stats.index_rows_served += len(rows)
        # cache_data counted the whole entry; only these were handed over
        self.stats.cache_rows -= length - sum(c.length for c in chunks)
        return chunks

    def _scan(self, source: str, chunks, split=None, byproducts=None,
              counts: ExecStats | None = None, timing: tuple | None = None,
              own: bool = False):
        """The one body of a raw scan: what every format does around its
        plugin call.

        A serial scan (``split`` None) is the one-morsel case of a parallel
        one: it charges the file's bytes itself — a pinned scan its
        generation's (a morsel leaves that to the coordinator's
        :meth:`account_raw`) — records the wall-clock spent
        *inside* the plugin iterator for cost calibration (``timing``:
        format, access, field count; consumer time excluded, and morsels
        overlap, so theirs isn't wall-clock) and, being the whole scan — as
        is a morsel that is ``own`` — puts its by-products through the
        adopt-or-discard gate when it runs to the end; any other morsel (a
        worker process's) stashes them for the worker to ship home to
        :meth:`run_parallel`. Every chunk is recorded into the by-products'
        cache population, if any (chunks are dense: what the scan yields is
        what the cache is offered). An abandoned scan (LIMIT) records and
        adopts nothing. Row and cleaning counters (``counts``, filled by a
        :class:`_CountingPolicy`) accumulate scan-locally and flush once
        when the scan ends — rows the policy dropped were still physically
        scanned. A plugin without a file
        behind it (a DBMS store) serves already-loaded rows: they count as
        ``cache_rows``.
        """
        own = own or split is None
        path = getattr(self.touch_generation(source)[0].plugin, "path", None)
        if split is None and path is not None:
            snap = self.as_of.get(source)
            size = os.path.getsize(path) if snap is None else snap.byte_size
            self.stats.raw_sources.add(source)
            self.stats.raw_bytes += size
        offer = byproducts.cache if byproducts is not None else None
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
                else chunk.length
            if offer is not None:
                offer.record(chunk)
            nchunks += 1
            yield chunk
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
            self._byproducts[source] = byproducts
        if byproducts is not None and own:
            key = split if split is not None else MORSEL_ALL
            self._adopt_byproducts(source, {key: byproducts}, [key])

    # -- index-served scans ------------------------------------------------------

    def _index_chunks(self, node: PhysScan):
        """Serve a scan through a JIT value index (``access=index``).

        Candidate rows matching ``node.index_lookup`` are resolved through
        the source state's index and fetched positionally (posmap seek for CSV,
        semi-index span assembly for JSON); row ranges the index has not
        covered yet are scanned in full — with byproduct emission on, so
        coverage converges toward 100% across queries. Candidate fetches and
        uncovered-range scans interleave in ascending row order, making the
        emitted row stream bit-identical to a full sequential scan's. The
        engines keep the original predicate as a recheck, so candidate
        false positives (hash-equality quirks, multi-conjunct predicates)
        and uncovered-range rows are filtered exactly as a scan would.

        Degrades to the plain warm scan when the index went stale (the
        generation moved) between planning and execution or the probe type
        is unservable.
        A scan pinned to a live-prefix generation probes its first
        ``row_count`` rows and pays no rent.
        """
        source = node.source
        entry, token = self.touch_generation(source)
        fields = self._columns(node)
        whole = node.bind_whole or entry.format == "json"
        total = entry.file_rows()
        snap = self.as_of.get(source)
        if snap is not None and total is not None:
            total = snap.row_count if snap.row_count <= total else None
        probe = None if total is None \
            else self._probe(source, node.index_lookup, total)
        if probe is None:
            yield from self._raw_chunks(node, access="warm")
            return
        rows, holes = probe
        self.stats.index_hits += 1
        self.stats.raw_sources.add(source)
        device = self.device_for(source)
        batch_size = node.batch_size
        served = 0
        for cand, (lo, hi) in self._row_order(rows, holes, total):
            for i in range(0, len(cand), batch_size):
                batch = cand[i:i + batch_size]
                yield self._fetch_rows_chunk(entry, batch, fields, whole,
                                             device)
                served += len(batch)
            if hi > lo:
                yield from self._index_hole_scan(entry, lo, hi, fields, whole,
                                                 batch_size, node.index_emit,
                                                 device)
        self.stats.index_rows_served += served
        self.stats.raw_rows += served
        # rent: these rows were read from the file because their columns
        # are not cached; the planner buys once the rent has paid for a scan
        if snap is None and entry.state.rent(token, served, total):
            self._count_engine(buys_due=1)

    def _fetch_rows_chunk(self, entry, rows: list, fields: tuple,
                          whole: bool, device) -> Chunk:
        """Positionally fetch ``rows`` (global row/span numbers) as one
        dense chunk, mirroring the shapes the plain chunked scans yield
        (``whole`` asks a CSV fetch for row records; JSON objects always
        come along — they are what was parsed)."""
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
        return Chunk(fields, cols, len(objs), whole=objs)

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

    # -- DBMS index lookups ----------------------------------------------------

    def dbms_rows(self, source: str, index_eq: tuple):
        """The records of a registered DBMS source that the store index
        finds for the equality (or IN-list) the planner pushed down (paper
        §2.1)."""
        plugin = self.touch_generation(source)[0].plugin
        field_name, values = index_eq[0], index_eq[1]
        # dict.fromkeys dedupes hash-equal probes (1 vs 1.0) so a record
        # never surfaces twice for one IN-list
        values = dict.fromkeys(values) if len(index_eq) == 3 else (values,)
        count = 0
        for value in values:
            for doc in plugin.index_lookup(field_name, value):
                yield doc
                count += 1
        self.stats.cache_rows += count

    # -- generic element iterator (sub-queries, interpreter) -------------------

    def iter_source(self, source: str):
        """Yield every element of a source as a record-like value, over the
        same chunked scan top-level plans use (bound whole): CSV, array and
        xls rows surface as dicts so path navigation works uniformly; JSON
        objects, DBMS records and memory elements pass through."""
        entry = self.touch_generation(source)[0]
        if entry.data is not None:
            yield from self.memory(source)
            return
        fmt = entry.format
        if fmt not in ("csv", "json", "array", "xls", "dbms"):
            raise ExecutionError(f"cannot iterate source of format {fmt!r}")
        warm = fmt == "csv" and entry.plugin.posmap.complete
        node = PhysScan(source, "_", fmt, (), "warm" if warm else "cold",
                        bind_whole=True)
        for chunk in self.scan(node):
            yield from chunk.iter_whole()
