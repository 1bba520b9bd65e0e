"""Process-wide engine context: warm state shared by many tenant sessions.

The paper's economics — pay the scan cost once, amortise positional maps,
data caches and value indexes across later queries — only compound when
that JIT-built state outlives a single session. :class:`EngineContext`
owns everything that is a property of the *data* rather than of one user:
the catalog (whose entries each carry a
:class:`~repro.core.source_state.SourceState` — cache entries, value
indexes, statistics, history), the shared :class:`~repro.caching.DataCache`
budget, the prepared statements, the JIT compile cache, the worker-process
pool, and cross-tenant sharing statistics. A
:class:`~repro.core.session.ViDa` session borrows all of it and keeps only
per-tenant concerns (language bindings, cleaning policies, knobs, quotas).

Concurrency contract (ARCHITECTURE.md §Engine vs Session):

- every auxiliary-structure merge point (positional-map adoption, value-
  index adoption, cache admission) is an **atomic adopt-or-discard**
  operation: it runs under the lock of the source state captured at scan
  start and compares the generation token captured with it against the
  state's current one — two sessions racing a cold scan of the same file
  produce exactly one winner and zero torn state, and a scan of a
  since-mutated or deregistered source can never poison fresh structures;
- lock order is always ``state lock → leaf lock`` (the DataCache mutex,
  the catalog's registry lock and plugin auxiliary locks are leaves and
  never taken first), so the context cannot deadlock;
- the worker-process pool is refcounted by attached sessions: the last
  session out shuts it down, a later attach respawns it lazily.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..caching import AdmissionPolicy, DataCache
from ..errors import CatalogError, ViDaError
from ..stats import CostCalibration
from ..storage.io import FRESH_BY_STAT
from .catalog import Catalog
from .executor.engine import JITExecutor
from .executor.static_engine import StaticExecutor
from .generations import (
    DEFAULT_RETAIN_GENERATIONS,
    GenerationSnapshot,
    PinnedState,
)


@dataclass
class EngineStats:
    """Cross-tenant sharing counters (cache internals live in CacheStats)."""

    #: queries executed across every attached session
    queries: int = 0
    #: positional maps merged into a source (one winner per cold race)
    posmap_adoptions: int = 0
    #: completed posmap partials discarded because another scan won the
    #: race (map already complete) or the file's generation moved on
    posmap_discards: int = 0
    #: value-index adoptions that grew at least one field's index
    index_adoptions: int = 0
    #: index partials dropped at the generation-token gate
    index_discards: int = 0
    #: cache admissions dropped because the source mutated mid-query
    stale_admissions_dropped: int = 0
    #: table-statistics partials merged into a source state
    stats_adoptions: int = 0
    #: table-statistics partials dropped at the generation-token gate
    stats_discards: int = 0
    #: append-classified refreshes served by an O(delta) tail rescan
    delta_refreshes: int = 0
    #: raw bytes re-read by delta refreshes (the tail regions only)
    delta_tail_bytes: int = 0
    #: refreshes that fell back to dropping every auxiliary structure
    full_invalidations: int = 0
    #: rent tallies that reached their break-even; part of the plan epoch,
    #: so a prepared index plan re-plans when a buy falls due
    buys_due: int = 0
    #: freshness checks of an unchanged file that a ``stat`` decided alone
    fresh_by_stat: int = 0
    #: ... that hashed the file's head and tail (it was racily clean)
    fresh_by_hash: int = 0
    #: planned queries whose plan came from the prepared-statement cache
    prepared_hits: int = 0
    #: planned queries that had to plan (new text, moved epoch, new knobs)
    prepared_misses: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0


#: prepared statements an engine keeps, least recently used dropped first
#: (about 5 KB each with their plan; one engine-wide set serves both
#: dialects for every tenant)
MAX_PREPARED = 512


@dataclass
class PreparedStatement:
    """One query text as every tenant of the engine shares it.

    ``expr`` is the parsed AST (for SQL, the translated one) and ``norm``
    its normal form: pure functions of the text — for SQL also of the
    catalog's schemas, which ``schema`` records. ``limit`` and ``pins``
    are a SQL statement's LIMIT and ``AS OF`` clauses. ``plans`` maps a
    session's knob salt to ``(plan epoch, plan, decisions, plan text,
    plan shape)``: tenants with the same knobs share one plan, and a plan
    is served only while the epoch it was made under is current.
    """

    expr: object
    norm: object
    limit: int | None = None
    pins: dict | None = None
    schema: int = 0
    plans: dict = field(default_factory=dict)


class QuotaCacheView:
    """Per-tenant view of the shared cache that meters *writes* only.

    Reads (lookups, peeks) pass straight through — a tenant always benefits
    from data other tenants warmed. Admissions are charged against the
    tenant's byte quota and refused once it is exhausted, so one noisy
    tenant cannot churn the shared cache. All other attributes delegate.
    """

    def __init__(self, cache: DataCache, quota_bytes: int):
        self._cache = cache
        self.quota_bytes = quota_bytes
        self.admitted_bytes = 0
        self.writes_denied = 0
        self._quota_lock = threading.Lock()

    def _allow(self) -> bool:
        with self._quota_lock:
            if self.admitted_bytes >= self.quota_bytes:
                self.writes_denied += 1
                return False
            return True

    def _charge(self, entry):
        if entry is not None:
            with self._quota_lock:
                self.admitted_bytes += entry.cached.nbytes
        return entry

    def put(self, *args, **kwargs):
        if not self._allow():
            return None
        return self._charge(self._cache.put(*args, **kwargs))

    def put_columns(self, *args, **kwargs):
        if not self._allow():
            return None
        return self._charge(self._cache.put_columns(*args, **kwargs))

    def can_add_columns(self, *args, **kwargs) -> bool:
        with self._quota_lock:
            if self.admitted_bytes >= self.quota_bytes:
                return False
        return self._cache.can_add_columns(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cache, name)

    def __len__(self) -> int:
        return len(self._cache)


class EngineContext:
    """Shared, concurrency-safe virtualization state for N sessions."""

    def __init__(
        self,
        cache_budget_bytes: int = 256 << 20,
        admission_policy: AdmissionPolicy | None = None,
        retain_generations: int = DEFAULT_RETAIN_GENERATIONS,
    ):
        if retain_generations < 1:
            raise ViDaError("retain_generations must be at least 1")
        self.retain_generations = retain_generations
        self.cache = DataCache(cache_budget_bytes, admission_policy)
        self.catalog = Catalog(self.cache)
        self.calibration = CostCalibration()
        self.stats = EngineStats()
        self.jit = JITExecutor(self.catalog)
        self.static = StaticExecutor(self.catalog)
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        #: (dialect, text) → PreparedStatement, in LRU order
        self._prepared: dict[tuple, PreparedStatement] = {}
        self._prepared_lock = threading.Lock()
        self._sessions = 0
        self._pool = None
        self._closed = False

    # -- session refcounting -------------------------------------------------

    def attach(self) -> None:
        """Register one session against the context (ViDa.__init__)."""
        with self._lock:
            if self._closed:
                raise ViDaError("engine context is closed")
            self._sessions += 1
            self.stats.sessions_opened += 1

    def detach(self) -> None:
        """Deregister one session; the last one out shuts the worker pool
        (a later attach respawns it lazily). Idempotent per session —
        :meth:`ViDa.close` guards against double-detach."""
        with self._lock:
            if self._sessions > 0:
                self._sessions -= 1
                self.stats.sessions_closed += 1
            if self._sessions == 0 and self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    @property
    def session_count(self) -> int:
        with self._lock:
            return self._sessions

    # -- the shared worker-process pool -------------------------------------

    def worker_pool(self, parallelism: int):
        """The context's worker-process pool, spawned on first request.

        The pool is sized by the first requester; a ProcessPoolExecutor
        cannot grow, so later sessions asking for more workers share the
        existing pool (the planner still caps each scan's DoP at the
        session's own ``parallelism``).
        """
        from .executor.procpool import WorkerPool

        with self._lock:
            if self._closed:
                raise ViDaError("engine context is closed")
            if self._pool is None:
                self._pool = WorkerPool(parallelism)
            return self._pool

    def close(self) -> None:
        """Shut the context down for good: the pool dies and any session
        still attached (or attached later) gets a clear error."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- cross-tenant statistics ---------------------------------------------

    def count(self, **deltas: int) -> None:
        """Atomically bump EngineStats counters (runtime merge points)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def stats_snapshot(self) -> dict:
        """One JSON-able view of engine-level sharing state (server /stats)."""
        with self._stats_lock:
            engine = {
                "queries": self.stats.queries,
                "sessions": self._sessions,
                "sessions_opened": self.stats.sessions_opened,
                "sessions_closed": self.stats.sessions_closed,
                "posmap_adoptions": self.stats.posmap_adoptions,
                "posmap_discards": self.stats.posmap_discards,
                "index_adoptions": self.stats.index_adoptions,
                "index_discards": self.stats.index_discards,
                "stats_adoptions": self.stats.stats_adoptions,
                "stats_discards": self.stats.stats_discards,
                "stale_admissions_dropped": self.stats.stale_admissions_dropped,
                "delta_refreshes": self.stats.delta_refreshes,
                "delta_tail_bytes": self.stats.delta_tail_bytes,
                "full_invalidations": self.stats.full_invalidations,
                "fresh_by_stat": self.stats.fresh_by_stat,
                "fresh_by_hash": self.stats.fresh_by_hash,
                "prepared": {"hits": self.stats.prepared_hits,
                             "misses": self.stats.prepared_misses,
                             "entries": len(self._prepared)},
            }
        cs = self.cache.stats
        engine["cache"] = {
            "lookups": cs.lookups, "hits": cs.hits,
            "admissions": cs.admissions, "rejections": cs.rejections,
            "evictions": cs.evictions, "invalidations": cs.invalidations,
            "entries": len(self.cache), "used_bytes": self.cache.used_bytes,
        }
        js = self.jit.stats
        engine["compile_cache"] = {
            "compilations": js.compilations, "hits": js.cache_hits,
            "evictions": js.evictions,
        }
        engine["table_stats"] = self._stats_summary()
        engine["calibration"] = self.calibration.snapshot()
        return engine

    def _stats_summary(self) -> dict:
        """Per registered source, its table statistics without raw sketch
        hashes (server /stats)."""
        out = {}
        for name in sorted(self.catalog.names()):
            try:
                stats = self.catalog.get(name).state.stats
            except CatalogError:
                continue  # deregistered meanwhile
            if stats is not None:
                out[name] = {
                    "row_count": stats.row_count,
                    "columns": {
                        cname: {"ndv": cs.ndv,
                                "null_fraction": round(cs.null_fraction, 4)}
                        for cname, cs in sorted(stats.columns.items())
                    },
                }
        return out

    def plan_epoch(self) -> tuple:
        """Fingerprint of every input the planner reads beyond the query
        text. A prepared plan cached under one epoch is replanned the
        moment any component moves — catalog shape or file generations
        (every statistics drop or extension happens under one), adopted
        statistics, cost calibration — so a stale plan (built before stats
        arrived, or before a file mutated) can never be served.
        """
        cs = self.cache.stats
        with self._stats_lock:
            # buys_due: an index plan prepared while renting was cheaper must
            # be re-planned once the rent tally says buy, or it rents forever
            aux = (self.stats.buys_due, self.stats.posmap_adoptions,
                   self.stats.index_adoptions, self.stats.stats_adoptions)
        return (self.catalog.version, self.calibration.version,
                cs.admissions, cs.evictions, cs.invalidations) + aux

    # -- prepared statements ---------------------------------------------------

    def prepared(self, key: tuple) -> PreparedStatement | None:
        """The statement prepared for ``key = (dialect, text)``, if kept."""
        with self._prepared_lock:
            stmt = self._prepared.pop(key, None)
            if stmt is not None:
                self._prepared[key] = stmt  # LRU move-to-end
            return stmt

    def prepare(self, key: tuple, stmt: PreparedStatement) -> None:
        """Keep ``stmt`` for ``key``, dropping the least recently used
        statement beyond :data:`MAX_PREPARED`."""
        with self._prepared_lock:
            if key not in self._prepared \
                    and len(self._prepared) >= MAX_PREPARED:
                self._prepared.pop(next(iter(self._prepared)))
            self._prepared[key] = stmt

    def prepared_plan(self, stmt: PreparedStatement, salt: tuple,
                      epoch: tuple) -> tuple | None:
        """``(plan, decisions, plan text, plan shape)`` prepared for
        ``stmt`` under this knob salt and plan epoch, or None. The four are
        written and read together, so a concurrent query of the same text
        never pairs one plan with another's shape."""
        with self._prepared_lock:
            slot = stmt.plans.get(salt)
        if slot is None or slot[0] != epoch:
            self.count(prepared_misses=1)
            return None
        self.count(prepared_hits=1)
        return slot[1:]

    def keep_plan(self, stmt: PreparedStatement, salt: tuple, epoch: tuple,
                  planned: tuple) -> None:
        with self._prepared_lock:
            stmt.plans[salt] = (epoch,) + planned

    # -- generation-aware refresh --------------------------------------------

    def refresh_source(self, name: str) -> bool:
        """Freshness check generalised from "latest wins" to "latest
        extends, history pins". Returns True if the backing file is
        unchanged.

        On a fingerprint change the superseded generation is snapshotted
        into the state's bounded history, then the mutation is classified:

        - **append** (old content is a byte-prefix of the new file) with a
          complete posmap / built semi-index → the tail past the last
          mapped byte is re-scanned and posmap, semi-index, cache entries,
          value indexes and table stats are *extended* into the new
          generation in O(delta);
        - **append without extendable structures** → auxiliaries drop, but
          history snapshots stay live-prefix (their bytes survive);
        - **anything else** → every live snapshot is frozen onto a shared
          :class:`PinnedState` rescuing current cache entries/stats, and
          all auxiliary structures drop (paper §2.1 behaviour).

        The check itself is a ``stat`` (:meth:`FileFingerprint.check`); the
        file's bytes are read only while it is racily clean. The refresh
        runs atomically under the source state's lock: of N racing
        observers exactly one refreshes, and the generation moves once —
        by one ``drop`` or one ``extend`` of the state.
        """
        entry = self.catalog.get(name)
        path = entry.description.path
        if entry.fingerprint is None or path is None:
            return True
        verdict = entry.fingerprint.check(path)
        if verdict is None:
            with entry.state.lock:
                # re-check: another thread may have refreshed while we waited
                verdict = entry.fingerprint.check(path)
                if verdict is None:
                    self._refresh_locked(entry, path)
                    return False
        if verdict == FRESH_BY_STAT:
            self.count(fresh_by_stat=1)
        else:
            self.count(fresh_by_hash=1)
        return True

    def _refresh_locked(self, entry, path: str) -> None:
        state = entry.state
        old_fp = entry.fingerprint
        new_fp, is_prefix = old_fp.successor(path)
        old_rows = entry.file_rows()
        state.history.capacity = self.retain_generations
        state.history.add(GenerationSnapshot(
            generation=state.generation, fingerprint=old_fp,
            byte_size=old_fp.size, row_count=old_rows,
        ))
        appended = (
            is_prefix
            and entry.format in ("csv", "json")
            # a CSV whose last line lacked a newline may have had that line
            # *extended* by the append — its old rows are not a row-prefix
            and (entry.format == "json" or old_fp.ends_nl)
        )
        if not (appended and self._try_extend(entry, old_fp, new_fp,
                                              old_rows)):
            if not appended:
                # rewrite: the old bytes are gone — rescue references to the
                # state's cache entries and stats for every live-prefix
                # snapshot *before* the drop unlinks them
                mine = [e.cached for e in self.cache.entries(state)]
                total = old_rows
                if total is None:
                    counts = {c.count for c in mine}
                    if len(counts) == 1:
                        total = counts.pop()
                state.history.pin_all(PinnedState(
                    cached=mine, stats=state.stats, total_rows=total))
            state.drop(self.cache)
            self.count(full_invalidations=1)
        entry.fingerprint = new_fp
        self.catalog.bump_version()

    def _try_extend(self, entry, old_fp, new_fp,
                    old_rows: int | None) -> bool:
        """Attempt the O(delta) tail extension; False → caller drops.

        A failure inside the plugin (dirty tail rows, I/O error) leaves
        the live structures untouched — the plugin only swaps its extended
        posmap/semi-index in after the tail scanned cleanly.
        """
        plugin = entry.plugin
        if old_rows is None:
            return False
        try:
            fields = self._tail_fields(entry, old_rows)
            if entry.format == "csv":
                if not plugin.posmap.complete:
                    return False
                tail_columns, tail_rows, tail_bytes = plugin.extend_for_append(
                    old_fp.size, new_fp.size, fields)
                tail_objects = None
            else:
                if not plugin.has_semi_index():
                    return False
                tail_objects, _, tail_bytes = plugin.extend_for_append(
                    old_fp.size, new_fp.size)
                tail_rows = len(tail_objects)
                tail_columns = dict(zip(
                    fields, plugin.project_paths(tail_objects, fields)))
        except (ViDaError, ValueError, IndexError, OSError):
            return False
        entry.state.extend(self.cache, old_rows, tail_rows, tail_columns,
                           tail_objects)
        self.count(delta_refreshes=1, delta_tail_bytes=tail_bytes)
        return True

    def _tail_fields(self, entry, old_rows: int) -> list[str]:
        """Fields whose auxiliary state must see the appended tail for a
        delta refresh to be lossless: every fully-covering cached column,
        every built index field, every known stats column."""
        state = entry.state
        fields: set[str] = set(state.indexes)
        for e in self.cache.entries(state):
            if e.cached.layout == "columns" and e.cached.count == old_rows:
                fields.update(e.cached.fields)
        if state.stats is not None:
            fields.update(state.stats.columns)
        if entry.format == "csv":
            fields &= set(entry.plugin.col_index)
        return sorted(fields)
