"""The ViDa session: the library's main entry point.

"Data analysts build databases by launching queries, instead of building
databases to launch queries" (paper §1.2). A :class:`ViDa` session is such a
just-in-time database: register raw files (no loading, no transformation),
then query them in comprehension syntax or SQL. Auxiliary structures
(positional maps, semi-indexes) and data caches build themselves as a side
effect of query execution and amortise across the workload.

A session is a thin per-tenant view over an
:class:`~repro.core.engine.EngineContext`, which owns everything that is a
property of the *data* (catalog, cache, positional maps, value indexes,
prepared statements, JIT compile cache, worker pool). A standalone ``ViDa()`` creates a private
context; passing ``context=`` shares one across many sessions, so one
tenant's cold scan warms every other tenant's queries::

    from repro import EngineContext, ViDa

    ctx = EngineContext()
    db_a, db_b = ViDa(context=ctx), ViDa(context=ctx)
    db_a.register_csv("Patients", "patients.csv")
    db_a.query("for { p <- Patients, p.age > 60 } yield count 1")  # cold
    db_b.query("for { p <- Patients, p.age > 30 } yield count 1")  # warm

Example::

    from repro import ViDa

    db = ViDa()
    db.register_csv("Patients", "patients.csv")
    db.register_json("BrainRegions", "brainregions.json")
    result = db.query('''
        for { p <- Patients, b <- BrainRegions, p.id = b.id, p.age > 60 }
        yield bag (id := p.id, vol := b.volume)
    ''')
    print(result.value, result.stats.cache_only)
"""

from __future__ import annotations

import json as _json
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass

from ..caching import AdmissionPolicy, DataCache
from ..errors import GenerationError, ViDaError
from ..formats.jsonfmt import bson as _bson
from ..mcc import ast as A
from ..mcc.algebra import explain as explain_algebra
from ..mcc.normalize import normalize
from ..mcc.parser import parse
from ..mcc.translate import referenced_sources, translate
from ..mcc.typecheck import typecheck
from .engine import EngineContext, PreparedStatement, QuotaCacheView
from .executor.runtime import QueryRuntime
from .executor.static_engine import eval_expr
from .optimizer.planner import PlanDecisions, Planner
from .physical import PlanShape, explain_physical, plan_shape


@dataclass
class QueryStats:
    """Timing and execution statistics of one query."""

    parse_ms: float = 0.0
    typecheck_ms: float = 0.0
    normalize_ms: float = 0.0
    plan_ms: float = 0.0
    codegen_ms: float = 0.0
    execute_ms: float = 0.0
    total_ms: float = 0.0
    engine: str = "jit"
    raw_rows: int = 0
    cache_rows: int = 0
    raw_bytes: int = 0
    cache_only: bool = False
    cleaned_rows: int = 0
    skipped_rows: int = 0
    #: morsels a parallel LIMIT cut short (early-termination observability)
    morsels_cancelled: int = 0
    #: rows newly added to JIT value indexes as scan byproducts
    index_builds: int = 0
    #: scans answered through a value-index access path
    index_hits: int = 0
    #: rows fetched via index candidate lists (vs. full-scan raw_rows)
    index_rows_served: int = 0
    #: physical plan reused from the engine's prepared statements (same
    #: text, same plan epoch, same session knobs — planning was skipped)
    plan_cached: bool = False
    #: planner's total cost estimate for the chosen plan, in cost units
    est_cost_units: float = 0.0
    #: the estimate converted to milliseconds through the calibrated
    #: unit_ms — comparable against execute_ms to judge the model
    est_ms: float = 0.0


@dataclass
class QueryResult:
    """Query output plus everything needed to understand how it ran."""

    value: object
    stats: QueryStats
    decisions: PlanDecisions | None = None
    plan_text: str = ""
    code: str = ""

    def __iter__(self):
        if isinstance(self.value, list):
            return iter(self.value)
        raise TypeError("scalar query result is not iterable")


#: how many recent :class:`QueryStats` a session keeps in ``query_log`` (a
#: session's lifetime totals live in running counters, not in the log)
QUERY_LOG_ENTRIES = 1024


def _release_context(engine: EngineContext, owned: bool) -> None:
    """Module-level session finalizer: detach from the shared context (the
    last session out shuts the worker pool) and close a private one."""
    engine.detach()
    if owned:
        engine.close()


class ViDa:
    """A just-in-time virtual database over raw files (one tenant session)."""

    def __init__(
        self,
        cache_budget_bytes: int | None = None,
        admission_policy: AdmissionPolicy | None = None,
        default_engine: str = "jit",
        enable_cache: bool = True,
        enable_posmap: bool = True,
        batch_size: int | None = None,
        parallelism: int = 1,
        backend: str = "process",
        enable_indexes: bool = True,
        adaptive_stats: bool = True,
        context: EngineContext | None = None,
        cache_write_quota_bytes: int | None = None,
        retain_generations: int | None = None,
    ):
        if default_engine not in ("jit", "static", "auto"):
            raise ViDaError(
                f"unknown engine {default_engine!r} (jit | static | auto)"
            )
        if batch_size is not None and batch_size < 1:
            raise ViDaError(f"batch_size must be >= 1, got {batch_size}")
        if parallelism < 1:
            raise ViDaError(f"parallelism must be >= 1, got {parallelism}")
        if backend != "process":
            raise ViDaError(
                f"unknown backend {backend!r}: parallel scans run on worker "
                "processes (backend='process'); for a serial session pass "
                "parallelism=1"
            )
        if context is not None and (cache_budget_bytes is not None
                                    or admission_policy is not None):
            raise ViDaError(
                "cache_budget_bytes / admission_policy belong to the "
                "EngineContext — configure them where the context is built"
            )
        if context is not None and retain_generations is not None:
            raise ViDaError(
                "retain_generations belongs to the EngineContext — "
                "configure it where the context is built"
            )
        self._owns_context = context is None
        if context is None:
            from .generations import DEFAULT_RETAIN_GENERATIONS

            context = EngineContext(
                cache_budget_bytes if cache_budget_bytes is not None
                else 256 << 20,
                admission_policy,
                retain_generations=retain_generations
                if retain_generations is not None
                else DEFAULT_RETAIN_GENERATIONS,
            )
        context.attach()
        #: the shared :class:`~repro.core.engine.EngineContext` this session
        #: is a tenant of (private when constructed without ``context=``)
        self._engine = context
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_context, context, self._owns_context
        )
        #: per-tenant cache-write quota: admissions beyond this many bytes
        #: are refused (reads always pass through) — None means unmetered
        self._quota_view = (
            QuotaCacheView(context.cache, cache_write_quota_bytes)
            if cache_write_quota_bytes is not None else None
        )
        self.default_engine = default_engine
        self.enable_cache = enable_cache
        self.enable_posmap = enable_posmap
        #: fixed rows-per-chunk for vectorized scans (None = planner's choice)
        self.batch_size = batch_size
        #: worker-process budget for parallel scans (1 = serial, the
        #: default). Above 1 a scan the planner shards ships kernel specs to
        #: an engine-lifetime worker-process pool — true multicore on stock
        #: CPython; a script doing so needs an ``if __name__ ==
        #: "__main__":`` guard, since workers start by spawn. The planner
        #: keeps small, cached and unshippable scans serial.
        self.parallelism = parallelism
        #: JIT secondary indexes: value-based access paths built as scan
        #: byproducts (arXiv 1901.07627 extends the paper's positional maps
        #: to value indexes the same just-in-time way). False disables both
        #: emission and index access paths — the differential baseline.
        self.enable_indexes = enable_indexes
        #: statistics-driven adaptive optimization: collect table stats as
        #: scan byproducts, feed them into selectivity estimation and join
        #: ordering, and recalibrate cost constants from measured scan
        #: times. False is the differential baseline: no collection, greedy
        #: syntax-driven join order, hand-calibrated constants only.
        self.adaptive_stats = adaptive_stats
        self.cleaning: dict[str, object] = {}
        self.devices: dict[str, object] = {}
        #: the most recent queries' stats, oldest first (bounded: a tenant
        #: that stays connected must not grow by one record per query)
        self.query_log: deque[QueryStats] = deque(maxlen=QUERY_LOG_ENTRIES)
        # lifetime totals behind cache_hit_ratio()
        self._queries = 0
        self._cache_only_queries = 0
        self._log_lock = threading.Lock()

    # -- shared engine state (delegates to the context) -----------------------

    @property
    def engine_context(self) -> EngineContext:
        """The :class:`EngineContext` this session shares state through."""
        return self._engine

    @property
    def catalog(self):
        return self._engine.catalog

    @property
    def cache(self):
        """The shared data cache — through the tenant's write-metering
        quota view when the session was opened with one."""
        return self._quota_view if self._quota_view is not None \
            else self._engine.cache

    @property
    def _jit(self):
        return self._engine.jit

    @property
    def _static(self):
        return self._engine.static

    # -- registration (delegates to the catalog) ------------------------------

    def register_csv(self, name, path, **kwargs):
        return self.catalog.register_csv(name, path, **kwargs)

    def register_json(self, name, path):
        return self.catalog.register_json(name, path)

    def register_array(self, name, path, dim_names=None):
        return self.catalog.register_array(name, path, dim_names)

    def register_xls(self, name, path, sheet=None):
        return self.catalog.register_xls(name, path, sheet)

    def register_memory(self, name, data, elem_type=None):
        return self.catalog.register_memory(name, data, elem_type)

    def register_dbms(self, name, store, table):
        return self.catalog.register_dbms(name, store, table)

    def register_auto(self, name, path):
        return self.catalog.register_auto(name, path)

    def set_cleaning(self, source: str, policy) -> None:
        """Attach a scan-time cleaning policy to a source (paper §7)."""
        self.catalog.get(source)  # validate
        self.cleaning[source] = policy

    def set_device(self, source: str, device) -> None:
        """Charge raw accesses of ``source`` to a simulated device ('*' = all)."""
        self.devices[source] = device

    # -- querying -----------------------------------------------------------

    def query(
        self,
        text_or_expr,
        engine: str | None = None,
        output: str = "python",
        limit: int | None = None,
        as_of: dict[str, int] | None = None,
    ) -> QueryResult:
        """Run a comprehension-syntax query (or a pre-built AST).

        ``engine`` overrides the session default ('jit' or 'static');
        ``output`` shapes collection results: python | records | tuples |
        columns | json | bson. ``limit`` truncates a collection result
        *before* shaping, so every output shape honours it. ``as_of``
        (source name → generation token) time-travels the named sources
        to a retained generation; an unknown or evicted generation raises
        :class:`~repro.errors.GenerationError`.

        A query text is prepared once per engine: its AST, normal form and
        plan are kept by the :class:`EngineContext` for every tenant.
        """
        stats, t_start = self._begin(engine)
        if not isinstance(text_or_expr, str):
            return self._run(None, self._prepare(None, text_or_expr, stats),
                             stats, t_start, output, limit, as_of)
        key = ("mcc", text_or_expr)
        stmt = self._prepared(key, stats)
        if stmt is None:
            t0 = time.perf_counter()
            expr = parse(text_or_expr)
            stats.parse_ms = (time.perf_counter() - t0) * 1e3
            stmt = self._prepare(key, expr, stats)
        return self._run(key, stmt, stats, t_start, output, limit, as_of)

    def explain(self, text_or_expr) -> str:
        """Logical + physical EXPLAIN of a query, without running it."""
        expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
        typecheck(expr, self.catalog.type_env())
        norm = normalize(expr)
        if not isinstance(norm, A.Comprehension):
            from ..mcc.pretty import pretty

            return f"InterpretedExpression[{pretty(norm)}]"
        algebra = translate(norm, self.catalog.names())
        plan, decisions = self._planner().plan(algebra)
        return (
            "== logical ==\n" + explain_algebra(algebra)
            + "\n== physical ==\n" + explain_physical(plan)
            + "\n== decisions ==\n" + decisions.summary()
        )

    def path(self, query: str, engine: str | None = None,
             output: str = "python") -> QueryResult:
        """Run a PathQL (XPath-flavoured) query over registered sources."""
        from ..languages.pathql import translate_path

        expr = translate_path(query, self.catalog)
        return self.query(expr, engine=engine, output=output)

    def sql(self, statement: str, engine: str | None = None,
            output: str = "python",
            as_of: dict[str, int] | None = None) -> QueryResult:
        """Run a SQL query by translation to the comprehension calculus.

        LIMIT is applied to the raw result rows *before* output shaping, so
        columnar/JSON/BSON outputs honour it too. Generation pins come from
        ``FROM t AS OF GENERATION k`` clauses and/or the ``as_of`` mapping
        (the NDJSON server's per-query field); an in-query clause wins over
        the mapping for the same source. Statements are prepared once per
        engine, like comprehension texts; a translation is reused only
        while the schemas it resolved columns against are registered.
        """
        from ..languages.sql import parse_sql, translate_sql

        stats, t_start = self._begin(engine)
        key = ("sql", statement)
        stmt = self._prepared(key, stats)
        if stmt is None:
            t0 = time.perf_counter()
            schema = self.catalog.schema_version
            parsed = parse_sql(statement)
            expr = translate_sql(parsed, self.catalog)
            stats.parse_ms = (time.perf_counter() - t0) * 1e3
            pins = {ref.name: ref.as_of
                    for ref in (parsed.table, *(j.table for j in parsed.joins))
                    if ref.as_of is not None}
            stmt = self._prepare(key, expr, stats, limit=parsed.limit,
                                 pins=pins, schema=schema)
        pins = {**(as_of or {}), **stmt.pins}
        return self._run(key, stmt, stats, t_start, output, stmt.limit,
                         pins or None)

    def generations(self, source: str) -> dict:
        """Time-travel introspection: the live generation token of
        ``source`` plus every retained historical generation (oldest
        first) with its classification state."""
        entry = self.catalog.get(source)
        history = entry.state.history
        retained = []
        for gen in history.generations():
            snap = history.get(gen)
            if snap is None:
                continue
            retained.append({
                "generation": snap.generation,
                "byte_size": snap.byte_size,
                "row_count": snap.row_count,
                "live_prefix": snap.live,
                "pinned": snap.pinned is not None,
            })
        return {"live": entry.generation, "retained": retained}

    # -- internals -----------------------------------------------------------

    def _begin(self, engine: str | None) -> tuple[QueryStats, float]:
        if self._closed:
            raise ViDaError(
                "session is closed — open a new ViDa against the engine "
                "context to keep querying"
            )
        self._engine.count(queries=1)
        return QueryStats(engine=engine or self.default_engine), \
            time.perf_counter()

    def _prepared(self, key: tuple, stats: QueryStats):
        """The engine's statement for ``key``, typechecked against the
        current catalog, or None when it must be prepared afresh."""
        stmt = self._engine.prepared(key)
        if stmt is None or (key[0] == "sql"
                            and stmt.schema != self.catalog.schema_version):
            return None
        t0 = time.perf_counter()
        typecheck(stmt.expr, self.catalog.type_env())
        stats.typecheck_ms = (time.perf_counter() - t0) * 1e3
        return stmt

    def _prepare(self, key: tuple | None, expr, stats: QueryStats,
                 **clauses) -> PreparedStatement:
        """Typecheck and normalise a freshly parsed statement and, under a
        ``key``, keep it in the engine for every tenant."""
        t0 = time.perf_counter()
        typecheck(expr, self.catalog.type_env())
        stats.typecheck_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        norm = normalize(expr)
        stats.normalize_ms = (time.perf_counter() - t0) * 1e3
        stmt = PreparedStatement(expr, norm, **clauses)
        if key is not None:
            self._engine.prepare(key, stmt)
        return stmt

    def _run(self, key: tuple | None, stmt: PreparedStatement,
             stats: QueryStats, t_start: float, output: str,
             limit: int | None, as_of: dict | None) -> QueryResult:
        """Execute a prepared statement: freshness, AS OF pins, a plan
        (the engine's prepared one when its epoch and this session's knobs
        match), the engine, and output shaping."""
        norm = stmt.norm
        engine = stats.engine
        # freshness: a mutated file either delta-extends its auxiliary
        # structures (append classification) or drops them, snapshotting
        # the superseded generation into its bounded history either way
        for src in referenced_sources(norm, self.catalog.names()):
            self._engine.refresh_source(src)

        # AS OF: resolve generation pins against the history. Pinning the
        # live generation is the identity; anything else must be retained,
        # and holds a refcount for the query's duration so retention
        # cannot evict the snapshot mid-flight.
        pins: dict[str, object] = {}
        acquired: list[tuple] = []
        if as_of:
            for src, gen in as_of.items():
                entry = self.catalog.get(src)
                if gen == entry.generation:
                    continue
                history = entry.state.history
                snap = history.acquire(gen)
                if snap is None:
                    retained = ", ".join(
                        str(g) for g in history.generations()) or "none"
                    raise GenerationError(
                        f"source {src!r} has no retained generation {gen} "
                        f"(live: {entry.generation}; retained: {retained})"
                    )
                pins[src] = snap
                acquired.append((history, snap))
        try:
            row_limit = limit if isinstance(limit, int) and limit >= 0 else None
            runtime = QueryRuntime(self.catalog, self.cache if self.enable_cache
                                   else DataCache(0), self.cleaning, self.devices,
                                   row_limit=row_limit,
                                   process_pool=self._worker_pool(),
                                   indexes=self.enable_indexes,
                                   engine=self._engine,
                                   table_stats=self.adaptive_stats,
                                   as_of=pins)

            if not isinstance(norm, A.Comprehension):
                # Merge-of-comprehensions / constant expressions: interpret.
                if engine == "auto":
                    stats.engine = engine = "static"
                t0 = time.perf_counter()
                value = eval_expr(norm, {}, runtime)
                stats.execute_ms = (time.perf_counter() - t0) * 1e3
                stats.total_ms = (time.perf_counter() - t_start) * 1e3
                self._log(stats, runtime)
                value = self._apply_limit(value, limit)
                return QueryResult(self._shape_output(value, output), stats)

            t0 = time.perf_counter()
            # a pinned query never reuses or feeds the prepared plans: its
            # plan is specialised to the snapshot, not the live source
            shared = key is not None and not pins
            planned = None
            if shared:
                salt, epoch = self._knob_salt(), self._engine.plan_epoch()
                planned = self._engine.prepared_plan(stmt, salt, epoch)
            if planned is not None:
                plan, decisions, plan_text, shape = planned
                decisions = decisions.clone()
                stats.plan_cached = True
            else:
                algebra = translate(norm, self.catalog.names())
                plan, decisions = self._planner(pins).plan(algebra)
                plan_text = explain_physical(plan)
                shape = plan_shape(plan)
                if shared:
                    self._engine.keep_plan(stmt, salt, epoch, (
                        plan, decisions.clone(), plan_text, shape))
            stats.plan_ms = (time.perf_counter() - t0) * 1e3
            stats.est_cost_units = decisions.total_est_cost

            if engine == "auto":
                stats.engine = engine = self._resolve_engine(shape, decisions)

            code = ""
            t0 = time.perf_counter()
            if engine == "jit":
                compiled = self._jit.compile(plan, shape)
                code = compiled.source
                stats.codegen_ms = (time.perf_counter() - t0) * 1e3
                t0 = time.perf_counter()
                value = compiled(runtime, shape)
            else:
                value = self._static.execute(plan, runtime)
            stats.execute_ms = (time.perf_counter() - t0) * 1e3
            stats.total_ms = (time.perf_counter() - t_start) * 1e3
            self._log(stats, runtime)
            if self.adaptive_stats:
                # convert the estimate to ms *before* folding this query's
                # timings in, so est vs. measured reflects the model that
                # actually planned the query
                stats.est_ms = self._engine.calibration.estimated_ms(
                    decisions.total_est_cost)
                if runtime.scan_timings:
                    self._engine.calibration.observe(runtime.scan_timings)

            value = self._apply_limit(value, limit)
            return QueryResult(
                self._shape_output(value, output), stats, decisions,
                plan_text, code,
            )
        finally:
            for history, snap in acquired:
                history.release(snap)

    def _planner(self, pinned: dict[str, object] | None = None) -> Planner:
        """A planner seeing this session's configuration and cache state.

        Device-charged sources stay serial (simulated devices account
        per-access state that lives in this process); a wildcard device pins
        the whole session serial. ``pinned`` maps sources the
        query time-travels to their generation snapshots.
        """
        parallelism = self.parallelism
        if "*" in self.devices:
            parallelism = 1
        return Planner(self.catalog, self.cache, enable_cache=self.enable_cache,
                       as_of=pinned,
                       enable_posmap=self.enable_posmap,
                       batch_size=self.batch_size,
                       parallelism=parallelism,
                       serial_sources=frozenset(self.devices),
                       cleaning_sources=frozenset(self.cleaning),
                       cleaning_policies=self.cleaning,
                       indexes=self.enable_indexes,
                       calibration=self._engine.calibration
                       if self.adaptive_stats else None,
                       adaptive=self.adaptive_stats)

    def _knob_salt(self) -> tuple:
        """Every planner input that is this session's rather than the
        engine's: its knobs, the sources it cleans (with which policy
        class) or charges to devices, its cache-write quota. Sessions with
        equal salts share prepared plans; a plan is reused only under the
        salt and the engine's plan epoch it was made under."""
        return (
            self.enable_cache, self.enable_posmap, self.batch_size,
            self.parallelism,
            self.enable_indexes, self.adaptive_stats,
            tuple(sorted((name, type(policy).__qualname__)
                         for name, policy in self.cleaning.items())),
            tuple(sorted(self.devices)),
            self._quota_view.quota_bytes if self._quota_view is not None
            else None,
        )

    def _resolve_engine(self, shape: PlanShape,
                        decisions: PlanDecisions) -> str:
        """Pick jit vs static for one query (``default_engine="auto"``).

        JIT always wins once its compiled function is cached (the compile
        cost is sunk); otherwise the planner's cost estimate must clear
        the compile-cost threshold, else the static interpreter runs the
        tiny query with zero codegen latency.
        """
        from .optimizer import cost as C

        if self._jit.is_cached(shape):
            decisions.engine_choice = "jit (compiled plan cached)"
            return "jit"
        if decisions.total_est_cost >= C.COMPILE_COST:
            decisions.engine_choice = (
                f"jit (est ~{decisions.total_est_cost:.0f}u >= "
                f"compile threshold {C.COMPILE_COST:.0f}u)"
            )
            return "jit"
        decisions.engine_choice = (
            f"static (est ~{decisions.total_est_cost:.0f}u < "
            f"compile threshold {C.COMPILE_COST:.0f}u)"
        )
        return "static"

    def _worker_pool(self):
        """The context's worker-process pool (``parallelism > 1`` only);
        spawned lazily on first request, shared by every attached session,
        reaped when the last session detaches."""
        if self.parallelism <= 1:
            return None
        return self._engine.worker_pool(self.parallelism)

    def prestart(self) -> None:
        """Spin worker processes up ahead of the first query, so interpreter
        spawn never lands inside a query (benchmarks call this before
        timing; optional otherwise — the pool spawns lazily). A worker that
        dies starting — typically a script without an ``if __name__ ==
        "__main__":`` guard — resets the pool and raises
        :class:`~repro.errors.ExecutionError`."""
        pool = self._worker_pool()
        if pool is not None:
            pool.prestart()

    def close(self) -> None:
        """Detach this session from the engine context. Idempotent; the
        last session out shuts the shared worker pool, and queries issued
        on a closed session raise :class:`~repro.errors.ViDaError` instead
        of racing torn-down state. The context itself (and everything other
        tenants warmed) survives unless this session owned it privately."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_context(self._engine, self._owns_context)

    @property
    def closed(self) -> bool:
        return self._closed

    def _log(self, stats: QueryStats, runtime: QueryRuntime) -> None:
        """Copy the runtime's execution counters into ``stats`` and file
        them: the bounded recent-query log plus the lifetime totals."""
        es = runtime.stats
        stats.raw_rows = es.raw_rows
        stats.cache_rows = es.cache_rows
        stats.raw_bytes = es.raw_bytes
        stats.cache_only = es.cache_only
        stats.cleaned_rows = es.cleaned_rows
        stats.skipped_rows = es.skipped_rows
        stats.morsels_cancelled = es.morsels_cancelled
        stats.index_builds = es.index_builds
        stats.index_hits = es.index_hits
        stats.index_rows_served = es.index_rows_served
        with self._log_lock:
            self.query_log.append(stats)
            self._queries += 1
            self._cache_only_queries += stats.cache_only

    @staticmethod
    def _apply_limit(value, limit: int | None):
        """Truncate a collection result before shaping (SQL LIMIT)."""
        if limit is not None and isinstance(value, list):
            return value[:limit]
        return value

    @staticmethod
    def _shape_output(value, output: str):
        """Re-shape a collection result ("virtualize" it, paper §3.2)."""
        if output == "python" or not isinstance(value, list):
            return value
        if output == "records":
            return [v if isinstance(v, dict) else {"value": v} for v in value]
        if output == "tuples":
            return [tuple(v.values()) if isinstance(v, dict) else (v,) for v in value]
        if output == "columns":
            if not value:
                return {}
            if not isinstance(value[0], dict):
                return {"value": list(value)}
            return {k: [row.get(k) for row in value] for k in value[0]}
        if output == "json":
            return "\n".join(_json.dumps(v, default=str) for v in value)
        if output == "bson":
            return [_bson.encode(v if isinstance(v, dict) else {"value": v})
                    for v in value]
        raise ViDaError(f"unknown output shape {output!r}")

    # -- workload-level reporting ---------------------------------------------

    def cache_hit_ratio(self) -> float:
        """Fraction of this session's queries, over its whole lifetime,
        answered without touching raw files."""
        if not self._queries:
            return 0.0
        return self._cache_only_queries / self._queries
