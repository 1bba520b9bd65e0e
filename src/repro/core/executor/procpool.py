"""Process-pool morsel backend: picklable kernel specs and worker processes.

Thread morsels (PR 2) close over live objects — plugins, caches, compiled
functions — none of which can cross a process boundary. This module defines
the *kernel spec* protocol that makes morsel kernels shippable: a
self-contained work description (source paths + format descriptors + scan
ranges + the query's fold/predicate logic) that a child process rehydrates
and compiles or interprets locally.

The contract, mirrored by ARCHITECTURE.md:

- The parent ships a :class:`KernelSpec` once per parallel scan; children
  cache the rehydrated state (catalog, exec'd JIT module or unpickled
  physical plan) keyed by the spec bytes, so per-morsel cost is one small
  ``(spec_key, morsel)`` message.
- Children build the morsel's partial plus worker-local stat deltas and one
  by-product object per scanned source (positional-map, statistics and
  cache-population partials; never an index partial); they never touch the
  parent's cache. All cache admission and by-product adoption happens in
  the parent, in morsel order, through the same gate the thread path uses.
- Results travel as plain pickles.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

#: formats whose sources can be described by a SourceSpec and rebuilt in a
#: worker without dragging live object graphs across the process boundary
SPECABLE_FORMATS = ("csv", "json", "array", "xls", "memory")

#: rehydrated query states kept per worker process (catalog + module/plan)
_CHILD_CACHE_MAX = 8


# ---------------------------------------------------------------------------
# kernel specs


@dataclass(frozen=True)
class SourceSpec:
    """Self-contained description of one catalog source.

    Carries exactly what a worker needs to rebuild the plugin *without*
    re-running schema inference: explicit columns/types for CSV, the
    complete positional map for warm CSV scans, semi-index spans for JSON.
    """

    name: str
    format: str
    path: str | None = None
    #: format-specific scalars (CSV delimiter/header, array dims, xls sheet)
    options: tuple = ()
    columns: tuple | None = None
    types: tuple | None = None
    #: pickled auxiliary structure (complete posmap / semi-index spans)
    aux: bytes | None = None
    #: in-memory sources ship their rows directly
    data: tuple | None = None


@dataclass(frozen=True)
class KernelSpec:
    """Everything a worker process needs to run one query's morsel kernel."""

    kind: str  # "jit" | "static"
    #: JIT: utf-8 generated module source; static: pickled physical plan
    payload: bytes
    #: JIT worker function name inside the module ("" for static)
    worker: str = ""
    sources: tuple = ()  # SourceSpec per catalog source
    #: pickled read-only shared state (hash tables, monoids, NL inner rows)
    shared: bytes = b""
    cleaning: bytes = b""  # pickled {source name: cleaning policy}
    row_limit: int | None = None
    #: table-statistics marching orders: (source, row count known?, known
    #: column names) per source — children collect only what the parent's
    #: shared registry is missing, and ship the partials home
    stats_sources: tuple = ()


def source_spec(entry) -> SourceSpec:
    """Describe one catalog entry for worker-side rebuilding."""
    fmt = entry.format
    if fmt == "memory":
        return SourceSpec(entry.name, fmt, data=tuple(entry.data))
    plugin = entry.plugin
    if fmt == "csv":
        aux = pickle.dumps(plugin.posmap) if plugin.posmap.complete else None
        return SourceSpec(
            entry.name, fmt, path=plugin.path,
            options=(plugin.options.delimiter, plugin.options.header),
            columns=tuple(plugin.columns), types=tuple(plugin.types), aux=aux,
        )
    if fmt == "json":
        aux = None
        if plugin.has_semi_index():
            aux = pickle.dumps(tuple(plugin.semi_index.spans))
        return SourceSpec(entry.name, fmt, path=plugin.path, aux=aux)
    if fmt == "array":
        return SourceSpec(entry.name, fmt, path=plugin.path,
                          options=tuple(plugin.dim_names or ()))
    if fmt == "xls":
        return SourceSpec(entry.name, fmt, path=plugin.path,
                          options=(entry.description.options.get("sheet"),))
    raise ValueError(f"source {entry.name!r} ({fmt}) has no process-safe spec")


def catalog_specs(catalog) -> tuple:
    """Specs for every spec-able source; non-shippable ones are skipped
    (the planner guarantees a process-backend plan references none)."""
    specs = []
    for name in sorted(catalog.names()):
        entry = catalog.get(name)
        if entry.format in SPECABLE_FORMATS:
            specs.append(source_spec(entry))
    return tuple(specs)


def build_catalog(specs):
    """Worker side: rebuild a catalog from shipped specs. CSV entries reuse
    the parent's sniffed schema (explicit columns/types) and, for warm scans,
    its complete positional map, so children never re-infer anything big."""
    from ..catalog import Catalog

    cat = Catalog()
    for s in specs:
        if s.format == "csv":
            entry = cat.register_csv(
                s.name, s.path, delimiter=s.options[0], header=s.options[1],
                columns=list(s.columns), types=list(s.types),
            )
            if s.aux is not None:
                entry.plugin.posmap = pickle.loads(s.aux)
        elif s.format == "json":
            entry = cat.register_json(s.name, s.path)
            if s.aux is not None:
                from ...formats.jsonfmt.semi_index import JSONSemiIndex

                entry.plugin._semi_index = JSONSemiIndex(list(pickle.loads(s.aux)))
        elif s.format == "array":
            cat.register_array(s.name, s.path, list(s.options) or None)
        elif s.format == "xls":
            cat.register_xls(s.name, s.path, s.options[0])
        elif s.format == "memory":
            cat.register_memory(s.name, list(s.data))
    return cat


def jit_spec(rt, module_source: str, worker: str, shared: dict) -> KernelSpec:
    """Spec for a JIT parallel scan: the generated module plus the worker's
    read-only closure state (hash tables, monoid objects, NL inner rows)."""
    return KernelSpec(
        kind="jit", payload=module_source.encode("utf-8"), worker=worker,
        sources=catalog_specs(rt.catalog), shared=pickle.dumps(shared),
        cleaning=pickle.dumps(rt.cleaning), row_limit=rt.row_limit,
        stats_sources=rt._stats_spec(),
    )


def static_spec(rt, plan, shared_ix: dict) -> KernelSpec:
    """Spec for a static-engine parallel scan: the pickled physical plan plus
    prebuilt join state re-keyed by stable chain index (object ids do not
    survive pickling)."""
    return KernelSpec(
        kind="static", payload=pickle.dumps(plan),
        sources=catalog_specs(rt.catalog), shared=pickle.dumps(shared_ix),
        cleaning=pickle.dumps(rt.cleaning), row_limit=rt.row_limit,
        stats_sources=rt._stats_spec(),
    )


# ---------------------------------------------------------------------------
# worker-process entry points


_CHILD_CACHE: "OrderedDict[bytes, tuple]" = OrderedDict()


def _exec_module(source: str) -> dict:
    """Exec a generated JIT module with the same globals recipe the parent
    compiler uses, so helper names resolve identically."""
    import math

    from ..codegen.helpers import HELPERS

    ns = {
        "_H": HELPERS,
        "_m_sqrt": math.sqrt,
        "_m_exp": math.exp,
        "_m_log": math.log,
    }
    ns.update(HELPERS)
    exec(compile(source, "<vida-process-kernel>", "exec"), ns)
    return ns


def _child_state(spec_bytes: bytes) -> tuple:
    """Rehydrate (or fetch the cached) query state for a spec."""
    state = _CHILD_CACHE.get(spec_bytes)
    if state is not None:
        _CHILD_CACHE.move_to_end(spec_bytes)
        return state
    spec = pickle.loads(spec_bytes)
    catalog = build_catalog(spec.sources)
    cleaning = pickle.loads(spec.cleaning)
    shared = pickle.loads(spec.shared)
    if spec.kind == "jit":
        ns = _exec_module(spec.payload.decode("utf-8"))
        state = (spec, catalog, cleaning, shared, ns[spec.worker])
    else:
        from .static_engine import StaticExecutor, rekey_shared

        plan = pickle.loads(spec.payload)
        shared = rekey_shared(plan, shared)
        state = (spec, catalog, cleaning, shared, (StaticExecutor(catalog), plan))
    while len(_CHILD_CACHE) >= _CHILD_CACHE_MAX:
        _CHILD_CACHE.popitem(last=False)
    _CHILD_CACHE[spec_bytes] = state
    return state


def _child_runtime(catalog, cleaning, row_limit, stats_sources=()):
    from ...caching import DataCache
    from .runtime import QueryRuntime

    stats_hint = {
        src: (have_rows, frozenset(known))
        for src, have_rows, known in stats_sources
    }
    return QueryRuntime(catalog, DataCache(0), cleaning, {},
                        row_limit=row_limit, stats_hint=stats_hint)


def _finish(rt, partial) -> tuple:
    """Package one morsel's result: partial + stat deltas + the morsel's
    by-products (source → ScanByproducts, cache population included), all
    taken by the parent under its lock. The child runtime has no index
    registry, so no index partial is ever built or shipped from a worker."""
    stats = (rt.stats.raw_rows, rt.stats.cleaned_rows,
             rt.stats.skipped_rows, rt.stats.cache_rows)
    byproducts = {src: part for src, by_split in rt._byproducts.items()
                  for part in by_split.values()}
    return (partial, stats, byproducts)


def run_jit_morsel(spec_bytes: bytes, morsel) -> tuple:
    """Child task: run one JIT morsel kernel against a fresh local runtime."""
    spec, catalog, cleaning, shared, worker = _child_state(spec_bytes)
    rt = _child_runtime(catalog, cleaning, spec.row_limit, spec.stats_sources)
    return _finish(rt, worker(rt, shared, morsel))


def run_static_morsel(spec_bytes: bytes, morsel) -> tuple:
    """Child task: interpret one morsel of a static physical plan."""
    spec, catalog, cleaning, shared, (executor, plan) = _child_state(spec_bytes)
    rt = _child_runtime(catalog, cleaning, spec.row_limit, spec.stats_sources)
    return _finish(rt, executor.driver_partial(plan, rt, morsel, shared))


# ---------------------------------------------------------------------------
# the session-lifetime pool


def _noop(_i: int) -> int:
    return _i


class WorkerPool:
    """Lazily-spawned, engine-lifetime ``ProcessPoolExecutor`` (spawn
    context, so workers are safe regardless of parent threads) reused across
    queries and *shared by every session* of an engine context — process
    spawn is a per-engine fixed cost, not per-query or per-tenant.

    Lifecycle is concurrency-safe and idempotent: sessions are refcounted
    by the owning :class:`~repro.core.engine.EngineContext`, which calls
    :meth:`shutdown` when the last one detaches; repeated shutdowns are
    no-ops, and submitting against a permanently closed pool raises a clear
    error instead of hanging on a dead executor.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max(1, int(max_workers))
        self._executor: ProcessPoolExecutor | None = None
        self._mutex = threading.Lock()
        self._closed = False

    def executor(self) -> ProcessPoolExecutor:
        with self._mutex:
            if self._closed:
                from ...errors import ExecutionError

                raise ExecutionError(
                    "worker pool is permanently closed (engine context shut "
                    "down); open a new session against a live context"
                )
            if self._executor is None:
                ctx = multiprocessing.get_context("spawn")
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=ctx
                )
            return self._executor

    def prestart(self) -> None:
        """Spawn and warm every worker up front (benchmarks call this so
        interpreter start-up never lands inside a timed region)."""
        ex = self.executor()
        list(ex.map(_noop, range(self.max_workers * 2)))

    def shutdown(self, permanent: bool = True) -> None:
        """Reap the worker processes. Idempotent; ``permanent`` (the
        default — the engine context only shuts a pool it is discarding)
        additionally poisons the pool so later submits fail fast."""
        with self._mutex:
            if permanent:
                self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
