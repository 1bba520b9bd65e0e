"""Spans around the engine's public entry points, recorded from outside.

``src/`` is read-only for the benchmark, so each layer is timed by swapping a
wrapper in for its public function while a traced repeat runs and swapping the
original back afterwards (an untraced repeat runs the program untouched, which
is what makes ``trace.overhead_frac`` a real measurement). A span is
``[name, start, end, parent, query_id, meta]``; ``parent`` is the span that
caused it (its index in the written file), spans of one query share ``query_id``. Spans stay in memory and are
written out when the benchmark ends. A layer's self time is its span minus
the part its child spans cover.

Worker processes of the process backend start from a fresh import and are not
wrapped: on ``parallel_scan`` the parent-side ``procpool.map`` span is all
there is, and ``formats.*`` read zero there.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from time import perf_counter

#: (span name, module, dotted attribute, kind). ``call`` times the call,
#: ``gen`` accumulates the time spent inside a generator per ``next()``,
#: ``root`` is a call that also opens a query and keeps its QueryStats.
TARGETS = (
    ("query", "repro.core.session", "ViDa.query", "root"),
    ("query", "repro.core.session", "ViDa.sql", "root"),
    ("mcc.parse", "repro.core.session", "parse", "call"),
    ("mcc.typecheck", "repro.core.session", "typecheck", "call"),
    ("mcc.normalize", "repro.core.session", "normalize", "call"),
    ("languages.sql.parse", "repro.languages.sql", "parse_sql", "call"),
    ("core.optimizer.plan", "repro.core.optimizer.planner", "Planner.plan",
     "call"),
    ("core.codegen.compile", "repro.core.executor.engine",
     "JITExecutor.compile", "call"),
    ("core.executor.execute", "repro.core.codegen.compiler",
     "CompiledQuery.__call__", "call"),
    ("core.executor.execute", "repro.core.executor.static_engine",
     "StaticExecutor.execute", "call"),
    ("formats.csvfmt.scan", "repro.formats.csvfmt.plugin",
     "CSVSource.scan_chunks", "gen"),
    ("formats.jsonfmt.scan", "repro.formats.jsonfmt.plugin",
     "JSONSource.scan_chunks", "gen"),
    ("caching.lookup", "repro.caching.cache", "DataCache.lookup", "call"),
    ("caching.admit", "repro.caching.cache", "DataCache.put_columns", "call"),
    ("caching.admit", "repro.caching.cache", "DataCache.put", "call"),
    ("caching.extend", "repro.caching.cache", "DataCache.extend_source",
     "call"),
    ("indexing.build", "repro.indexing.value_index", "ValueIndex.add_run",
     "call"),
    ("indexing.lookup", "repro.indexing.value_index", "ValueIndex.lookup",
     "call"),
    ("stats.record", "repro.stats.table_stats", "StatsPartial.record", "call"),
    ("core.engine.refresh", "repro.core.engine",
     "EngineContext.refresh_source", "call"),
    ("core.executor.procpool.map", "repro.core.executor.scheduler",
     "ProcessMorselScheduler.map", "call"),
    # a parallel scan's file-level byte accounting, charged by the coordinator
    ("raw.account", "repro.core.executor.runtime", "QueryRuntime.account_raw",
     "call"),
)


def _account_meta(runtime, source):
    entry = runtime.catalog.get(source)
    return {"format": entry.format,
            "bytes": os.path.getsize(entry.plugin.path)}


#: span name -> what to keep of the call's arguments
META = {
    "core.executor.procpool.map":
        lambda scheduler, kernel, morsels, *rest, **kw: {
            "morsels": len(morsels)},
    "raw.account": _account_meta,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        #: (QueryStats, result row count) of every outermost traced query
        self.queries: list[tuple] = []
        #: the partials one ``procpool.map`` returned, for the pickle probe
        self.partials = None
        #: how many spans / queries the first traced repeat recorded. Counts
        #: are taken over that repeat alone so that they repeat exactly for a
        #: seed however many repeats the run's seconds allow; times use all.
        self.counted = (0, 0)
        self._local = threading.local()
        self._next_query = 0
        self._installed: list[tuple] = []

    def mark_counted(self) -> None:
        self.counted = (len(self.spans), len(self.queries))

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for name, module, dotted, kind in TARGETS:
            owner = importlib.import_module(module)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, kind))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- span recording --------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.query = None
            return self._local.stack

    def _open(self, name: str, stack: list) -> list:
        span = [name, perf_counter(), 0.0, stack[-1] if stack else None,
                self._local.query, None]
        # list.append is atomic under the GIL, so server threads may share it
        self.spans.append(span)
        stack.append(span)
        return span

    def _wrap(self, name: str, original, kind: str):
        tracer = self

        if kind == "gen":
            def wrapper(self, *args, **kwargs):
                return tracer._trace_scan(name, self, original(
                    self, *args, **kwargs), kwargs)
        elif kind == "root":
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                outermost = not stack
                if outermost:
                    tracer._next_query += 1
                    tracer._local.query = tracer._next_query
                span = tracer._open(name, stack)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if outermost:
                    value = result.value
                    tracer.queries.append(
                        (result.stats,
                         len(value) if isinstance(value, list) else 1))
                    tracer._local.query = None
                return result
        else:
            meta = META.get(name)

            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                span = tracer._open(name, stack)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if meta is not None:
                    span[5] = meta(*args, **kwargs)
                    if name == "core.executor.procpool.map":
                        tracer.partials = result
                return result
        return wrapper

    def _trace_scan(self, name: str, plugin, chunks, kwargs):
        """Time a plugin's chunk generator: only the time inside ``next()``
        belongs to the format layer, the consumer's time between chunks does
        not. ``end`` is ``start`` plus that busy time."""
        stack = self._stack()
        span = self._open(name, stack)
        stack.pop()
        split = kwargs.get("split")
        access = kwargs.get("access")
        if access is None and hasattr(plugin, "posmap"):
            access = "warm" if plugin.posmap.complete else "cold"
        busy = 0.0
        rows = 0
        try:
            while True:
                stack.append(span)
                t0 = perf_counter()
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t0
                    stack.pop()
                rows += chunk.scanned if chunk.scanned is not None \
                    else chunk.selected_length
                yield chunk
        finally:
            span[2] = span[1] + busy
            whole_file = split is None or split.kind == "all"
            span[5] = {"access": access or "cold", "rows": rows,
                       "bytes": os.path.getsize(plugin.path)
                       if whole_file else 0}

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_s[index[id(span[3])]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            agg = out.setdefault(span[0],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span[2] - span[1]
            agg["count"] += 1
            agg["total_s"] += duration
            agg["self_s"] += max(0.0, duration - child_s[i])
        return out

    def top_level_queries(self) -> int:
        return sum(1 for s in self.spans if s[0] == "query" and s[3] is None)

    def write(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2],
                 None if s[3] is None else index[id(s[3])], s[4], s[5]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "query_id", "meta"], "spans": rows}, fh)
