"""JIT executor: compile the physical plan, run the generated function.

Compilation is cheap (Python's ``compile`` on a few hundred lines) but not
free, so compiled queries are memoised by plan fingerprint — re-running the
same query shape skips codegen, the analogue of ViDa reusing generated
operators across a workload with locality. The cache is engine-wide: every
tenant session of an :class:`~repro.core.engine.EngineContext` shares it,
so one tenant's compilation warms the next tenant's identical query shape.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

from ..codegen.compiler import CompiledQuery, QueryCompiler
from ..physical import PhysReduce, explain_physical


#: a scan line's pinned generation and its row and cost estimates as
#: EXPLAIN renders them
_UNREAD = re.compile(
    r", (?:generation=\d+|est_rows=~\S+ est_cost=~[^\s,)]+)")


def plan_fingerprint(plan: PhysReduce, plan_text: str | None = None) -> str:
    """A structural key identifying a physical plan (for the compile cache):
    its EXPLAIN rendering (``plan_text`` when the caller already holds it)
    without the scans' pinned generations and row and cost estimates.
    Generated code reads none of them (the runtime serves a pinned scan),
    and they move whenever a file grows or a query travels to another
    generation — with them in the key every query after a delta refresh
    recompiled the function it already had."""
    if plan_text is None:
        plan_text = explain_physical(plan)
    return _UNREAD.sub("", plan_text)


@dataclass
class JITStats:
    compilations: int = 0
    cache_hits: int = 0
    evictions: int = 0


class JITExecutor:
    """Compiles plans to Python functions; caches compilations (true LRU).

    Concurrency-safe and multi-tenant: the cache is keyed by plan
    fingerprint, LRU bookkeeping runs under a mutex, and compilation
    itself happens outside the lock — two sessions racing the same cold
    plan compile twice, the second insert wins, nothing corrupts.
    """

    def __init__(self, catalog, max_cached: int = 256):
        self.catalog = catalog
        self.max_cached = max_cached
        # insertion-ordered dict used as an LRU: hits move to the end, so
        # the front is always the least-recently-used entry
        self._compiled: dict[str, CompiledQuery] = {}
        self._mutex = threading.Lock()
        self.stats = JITStats()

    def compile(self, plan: PhysReduce,
                plan_text: str | None = None) -> CompiledQuery:
        """Compiled function for ``plan``. ``plan_text`` is the plan's
        EXPLAIN rendering when the caller already holds it (the session
        keeps it beside the prepared plan)."""
        key = plan_fingerprint(plan, plan_text)
        with self._mutex:
            hit = self._compiled.pop(key, None)
            if hit is not None:
                self._compiled[key] = hit  # move-to-end: hot keys survive
                self.stats.cache_hits += 1
                return hit
        compiled = QueryCompiler(self.catalog).compile(plan)
        with self._mutex:
            self.stats.compilations += 1
            if key not in self._compiled and \
                    len(self._compiled) >= self.max_cached:
                self._compiled.pop(next(iter(self._compiled)))
                self.stats.evictions += 1
            self._compiled[key] = compiled
        return compiled

    def is_cached(self, plan: PhysReduce,
                  plan_text: str | None = None) -> bool:
        """True when this plan is already compiled (no compile cost to pay).

        A pure probe: no LRU move, no stats bump — the auto engine chooser
        asks before deciding whether JIT's compile latency is sunk.
        """
        key = plan_fingerprint(plan, plan_text)
        with self._mutex:
            return key in self._compiled

    def execute(self, plan: PhysReduce, runtime):
        return self.compile(plan)(runtime)
