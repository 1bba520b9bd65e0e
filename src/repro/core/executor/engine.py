"""JIT executor: compile the physical plan, run the generated function.

Compilation is cheap (Python's ``compile`` on a few hundred lines) but not
free, so compiled queries are memoised by plan fingerprint — re-running the
same query shape skips codegen, the analogue of ViDa reusing generated
operators across a workload with locality. The cache is engine-wide: every
tenant session of an :class:`~repro.core.engine.EngineContext` shares it,
so one tenant's compilation warms the next tenant's identical query shape.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..codegen.compiler import CompiledQuery, QueryCompiler
from ..physical import PhysReduce, explain_physical


def plan_fingerprint(plan: PhysReduce) -> str:
    """A structural key identifying a physical plan (for the compile cache)."""
    return explain_physical(plan)


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

    def compile(self, plan: PhysReduce) -> CompiledQuery:
        key = plan_fingerprint(plan)
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

    def is_cached(self, plan: PhysReduce) -> bool:
        """True when this plan is already compiled (no compile cost to pay).

        A pure probe: no LRU move, no stats bump — the auto engine chooser
        asks before deciding whether JIT's compile latency is sunk.
        """
        key = plan_fingerprint(plan)
        with self._mutex:
            return key in self._compiled

    def execute(self, plan: PhysReduce, runtime):
        return self.compile(plan)(runtime)
