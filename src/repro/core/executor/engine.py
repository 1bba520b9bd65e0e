"""JIT executor: compile the physical plan, run the generated function.

Compilation is cheap (Python's ``compile`` on a few hundred lines) but not
free, so compiled functions are memoised by *plan shape*
(:func:`~repro.core.physical.plan_shape`): the plan rendered with typed
slots where its literals, scan nodes and monoids are, without estimates or
pinned generations. Every literal of a query template, every file
generation and every time-travel pin runs one compiled function — the
analogue of ViDa reusing generated operators across a workload with
locality. The cache is engine-wide: every tenant session of an
:class:`~repro.core.engine.EngineContext` shares it, so one tenant's
compilation warms the next tenant's queries of the same shape.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..codegen.compiler import CompiledQuery, QueryCompiler
from ..physical import PhysReduce, PlanShape, plan_shape


@dataclass
class JITStats:
    compilations: int = 0
    cache_hits: int = 0
    evictions: int = 0


class JITExecutor:
    """Compiles plans to Python functions; caches compilations (true LRU).

    Concurrency-safe and multi-tenant: the cache is keyed by plan shape,
    LRU bookkeeping runs under a mutex, and compilation itself happens
    outside the lock — two sessions racing the same cold shape compile
    twice, the second insert wins, nothing corrupts.
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
                shape: PlanShape | None = None) -> CompiledQuery:
        """The compiled function of ``plan``'s shape. ``shape`` is the
        plan's :class:`PlanShape` when the caller already holds it (the
        session keeps it beside the prepared plan)."""
        key = (shape or plan_shape(plan)).key
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

    def is_cached(self, shape: PlanShape) -> bool:
        """True when this plan shape is already compiled (no compile cost
        to pay).

        A pure probe: no LRU move, no stats bump — the auto engine chooser
        asks before deciding whether JIT's compile latency is sunk.
        """
        with self._mutex:
            return shape.key in self._compiled

    def execute(self, plan: PhysReduce, runtime):
        shape = plan_shape(plan)
        return self.compile(plan, shape)(runtime, shape)
