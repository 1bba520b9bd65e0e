"""Morsel-driven parallel scan scheduling.

The chunk protocol made the columnar batch the unit of data movement; this
module makes a *range of batches* — a **morsel** — the unit of scale-out
(Leis et al., "Morsel-Driven Parallelism", adapted to ViDa's raw-file scans).
Format plugins expose splittable scan ranges (CSV byte/row ranges, JSON span
ranges, array element ranges, cache row ranges); the planner picks a
degree of parallelism per driver scan; and :class:`MorselScheduler` fans the
per-morsel kernels out over a thread pool. :class:`ProcessMorselScheduler`
runs the same contract over a session-lifetime process pool, for kernels
shipped as picklable specs (see ``procpool``) — the backend that scales on
GIL-ful CPython.

Correctness contract: every morsel kernel folds into a *worker-local*
accumulator, and partial results are merged **in morsel order** through the
query's monoid (associative merge), so parallel answers are bit-identical
to the serial fold — including ordered outputs (``bag``/``list``), ``set``
first-occurrence dedup, and per-key hash-join build order.

Failure contract: the first morsel exception fails the whole query. Pending
morsels are cancelled; already-running workers finish (their results are
discarded) and shutdown never hangs.

Early-termination contract: an optional ``stop`` predicate sees each partial
in morsel order; once it returns True the scheduler stops consuming, cancels
every still-pending morsel, and returns the ordered prefix — the mechanism
behind parallel SQL ``LIMIT`` cutting a scan short without changing which
rows are returned.

Backpressure contract: at most ~2×DoP morsels are in flight at once. Results
are consumed in morsel order and each consumed slot admits one more
submission, so over-partitioned LIMIT scans and wide chunks cannot pile an
unbounded queue of materialised partials — which matters double when every
partial is a pickled cross-process payload.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..chunk import MORSEL_ALL, Morsel, split_ranges  # noqa: F401 (re-export)


class MorselScheduler:
    """Runs per-morsel kernels on a bounded thread pool, in morsel order.

    ``map`` returns partial results aligned with the input morsels so the
    caller can merge them deterministically. With ``dop <= 1`` (or a single
    morsel) kernels run inline on the calling thread — the serial fallback
    shares the exact code path the workers run, which keeps parallel and
    serial execution differential-testable.
    """

    #: which execution substrate runs the kernels (EXPLAIN surfaces this)
    backend = "thread"

    def __init__(self, dop: int):
        if dop < 1:
            raise ValueError(f"degree of parallelism must be >= 1, got {dop}")
        self.dop = dop
        #: morsels cancelled before they started (early termination)
        self.cancelled = 0

    def map(self, kernel, morsels: list[Morsel], stop=None) -> list:
        """Run kernels over ``morsels``; return partials in morsel order.

        ``stop(partial)``, checked as each partial is consumed in morsel
        order, ends the run early when it returns True: pending morsels are
        cancelled (counted in ``self.cancelled``), in-flight ones drain with
        their results discarded, and the ordered prefix is returned.
        """
        self.cancelled = 0
        if self.dop <= 1 or len(morsels) <= 1:
            return self._run_inline(kernel, morsels, stop)
        workers = min(self.dop, len(morsels))
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="vida-morsel") as pool:
            return self._pump(pool, kernel, morsels, stop)

    def _run_inline(self, kernel, morsels, stop) -> list:
        results = []
        for i, m in enumerate(morsels):
            results.append(kernel(m))
            if stop is not None and stop(results[-1]):
                self.cancelled = len(morsels) - i - 1
                break
        return results

    def _pump(self, pool, kernel, morsels, stop) -> list:
        """Windowed submit/consume loop shared by both pool backends.

        Keeps at most ``2 × dop`` morsels outstanding: enough that every
        worker always has a queued successor, little enough that partials
        never pile up faster than the in-order consumer drains them.
        """
        window = max(2 * self.dop, 2)
        futures = [pool.submit(kernel, m) for m in morsels[:window]]
        next_ix = len(futures)
        results: list = []
        i = 0
        try:
            while i < len(futures):
                results.append(futures[i].result())
                i += 1
                if stop is not None and stop(results[-1]):
                    # morsels never submitted were cancelled before starting
                    self.cancelled += len(morsels) - next_ix
                    self._drop_pending(futures[i:], count=True)
                    break
                if next_ix < len(morsels):
                    futures.append(pool.submit(kernel, morsels[next_ix]))
                    next_ix += 1
            return results
        except BaseException:
            # fail fast: drop queued morsels; running ones drain with their
            # results discarded, then the first failure (in morsel order)
            # propagates.
            self._drop_pending(futures[i:], count=False)
            raise

    def _drop_pending(self, pending, count: bool) -> None:
        for f in pending:
            if f.cancel() and count:
                self.cancelled += 1


class ProcessMorselScheduler(MorselScheduler):
    """Morsel scheduling over a session-lifetime worker-process pool.

    Same ordering/failure/early-termination/backpressure contract as the
    thread scheduler, but kernels must be picklable (a ``procpool`` task
    bound to a kernel-spec) and the pool outlives the query — spawning
    interpreters is a per-session fixed cost, never a per-query one.
    """

    backend = "process"

    def __init__(self, dop: int, pool):
        super().__init__(dop)
        self.pool = pool

    def map(self, kernel, morsels: list[Morsel], stop=None) -> list:
        self.cancelled = 0
        if self.pool is None or self.dop <= 1 or len(morsels) <= 1:
            # the spec kernel rehydrates in-process just as well — the
            # serial fallback stays differential-testable against workers
            return self._run_inline(kernel, morsels, stop)
        return self._pump(self.pool.executor(), kernel, morsels, stop)
