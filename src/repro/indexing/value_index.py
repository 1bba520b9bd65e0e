"""Value-index structures: hash entries + sorted runs over touched rows.

A :class:`ValueIndex` maps column values to the (global) row numbers that
hold them, but only for the row ranges a scan has actually touched — the
``covered`` interval list is as much a part of the structure as the hash
table. Lookups answer *within covered rows only*; the caller scans the
complement (``uncovered_ranges``) with the original predicate, so a
partially built index is always correct, never merely "mostly right".

Lookup specs are plain tuples shared by the planner, runtime and engines:

- ``("eq", field, value)``
- ``("in", field, (v1, v2, ...))``
- ``("range", field, lo, hi, lo_incl, hi_incl)`` with ``None`` open ends

A lookup may return ``None`` (probe type unservable — e.g. a range probe
on a value type with no sorted run); the caller falls back to a full scan.
Candidate rows are always returned sorted ascending, and are a *superset*
of the true matches within covered rows under engine semantics — the
engines keep the original predicate as a recheck, so hash-equality quirks
(``1 == 1.0 == True`` key collapse, NULL comparison semantics) can only
produce false positives, never wrong answers.
"""

from __future__ import annotations

import bisect
import threading
from itertools import chain
from typing import Any, Sequence


class ValueIndex:
    """Hash + sorted-run index over one field's covered row ranges."""

    __slots__ = ("field", "entries", "covered", "_typed_runs", "_fresh",
                 "_lock")

    def __init__(self, field: str):
        self.field = field
        #: value -> list of global row numbers holding it (covered rows only)
        self.entries: dict[Any, list[int]] = {}
        #: sorted disjoint [lo, hi) half-open row ranges already indexed
        self.covered: list[tuple[int, int]] = []
        #: published sorted key runs by ordered domain (None until the first
        #: range probe). Only ever *replaced*: a concurrent tenant bisecting
        #: the old lists sees a complete run, never one mid-sort
        self._typed_runs: dict[str, list] | None = None
        #: keys created since the runs were published, merged in lazily by
        #: the next range probe of this field
        self._fresh: list = []
        # growth and run publication serialise here (a leaf lock); probes
        # that find nothing to publish never take it
        self._lock = threading.Lock()

    # -- building ---------------------------------------------------------

    def add_run(self, start: int, values: Sequence) -> int:
        """Index ``values`` as rows ``[start, start+len)``, skipping any
        subrange already covered (so re-scans of the same rows are free).
        Returns the number of rows newly indexed."""
        end = start + len(values)
        if end <= start:
            return 0
        added = 0
        entries = self.entries
        with self._lock:
            # remember created keys only once runs exist: until the first
            # range probe there is nothing to merge them into
            created = self._fresh if self._typed_runs is not None else None
            for lo, hi in self._uncovered_within(start, end):
                for row in range(lo, hi):
                    v = values[row - start]
                    try:
                        bucket = entries.get(v)
                        if bucket is None:
                            entries[v] = [row]
                            if created is not None:
                                created.append(v)
                        else:
                            bucket.append(row)
                    except TypeError:
                        # unhashable (nested JSON value): probes are scalar
                        # consts, so an unindexed unhashable can never be a
                        # false negative — safe to leave out of the hash
                        # table
                        pass
                added += hi - lo
            # coverage last: a probe that reads ``covered`` first and the
            # keys second finds every key of every range it saw covered
            if added or not self._covers(start, end):
                self._merge_covered(start, end)
        return added

    def _covers(self, lo: int, hi: int) -> bool:
        i = bisect.bisect_right(self.covered, (lo, float("inf"))) - 1
        return i >= 0 and self.covered[i][1] >= hi and self.covered[i][0] <= lo

    def _uncovered_within(self, lo: int, hi: int):
        """Subranges of [lo, hi) not yet covered, in ascending order."""
        pos = lo
        for clo, chi in self.covered:
            if chi <= pos:
                continue
            if clo >= hi:
                break
            if clo > pos:
                yield (pos, min(clo, hi))
            pos = max(pos, chi)
            if pos >= hi:
                break
        if pos < hi:
            yield (pos, hi)

    def _merge_covered(self, lo: int, hi: int) -> None:
        merged: list[tuple[int, int]] = []
        placed = False
        for clo, chi in self.covered:
            if chi < lo or clo > hi:
                if not placed and clo > hi:
                    merged.append((lo, hi))
                    placed = True
                merged.append((clo, chi))
            else:
                lo = min(lo, clo)
                hi = max(hi, chi)
        if not placed:
            merged.append((lo, hi))
            merged.sort()
        self.covered = merged

    # -- coverage ---------------------------------------------------------

    def indexed_rows(self) -> int:
        return sum(hi - lo for lo, hi in self.covered)

    def coverage(self, total_rows: int) -> float:
        return self.indexed_rows() / max(1, total_rows)

    def uncovered_ranges(self, total_rows: int) -> list[tuple[int, int]]:
        """Complement of ``covered`` within ``[0, total_rows)``."""
        out: list[tuple[int, int]] = []
        pos = 0
        for lo, hi in self.covered:
            if lo >= total_rows:
                break
            if lo > pos:
                out.append((pos, lo))
            pos = max(pos, hi)
            if pos >= total_rows:
                break
        if pos < total_rows:
            out.append((pos, total_rows))
        return out

    # -- probing ----------------------------------------------------------

    def lookup(self, spec: tuple) -> list[int] | None:
        """Sorted candidate rows within covered ranges, or ``None`` when
        this probe can't be served (caller falls back to a full scan)."""
        buckets = self._buckets(spec)
        if buckets is None:
            return None
        # a row holds one value, so the buckets of distinct keys are disjoint
        rows = list(chain.from_iterable(buckets))
        rows.sort()
        return rows

    def count(self, spec: tuple) -> int | None:
        """``len(lookup(spec))`` without building the row list — what the
        planner costs an index access path with: the bucket lengths of the
        probed values, or of the keys two bisects cut out of the sorted
        run. Never more work than the probe it prices."""
        buckets = self._buckets(spec)
        return None if buckets is None else sum(map(len, buckets))

    def key_count(self, spec: tuple) -> int | None:
        """How many distinct keys (row buckets) the probe opens — for a
        range the two bisects alone, O(log n). Every key holds at least
        one row, so ``key_count <= count``: a probe too dense to win is
        rejected before any bucket is summed."""
        if spec[0] == "range":
            cut = self._range_keys(*spec[2:])
            return None if cut is None else max(0, cut[2] - cut[1])
        buckets = self._buckets(spec)
        return None if buckets is None else sum(map(bool, buckets))

    def _buckets(self, spec: tuple):
        """The row buckets ``spec`` selects (``None``: unservable probe)."""
        kind = spec[0]
        if kind == "eq":
            return self._value_buckets((spec[2],))
        if kind == "in":
            return self._value_buckets(spec[2])
        if kind == "range":
            cut = self._range_keys(*spec[2:])
            if cut is None:
                return None
            run, i, j = cut
            return map(self.entries.__getitem__, run[i:j])
        return None

    def _value_buckets(self, values: Sequence):
        # IN-lists may repeat hash-equal values (e.g. (1, 1.0)): one bucket
        distinct: dict[Any, list[int]] = {}
        for v in values:
            try:
                if v not in distinct:
                    distinct[v] = self.entries.get(v, ())
            except TypeError:
                pass  # unhashable probe: no hashed value can equal it
        return distinct.values()

    def _range_keys(self, lo, hi, lo_incl: bool, hi_incl: bool):
        """``(run, i, j)``: the sorted key run of the probe's domain and
        the slice of it the bounds cut out (``None``: unservable probe)."""
        probe = lo if lo is not None else hi
        if isinstance(probe, (int, float)):
            run = self._sorted_runs()["num"]
        elif isinstance(probe, str):
            run = self._sorted_runs()["str"]
        else:
            return None  # no ordered domain for this probe type
        i, j = 0, len(run)
        if lo is not None:
            i = (bisect.bisect_left(run, lo) if lo_incl
                 else bisect.bisect_right(run, lo))
        if hi is not None:
            j = (bisect.bisect_right(run, hi) if hi_incl
                 else bisect.bisect_left(run, hi))
        return run, i, j

    def _sorted_runs(self) -> dict[str, list]:
        """Sorted key runs partitioned by ordered type, built at the first
        range probe and from then on *merged*: a growth leaves its new keys
        in ``_fresh`` and the next probe publishes ``sorted(run + fresh)``
        (timsort merges the two runs linearly) instead of re-classifying
        and re-sorting every key after each 1% append.

        Comparisons against values outside these domains (None, nested
        structures) raise in the engines too, so excluding them from the
        runs cannot create false negatives."""
        runs = self._typed_runs
        if runs is None or self._fresh:
            with self._lock:
                runs = self._typed_runs
                fresh = self.entries if runs is None else self._fresh
                if runs is None or fresh:
                    num = [k for k in fresh if isinstance(k, (int, float))]
                    strs = [k for k in fresh if isinstance(k, str)]
                    if runs is not None:
                        num = sorted(runs["num"] + num) if num \
                            else runs["num"]
                        strs = sorted(runs["str"] + strs) if strs \
                            else runs["str"]
                    else:
                        num.sort()
                        strs.sort()
                    # publish before forgetting the fresh keys: a probe that
                    # finds ``_fresh`` empty must find them in the runs
                    self._typed_runs = runs = {"num": num, "str": strs}
                    self._fresh = []
        return runs


class IndexPartial:
    """Per-scan (or per-morsel) recorder of emitted column runs.

    Rides in a scan's :class:`~repro.core.byproducts.ScanByproducts` next
    to the posmap and statistics partials: the plugin records converted
    column values batch by batch; the coordinator merges partials in morsel
    order via :meth:`SourceState.adopt_indexes`. Row numbers are the
    file's: index partials come from serial scans and from the row ranges
    of index-served scans, never from a worker process's byte morsel.
    """

    __slots__ = ("fields", "runs")

    def __init__(self, fields: Sequence[str]):
        self.fields = tuple(fields)
        self.runs: dict[str, list[tuple[int, list]]] = {
            f: [] for f in self.fields
        }

    def record(self, start: int, columns: dict[str, list]) -> None:
        """Record one batch's converted values per field; ``start`` is the
        batch's first file row."""
        for field, values in columns.items():
            run = self.runs.get(field)
            if run is not None and values:
                run.append((start, values))
