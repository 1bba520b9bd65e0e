"""JIT table statistics: per-column summaries built as scan byproducts.

ViDa's creed is that auxiliary structures arrive just-in-time, as side
effects of queries the user was going to run anyway (paper §2.1: positional
maps; PR 7: value indexes). Statistics are no different: the
:class:`~repro.core.byproducts.ScanByproducts` a format plugin is handed
carries a :class:`StatsPartial` next to the index partial, and the plugin's
one ``record`` per batch feeds both the values it already materialised.
Partials merge in the parent under the generation-token adopt-or-discard
gate.

Everything here is **order-independent** so morsel-parallel collection is
bit-identical to serial collection at any DoP:

- counts and null counts are sums;
- min/max are kept per *type domain* (numeric vs string) so mixed-type
  columns never hit a ``TypeError`` and the result is order-free;
- NDV uses a KMV (K-minimum-values) sketch over a **deterministic** 64-bit
  hash (blake2b — Python's salted ``hash()`` would differ across worker
  processes).  The sketch prunes to the K smallest hashes after *every*
  update, so its stored set is exactly "the K smallest hashes ever
  inserted" — a set-union-like quantity independent of insertion order,
  of batching, and of how rows were partitioned into morsels.

Every summary is a **batch kernel** over a column list the scan already
materialised (``set``/``min``/``max``/``count`` builtins, one hash per
distinct value, one sort per sketch update): a by-product is never a
per-value Python call on the scan's critical path. Only values ``set``
cannot hold (container-valued JSON paths) are classified one by one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: KMV sketch size: distinct-count estimates are exact below K and within
#: ~1/sqrt(K-2) (~6%) relative error above it — plenty for join ordering.
SKETCH_K = 256

_TWO64 = float(2**64)

#: a scan remembers up to this many values per column whose hashes it has
#: already offered to the sketch, so a low-cardinality column is hashed
#: once per distinct value instead of once per distinct value *per batch*
_MEMO_VALUES = 4096

#: exact types the batch kernels handle; anything else (container-valued
#: JSON paths, numeric subclasses) takes the per-value fallback
_SCALARS = frozenset((int, float, bool, str, type(None)))

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def _canonical_bytes(value) -> bytes:
    """Deterministic byte encoding with cross-type equality classes.

    Numbers that compare equal in Python (``1 == 1.0 == True``) encode
    identically — the batch kernels dedupe through ``set``, which keeps an
    arbitrary member of each equality class, so the encoding must not
    tell the members apart. Everything else gets a type-tagged
    representation.
    """
    if isinstance(value, int):  # bool included
        return b"i%d" % value
    if isinstance(value, float):
        if value.is_integer():
            return b"i%d" % int(value)
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    return b"o" + repr(value).encode("utf-8", "backslashreplace")


def _hash64(value) -> int:
    """Deterministic 64-bit hash, stable across processes and runs."""
    digest = _blake2b(_canonical_bytes(value), digest_size=8).digest()
    return _from_bytes(digest, "big")


def _hash_ints(values) -> set[int]:
    """:func:`_hash64` of every ``int``/``bool`` in ``values``, inlined."""
    return {_from_bytes(_blake2b(b"i%d" % v, digest_size=8).digest(), "big")
            for v in values}


def _hash_strs(values) -> set[int]:
    """:func:`_hash64` of every ``str`` in ``values``, inlined."""
    return {_from_bytes(_blake2b(b"s" + v.encode("utf-8", "surrogatepass"),
                                 digest_size=8).digest(), "big")
            for v in values}


class ColumnSketch:
    """KMV distinct-value sketch: the K smallest 64-bit hashes seen.

    Invariant (load-bearing for bit-identity): after every ``update`` the
    stored set is *the* K smallest distinct hashes over all values ever
    inserted, which makes the sketch a join-semilattice — merge order,
    batching and partitioning cannot change it.
    """

    __slots__ = ("k", "_hashes", "_kth")

    def __init__(self, k: int = SKETCH_K, hashes: set[int] | None = None):
        self.k = k
        self._hashes: set[int] = set()
        #: the K-th minimum (largest stored hash) once the sketch is full
        self._kth: int | None = None
        if hashes:
            self.update(hashes)

    def update(self, hashes) -> None:
        """Fold a batch of hashes in: only hashes below the cached K-th
        minimum can enter a full sketch, and one sort prunes the rest."""
        kth = self._kth
        if kth is not None:
            hashes = [h for h in hashes if h < kth]
            if not hashes:
                return
        hs = self._hashes
        hs.update(hashes)
        if len(hs) >= self.k:
            if len(hs) > self.k:
                self._hashes = hs = set(sorted(hs)[:self.k])
            self._kth = max(hs)

    def add(self, value) -> None:
        self.update((_hash64(value),))

    def merge(self, other: "ColumnSketch") -> None:
        self.update(other._hashes)

    def estimate(self) -> int:
        """Estimated number of distinct values (exact below K)."""
        n = len(self._hashes)
        if self._kth is None:
            return n
        # classic KMV estimator: (K-1) / normalized K-th minimum
        return max(n, int((self.k - 1) * _TWO64 / self._kth))

    def snapshot(self) -> tuple[int, ...]:
        """Canonical (sorted) content — equal sketches snapshot equal."""
        return tuple(sorted(self._hashes))

    def __getstate__(self):
        return (self.k, self.snapshot())

    def __setstate__(self, state):
        self.__init__(*state)


@dataclass
class ColumnStats:
    """Order-independent summary of one column's observed values."""

    count: int = 0  # non-null values recorded
    nulls: int = 0
    num_min: float | None = None
    num_max: float | None = None
    str_min: str | None = None
    str_max: str | None = None
    sketch: ColumnSketch = field(default_factory=ColumnSketch)

    def observe_batch(self, values: list, seen: set | None = None) -> None:
        """Fold one materialised batch in with per-batch builtins.

        Min/max and the sketch only need each distinct value once, so the
        batch is deduped through ``set`` first. ``seen`` is an optional
        caller-owned memo of values this summary has already observed
        (bounded by :data:`_MEMO_VALUES`); they are skipped outright.
        """
        try:
            distinct = set(values)
            kinds = set(map(type, distinct))
        except TypeError:  # unhashable: a container-valued JSON path
            kinds = None
        if kinds is None or not kinds <= _SCALARS:
            self._observe_each(values)
            return
        nulls = values.count(None) if None in distinct else 0
        self.nulls += nulls
        self.count += len(values) - nulls
        distinct.discard(None)
        if seen is not None:
            distinct -= seen
            if len(seen) < _MEMO_VALUES:
                seen |= distinct
        if not distinct:
            return
        strs = {v for v in distinct if type(v) is str} if str in kinds else ()
        nums = distinct - strs if strs else distinct
        hashes = _hash_strs(strs)
        if float in kinds:
            hashes.update(map(_hash64, nums))
        else:
            hashes |= _hash_ints(nums)
        self._fold(nums, strs, hashes)

    def _observe_each(self, values) -> None:
        """Per-value fallback: classify and hash every value one by one
        (unhashable values have no cheaper identity than their ``repr``),
        then feed the same batch fold."""
        nums, strs, hashes = [], [], set()
        for v in values:
            if v is None:
                self.nulls += 1
                continue
            self.count += 1
            if isinstance(v, (int, float)):
                nums.append(v)
            elif isinstance(v, str):
                strs.append(v)
            hashes.add(_hash64(v))
        self._fold(nums, strs, hashes)

    def _fold(self, nums, strs, hashes) -> None:
        if nums:
            lo, hi = min(nums), max(nums)
            if lo != lo:
                # a leading NaN poisons min()/max(); NaN never bounds a range
                nums = [v for v in nums if v == v]
                lo, hi = (min(nums), max(nums)) if nums else (None, None)
            if lo is not None:
                lo, hi = float(lo), float(hi)
                if self.num_min is None or lo < self.num_min:
                    self.num_min = lo
                if self.num_max is None or hi > self.num_max:
                    self.num_max = hi
        if strs:
            lo, hi = min(strs), max(strs)
            if self.str_min is None or lo < self.str_min:
                self.str_min = lo
            if self.str_max is None or hi > self.str_max:
                self.str_max = hi
        self.sketch.update(hashes)

    def merge(self, other: "ColumnStats") -> None:
        self.count += other.count
        self.nulls += other.nulls
        for attr, pick in (("num_min", min), ("num_max", max),
                           ("str_min", min), ("str_max", max)):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                setattr(self, attr, theirs if mine is None else pick(mine, theirs))
        self.sketch.merge(other.sketch)

    @property
    def ndv(self) -> int:
        return self.sketch.estimate()

    @property
    def null_fraction(self) -> float:
        total = self.count + self.nulls
        return (self.nulls / total) if total else 0.0

    def snapshot(self) -> tuple:
        """Canonical content tuple for bit-identity assertions."""
        return (self.count, self.nulls, self.num_min, self.num_max,
                self.str_min, self.str_max, self.sketch.snapshot())


@dataclass
class TableStats:
    """Per-source statistics: row count plus per-column summaries.

    ``row_count`` is only ever set from a *complete* scan (serial scans
    that ran to exhaustion, or parallel scans where every split reported);
    column entries may cover a subset of columns, accreting as later
    queries touch more of them.
    """

    row_count: int | None = None
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def snapshot(self) -> tuple:
        return (self.row_count, tuple(sorted(
            (name, cs.snapshot()) for name, cs in self.columns.items()
        )))


class StatsPartial:
    """Per-scan (or per-morsel) statistics accumulator, driven through
    :class:`~repro.core.byproducts.ScanByproducts`.

    Same ``record``/``advance`` shape as ``IndexPartial`` but with **count
    semantics**: ``advance`` adds row counts (each batch is advanced
    exactly once), and ``record`` never advances — so a split partial's
    ``rows_seen`` is the number of rows *it* scanned, and the parent can
    sum splits to a total row count. Picklable, so process morsel workers
    ship partials home like posmap deltas.
    """

    __slots__ = ("fields", "rows_seen", "columns", "_seen")

    def __init__(self, fields=()):
        self.fields = tuple(fields)
        self.rows_seen = 0
        self.columns: dict[str, ColumnStats] = {
            f: ColumnStats() for f in self.fields
        }
        #: per-column memo of values already observed by this scan (see
        #: :meth:`ColumnStats.observe_batch`); scratch state, never shipped
        self._seen: dict[str, set] = {f: set() for f in self.fields}

    def advance(self, start: int, nrows: int) -> None:
        """One batch of ``nrows`` rows was scanned (values recorded or not)."""
        self.rows_seen += nrows

    def record(self, start: int, columns: dict[str, list]) -> None:
        """Record materialised values for this batch. Does NOT advance."""
        for name, values in columns.items():
            cs = self.columns.get(name)
            if cs is not None:
                cs.observe_batch(values, self._seen.get(name))

    def merge(self, other: "StatsPartial") -> None:
        self.rows_seen += other.rows_seen
        for name, cs in other.columns.items():
            mine = self.columns.get(name)
            if mine is None:
                self.columns[name] = cs
            else:
                mine.merge(cs)

    def __getstate__(self):
        return (self.fields, self.rows_seen, self.columns)

    def __setstate__(self, state):
        self.fields, self.rows_seen, self.columns = state
        self._seen = {}
