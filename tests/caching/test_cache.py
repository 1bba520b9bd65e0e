"""Data cache: layouts, admission policy, merging, eviction, invalidation.

Entries belong to a source state; each test builds bare states for the
sources it caches."""

import pytest

from repro.caching import AdmissionPolicy, CachedData, DataCache, materialize
from repro.core.source_state import SourceState
from repro.errors import ViDaError


def test_materialize_rows_and_columns():
    rows = [(1, "a"), (2, "b")]
    as_rows = materialize("rows", ["x", "y"], rows)
    assert list(as_rows.iter_rows(["y", "x"])) == [("a", 1), ("b", 2)]
    as_cols = materialize("columns", ["x", "y"], rows)
    assert list(as_cols.iter_rows(["x"])) == [(1,), (2,)]
    assert as_cols.covers(["y"]) and not as_cols.covers(["z"])


def test_materialize_objects_layouts():
    objs = [{"a": 1, "b": {"c": 2}}, {"a": 3, "b": {"c": 4}}]
    for layout in ("objects", "json_text", "bson"):
        cached = materialize(layout, [], objs)
        assert cached.covers(["anything"])  # whole elements serve any projection
        assert list(cached.iter_rows(["a", "b.c"])) == [(1, 2), (3, 4)]
        assert [row[0] for row in cached.iter_rows(None)] == objs


def test_positions_layout_not_iterable():
    cached = materialize("positions", [], [(0, 10), (10, 25)])
    assert cached.count == 2
    with pytest.raises(ViDaError):
        list(cached.iter_rows(["a"]))


def test_unknown_layout():
    with pytest.raises(ViDaError):
        materialize("rowgroups", [], [])


def test_cache_lookup_prefers_columns():
    S = SourceState()
    cache = DataCache(budget_bytes=1 << 20)
    cache.put(S, "objects", [], [{"a": 1}])
    cache.put(S, "columns", ["a"], [(1,)])
    entry = cache.lookup(S, ["a"])
    assert entry.cached.layout == "columns"


def test_cache_lookup_whole_needs_object_layout():
    S = SourceState()
    cache = DataCache(1 << 20)
    cache.put(S, "columns", ["a"], [(1,)])
    assert not cache.peek(S, [], whole=True)
    cache.put(S, "objects", [], [{"a": 1}])
    assert cache.peek(S, [], whole=True)


def test_columnar_merge_accumulates_fields():
    S = SourceState()
    cache = DataCache(1 << 20)
    cache.put(S, "columns", ["a"], [(1,), (2,)])
    cache.put(S, "columns", ["b"], [("x",), ("y",)])
    entry = cache.lookup(S, ["a", "b"])
    assert entry is not None
    assert list(entry.cached.iter_rows(["a", "b"])) == [(1, "x"), (2, "y")]
    # merged into a single entry
    assert len(cache) == 1


def test_columnar_merge_requires_same_count():
    S = SourceState()
    cache = DataCache(1 << 20)
    cache.put(S, "columns", ["a"], [(1,), (2,)])
    cache.put(S, "columns", ["b"], [("x",)])  # different row universe
    assert cache.lookup(S, ["a", "b"]) is None
    assert len(cache) == 2


def test_admission_policy_rejects_large_entries():
    S = SourceState()
    policy = AdmissionPolicy(max_entry_fraction=0.01)
    cache = DataCache(budget_bytes=10_000, policy=policy)
    out = cache.put(S, "columns", ["a"], [(i,) for i in range(1000)])
    assert out is None
    assert cache.stats.rejections == 1


def test_policy_nested_layout_thresholds():
    policy = AdmissionPolicy(object_bytes_demote_bson=100,
                             object_bytes_demote_positions=1000)
    assert policy.nested_layout(50) == "objects"
    assert policy.nested_layout(500) == "bson"
    assert policy.nested_layout(5000) == "positions"


def test_eviction_under_budget():
    cache = DataCache(budget_bytes=1)  # absurdly small
    cache.policy = AdmissionPolicy(max_entry_fraction=1e12)
    cache.put(SourceState(), "columns", ["a"], [(i,) for i in range(100)])
    cache.put(SourceState(), "columns", ["b"], [(i,) for i in range(100)])
    assert cache.stats.evictions >= 1
    assert len(cache) == 1  # only the most recent survives


def test_invalidate_source():
    cache = DataCache(1 << 20)
    s, t = SourceState(), SourceState()
    cache.put(s, "columns", ["a"], [(1,)])
    cache.put(t, "columns", ["b"], [(2,)])
    with s.lock:
        s.drop(cache)
    assert cache.stats.invalidations == 1
    assert cache.lookup(s, ["a"]) is None
    kept = cache.lookup(t, ["b"])
    assert kept is not None
    assert cache.used_bytes == kept.cached.nbytes
    assert cache.entries() == [kept] and not s.cached


def test_hit_ratio_stats():
    S = SourceState()
    cache = DataCache(1 << 20)
    cache.put(S, "columns", ["a"], [(1,)])
    cache.lookup(S, ["a"])
    cache.lookup(S, ["zz"])
    assert cache.stats.lookups == 2
    assert cache.stats.hits == 1
    assert cache.stats.hit_ratio == 0.5


def test_cache_running_total_tracks_every_mutation():
    def check(cache):
        assert cache.used_bytes == \
            sum(e.cached.nbytes for e in cache.entries())

    cache = DataCache(budget_bytes=200_000)
    S, U = SourceState(), SourceState()
    check(cache)
    cache.put(S, "columns", ["a"], [(i,) for i in range(100)])
    cache.put(S, "columns", ["b"], [(str(i),) for i in range(100)])  # merge
    check(cache)
    cache.put(S, "objects", [], [{"a": i} for i in range(100)])
    cache.put(S, "objects", [], [{"a": i} for i in range(100)])      # re-key
    cache.put_columns(U, ["x"], [list(range(2000))])
    check(cache)
    cache.extend_source(S, 100, 2, {"a": [1, 2], "b": ["x", "y"]},
                        tail_objects=[{"a": 1}, {"a": 2}])
    check(cache)
    cache.extend_source(U, 2000, 1, {})                  # no tail: dropped
    check(cache)
    for n in range(8):                                      # force evictions
        cache.put_columns(SourceState(), ["x"], [list(range(1500))])
        check(cache)
    assert cache.stats.evictions > 0
    cache.drop(S)
    check(cache)
    cache.clear()
    assert cache.used_bytes == 0 and len(cache) == 0
