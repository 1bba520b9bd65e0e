"""EngineContext: shared, concurrency-safe state for many tenant sessions.

The tentpole invariants: two sessions racing a cold scan produce exactly
one adopted positional map and bit-identical answers; every merge point is
adopt-or-discard against the generation token; session close is idempotent
and refcounted; the JIT compile cache is shared but keyed per codegen mode.
"""

import os
import threading

import pytest

from repro import EngineContext, ViDa, ViDaError
from repro.caching import DataCache
from repro.core.chunk import MORSEL_ALL
from repro.core.executor.runtime import QueryRuntime
from repro.core.physical import PhysScan

ROWS = 4000
SUM_Q = "for { t <- T, t.age > 40 } yield sum t.score"
BAG_Q = "for { t <- T, t.age > 40 } yield bag (id := t.id, s := t.score)"


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        fh.write("id,age,score\n")
        for i in range(ROWS):
            fh.write(f"{i},{20 + i % 60},{i * 3 % 101}\n")
    return str(path)


def serial_answer(csv_path, query):
    db = ViDa()
    db.register_csv("T", csv_path)
    try:
        return db.query(query).value
    finally:
        db.close()


# ---------------------------------------------------------------------------
# the cold-scan race: one winner, zero corruption, identical answers
# ---------------------------------------------------------------------------


def test_two_sessions_race_cold_scan(csv_path):
    expected = serial_answer(csv_path, BAG_Q)
    ctx = EngineContext()
    sessions = [ViDa(context=ctx) for _ in range(2)]
    sessions[0].register_csv("T", csv_path)

    barrier = threading.Barrier(2)
    results, errors = [None, None], []

    def run(i):
        try:
            barrier.wait()
            results[i] = sessions[i].query(BAG_Q).value
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # bit-identical to serial execution, for both racers
    assert results[0] == expected
    assert results[1] == expected
    # exactly one positional map was adopted; the loser (if it also ran
    # cold) discarded its partial instead of corrupting the winner's
    assert ctx.stats.posmap_adoptions == 1
    plugin = ctx.catalog.get("T").plugin
    assert plugin.posmap.complete
    assert len(plugin.posmap.row_offsets) == ROWS
    for s in sessions:
        s.close()


def test_many_sessions_race_cold_scan_sum(csv_path):
    expected = serial_answer(csv_path, SUM_Q)
    ctx = EngineContext()
    n = 6
    sessions = [ViDa(context=ctx) for _ in range(n)]
    sessions[0].register_csv("T", csv_path)
    barrier = threading.Barrier(n)
    results = [None] * n

    def run(i):
        barrier.wait()
        results[i] = sessions[i].query(SUM_Q).value

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [expected] * n
    assert ctx.stats.posmap_adoptions == 1
    for s in sessions:
        s.close()


def test_forced_cold_rescan_discards_partial(csv_path):
    """A cold scan finishing after the map is complete discards its partial
    (adopt-or-discard), leaving the winner's map untouched."""
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    db.query(SUM_Q)  # builds + adopts the positional map
    assert ctx.stats.posmap_adoptions == 1
    plugin = ctx.catalog.get("T").plugin
    before = plugin.posmap

    rt = QueryRuntime(ctx.catalog, DataCache(0), engine=ctx)
    for _ in rt.scan(PhysScan("T", "t", "csv", ("age",), "cold")):
        pass
    assert ctx.stats.posmap_discards >= 1
    assert ctx.catalog.get("T").plugin.posmap is before
    assert before.complete
    db.close()


# ---------------------------------------------------------------------------
# generation tokens: stale scans never poison fresh state
# ---------------------------------------------------------------------------


def _mutate(csv_path):
    with open(csv_path, "a") as fh:
        fh.write(f"{10**6},99,1\n")


def test_stale_cache_admission_dropped(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    rt = QueryRuntime(ctx.catalog, ctx.cache, engine=ctx)
    rt.touch_generation("T")

    _mutate(csv_path)
    assert ctx.refresh_source("T") is False  # generation bumped

    # a populating scan's offer, finished after the mutation
    byproducts = rt._request_byproducts("T", None, populate=("age",))
    byproducts.cache.data[0].extend([1, 2, 3])
    rt._adopt_byproducts("T", {MORSEL_ALL: byproducts}, [MORSEL_ALL])
    assert ctx.stats.stale_admissions_dropped == 1
    assert not ctx.cache.peek(ctx.catalog.get("T").state, ["age"])
    db.close()


def test_stale_posmap_partial_discarded(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    plugin = ctx.catalog.get("T").plugin
    rt = QueryRuntime(ctx.catalog, DataCache(0), engine=ctx)
    # what a cold scan holds at its start: the generation token, the map
    # object it expects to adopt into, a detached partial
    byproducts = rt._request_byproducts("T", None, posmap_of=plugin)

    _mutate(csv_path)
    assert ctx.refresh_source("T") is False

    rt._adopt_byproducts("T", {MORSEL_ALL: byproducts}, [MORSEL_ALL])
    assert ctx.stats.posmap_discards == 1
    assert ctx.stats.posmap_adoptions == 0
    assert not plugin.posmap.complete  # the fresh map stayed pristine
    db.close()


def test_refresh_source_bumps_generation_exactly_once(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    entry = ctx.catalog.get("T")
    gen0 = entry.generation
    _mutate(csv_path)

    n = 8
    barrier = threading.Barrier(n)
    results = [None] * n

    def run(i):
        barrier.wait()
        results[i] = ctx.refresh_source("T")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # exactly one thread observed (and applied) the mutation; the rest
    # re-checked under the lock and saw the refreshed fingerprint
    assert results.count(False) == 1
    assert entry.generation != gen0
    assert ctx.refresh_source("T") is True  # stable afterwards
    assert ctx.stats.full_invalidations + ctx.stats.delta_refreshes == 1
    db.close()


# ---------------------------------------------------------------------------
# session lifecycle: refcounting, idempotent close, clear errors
# ---------------------------------------------------------------------------


def test_session_refcount_and_idempotent_close(csv_path):
    ctx = EngineContext()
    a = ViDa(context=ctx)
    b = ViDa(context=ctx)
    a.register_csv("T", csv_path)
    assert ctx.session_count == 2

    a.close()
    a.close()  # idempotent: no double-detach
    assert a.closed
    assert ctx.session_count == 1
    with pytest.raises(ViDaError, match="closed"):
        a.query(SUM_Q)

    # the surviving tenant keeps the shared state
    assert b.query(SUM_Q).value == serial_answer(csv_path, SUM_Q)
    b.close()
    assert ctx.session_count == 0
    assert not ctx.closed  # context outlives its sessions

    c = ViDa(context=ctx)  # re-attach after everyone left
    assert c.query(SUM_Q).value == serial_answer(csv_path, SUM_Q)
    c.close()

    ctx.close()
    with pytest.raises(ViDaError, match="closed"):
        ViDa(context=ctx)


def test_private_context_closes_with_session(csv_path):
    db = ViDa()
    db.register_csv("T", csv_path)
    db.query(SUM_Q)
    ctx = db.engine_context
    db.close()
    assert ctx.closed
    with pytest.raises(ViDaError, match="closed"):
        db.query(SUM_Q)


def test_worker_pool_shuts_down_with_last_session():
    ctx = EngineContext()
    a = ViDa(context=ctx, backend="process", parallelism=2)
    b = ViDa(context=ctx, backend="process", parallelism=2)
    pool = ctx.worker_pool(2)
    a.close()
    assert ctx._pool is pool  # b is still attached
    b.close()
    assert ctx._pool is None  # last one out shut it down


def test_context_owns_cache_configuration():
    ctx = EngineContext(cache_budget_bytes=1 << 20)
    with pytest.raises(ViDaError, match="EngineContext"):
        ViDa(context=ctx, cache_budget_bytes=1 << 10)
    ctx.close()


# ---------------------------------------------------------------------------
# shared JIT compile cache, per-session codegen modes
# ---------------------------------------------------------------------------


def test_compile_cache_shared_across_tenants(csv_path):
    ctx = EngineContext()
    a = ViDa(context=ctx)
    b = ViDa(context=ctx)
    a.register_csv("T", csv_path)
    a.query(SUM_Q)  # cold plan shape
    a.query(SUM_Q)  # warm/cache plan shape, now compiled
    hits_before = ctx.jit.stats.cache_hits
    b.query(SUM_Q)  # same warm plan shape → b rides a's compilation
    assert ctx.jit.stats.cache_hits > hits_before
    a.close()
    b.close()


# ---------------------------------------------------------------------------
# engine-owned prepared statements: shared by knobs, both dialects
# ---------------------------------------------------------------------------


def _settle(db, text, run=None):
    """Query until the plan epoch stops moving (stats, cache, indexes)."""
    run = run or db.query
    for _ in range(6):
        r = run(text)
        if r.stats.plan_cached:
            return r
    raise AssertionError("plan epoch never settled")


def test_prepared_plans_are_shared_by_tenants_with_equal_knobs(csv_path):
    ctx = EngineContext()
    a, b = ViDa(context=ctx), ViDa(context=ctx)
    other = ViDa(context=ctx, enable_indexes=False)
    a.register_csv("T", csv_path)
    _settle(a, SUM_Q)
    hits = ctx.stats.prepared_hits
    r = b.query(SUM_Q)             # b never saw the text: a's plan serves it
    assert r.stats.plan_cached and r.stats.normalize_ms == 0.0
    assert ctx.stats.prepared_hits == hits + 1
    r = other.query(SUM_Q)         # other knobs: never a's plan
    assert not r.stats.plan_cached and r.stats.normalize_ms == 0.0
    _settle(other, SUM_Q)
    assert len(ctx.prepared(("mcc", SUM_Q)).plans) == 2
    answers = {db.query(SUM_Q).value for db in (a, b, other)}
    assert answers == {serial_answer(csv_path, SUM_Q)}
    snap = ctx.stats_snapshot()["prepared"]
    assert snap["hits"] == ctx.stats.prepared_hits >= hits + 4
    assert snap["misses"] == ctx.stats.prepared_misses >= 3
    for db in (a, b, other):
        db.close()


def test_sql_statements_are_prepared_once_per_engine(csv_path):
    ctx = EngineContext()
    a, b = ViDa(context=ctx), ViDa(context=ctx)
    a.register_csv("T", csv_path)
    sql = "SELECT id, score FROM T WHERE age > 40 LIMIT 3"
    first = a.sql(sql)
    assert first.stats.parse_ms > 0 and first.stats.normalize_ms > 0
    _settle(a, sql, a.sql)
    r = b.sql(sql)
    assert r.stats.plan_cached
    assert r.stats.parse_ms == r.stats.normalize_ms == 0.0
    assert r.value == first.value and len(r.value) == 3  # LIMIT kept
    assert ("sql", sql) in ctx._prepared and ("mcc", sql) not in ctx._prepared
    a.close()
    b.close()


def test_sql_translation_follows_re_registered_schemas(csv_path, tmp_path):
    """A SQL translation resolves unqualified columns against the schemas:
    re-registering sources re-translates the statement, and each re-registered
    name reads its own file, never its predecessor's cached columns."""
    bonus = tmp_path / "u.csv"
    bonus.write_text("id,bonus\n" + "".join(f"{i},1\n" for i in range(ROWS)))
    db = ViDa()
    db.register_csv("T", csv_path)
    db.register_csv("U", str(bonus))
    sql = "SELECT SUM(bonus) AS s FROM T t JOIN U u ON t.id = u.id"
    assert db.sql(sql).value == ROWS            # bonus resolves to u
    for name in ("T", "U"):
        db.catalog.deregister(name)
    db.register_csv("T", str(bonus))
    db.register_csv("U", csv_path)
    again = db.sql(sql)                         # ... and now to t
    assert again.value == ROWS and again.stats.parse_ms > 0
    assert again.stats.raw_bytes == \
        os.path.getsize(csv_path) + os.path.getsize(bonus)
    db.close()


# ---------------------------------------------------------------------------
# per-tenant cache-write quotas
# ---------------------------------------------------------------------------


def test_cache_write_quota_denies_admissions(csv_path):
    ctx = EngineContext()
    quota = ViDa(context=ctx, cache_write_quota_bytes=0)
    quota.register_csv("T", csv_path)
    expected = serial_answer(csv_path, SUM_Q)
    assert quota.query(SUM_Q).value == expected
    assert quota.cache.writes_denied >= 1
    assert len(ctx.cache) == 0  # nothing admitted into the shared cache
    quota.close()


def test_quota_tenant_still_reads_shared_warm_state(csv_path):
    ctx = EngineContext()
    warm = ViDa(context=ctx)
    quota = ViDa(context=ctx, cache_write_quota_bytes=0)
    warm.register_csv("T", csv_path)
    warm.query(SUM_Q)
    warm.query(SUM_Q)  # ensure the cache entry exists and is warm
    assert len(ctx.cache) > 0
    r = quota.query(SUM_Q)
    assert r.value == serial_answer(csv_path, SUM_Q)
    assert r.stats.cache_only  # reads pass through the quota view
    warm.close()
    quota.close()
