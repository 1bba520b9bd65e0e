"""One home per source: a registration's cache entries, indexes, rent,
statistics and history live on one ``SourceState``.

Contracts under test:

- the state's own rules: index partials merge in morsel order, statistics
  adopt-or-skip, the rent tally carries over an append, dies with a
  rewrite and loses no row to racing tenants, and a reader holding an
  older token misses;
- a re-registered name never answers from its predecessor's cache, on
  either engine, serial or on process morsels;
- deregistration leaves nothing behind for the name: no resident bytes, no
  index, no statistics, nothing in the catalog keyed by it; and a closed
  engine's cache goes with it, without waiting for the cycle collector;
- a scan whose source is deregistered (or re-registered) between chunk
  boundaries answers over the bytes it read and adopts nothing.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro import ViDa
from repro.caching import DataCache
from repro.core.source_state import SourceState
from repro.indexing import IndexPartial
from repro.stats import StatsPartial

ROWS = 4000
SUM_SQL = "SELECT SUM(v) AS s FROM U"
COUNTERS = ("posmap_adoptions", "index_adoptions", "stats_adoptions",
            "stale_admissions_dropped")


# ---------------------------------------------------------------------------
# the state's own rules
# ---------------------------------------------------------------------------


def test_index_generation_and_morsel_merge():
    state = SourceState()
    token = state.generation
    # row-range morsel partials: file rows, merged in morsel order
    p1 = IndexPartial(("x",))
    p1.record(0, {"x": [10, 11]})
    p2 = IndexPartial(("x",))
    p2.record(2, {"x": [12, 10]})
    assert state.adopt_indexes([p1, p2]) == 1
    idx = state.index("x", token)
    assert idx.lookup(("eq", "x", 10)) == [0, 3]
    assert idx.coverage(4) == 1.0
    # a rewrite drops everything under the old generation
    state.drop()
    assert state.generation != token
    assert state.index("x", state.generation) is None
    assert state.index("x", token) is None


def test_rent_tally_lives_and_dies_with_the_generation():
    state = SourceState()
    token = state.generation
    part = IndexPartial(("x",))
    part.record(0, {"x": [1, 2]})
    state.adopt_indexes([part])
    assert not state.rent(token, 3, 10) and state.rented == 3
    assert state.rent(token, 7, 10)             # due at the break-even ...
    assert not state.rent(token, 7, 10)         # ... and only once
    assert state.rented == 17
    # a query that began before a refresh holds an older token: it misses,
    # and its rent counts for nothing
    assert not state.rent(token - 1, 5, 10) and state.rented == 17
    assert state.index("x", token - 1) is None
    # an append carries indexes and tally into the next generation
    state.extend(DataCache(), 2, 1, {"x": [3]})
    assert state.generation != token and state.rented == 17
    assert state.index("x", state.generation).lookup(("eq", "x", 3)) == [2]
    assert state.index("x", token) is None
    # a rewrite drops them, tally and all
    state.drop()
    assert (state.rented, state.indexes) == (0, {})


def test_concurrent_rent_loses_no_row_and_falls_due_once():
    state = SourceState()
    token = state.generation
    nthreads, rents, total = 8, 500, 2000
    barrier = threading.Barrier(nthreads)
    due = []

    def renter():
        barrier.wait(timeout=30)
        due.extend(r for r in (state.rent(token, 1, total)
                               for _ in range(rents)) if r)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=renter) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert state.rented == nthreads * rents
    assert due == [True]


def test_stats_miss_on_generation_mismatch():
    state = SourceState()
    token = state.generation
    part = StatsPartial(("a",))
    part.advance(0, 100)
    part.record(0, {"a": list(range(100))})
    assert state.adopt_stats(part)
    assert state.known(token) == (True, frozenset({"a"}))
    assert state.known(token - 1) == (False, frozenset())  # an older reader
    assert not state.adopt_stats(StatsPartial(()))  # nothing new to learn
    state.drop()
    assert state.stats is None
    assert state.known(token) == (False, frozenset())       # gone for good
    state.drop(end=True)
    assert state.generation is None


# ---------------------------------------------------------------------------
# re-registration and deregistration
# ---------------------------------------------------------------------------


def write_u(path, v: int) -> str:
    """``U``: 4,000 rows of ``v``, padded so DoP 2 plans process morsels."""
    with open(path, "w") as fh:
        fh.write("id,v,pad\n")
        for i in range(ROWS):
            fh.write(f"{i},{v},{'x' * 200}\n")
    return str(path)


@pytest.fixture()
def files(tmp_path):
    return write_u(tmp_path / "old.csv", 3), write_u(tmp_path / "new.csv", 1)


@pytest.mark.parametrize("engine", ["jit", "static"])
@pytest.mark.parametrize("config", [("process", 1), ("process", 2)],
                         ids=["serial", "process2"])
def test_re_registered_name_never_serves_its_predecessor(files, engine,
                                                          config):
    old, new = files
    backend, dop = config
    db = ViDa(parallelism=dop, backend=backend)
    try:
        db.register_csv("U", old)
        for _ in range(2):   # cold, then served from the cache
            assert db.sql(SUM_SQL, engine=engine).value == 3 * ROWS
        assert db.cache.used_bytes > 0
        db.catalog.deregister("U")
        db.register_csv("U", new)
        r = db.sql(SUM_SQL, engine=engine)
        assert r.value == ROWS
        assert r.stats.raw_bytes > 0
        if dop > 1:
            assert r.decisions.parallel == {"U": 2}
        assert db.sql(SUM_SQL, engine=engine).value == ROWS
    finally:
        db.close()


def test_deregistration_leaves_nothing_for_the_name(files):
    old, _new = files
    db = ViDa()
    try:
        db.register_csv("U", old)
        db.register_csv("V", old)
        for name in ("U", "V"):
            for _ in range(2):  # cache, index on id, statistics
                db.query(f"for {{ u <- {name}, u.id >= 0 }} yield sum u.v")
        state = db.catalog.get("U").state
        kept = db.catalog.get("V").state
        assert state.cached and state.indexes and state.stats is not None
        db.catalog.deregister("U")
        # the registration's resident bytes are gone: what remains is V's
        assert db.cache.used_bytes == sum(
            e.cached.nbytes for e in db.cache.entries(kept)) > 0
        assert not state.cached and not state.indexes and state.stats is None
        assert state.generation is None
        assert set(db.engine_context.stats_snapshot()["table_stats"]) == {"V"}
        # nothing in the catalog is keyed by the name any more (its lock
        # lived on the dropped state)
        assert not any(isinstance(v, dict) and "U" in v
                       for v in vars(db.catalog).values())
    finally:
        db.close()


def test_a_closed_engine_frees_its_cache_without_the_cycle_collector(files):
    """The cache holds its states and a state holds its entries, never the
    reverse: a closed session's columns are freed the moment it goes, not
    at the next full collection (which would raise peak memory)."""
    old, _new = files
    db = ViDa()
    db.register_csv("U", old)
    db.sql(SUM_SQL)
    cache = weakref.ref(db.engine_context.cache)
    gc.disable()
    try:
        db.close()
        del db
        assert cache() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# mid-scan deregistration and re-registration
# ---------------------------------------------------------------------------


def arm(monkeypatch, action, after_batches=2):
    """Run ``action()`` once, between two chunk boundaries of the next CSV
    scan. The hook wraps the plugin class, so it also fires inside a morsel
    run inline on a plugin rebuilt from the kernel spec."""
    from repro.formats.csvfmt import CSVSource

    orig = CSVSource.iter_line_batches
    fired = threading.Event()

    def wrapper(*args, **kwargs):
        n = 0
        for item in orig(*args, **kwargs):
            yield item
            n += 1
            if n >= after_batches and not fired.is_set():
                fired.set()
                action()

    monkeypatch.setattr(CSVSource, "iter_line_batches", wrapper)
    return fired


def counters(db) -> dict:
    snap = db.engine_context.stats_snapshot()
    return {k: snap[k] for k in COUNTERS}


@pytest.mark.parametrize("dop", [1, 2])
def test_mid_scan_deregistration_answers_and_adopts_nothing(files, dop,
                                                            inline_morsels,
                                                            monkeypatch):
    old, _new = files
    db = ViDa(batch_size=256, parallelism=dop)
    try:
        entry = db.register_csv("U", old)
        fired = arm(monkeypatch, lambda: db.catalog.deregister("U"))
        r = db.sql(SUM_SQL)
        assert fired.is_set()
        assert r.decisions.parallel.get("U", 1) == dop
        assert r.value == 3 * ROWS           # over the bytes it read
        assert counters(db) == {"posmap_adoptions": 0, "index_adoptions": 0,
                                "stats_adoptions": 0,
                                "stale_admissions_dropped": 1}
        state = entry.state
        assert not state.cached and state.stats is None
        assert db.cache.used_bytes == 0
        assert "U" not in db.catalog
    finally:
        db.close()


@pytest.mark.parametrize("dop", [1, 2])
def test_mid_scan_re_registration_adopts_nothing_into_the_new_one(
        files, dop, inline_morsels, monkeypatch):
    old, new = files
    db = ViDa(batch_size=256, parallelism=dop)
    try:
        db.register_csv("U", old)

        def re_register():
            db.catalog.deregister("U")
            db.register_csv("U", new)

        fired = arm(monkeypatch, re_register)
        assert db.sql(SUM_SQL).value == 3 * ROWS   # the old bytes
        assert fired.is_set()
        fresh = db.catalog.get("U")
        assert not fresh.state.cached and fresh.state.stats is None
        assert not fresh.plugin.posmap.complete
        assert counters(db)["stale_admissions_dropped"] == 1
        assert db.sql(SUM_SQL).value == ROWS
    finally:
        db.close()
