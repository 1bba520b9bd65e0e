"""Morsel-driven parallel execution: schedulers, splits, and differentials.

The contract under test: a query run with ``ViDa(parallelism=N)`` returns
the *same answer* as the serial session on both engines. Results are
bit-identical except where floating-point accumulation order matters
(``sum``/``avg`` over floats regroup additions at morsel boundaries and can
differ in the last ulp) — those compare with a tight relative tolerance.

Sessions here run their parallel scans' morsels inline (``inline_morsels``):
the plan, the splits, the kernel-spec task per morsel and the morsel-order
merge are the worker processes' own, without spawning any.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro import ViDa
from repro.cleaning import SkipPolicy
from repro.core.chunk import Morsel, split_ranges
from repro.core.executor.scheduler import ProcessMorselScheduler
from repro.core.optimizer import cost as C
from repro.errors import DataFormatError

ENGINES = ("jit", "static")
DOPS = (2, 4)

pytestmark = pytest.mark.usefixtures("inline_morsels")


# ---------------------------------------------------------------------------
# fixtures: sources large enough that the planner actually shards them
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_dir(tmp_path_factory):
    rng = random.Random(42)
    d = tmp_path_factory.mktemp("parallel")

    with open(d / "patients.csv", "w") as fh:
        fh.write("id,age,gender,score\n")
        for i in range(12000):
            fh.write(f"{i},{20 + (i * 7) % 60},{'mf'[i % 2]},"
                     f"{round(rng.random() * 100, 3)}\n")

    with open(d / "genetics.csv", "w") as fh:
        fh.write("id,snp_a,snp_b,pad\n")
        for i in range(9000):
            fh.write(f"{i},{i % 3},{(i * 5) % 7},{'x' * 16}\n")

    with open(d / "brain.json", "w") as fh:
        for i in range(6000):
            fh.write(json.dumps({
                "id": i, "vol": round(rng.random() * 10, 2),
                "meta": {"v": i % 4},
            }) + "\n")

    # dirty rows appear only after the schema-inference sample window
    with open(d / "dirty.csv", "w") as fh:
        fh.write("id,age,score\n")
        for i in range(9000):
            age = "oops" if (i % 97 == 0 and i > 200) else 20 + i % 50
            fh.write(f"{i},{age},{round(rng.random() * 10, 2)}\n")
    return d


def make_session(big_dir, parallelism: int, cleaning: bool = True) -> ViDa:
    db = ViDa(parallelism=parallelism)
    db.register_csv("Patients", str(big_dir / "patients.csv"))
    db.register_csv("Genetics", str(big_dir / "genetics.csv"))
    db.register_json("Brain", str(big_dir / "brain.json"))
    db.register_csv("Dirty", str(big_dir / "dirty.csv"))
    if cleaning:
        db.set_cleaning("Dirty", SkipPolicy())
    return db


def assert_same(got, want):
    """Bit-identical, except float scalars (regrouped fp addition)."""
    if isinstance(got, float) and isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9), (got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# scheduler unit tests
# ---------------------------------------------------------------------------


def test_split_ranges_tile_exactly():
    morsels = split_ranges(10, 4, "rows")
    assert [(m.lo, m.hi) for m in morsels] == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert [m.start_row for m in morsels] == [0, 3, 6, 8]
    assert split_ranges(3, 8, "rows") == split_ranges(3, 3, "rows")
    single = split_ranges(5, 1, "spans")
    assert len(single) == 1 and (single[0].lo, single[0].hi) == (0, 5)


def test_scheduler_results_in_morsel_order(executor_pool):
    morsels = split_ranges(100, 4, "rows")
    out = ProcessMorselScheduler(4, executor_pool).map(
        lambda m: (m.lo, m.hi), morsels)
    assert out == [(m.lo, m.hi) for m in morsels]


def test_scheduler_serial_fallback_runs_inline(executor_pool):
    calls = []
    out = ProcessMorselScheduler(1, executor_pool).map(
        lambda m: calls.append(m.lo) or m.lo, split_ranges(10, 3, "rows"))
    assert out == calls  # ran on the calling thread, in order


def test_scheduler_worker_failure_fails_query_without_hang(executor_pool):
    morsels = split_ranges(8, 4, "rows")

    def kernel(m):
        if m.lo >= 4:
            raise ValueError(f"boom at {m.lo}")
        return m.lo

    with pytest.raises(ValueError, match="boom"):
        ProcessMorselScheduler(4, executor_pool).map(kernel, morsels)


def test_scheduler_rejects_bad_dop():
    with pytest.raises(ValueError):
        ProcessMorselScheduler(0, None)


# ---------------------------------------------------------------------------
# cost model: DoP choice
# ---------------------------------------------------------------------------


def test_choose_parallelism_scales_with_work():
    # cold raw scans shard; the same rows served from cache may not
    cold = C.choose_parallelism(8, 50000, 4, "csv", "cold")
    cache = C.choose_parallelism(8, 50000, 4, "cache", "cache")
    assert cold == 8
    assert cache <= cold
    # tiny scans never pay morsel setup
    assert C.choose_parallelism(8, 60, 1, "csv", "cold") == 1
    # serial budget wins regardless of size
    assert C.choose_parallelism(1, 10 ** 9, 10, "csv", "cold") == 1


def test_batch_aware_scan_estimate_separates_dispatch():
    est = C.estimate_scan("csv", "cold", 10000, 2, [], batch_size=1000)
    assert est.dispatch_cost == 10 * C.CHUNK_DISPATCH_COST
    assert est.total_cost == est.conversion_cost + est.dispatch_cost
    row_path = C.estimate_scan("csv", "cold", 10000, 2, [])
    assert row_path.dispatch_cost == 0.0


def test_choose_batch_size_amortises_dispatch():
    # cheap-per-value paths need deeper batches to amortise dispatch than
    # expensive ones, given the same width
    assert C.choose_batch_size(10 ** 6, 1, "cache", "cache") >= \
        C.choose_batch_size(10 ** 6, 64, "cache", "cache")
    assert C.MIN_BATCH_SIZE <= C.choose_batch_size(10 ** 6, 64) < C.MAX_BATCH_SIZE


# ---------------------------------------------------------------------------
# planner / EXPLAIN surface
# ---------------------------------------------------------------------------


def test_parallelism_is_opt_in(big_dir):
    db = make_session(big_dir, 1)
    r = db.query("for { p <- Patients, p.age > 40 } yield count 1")
    assert r.decisions.parallel == {}
    assert "parallel=" not in r.plan_text


def test_explain_shows_parallel_degree(big_dir):
    import re

    db = make_session(big_dir, 4)
    text = db.explain("for { p <- Patients, p.age > 40 } yield count 1")
    scan_dop = re.search(r"parallel=(\d+)", text)
    summary_dop = re.search(r"parallel\[p:(\d+)\]", text)
    assert scan_dop and summary_dop, text
    assert 1 < int(scan_dop.group(1)) <= 4
    assert scan_dop.group(1) == summary_dop.group(1)


def test_session_validates_parallelism(big_dir):
    from repro.errors import ViDaError

    with pytest.raises(ViDaError):
        ViDa(parallelism=0)


def test_device_charged_sources_stay_serial(big_dir):
    from repro.storage.device import StorageDevice

    db = make_session(big_dir, 4)
    db.set_device("Patients", StorageDevice("hdd"))
    r = db.query("for { p <- Patients, p.age > 40 } yield count 1")
    assert "p" not in r.decisions.parallel


# ---------------------------------------------------------------------------
# differential: DoP 2/4 vs serial, both engines
# ---------------------------------------------------------------------------

QUERIES = [
    "for { p <- Patients, p.age > 40 } yield sum p.score",
    "for { p <- Patients } yield avg p.score",
    "for { p <- Patients, p.age > 50 } yield count 1",
    "for { p <- Patients } yield min p.score",
    "for { p <- Patients } yield max p.score",
    "for { p <- Patients, p.age >= 60 } yield bag (id := p.id, s := p.score)",
    "for { p <- Patients } yield set p.gender",
    "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp_a = 1 } "
    "yield count 1",
    "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp_a = 1 } "
    "yield bag (id := p.id, b := g.snp_b)",
    "for { p <- Patients, b <- Brain, p.id = b.id, b.vol > 5.0 } "
    "yield bag (id := p.id, v := b.vol)",
    "for { b <- Brain } yield max b.vol",
    "for { d <- Dirty } yield sum d.age",
]


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_results_match_serial(big_dir, engine):
    # raw-row accounting parity is the subject here; value indexes serve
    # warm repeats from candidates (fewer raw rows) only where emission ran,
    # and worker processes skip emission — so pin them off on both sides
    serial = make_session(big_dir, 1)
    serial.enable_indexes = False
    cold = []
    for q in QUERIES:
        r = serial.query(q, engine=engine)
        cold.append((r.value, r.stats.raw_rows, r.stats.cleaned_rows,
                     r.stats.skipped_rows))
    warm = [serial.query(q, engine=engine).value for q in QUERIES]

    for dop in DOPS:
        db = make_session(big_dir, dop)
        db.enable_indexes = False
        sharded_any = False
        for i, q in enumerate(QUERIES):
            r = db.query(q, engine=engine)
            value, raw, cleaned, skipped = cold[i]
            assert_same(r.value, value)
            assert (r.stats.raw_rows, r.stats.cleaned_rows,
                    r.stats.skipped_rows) == (raw, cleaned, skipped), q
            sharded_any = sharded_any or bool(r.decisions.parallel)
        assert sharded_any, "no query sharded — differential tests ran serial"
        # warm/cache-served second pass must agree too
        for i, q in enumerate(QUERIES):
            assert_same(db.query(q, engine=engine).value, warm[i])


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_cleaning_drops_match_serial(big_dir, engine):
    serial = make_session(big_dir, 1)
    base = serial.query("for { d <- Dirty } yield bag (id := d.id, a := d.age)",
                        engine=engine)
    assert base.stats.skipped_rows > 0
    for dop in DOPS:
        db = make_session(big_dir, dop)
        r = db.query("for { d <- Dirty } yield bag (id := d.id, a := d.age)",
                     engine=engine)
        assert r.value == base.value
        assert r.stats.skipped_rows == base.stats.skipped_rows


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_sql_limit_matches_serial(big_dir, engine):
    stmt = "SELECT p.id, p.age FROM Patients p WHERE p.age > 30 LIMIT 17"
    serial = make_session(big_dir, 1).sql(stmt, engine=engine)
    for dop in DOPS:
        got = make_session(big_dir, dop).sql(stmt, engine=engine)
        assert got.value == serial.value
        assert len(got.value) == 17


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_cache_served_scan(big_dir, engine):
    # the cold scan shards; the cache entries it leaves live in this
    # process, so the cache-served repeat runs serial and says why
    db = make_session(big_dir, 4)
    q = "for { p <- Patients } yield bag (a := p.age, s := p.score)"
    first = db.query(q, engine=engine)
    assert first.decisions.parallel.get("p", 1) > 1
    second = db.query(q, engine=engine)
    assert second.stats.cache_only
    assert second.value == first.value
    assert second.decisions.parallel == {}, second.decisions.summary()
    assert "p: cache scan stays in this process; runs serial" in \
        second.decisions.notes


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_whole_binding_cache_scan_stats(engine, tmp_path):
    # a bind-whole scan that also extracts fields: the sharded cold pass
    # admits whole objects, the serial cache-served repeat counts every
    # cached row once (a lookup keyed apart from the fields used to count
    # them twice in the static engine)
    path = tmp_path / "whole.json"
    with open(path, "w") as fh:
        for i in range(15000):
            fh.write(json.dumps({"id": i, "vol": i % 10}) + "\n")
    db = ViDa(parallelism=4)
    db.register_json("W", str(path))
    q = "for { w <- W } yield bag (v := w.vol, o := w)"
    first = db.query(q, engine=engine)
    assert first.decisions.parallel.get("w", 1) > 1
    second = db.query(q, engine=engine)
    assert second.stats.cache_only
    assert second.decisions.parallel == {}, second.decisions.summary()
    assert second.stats.cache_rows == 15000
    assert second.value == first.value


def test_parallel_worker_failure_fails_query(big_dir, tmp_path):
    # one dirty value, no cleaning policy: the owning morsel raises and the
    # query fails on both engines instead of hanging or dropping data
    path = tmp_path / "explode.csv"
    with open(path, "w") as fh:
        fh.write("id,v,pad\n")
        for i in range(9000):
            fh.write(f"{i},{'boom' if i == 7500 else i},{'y' * 24}\n")
    for engine in ENGINES:
        db = ViDa(parallelism=4)
        db.register_csv("X", str(path))
        assert "parallel=" in db.explain("for { x <- X } yield sum x.v")
        with pytest.raises(DataFormatError, match="boom"):
            db.query("for { x <- X } yield sum x.v", engine=engine)


# ---------------------------------------------------------------------------
# sharded auxiliary structures
# ---------------------------------------------------------------------------


def test_parallel_cold_scan_builds_identical_posmap(big_dir):
    serial = make_session(big_dir, 1)
    serial.query("for { p <- Patients, p.age > 30 } yield count 1")
    pm_serial = serial.catalog.get("Patients").plugin.posmap

    db = make_session(big_dir, 4)
    r = db.query("for { p <- Patients, p.age > 30 } yield count 1")
    assert r.decisions.parallel.get("p", 1) > 1
    pm = db.catalog.get("Patients").plugin.posmap
    assert pm.complete
    assert pm.row_offsets == pm_serial.row_offsets
    assert pm.mapped_columns == pm_serial.mapped_columns


def test_parallel_second_scan_navigates_warm(big_dir):
    db = make_session(big_dir, 4)
    # value indexes would outbid the warm navigation this test is about
    db.enable_indexes = False
    db.query("for { p <- Patients, p.age > 30 } yield count 1")
    db.cache.clear()
    r = db.query("for { p <- Patients, p.age > 55 } yield bag p.id")
    assert r.decisions.access["p"] == "warm"
    assert r.decisions.parallel.get("p", 1) > 1
    serial = make_session(big_dir, 1)
    serial.query("for { p <- Patients, p.age > 30 } yield count 1")
    serial.cache.clear()
    assert r.value == serial.query("for { p <- Patients, p.age > 55 } "
                                   "yield bag p.id").value


def test_csv_byte_splits_partition_rows_exactly(big_dir):
    db = make_session(big_dir, 1)
    plugin = db.catalog.get("Patients").plugin
    morsels = plugin.scan_splits(5)
    assert all(m.kind == "bytes" for m in morsels)
    rows = []
    for m in morsels:
        for chunk in plugin.scan_chunks(["id"], batch_size=512, split=m):
            rows.extend(chunk.columns[0])
    assert rows == list(range(12000))


def test_json_span_splits_partition_objects_exactly(big_dir):
    db = make_session(big_dir, 1)
    plugin = db.catalog.get("Brain").plugin
    morsels = plugin.scan_splits(4)
    assert all(m.kind == "spans" for m in morsels)
    ids = []
    for m in morsels:
        for chunk in plugin.scan_chunks(("id",), batch_size=512, split=m):
            ids.extend(chunk.columns[0])
    assert ids == list(range(6000))


def test_unknown_morsel_kind_rejected(big_dir):
    db = make_session(big_dir, 1)
    bad = Morsel("spans", 0, 5)
    with pytest.raises(DataFormatError):
        list(db.catalog.get("Patients").plugin.scan_chunks(["id"], split=bad))


# ---------------------------------------------------------------------------
# chunked DBMS-source scans (all five sources speak the batch protocol)
# ---------------------------------------------------------------------------


def test_dbms_scan_chunks_tabular_and_doc_stores(tmp_path):
    from repro.formats.dbmsfmt import DBMSSource
    from repro.warehouse.colstore import ColStore
    from repro.warehouse.docstore import DocStore
    from repro.warehouse.rowstore import RowStore

    rows = [(i, f"n{i}", i * 1.5) for i in range(700)]
    rstore = RowStore(tmp_path)
    rstore.create_table("T", ["id", "name", "x"], ["int", "string", "float"])
    rstore.insert_rows("T", rows)
    cstore = ColStore()
    cstore.create_table("T", ["id", "name", "x"], ["int", "string", "float"])
    cstore.insert_rows("T", rows)
    dstore = DocStore()
    dstore.create_collection("T")
    dstore.insert_many("T", [{"id": i, "name": name, "nested": {"x": x}}
                             for i, name, x in rows])

    for store in (rstore, cstore):
        src = DBMSSource(store, "T")
        chunks = list(src.scan_chunks(["id", "x"], batch_size=256))
        assert [c.length for c in chunks] == [256, 256, 188]
        assert [v for c in chunks for v in c.column("id")] == list(range(700))
        whole = list(src.scan_chunks(None, batch_size=512))
        assert whole[0].whole[0] == {"id": 0, "name": "n0", "x": 0.0}

    doc = DBMSSource(dstore, "T")
    chunks = list(doc.scan_chunks(batch_size=300))
    assert sum(c.length for c in chunks) == 700
    assert chunks[0].whole[0]["nested"]["x"] == 0.0


@pytest.mark.parametrize("engine", ENGINES)
def test_dbms_source_queries_equal_across_engines(engine, tmp_path):
    from repro.warehouse.rowstore import RowStore

    store = RowStore(tmp_path)
    store.create_table("T", ["id", "v"], ["int", "int"])
    store.insert_rows("T", [(i, i * 3) for i in range(500)])
    db = ViDa()
    db.register_dbms("T", store, "T")
    total = db.query("for { t <- T, t.id < 100 } yield sum t.v", engine=engine)
    assert total.value == sum(i * 3 for i in range(100))
    bag = db.query("for { t <- T, t.id < 5 } yield bag (i := t.id, v := t.v)",
                   engine=engine)
    assert bag.value == [{"i": i, "v": i * 3} for i in range(5)]
