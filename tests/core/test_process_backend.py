"""Process-pool morsel backend: kernel specs, differentials, and fallbacks.

The contract under test: ``ViDa(parallelism=N, backend="process")`` ships
picklable kernel specs to worker processes and returns the *same answer* as
the serial session on both engines — ordered bags, set dedup, grouping,
LIMIT prefixes, cleaning drops and positional maps included. Where the plan
cannot ship (dbms/device sources, sub-threshold work) it must degrade to
thread morsels or serial execution with an EXPLAIN note, never fail.
"""

from __future__ import annotations

import contextlib
import json
import math
import pickle
import random

import pytest

from repro import ViDa
from repro.cleaning import SkipPolicy
from repro.core.chunk import split_ranges
from repro.core.executor import procpool as PP
from repro.core.executor.scheduler import MorselScheduler, ProcessMorselScheduler
from repro.core.optimizer import cost as C
from repro.errors import DataFormatError, ViDaError
from repro.mcc.monoids import get_monoid

ENGINES = ("jit", "static")


# ---------------------------------------------------------------------------
# fixtures: rows padded wide enough that the cost model's file-size row
# estimate clears PROCESS_SPAWN_COST — narrow rows would (correctly) plan
# thread morsels and the differentials would not exercise worker processes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    rng = random.Random(7)
    d = tmp_path_factory.mktemp("procpool")

    with open(d / "wide.csv", "w") as fh:
        fh.write("id,age,gender,score,pad\n")
        for i in range(20000):
            fh.write(f"{i},{20 + (i * 7) % 60},{'mf'[i % 2]},"
                     f"{round(rng.random() * 100, 3)},{'x' * 64}\n")

    with open(d / "genes.csv", "w") as fh:
        fh.write("id,snp,pad\n")
        for i in range(15000):
            fh.write(f"{i},{i % 3},{'x' * 48}\n")

    with open(d / "brain.json", "w") as fh:
        for i in range(9000):
            fh.write(json.dumps({
                "id": i, "vol": round(rng.random() * 10, 2), "pad": "p" * 180,
            }) + "\n")

    # dirty rows appear only after the schema-inference sample window
    with open(d / "dirty.csv", "w") as fh:
        fh.write("id,age,score,pad\n")
        for i in range(15000):
            age = "oops" if (i % 97 == 0 and i > 200) else 20 + i % 50
            fh.write(f"{i},{age},{round(rng.random() * 10, 2)},{'x' * 64}\n")
    return d


@contextlib.contextmanager
def session(wide_dir, dop: int, backend: str = "process"):
    db = ViDa(parallelism=dop, backend=backend)
    db.register_csv("W", str(wide_dir / "wide.csv"))
    db.register_csv("G", str(wide_dir / "genes.csv"))
    db.register_json("B", str(wide_dir / "brain.json"))
    db.register_csv("Dirty", str(wide_dir / "dirty.csv"))
    db.set_cleaning("Dirty", SkipPolicy())
    try:
        yield db
    finally:
        db.close()


def assert_same(got, want):
    """Bit-identical, except float scalars (regrouped fp addition)."""
    if isinstance(got, float) and isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9), (got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# kernel specs are picklable and rebuild equivalent catalogs
# ---------------------------------------------------------------------------


def test_source_specs_pickle_round_trip(wide_dir):
    with session(wide_dir, 1, backend="thread") as db:
        db.register_memory("M", [{"id": 1, "v": 2.5}, {"id": 2, "v": 0.5}])
        specs = PP.catalog_specs(db.catalog)
        assert {s.name for s in specs} == {"W", "G", "B", "Dirty", "M"}
        thawed = pickle.loads(pickle.dumps(specs))
        assert thawed == specs

        rebuilt = PP.build_catalog(thawed)
        for name in ("W", "G", "Dirty"):
            parent = db.catalog.get(name).plugin
            child = rebuilt.get(name).plugin
            # the child reuses the parent's sniffed schema — no re-inference
            assert child.columns == parent.columns
            assert child.types == parent.types
        assert list(rebuilt.get("M").data) == list(db.catalog.get("M").data)


def test_kernel_spec_pickle_round_trip(wide_dir):
    with session(wide_dir, 1, backend="thread") as db:
        spec = PP.KernelSpec(
            kind="jit", payload=b"def _mw0(): pass", worker="_mw0",
            sources=PP.catalog_specs(db.catalog),
            shared=pickle.dumps({"_M": get_monoid("sum")}),
            cleaning=pickle.dumps({}), row_limit=17,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_warm_csv_spec_ships_complete_posmap(wide_dir):
    with session(wide_dir, 1, backend="thread") as db:
        db.query("for { w <- W, w.age > 30 } yield count 1")
        entry = db.catalog.get("W")
        assert entry.plugin.posmap.complete
        spec = PP.source_spec(entry)
        assert spec.aux is not None
        child = PP.build_catalog((spec,)).get("W").plugin
        assert child.posmap.complete
        assert child.posmap.row_offsets == entry.plugin.posmap.row_offsets


def test_monoid_pickle_round_trips_to_registry_identity():
    for name in ("sum", "count", "max", "min", "bag", "set", "list", "avg"):
        m = get_monoid(name)
        assert pickle.loads(pickle.dumps(m)) is m


def test_choose_backend_thresholds():
    # plenty of work: process pays for itself
    assert C.choose_backend("process", 50000, 4, "csv", "cold", 4) == "process"
    # thread sessions never escalate
    assert C.choose_backend("thread", 50000, 4, "csv", "cold", 4) == "thread"
    # DoP 1 has nothing to fan out
    assert C.choose_backend("process", 50000, 4, "csv", "cold", 1) == "thread"
    # total work below the spawn cost
    assert C.choose_backend("process", 5000, 1, "csv", "cold", 4) == "thread"
    # spawn covered, but per-worker share below the IPC threshold at DoP 4 —
    # the same scan at DoP 2 gives each worker a worthwhile share
    assert C.choose_backend("process", 12000, 1, "csv", "cold", 4) == "thread"
    assert C.choose_backend("process", 12000, 1, "csv", "cold", 2) == "process"


# ---------------------------------------------------------------------------
# session / EXPLAIN surface
# ---------------------------------------------------------------------------


def test_session_validates_backend():
    with pytest.raises(ViDaError):
        ViDa(backend="bogus")


def test_serial_backend_forces_dop_one(wide_dir):
    with session(wide_dir, 4, backend="serial") as db:
        r = db.query("for { w <- W, w.age > 40 } yield sum w.score")
        assert r.decisions.parallel == {}
        assert "parallel=" not in r.plan_text


def test_explain_reports_process_backend(wide_dir):
    with session(wide_dir, 4) as db:
        text = db.explain("for { w <- W, w.age > 40 } yield sum w.score")
        assert "parallel=4/process" in text, text
        r = db.query("for { w <- W, w.age > 40 } yield sum w.score")
        assert r.decisions.parallel_backend.get("w") == "process", \
            r.decisions.summary()
        assert "/process" in r.decisions.summary()


def test_thread_sessions_never_report_process(wide_dir):
    with session(wide_dir, 4, backend="thread") as db:
        r = db.query("for { w <- W, w.age > 40 } yield sum w.score")
        assert r.decisions.parallel.get("w", 1) > 1
        assert r.decisions.parallel_backend.get("w") == "thread"
        assert "/process" not in r.plan_text


# ---------------------------------------------------------------------------
# differentials: process DoP 2/4 vs serial, both engines
# ---------------------------------------------------------------------------

QUERIES = [
    "for { w <- W, w.age > 40 } yield sum w.score",
    "for { w <- W } yield avg w.score",
    "for { w <- W, w.age > 50 } yield count 1",
    "for { w <- W } yield min w.score",
    "for { w <- W } yield max w.score",
    "for { w <- W, w.age >= 60 } yield bag (id := w.id, s := w.score)",
    "for { w <- W } yield set w.gender",
    "for { w <- W, g <- G, w.id = g.id, g.snp = 1 } yield count 1",
    "for { w <- W, g <- G, w.id = g.id, g.snp = 1 } "
    "yield bag (id := w.id, s := g.snp)",
    "for { b <- B, b.vol > 5.0 } yield bag (id := b.id, v := b.vol)",
    "for { d <- Dirty } yield sum d.age",
]


@pytest.mark.parametrize("engine", ENGINES)
def test_process_results_match_serial(wide_dir, engine):
    # raw-row accounting parity is the subject here; value indexes serve
    # warm repeats from candidates (fewer raw rows) only where emission ran,
    # and process children skip emission — so pin them off on both sides
    with session(wide_dir, 1, backend="thread") as serial:
        serial.enable_indexes = False
        cold = []
        for q in QUERIES:
            r = serial.query(q, engine=engine)
            cold.append((r.value, r.stats.raw_rows, r.stats.cleaned_rows,
                         r.stats.skipped_rows))
        warm = [serial.query(q, engine=engine).value for q in QUERIES]

    for dop in (2, 4):
        with session(wide_dir, dop) as db:
            db.enable_indexes = False
            used_process = False
            for i, q in enumerate(QUERIES):
                r = db.query(q, engine=engine)
                value, raw, cleaned, skipped = cold[i]
                assert_same(r.value, value)
                assert (r.stats.raw_rows, r.stats.cleaned_rows,
                        r.stats.skipped_rows) == (raw, cleaned, skipped), q
                used_process = used_process or \
                    "process" in r.decisions.parallel_backend.values()
            assert used_process, \
                "no query used worker processes — differentials ran on threads"
            # warm/cache-served second pass must agree too
            for i, q in enumerate(QUERIES):
                assert_same(db.query(q, engine=engine).value, warm[i])


def _group_plan(parallel: int, backend: str):
    """SELECT age, SUM(score) FROM W GROUP BY age — as a PhysNest plan (the
    SQL layer encodes GROUP BY as correlated comprehensions, so the sharded
    grouping path is exercised with directly-constructed plans)."""
    from repro.core.physical import PhysNest, PhysReduce, PhysScan
    from repro.mcc import ast as A

    scan = PhysScan(
        source="W", var="w", format="csv", fields=("age", "score"),
        access="cold", parallel=parallel, backend=backend,
    )
    nest = PhysNest(
        child=scan,
        keys=(("age", A.Proj(A.Var("w"), "age")),),
        monoid=get_monoid("sum"),
        head=A.Proj(A.Var("w"), "score"),
        group_var="g",
        agg_name="total",
    )
    head = A.RecordCons((
        ("age", A.Proj(A.Var("g"), "age")),
        ("total", A.Proj(A.Var("g"), "total")),
    ))
    return PhysReduce(nest, get_monoid("bag"), head)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ("thread", "process"))
def test_group_by_shards_across_morsels(wide_dir, engine, backend):
    from repro.caching import DataCache
    from repro.core.catalog import Catalog
    from repro.core.codegen.compiler import QueryCompiler
    from repro.core.executor.runtime import QueryRuntime
    from repro.core.executor.static_engine import StaticExecutor

    cat = Catalog()
    cat.register_csv("W", str(wide_dir / "wide.csv"))
    pool = PP.WorkerPool(4) if backend == "process" else None

    def run(parallel, run_backend):
        rt = QueryRuntime(cat, DataCache(), process_pool=pool)
        plan = _group_plan(parallel, run_backend)
        if engine == "jit":
            return QueryCompiler(cat).compile(plan)(rt)
        return StaticExecutor(cat).execute(plan, rt)

    try:
        base = run(1, "thread")
        got = run(4, backend)
    finally:
        if pool is not None:
            pool.shutdown()
    # group order (first occurrence) and per-key fold results must match the
    # serial nest; float sums regroup at morsel boundaries, hence isclose
    assert [r["age"] for r in got] == [r["age"] for r in base]
    assert len(got) == len(base) > 1
    for grow, brow in zip(got, base):
        assert_same(grow["total"], brow["total"])


@pytest.mark.parametrize("engine", ENGINES)
def test_process_limit_stops_early(wide_dir, engine):
    stmt = "SELECT w.id FROM W w WHERE w.age > 30 LIMIT 17"
    with session(wide_dir, 1, backend="thread") as serial:
        base = serial.sql(stmt, engine=engine)
    with session(wide_dir, 4) as db:
        r = db.sql(stmt, engine=engine)
        assert r.value == base.value
        assert len(r.value) == 17
        # the stop predicate cancelled morsels the window never submitted
        assert r.stats.morsels_cancelled > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_process_cleaning_drops_match_serial(wide_dir, engine):
    q = "for { d <- Dirty } yield bag (id := d.id, a := d.age)"
    with session(wide_dir, 1, backend="thread") as serial:
        base = serial.query(q, engine=engine)
        assert base.stats.skipped_rows > 0
    with session(wide_dir, 4) as db:
        r = db.query(q, engine=engine)
        # SkipPolicy pickles, so the cleaned scan still ships to processes
        assert r.decisions.parallel_backend.get("d") == "process", \
            r.decisions.summary()
        assert r.value == base.value
        assert r.stats.skipped_rows == base.stats.skipped_rows


@pytest.mark.parametrize("engine", ENGINES)
def test_process_cache_served_second_pass(wide_dir, engine):
    q = "for { w <- W } yield bag (a := w.age, s := w.score)"
    with session(wide_dir, 4) as db:
        first = db.query(q, engine=engine)
        assert first.decisions.parallel_backend.get("w") == "process"
        second = db.query(q, engine=engine)
        assert second.stats.cache_only
        assert second.value == first.value
        # cache entries live in the parent; the cache scan stays on threads
        assert second.decisions.parallel_backend.get("w", "thread") == "thread"


def test_process_cold_scan_builds_identical_posmap(wide_dir):
    with session(wide_dir, 1, backend="thread") as serial:
        serial.query("for { w <- W, w.age > 30 } yield count 1")
        pm_serial = serial.catalog.get("W").plugin.posmap

        with session(wide_dir, 4) as db:
            r = db.query("for { w <- W, w.age > 30 } yield count 1")
            assert r.decisions.parallel_backend.get("w") == "process", \
                r.decisions.summary()
            pm = db.catalog.get("W").plugin.posmap
            assert pm.complete
            assert pm.row_offsets == pm_serial.row_offsets
            assert pm.mapped_columns == pm_serial.mapped_columns


def test_worker_exception_propagates_without_hang(tmp_path):
    # one dirty value, no cleaning policy: the owning morsel raises in a
    # worker process and the query fails on both engines, promptly
    path = tmp_path / "explode.csv"
    with open(path, "w") as fh:
        fh.write("id,v,pad\n")
        for i in range(15000):
            fh.write(f"{i},{'boom' if i == 12500 else i},{'y' * 64}\n")
    for engine in ENGINES:
        db = ViDa(parallelism=4, backend="process")
        db.register_csv("X", str(path))
        try:
            assert "parallel=4/process" in \
                db.explain("for { x <- X, x.id > 10 } yield sum x.v")
            with pytest.raises(DataFormatError, match="boom"):
                db.query("for { x <- X, x.id > 10 } yield sum x.v",
                         engine=engine)
        finally:
            db.close()


# ---------------------------------------------------------------------------
# fallbacks: unshippable plans degrade, they never fail
# ---------------------------------------------------------------------------


def test_dbms_source_falls_back_to_serial_with_note(wide_dir, tmp_path):
    from repro.warehouse.rowstore import RowStore

    store = RowStore(tmp_path)
    store.create_table("T", ["id", "v"], ["int", "int"])
    store.insert_rows("T", [(i, i * 3) for i in range(500)])

    with session(wide_dir, 4) as db:
        db.register_dbms("T", store, "T")
        r = db.query("for { t <- T, t.id < 100 } yield sum t.v")
        assert r.value == sum(i * 3 for i in range(100))
        assert "t" not in r.decisions.parallel_backend
        assert any("process backend unavailable" in n and "runs serial" in n
                   for n in r.decisions.notes), r.decisions.notes

        # a plan that joins a shippable scan with a dbms source cannot ship
        # either: the driver degrades to thread morsels, with a note
        j = db.query("for { w <- W, t <- T, w.id = t.id } yield count 1")
        assert j.value == 500
        if j.decisions.parallel.get("w", 1) > 1:
            assert j.decisions.parallel_backend.get("w") == "thread"
            assert any("thread morsels" in n for n in j.decisions.notes), \
                j.decisions.notes


def test_device_charged_source_falls_back_serial(wide_dir):
    from repro.storage.device import StorageDevice

    with session(wide_dir, 4) as db:
        db.set_device("W", StorageDevice("hdd"))
        r = db.query("for { w <- W, w.age > 40 } yield count 1")
        assert "w" not in r.decisions.parallel
        assert any("process backend unavailable" in n
                   for n in r.decisions.notes), r.decisions.notes


def test_small_scan_stays_on_thread_morsels(tmp_path):
    # narrow rows: the size-based row estimate keeps work under the spawn
    # cost, so the planner declines processes and says why
    path = tmp_path / "narrow.csv"
    with open(path, "w") as fh:
        fh.write("id,v\n")
        for i in range(3000):
            fh.write(f"{i},{i % 7}\n")
    db = ViDa(parallelism=4, backend="process")
    db.register_csv("N", str(path))
    try:
        r = db.query("for { n <- N, n.id > 10 } yield sum n.v")
        if r.decisions.parallel.get("n", 1) > 1:
            assert r.decisions.parallel_backend.get("n") == "thread"
            assert any("below process-backend threshold" in n
                       for n in r.decisions.notes), r.decisions.notes
    finally:
        db.close()


# ---------------------------------------------------------------------------
# selection pushdown over populate ⊆ predicate fields (admission gated off)
# ---------------------------------------------------------------------------


def test_sel_push_when_populate_subset_of_predicate(wide_dir):
    with session(wide_dir, 1, backend="thread") as db:
        # pushdown on warm scans is the subject; a value index would
        # outbid the warm access path this test inspects
        db.enable_indexes = False
        db.query("for { w <- W, w.age > 30 } yield count 1")
        db.cache.clear()
        r = db.query("for { w <- W, w.age > 55 } yield sum w.age")
        assert r.decisions.access["w"] == "warm"
        assert r.decisions.filters.get("w") == "vec+push", \
            r.decisions.summary()
        assert any("cache population disabled" in n for n in r.decisions.notes)
        # survivors-only columns must never be admitted as complete ones
        again = db.query("for { w <- W, w.age > 55 } yield sum w.age")
        assert not again.stats.cache_only
        assert_same(again.value, r.value)
        # a query needing non-predicate fields still populates normally
        full = db.query("for { w <- W, w.age > 55 } yield sum w.score")
        assert full.decisions.filters.get("w") != "vec+push"
        served = db.query("for { w <- W, w.age > 55 } yield sum w.score")
        assert served.stats.cache_only
        assert_same(served.value, full.value)


# ---------------------------------------------------------------------------
# scheduler: bounded in-flight window, discard hook, inline fallback
# ---------------------------------------------------------------------------


def test_scheduler_bounds_inflight_morsels():
    sched = MorselScheduler(2)
    morsels = split_ranges(2000, 20, "rows")
    assert len(morsels) == 20
    out = sched.map(lambda m: m.lo, morsels, stop=lambda r: True)
    assert out == [morsels[0].lo]
    # window = max(2×DoP, 2) = 4: only 4 morsels were ever submitted before
    # the stop, so at least the 16 never-submitted ones count as cancelled
    assert 16 <= sched.cancelled <= 19


def test_scheduler_windowed_run_preserves_morsel_order():
    morsels = split_ranges(2000, 20, "rows")
    out = MorselScheduler(3).map(lambda m: (m.lo, m.hi), morsels)
    assert out == [(m.lo, m.hi) for m in morsels]


def test_scheduler_drops_pending_morsels_on_stop():
    from concurrent.futures import Future

    sched = MorselScheduler(2)
    done = Future()
    done.set_result("r1")  # finished: its result is simply never consumed
    pending = Future()  # never started — cancellable
    sched._drop_pending([done, pending], count=True)
    assert sched.cancelled == 1 and pending.cancelled()
    assert not done.cancelled()


def test_process_scheduler_runs_inline_without_pool():
    sched = ProcessMorselScheduler(4, None)
    assert sched.backend == "process"
    morsels = split_ranges(100, 3, "rows")
    assert sched.map(lambda m: m.lo, morsels) == [m.lo for m in morsels]
