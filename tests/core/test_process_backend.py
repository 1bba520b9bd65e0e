"""Process-pool morsel backend: kernel specs, differentials, and fallbacks.

The contract under test: ``ViDa(parallelism=N, backend="process")`` ships
picklable kernel specs to worker processes and returns the *same answer* as
the serial session on both engines — ordered bags, set dedup, grouping,
LIMIT prefixes, cleaning drops and positional maps included. Where the plan
cannot ship (dbms/device sources, unpicklable cleaning, cache scans,
sub-threshold work) it must run serial with an EXPLAIN note, never fail.
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
from repro.core.executor.scheduler import ProcessMorselScheduler
from repro.core.optimizer import cost as C
from repro.core.physical import plan_shape
from repro.errors import DataFormatError, ExecutionError, ViDaError
from repro.mcc.monoids import get_monoid

ENGINES = ("jit", "static")


# ---------------------------------------------------------------------------
# fixtures: rows padded wide enough that the cost model's file-size row
# estimate clears PROCESS_SPAWN_COST — narrow rows would (correctly) plan
# serial scans and the differentials would not exercise worker processes
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
    with session(wide_dir, 1) as db:
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
    with session(wide_dir, 1) as db:
        spec = PP.KernelSpec(
            plan=pickle.dumps(_group_plan(2)), engine="jit",
            worker="_mw4", sources=PP.catalog_specs(db.catalog),
            shared=pickle.dumps({"_ht1": {1: [(2, "m")]}}),
            cleaning=pickle.dumps({}), row_limit=17,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_one_plan_compiles_to_one_source(wide_dir):
    # a worker process compiles the shipped plan itself and looks its morsel
    # worker up by name: compiling one plan twice — against a catalog rebuilt
    # from the specs, from an unpickled plan — must yield identical source
    from repro.core.codegen.compiler import QueryCompiler

    with session(wide_dir, 4) as db:
        plans = []
        # the second query reads a source of its own: W's cache entries
        # would keep its scan serial
        db.register_csv("V", str(wide_dir / "wide.csv"))
        for q in ("for { w <- W, g <- G, w.id = g.id, g.snp = 1 } "
                  "yield bag (id := w.id, s := g.snp)",
                  "for { w <- V, w.age > 70 } yield set (a := w.age)"):
            assert db.query(q).decisions.parallel["w"] > 1
            (slot,) = db.engine_context.prepared(("mcc", q)).plans.values()
            plans.append(slot[1])  # (epoch, plan, ...)
        plans.append(_group_plan(4))
        compiled = [QueryCompiler(db.catalog).compile(p) for p in plans]
        cached = {c.source for c in db._jit._compiled.values()}
        rebuilt = PP.build_catalog(PP.catalog_specs(db.catalog))
    assert len(compiled) == 3
    assert cached == {c.source for c in compiled[:2]}
    for plan, c in zip(plans, compiled):
        assert "_rt.run_parallel(" in c.source
        again = QueryCompiler(rebuilt).compile(pickle.loads(pickle.dumps(
            plan)))
        assert again.source == c.source


def test_warm_csv_spec_ships_complete_posmap(wide_dir):
    with session(wide_dir, 1) as db:
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
    assert C.choose_backend(50000, 4, "csv", "cold", 4) == "process"
    # DoP 1 has nothing to fan out
    assert C.choose_backend(50000, 4, "csv", "cold", 1) == "serial"
    # total work below the spawn cost
    assert C.choose_backend(5000, 1, "csv", "cold", 4) == "serial"
    # spawn covered, but per-worker share below the IPC threshold at DoP 4 —
    # the same scan at DoP 2 gives each worker a worthwhile share
    assert C.choose_backend(12000, 1, "csv", "cold", 4) == "serial"
    assert C.choose_backend(12000, 1, "csv", "cold", 2) == "process"
    # the per-value cost moves the threshold: a warm scan of the same rows
    # does less work than a cold one
    assert C.choose_backend(12000, 1, "csv", "warm", 2) == "serial"


# ---------------------------------------------------------------------------
# session / EXPLAIN surface
# ---------------------------------------------------------------------------


def test_session_validates_backend():
    ViDa(backend="process").close()
    for backend in ("bogus", "thread", "serial"):
        with pytest.raises(ViDaError, match="parallelism=1"):
            ViDa(backend=backend)


def test_serial_backend_forces_dop_one(wide_dir):
    # the serial session is spelled parallelism=1 (backend="serial" is
    # refused above): no scan shards, whatever its size
    with session(wide_dir, 1) as db:
        r = db.query("for { w <- W, w.age > 40 } yield sum w.score")
        assert r.decisions.parallel == {}
        assert "parallel=" not in r.plan_text
        assert db._worker_pool() is None


def test_explain_reports_process_backend(wide_dir):
    with session(wide_dir, 4) as db:
        text = db.explain("for { w <- W, w.age > 40 } yield sum w.score")
        assert "parallel=4," in text, text
        r = db.query("for { w <- W, w.age > 40 } yield sum w.score")
        assert r.decisions.parallel == {"w": 4}, r.decisions.summary()
        assert "parallel[w:4]" in r.decisions.summary()


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

#: every other fold merge: prod, exists/all (decided in the last morsel),
#: list, a generic monoid, a set of records, and predicates that leave whole
#: morsels empty (None max partials, zero-count avg ones)
MERGE_RULES = [
    "for { w <- W, w.id % 2500 = 0 } yield prod w.age",
    "for { w <- W } yield exists w.id = 19999",
    "for { w <- W } yield all w.id < 19990",
    "for { w <- W, w.age >= 79 } yield list w.id",
    "for { w <- W } yield median w.score",
    "for { w <- W, w.age > 70 } yield set (a := w.age, g := w.gender)",
    "for { w <- W, w.id < 100 } yield max w.score",
    "for { w <- W, w.id >= 19900 } yield avg w.score",
]


@pytest.mark.parametrize("engine", ENGINES)
def test_process_results_match_serial(wide_dir, engine):
    # raw-row accounting parity is the subject here; value indexes serve
    # warm repeats from candidates (fewer raw rows) only where emission ran,
    # and process children skip emission — so pin them off on both sides
    with session(wide_dir, 1) as serial:
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
                used_process = used_process or bool(r.decisions.parallel)
            assert used_process, \
                "no query used worker processes — differentials ran serial"
            # warm/cache-served second pass must agree too
            for i, q in enumerate(QUERIES):
                assert_same(db.query(q, engine=engine).value, warm[i])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ("process",))
def test_every_merge_rule_matches_serial(wide_dir, engine, backend):
    with session(wide_dir, 1) as serial:
        want = [serial.query(q, engine=engine).value for q in MERGE_RULES]
    for dop in (2, 4):
        with session(wide_dir, dop, backend=backend) as db:
            for i, q in enumerate(MERGE_RULES):
                # a source of its own per query: every scan is cold, which
                # is what the planner ships to worker processes
                db.register_csv(f"W{i}", str(wide_dir / "wide.csv"))
                r = db.query(q.replace("<- W", f"<- W{i}"), engine=engine)
                assert_same(r.value, want[i])
                assert r.decisions.parallel.get("w") == dop, q


def _group_plan(parallel: int):
    """SELECT age, SUM(score) FROM W GROUP BY age — as a PhysNest plan (the
    SQL layer encodes GROUP BY as correlated comprehensions, so the sharded
    grouping path is exercised with directly-constructed plans)."""
    from repro.core.physical import PhysNest, PhysReduce, PhysScan
    from repro.mcc import ast as A

    scan = PhysScan(
        source="W", var="w", format="csv", fields=("age", "score"),
        access="cold", parallel=parallel,
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
@pytest.mark.parametrize("backend", ("process",))  # names the substrate
def test_group_by_shards_across_morsels(wide_dir, engine, backend):
    from repro.caching import DataCache
    from repro.core.catalog import Catalog
    from repro.core.codegen.compiler import QueryCompiler
    from repro.core.executor.runtime import QueryRuntime
    from repro.core.executor.static_engine import StaticExecutor

    cat = Catalog()
    cat.register_csv("W", str(wide_dir / "wide.csv"))
    pool = PP.WorkerPool(4)

    def run(parallel):
        rt = QueryRuntime(cat, DataCache(), process_pool=pool)
        plan = _group_plan(parallel)
        if engine == "jit":
            return QueryCompiler(cat).compile(plan)(rt, plan_shape(plan))
        return StaticExecutor(cat).execute(plan, rt)

    try:
        base = run(1)
        got = run(4)
    finally:
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
    with session(wide_dir, 1) as serial:
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
    with session(wide_dir, 1) as serial:
        base = serial.query(q, engine=engine)
        assert base.stats.skipped_rows > 0
    with session(wide_dir, 4) as db:
        r = db.query(q, engine=engine)
        # SkipPolicy pickles, so the cleaned scan still ships to processes
        assert r.decisions.parallel.get("d") == 4, r.decisions.summary()
        assert r.value == base.value
        assert r.stats.skipped_rows == base.stats.skipped_rows


@pytest.mark.parametrize("engine", ENGINES)
def test_process_cache_served_second_pass(wide_dir, engine):
    q = "for { w <- W } yield bag (a := w.age, s := w.score)"
    with session(wide_dir, 4) as db:
        first = db.query(q, engine=engine)
        assert first.decisions.parallel.get("w") == 4
        second = db.query(q, engine=engine)
        assert second.stats.cache_only
        assert second.value == first.value
        # cache entries live in the parent; the cache scan runs serial
        assert second.decisions.parallel == {}
        assert "w: cache scan stays in this process; runs serial" in \
            second.decisions.notes


def test_process_cold_scan_builds_identical_posmap(wide_dir):
    with session(wide_dir, 1) as serial:
        serial.query("for { w <- W, w.age > 30 } yield count 1")
        pm_serial = serial.catalog.get("W").plugin.posmap

        with session(wide_dir, 4) as db:
            r = db.query("for { w <- W, w.age > 30 } yield count 1")
            assert r.decisions.parallel.get("w") == 4, r.decisions.summary()
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
            assert "parallel=4," in \
                db.explain("for { x <- X, x.id > 10 } yield sum x.v")
            with pytest.raises(DataFormatError, match="boom"):
                db.query("for { x <- X, x.id > 10 } yield sum x.v",
                         engine=engine)
        finally:
            db.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_dead_worker_fails_one_query_and_the_pool_respawns(wide_dir, engine):
    # SIGKILL one pool worker: the next parallel query fails with a typed
    # error naming the source (not a raw BrokenProcessPool), adopts nothing,
    # and the query after it runs on a fresh pool and answers as serial
    import os
    import signal

    q = "for { w <- W, w.age > 40 } yield sum w.score"
    with session(wide_dir, 1) as serial:
        want = serial.query(q, engine=engine).value
    with session(wide_dir, 2) as db:
        db.prestart()
        pool = db._worker_pool()
        victim = next(iter(pool._executor._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        with pytest.raises(ExecutionError, match="'W'") as err:
            db.query(q, engine=engine)
        assert 'if __name__ == "__main__":' in str(err.value)
        assert not db.catalog.get("W").plugin.posmap.complete
        r = db.query(q, engine=engine)
        assert r.decisions.parallel.get("w") == 2
        assert_same(r.value, want)


def test_unguarded_script_prestart_raises_typed_error(tmp_path):
    # workers start by spawn and re-import the main module: a script without
    # the guard re-runs itself in each worker, which dies starting. The
    # parent sees a typed error naming the guard, not a BrokenProcessPool
    import os
    import subprocess
    import sys

    import repro

    script = tmp_path / "unguarded.py"
    script.write_text(
        "from repro import ViDa\n"
        "from repro.errors import ExecutionError\n"
        "db = ViDa(parallelism=2, backend='process')\n"
        "try:\n"
        "    db.prestart()\n"
        "except ExecutionError as exc:\n"
        "    print('typed:', exc)\n"
        "finally:\n"
        "    db.close()\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.count("typed:") == 1, (out.stdout, out.stderr)
    assert "the worker pool was reset" in out.stdout
    assert 'if __name__ == "__main__":' in out.stdout


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
        assert "t" not in r.decisions.parallel
        assert any("process backend unavailable" in n and "runs serial" in n
                   for n in r.decisions.notes), r.decisions.notes

        # a plan that joins a shippable scan with a dbms source cannot ship
        # either: the driver runs serial, with a note
        j = db.query("for { w <- W, t <- T, w.id = t.id } yield count 1")
        assert j.value == 500
        assert j.decisions.parallel == {}
        assert "w: dbms source 'T' is not picklable; runs serial" in \
            j.decisions.notes, j.decisions.notes


def test_device_charged_source_falls_back_serial(wide_dir):
    from repro.storage.device import StorageDevice

    with session(wide_dir, 4) as db:
        db.set_device("W", StorageDevice("hdd"))
        r = db.query("for { w <- W, w.age > 40 } yield count 1")
        assert "w" not in r.decisions.parallel
        assert any("process backend unavailable" in n
                   for n in r.decisions.notes), r.decisions.notes


def test_unshippable_scans_plan_serial_with_a_note(tmp_path, wide_dir):
    # DoP 2: a cache scan, a scan worth two morsels but below
    # choose_backend's threshold, and a plan blocked by an unpicklable
    # cleaning policy each plan serial and say why
    from repro.cleaning import NullPolicy

    class LocalPolicy(NullPolicy):
        """Defined in a function, so pickle cannot find it by name."""

    path = tmp_path / "narrow.csv"
    with open(path, "w") as fh:
        fh.write("id,v\n")
        for i in range(20000):
            fh.write(f"{i},{i % 7}\n")
    with session(wide_dir, 2) as db:
        db.register_csv("N", str(path))
        db.register_csv("W2", str(wide_dir / "wide.csv"))
        db.set_cleaning("W2", LocalPolicy())
        small = db.query("for { n <- N, n.id > 10 } yield sum n.v")
        assert "n: work below process-backend threshold; runs serial" in \
            small.decisions.notes
        q = "for { w <- W } yield bag (a := w.age, s := w.score)"
        assert db.query(q).decisions.parallel == {"w": 2}
        cached = db.query(q)
        assert cached.stats.cache_only
        assert "w: cache scan stays in this process; runs serial" in \
            cached.decisions.notes
        blocked = db.query("for { w <- W2 } yield sum w.age")
        assert "w: cleaning policy for 'W2' is not picklable; runs serial" \
            in blocked.decisions.notes, blocked.decisions.notes
        for r in (small, cached, blocked):
            assert r.decisions.parallel == {}
            assert "parallel=" not in r.plan_text


# ---------------------------------------------------------------------------
# selection pushdown over populate ⊆ predicate fields (admission gated off)
# ---------------------------------------------------------------------------


def test_sel_push_when_populate_subset_of_predicate(wide_dir):
    with session(wide_dir, 1) as db:
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


def test_scheduler_bounds_inflight_morsels(executor_pool):
    sched = ProcessMorselScheduler(2, executor_pool)
    morsels = split_ranges(2000, 20, "rows")
    assert len(morsels) == 20
    out = sched.map(lambda m: m.lo, morsels, stop=lambda r: True)
    assert out == [morsels[0].lo]
    # window = max(2×DoP, 2) = 4: only 4 morsels were ever submitted before
    # the stop, so at least the 16 never-submitted ones count as cancelled
    assert 16 <= sched.cancelled <= 19


def test_scheduler_windowed_run_preserves_morsel_order(executor_pool):
    morsels = split_ranges(2000, 20, "rows")
    out = ProcessMorselScheduler(3, executor_pool).map(
        lambda m: (m.lo, m.hi), morsels)
    assert out == [(m.lo, m.hi) for m in morsels]


def test_scheduler_drops_pending_morsels_on_stop():
    from concurrent.futures import Future

    sched = ProcessMorselScheduler(2, None)
    done = Future()
    done.set_result("r1")  # finished: its result is simply never consumed
    pending = Future()  # never started — cancellable
    sched._drop_pending([done, pending], count=True)
    assert sched.cancelled == 1 and pending.cancelled()
    assert not done.cancelled()


def test_process_scheduler_runs_inline_without_pool():
    sched = ProcessMorselScheduler(4, None)
    morsels = split_ranges(100, 3, "rows")
    assert sched.map(lambda m: m.lo, morsels) == [m.lo for m in morsels]
