"""The raw-scan seam: one by-product object, one gate, one scan body.

Contracts under test:

- every raw scan — top-level or sub-query — runs the same body, so
  cleaning repairs/skips and raw rows are counted per scan, scan-locally
  (an enclosing scan never absorbs its sub-query's skips);
- a stand-alone ``CSVSource.scan_chunks`` never populates the shared
  positional map in place: concurrent cold scans each build a detached
  partial and exactly one adopts;
- what a finished scan leaves behind (positional map, value indexes, table
  statistics, cache population) goes through one adopt-or-discard decision
  — one source lock, one ``stat`` — and is the same at serial, thread DoP 2
  and process DoP 2 on both engines (worker processes build no index
  partial, by design); a file mutated mid-scan discards every kind, and a
  LIMIT that cut a parallel scan short admits nothing;
- ``QueryRuntime.iter_source`` is the chunked scan with ``whole=True`` for
  every format: same elements and same accounting as a top-level scan.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro import ViDa
from repro.cleaning import SkipPolicy
from repro.core.executor.runtime import QueryRuntime
from repro.formats import write_array, write_workbook
from repro.formats.csvfmt import CSVSource
from repro.storage.io import FileFingerprint

ENGINES = ("jit", "static")
COUNTERS = ("posmap_adoptions", "posmap_discards", "index_adoptions",
            "index_discards", "stats_adoptions", "stats_discards")


def counters(db) -> dict:
    snap = db.engine_context.stats_snapshot()
    return {k: snap[k] for k in COUNTERS}


# ---------------------------------------------------------------------------
# sub-query scans count like top-level scans
# ---------------------------------------------------------------------------


@pytest.fixture()
def dirty_csv(tmp_path):
    """100 rows, 10 of them with an unparseable ``age``, 4 groups."""
    path = tmp_path / "dirty.csv"
    with open(path, "w") as fh:
        fh.write("id,g,age\n")
        for i in range(100):
            fh.write(f"{i},{i % 4},{'bad' if i % 10 == 3 else 20 + i}\n")
    return str(path)


def dirty_session(dirty_csv):
    db = ViDa()
    db.register_csv("D", dirty_csv, columns=["id", "g", "age"],
                    types=["int", "int", "int"])
    db.set_cleaning("D", SkipPolicy())
    return db


@pytest.mark.parametrize("engine", ENGINES)
def test_subquery_scan_counts_cleaning_like_a_top_level_scan(dirty_csv, engine):
    db = dirty_session(dirty_csv)
    db.register_memory("K", [{"k": 1}, {"k": 2}])
    top = db.query("for { d <- D, d.age > 0 } yield count 1", engine=engine)
    assert (top.value, top.stats.raw_rows, top.stats.skipped_rows) == \
        (90, 100, 10)
    nested = db.query(
        "for { k <- K } yield bag (k := k.k, "
        "n := for { d <- D, d.age > 0 } yield count 1)", engine=engine)
    assert nested.value == [{"k": 1, "n": 90}, {"k": 2, "n": 90}]
    # one pass over D per element of K, each counted like the pass above
    assert nested.stats.raw_rows == 200
    assert nested.stats.skipped_rows == 20
    assert nested.stats.raw_bytes == 2 * os.path.getsize(dirty_csv)
    db.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_enclosing_scan_does_not_absorb_subquery_skips(dirty_csv, engine):
    """Skips are counted per scan: a query-wide before/after delta would
    charge the outer scan for every row its sub-queries dropped."""
    db = dirty_session(dirty_csv)
    r = db.query(
        "for { o <- D, o.age > 0 } yield bag (id := o.id, "
        "n := for { d <- D, d.age > 0 } yield count 1)", engine=engine)
    assert len(r.value) == 90 and {rec["n"] for rec in r.value} == {90}
    assert r.stats.skipped_rows == 10 + 90 * 10
    assert r.stats.raw_rows == 100 + 90 * 100
    db.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_sql_group_by_counts_cleaning_per_pass(dirty_csv, engine):
    db = dirty_session(dirty_csv)
    r = db.sql("SELECT g, COUNT(*) AS n FROM D WHERE age > 0 GROUP BY g",
               engine=engine)
    assert sorted((rec["g"], rec["n"]) for rec in r.value) == \
        [(0, 25), (1, 20), (2, 25), (3, 20)]
    # GROUP BY compiles to one distinct-keys pass plus one pass per group
    assert r.stats.raw_rows == 5 * 100
    assert r.stats.skipped_rows == 5 * 10
    db.close()


# ---------------------------------------------------------------------------
# stand-alone scans never write the shared positional map in place
# ---------------------------------------------------------------------------


def test_concurrent_standalone_scan_chunks_adopt_exactly_once(tmp_path):
    path = tmp_path / "race.csv"
    with open(path, "w") as fh:
        fh.write("a,b\n")
        for i in range(20000):
            fh.write(f"{i},{i * 3}\n")
    reference = CSVSource(path)
    list(reference.scan_chunks(["a"], batch_size=64))
    assert reference.posmap.complete

    src = CSVSource(path)
    adopt = src.adopt_posmap_partials
    outcomes = []

    def recording_adopt(partials, expect=None):
        outcomes.append(adopt(partials, expect=expect))
        return outcomes[-1]

    src.adopt_posmap_partials = recording_adopt
    nthreads = 4
    barrier = threading.Barrier(nthreads)
    rows = []

    def scan():
        barrier.wait(timeout=30)
        rows.append(sum(c.length for c in
                        src.scan_chunks(["a"], batch_size=64, access="cold")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scan) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert rows == [20000] * nthreads
    assert src.posmap.complete
    assert src.posmap.row_offsets == reference.posmap.row_offsets
    assert src.posmap.mapped_columns == reference.posmap.mapped_columns
    assert sorted(outcomes) == [False] * (nthreads - 1) + [True]


# ---------------------------------------------------------------------------
# by-product parity through the one gate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    """Rows padded wide enough that process morsels clear the planner's
    spawn-cost gate (narrow rows would, correctly, plan threads)."""
    d = tmp_path_factory.mktemp("seam")
    with open(d / "wide.csv", "w") as fh:
        fh.write("id,age,score,pad\n")
        for i in range(20000):
            fh.write(f"{i},{20 + (i * 7) % 60},{(i * 37) % 1000 / 10},"
                     f"{'x' * 64}\n")
    with open(d / "brain.json", "w") as fh:
        for i in range(9000):
            fh.write(json.dumps({"id": i, "vol": (i * 13) % 100 / 10,
                                 "pad": "p" * 180}) + "\n")
    return d


CSV_Q = "for { w <- W, w.age > 30 } yield sum w.score"
JSON_Q = "for { b <- B, b.vol > 5 } yield count 1"


def byproduct_state(db) -> dict:
    """Everything the two cold queries left behind, in comparable form."""
    ctx = db.engine_context
    pm = db.catalog.get("W").plugin.posmap
    state = {
        "posmap": (pm.complete, pm.row_offsets,
                   {c: pm.anchor_offsets(c)[1] for c in pm.mapped_columns}),
        "semi_index": [(s.start, s.end) for s in
                       db.catalog.get("B").plugin.semi_index.spans],
    }
    for name in ("W", "B"):
        gen = db.catalog.get(name).generation
        stats = ctx.table_stats.peek(name, gen)
        state[name + ".stats"] = stats.snapshot() if stats else None
        fields = {f: ctx.indexes.peek(name, gen, f)
                  for f in ctx.indexes.fields(name, gen)}
        state[name + ".index"] = {
            f: (sorted(ix.entries.items(), key=repr), ix.covered)
            for f, ix in fields.items()}
    state["cache"] = sorted(
        (e.source, e.cached.layout, e.cached.fields, e.cached.nbytes,
         e.cached.count, e.cached.data) for e in db.cache.entries())
    return state


def run_cold(wide_dir, engine=None, **session):
    db = ViDa(**session)
    try:
        db.register_csv("W", str(wide_dir / "wide.csv"))
        db.register_json("B", str(wide_dir / "brain.json"))
        results = [db.query(CSV_Q, engine=engine),
                   db.query(JSON_Q, engine=engine)]
        return ([r.value for r in results],
                [r.decisions.parallel_backend for r in results],
                byproduct_state(db), counters(db))
    finally:
        db.close()


def test_byproducts_identical_across_dop_and_backend(wide_dir):
    answers, _, serial, serial_n = run_cold(wide_dir)
    assert serial["posmap"][0] and serial["W.stats"] and serial["B.stats"]
    assert set(serial["W.index"]) == {"age"}
    assert set(serial["B.index"]) == {"vol"}
    assert serial_n == {"posmap_adoptions": 1, "posmap_discards": 0,
                        "index_adoptions": 2, "index_discards": 0,
                        "stats_adoptions": 2, "stats_discards": 0}

    t_answers, t_backends, thread, thread_n = run_cold(wide_dir, parallelism=2)
    assert t_backends == [{"w": "thread"}, {"b": "thread"}]
    assert t_answers == pytest.approx(answers)
    assert thread == serial
    assert thread_n == serial_n

    p_answers, p_backends, process, process_n = run_cold(
        wide_dir, parallelism=2, backend="process")
    assert p_backends == [{"w": "process"}, {"b": "process"}]
    assert p_answers == pytest.approx(answers)
    # a worker process has no index registry: it builds and ships no index
    # partial (that would double the transport), everything else is equal
    assert process.pop("W.index") == {} and process.pop("B.index") == {}
    assert process == {k: v for k, v in serial.items()
                       if not k.endswith(".index")}
    assert process_n == {**serial_n, "index_adoptions": 0}


@pytest.mark.parametrize("engine", ENGINES)
def test_population_identical_across_dop_and_backend(wide_dir, engine):
    """Cache population is a scan by-product like the others: the entries
    the cold queries leave behind — fields, layout, ``nbytes``, values —
    are the same whichever way the scans ran."""
    _, _, serial, _ = run_cold(wide_dir, engine)
    assert [(src, fields) for src, _l, fields, *_ in serial["cache"]] == \
        [("B", ("vol",)), ("W", ("age", "score"))]
    _, _, thread, _ = run_cold(wide_dir, engine, parallelism=2)
    _, backends, process, _ = run_cold(wide_dir, engine, parallelism=2,
                                       backend="process")
    assert backends == [{"w": "process"}, {"b": "process"}]
    assert thread == serial
    for state in (process, serial):
        state.pop("W.index")
        state.pop("B.index")
    assert process == serial


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ("thread", "process"))
def test_limit_truncated_parallel_bag_admits_nothing(wide_dir, engine,
                                                      backend):
    db = ViDa(parallelism=2, backend=backend)
    try:
        db.register_csv("W", str(wide_dir / "wide.csv"))
        r = db.sql("SELECT id FROM W LIMIT 10", engine=engine)
        assert len(r.value) == 10
        assert "populate=[id]" in r.plan_text
        assert r.stats.morsels_cancelled > 0
        # a prefix of the file must not pose as the whole column, and
        # nothing was offered, so nothing counts as dropped either
        assert db.cache.entries() == []
        assert db.engine_context.stats.stale_admissions_dropped == 0
    finally:
        db.close()


def test_mid_scan_mutation_discards_every_kind_in_one_decision(tmp_path,
                                                              monkeypatch):
    path = str(tmp_path / "t.csv")

    def write(scale):
        with open(path, "w") as fh:
            fh.write("id,v\n")
            for i in range(4000):
                fh.write(f"{i},{i * scale}\n")

    write(2)
    db = ViDa(batch_size=256)
    db.register_csv("T", path)
    plugin = db.catalog.get("T").plugin
    batches = plugin.iter_line_batches
    # from the mutation on, count what the end of the scan takes: source
    # locks and file stats
    taken = {"locks": 0, "stats": 0}
    source_lock = db.catalog.source_lock
    stat_matches = FileFingerprint.stat_matches

    def counting_lock(name):
        taken["locks"] += name == "T"
        return source_lock(name)

    def counting_stat(fp, path):
        taken["stats"] += 1
        return stat_matches(fp, path)

    def mutating(*args, **kwargs):
        for n, item in enumerate(batches(*args, **kwargs)):
            yield item
            if n == 2:
                write(7)  # same shape, other values and size: a new file
                monkeypatch.setattr(db.catalog, "source_lock", counting_lock)
                monkeypatch.setattr(FileFingerprint, "stat_matches",
                                    counting_stat)

    plugin.iter_line_batches = mutating
    q = "for { t <- T, t.v >= 0 } yield count 1"
    assert "populate=[v]" in db.explain(q)
    db.query(q)
    monkeypatch.undo()
    plugin.iter_line_batches = batches
    # the scan built a map partial, an index partial, a statistics partial
    # and the cache's population over a mix of dead and live bytes: none
    # may be installed, and one decision said so
    assert taken == {"locks": 1, "stats": 1}
    assert counters(db) == {"posmap_adoptions": 0, "posmap_discards": 1,
                            "index_adoptions": 0, "index_discards": 1,
                            "stats_adoptions": 0, "stats_discards": 1}
    ctx = db.engine_context
    assert ctx.stats.stale_admissions_dropped == 1
    assert db.cache.entries() == []
    assert not db.catalog.get("T").plugin.posmap.complete
    assert "T" not in ctx.indexes._sources
    assert ctx.table_stats.peek("T", db.catalog.get("T").generation) is None

    # the next query sees the new file and rebuilds all three
    assert db.query(q).value == 4000
    after = counters(db)
    assert (after["posmap_adoptions"], after["index_adoptions"],
            after["stats_adoptions"]) == (1, 1, 1)
    assert db.catalog.get("T").plugin.posmap.complete
    assert db.query("for { t <- T } yield sum t.v").value == \
        7 * sum(range(4000))
    db.close()


# ---------------------------------------------------------------------------
# iter_source is the chunked scan
# ---------------------------------------------------------------------------


@pytest.fixture()
def every_format(tmp_path):
    from repro.warehouse.colstore import ColStore

    csv_path = tmp_path / "d.csv"
    with open(csv_path, "w") as fh:
        fh.write("id,age\n")
        for i in range(50):
            fh.write(f"{i},{'bad' if i % 10 == 3 else 20 + i}\n")
    json_path = tmp_path / "j.json"
    with open(json_path, "w") as fh:
        for i in range(40):
            fh.write(json.dumps({"id": i, "m": {"v": i % 3}}) + "\n")
    array_path = tmp_path / "a.varr"
    write_array(array_path, (3, 4), [("h", "float")],
                [(float(i),) for i in range(12)])
    xls_path = tmp_path / "b.vxls"
    write_workbook(xls_path, [("s", ["id", "amt"],
                               [(i, i * 1.5) for i in range(9)])])
    store = ColStore()
    store.create_table("T", ["id", "v"], ["int", "float"])
    store.insert_rows("T", [(i, i * 0.5) for i in range(7)])

    db = ViDa(enable_cache=False)
    db.register_csv("C", str(csv_path), columns=["id", "age"],
                    types=["int", "int"])
    db.set_cleaning("C", SkipPolicy())
    db.register_json("J", str(json_path))
    db.register_array("A", str(array_path), ["i", "j"])
    db.register_xls("X", str(xls_path), "s")
    db.register_dbms("S", store, "T")
    db.register_memory("M", [{"k": i} for i in range(5)])
    yield db
    db.close()


def iterate(db, source):
    rt = QueryRuntime(db.catalog, db.cache, db.cleaning,
                      indexes=db.indexes, engine=db.engine_context,
                      table_stats=db.engine_context.table_stats)
    return list(rt.iter_source(source)), rt.stats


@pytest.mark.parametrize("source", ("C", "J", "A", "X", "S", "M"))
def test_iter_source_equals_top_level_scan(every_format, source):
    db = every_format
    runs = []
    for _pass in ("cold", "warm"):
        runs.append(iterate(db, source))
        top = db.query(f"for {{ e <- {source} }} yield bag e", engine="static")
        runs.append((top.value, top.stats))
    elements, first = runs[0]
    assert len(elements) == {"C": 45, "J": 40, "A": 12, "X": 9, "S": 7,
                             "M": 5}[source]
    for value, stats in runs:
        assert value == elements
        assert (stats.raw_rows, stats.raw_bytes, stats.skipped_rows,
                stats.cache_rows) == (first.raw_rows, first.raw_bytes,
                                      first.skipped_rows, first.cache_rows)
    assert first.skipped_rows == (5 if source == "C" else 0)
