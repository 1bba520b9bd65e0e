"""Chunk-pipeline tests: the vectorized batch scan path.

Covers the Chunk protocol itself, chunk-boundary row counts (0, 1, exactly
one batch, batch±1) differentially across both engines, cache-admission
equivalence between the row and batch paths, the planner's batch-size
decision surfacing in EXPLAIN, and the chunked access paths of every format
plugin.
"""

import json

import pytest

from repro import ViDa
from repro.caching import DataCache
from repro.core.chunk import DEFAULT_BATCH_SIZE, Chunk, chunked
from repro.core.executor.engine import JITExecutor
from repro.core.optimizer.cost import (
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    choose_batch_size,
)
from repro.formats import write_csv


# -- Chunk protocol ----------------------------------------------------------


def test_chunk_from_rows_and_columns_roundtrip():
    rows = [(1, "a"), (2, "b"), (3, None)]
    ch = Chunk.from_rows(("id", "name"), rows)
    assert ch.length == len(ch) == 3
    assert ch.rows() == rows
    assert ch.column("id") == [1, 2, 3]
    ch2 = Chunk.from_columns(("id", "name"), [[1, 2, 3], ["a", "b", None]])
    assert ch2.rows() == rows


def test_chunk_single_column_iter_rows_yields_tuples():
    ch = Chunk.from_columns(("x",), [[10, 20]])
    assert ch.rows() == [(10,), (20,)]


def test_chunk_empty():
    ch = Chunk.from_rows(("a", "b"), [])
    assert ch.length == 0
    assert ch.rows() == []


def test_chunk_ragged_columns_rejected():
    with pytest.raises(ValueError):
        Chunk.from_columns(("a", "b"), [[1, 2], [1]])
    with pytest.raises(ValueError):
        Chunk.from_columns(("a",), [[1, 2]], whole=[{"a": 1}])


def test_chunk_selection_vector_compaction(tmp_path):
    """The producer compacts what cleaning dropped: a CSV chunk carries the
    surviving rows only, columns and whole records alike."""
    from repro.cleaning import SkipPolicy
    from repro.formats.csvfmt import CSVSource

    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,x\nbad,y\n3,z\n")
    src = CSVSource(path, columns=["a", "b"], types=["int", "string"])
    (ch,) = src.scan_chunks(["a", "b"], clean=SkipPolicy(), whole=True)
    assert ch.length == 2
    assert ch.column("a") == [1, 3] and ch.column("b") == ["x", "z"]
    assert ch.whole == [{"a": 1, "b": "x"}, {"a": 3, "b": "z"}]
    assert ch.rows() == [(1, "x"), (3, "z")]


def test_chunked_batches_any_iterable():
    assert list(chunked(range(5), 2)) == [[0, 1], [2, 3], [4]]
    assert list(chunked([], 3)) == []
    with pytest.raises(ValueError):
        list(chunked([1], 0))


def test_choose_batch_size_bounds():
    assert choose_batch_size(10 ** 6, 1) == MAX_BATCH_SIZE
    assert choose_batch_size(10 ** 6, 10 ** 6) == MIN_BATCH_SIZE
    wide = choose_batch_size(10 ** 6, 64)
    assert MIN_BATCH_SIZE <= wide < MAX_BATCH_SIZE
    assert wide & (wide - 1) == 0  # power of two
    # tiny sources don't plan a batch far beyond their row count
    assert choose_batch_size(10, 1) == MIN_BATCH_SIZE
    assert choose_batch_size(300, 1) < MAX_BATCH_SIZE


def test_session_rejects_bad_batch_size():
    from repro.errors import ViDaError

    for bad in (0, -4):
        with pytest.raises(ViDaError):
            ViDa(batch_size=bad)


# -- chunk-boundary row counts, differential across engines ------------------

BATCH = 8


def _csv_db(tmp_path, nrows, batch_size=BATCH):
    path = tmp_path / f"rows{nrows}.csv"
    rows = [(i, 20 + i % 50, round(i * 0.5, 2) if i % 7 else None)
            for i in range(nrows)]
    write_csv(path, ["id", "age", "score"], rows)
    db = ViDa(batch_size=batch_size)
    db.register_csv("T", str(path), columns=["id", "age", "score"],
                    types=["int", "int", "float"])
    return db, rows


@pytest.mark.parametrize("nrows", [0, 1, BATCH - 1, BATCH, BATCH + 1,
                                   3 * BATCH + 2])
def test_csv_boundary_counts_agree(tmp_path, nrows):
    db, rows = _csv_db(tmp_path, nrows)
    queries = [
        ("for { t <- T } yield count 1", len(rows)),
        ("for { t <- T, t.age > 40 } yield count 1",
         sum(1 for r in rows if r[1] > 40)),
        ("for { t <- T } yield sum t.id", sum(r[0] for r in rows) if rows else 0),
    ]
    for q, expected in queries:
        jit = db.query(q).value
        static = db.query(q, engine="static").value
        assert jit == static == expected, q


@pytest.mark.parametrize("nrows", [1, BATCH, BATCH + 1])
def test_csv_boundary_bag_and_warm_path_agree(tmp_path, nrows):
    db, rows = _csv_db(tmp_path, nrows)
    q = "for { t <- T } yield bag (id := t.id, s := t.score)"
    cold = db.query(q, engine="static").value  # cold: builds the posmap
    db.cache.clear()
    warm = db.query(q).value                   # warm: map-navigated chunks
    db.cache.clear()
    warm_static = db.query(q, engine="static").value
    expected = [{"id": r[0], "s": r[2]} for r in rows]
    assert cold == warm == warm_static == expected


def test_json_and_multiformat_chunk_boundaries(tmp_path):
    path = tmp_path / "events.json"
    n = 2 * BATCH + 3
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": i, "kind": ["a", "b"][i % 2],
                                 "nested": {"v": i * 2}}) + "\n")
    db = ViDa(batch_size=BATCH)
    db.register_json("E", str(path))
    q = 'for { e <- E, e.kind = "a" } yield sum e.nested.v'
    expected = sum(i * 2 for i in range(n) if i % 2 == 0)
    assert db.query(q).value == expected
    assert db.query(q, engine="static").value == expected
    # whole-object binding through chunks
    q2 = "for { e <- E } yield bag e.id"
    assert sorted(db.query(q2).value) == list(range(n))


def test_array_and_xls_chunked_scans_agree(tmp_path):
    from repro.formats import write_array, write_workbook

    apath = tmp_path / "g.varr"
    write_array(apath, (5, 3), [("v", "float")],
                [(float(i * 3 + j),) for i in range(5) for j in range(3)])
    xpath = tmp_path / "b.vxls"
    write_workbook(xpath, [("s", ["id", "amt"],
                            [(i, i * 1.5) for i in range(BATCH + 2)])])
    db = ViDa(batch_size=BATCH)
    db.register_array("G", str(apath), ["i", "j"])
    db.register_xls("B", str(xpath), "s")
    for q in ("for { g <- G, g.i > 1 } yield sum g.v",
              "for { b <- B } yield sum b.amt",
              "for { b <- B, b.id >= 4 } yield count 1"):
        assert db.query(q).value == db.query(q, engine="static").value, q


# -- cache admission: row path vs batch path ---------------------------------


def test_put_columns_equivalent_to_put(tmp_path):
    row_cache = DataCache()
    col_cache = DataCache()
    fields = ("a", "b")
    cols = ([1, 2, 3], ["x", "y", None])
    row_cache.put("S", "columns", fields, list(zip(*cols)))
    col_cache.put_columns("S", fields, cols)
    re = row_cache.lookup("S", ["a", "b"])
    ce = col_cache.lookup("S", ["a", "b"])
    assert re is not None and ce is not None
    assert list(re.cached.iter_rows(fields)) == list(ce.cached.iter_rows(fields))
    assert re.cached.count == ce.cached.count == 3
    assert ce.cached.fields == fields


def test_put_columns_merges_with_existing_entries():
    cache = DataCache()
    cache.put_columns("S", ("a",), ([1, 2],))
    cache.put_columns("S", ("b",), ([10, 20],))
    entry = cache.lookup("S", ["a", "b"])
    assert entry is not None, "aligned columnar entries must merge"
    assert list(entry.cached.iter_rows(("a", "b"))) == [(1, 10), (2, 20)]


def test_put_columns_rejects_ragged():
    from repro.errors import ViDaError

    with pytest.raises(ViDaError):
        DataCache().put_columns("S", ("a", "b"), ([1], [1, 2]))


def test_chunked_scan_populates_cache_like_row_path(tmp_path):
    db, rows = _csv_db(tmp_path, 3 * BATCH + 1)
    q = "for { t <- T, t.age > 30 } yield avg t.score"
    first = db.query(q)
    assert not first.stats.cache_only
    entry = db.cache.lookup("T", ["age", "score"])
    assert entry is not None
    assert entry.cached.count == len(rows)  # populate sees *all* rows
    assert entry.cached.data["age"] == [r[1] for r in rows]
    second = db.query(q)
    assert second.stats.cache_only
    assert second.value == pytest.approx(first.value)
    # the static engine admits the same columns through its chunk protocol
    db2, _ = _csv_db(tmp_path, 3 * BATCH + 1, batch_size=BATCH + 1)
    db2.query(q, engine="static")
    e2 = db2.cache.lookup("T", ["age", "score"])
    assert e2 is not None
    assert e2.cached.data["age"] == entry.cached.data["age"]


def test_cache_hit_served_as_zero_copy_chunk(tmp_path):
    db, rows = _csv_db(tmp_path, BATCH * 2)
    db.query("for { t <- T } yield sum t.age")
    from repro.core.executor.runtime import QueryRuntime
    from repro.core.physical import PhysScan

    rt = QueryRuntime(db.catalog, db.cache)
    (chunk,) = rt.scan(PhysScan("T", "t", "csv", ("age",), "cache"))
    entry = db.cache.lookup("T", ["age"])
    assert chunk.columns[0] is entry.cached.data["age"]  # zero copy


# -- planner decision + EXPLAIN ----------------------------------------------


def test_explain_reports_batch_size(db):
    text = db.explain("for { p <- Patients, p.age > 40 } yield count 1")
    assert "batch=" in text
    assert "batch[" in text  # decisions summary


def test_session_batch_size_override(tmp_path):
    db, _rows = _csv_db(tmp_path, 4, batch_size=2)
    r = db.query("for { t <- T } yield count 1")
    assert r.value == 4
    assert r.decisions.batch == {"t": 2}
    assert "batch=2" in r.plan_text


def test_generated_code_uses_chunk_calls(db):
    r = db.query("for { p <- Patients, p.age > 40 } yield avg p.protein")
    assert "access=cold" in r.plan_text
    warm = db.query("for { p <- Patients, p.age > 40 } yield avg p.protein")
    assert "access=cache" in warm.plan_text
    assert warm.stats.cache_only
    # one runtime scan call per scan, whatever the access path; no
    # population code in the generated function
    for code in (r.code, warm.code):
        assert code.count("_rt.scan(") == 1
        assert "admit_" not in code and "_pop_" not in code


def test_default_batch_size_is_sane():
    assert 0 < DEFAULT_BATCH_SIZE <= MAX_BATCH_SIZE


# -- satellite: JIT compile-cache LRU ---------------------------------------


def _plan_for(db, text):
    from repro.core.optimizer.planner import Planner
    from repro.mcc import normalize, parse, translate

    algebra = translate(normalize(parse(text)), db.catalog.names())
    plan, _ = Planner(db.catalog, db.cache).plan(algebra)
    return plan


def test_jit_cache_true_lru(db):
    ex = JITExecutor(db.catalog, max_cached=2)
    pa = _plan_for(db, "for { p <- Patients } yield count 1")
    pb = _plan_for(db, "for { g <- Genetics } yield count 1")
    pc = _plan_for(db, "for { p <- Patients } yield sum p.age")
    ex.compile(pa)
    ex.compile(pb)
    ex.compile(pa)  # hit: must move A to most-recently-used
    ex.compile(pc)  # evicts B (the LRU), not A
    assert ex.stats.evictions == 1
    hits = ex.stats.cache_hits
    ex.compile(pa)
    assert ex.stats.cache_hits == hits + 1, "hot key must survive eviction"
    ex.compile(pb)  # recompiles: B was evicted
    assert ex.stats.compilations == 4


# -- satellite: SQL LIMIT applied before output shaping ----------------------


def test_sql_limit_applies_to_all_output_shapes(db):
    base = "SELECT id, age FROM Patients LIMIT 3"
    rows = db.sql(base).value
    assert len(rows) == 3
    cols = db.sql(base, output="columns").value
    assert len(cols["id"]) == 3 and len(cols["age"]) == 3
    jl = db.sql(base, output="json").value
    assert len(jl.splitlines()) == 3
    bs = db.sql(base, output="bson").value
    assert len(bs) == 3
    tuples = db.sql(base, output="tuples").value
    assert len(tuples) == 3


# -- satellite: one canonical NULL_TOKENS definition -------------------------


def test_null_tokens_single_definition():
    from repro.core.executor import runtime
    from repro.formats import descriptions
    from repro.formats.csvfmt import plugin as csvplugin

    assert runtime.NULL_TOKENS is descriptions.NULL_TOKENS
    assert csvplugin._NULL_TOKENS is descriptions.NULL_TOKENS
    from repro.formats.csvfmt import CSVOptions

    assert CSVOptions().null_tokens is descriptions.NULL_TOKENS
