"""Selection-vector filters end-to-end + vectorized hash-join kernels.

Contracts under test:

- rows a cleaning policy dropped never reach a consumer (chunks arrive
  dense, on both engines, at every DoP);
- ``Chunk.from_rows`` rejects ragged input instead of silently truncating;
- both engines evaluate pushed-down predicates as selection kernels
  (``filter=vec`` in EXPLAIN; warm CSV gets ``filter=vec+push`` late
  materialization) with answers identical to the static interpreter's and
  to a plain-Python evaluation of the same files, at every DoP;
- vectorized hash-join build/probe returns exactly those answers too;
- a satisfied SQL LIMIT under ``ViDa(parallelism=N)`` cancels pending
  morsels (observable via ``stats.morsels_cancelled``) without changing
  the returned rows, and suppresses partial cache admissions.

Parallel sessions here run their morsels inline (``inline_morsels``): the
worker processes' kernel-spec path, without spawning any.
"""

from __future__ import annotations

import csv
import math
import random

import pytest

from repro import ViDa
from repro.cleaning import SkipPolicy
from repro.core.chunk import Chunk, Morsel
from repro.core.executor.scheduler import ProcessMorselScheduler

ENGINES = ("jit", "static")

pytestmark = pytest.mark.usefixtures("inline_morsels")


# ---------------------------------------------------------------------------
# Chunk protocol bug fixes
# ---------------------------------------------------------------------------


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        Chunk.from_rows(("a", "b"), [(1, 2), (3,)])
    with pytest.raises(ValueError, match="ragged"):
        Chunk.from_rows(("a", "b"), [(1, 2), (3, 4, 5)])
    # aligned rows still round-trip
    assert Chunk.from_rows(("a", "b"), [(1, 2), (3, 4)]).rows() == \
        [(1, 2), (3, 4)]


# ---------------------------------------------------------------------------
# fixtures: selective CSVs, one dirty (cleaning drops rows mid-file)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sel_dir(tmp_path_factory):
    rng = random.Random(99)
    d = tmp_path_factory.mktemp("selfilters")
    with open(d / "t.csv", "w") as fh:
        fh.write("id,age,score\n")
        for i in range(8000):
            fh.write(f"{i},{20 + (i * 7) % 80},{round(rng.random(), 4)}\n")
    with open(d / "u.csv", "w") as fh:
        fh.write("id,val\n")
        for i in range(0, 8000, 3):
            fh.write(f"{i},{rng.randint(0, 100)}\n")
    # dirty rows appear only after the schema-inference sample window
    with open(d / "dirty.csv", "w") as fh:
        fh.write("id,age\n")
        for i in range(6000):
            age = "bad" if 200 <= i < 230 or i % 997 == 0 else 20 + i % 60
            fh.write(f"{i},{age}\n")
    return d


def _session(d, *, dop=1, cache=False, clean=False):
    # filter-kernel behaviour on full scans is the subject throughout this
    # file; value indexes would bypass the scans under test on warm repeats
    db = ViDa(parallelism=dop, enable_cache=cache, enable_indexes=False)
    db.register_csv("T", str(d / "t.csv"))
    db.register_csv("U", str(d / "u.csv"))
    db.register_csv("Dirty", str(d / "dirty.csv"),
                    columns=["id", "age"], types=["int", "int"])
    if clean:
        db.set_cleaning("Dirty", SkipPolicy())
    return db


#: (query, the same thing in plain Python over the files' rows)
ORACLES = [
    # selective filter, bag output (row-loop consumer)
    ('for { t <- T, t.age > 92 } yield bag (id := t.id, s := t.score)',
     lambda T, U: [{"id": t["id"], "s": t["score"]}
                   for t in T if t["age"] > 92]),
    # selective filter + set monoid (never a fused fold — row consumer)
    ('for { t <- T, t.age > 92 } yield set t.age',
     lambda T, U: {t["age"] for t in T if t["age"] > 92}),
    # filter + vectorized hash join, fused sum over survivors
    ('for { t <- T, u <- U, t.id = u.id, t.age > 92 } yield sum u.val',
     lambda T, U: sum(u["val"] for t in T if t["age"] > 92
                      for u in U if u["id"] == t["id"])),
    # join with no scan filter: pure build/probe vectorization
    ('for { t <- T, u <- U, t.id = u.id } yield count 1',
     lambda T, U: len({t["id"] for t in T} & {u["id"] for u in U})),
    # empty selection on every chunk: predicate matches nothing
    ('for { t <- T, t.age > 1000 } yield bag t.id',
     lambda T, U: []),
]
QUERIES = [q for q, _ in ORACLES]


def _rows(path, **types):
    with open(path, newline="") as fh:
        return [{k: types[k](v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _same(value, expected):
    if isinstance(expected, set):
        return set(value) == expected and len(value) == len(expected)
    return value == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_vectorized_filters_and_joins_match_oracle(sel_dir, engine):
    """cold/warm × both engines: the plain-Python answer, every time."""
    T = _rows(sel_dir / "t.csv", id=int, age=int, score=float)
    U = _rows(sel_dir / "u.csv", id=int, val=int)
    db = _session(sel_dir)
    for q, oracle in ORACLES:
        expected = oracle(T, U)
        # first run cold, second run warm (posmap)
        assert _same(db.query(q, engine=engine).value, expected), q
        assert _same(db.query(q, engine=engine).value, expected), q
    db.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dop", (2, 4))
def test_selection_filters_parallel_differential(sel_dir, engine, dop):
    serial = _session(sel_dir)
    par = _session(sel_dir, dop=dop)
    for q in QUERIES:
        if "sum u.val" in q:  # int sums: still exact
            pass
        s = serial.query(q, engine=engine).value
        p = par.query(q, engine=engine).value
        assert p == s, q


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dop", (1, 2, 4))
def test_cleaning_selection_chunks_never_leak_dropped_rows(sel_dir, engine, dop):
    """Selection-carrying chunks (cleaning drops) through both engines."""
    db = _session(sel_dir, dop=dop, clean=True)
    dropped = [i for i in range(6000) if 200 <= i < 230 or i % 997 == 0]
    expected = 6000 - len(dropped)
    # any scan extracting the dirty column sees only the survivors
    n = db.query('for { d <- Dirty, d.age >= 0 } yield count 1',
                 engine=engine).value
    assert n == expected
    ids = db.query('for { d <- Dirty, d.age >= 0 } yield bag d.id',
                   engine=engine).value
    assert len(ids) == expected
    assert 205 not in ids and 0 not in ids  # i=0: 0 % 997 == 0 → dropped
    # join through a cleaning-selection source: dropped build rows never
    # reach the hash table / probe kernels
    q = ('for { d <- Dirty, u <- U, d.id = u.id, d.age >= 0 } '
         'yield count 1')
    j = db.query(q, engine=engine).value
    ref = _session(sel_dir, clean=True)
    assert j == ref.query(q, engine="static").value
    assert j == len([i for i in range(0, 6000, 3) if i not in set(dropped)])


def test_cleaning_source_is_never_selection_pushed(sel_dir):
    """The predicate must see repaired values → filters stay in-engine."""
    db = _session(sel_dir, clean=True)
    db.query('for { d <- Dirty } yield count 1')  # build posmap
    text = db.explain('for { d <- Dirty, d.age > 30 } yield count 1')
    assert "filter=vec" in text
    assert "filter=vec+push" not in text


def test_explain_shows_filter_kinds(sel_dir):
    db = _session(sel_dir)
    cold = db.explain('for { t <- T, t.age > 92 } yield count 1')
    assert "filter=vec" in cold
    db.query('for { t <- T } yield count 1')  # complete the posmap
    warm = db.explain('for { t <- T, t.age > 92 } yield count 1')
    assert "filter=vec+push" in warm
    # decisions record the choice too
    r = db.query('for { t <- T, t.age > 92 } yield count 1')
    assert r.decisions.filters == {"t": "vec+push"}
    # memory scans stay row-at-a-time
    db.register_memory("M", [{"x": 1}, {"x": 5}])
    assert "filter=row" in db.explain('for { m <- M, m.x > 2 } yield count 1')


def test_selection_pushdown_preserves_stats_and_values(sel_dir):
    """Late materialization: same answers, same raw-row accounting."""
    q, oracle = ORACLES[0]
    T = _rows(sel_dir / "t.csv", id=int, age=int, score=float)
    db = _session(sel_dir)
    db.query(q)  # cold pass builds the positional map
    pushed, static = db.query(q), db.query(q, engine="static")
    assert pushed.value == static.value == oracle(T, None)
    # rows the pushed-down kernel dropped were still scanned
    assert pushed.stats.raw_rows == static.stats.raw_rows == len(T)
    assert "pred_kernel" in pushed.code
    db.close()


def test_empty_selection_short_circuits_generated_code(sel_dir):
    db = _session(sel_dir)
    r = db.query('for { t <- T, u <- U, t.id = u.id, t.age > 1000 } '
                 'yield bag u.val')
    assert r.value == []
    # the probe kernel short-circuits on an empty matched-selection vector
    assert "if not " in r.code and "continue" in r.code


def test_vectorized_join_codegen_shape(sel_dir):
    db = _session(sel_dir)
    r = db.query('for { t <- T, u <- U, t.id = u.id, t.age > 92 } '
                 'yield sum u.val')
    code = r.code
    # build side: fused key+row kernel feeding the bulk insert loop
    assert "].get\n" in code or ".get" in code
    # probe side: matched-selection vector over batched key lookups
    assert "[_i for _i, _k in enumerate(" in code
    # root fold fused over the surviving rows
    assert "_acc += sum(" in code


# ---------------------------------------------------------------------------
# parallel LIMIT early termination
# ---------------------------------------------------------------------------


def test_parallel_limit_rows_identical_and_morsels_cancelled(sel_dir):
    serial = _session(sel_dir)
    s = serial.sql("SELECT id FROM T WHERE age > 25 LIMIT 40")
    par = _session(sel_dir, dop=4)
    p = par.sql("SELECT id FROM T WHERE age > 25 LIMIT 40")
    assert p.value == s.value
    assert len(p.value) == 40
    # early-stop observability: pending morsels were cancelled, and the
    # scan stopped before reading the whole file
    assert p.stats.morsels_cancelled > 0
    assert p.stats.raw_rows < s.stats.raw_rows
    # unsatisfied limits still return everything and cancel nothing
    p2 = par.sql("SELECT id FROM T WHERE age > 1000 LIMIT 5")
    s2 = serial.sql("SELECT id FROM T WHERE age > 1000 LIMIT 5")
    assert p2.value == s2.value == []


@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_limit_both_engines(sel_dir, engine):
    serial = _session(sel_dir)
    par = _session(sel_dir, dop=2)
    for q, lim in (("SELECT id, score FROM T LIMIT 17", 17),
                   ("SELECT id FROM T WHERE age > 40 LIMIT 100", 100)):
        s = serial.sql(q, engine=engine)
        p = par.sql(q, engine=engine)
        assert p.value == s.value
        assert len(p.value) == lim


def test_truncated_scan_never_admits_partial_columns(sel_dir):
    """A LIMIT-cut scan saw a prefix — its columns must not enter the cache
    as if complete."""
    db = _session(sel_dir, dop=4, cache=True)
    p = db.sql("SELECT id FROM T LIMIT 10")
    assert len(p.value) == 10
    if p.stats.morsels_cancelled:
        # the next query must not believe the cache covers T.id
        r = db.query("for { t <- T } yield count 1")
        assert r.stats.raw_rows > 0
        assert not r.stats.cache_only


def test_scheduler_stop_predicate_returns_ordered_prefix(executor_pool):
    morsels = [Morsel("rows", i, i + 1) for i in range(10)]
    sched = ProcessMorselScheduler(2, executor_pool)
    seen = []

    def stop(partial):
        seen.append(partial)
        return len(seen) >= 3

    out = sched.map(lambda m: m.lo, morsels, stop=stop)
    assert out == [0, 1, 2]
    # inline path (dop=1) stops too and counts the remainder
    sched1 = ProcessMorselScheduler(1, executor_pool)
    out1 = sched1.map(lambda m: m.lo, morsels,
                      stop=lambda p: p >= 4)
    assert out1 == [0, 1, 2, 3, 4]
    assert sched1.cancelled == 5


def test_limit_oversplit_only_when_countable(sel_dir):
    """Scalar folds ignore LIMIT → no oversplit, no early stop."""
    par = _session(sel_dir, dop=2)
    serial = _session(sel_dir)
    s = serial.sql("SELECT SUM(score) FROM T WHERE age > 40")
    p = par.sql("SELECT SUM(score) FROM T WHERE age > 40")
    assert math.isclose(p.value, s.value, rel_tol=1e-9)
    assert p.stats.morsels_cancelled == 0
    assert p.stats.raw_rows == s.stats.raw_rows


# ---------------------------------------------------------------------------
# warehouse adapter rides the same contract
# ---------------------------------------------------------------------------


def test_colstore_adapter_streams_uncompacted_chunks():
    from repro.warehouse.colstore import ColStore
    from repro.warehouse.query import ColStoreAdapter, Filter

    store = ColStore()
    store.create_table("P", ["id", "age"], ["int", "int"])
    store.insert_rows("P", [(i, 20 + i % 10) for i in range(30)])
    adapter = ColStoreAdapter(store, "P")
    out = list(adapter.fetch_filtered(["id"], [Filter("age", ">=", 28)]))
    assert out == [{"id": i} for i in range(30) if 20 + i % 10 >= 28]
