"""Literals are parameters of the generated code.

One compiled function serves every literal of a plan shape, so everything
it reads from a plan — literal values, the scan nodes carrying index probe
values, DBMS lookups, monoids — must come from the plan being run, never
from the plan first compiled for that shape. Checked here:

- differential: the ``warm_adhoc`` templates plus LIKE, string-equality
  and negative-literal queries, 20 literals each, over {MCC, SQL} × {jit,
  static, auto} × {serial, process DoP 2}, each answer
  against a fresh session that has compiled nothing before; and the JIT
  compiles no more functions than there are (shape, access path) pairs;
- ``1`` / ``1.0`` / ``true`` / ``"1"`` never share a slot type, IN lists
  of different lengths never share a shape;
- the hazard: a second literal on a ``cache+index`` or ``index`` path
  whose matches the first literal's candidates miss;
- four threads running one compiled function with different literals.
"""

import json
import random
import re
import sys
import threading

import pytest

from repro import ViDa
from repro.core.executor.runtime import QueryRuntime
from repro.core.optimizer import cost as C
from repro.core.physical import plan_shape

ROWS = 600
DIMS = 40
CITIES = ["geneva", "lausanne", "zurich", "bern", "basel"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    rng = random.Random(11)
    d = tmp_path_factory.mktemp("literals")
    csv, js = d / "t.csv", d / "d.json"
    with open(csv, "w") as fh:
        fh.write("id,a,b,fk,city,n\n")
        for i in range(ROWS):
            fh.write(f"{i},{rng.randrange(1000)},{rng.randrange(100)},"
                     f"{rng.randrange(DIMS)},{rng.choice(CITIES)},"
                     f"{rng.randrange(-50, 51)}\n")
    with open(js, "w") as fh:
        for k in range(DIMS):
            fh.write(json.dumps({"k": k, "w": rng.randrange(100)}) + "\n")
    return str(csv), str(js)


def open_session(files, **knobs) -> ViDa:
    db = ViDa(**knobs)
    db.register_csv("T", files[0])
    db.register_json("D", files[1])
    return db


def _range(rng):
    lo = rng.randrange(900)
    return lo, lo + rng.randrange(1, 100)


#: template → (MCC text, SQL text, literal drawer)
TEMPLATES = {
    "fold": ("for {{ t <- T, t.a >= {0} }} yield sum t.b",
             "SELECT SUM(b) AS s FROM T WHERE a >= {0}",
             lambda rng: (rng.randrange(1000),)),
    "point": ("for {{ t <- T, t.id = {0} }} yield bag (a := t.a, b := t.b)",
              "SELECT a, b FROM T WHERE id = {0}",
              lambda rng: (rng.randrange(ROWS + 20),)),
    "range": ("for {{ t <- T, t.a >= {0}, t.a < {1} }} yield count 1",
              "SELECT COUNT(*) AS c FROM T WHERE a >= {0} AND a < {1}",
              _range),
    "in": ("for {{ t <- T, t.id in [{0}, {1}, {2}] }} yield sum t.b",
           "SELECT SUM(b) AS s FROM T WHERE id IN ({0}, {1}, {2})",
           lambda rng: tuple(rng.sample(range(ROWS + 20), 3))),
    "join": ("for {{ t <- T, d <- D, t.fk = d.k, t.a >= {0} }} yield sum d.w",
             "SELECT SUM(d.w) AS s FROM T t JOIN D d ON t.fk = d.k "
             "WHERE t.a >= {0}",
             lambda rng: (rng.randrange(1000),)),
    "like": ('for {{ t <- T, t.city like "{0}" }} yield count 1',
             "SELECT COUNT(*) AS c FROM T WHERE city LIKE '{0}'",
             lambda rng: (rng.choice(["g%", "%n", "%ur%", "b_s%", "%e%",
                                      "z%h", "%", "x%"]),)),
    "str_eq": ('for {{ t <- T, t.city = "{0}" }} yield sum t.b',
               "SELECT SUM(b) AS s FROM T WHERE city = '{0}'",
               lambda rng: (rng.choice(CITIES + ["oslo"]),)),
    "negative": ("for {{ t <- T, t.n > -{0} }} yield count 1",
                 "SELECT COUNT(*) AS c FROM T WHERE n > -{0}",
                 lambda rng: (rng.randrange(60),)),
}

LITERALS = 20

CONFIGS = {
    "serial": {},
    # cache scans run serial: without a cache every query re-reads the
    # file, so the raw scans are the ones that fan out to processes
    "process2": {"parallelism": 2, "backend": "process",
                 "enable_cache": False},
}


@pytest.fixture(scope="module")
def references(files):
    """The answer of a fresh session — nothing compiled, nothing cached —
    per (dialect, text), computed once."""
    memo: dict = {}

    def answer(dialect: str, text: str):
        if (dialect, text) not in memo:
            db = open_session(files)
            try:
                run = db.sql if dialect == "sql" else db.query
                memo[dialect, text] = run(text).value
            finally:
                db.close()
        return memo[dialect, text]

    return answer


def _access(plan_text: str) -> tuple:
    return tuple(re.findall(
        r"access=[^,)]+|populate=\[[^\]]*\]|parallel=[^,)]+", plan_text))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_literal_answers_like_a_fresh_session(files, references,
                                                    monkeypatch, config):
    # shard whatever can shard, however small the scan
    monkeypatch.setattr(C, "MORSEL_SETUP_COST", 1e-3)
    monkeypatch.setattr(C, "PROCESS_SPAWN_COST", 0.0)
    monkeypatch.setattr(C, "PROCESS_MORSEL_IPC_COST", 1e-3)
    rng = random.Random(config)
    db = open_session(files, **CONFIGS[config])
    pairs, parallel = set(), []
    try:
        for name, (mcc, sql, draw) in TEMPLATES.items():
            for _ in range(LITERALS):
                lits = draw(rng)
                for dialect, text in (("mcc", mcc.format(*lits)),
                                      ("sql", sql.format(*lits))):
                    want = references(dialect, text)
                    for engine in ("jit", "static", "auto"):
                        run = db.sql if dialect == "sql" else db.query
                        got = run(text, engine=engine)
                        assert got.value == want, (config, text, engine)
                        parallel.append(got.plan_text)
                        if got.stats.engine == "jit":
                            pairs.add((name, dialect,
                                       _access(got.plan_text)))
        assert db._jit.stats.compilations <= len(pairs)
        assert db._jit.stats.evictions == 0
    finally:
        db.close()
    if config != "serial":
        assert any("parallel=2" in text for text in parallel)


def _shape_key(db, text: str) -> str:
    (slot,) = db.engine_context.prepared(("mcc", text)).plans.values()
    return slot[4].key  # (epoch, plan, decisions, plan text, shape)


def test_twin_literals_never_share_a_slot_type(files):
    """``1 == 1.0 == True`` in Python, so only a value's type tells the
    twins apart: a shared slot would hand one twin's value to another."""
    db = open_session(files)
    texts = [f"for {{ t <- T, t.id < 3 }} yield bag (v := {lit}, id := t.id)"
             for lit in ("1", "1.0", "true", '"1"')]

    def typed(value):
        return [(type(r["v"]), r["v"], r["id"]) for r in value]

    try:
        for order in (texts, texts[::-1], texts):
            for text in order:
                fresh = open_session(files)
                try:
                    assert typed(db.query(text).value) \
                        == typed(fresh.query(text).value)
                finally:
                    fresh.close()
        keys = [_shape_key(db, text) for text in texts]
        assert len(set(keys)) == 4
        heads = [re.search(r"v := ([^,]+),", k).group(1) for k in keys]
        assert [h.rstrip("0123456789") for h in heads] \
            == ["?int", "?float", "true", "?str"]
    finally:
        db.close()


def test_in_lists_of_different_lengths_get_different_shapes(files):
    db = open_session(files)
    try:
        texts = [f"for {{ t <- T, t.id in [{ids}] }} yield sum t.b"
                 for ids in ("1, 2", "4, 5", "1, 2, 3")]
        for _ in range(2):
            values = [db.query(text).value for text in texts]
        keys = [_shape_key(db, text) for text in texts]
        assert keys[0] == keys[1] != keys[2]
        assert values[2] - values[0] == db.query(
            "for { t <- T, t.id = 3 } yield sum t.b").value
    finally:
        db.close()


@pytest.mark.parametrize("cached", [True, False])
def test_second_literal_probes_with_its_own_values(files, cached):
    """Point lookups of two ids on one compiled function: the first id's
    candidates do not contain the second's row, so running the first
    plan's scan node would answer the second with nothing."""
    db = open_session(files, enable_cache=cached)
    q = "for {{ t <- T, t.id = {} }} yield bag (id := t.id, a := t.a)"
    path = "access=cache+index[id]" if cached else "access=index[id]"
    try:
        for _ in range(3):  # posmap, index on id (and the cached column)
            db.query(q.format(0))
        compilations = db._jit.stats.compilations
        first, second = db.query(q.format(5)), db.query(q.format(7))
        assert path in first.plan_text and path in second.plan_text
        assert first.code == second.code
        assert db._jit.stats.compilations == compilations
        assert second.stats.index_hits == 1
        assert [r["id"] for r in first.value] == [5]
        assert [r["id"] for r in second.value] == [7]
    finally:
        db.close()


def test_four_threads_share_one_compiled_function(files):
    db = open_session(files)
    texts = [f"for {{ t <- T, t.a >= {x} }} yield sum t.b"
             for x in (100, 300, 500, 700)]
    try:
        for _ in range(3):
            expected = [db.query(text).value for text in texts]
        shapes = []
        for text in texts:
            (slot,) = db.engine_context.prepared(("mcc", text)).plans.values()
            shapes.append(slot[4])
        assert len({shape.key for shape in shapes}) == 1
        compiled = db._jit.compile(shapes[0].plan, shapes[0])
        barrier = threading.Barrier(4)
        results: list = [[] for _ in shapes]

        def run(i):
            barrier.wait()
            for _ in range(40):
                rt = QueryRuntime(db.catalog, db.cache, indexes=True,
                                  engine=db.engine_context)
                results[i].append(compiled(rt, shapes[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-kernel often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [set(r) for r in results] == [{e} for e in expected]
        assert len(set(expected)) == 4
    finally:
        db.close()


def test_plan_shape_renders_slots_not_values(files):
    db = open_session(files)
    try:
        db.query("for { t <- T, t.a >= 17 } yield sum t.b")
        text = "for { t <- T, t.a >= 42 } yield sum t.b"
        db.query(text)
        (slot,) = db.engine_context.prepared(("mcc", text)).plans.values()
        plan, shape = slot[1], slot[4]
        assert shape == plan_shape(plan)
        assert "42" not in shape.key and "?int" in shape.key
        assert "est_rows" not in shape.key
        assert 42 in shape.params
    finally:
        db.close()
