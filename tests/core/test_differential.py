"""Differential testing: JIT-generated code vs the interpreted static engine.

The two executors implement the same physical plans with completely
different mechanisms; random conjunctive queries must agree. This is the
strongest correctness check in the suite.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ViDa
from repro.formats import write_csv


@pytest.fixture(scope="module")
def diffdb(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("diff")
    import json
    import random

    rng = random.Random(7)
    p = tmp / "people.csv"
    write_csv(p, ["id", "age", "grp", "score"], [
        (i, rng.randint(18, 80), rng.choice("abc"),
         None if i % 17 == 0 else round(rng.uniform(0, 100), 2))
        for i in range(120)
    ])
    e = tmp / "events.json"
    with open(e, "w") as fh:
        for i in range(120):
            fh.write(json.dumps({
                "id": i,
                "kind": rng.choice(["scan", "visit"]),
                "score": round(rng.uniform(0, 10), 2),
                "tags": [{"t": rng.randint(0, 5)} for _ in range(rng.randint(0, 3))],
            }) + "\n")
    db = ViDa()
    db.register_csv("People", str(p))
    db.register_json("Events", str(e))
    return db


_AGG = st.sampled_from(["count 1", "sum p.age", "avg p.age", "max p.score",
                        "min p.age", "bag (id := p.id)", "set p.grp"])
_CMP = st.sampled_from([">", ">=", "<", "<=", "="])


@given(
    agg=_AGG,
    age_op=_CMP,
    age_val=st.integers(15, 85),
    use_grp=st.booleans(),
    grp=st.sampled_from("abc"),
    join=st.booleans(),
    kind=st.sampled_from(["scan", "visit"]),
)
@settings(max_examples=40, deadline=None)
def test_random_queries_agree(diffdb, agg, age_op, age_val, use_grp, grp,
                              join, kind):
    quals = [f"p.age {age_op} {age_val}"]
    gens = ["p <- People"]
    if use_grp:
        quals.append(f'p.grp = "{grp}"')
    if join:
        gens.append("e <- Events")
        quals.append("p.id = e.id")
        quals.append(f'e.kind = "{kind}"')
    q = f"for {{ {', '.join(gens + quals)} }} yield {agg}"
    jit = diffdb.query(q).value
    static = diffdb.query(q, engine="static").value
    if isinstance(jit, float):
        assert static == pytest.approx(jit)
    elif isinstance(jit, list):
        canon = lambda rows: sorted(map(repr, rows))
        assert canon(jit) == canon(static)
    else:
        assert jit == static


@given(
    vol=st.floats(min_value=0, max_value=10, allow_nan=False),
    tag=st.integers(0, 5),
)
@settings(max_examples=20, deadline=None)
def test_unnest_queries_agree(diffdb, vol, tag):
    q = (
        f"for {{ e <- Events, t <- e.tags, e.score > {round(vol, 2)}, "
        f"t.t = {tag} }} yield count 1"
    )
    assert diffdb.query(q).value == diffdb.query(q, engine="static").value


@given(limit=st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_nested_head_comprehension_agree(diffdb, limit):
    q = (
        f"for {{ p <- People, p.id < {limit} }} yield bag "
        "(id := p.id, n := for { e <- Events, e.id = p.id } yield count 1)"
    )
    jit = diffdb.query(q).value
    static = diffdb.query(q, engine="static").value
    assert sorted(map(repr, jit)) == sorted(map(repr, static))


NAN_ROWS = 20000
NAN_AT = {"first": 0, "middle": NAN_ROWS // 2, "last": NAN_ROWS - 1}


@pytest.fixture(scope="module")
def nan_files(tmp_path_factory):
    """One CSV per NaN position. Rows 1 and 2 hold the column's extremes
    (and wide padding lets the planner shard the scan, on processes too):
    a NaN ahead of them makes the strict max/min rule answer NaN; after
    them it never displaces the accumulator, wherever a chunk or morsel
    boundary falls."""
    tmp = tmp_path_factory.mktemp("nan")
    paths = {}
    for where, at in NAN_AT.items():
        path = tmp / f"nan_{where}.csv"
        with open(path, "w") as fh:
            fh.write("id,a,pad\n")
            for i in range(NAN_ROWS):
                a = {1: 1000.0, 2: -1000.0}.get(i, i % 100 + 0.5)
                fh.write(f"{i},{'nan' if i == at else a},{'x' * 64}\n")
        paths[where] = str(path)
    return paths


@pytest.mark.parametrize("config", ["process", "serial"])
@pytest.mark.parametrize("where", list(NAN_AT))
def test_max_min_agree_on_nan(nan_files, where, config):
    """max/min replace the accumulator only on a strictly better value, on
    both engines at every DoP and backend (the monoid merge used to let a
    NaN displace it, so the engines disagreed)."""
    db = ViDa() if config == "serial" else \
        ViDa(parallelism=2, backend=config)
    cases = [(mono, engine) for mono in ("max", "min")
             for engine in ("jit", "static")]
    try:
        # one registration per query, so every query scans the file cold
        for i, _case in enumerate(cases):
            db.register_csv(f"T{i}", nan_files[where])
        for i, (mono, engine) in enumerate(cases):
            r = db.query(f"for {{ t <- T{i} }} yield {mono} t.a",
                         engine=engine)
            if where == "first":
                assert math.isnan(r.value), (mono, engine)
            else:
                assert r.value == (1000.0 if mono == "max" else -1000.0), \
                    (mono, engine, r.value)
            if config != "serial":
                assert r.decisions.parallel.get("t") == 2, \
                    r.decisions.summary()
    finally:
        db.close()


def test_reference_semantics_against_python(diffdb):
    """Spot-check against a hand-written Python reference."""
    rows = list(diffdb.query("for { p <- People } yield bag "
                             "(id := p.id, age := p.age, grp := p.grp, "
                             "score := p.score)").value)
    expected = sum(r["age"] for r in rows if r["grp"] == "a" and r["age"] > 40)
    got = diffdb.query(
        'for { p <- People, p.grp = "a", p.age > 40 } yield sum p.age'
    ).value
    assert got == expected

    scores = [r["score"] for r in rows if r["score"] is not None]
    assert diffdb.query("for { p <- People } yield max p.score").value == \
        pytest.approx(max(scores))
    # avg skips nulls, SQL-style
    assert diffdb.query("for { p <- People } yield avg p.score").value == \
        pytest.approx(sum(scores) / len(scores))
