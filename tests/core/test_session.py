"""ViDa session end-to-end tests over raw files."""

import os

import pytest

from repro import TypeCheckError, ViDa
from repro.formats import write_csv


def test_simple_filter_aggregate(db):
    r = db.query("for { p <- Patients, p.age >= 60 } yield count 1")
    assert isinstance(r.value, int) and r.value > 0


def test_projection_query(db):
    r = db.query(
        'for { p <- Patients, p.gender = "f", p.age < 30 } '
        "yield bag (id := p.id, age := p.age)"
    )
    assert all(row["age"] < 30 for row in r.value)
    assert all(isinstance(row["id"], int) for row in r.value)


def test_three_way_join(db):
    r = db.query(
        "for { p <- Patients, g <- Genetics, b <- BrainRegions, "
        "p.id = g.id, g.id = b.id, p.age > 40, g.snp_a = 1 } "
        "yield bag (id := p.id, vol := b.volume_total)"
    )
    ids = {row["id"] for row in r.value}
    check = db.query(
        "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40, "
        "g.snp_a = 1 } yield set p.id"
    )
    assert ids == set(check.value)


def test_second_query_served_from_cache(db):
    q = "for { p <- Patients, p.age > 50 } yield avg p.protein"
    first = db.query(q)
    assert not first.stats.cache_only
    second = db.query(q)
    assert second.stats.cache_only
    assert second.value == pytest.approx(first.value)


def test_cache_respects_field_subsets(db):
    db.query("for { p <- Patients } yield bag (a := p.age, g := p.gender)")
    r = db.query("for { p <- Patients } yield set p.gender")
    assert r.stats.cache_only
    assert sorted(r.value) == ["f", "m"]


def test_json_nested_paths(db):
    r = db.query(
        "for { b <- BrainRegions, b.meta.version = 2 } "
        "yield bag (id := b.id, pipeline := b.meta.pipeline)"
    )
    assert all(row["pipeline"] in ("fsl", "spm") for row in r.value)


def test_unnest_json_arrays(db):
    r = db.query(
        "for { b <- BrainRegions, r <- b.regions, b.id = 5 } yield count 1"
    )
    assert r.value == 3


def test_whole_object_yield(db):
    r = db.query("for { b <- BrainRegions, b.id = 1 } yield bag b")
    assert r.value[0]["meta"]["version"] == 1 % 4


def test_engines_agree(db):
    queries = [
        "for { p <- Patients } yield sum p.age",
        "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp_b = 2 } "
        "yield bag (id := p.id)",
        "for { b <- BrainRegions, r <- b.regions } yield max r.volume",
        "for { p <- Patients } yield topk(4) p.age",
        'for { p <- Patients, p.city = "geneva" } yield median p.age',
    ]
    for q in queries:
        jit = db.query(q).value
        static = db.query(q, engine="static").value
        assert str(jit) == str(static), q


def test_explain_contains_decisions(db):
    text = db.explain("for { p <- Patients, p.age > 50 } yield count 1")
    assert "physical" in text and "access" in text


def test_unknown_source_is_type_error(db):
    with pytest.raises(TypeCheckError):
        db.query("for { x <- Nowhere } yield count 1")


def test_unknown_field_is_type_error(db):
    with pytest.raises(TypeCheckError):
        db.query("for { p <- Patients } yield sum p.nonexistent")


def test_output_shapes(db):
    q = "for { p <- Patients, p.id < 3 } yield bag (id := p.id, age := p.age)"
    records = db.query(q, output="records").value
    assert isinstance(records[0], dict)
    tuples = db.query(q, output="tuples").value
    assert isinstance(tuples[0], tuple)
    columns = db.query(q, output="columns").value
    assert set(columns) == {"id", "age"}
    text = db.query(q, output="json").value
    assert text.count("\n") == 2
    blobs = db.query(q, output="bson").value
    from repro.formats.jsonfmt import bson

    assert bson.decode(blobs[0])["id"] == 0


def test_in_place_update_invalidates(db, patients_csv):
    db.query("for { p <- Patients } yield sum p.age")
    assert db.cache.peek(db.catalog.get("Patients").state, ["age"])
    # rewrite the file in place with different content
    write_csv(patients_csv, ["id", "age", "gender", "city", "protein"],
              [(0, 99, "m", "geneva", 1.0)])
    os.utime(patients_csv, ns=(1, 1))
    r = db.query("for { p <- Patients } yield sum p.age")
    assert r.value == 99
    assert not r.stats.cache_only


def test_memory_source():
    db = ViDa()
    db.register_memory("Nums", [{"v": i} for i in range(10)])
    assert db.query("for { n <- Nums, n.v > 6 } yield sum n.v").value == 24


def test_register_auto(tmp_path):
    path = tmp_path / "auto.csv"
    write_csv(path, ["a", "b"], [(1, "x"), (2, "y")])
    db = ViDa()
    db.register_auto("T", path)
    assert db.query("for { t <- T } yield count 1").value == 2


def test_query_log_and_hit_ratio(db):
    q = "for { p <- Patients } yield max p.age"
    db.query(q)
    db.query(q)
    db.query(q)
    assert 0 < db.cache_hit_ratio() < 1
    assert len(db.query_log) == 3


def test_generated_code_is_exposed(db):
    r = db.query("for { p <- Patients, p.age > 90 } yield count 1")
    assert "def _vida_query" in r.code
    assert "for " in r.code


def test_merge_of_comprehensions_top_level(db):
    # N7 splits a merged-generator comprehension into a Merge of two
    # comprehensions, which the session routes through the interpreter.
    from repro.mcc import ast as A
    from repro.mcc.monoids import get_monoid

    expr = A.Merge(
        get_monoid("sum"),
        A.Comprehension(get_monoid("sum"), A.Const(1),
                        (A.Generator("p", A.Var("Patients")),)),
        A.Comprehension(get_monoid("sum"), A.Const(1),
                        (A.Generator("g", A.Var("Genetics")),)),
    )
    assert db.query(expr).value == 120


def test_static_engine_session():
    db = ViDa(default_engine="static")
    db.register_memory("T", [{"v": 1}, {"v": 2}])
    assert db.query("for { t <- T } yield sum t.v").value == 3


def test_invalid_engine_rejected():
    with pytest.raises(Exception):
        ViDa(default_engine="quantum")
