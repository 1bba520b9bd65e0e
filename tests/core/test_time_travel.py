"""AS OF queries across the retention window, and O(delta) refresh.

The acceptance contract: ``AS OF GENERATION k`` returns bit-identical rows
to what the live query returned while ``k`` was the live generation, for
every generation retention still holds — and an append-only refresh
re-reads only the appended tail bytes (raw-byte accounting in the engine
stats).
"""

import json

import pytest

from repro import GenerationError, ViDa
from repro.cleaning import DictionaryPolicy, SkipPolicy
from repro.errors import DataFormatError

Q = "for { t <- T } yield bag (id := t.id, v := t.v)"
ROWS = 500


def write_csv(path, n):
    with open(path, "w") as fh:
        fh.write("id,v\n")
        for i in range(n):
            fh.write(f"{i},{i * 3}\n")


def append_csv(path, start, count):
    data = "".join(f"{i},{i * 3}\n" for i in range(start, start + count))
    with open(path, "a") as fh:
        fh.write(data)
    return len(data.encode())


@pytest.fixture
def csv_path(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ROWS)
    return path


def grow_and_record(db, csv_path, appends=3, count=40):
    """Append ``appends`` tails, querying after each; returns the recorded
    {generation: live answer} map and the total appended byte count."""
    recorded, appended_bytes = {}, 0
    gens = db.generations("T")
    recorded[gens["live"]] = db.query(Q, output="records").value
    n = ROWS
    for _ in range(appends):
        appended_bytes += append_csv(csv_path, n, count)
        n += count
        answer = db.query(Q, output="records").value
        recorded[db.generations("T")["live"]] = answer
    return recorded, appended_bytes


def test_as_of_bit_identical_across_retention_window(csv_path):
    db = ViDa()
    db.register_csv("T", csv_path)
    recorded, appended_bytes = grow_and_record(db, csv_path)

    gens = db.generations("T")
    live = gens["live"]
    retained = {r["generation"] for r in gens["retained"]}
    assert retained, "history retained nothing"
    for gen, answer in recorded.items():
        if gen == live or gen in retained:
            assert db.query(Q, output="records",
                            as_of={"T": gen}).value == answer, gen

    # all appends: refresh re-read only the tails, never the whole file
    snap = db.engine_context.stats_snapshot()
    assert snap["delta_refreshes"] == 3
    assert snap["full_invalidations"] == 0
    assert snap["delta_tail_bytes"] == appended_bytes
    db.close()


def test_retention_bound_evicts_lru_with_typed_error(csv_path):
    db = ViDa(retain_generations=2)
    db.register_csv("T", csv_path)
    recorded, _ = grow_and_record(db, csv_path, appends=4)

    gens = db.generations("T")
    retained = [r["generation"] for r in gens["retained"]]
    assert len(retained) == 2  # bounded by retain_generations
    oldest = min(recorded)
    assert oldest not in retained and oldest != gens["live"]
    with pytest.raises(GenerationError) as exc:
        db.query(Q, as_of={"T": oldest})
    assert str(oldest) in str(exc.value)
    for gen in retained:  # survivors still answer exactly
        assert db.query(Q, output="records",
                        as_of={"T": gen}).value == recorded[gen]
    db.close()


def test_explain_and_decisions_show_pinned_generation(csv_path):
    db = ViDa()
    db.register_csv("T", csv_path)
    recorded, _ = grow_and_record(db, csv_path, appends=1)
    gen = min(recorded)
    r = db.query(Q, output="records", as_of={"T": gen})
    assert r.value == recorded[gen]
    assert f"generation={gen}" in r.plan_text
    assert any(f"AS OF generation {gen}" in n for n in r.decisions.notes)
    db.close()


def test_sql_as_of_matches_query_api(csv_path):
    db = ViDa()
    db.register_csv("T", csv_path)
    recorded, _ = grow_and_record(db, csv_path, appends=2)
    for gen, answer in recorded.items():
        got = db.sql(f"SELECT id, v FROM T AS OF GENERATION {gen}")
        assert got.value == answer
    db.close()


def test_rewrite_freezes_history_via_pinned_state(csv_path):
    """A non-append rewrite flips retained live-prefix snapshots to pinned
    cache fallbacks; covered projections still answer bit-identically."""
    db = ViDa()
    db.register_csv("T", csv_path)
    recorded, _ = grow_and_record(db, csv_path, appends=1)
    write_csv(csv_path, 77)  # destructive rewrite: old bytes are gone
    live_after = db.query(Q, output="records").value
    assert len(live_after) == 77

    gens = db.generations("T")
    for r in gens["retained"]:
        assert not r["live_prefix"]  # every survivor is now pinned
        gen = r["generation"]
        if gen in recorded:
            assert db.query(Q, output="records",
                            as_of={"T": gen}).value == recorded[gen]
    snap = db.engine_context.stats_snapshot()
    assert snap["full_invalidations"] >= 1
    db.close()


def test_json_as_of_and_delta_refresh(tmp_path):
    path = str(tmp_path / "t.json")
    with open(path, "w") as fh:
        for i in range(300):
            fh.write(json.dumps({"id": i, "v": i * 3}) + "\n")
    db = ViDa()
    db.register_json("T", path)
    first = db.query(Q, output="records").value
    base_gen = db.generations("T")["live"]
    tail = "".join(json.dumps({"id": i, "v": i * 3}) + "\n"
                   for i in range(300, 350))
    with open(path, "a") as fh:
        fh.write(tail)
    second = db.query(Q, output="records").value
    assert len(second) == 350

    assert db.query(Q, output="records", as_of={"T": base_gen}).value == first
    snap = db.engine_context.stats_snapshot()
    assert snap["delta_refreshes"] == 1
    assert snap["delta_tail_bytes"] == len(tail.encode())
    db.close()


def write_ages(path, bad):
    """100 rows of ``id,age``; ``bad`` maps row → the age text it holds."""
    with open(path, "w") as fh:
        fh.write("id,age\n")
        for i in range(100):
            fh.write(f"{i},{bad.get(i, 30)}\n")


def pinned_sum(db, engine):
    """Live ``sum t.age``, then the same AS OF that generation after an
    append — or the exception each raised."""
    q = "for { t <- T } yield sum t.age"

    def run(**kw):
        try:
            return db.query(q, engine=engine, **kw).value
        except Exception as exc:
            return type(exc)

    live = run()
    gen = db.generations("T")["live"]
    with open(db.catalog.get("T").plugin.path, "a") as fh:
        fh.write("100,30\n")
    return live, run(as_of={"T": gen})


@pytest.mark.parametrize("engine", ["jit", "static"])
@pytest.mark.parametrize("policy, bad, want", [
    (DictionaryPolicy(ranges={"age": (0, 120)}),
     {i: 200 for i in range(0, 100, 10)}, 3900),
    (SkipPolicy(), {2: "xx"}, 2970),
    (None, {2: "xx"}, DataFormatError),
], ids=["dictionary", "skip", "none"])
def test_as_of_honours_the_sessions_cleaning_policy(tmp_path, engine,
                                                     policy, bad, want):
    """A pinned scan cleans (and fails) exactly as the live scan of its
    generation did."""
    path = str(tmp_path / "ages.csv")
    write_ages(path, bad)
    db = ViDa()
    db.register_csv("T", path, columns=["id", "age"], types=["int", "int"])
    if policy is not None:
        db.set_cleaning("T", policy)
    try:
        assert pinned_sum(db, engine) == (want, want)
    finally:
        db.close()
