"""AS OF parity across every path a live-prefix generation is served by.

Generation k of an append-only file is its first ``row_count_k`` rows, so a
pinned scan is the ordinary scan bounded to them: a slice of the cached
columns, an index probe over them (``cache+index``), a warm positional-map
or semi-index prefix, a raw index fetch, or — with no structure left — the
generation's bytes tokenised cold. Each must answer exactly what the live
query answered while k was live (CSV and JSON, both engines, field, fold,
whole-row and LIMIT queries), and leave every shared structure as it found
it. An append racing the pinned query changes nothing; after a rewrite the
generation is served from pinned state or refused.
"""

import json
import random

import pytest

from repro import GenerationError, ViDa
from repro.core.optimizer.planner import Planner

ROWS, TAIL, APPENDS = 300, 40, 3

POINT = "for { t <- T, t.k = 8 } yield bag (id := t.id, v := t.v)"
FOLD = "for { t <- T, t.k = 8 } yield sum t.v"
WHOLE = "for { t <- T, t.k < 3 } yield bag t"
COUNT = "for { t <- T } yield count 1"
#: query text → LIMIT; the point-predicate shapes show the path under test
QUERIES = {POINT: None, FOLD: None, WHOLE: None, COUNT: None, POINT + " ": 3}
POINTED = (POINT, FOLD, POINT + " ")

#: serving path → session options (``bytes`` also drops the live file's
#: positional structure before the pinned queries run)
PATHS = {
    "cache": dict(enable_indexes=False),
    "cache+index": {},
    "warm": dict(enable_cache=False, enable_indexes=False),
    "index": dict(enable_cache=False),
    "bytes": dict(enable_cache=False, enable_indexes=False),
}


def rows(rng, start, count):
    return [(i, rng.randrange(50), rng.randrange(1000))
            for i in range(start, start + count)]


def text(fmt, batch):
    if fmt == "csv":
        return "".join(f"{i},{k},{v}\n" for i, k, v in batch)
    return "".join(json.dumps({"id": i, "k": k, "v": v}) + "\n"
                   for i, k, v in batch)


def open_db(path, fmt, **session):
    db = ViDa(**session)
    if fmt == "csv":
        db.register_csv("T", str(path))
    else:
        db.register_json("T", str(path))
    return db


def ask(db, q, engine="jit", **kw):
    return db.query(q, engine=engine, output="records" if "bag" in q
                    else "python", limit=QUERIES.get(q), **kw)


def grow(tmp_path, fmt, path_name, seed=3):
    """A session over a file grown by ``APPENDS`` seeded appends, every
    query asked (twice, so structures are built and used) at each
    generation. Returns ``(db, path, {generation: {query: answer}})``."""
    rng = random.Random(seed)
    path = tmp_path / f"t.{fmt}"
    with open(path, "w") as fh:
        fh.write(("id,k,v\n" if fmt == "csv" else "")
                 + text(fmt, rows(rng, 0, ROWS)))
    db = open_db(path, fmt, retain_generations=16, **PATHS[path_name])
    history, n = {}, ROWS
    for step in range(APPENDS + 1):
        if step:
            with open(path, "a") as fh:
                fh.write(text(fmt, rows(rng, n, TAIL)))
            n += TAIL
        for _ in range(2):
            answers = {q: ask(db, q).value for q in QUERIES}
        history[db.generations("T")["live"]] = answers
    if path_name == "bytes":
        db.catalog.get("T").plugin.invalidate_auxiliary()
    return db, path, history


def shared_state(db) -> dict:
    """Everything a query could leave behind for ``T``, comparably."""
    entry = db.catalog.get("T")
    plugin, gen = entry.plugin, entry.generation
    ctx = db.engine_context
    state = {"generation": gen}
    if entry.format == "csv":
        pm = plugin.posmap
        state["posmap"] = (pm.complete, list(pm.row_offsets),
                           {c: list(pm.anchor_offsets(c)[1])
                            for c in pm.mapped_columns})
    else:
        state["semi_index"] = None if not plugin.has_semi_index() else [
            (s.start, s.end) for s in plugin.semi_index.spans]
    held = entry.state
    state["stats"] = held.stats.snapshot() if held.stats else None
    state["index"] = {
        f: (sorted(ix.entries.items(), key=repr), list(ix.covered))
        for f, ix in held.indexes.items()}
    state["rent"] = (held.rented, ctx.stats.buys_due)
    state["cache"] = sorted(
        ((e.cached.layout, e.cached.fields, e.cached.nbytes,
          e.cached.count, e.cached.data) for e in db.cache.entries()),
        key=repr)
    return state


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path_name", list(PATHS))
def test_as_of_equals_the_live_answer_on_every_path(tmp_path, fmt,
                                                    path_name):
    db, _path, history = grow(tmp_path, fmt, path_name)
    try:
        live = db.generations("T")["live"]
        for gen, answers in history.items():
            if gen == live:
                continue
            snap = db.catalog.get("T").state.history.get(gen)
            for q, want in answers.items():
                for engine in ("jit", "static"):
                    before = shared_state(db)
                    got = ask(db, q, engine, as_of={"T": gen})
                    assert got.value == want, (gen, q, engine)
                    assert shared_state(db) == before, (gen, q, engine)
                    note = next(n for n in got.decisions.notes
                                if f"AS OF generation {gen}" in n)
                    assert f"live prefix, {snap.row_count}" in note
                    if q in POINTED:
                        label = "cold" if path_name == "bytes" else path_name
                        assert note.endswith(f"; {label})"), note
                        if path_name.startswith("cache"):
                            assert got.stats.cache_only
                            assert got.stats.raw_bytes == 0
                        if path_name == "bytes":
                            assert got.stats.raw_bytes == snap.byte_size
                        assert got.stats.index_hits == int(
                            "index" in path_name)
    finally:
        db.close()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path_name", ["cache", "warm", "index"])
def test_append_between_planning_and_scan(tmp_path, monkeypatch, fmt,
                                          path_name):
    db, path, history = grow(tmp_path, fmt, path_name)
    rng = random.Random(11)
    plan = Planner.plan

    def plan_then_append(self, root):
        planned = plan(self, root)
        with open(path, "a") as fh:
            fh.write(text(fmt, rows(rng, 10_000, 5)))
        return planned

    try:
        gen = min(history)
        monkeypatch.setattr(Planner, "plan", plan_then_append)
        for q, want in history[gen].items():
            assert ask(db, q, as_of={"T": gen}).value == want, q
    finally:
        db.close()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path_name", ["cache", "warm"])
def test_rewrite_serves_pinned_state_or_refuses(tmp_path, fmt, path_name):
    db, path, history = grow(tmp_path, fmt, path_name)
    try:
        with open(path, "w") as fh:
            fh.write(("id,k,v\n" if fmt == "csv" else "")
                     + text(fmt, rows(random.Random(9), 0, 20)))
        ask(db, COUNT)
        served = 0
        for gen, answers in history.items():
            if db.catalog.get("T").state.history.get(gen) is None:
                continue
            for q, want in answers.items():
                try:
                    got = ask(db, q, as_of={"T": gen})
                except GenerationError:
                    continue
                assert got.value == want, (gen, q)
                assert any("pinned cache fallback" in n
                           for n in got.decisions.notes)
                served += 1
        # cached columns were rescued at the rewrite
        assert served > 0 or path_name == "warm"
    finally:
        db.close()


def test_one_compilation_serves_every_generation(tmp_path):
    db, _path, history = grow(tmp_path, "csv", "cache")
    try:
        pinned = sorted(history)[:APPENDS]
        compiles = db.engine_context.stats_snapshot()["compile_cache"]
        for gen in pinned:
            got = ask(db, FOLD, as_of={"T": gen})
            assert got.value == history[gen][FOLD]
            assert f"generation={gen}" in got.plan_text
        after = db.engine_context.stats_snapshot()["compile_cache"]
        assert after["compilations"] - compiles["compilations"] <= 1
    finally:
        db.close()
