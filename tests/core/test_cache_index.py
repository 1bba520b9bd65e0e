"""Index probes over cached columns (``access=cache+index``) and rent-or-buy.

- differential: eq / IN / bounded and open ranges answer identically (bag
  order included) through ``cache+index``, plain ``cache``
  (``enable_indexes=False``) and the static engine, over CSV and JSON
  sources with NULLs, duplicates and ``1`` / ``1.0`` / ``true`` twins; with
  full and partial index coverage, after an append and after a rewrite;
- the path is never taken under a cleaning policy, a whole binding, an
  ``AS OF`` pin or a morsel split;
- chooser: range conjuncts intersect into one spec, a dense probe loses,
  the cheaper of two indexed conjuncts wins, a rejected wide range sums no
  bucket;
- rent or buy: the tally crossing the file's row count buys exactly once,
  prepared plans re-plan, a cache without room never buys or evicts, a
  rewrite resets the tally and an append carries it.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ViDa
from repro.cleaning import SkipPolicy
from repro.core.optimizer import cost as C
from repro.core.optimizer.planner import _intersect_ranges
from repro.indexing import IndexPartial, IndexRegistry, ValueIndex

ROWS = 240

#: predicate-column values: duplicates, NULLs and the hash-equal twins
CSV_KEYS = [None, 0, 1, 1, 2, 3, 5, 8, 8, 13, 21]
JSON_KEYS = [None, 0, 1, 1.0, True, 2, 2.5, 3, 8, 8.0, 13]


def _rows(seed: int, keys: list) -> list[tuple]:
    rng = random.Random(seed)
    return [(i, rng.choice(keys), rng.randrange(100)) for i in range(ROWS)]


def _csv_text(rows) -> str:
    return "".join(f"{i},{'' if k is None else k},{v}\n" for i, k, v in rows)


def _json_text(rows) -> str:
    return "".join(json.dumps({"id": i, "k": k, "v": v}) + "\n"
                   for i, k, v in rows)


FORMATS = {
    "csv": (CSV_KEYS, _csv_text, "id,k,v\n", "register_csv"),
    "json": (JSON_KEYS, _json_text, "", "register_json"),
}

PREDICATES = [
    "t.k = 1", "t.k = 8", "t.k = 404",
    "t.k in [1, 13, 404]", "t.k in [2, 2, 3]",
    "t.k >= 8", "t.k < 2", "t.k > 1, t.k <= 8", "t.k >= 3, t.k < 3",
    "t.k >= 2, t.v < 50", "t.k = 1, t.id >= 100",
]


def _query(pred: str) -> str:
    return f"for {{ t <- T, {pred} }} yield bag (id := t.id, k := t.k, v := t.v)"


def _write(path, fmt: str, rows, mode: str = "w") -> None:
    _keys, text, header, _reg = FORMATS[fmt]
    with open(path, mode) as fh:
        fh.write((header if mode == "w" else "") + text(rows))


def _open(path, fmt: str, **session) -> ViDa:
    db = ViDa(**session)
    getattr(db, FORMATS[fmt][3])("T", str(path))
    return db


@pytest.fixture()
def always_probe(monkeypatch):
    """Price gathered candidates at next to nothing, so the probe is chosen
    at every density and the path is exercised by every predicate."""
    monkeypatch.setattr(C, "CACHE_GATHER_CELLS", 1e-9)
    monkeypatch.setattr(C, "CACHE_KEY_CELLS", 1e-9)


def _warm(db: ViDa) -> None:
    """Cold scan, then until every predicate column is cached and indexed."""
    for _ in range(2):
        db.query(_query("t.k >= 0, t.id >= 0, t.v >= 0"))


def _check_all(path, fmt: str, expect_probe: bool = True) -> None:
    """Every predicate through the probe on both engines must equal the
    plain cached scan of an index-free session, row for row."""
    probed, plain = _open(path, fmt), _open(path, fmt, enable_indexes=False)
    try:
        _warm(probed)
        _warm(plain)
        for pred in PREDICATES:
            q = _query(pred)
            want = plain.query(q)
            assert "access=cache," in want.plan_text
            for engine in ("jit", "static"):
                got = probed.query(q, engine=engine)
                if expect_probe:
                    assert "access=cache+index[" in got.plan_text, pred
                    assert got.stats.index_hits == 1
                    assert got.stats.cache_only
                assert got.value == want.value, (fmt, pred, engine)
    finally:
        probed.close()
        plain.close()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [1, 2])
def test_probe_equals_plain_cache_scan(tmp_path, always_probe, fmt, seed):
    path = tmp_path / f"t.{fmt}"
    _write(path, fmt, _rows(seed, FORMATS[fmt][0]))
    _check_all(path, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_probe_survives_append_and_rewrite(tmp_path, always_probe, fmt):
    """One long-lived session: the delta refresh extends cache and index
    together (the new rows are candidates too); a rewrite drops both and
    the next scans rebuild them."""
    keys = FORMATS[fmt][0]
    path = tmp_path / f"t.{fmt}"
    rows = _rows(3, keys)
    _write(path, fmt, rows)
    db, plain = _open(path, fmt), _open(path, fmt, enable_indexes=False)
    try:
        _warm(db)
        for step in range(4):
            if step == 3:
                rows = _rows(9, keys)
                _write(path, fmt, rows)
                _warm(db)
            elif step:
                tail = [(len(rows) + j, k, v)
                        for j, (_i, k, v) in enumerate(_rows(step, keys)[:7])]
                rows = rows + tail
                _write(path, fmt, tail, "a")
            for pred in PREDICATES:
                q = _query(pred)
                want = plain.query(q).value
                for engine in ("jit", "static"):
                    got = db.query(q, engine=engine)
                    assert "cache+index" in got.plan_text, (step, pred)
                    assert got.value == want, (fmt, step, pred, engine)
            assert len(db.query(_query("t.id >= 0")).value) == len(rows)
    finally:
        db.close()
        plain.close()


@given(holes=st.lists(st.tuples(st.integers(0, ROWS - 1), st.integers(1, 30)),
                      max_size=3),
       seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_probe_with_partial_coverage(tmp_path_factory, holes, seed):
    """Holes anywhere (start, middle, end): candidates from the covered
    ranges interleave with plain slices of the holes in row order."""
    tmp = tmp_path_factory.mktemp("partial")
    path = tmp / "t.csv"
    rows = _rows(seed, CSV_KEYS)
    _write(path, "csv", rows)
    holes = sorted((lo, min(ROWS, lo + n)) for lo, n in holes)
    db, plain = _open(path, "csv"), _open(path, "csv", enable_indexes=False)
    saved = C.CACHE_GATHER_CELLS, C.CACHE_KEY_CELLS
    C.CACHE_GATHER_CELLS = C.CACHE_KEY_CELLS = 1e-9
    try:
        _warm(db)
        _warm(plain)
        # rebuild T.k's index over everything but the holes
        gen = db.catalog.get("T").generation
        db.indexes.invalidate_source("T")
        part = IndexPartial(("k",))
        pos = 0
        column = [k for _i, k, _v in rows]
        for lo, hi in holes + [(ROWS, ROWS)]:
            if lo > pos:
                part.record(pos, {"k": column[pos:lo]})
            pos = max(pos, hi)
        db.indexes.adopt("T", gen, [part])
        for pred in PREDICATES[:9]:
            q = _query(pred)
            want = plain.query(q).value
            for engine in ("jit", "static"):
                got = db.query(q, engine=engine)
                assert got.value == want, (holes, pred, engine)
                assert got.stats.cache_only
    finally:
        C.CACHE_GATHER_CELLS, C.CACHE_KEY_CELLS = saved
        db.close()
        plain.close()


def test_probe_is_never_taken_where_rows_may_not_line_up(tmp_path,
                                                         always_probe):
    path = tmp_path / "t.csv"
    _write(path, "csv", _rows(4, CSV_KEYS))
    q = _query("t.k = 8")

    # a whole binding is served from cached objects, not columns
    objects = tmp_path / "t.json"
    _write(objects, "json", _rows(4, JSON_KEYS))
    db = _open(objects, "json")
    try:
        whole = "for { t <- T, t.k = 8 } yield bag t"
        db.query(whole)                     # cold: caches the objects
        _warm(db)
        assert "cache+index[k]" in db.query(q).plan_text
        served = db.query(whole)
        assert "access=cache," in served.plan_text
        assert "whole" in served.plan_text
        assert served.stats.index_hits == 0 and served.stats.cache_only
    finally:
        db.close()

    db = _open(path, "csv")
    try:
        _warm(db)
        assert "cache+index[k]" in db.query(q).plan_text
        # an AS OF pin re-scans the pinned generation, byproduct-free
        old = db.generations("T")["live"]
        _write(path, "csv", _rows(5, CSV_KEYS)[:3], "a")
        db.query(q)
        pinned = db.query(q, as_of={"T": old})
        assert "access=cold" in pinned.plan_text
        assert "index[" not in pinned.plan_text
    finally:
        db.close()

    # cleaning repairs and skips rows: cached rows are not file rows
    db = _open(path, "csv")
    try:
        db.set_cleaning("T", SkipPolicy())
        for _ in range(3):
            result = db.query(q)
        assert "index[" not in result.plan_text
    finally:
        db.close()

    # a gathered scan is never sharded, and a morsel never gathers
    db = _open(path, "csv", parallelism=2)
    try:
        _warm(db)
        probed = db.query(q)
        assert "cache+index[k]" in probed.plan_text
        assert "parallel=" not in probed.plan_text
    finally:
        db.close()


def test_split_falls_back_to_the_full_view(tmp_path):
    from repro.core.chunk import Morsel
    from repro.core.executor.runtime import QueryRuntime
    from repro.core.physical import PhysScan

    path = tmp_path / "t.csv"
    _write(path, "csv", _rows(6, CSV_KEYS))
    db = _open(path, "csv")
    try:
        _warm(db)
        rt = QueryRuntime(db.catalog, db.cache, indexes=db.indexes)

        def scan(lookup):
            return PhysScan("T", "t", "csv", ("k",), "cache",
                            index_lookup=lookup)

        lookup = ("eq", "k", 8)
        (gathered,) = rt.scan(scan(lookup))
        assert set(gathered.columns[0]) == {8}
        (view,) = rt.scan(scan(lookup), split=Morsel("rows", 10, 50))
        assert view.length == 40
        # an unservable probe (no ordered domain) hands over everything
        (full,) = rt.scan(scan(("range", "k", None, None, True, True)))
        assert full.length == ROWS
    finally:
        db.close()


def test_columns_a_skipping_tenant_compacted_are_never_probed(tmp_path):
    """The cache is shared across tenants, the cleaning policy is not: rows a
    ``SkipPolicy`` tenant dropped would leave columns whose position i is not
    file row i. Its scans never offer columns to the cache, so another
    tenant's probe only ever gathers from file-aligned ones."""
    from repro.core.engine import EngineContext

    rows, dirty = 4000, 2000
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        fh.write("id,age\n")
        fh.writelines(f"{i},{'x' if i == dirty else i % 90}\n"
                      for i in range(rows))
    ctx = EngineContext()
    plain = ViDa(context=ctx)
    skipping = ViDa(context=ctx)
    unindexed = ViDa(context=ctx, enable_indexes=False)
    try:
        plain.register_csv("T", str(path))
        skipping.set_cleaning("T", SkipPolicy())
        for _ in range(2):  # cold, then warm: full index on T.id
            plain.query("for { t <- T, t.id >= 0 } yield bag t.id")
        both = "for { t <- T } yield bag (id := t.id, age := t.age)"
        assert len(skipping.query(both).value) == rows - 1
        assert [e.cached.count for e in ctx.cache.entries()] == [rows]
        assert not ctx.cache.peek("T", ["age"])
        q = "for { t <- T, t.id = 3000 } yield bag t.id"
        want = unindexed.query(q)
        assert "access=cache," in want.plan_text
        assert want.value == [3000]
        for engine in ("jit", "static"):
            got = plain.query(q, engine=engine)
            assert "cache+index[id]" in got.plan_text
            assert got.value == want.value
            assert got.stats.index_hits == 1 and got.stats.cache_only
    finally:
        for db in (plain, skipping, unindexed):
            db.close()
        ctx.close()


# -- chooser -----------------------------------------------------------------

_BOUND = st.one_of(st.integers(-3, 12), st.sampled_from([0.5, 2.0, 7.5]))


@given(values=st.lists(st.one_of(st.none(), st.integers(-3, 12),
                                 st.sampled_from([1.0, 2.5, 8.0])),
                       max_size=60),
       lo=_BOUND, hi=_BOUND, lo_incl=st.booleans(), hi_incl=st.booleans(),
       extra=_BOUND)
@settings(max_examples=150, deadline=None)
def test_intersected_range_equals_both_conjuncts(values, lo, hi, lo_incl,
                                                 hi_incl, extra):
    idx = ValueIndex("x")
    idx.add_run(0, values)
    specs = [("range", "x", lo, None, lo_incl, False),
             ("range", "x", None, hi, False, hi_incl),
             ("range", "x", extra, None, True, False)]
    merged = _intersect_ranges([("x", s) for s in specs]
                               + [("x", ("eq", "x", 1))])
    assert [s[0] for _f, s in merged] == ["range", "eq"]
    want = set(idx.lookup(specs[0]))
    for s in specs[1:]:
        want &= set(idx.lookup(s))
    assert idx.lookup(merged[0][1]) == sorted(want)


def test_ranges_of_different_domains_or_fields_stay_apart():
    specs = [("a", ("range", "a", 1, None, True, False)),
             ("a", ("range", "a", None, "m", False, False)),
             ("b", ("range", "b", None, 9, False, True)),
             ("a", ("range", "a", None, None, True, False))]
    assert _intersect_ranges(specs) == specs


@pytest.fixture()
def wide(tmp_path):
    """2,000 rows: ``u`` unique, ``g`` 8 values, ``a`` spread over 10^5."""
    rng = random.Random(11)
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write("u,g,a,b\n")
        for i in range(2000):
            fh.write(f"{i},{i % 8},{rng.randrange(100_000)},{i % 7}\n")
    db = ViDa()
    db.register_csv("T", str(path))
    for _ in range(2):
        db.query("for { t <- T, t.u >= 0, t.g >= 0, t.a >= 0 } yield sum t.b")
    yield db
    db.close()


def test_bounded_range_is_one_probe(wide):
    q = "for { t <- T, t.a >= 50000, t.a < 50500 } yield count 1"
    text = wide.explain(q)
    assert "access=cache+index[a]" in text
    # one note, one probe: the count is bracketed from the 10 or so keys
    # between the bounds, not from ~1,000 above and ~1,000 below
    (note,) = re.findall(r"T\.a over cache \((?:~|<=)(\d+) of 2000 rows\)",
                         text)
    assert int(note) < 100


def test_dense_probe_loses_and_sums_no_bucket(wide, monkeypatch):
    def no_sum(self, spec):
        raise AssertionError(f"summed buckets for a losing probe: {spec}")

    monkeypatch.setattr(ValueIndex, "count", no_sum)
    text = wide.explain("for { t <- T, t.a >= 20000 } yield sum t.b")
    assert "access=cache," in text
    assert "index on T.a over cache rejected (>=" in text


def test_cheaper_of_two_indexed_conjuncts_wins(wide):
    text = wide.explain(
        "for { t <- T, t.g = 3, t.u = 77 } yield bag (b := t.b)")
    assert "access=cache+index[u]" in text
    assert "index lookup on T.u over cache (~1 of 2000 rows; " \
           "rejected g: 250)" in text


def test_plan_text_is_rendered_once_per_plan(wide, monkeypatch):
    from repro.core import physical, session
    from repro.core.executor import engine

    calls = []
    render = physical.explain_physical

    def counting(node, indent=0):
        if indent == 0:
            calls.append(node)
        return render(node, indent)

    monkeypatch.setattr(session, "explain_physical", counting)
    monkeypatch.setattr(engine, "explain_physical", counting)
    q = "for { t <- T, t.u = 5 } yield sum t.b"
    results = [wide.query(q) for _ in range(3)]
    assert len(calls) == 1
    assert results[2].stats.plan_cached
    assert results[2].plan_text == results[0].plan_text != ""


# -- rent or buy ----------------------------------------------------------------


@pytest.fixture()
def rented(tmp_path):
    """400 rows; ``fk`` is only ever reached through T.a's index."""
    rng = random.Random(5)
    path = tmp_path / "r.csv"
    lines = [f"{i},{rng.randrange(10_000)},{i % 9},{i % 5}\n"
             for i in range(400)]
    with open(path, "w") as fh:
        fh.write("id,a,fk,b\n" + "".join(lines))
    return path, lines


def _fk_query(lo: int) -> str:
    return f"for {{ t <- T, t.a >= {lo} }} yield sum t.fk"


def _rent(db: ViDa, lows) -> list:
    return [db.query(_fk_query(lo)) for lo in lows]


def _open_rented(path, **session) -> ViDa:
    db = ViDa(**session)
    db.register_csv("T", str(path))
    for _ in range(2):   # posmap, cached a + b, index on a
        db.query("for { t <- T, t.a >= 9000 } yield sum t.b")
    return db


def test_registry_tally_lives_and_dies_with_the_generation():
    reg = IndexRegistry()
    part = IndexPartial(("x",))
    part.record(0, {"x": [1, 2]})
    reg.adopt("S", 5, [part])
    reg.rent("S", 5, 3, 10)
    assert (reg.rented("S", 5), reg.buys_due) == (3, 0)
    reg.rent("S", 5, 7, 10)
    reg.rent("S", 5, 7, 10)
    assert (reg.rented("S", 5), reg.buys_due) == (17, 1)   # due once
    # a query that began before a refresh holds an older token: it misses,
    # and evicts nothing
    assert reg.peek("S", 4, "x") is None and reg.rented("S", 4) == 0
    assert reg.peek("S", 5, "x") is not None
    # an append re-keys indexes and tally together; settling starts afresh
    reg.extend_source("S", 5, 6, 2, {"x": [3]})
    assert reg.rented("S", 6) == 17
    reg.settle("S")
    assert reg.rented("S", 6) == 0
    # a newer token finds the entry stale and drops it, tally and all
    reg.rent("S", 6, 4, 10)
    assert reg.peek("S", 7, "x") is None and reg.rented("S", 6) == 0


def test_rent_then_buy_exactly_once(rented):
    path, _lines = rented
    db = _open_rented(path)
    try:
        registry = db.indexes
        gen = db.catalog.get("T").generation
        first = db.query(_fk_query(9000))
        assert "access=index[a]" in first.plan_text
        assert "populate" not in first.plan_text
        rent = first.stats.index_rows_served
        assert registry.rented("T", gen) == rent > 0
        assert db.query(_fk_query(9000)).stats.plan_cached

        lo = 8999
        while registry.rented("T", gen) < 400:
            assert registry.buys_due == 0
            assert "access=index[a]" in db.query(_fk_query(lo)).plan_text
            lo -= 1
        assert registry.buys_due == 1

        # the prepared index plan re-plans into the one populating scan
        buy = db.query(_fk_query(9000))
        assert not buy.stats.plan_cached
        assert "access=warm" in buy.plan_text
        assert "populate=[a, fk]" in buy.plan_text
        assert buy.stats.raw_bytes > 0
        assert registry.rented("T", gen) == 0

        # ... and every later query is cache-served
        for lo in (9000, 8500, 9900):
            later = db.query(_fk_query(lo))
            assert "access=cache" in later.plan_text
            assert later.stats.raw_bytes == 0 and later.stats.cache_only
            assert later.value == buy.value or lo != 9000
        assert registry.buys_due == 1
    finally:
        db.close()


def test_a_cache_without_room_never_buys_and_never_evicts(rented):
    path, _lines = rented
    roomy = _open_rented(path)
    two_columns = roomy.cache.used_bytes
    roomy.close()
    # room for the two resident columns, not for a third
    db = _open_rented(path, cache_budget_bytes=int(two_columns * 2.2))
    try:
        resident = {e.key for e in db.cache.entries()}
        assert resident
        results = _rent(db, range(9000, 8900, -1))
        assert db.indexes.rented("T", db.catalog.get("T").generation) > 400
        assert all("access=index[a]" in r.plan_text for r in results)
        assert db.cache.stats.evictions == 0
        assert {e.key for e in db.cache.entries()} == resident
    finally:
        db.close()


def test_rewrite_resets_the_tally_and_append_carries_it(rented):
    path, lines = rented
    db = _open_rented(path)
    try:
        _rent(db, (9000, 8990))
        gen = db.catalog.get("T").generation
        tally = db.indexes.rented("T", gen)
        assert tally > 0

        with open(path, "a") as fh:
            fh.write("".join(lines[-4:]))
        db.query(_fk_query(9000))
        new_gen = db.catalog.get("T").generation
        assert new_gen != gen
        assert db.indexes.rented("T", new_gen) > tally

        with open(path, "w") as fh:
            fh.write("id,a,fk,b\n" + "".join(reversed(lines)))
        db.query("for { t <- T, t.a >= 9000 } yield sum t.b")
        assert db.indexes.rented("T", db.catalog.get("T").generation) == 0
    finally:
        db.close()


# -- the query log -------------------------------------------------------------


def test_query_log_is_bounded_and_the_ratio_is_lifetime(rented, monkeypatch):
    from repro.core import session

    monkeypatch.setattr(session, "QUERY_LOG_ENTRIES", 8)
    path, _lines = rented
    db = ViDa()
    try:
        db.register_csv("T", str(path))
        q = "for { t <- T, t.b >= 3 } yield count 1"
        results = [db.query(q) for _ in range(20)]
        assert len(db.query_log) == 8
        assert list(db.query_log) == [r.stats for r in results[-8:]]
        assert not results[0].stats.cache_only
        assert all(r.stats.cache_only for r in results[1:])
        assert db.cache_hit_ratio() == 19 / 20
    finally:
        db.close()
