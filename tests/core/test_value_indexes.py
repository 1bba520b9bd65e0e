"""JIT secondary indexes: value-based access paths built as scan byproducts.

Covers the full lifecycle the subsystem promises:

- emission: cold/warm chunked scans over a predicate column leave a value
  index behind (hash entries + sorted runs over *touched* row ranges);
- access-path selection: the planner upgrades repeated point/range/IN
  filters to ``access=index`` (EXPLAIN + decisions proof), with a cheap
  predicate recheck so partial-coverage indexes stay exact;
- differentials: index-served answers bit-identical to full-scan baselines
  (``enable_indexes=False``) on both engines, serial and process DoP 2/4
  (worker processes emit no index partial; indexes grow on serial scans);
- partial coverage: candidate fetches interleave with full scans of
  uncovered holes in row order, and hole scans re-emit so coverage
  converges;
- invalidation: in-place mutation and append drop the index with the
  positional map (per-source generation token).

The morsel-order merge of index partials is a ``SourceState`` contract
(``test_source_state.py``).
"""

import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import ViDa
from repro.indexing import IndexPartial, ValueIndex

ENGINES = ["jit", "static"]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture()
def data_dir(tmp_path):
    rng = random.Random(17)
    with open(tmp_path / "patients.csv", "w") as fh:
        fh.write("id,age,city\n")
        for i in range(6000):
            fh.write(f"{i},{rng.randrange(91)},c{i % 13}\n")
    with open(tmp_path / "regions.json", "w") as fh:
        for i in range(3000):
            fh.write('{"id": %d, "volume": %d, "meta": {"lab": "L%d"}}\n'
                     % (i, rng.randrange(400), i % 7))
    return tmp_path


def _session(d, *, indexed=True, dop=1, backend="process", engine="jit"):
    db = ViDa(enable_cache=False, enable_indexes=indexed, parallelism=dop,
              backend=backend, default_engine=engine)
    db.register_csv("Patients", str(d / "patients.csv"))
    db.register_json("Regions", str(d / "regions.json"))
    return db


POINT_Q = "for { p <- Patients, p.age = 33 } yield bag (id := p.id)"
RANGE_Q = "for { p <- Patients, p.age < 7 } yield bag (id := p.id)"
IN_Q = "for { p <- Patients, p.age in [3, 5, 9] } yield bag (id := p.id)"
FOLD_Q = "for { p <- Patients, p.age = 30 + 3 } yield bag (id := p.id)"
JSON_Q = "for { r <- Regions, r.volume = 123 } yield bag (id := r.id)"
NESTED_Q = 'for { r <- Regions, r.meta.lab = "L2" } yield bag (id := r.id)'


# ---------------------------------------------------------------------------
# unit: ValueIndex structure
# ---------------------------------------------------------------------------


def test_value_index_lookup_kinds():
    idx = ValueIndex("x")
    idx.add_run(0, [5, 2, 5, None, 9, 2])
    assert idx.lookup(("eq", "x", 5)) == [0, 2]
    assert idx.lookup(("eq", "x", 404)) == []
    assert idx.lookup(("in", "x", (2, 9))) == [1, 4, 5]
    assert idx.lookup(("range", "x", 2, 5, True, False)) == [1, 5]
    assert idx.lookup(("range", "x", None, 5, False, True)) == [0, 1, 2, 5]
    # None never matches an ordered comparison (engines null-guard them)
    assert 3 not in idx.lookup(("range", "x", 0, None, True, False))
    # an unservable probe (no typed bound) falls back to a full scan
    assert idx.lookup(("range", "x", None, None, False, False)) is None


_KEYS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                  st.sampled_from([-2.5, 0.0, 1.0, 3.5]),
                  st.sampled_from(["a", "b", "m"]))
_NUM = st.one_of(st.integers(-6, 6), st.sampled_from([-2.5, 1.0, 3.5]))


@given(values=st.lists(_KEYS, max_size=40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_count_equals_lookup_length(values, data):
    """What the planner costs an index with is exactly what a probe
    fetches: eq, IN (hash-equal repeats such as ``1, 1.0, True`` name one
    bucket), ranges with open ends, over mixed int/float/str/NULL keys."""
    idx = ValueIndex("x")
    idx.add_run(0, values)
    bound = st.one_of(st.none(), _NUM)
    lo, hi = data.draw(bound), data.draw(bound)
    specs = [
        ("eq", "x", data.draw(_KEYS)),
        ("in", "x", tuple(data.draw(st.lists(_KEYS, max_size=5)))),
        ("in", "x", (1, 1.0, True, [1])),
        ("range", "x", lo, hi, data.draw(st.booleans()),
         data.draw(st.booleans())),
        ("range", "x", data.draw(st.sampled_from(["a", "c"])), None,
         True, False),
    ]
    for spec in specs:
        rows = idx.lookup(spec)
        assert idx.count(spec) == (None if rows is None else len(rows))
        if rows is not None:
            assert rows == sorted(set(rows))
    # growing the index moves both together
    idx.add_run(len(values), [1, 2.0, "a"])
    for spec in specs:
        rows = idx.lookup(spec)
        assert idx.count(spec) == (None if rows is None else len(rows))


@given(batches=st.lists(st.lists(_KEYS, max_size=12), min_size=1, max_size=8),
       probes=st.lists(st.sampled_from(["num", "str", "none"]), min_size=8,
                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_merged_sorted_runs_equal_rebuilt_runs(batches, probes):
    """Runs published by merging each growth's new keys equal the runs one
    sort over all keys builds, whichever domains were probed in between
    (mixed int/float/str/bool/NULL keys), and bracket the count."""
    grown = ValueIndex("x")
    start = 0
    for batch, probe in zip(batches, probes):
        grown.add_run(start, batch)
        start += len(batch)
        if probe != "none":
            lo = -9 if probe == "num" else ""
            assert grown.key_count(("range", "x", lo, None, True, False)) >= 0
    rebuilt = ValueIndex("x")
    rebuilt.add_run(0, [v for batch in batches for v in batch])
    assert grown._sorted_runs() == rebuilt._sorted_runs()
    assert not grown._fresh
    for spec in (("range", "x", -2, 3.5, True, False),
                 ("range", "x", "a", None, False, False),
                 ("in", "x", (1, "m", None)), ("eq", "x", 0)):
        assert grown.lookup(spec) == rebuilt.lookup(spec)
        assert grown.key_count(spec) <= grown.count(spec)


def test_reader_never_sees_a_shorter_run_during_growth():
    """Runs are published by replacement: while 1,000 growths add keys, a
    concurrent tenant's bisect never lands on an emptied or half-sorted
    run (the key count only ever rises), and no growth is lost."""
    idx = ValueIndex("x")
    idx.add_run(0, list(range(0, 4000, 2)))
    everything = ("range", "x", float("-inf"), None, True, False)
    assert idx.key_count(everything) == 2000
    stop = threading.Event()
    errors: list = []

    def reader():
        last = 0
        try:
            while not stop.is_set():
                seen = idx.key_count(everything)
                if seen < last or len(idx.lookup(everything)) < seen:
                    errors.append((last, seen))
                last = seen
        except Exception as exc:   # a reader must not die silently
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in readers:
            t.start()
        for i in range(1000):
            idx.add_run(2000 + i, [2 * i + 1])
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert not errors
    assert idx.key_count(everything) == 3000
    assert idx._sorted_runs()["num"] == list(range(2000)) + list(
        range(2000, 4000, 2))


def test_value_index_coverage_merging():
    idx = ValueIndex("x")
    assert idx.add_run(0, [1, 2]) == 2
    assert idx.add_run(4, [1, 2]) == 2
    assert idx.covered == [(0, 2), (4, 6)]
    # overlapping re-scan indexes only the uncovered slice
    assert idx.add_run(1, [2, 3, 4]) == 2
    assert idx.covered == [(0, 6)]
    assert idx.add_run(0, [1, 2, 2, 3, 4, 1]) == 0  # fully covered: no-op
    assert idx.coverage(8) == 0.75
    assert idx.uncovered_ranges(8) == [(6, 8)]
    assert idx.lookup(("eq", "x", 2)) == [1, 5]


# ---------------------------------------------------------------------------
# end-to-end: build on first scan, serve on repeats, differentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "query", [POINT_Q, RANGE_Q, IN_Q, FOLD_Q, JSON_Q, NESTED_Q])
def test_index_served_answers_match_full_scan(data_dir, engine, query):
    base = _session(data_dir, indexed=False, engine=engine)
    db = _session(data_dir, indexed=True, engine=engine)
    expect = base.query(query).value
    r1 = db.query(query)  # cold: builds posmap/semi-index + value index
    assert r1.value == expect
    assert r1.stats.index_builds >= 1
    r2 = db.query(query)  # warm repeat: index access path
    assert r2.value == expect
    assert r2.stats.index_hits == 1, r2.decisions.summary()
    assert r2.stats.index_rows_served == len(expect)
    assert "index" in r2.decisions.access.values()


def test_explain_shows_index_access_path(data_dir):
    db = _session(data_dir)
    db.query(POINT_Q)
    text = db.explain(POINT_Q)
    assert "access=index[age]" in text
    r = db.query(POINT_Q)
    assert any("index lookup on Patients.age" in n for n in r.decisions.notes)
    # IN-list matching goes through the same chooser
    db.query(IN_Q)
    assert "access=index[age]" in db.explain(IN_Q)


BOTH_Q = ('for { p <- Patients, p.age >= 30, p.city = "c4" } '
          "yield bag (id := p.id, age := p.age)")


@pytest.mark.parametrize("backend,dop", [("process", 1), ("process", 2)])
def test_chooser_picks_the_cheaper_conjunct(data_dir, backend, dop):
    """Both conjuncts have an index: the one with fewer candidates serves
    the scan, EXPLAIN names it and the loser with their counts, and the
    answer (bag order included) is the same whichever conjunct serves it
    and the same as without indexes."""
    base = _session(data_dir, indexed=False, dop=dop, backend=backend)
    db = _session(data_dir, indexed=True, dop=dop, backend=backend)
    only_age = _session(data_dir, indexed=True, dop=dop, backend=backend)
    try:
        expect = base.query(BOTH_Q).value
        assert len(expect) > 100
        with open(data_dir / "patients.csv") as fh:
            rows = [line.strip().split(",") for line in fh][1:]
        n_age = sum(int(r[1]) >= 30 for r in rows)
        n_city = sum(r[2] == "c4" for r in rows)

        assert db.query(BOTH_Q).value == expect  # cold: builds both
        r = db.query(BOTH_Q)
        assert r.value == expect
        assert r.stats.index_rows_served == n_city
        assert (f"p: index lookup on Patients.city (~{n_city} of 6000 rows; "
                f"rejected age: {n_age})") in r.decisions.notes
        assert "access=index[city]" in r.plan_text

        # a session that has only seen the age conjunct owns index[age]
        # alone, so the same query is served through the other conjunct
        only_age.query("for { p <- Patients, p.age >= 30 } yield count 1")
        r = only_age.query(BOTH_Q)
        assert "access=index[age]" in r.plan_text
        assert r.stats.index_rows_served == n_age
        assert r.value == expect
    finally:
        for session in (base, db, only_age):
            session.close()


def test_index_cost_uses_the_count_and_the_calibrated_warm_factor():
    from repro.core.optimizer import cost as C
    from repro.stats import CostCalibration
    from repro.storage.io import RUN_GAP_BYTES

    rows, nf, size = 10_000, 3, 4_000_000
    scan = C.estimate_scan("csv", "warm", rows, nf, []).total_cost
    warm = C.access_factor("csv", "warm")

    def index(matches, coverage=1.0, calibration=None):
        return C.estimate_index_scan("csv", rows, nf, coverage, matches,
                                     size, calibration=calibration)

    assert index(0) == C.INDEX_PROBE_COST
    # a sparse probe: every candidate is a run of its own
    assert index(50) == pytest.approx(
        C.INDEX_PROBE_COST + 50 * (C.INDEX_RUN_CELLS + nf) * warm)
    assert index(50) < scan / 10
    # a dense one: runs are bounded by the file, cells cost what a scan's do
    assert index(rows) == pytest.approx(
        C.INDEX_PROBE_COST + size / RUN_GAP_BYTES * C.INDEX_RUN_CELLS * warm
        + rows * warm * nf)
    assert index(rows) > scan
    # uncovered rows are scanned on top
    assert index(50, coverage=0.5) == pytest.approx(
        index(50) + rows / 2 * warm * nf)
    # the warm factor is the calibrated one, as for the scan it competes
    # with, and it prices reads and cells alike: drift cannot flip a choice
    cal = CostCalibration()
    cal.factors[("csv", "warm")] = warm * 2
    assert index(rows, calibration=cal) - index(0, calibration=cal) \
        == pytest.approx(2 * (index(rows) - index(0)))


def test_dense_index_loses_to_the_scan(tmp_path):
    """The index's own count prices a probe that matches nearly every row
    of a wide file above the warm scan it would replace."""
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write("id,age,pad\n")
        for i in range(3000):
            fh.write(f"{i},{i % 90},{'x' * 300}\n")
    db = ViDa(enable_cache=False)
    try:
        db.register_csv("W", str(path))
        q = "for { w <- W, w.age >= 2 } yield sum w.id"
        expect = db.query(q).value
        r = db.query(q)
        assert r.value == expect
        assert r.stats.index_hits == 0
        assert any("index on W.age rejected (~" in n and ">= scan" in n
                   for n in r.decisions.notes)
        sparse = db.query("for { w <- W, w.age = 2 } yield sum w.id")
        assert sparse.stats.index_hits == 1
    finally:
        db.close()


@pytest.mark.parametrize("backend,dop", [("process", 2), ("process", 4)])
def test_parallel_differentials(data_dir, backend, dop):
    serial = _session(data_dir, indexed=True)
    expect1 = serial.query(POINT_Q).value
    expect2 = serial.query(POINT_Q).value
    assert expect1 == expect2
    db = _session(data_dir, indexed=True, dop=dop, backend=backend)
    try:
        r1 = db.query(POINT_Q)
        r2 = db.query(POINT_Q)
        assert r1.value == expect1
        assert r2.value == expect2
    finally:
        db.close()


def test_repeat_queries_do_not_rebuild(data_dir):
    db = _session(data_dir)
    db.query(POINT_Q)
    r2 = db.query(POINT_Q)
    r3 = db.query(POINT_Q)
    # covered ranges are never re-indexed: no growth on repeats
    assert r2.stats.index_builds == 0
    assert r3.stats.index_builds == 0


# ---------------------------------------------------------------------------
# partial coverage: recheck + hole scans + convergence
# ---------------------------------------------------------------------------


def _replace_indexes(db, source, partial):
    """Make ``partial`` the only index ``source`` holds: drop everything its
    registration derived, re-map the file with a scan that emits no index
    (no predicate), then adopt the partial."""
    state = db.catalog.get(source).state
    with state.lock:
        state.drop(db.engine_context.cache)
    db.query(f"for {{ p <- {source} }} yield count 1")
    assert not state.indexes
    with state.lock:
        state.adopt_indexes([partial])


def test_partial_coverage_recheck_and_convergence(data_dir):
    db = _session(data_dir)
    full = db.query(POINT_Q).value

    entry = db.catalog.get("Patients")
    total = len(entry.plugin.posmap.row_offsets)
    ages = []
    with open(data_dir / "patients.csv") as fh:
        next(fh)
        for line in fh:
            ages.append(int(line.split(",")[1]))

    # replace the organically-built index with a half-coverage one
    part = IndexPartial(("age",))
    part.record(0, {"age": ages[: total // 2]})
    _replace_indexes(db, "Patients", part)
    state = entry.state
    assert state.indexes["age"].coverage(total) == 0.5

    r = db.query(POINT_Q)
    assert r.value == full  # candidates + hole scan, bit-identical
    assert r.stats.index_hits == 1
    assert r.stats.raw_rows > r.stats.index_rows_served  # holes were scanned
    # the hole scan re-emitted: coverage converged to 1.0
    assert state.indexes["age"].coverage(total) == 1.0
    r2 = db.query(POINT_Q)
    assert r2.value == full
    assert r2.stats.raw_rows == r2.stats.index_rows_served  # no holes left


def test_low_coverage_rejected_with_note(data_dir):
    db = _session(data_dir)
    db.query(POINT_Q)
    tiny = IndexPartial(("age",))
    tiny.record(0, {"age": [33] * 10})
    _replace_indexes(db, "Patients", tiny)
    r = db.query(POINT_Q)
    assert r.stats.index_hits == 0
    assert any("rejected (coverage" in n for n in r.decisions.notes)


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------


def _touch(path):
    time.sleep(0.01)
    os.utime(path)


def test_append_extends_index_in_place(data_dir):
    db = _session(data_dir)
    db.query(POINT_Q)
    before = db.query(POINT_Q)
    assert before.stats.index_hits == 1
    with open(data_dir / "patients.csv", "a") as fh:
        fh.write("99999,33,cX\n")
    _touch(data_dir / "patients.csv")
    r = db.query(POINT_Q)
    # delta refresh re-keys the index to the new generation and extends it
    # with the appended tail, so the next query still serves through it —
    # and sees the new row
    assert r.stats.index_hits == 1
    assert any(rec["id"] == 99999 for rec in r.value)
    r2 = db.query(POINT_Q)
    assert r2.stats.index_hits == 1
    assert r2.value == r.value


def test_inplace_mutation_invalidates(data_dir):
    db = _session(data_dir)
    db.query(POINT_Q)
    old = db.query(POINT_Q).value
    lines = (data_dir / "patients.csv").read_text().splitlines(True)
    lines[1] = "0,33,c0\n"  # row 0 now matches
    (data_dir / "patients.csv").write_text("".join(lines))
    _touch(data_dir / "patients.csv")
    r = db.query(POINT_Q)
    assert {rec["id"] for rec in r.value} == {rec["id"] for rec in old} | {0}


# ---------------------------------------------------------------------------
# stats plumbing + opt-out
# ---------------------------------------------------------------------------


def test_disabled_sessions_never_use_indexes(data_dir):
    db = _session(data_dir, indexed=False)
    db.query(POINT_Q)
    r = db.query(POINT_Q)
    assert r.stats.index_builds == 0
    assert r.stats.index_hits == 0
    assert "index" not in r.decisions.access.values()
    assert "access=index" not in r.plan_text
