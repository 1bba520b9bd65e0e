"""Statistics-driven adaptive optimizer: JIT table stats, join ordering,
measured-runtime calibration, and epoch-keyed prepared plans.

The tentpole invariants: statistics collected as scan byproducts are
bit-identical whatever the degree of parallelism or morsel substrate that
collected them; stale partials die at the generation gate exactly like
posmaps and value indexes; the enumerator's join order comes from the
numbers, not the query text; and a prepared plan is never served across a
stats/calibration shift.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import EngineContext, ViDa
from repro.caching import DataCache
from repro.core.executor.runtime import QueryRuntime
from repro.core.physical import PhysScan
from repro.core.optimizer import cost as C
from repro.core.optimizer import enumerator as E
from repro.stats import ColumnSketch, CostCalibration, ScanTiming

ROWS = 20000
SUM_Q = "for { t <- T, t.age > 40 } yield sum t.score"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    # padded wide enough that the cost model actually picks process morsels
    path = tmp_path_factory.mktemp("adaptive") / "t.csv"
    with open(path, "w") as fh:
        fh.write("id,age,score,pad\n")
        for i in range(ROWS):
            fh.write(f"{i},{20 + i % 60},{i * 3 % 101},{'x' * 64}\n")
    return str(path)


@pytest.fixture
def join_dir(tmp_path):
    with open(tmp_path / "big.csv", "w") as fh:
        fh.write("id,k,v\n")
        for i in range(9000):
            fh.write(f"{i},{i % 40},{i % 7}\n")
    with open(tmp_path / "mid.csv", "w") as fh:
        fh.write("id,k\n")
        for i in range(1500):
            fh.write(f"{i},{i % 40}\n")
    with open(tmp_path / "small.csv", "w") as fh:
        fh.write("k,name\n")
        for i in range(40):
            fh.write(f"{i},n{i}\n")
    return tmp_path


# ---------------------------------------------------------------------------
# collection: bit-identical statistics across DoP and morsel substrate
# ---------------------------------------------------------------------------


def table_stats(ctx) -> dict:
    """Every registered source's statistics, in comparable form."""
    states = {name: ctx.catalog.get(name).state for name in ctx.catalog.names()}
    return {name: state.stats.snapshot()
            for name, state in sorted(states.items())
            if state.stats is not None}


def collect_snapshot(csv_path, parallelism, backend):
    ctx = EngineContext()
    db = ViDa(context=ctx, parallelism=parallelism, backend=backend)
    db.register_csv("T", csv_path)
    r = db.query(SUM_Q)
    snap = table_stats(ctx)
    db.close()
    ctx.close()
    return r.value, snap, r.decisions


@pytest.mark.parametrize("backend", ["process"])
def test_stats_bit_identical_across_dop(csv_path, backend):
    """The KMV sketches keep the K smallest hashes ever inserted and
    min/max/count merges are order-free, so serial, 2-way and 4-way
    collection on worker processes produce the same bytes."""
    ref_value, ref_snap, _ = collect_snapshot(csv_path, 1, "process")
    assert ref_snap["T"][0] == ROWS  # exact row count from the complete scan
    cols = dict(ref_snap["T"][1])
    assert set(cols) == {"age", "score"}  # only the touched fields
    for dop in (2, 4):
        value, snap, decisions = collect_snapshot(csv_path, dop, backend)
        # the requested substrate really ran — no silent serial fallback
        assert decisions.parallel.get("t", 1) == dop
        assert value == ref_value
        assert snap == ref_snap, f"stats differ at dop={dop}/{backend}"


def test_ndv_and_minmax_are_exactish(csv_path):
    _, snap, _ = collect_snapshot(csv_path, 1, "process")
    cols = dict(snap["T"][1])
    # age ∈ [20, 79], 60 distinct; under K=256 the sketch is exact
    count, nulls, num_min, num_max, _smin, _smax, hashes = cols["age"]
    assert (count, nulls) == (ROWS, 0)
    assert (num_min, num_max) == (20, 79)
    assert len(hashes) == 60


def test_concurrent_sessions_adopt_stats_once(csv_path):
    ctx = EngineContext()
    sessions = [ViDa(context=ctx) for _ in range(4)]
    sessions[0].register_csv("T", csv_path)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait()
        results[i] = sessions[i].query(SUM_Q).value

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    # adopt-or-skip: whoever lost the race changed nothing, so the stored
    # stats match a serial run bit for bit
    assert table_stats(ctx) == collect_snapshot(csv_path, 1, "process")[1]
    for s in sessions:
        s.close()


# ---------------------------------------------------------------------------
# generation gate: stale stats partials never poison fresh state
# ---------------------------------------------------------------------------


def test_stale_stats_partial_discarded(csv_path, tmp_path):
    # private copy: this test mutates the file
    path = tmp_path / "t.csv"
    path.write_text(open(csv_path).read())
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", str(path))
    rt = QueryRuntime(ctx.catalog, DataCache(0), engine=ctx,
                      table_stats=True)
    rt.touch_generation("T")  # scan-start capture, pre-mutation

    with open(path, "a") as fh:
        fh.write(f"{10**6},99,1\n")
    assert ctx.refresh_source("T") is False  # generation bumped

    for _ in rt.scan(PhysScan("T", "t", "csv", ("age",), "cold")):
        pass
    assert ctx.stats.stats_discards >= 1
    assert ctx.stats.stats_adoptions == 0
    # nothing stale surfaced
    assert ctx.catalog.get("T").state.stats is None
    db.close()


# ---------------------------------------------------------------------------
# planning: stats-driven join order, selectivities, EXPLAIN surfacing
# ---------------------------------------------------------------------------


def join_query():
    return ("for { b <- Big, m <- Mid, s <- Small, b.k = m.k, m.k = s.k } "
            "yield sum 1")


def test_join_order_from_stats_not_syntax(join_dir):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("Big", str(join_dir / "big.csv"))
    db.register_csv("Mid", str(join_dir / "mid.csv"))
    db.register_csv("Small", str(join_dir / "small.csv"))
    db.query(join_query())  # collects stats as byproducts
    r = db.query(join_query())
    # syntax order is b, m, s; with exact row counts the enumerator
    # drives from the smallest relation instead
    assert r.decisions.join_order[0] == "s"
    assert r.decisions.join_order != ["b", "m", "s"]
    # EXPLAIN surfaces per-step cardinalities and per-scan estimates
    assert len(r.decisions.join_cards) == len(r.decisions.join_order)
    assert r.decisions.est_rows["b"] == 9000.0
    assert "est[" in r.decisions.summary()
    assert "(~" in r.decisions.summary()
    assert "est_rows=" in r.plan_text
    db.close()


def test_stats_selectivity_bounds_estimates(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    db.query(SUM_Q)
    # age ∈ [20, 79]: a probe outside the observed domain estimates empty
    r = db.query("for { t <- T, t.age = 500 } yield sum t.score")
    assert r.decisions.est_rows["t"] == 1.0  # floor(max(1, rows × 0))
    # and an in-domain range uses min/max interpolation, not the 0.3 guess
    r2 = db.query("for { t <- T, t.age > 75 } yield sum t.score")
    assert r2.decisions.est_rows["t"] < 0.2 * ROWS
    db.close()


def test_adaptive_off_is_the_syntax_baseline(join_dir):
    db = ViDa(adaptive_stats=False)
    db.register_csv("Big", str(join_dir / "big.csv"))
    db.register_csv("Mid", str(join_dir / "mid.csv"))
    db.register_csv("Small", str(join_dir / "small.csv"))
    db.query(join_query())
    r = db.query(join_query())
    assert r.decisions.join_cards == []          # no cardinality estimates
    assert table_stats(db.engine_context) == {}  # no collection
    assert db.engine_context.calibration.version == 0      # no learning
    db.close()


def test_missing_cost_factor_is_surfaced(csv_path, monkeypatch):
    monkeypatch.delitem(C.COST_FACTORS, ("csv", "cold"))
    db = ViDa(adaptive_stats=False)  # no calibration to paper over the hole
    db.register_csv("T", csv_path)
    r = db.query(SUM_Q)
    assert any("no cost factor" in n and "csv" in n for n in r.decisions.notes)
    db.close()


# ---------------------------------------------------------------------------
# the enumerator itself
# ---------------------------------------------------------------------------


class _U:
    def __init__(self, var, est_rows, est_cost=0.0, kind="scan",
                 deps=frozenset()):
        self.var, self.kind, self.deps = var, kind, deps
        self.est_rows, self.est_cost = float(est_rows), float(est_cost)


def test_enumerator_prefers_selective_start():
    units = [_U("a", 9000), _U("m", 1500), _U("s", 40)]
    edges = {E.edge_key("a", "m"): 1 / 40, E.edge_key("m", "s"): 1 / 40}
    ordered = E.enumerate_order(units, edges)
    assert [u.var for u in ordered] == ["s", "m", "a"]
    cards = E.estimate_cards(ordered, edges)
    assert len(cards) == 3 and cards[0] == 40.0


def test_enumerator_avoids_cross_joins():
    # s joins only a; putting m before a would cross-join
    units = [_U("a", 1000), _U("m", 500), _U("s", 10)]
    edges = {E.edge_key("s", "a"): 0.001, E.edge_key("a", "m"): 0.01}
    ordered = [u.var for u in E.enumerate_order(units, edges)]
    assert ordered.index("a") < ordered.index("m")


def test_enumerator_respects_unnest_deps():
    units = [_U("u", 10, kind="unnest", deps=frozenset({"a"})), _U("a", 5)]
    ordered = E.enumerate_order(units, edges={})
    assert [u.var for u in ordered] == ["a", "u"]


def test_enumerator_cutoffs():
    assert E.enumerate_order([_U("a", 1)], {}) is None  # nothing to order
    many = [_U(f"v{i}", 10) for i in range(E.MAX_DP_UNITS + 1)]
    assert E.enumerate_order(many, {}) is None          # past the DP cutoff


def test_enumerator_deterministic_tiebreak():
    units = [_U("b", 100), _U("a", 100)]
    for _ in range(3):
        assert [u.var for u in E.enumerate_order(list(units), {})][0] == "a"


# ---------------------------------------------------------------------------
# measured-runtime calibration
# ---------------------------------------------------------------------------


def _predicted_ms(cal, t):
    return cal.estimated_ms(cal._predicted_units(t, cal.factors[(t.format,
                                                                 t.access)]))


def test_calibration_constants_move_and_ratio_tightens():
    cal = CostCalibration()
    base = cal.factors[("csv", "cold")]
    t = ScanTiming("T", "csv", "cold", rows=10000, nfields=2, chunks=3,
                   seconds=0.5)
    assert abs(math.log(0.5e3 / _predicted_ms(cal, t))) > 0.0
    before = abs(math.log(0.5e3 / _predicted_ms(cal, t)))
    for _ in range(6):
        assert cal.observe([t]) == 1
    after = abs(math.log(0.5e3 / _predicted_ms(cal, t)))
    assert after < before          # est vs measured converges
    assert cal.factors[("csv", "cold")] != base
    assert cal.unit_ms is not None
    assert cal.version >= 6


def test_calibration_noise_floor_and_unknown_pairs():
    cal = CostCalibration()
    tiny = ScanTiming("T", "csv", "cold", rows=8, nfields=1, chunks=1,
                      seconds=0.2)
    unknown = ScanTiming("T", "xml", "cold", rows=5000, nfields=1, chunks=1,
                         seconds=0.2)
    assert cal.observe([tiny, unknown]) == 0
    assert cal.version == 0 and cal.unit_ms is None


def test_calibration_drift_is_clamped():
    cal = CostCalibration()
    base = cal.factors[("csv", "cold")]
    slow = ScanTiming("T", "csv", "cold", rows=50000, nfields=4, chunks=10,
                      seconds=600.0)
    for _ in range(100):
        cal.observe([slow])
    assert cal.factors[("csv", "cold")] <= base * 8.0 + 1e-9


def test_queries_feed_calibration(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", csv_path)
    v0 = ctx.calibration.version
    r = db.query(SUM_Q)
    assert ctx.calibration.version > v0      # serial cold scan was timed
    assert ctx.calibration.unit_ms is not None
    assert r.stats.est_cost_units > 0
    r2 = db.query(SUM_Q)
    assert r2.stats.est_ms > 0               # estimate now in wall-clock ms
    db.close()


# ---------------------------------------------------------------------------
# epoch-keyed prepared plans: never serve a plan across a stats shift
# ---------------------------------------------------------------------------


def test_prepared_plan_replans_when_epoch_moves(csv_path, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(open(csv_path).read())
    ctx = EngineContext()
    db = ViDa(context=ctx)
    db.register_csv("T", str(path))

    r1 = db.query(SUM_Q)
    assert not r1.stats.plan_cached          # first sight: planned
    r2 = db.query(SUM_Q)
    assert not r2.stats.plan_cached          # stats + cache moved the epoch
    r3 = db.query(SUM_Q)
    assert r3.stats.plan_cached              # steady state: reuse
    assert r3.value == r1.value
    assert r3.stats.plan_ms < r2.stats.plan_ms or r3.stats.plan_ms < 1.0

    with open(path, "a") as fh:
        fh.write(f"{10**6},99,1\n")
    r4 = db.query(SUM_Q)                     # generation bump → replan
    assert not r4.stats.plan_cached
    assert r4.value != r1.value              # and the answer sees the new row
    db.close()


def test_prepared_plan_reuse_does_not_leak_decisions(csv_path):
    ctx = EngineContext()
    db = ViDa(context=ctx, default_engine="auto")
    db.register_csv("T", csv_path)
    for _ in range(3):
        db.query(SUM_Q)
    r = db.query(SUM_Q)
    assert r.stats.plan_cached
    # the cached entry's decisions are cloned per execution: engine_choice
    # set on one result never accretes into the stored copy
    assert r.decisions.engine_choice.startswith(("jit", "static"))
    (slot,) = ctx.prepared(("mcc", SUM_Q)).plans.values()
    assert slot[2].engine_choice == ""  # (epoch, plan, decisions, ...)
    db.close()


# ---------------------------------------------------------------------------
# per-query engine selection (default_engine="auto")
# ---------------------------------------------------------------------------


def test_auto_engine_picks_static_for_tiny_jit_for_big(csv_path, tmp_path):
    tiny = tmp_path / "tiny.csv"
    with open(tiny, "w") as fh:
        fh.write("id,v\n")
        for i in range(20):
            fh.write(f"{i},{i}\n")
    ctx = EngineContext()
    db = ViDa(context=ctx, default_engine="auto")
    db.register_csv("T", csv_path)
    db.register_csv("Tiny", str(tiny))

    small = db.query("for { x <- Tiny } yield sum x.v")
    assert small.stats.engine == "static"
    assert "static" in small.decisions.engine_choice
    compilations = ctx.jit.stats.compilations
    assert compilations == 0                 # no codegen paid for 20 rows

    big = db.query(SUM_Q)
    assert big.stats.engine == "jit"
    assert "jit" in big.decisions.engine_choice
    assert ctx.jit.stats.compilations > compilations
    db.close()


def test_auto_engine_reuses_cached_compilations(csv_path):
    ctx = EngineContext()
    warm = ViDa(context=ctx)                 # compiles the plan shape
    warm.register_csv("T", csv_path)
    warm.query(SUM_Q)
    warm.query(SUM_Q)

    auto = ViDa(context=ctx, default_engine="auto")
    r = auto.query(SUM_Q)
    assert r.stats.engine == "jit"
    assert "cached" in r.decisions.engine_choice
    warm.close()
    auto.close()


# ---------------------------------------------------------------------------
# sketch unit behaviour
# ---------------------------------------------------------------------------


def test_sketch_merge_order_independent():
    a, b, c = ColumnSketch(), ColumnSketch(), ColumnSketch()
    for i in range(5000):
        a.add(i)
    for i in range(2500, 7500):
        b.add(i)
    for i in range(7500):
        c.add(i)
    a.merge(b)
    assert a.snapshot() == c.snapshot()
    assert 6000 <= a.estimate() <= 9000      # KMV within ~20 % at K=256


def test_sketch_collapses_equal_python_values():
    s = ColumnSketch()
    for v in (1, 1.0, True, "1"):
        s.add(v)
    # 1 == 1.0 == True in Python; "1" differs — exactly two distincts
    assert s.estimate() == 2
