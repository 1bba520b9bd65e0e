"""Statistics-driven adaptive optimizer vs the syntax-order baseline.

Three measurements of the PR-9 feedback loop:

1. **Join ordering.** A 3-way join whose only good order is invisible to
   the syntax-driven greedy planner: the textually-first relation is the
   smallest *file* (so greedy drives from it) but fans out against the
   fact table, while a filter on the last relation is ~1000x more
   selective than the textbook guess — something only the collected NDV
   sketches reveal. Warm (stats collected, caches hot), the adaptive
   session must beat ``ViDa(adaptive_stats=False)`` by >= 2x.

2. **Engine selection.** With ``default_engine="auto"``, a tiny query
   must run on the static interpreter (zero codegen latency paid) while
   the join above picks JIT.

3. **Calibration.** The first cold scan is estimated with the
   hand-tuned constants; its measured timing recalibrates ``unit_ms``
   and the per-(format, access) factor, so an identical second cold scan
   is estimated strictly closer to its measured wall-clock.
"""

import gc
import math
import statistics
import time

from repro import EngineContext, ViDa
from repro.bench import emit, table

A_ROWS, B_ROWS, S_ROWS = 20000, 20000, 200

#: syntax order S, A, B: S is the smallest file (greedy drives from it)
#: but every S row matches A_ROWS/40 fact rows; b.v = 7 keeps ~20 rows
JOIN_Q = ("for { s <- S, a <- A, b <- B, s.k = a.k, a.id = b.id, b.v = 7 } "
          "yield sum 1")
TINY_Q = "for { t <- Tiny } yield sum t.v"


def write_datasets(d):
    with open(d / "a.csv", "w") as fh:
        fh.write("id,k,pad\n")
        for i in range(A_ROWS):
            fh.write(f"{i},{i % 40},{'x' * 24}\n")
    with open(d / "b.csv", "w") as fh:
        fh.write("id,v,pad\n")
        for i in range(B_ROWS):
            fh.write(f"{i},{i % 1000},{'x' * 24}\n")
    with open(d / "s.csv", "w") as fh:
        fh.write("k,name\n")
        for i in range(S_ROWS):
            fh.write(f"{i % 40},n{i}\n")
    with open(d / "tiny.csv", "w") as fh:
        fh.write("id,v\n")
        for i in range(30):
            fh.write(f"{i},{i}\n")


def register(db, d):
    db.register_csv("A", str(d / "a.csv"))
    db.register_csv("B", str(d / "b.csv"))
    db.register_csv("S", str(d / "s.csv"))
    db.register_csv("Tiny", str(d / "tiny.csv"))


def warm_median(db, query, runs=5):
    db.query(query)  # cold: collects stats / builds posmaps + caches
    db.query(query)  # replan with stats, warm the plan + compile caches
    times = []
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = db.query(query)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), result


def test_stats_join_order_beats_syntax_order(benchmark, tmp_path):
    write_datasets(tmp_path)

    def run():
        base = ViDa(adaptive_stats=False)
        adapt = ViDa()
        register(base, tmp_path)
        register(adapt, tmp_path)
        tb, rb = warm_median(base, JOIN_Q)
        ta, ra = warm_median(adapt, JOIN_Q)
        return tb, rb, ta, ra, base, adapt

    tb, rb, ta, ra, base, adapt = benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = tb / ta
    rows = [
        ["syntax-order baseline (warm ms)", f"{tb:.1f}",
         " -> ".join(rb.decisions.join_order)],
        ["adaptive stats (warm ms)", f"{ta:.1f}",
         " -> ".join(ra.decisions.join_order)],
        ["speedup", f"{speedup:.1f}x", ">= 2x required"],
    ]
    lines = table(["session", "median warm time", "join order"], rows)
    lines.append("")
    lines.append(f"adaptive decisions: {ra.decisions.summary().splitlines()[0]}")
    emit("adaptive optimizer — stats-driven join order", lines)

    assert ra.value == rb.value, "both orders must produce the same answer"
    # the enumerator abandoned the syntax order and drove from the
    # post-filter-smallest relation, with cardinality estimates surfaced
    assert rb.decisions.join_order[0] == "s"
    assert ra.decisions.join_order[0] == "b"
    assert ra.decisions.join_order != rb.decisions.join_order
    assert len(ra.decisions.join_cards) == len(ra.decisions.join_order)
    assert "(~" in ra.decisions.summary()
    assert speedup >= 2.0, (
        f"adaptive join order must be >= 2x faster warm, got {speedup:.2f}x"
    )
    base.close()
    adapt.close()


def test_auto_engine_picks_static_for_tiny_queries(benchmark, tmp_path):
    write_datasets(tmp_path)

    def run():
        ctx = EngineContext()
        db = ViDa(context=ctx, default_engine="auto")
        register(db, tmp_path)
        tiny = db.query(TINY_Q)
        compilations_after_tiny = ctx.jit.stats.compilations
        join = db.query(JOIN_Q)
        return tiny, compilations_after_tiny, join, ctx, db

    tiny, compilations_after_tiny, join, ctx, db = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    lines = table(
        ["query", "engine", "reason"],
        [["30-row sum", tiny.stats.engine, tiny.decisions.engine_choice],
         ["3-way join", join.stats.engine, join.decisions.engine_choice]],
    )
    emit("adaptive optimizer — per-query engine selection", lines)

    assert tiny.stats.engine == "static"
    assert compilations_after_tiny == 0  # no codegen paid for 30 rows
    assert join.stats.engine == "jit"
    assert ctx.jit.stats.compilations > 0
    db.close()


def test_calibration_tightens_estimates(benchmark, tmp_path):
    write_datasets(tmp_path)
    # two identical files: T1's cold scan is estimated with the hand-tuned
    # constants, T2's with constants recalibrated from T1's measured time
    (tmp_path / "t2.csv").write_bytes((tmp_path / "a.csv").read_bytes())

    def run():
        ctx = EngineContext()
        db = ViDa(context=ctx)
        db.register_csv("T1", str(tmp_path / "a.csv"))
        db.register_csv("T2", str(tmp_path / "t2.csv"))
        factor0 = dict(ctx.calibration.factors)[("csv", "cold")]
        # the assertion compares two ~30 ms scans: keep a gen-2 collection
        # of the earlier tests' garbage from landing inside either of them
        gc.collect()
        r1 = db.query("for { t <- T1, t.k > 5 } yield sum 1")
        factor1 = ctx.calibration.factors[("csv", "cold")]
        gc.collect()
        r2 = db.query("for { t <- T2, t.k > 5 } yield sum 1")
        return r1, r2, factor0, factor1, ctx, db

    r1, r2, factor0, factor1, ctx, db = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    ratio1 = r1.stats.est_ms / max(r1.stats.execute_ms, 1e-6)
    ratio2 = r2.stats.est_ms / max(r2.stats.execute_ms, 1e-6)
    drift1, drift2 = abs(math.log(ratio1)), abs(math.log(ratio2))
    rows = [
        ["T1 (hand-tuned constants)", f"{r1.stats.est_ms:.1f}",
         f"{r1.stats.execute_ms:.1f}", f"{ratio1:.2f}x"],
        ["T2 (after one calibration)", f"{r2.stats.est_ms:.1f}",
         f"{r2.stats.execute_ms:.1f}", f"{ratio2:.2f}x"],
    ]
    lines = table(["cold scan", "est ms", "measured ms", "est/measured"], rows)
    lines.append("")
    lines.append(f"(csv, cold) factor: {factor0:.2f} -> {factor1:.2f}, "
                 f"unit_ms: {ctx.calibration.unit_ms:.2e}")
    emit("adaptive optimizer — measured-runtime calibration", lines)

    assert factor1 != factor0                  # a cost constant moved
    assert ctx.calibration.unit_ms is not None
    assert ctx.calibration.version >= 1
    assert drift2 < drift1, (
        f"calibrated estimate must sit closer to measured wall-clock "
        f"(|log est/measured| {drift1:.2f} -> {drift2:.2f})"
    )
    db.close()
