"""From repeats, spans and counters to named metrics; the printed table; the
``BENCH_<sha>.json`` file of a whole suite; and ``--compare``."""

from __future__ import annotations

import json
import math
import os
import pickle
import platform
import statistics
import subprocess
from time import perf_counter


def percentile(values: list[float], p: float) -> float:
    """Nearest rank: with 3 operations p90 and p99 are the slowest one."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def end_to_end(setups, repeats, side_ops, rss_mb) -> dict[str, list[float]]:
    """Samples per end-to-end metric; the reported value is their median.
    Latency percentiles are taken inside each repeat, so every sample of a
    metric describes the same amount of work."""
    ops = [op for r in repeats for op in r.ops] + side_ops

    def per_repeat(p):
        return [percentile([op.seconds for op in r.ops], p) * 1e3
                for r in repeats]

    return {
        "setup_s": setups,
        "wall_s": [r.wall_s for r in repeats],
        "ops_per_s": [sum(op.ok for op in r.ops) / r.wall_s for r in repeats],
        "lat_p50_ms": per_repeat(50),
        "lat_p90_ms": per_repeat(90),
        "lat_p99_ms": per_repeat(99),
        "first_answer_s": [op.seconds for op in ops if op.kind == "first"],
        "refresh_p50_ms": [op.seconds * 1e3 for op in ops
                           if op.kind == "refresh"],
        "peak_rss_mb": [rss_mb],
    }


def _dig(snapshot: dict, path: tuple):
    for key in path:
        snapshot = snapshot.get(key, {}) if isinstance(snapshot, dict) else {}
    return snapshot if isinstance(snapshot, (int, float)) else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, extras) -> dict[str, float]:
    """Every per-layer metric of one traced run. Times are self time (span
    minus children) per query in ms, over every traced repeat. Counts and
    the fractions made of them come from the first traced repeat alone
    (public counters around it, its queries' QueryStats, its spans), so
    they repeat exactly for a seed whatever the run's length."""
    agg = tracer.aggregate()
    n_queries = max(1, tracer.top_level_queries())
    n_spans, n_counted = tracer.counted
    queries = tracer.queries[:n_counted]
    stats = [s for s, _ in queries]
    first = traced[0]

    def self_ms(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0)
                   for n in names) * 1e3 / n_queries

    def delta(*path):
        return _dig(first.after, path) - _dig(first.before, path)

    def total(attr):
        return sum(getattr(s, attr) for s in stats)

    scans = {"csv": [], "json": []}
    raw_bytes = {"csv": 0, "json": 0}
    morsels = 0
    for name, start, end, _parent, _query, meta in tracer.spans[:n_spans]:
        if name.startswith("formats."):
            fmt = "csv" if "csvfmt" in name else "json"
            scans[fmt].append((meta["access"], meta["bytes"], end - start,
                               meta["rows"]))
            raw_bytes[fmt] += meta["bytes"]
        elif name == "raw.account":
            raw_bytes[meta["format"]] += meta["bytes"]
        elif name == "core.executor.procpool.map":
            morsels += meta["morsels"]

    def mb_per_s(fmt, access=None):
        picked = [s for s in scans[fmt] if access in (None, s[0]) and s[1]]
        return _ratio(sum(s[1] for s in picked) / 1e6,
                      sum(s[2] for s in picked))

    est = [abs(math.log(s.est_ms / s.execute_ms)) for s in stats
           if s.est_ms > 0 and s.execute_ms > 0]
    rows_in = total("raw_rows") + total("cache_rows")
    hits, compiles = delta("compile_cache", "hits"), \
        delta("compile_cache", "compilations")
    deltas, fulls = delta("delta_refreshes"), delta("full_invalidations")
    asof = [op.seconds for r in traced for op in r.ops if op.kind == "asof"]
    out = {
        "mcc.parse_ms": self_ms("mcc.parse"),
        "mcc.typecheck_ms": self_ms("mcc.typecheck"),
        "mcc.normalize_ms": self_ms("mcc.normalize"),
        # a prepared hit skips parse and normalize; SQL arrives as an AST
        # and never hits
        "mcc.prepared_hit_frac": _ratio(
            sum(1 for s in stats if s.normalize_ms == 0.0), len(stats)),
        "languages.sql.parse_ms": self_ms("languages.sql.parse"),
        "core.optimizer.plan_ms": self_ms("core.optimizer.plan"),
        "core.optimizer.plan_cached_frac": _ratio(
            sum(1 for s in stats if s.plan_cached), len(stats)),
        "core.optimizer.est_error": statistics.median(est) if est else 0.0,
        "core.codegen.compile_ms": self_ms("core.codegen.compile"),
        "core.codegen.compiles": compiles,
        "core.codegen.cache_hit_frac": _ratio(hits, hits + compiles),
        "core.executor.execute_ms": self_ms("core.executor.execute"),
        "core.executor.rows_per_s": _ratio(
            rows_in, total("execute_ms") / 1e3),
        "core.executor.jit_vs_static_x": 0.0,
        "core.executor.procpool.map_ms": self_ms("core.executor.procpool.map"),
        "core.executor.procpool.morsels": morsels,
        "core.executor.procpool.efficiency": 0.0,
        "core.executor.procpool.pickle_mb_per_s":
            pickle_mb_per_s(tracer.partials),
        "formats.csvfmt.scan_ms": self_ms("formats.csvfmt.scan"),
        "formats.csvfmt.cold_mb_per_s": mb_per_s("csv", "cold"),
        "formats.csvfmt.posmap_mb_per_s": mb_per_s("csv", "warm"),
        "formats.csvfmt.raw_bytes": raw_bytes["csv"],
        "formats.csvfmt.raw_rows": sum(s[3] for s in scans["csv"]),
        "formats.jsonfmt.scan_ms": self_ms("formats.jsonfmt.scan"),
        "formats.jsonfmt.mb_per_s": mb_per_s("json"),
        "formats.jsonfmt.raw_bytes": raw_bytes["json"],
        "caching.hit_frac": _ratio(total("cache_rows"), rows_in),
        "caching.lookup_ms": self_ms("caching.lookup"),
        "caching.admit_ms": self_ms("caching.admit", "caching.extend"),
        "caching.used_mb": _dig(first.after, ("cache", "used_bytes")) / 1e6,
        "caching.evictions": delta("cache", "evictions"),
        "indexing.build_ms": self_ms("indexing.build"),
        "indexing.lookup_ms": self_ms("indexing.lookup"),
        "indexing.hit_frac": _ratio(
            sum(1 for s in stats if s.index_hits), len(stats)),
        # raw_rows already counts rows fetched through an index
        "indexing.rows_examined_per_result": _ratio(
            rows_in, sum(n for _, n in queries)),
        "stats.record_ms": self_ms("stats.record"),
        "stats.adoptions": delta("stats_adoptions"),
        "stats.discards": delta("stats_discards"),
        "core.engine.refresh_ms": self_ms("core.engine.refresh"),
        "core.engine.delta_refresh_frac": _ratio(deltas, deltas + fulls),
        "core.engine.delta_tail_bytes": delta("delta_tail_bytes"),
        "core.engine.stale_discards": (
            delta("posmap_discards") + delta("index_discards")
            + delta("stats_discards") + delta("stale_admissions_dropped")),
        "core.generations.asof_ms":
            statistics.median(asof) * 1e3 if asof else 0.0,
        "core.generations.pinned_frac": 0.0,
        "server.overhead_ms": 0.0,
        "server.refused": delta("server", "quota_rejections"),
        "server.encode_ms": 0.0,
        "warehouse.colstore_prep_s": 0.0,
        "warehouse.colstore_total_s": 0.0,
        "warehouse.vs_vida_x": 0.0,
        # neighbours in time, so a drifting machine cancels out of each pair
        "trace.overhead_frac": statistics.median(
            (t.wall_s - u.wall_s) / u.wall_s for u, t in zip(untraced, traced)),
    }
    out.update(extras)
    return out


def pickle_mb_per_s(partials) -> float:
    """Round-trip rate of the packed partials one morsel map returned."""
    if not partials:
        return 0.0
    size = len(pickle.dumps(partials))
    t0 = perf_counter()
    for _ in range(5):
        pickle.loads(pickle.dumps(partials))
    return size * 5 / 1e6 / (perf_counter() - t0)


def isolation(workload: str, layers: dict, traced: list) -> list:
    """The statements about which layer a workload must bypass, as
    (statement, holds). Printed, never part of ``correct``: a later change
    may legitimately move one, and then says so."""
    checks = [("trace.overhead_frac < 0.10",
               layers["trace.overhead_frac"] < 0.10)]
    if workload in ("warm_adhoc", "server_closed_loop"):
        checks.append(("formats.*.raw_bytes = 0",
                       layers["formats.csvfmt.raw_bytes"]
                       + layers["formats.jsonfmt.raw_bytes"] == 0))
    if workload == "cold_scan":
        checks.append(("caching.hit_frac = 0 and indexing.hit_frac = 0",
                       layers["caching.hit_frac"] == 0
                       and layers["indexing.hit_frac"] == 0))
    if workload == "evolving_files":
        appended = traced[0].appended_bytes
        checks.append((f"core.engine.delta_tail_bytes = {appended} appended",
                       layers["core.engine.delta_tail_bytes"] == appended))
    return checks


# -- printing -------------------------------------------------------------------


def table(rows: list[list]) -> str:
    cells = [[c if isinstance(c, str) else f"{c:.6g}" for c in r]
             for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in cells)


def metric_rows(samples: dict[str, list[float]], units: dict[str, str]):
    rows = [["metric", "unit", "median", "q1", "q3", "n"]]
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        rows.append([name, units[name], q2, q1, q3, str(len(values))])
    return rows


# -- the suite file and --compare -------------------------------------------------


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "platform": platform.platform()}


def git_sha(root: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"   # the driver's checkout is not a repository


def compare(path_a: str, path_b: str, declared: list[dict]) -> tuple[str, bool]:
    """One row per workload x end-to-end metric: ``ok`` when B's median is no
    worse than A's by more than the metric's bound, ``regressed`` when it is,
    ``unresolved`` when the runs cannot tell: a side's median is itself
    uncertain by more than the bound (its samples' quartile spread over the
    square root of their number, as a share of the median)."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows = [["workload", "metric", "A", "B", "worse by", "bound", "verdict"]]
    clean = True
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            ma, mb = side_a["end_to_end"][name], side_b["end_to_end"][name]
            worse = (mb["median"] - ma["median"]) / ma["median"]
            if metric["better"] == "higher":
                worse = -worse
            unsure = max((m["q3"] - m["q1"]) / m["median"] / math.sqrt(m["n"])
                         for m in (ma, mb))
            verdict = ("unresolved" if unsure > bound
                       else "regressed" if worse > bound else "ok")
            clean &= verdict == "ok"
            rows.append([workload, name, ma["median"], mb["median"],
                         f"{worse:+.1%}", f"{bound:.0%}", verdict])
    return table(rows), clean
