"""ViDa's one benchmark.

One workload, the way the driver runs it (last stdout line is the result)::

    python3 vidabench/run.py --workload warm_adhoc --seed 1 --seconds 8 --trace 0

All six, each in its own process, with a table, ``out/BENCH_<sha>.json`` and
optionally the traced (per-layer) run of each::

    python3 vidabench/run.py [--seed N] [--quick] [--traced] [--only WORKLOAD]
    python3 vidabench/run.py --compare out/BENCH_a.json out/BENCH_b.json

BENCHMARK.json at the repository root declares the names, units and bounds;
this program refuses to report a metric set that differs from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

SETUPS = 5        # set-ups per run; setup_s is their median
DEFAULT_SEED = 42


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def wait_for_children() -> None:
    """Nothing a run started may outlive it, and RUSAGE_CHILDREN counts only
    the waited-for: the engine's pool shuts down without waiting for its
    workers."""
    for worker in multiprocessing.active_children():
        worker.join()


def stop_resource_tracker() -> None:
    """The spawn context's resource tracker exits only once its parent has,
    so it would outlive the run. Stop it last: whatever still holds a
    semaphore when it is gone starts a new one while the interpreter exits."""
    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def peak_rss_mb() -> float:
    """This process, plus the largest worker process it has waited for."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, quick: bool) -> dict:
    from harness import report
    from harness.clock import normalized
    from harness.trace import Tracer
    from harness.workloads import WORKLOADS

    if quick:
        seconds = 0.0     # one repeat (and one traced one) whatever it takes
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    tracer = Tracer()
    workload = None
    setups, side_ops = [], []
    try:
        for _ in range(1 if quick else SETUPS):
            if workload is not None:
                workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
            workload = WORKLOADS[name](workdir, seed, quick)
            # first answers timed during discarded set-ups still count
            workload.side_ops = side_ops
            setups.append(normalized(workload, workload.setup)[0])

        # traced and untraced repeats alternate, so both see the same
        # machine state and their difference is the tracing overhead
        untraced, traced = [], []
        measured = 0.0
        while measured < seconds or not untraced or (trace and not traced):
            tracing = trace and len(traced) < len(untraced)
            normalized(workload, workload.prepare)
            if tracing:
                tracer.install()
            try:
                _, repeat = normalized(workload, workload.repeat,
                                       workload.normalize_repeats)
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).append(repeat)
            measured += repeat.wall_s
            if tracing and len(traced) == 1:
                tracer.mark_counted()

        verified = workload.verify()
        extras = {}
        if trace:
            extras = workload.extras(untraced)
            extras["core.executor.jit_vs_static_x"] = jit_vs_static(workload)
        normalized(workload, workload.refresh_probe)
    finally:
        if workload is not None:
            workload.close()
        wait_for_children()
        shutil.rmtree(workdir, ignore_errors=True)

    repeats = untraced + traced
    ops = [op for r in repeats for op in r.ops] + side_ops
    failed = sum(not op.ok for op in ops)
    result = {"correct": bool(verified and not failed),
              "attempted": len(ops), "failed": failed}
    if trace:
        layers = report.per_layer(tracer, traced, untraced, extras)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        check_names(layers, units)
        print(report.table([["layer metric", "unit", "value"]] + [
            [k, units[k], float(v)] for k, v in layers.items()]))
        checks = report.isolation(name, layers, traced)
        for statement, holds in checks:
            print(f"isolation: {statement}: {'holds' if holds else 'BROKEN'}")
        tracer.write(os.path.join(OUT, f"trace_{name}.json"))
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in layers.items()}
        detail = {"per_layer": layers,
                  "isolation": [[s, bool(h)] for s, h in checks]}
    else:
        # end-to-end numbers never come from a traced run
        samples = report.end_to_end(setups, untraced, side_ops, peak_rss_mb())
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        check_names(samples, units)
        print(report.table(report.metric_rows(samples, units)))
        result["metrics"] = {k: {"value": statistics.median(v),
                                 "unit": units[k]}
                             for k, v in samples.items()}
        detail = {"end_to_end": {
            k: dict(zip(("q1", "median", "q3"), report.quartiles(v)),
                    n=len(v)) for k, v in samples.items()}}
    detail.update(result, workload=name, seed=seed)
    with open(os.path.join(OUT, f"last_{name}_{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return result


def check_names(got: dict, units: dict) -> None:
    if list(got) != list(units):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(got) ^ set(units)) or 'order'}")


def jit_vs_static(workload) -> float:
    """The same queries on both engines over the workload's own files, warm
    (the second run of each is timed): static time over JIT time."""
    from harness.clock import timed
    from harness.workloads import register
    from repro import ViDa

    db = ViDa()
    try:
        register(db, workload.sources())
        total = {"jit": 0.0, "static": 0.0}
        for text in workload.sample():
            for engine in total:
                db.query(text, engine=engine)
                total[engine] += timed(db.query, text, engine=engine)[0]
        return total["static"] / total["jit"]
    finally:
        db.close()


# -- the whole suite ----------------------------------------------------------------


def run_suite(spec: dict, opts) -> int:
    from harness import report

    names = [w["name"] for w in spec["workloads"]
             if opts.only in (None, w["name"])]
    if not names:
        raise SystemExit(f"unknown workload {opts.only!r}")
    suite = {"seed": opts.seed, "quick": opts.quick, "claim": None,
             "sha": report.git_sha(ROOT), "machine": report.machine(),
             "workloads": {}}
    ok = True
    for name in names:
        entry = suite["workloads"][name] = {}
        for trace in (0, 1) if opts.traced else (0,):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(opts.seed),
                   "--seconds", str(opts.seconds), "--trace", str(trace)]
            if opts.quick:
                cmd.append("--quick")
            print(f"\n== {name} ({'traced' if trace else 'end to end'}) ==",
                  flush=True)
            # one process per workload: peak RSS and warm state never leak
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            *table_lines, last = done.stdout.strip().splitlines() or [""]
            print("\n".join(table_lines))
            if done.returncode != 0:
                print(f"{name}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(last)
            print(f"correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}")
            ok &= result["correct"]
            with open(os.path.join(OUT, f"last_{name}_{trace}.json")) as fh:
                entry.update(json.load(fh))
    path = os.path.join(OUT, f"BENCH_{suite['sha']}.json")
    if os.path.exists(path):
        # a second set of runs of the same commit, kept for --compare
        path = path[:-5] + f".{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(suite, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in-process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure this long (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: one set-up, one repeat, a quarter of "
                         "the operations, the same data shapes")
    ap.add_argument("--traced", action="store_true",
                    help="suite: also run each workload traced")
    ap.add_argument("--only", help="suite: just this workload")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    opts = ap.parse_args(argv)

    spec = declared()
    if opts.compare:
        from harness import report

        text, clean = report.compare(*opts.compare, spec["end_to_end"])
        print(text)
        return 0 if clean else 1
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    if opts.workload is None:
        return run_suite(spec, opts)
    result = run_workload(spec, opts.workload, opts.seed, opts.seconds,
                          bool(opts.trace), opts.quick)
    print(json.dumps(result), flush=True)
    stop_resource_tracker()
    return 0


# the process pool uses the spawn context: without this guard every worker
# would re-execute the benchmark
if __name__ == "__main__":
    sys.exit(main())
