"""Selection-vector filters + vectorized joins — vec vs row-at-a-time.

The batch pipeline (PR 1/2) moved scans to columnar chunks but predicates
and join build/probe still ran row-at-a-time. This benchmark measures the
selection-vector execution strategy on *warm* CSV scans (positional map
complete, cache disabled so raw navigation stays on the hot path):

- a selective filter (~9% selectivity: ``age >= 89`` over uniform 18-95)
  whose warm scan late-materialises — the predicate column is navigated
  densely, every other column only at surviving row indexes;
- the same filter feeding a vectorized hash join (key-column build kernel,
  batched probe lookups emitting a matched-selection vector, root fold
  fused over the survivors).

``ViDa(vector_filters=False)`` compiles the exact row-at-a-time evaluation
this PR replaced, so the comparison is self-contained: identical plans,
identical answers, only the filter/join execution strategy differs. The
selective warm filter must run >= 1.3x faster vectorized, serial and DoP 2
answers must be bit-identical to the row path.
"""

import time

from repro.bench import emit, table
from repro.core.session import ViDa


#: (label, query) — predicates chosen for <=10% selectivity on HBP Patients
QUERIES = [
    ("selective warm filter",
     "for { p <- Patients, p.age >= 89 } "
     "yield bag (id := p.id, h := p.height)"),
    ("selective filter + join",
     "for { p <- Patients, g <- Genetics, p.id = g.id, p.age >= 89 } "
     "yield sum g.snp_7"),
]


def _warm_session(datasets, vec: bool, dop: int = 1) -> ViDa:
    """A session with complete positional maps and neither cache nor index
    service, so every timed query runs the warm raw-CSV path (with indexes
    on, the first repeat builds ``index[age]`` and both sides would time
    the index fetch instead of navigation)."""
    db = ViDa(vector_filters=vec, parallelism=dop, enable_cache=False,
              enable_indexes=False)
    db.register_csv("Patients", datasets.patients_csv)
    db.register_csv("Genetics", datasets.genetics_csv)
    for q in ("for { p <- Patients } yield count 1",
              "for { g <- Genetics } yield count 1"):
        db.query(q)  # cold pass: builds the positional maps
    return db


def _best_seconds(db: ViDa, query: str, repeats: int = 5):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = db.query(query).value
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_filtered_scan_vectorization(benchmark, hbp):
    datasets, _queries = hbp

    def run():
        out = []
        for name, query in QUERIES:
            row = _warm_session(datasets, vec=False)
            vec = _warm_session(datasets, vec=True)
            vec2 = _warm_session(datasets, vec=True, dop=2)
            t_row, v_row = _best_seconds(row, query)
            t_vec, v_vec = _best_seconds(vec, query)
            t_vec2, v_vec2 = _best_seconds(vec2, query)
            # serial and parallel vectorized answers == row-at-a-time answers
            assert v_vec == v_row, name
            assert v_vec2 == v_row, name
            out.append((name, t_row, t_vec, t_vec2))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, t_row, t_vec, t_vec2 in results:
        rows.append([name, f"{t_row * 1e3:.1f}", f"{t_vec * 1e3:.1f}",
                     f"{t_vec2 * 1e3:.1f}", f"{t_row / t_vec:.2f}x"])
    lines = table(
        ["query", "row-at-a-time (ms)", "vec (ms)", "vec DoP 2 (ms)",
         "speedup"],
        rows,
    )
    lines.append("")
    lines.append("selection vectors: predicate kernels narrow each chunk, "
                 "warm CSV late-materialises survivors only; joins build/"
                 "probe via batched key kernels.")
    emit("Selection-vector filters + vectorized joins (warm CSV)", lines)

    name, t_row, t_vec, _t_vec2 = results[0]
    assert t_row / t_vec >= 1.3, (
        f"{name}: vectorized warm filter ran {t_row / t_vec:.2f}x the "
        "row-at-a-time baseline; expected >= 1.3x"
    )
