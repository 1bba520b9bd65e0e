"""Cost model with per-format wrappers (paper §5, "Perils of Classical
Optimization on Raw Data").

"For operators accessing raw data the cost per attribute fetched may vary
between attributes due to the effort needed to navigate in the file. …
ViDa uses a wrapper per file format, similar to Garlic; the wrapper takes
into account any auxiliary structures present and normalizes access costs
for the attributes requested."

Costs are in abstract units of "one attribute fetched from a warm DBMS
buffer pool" (the paper's ``const_cost``). A CSV file with no positional
index is estimated at ``3 × const_cost`` per tuple — the paper's own
example figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...mcc import ast as A
from ...storage.io import RUN_GAP_BYTES

#: cost per (tuple, attribute) relative to a loaded DBMS, by access path
CONST_COST = 1.0
COST_FACTORS = {
    ("csv", "cold"): 3.0,      # tokenize + parse + convert (paper's example)
    ("csv", "warm"): 1.3,      # positional-map navigation + convert
    ("json", "cold"): 5.0,     # object parse dominates
    ("json", "warm"): 2.2,     # semi-index jump + parse of needed objects
    ("json", "positions"): 0.2,  # carry spans only
    ("array", "cold"): 0.9,    # fixed-width binary decode
    ("array", "warm"): 0.9,
    ("xls", "cold"): 1.8,      # tagged-cell decode
    ("xls", "warm"): 1.8,
    ("memory", "memory"): 0.2,
    ("cache", "cache"): 0.3,   # columnar cache iteration
    ("dbms", "warm"): 1.0,
}

#: default predicate selectivities by comparison operator
SELECTIVITY = {"=": 0.1, "!=": 0.9, "<": 0.3, "<=": 0.3, ">": 0.3, ">=": 0.3,
               "like": 0.25, "in": 0.2}

#: bounds for the vectorized scan pipeline's rows-per-chunk choice
MIN_BATCH_SIZE = 64
MAX_BATCH_SIZE = 4096
#: soft cap on materialised values per chunk (rows × extracted fields)
TARGET_CHUNK_VALUES = 32768

# The batch pipeline has two separately measurable cost components that the
# original model blended into one per-value figure:
#
# - **per-chunk dispatch** — one generator resume + Chunk construction +
#   engine loop setup per batch, *independent of batch width*;
# - **per-value conversion** — tokenize/parse/convert work that scales with
#   rows × extracted fields (the COST_FACTORS table, per access path).
#
# Measured on the HBP benchmark datasets a chunk handoff costs roughly the
# same as converting ~40 warm-DBMS attributes, and a morsel (worker
# dispatch + split alignment + partial merge) roughly ~250.
CHUNK_DISPATCH_COST = 40.0
MORSEL_SETUP_COST = 250.0
#: keep per-chunk dispatch under this fraction of a chunk's conversion work
DISPATCH_OVERHEAD_BUDGET = 0.02
#: a morsel must carry at least this multiple of its setup cost in work
MORSEL_MIN_WORK_FACTOR = 8.0

# JIT value-index access path (paper §2.1 extended per arXiv 1901.07627).
# An index probe resolves candidate row ids through the hash table/sorted
# run; the candidates' lines are read in runs (neighbours share a read,
# ``storage.io.read_spans``) and go through the same positional column
# kernel as a warm scan's batches, so a fetched cell is charged exactly
# what a warm-navigated cell costs — the calibrated ("fmt", "warm") factor
# — and what the index path pays on top is one read per run, itself priced
# in warm cells. Rows the index hasn't covered yet are scanned with the
# full predicate. The candidate count is the index's own
# (``ValueIndex.count``), not a selectivity guess. Below MIN_INDEX_COVERAGE
# the uncovered scan dominates and byproduct emission is still growing the
# index, so the planner keeps the plain chunked scan.
INDEX_PROBE_COST = 25.0
#: one positioned read (seek + read + cutting its lines out) in warm cells:
#: ~2.7 µs against ~0.6 µs per navigated cell on the HBP files. Priced in
#: cells, not units, so that calibration drift moves both sides of the
#: index-vs-scan comparison together instead of flipping it
INDEX_RUN_CELLS = 4.5
MIN_INDEX_COVERAGE = 0.5
# The same probe over *cached* columns (``access=cache`` + ``index_lookup``)
# is priced in the ("cache", "cache") cells of the full cached scan it
# competes with — the same units on both sides. Measured over 20,000-row
# columns: a candidate's cell (gathered with ``itemgetter``, then rechecked)
# costs ~8 streamed cells, and every distinct key the probe opens ~30 more
# (its bucket is a separate list somewhere in memory, then the candidate
# rows are sorted) — so a range over near-unique keys wins below roughly a
# twentieth of the rows, a few large buckets win up to an eighth, and a
# dense probe loses.
CACHE_GATHER_CELLS = 8.0
CACHE_KEY_CELLS = 30.0

# Process-backend fixed costs, in the same abstract units. Like JIT compile
# time, process fan-out is a fixed tax that only pays off above a work
# threshold: the first use of the session pool spawns fresh interpreters
# (amortised across the session but still charged to be conservative), and
# every parallel scan pickles a kernel spec out and a column-batch partial
# back per morsel.
PROCESS_SPAWN_COST = 30000.0
PROCESS_MORSEL_IPC_COST = 1500.0

#: estimated work (abstract units) below which generating + exec-compiling
#: a query module costs more than it saves over the static interpreter —
#: the per-query engine-selection threshold ("An Empirical Analysis of
#: Just-in-Time Compilation in Modern Databases": compile time only pays
#: off above a size threshold). A session-cached compile is always free.
COMPILE_COST = 2500.0


def choose_batch_size(rows: int, nfields: int = 1, fmt: str = "csv",
                      access: str = "cold", calibration=None) -> int:
    """Pick a power-of-two rows-per-chunk for a scan.

    The floor amortises per-chunk dispatch: a batch must carry enough
    conversion work (``batch × fields × per-value cost``) that
    ``CHUNK_DISPATCH_COST`` stays under ``DISPATCH_OVERHEAD_BUDGET`` of it.
    The ceiling keeps a chunk's materialised values cache-friendly
    (``TARGET_CHUNK_VALUES``), so wide extractions get shallower batches;
    tiny sources don't plan a batch far beyond their estimated row count.
    """
    nfields = max(1, nfields)
    per_value = access_factor(fmt, access, calibration)
    amortising = CHUNK_DISPATCH_COST / (
        DISPATCH_OVERHEAD_BUDGET * nfields * per_value
    )
    ceiling = min(max(1.0, TARGET_CHUNK_VALUES / nfields), MAX_BATCH_SIZE)
    # dispatch amortisation may override the value ceiling, never MAX
    target = min(max(amortising, ceiling), MAX_BATCH_SIZE)
    size = MIN_BATCH_SIZE
    while size * 2 <= target:
        size *= 2
    while size > MIN_BATCH_SIZE and size >= 2 * max(1, rows):
        size //= 2
    return size


def choose_parallelism(requested: int, rows: int, nfields: int,
                       fmt: str, access: str, calibration=None) -> int:
    """Degree of parallelism for one scan, capped by worthwhile work.

    Each morsel pays ``MORSEL_SETUP_COST`` (worker dispatch, split
    alignment, partial-result merge), so the chosen DoP never slices the
    scan's estimated conversion work — ``rows × fields × per-value cost``,
    which is what makes cold scans parallelise earlier than warm or cached
    ones — into shares worth less than ``MORSEL_MIN_WORK_FACTOR`` × that
    setup cost.
    """
    if requested <= 1 or rows < 2:
        return 1
    work = rows * max(1, nfields) * access_factor(fmt, access, calibration)
    worthwhile = int(work // (MORSEL_MIN_WORK_FACTOR * MORSEL_SETUP_COST))
    return max(1, min(requested, worthwhile))


def choose_backend(rows: int, nfields: int, fmt: str, access: str,
                   dop: int, calibration=None) -> str:
    """Where one shardable scan runs: ``"process"`` (its morsels on worker
    processes) only when the estimated conversion work amortizes the
    process backend's fixed costs, else ``"serial"``.

    Two gates, both in abstract attribute-fetch units: the scan's total work
    must cover the (session-amortised) spawn cost, and each worker's share
    must be worth ``MORSEL_MIN_WORK_FACTOR`` × the per-morsel IPC cost of
    shipping a spec out and a pickled partial back.
    """
    if dop <= 1:
        return "serial"
    work = rows * max(1, nfields) * access_factor(fmt, access, calibration)
    if work < PROCESS_SPAWN_COST:
        return "serial"
    if work / dop < MORSEL_MIN_WORK_FACTOR * PROCESS_MORSEL_IPC_COST:
        return "serial"
    return "process"


def access_factor(fmt: str, access: str, calibration=None) -> float:
    """Normalized per-attribute fetch cost for a (format, access-path) pair.

    With a :class:`~repro.stats.CostCalibration` the measured-runtime
    calibrated factor is used instead of the hand-tuned table. A pair
    neither knows falls back to ``2.0`` — callers should check
    :func:`factor_known` and surface the miscalibration rather than let
    the default pass silently.
    """
    if calibration is not None:
        f = calibration.factor(fmt, access)
        if f is not None:
            return f * CONST_COST
    return COST_FACTORS.get((fmt, access), 2.0) * CONST_COST


def factor_known(fmt: str, access: str, calibration=None) -> bool:
    """True when the cost model actually knows this (format, access) pair
    (as opposed to silently serving the 2.0 default)."""
    if calibration is not None and calibration.factor(fmt, access) is not None:
        return True
    return (fmt, access) in COST_FACTORS


def predicate_selectivity(pred: A.Expr) -> float:
    """Crude textbook selectivity estimate for a predicate expression."""
    if isinstance(pred, A.Const):
        return 1.0 if pred.value else 0.0
    if isinstance(pred, A.BinOp):
        if pred.op == "and":
            return predicate_selectivity(pred.left) * predicate_selectivity(pred.right)
        if pred.op == "or":
            a = predicate_selectivity(pred.left)
            b = predicate_selectivity(pred.right)
            return min(1.0, a + b - a * b)
        if pred.op in SELECTIVITY:
            return SELECTIVITY[pred.op]
    if isinstance(pred, A.UnOp) and pred.op == "not":
        return 1.0 - predicate_selectivity(pred.expr)
    return 0.5


@dataclass(frozen=True)
class ScanEstimate:
    """Planner-facing estimate for scanning one source.

    Conversion cost (per row × attribute) and batch dispatch cost (per
    chunk) are carried separately; ``batch_size=0`` marks a row-at-a-time
    access path with no chunk handoffs to charge.
    """

    rows: int
    cost_per_row: float
    selectivity: float
    batch_size: int = 0

    @property
    def conversion_cost(self) -> float:
        return self.rows * self.cost_per_row

    @property
    def dispatch_cost(self) -> float:
        if self.batch_size <= 0 or self.rows <= 0:
            return 0.0
        chunks = -(-self.rows // self.batch_size)  # ceil division
        return chunks * CHUNK_DISPATCH_COST

    @property
    def total_cost(self) -> float:
        return self.conversion_cost + self.dispatch_cost

    @property
    def output_rows(self) -> float:
        return self.rows * self.selectivity


def estimate_scan(
    fmt: str,
    access: str,
    rows: int,
    nfields: int,
    preds: list[A.Expr],
    batch_size: int = 0,
    calibration=None,
    selectivity: float | None = None,
) -> ScanEstimate:
    """Estimate a scan: conversion scales with extracted attribute count,
    dispatch with the number of chunks the chosen batch size implies.

    ``selectivity`` overrides the textbook per-operator guesses with a
    statistics-derived estimate (min/max interpolation, NDV) when the
    adaptive planner has one; ``calibration`` substitutes measured
    per-(format, access) factors for the hand-tuned table."""
    if selectivity is None:
        selectivity = 1.0
        for p in preds:
            selectivity *= predicate_selectivity(p)
    per_row = access_factor(fmt, access, calibration) * max(1, nfields)
    return ScanEstimate(rows=rows, cost_per_row=per_row,
                        selectivity=selectivity, batch_size=batch_size)


def estimate_index_scan(
    fmt: str,
    rows: int,
    nfields: int,
    coverage: float,
    matches: int,
    file_bytes: int,
    calibration=None,
) -> float:
    """Cost of serving a scan through a value index: probe + run-coalesced
    positional fetch of the index's ``matches`` candidates + a warm scan of
    the uncovered remainder, all at the (calibrated) warm per-cell factor.

    Runs are bounded by the candidates (each alone in its run) and by the
    file (consecutive runs lie more than ``RUN_GAP_BYTES`` apart)."""
    nfields = max(1, nfields)
    uncovered = rows * (1.0 - coverage)
    runs = min(matches, file_bytes / RUN_GAP_BYTES)
    return (INDEX_PROBE_COST
            + (runs * INDEX_RUN_CELLS + (matches + uncovered) * nfields)
            * access_factor(fmt, "warm", calibration))


def estimate_cache_index_scan(
    rows: int,
    nfields: int,
    coverage: float,
    keys: int,
    matches: int,
    calibration=None,
) -> float:
    """Cost of serving a cache-covered scan through a value index: probe +
    ``keys`` buckets opened + ``matches`` candidates gathered from the
    cached columns + the uncovered remainder streamed as plain slices, in
    ("cache", "cache") cells."""
    uncovered = rows * (1.0 - coverage)
    return (INDEX_PROBE_COST
            + (keys * CACHE_KEY_CELLS
               + (matches * CACHE_GATHER_CELLS + uncovered) * max(1, nfields))
            * access_factor("cache", "cache", calibration))


def source_row_estimate(entry) -> int:
    """Cardinality estimate for a catalog entry (cheap; exact when an
    auxiliary structure already knows)."""
    if entry.data is not None:
        return len(entry.data)
    plugin = entry.plugin
    fmt = entry.format
    if fmt == "csv":
        if plugin.posmap.complete:
            return len(plugin.posmap.row_offsets)
        # avoid a full pass at planning time: size / assumed 80-byte rows
        import os

        try:
            return max(1, os.stat(plugin.path).st_size // 80)
        except OSError:
            return 1000
    if fmt == "json":
        if plugin.has_semi_index():
            return plugin.object_count()
        import os

        try:
            return max(1, os.stat(plugin.path).st_size // 200)
        except OSError:
            return 1000
    if fmt == "array":
        return plugin.header.element_count
    if fmt == "xls":
        sheet = entry.description.options.get("sheet")
        return plugin.sheets[sheet].nrows if sheet in plugin.sheets else 1000
    if fmt == "dbms":
        return plugin.row_count()
    return 1000
