"""Physical planner: logical algebra → physical plan (paper §5).

Decisions made here, all specific to querying *raw* data:

1. **Access-path selection per source** — serve from ViDa's cache when a
   cached entry covers the needed fields; otherwise scan raw, navigating
   with the positional map / semi-index when one exists ("warm"), else a
   cold scan that builds it ("the optimizer invokes the appropriate wrapper,
   which takes into account any auxiliary structures present and normalizes
   access costs"). Either way a value index then serves the scan when its
   own candidate count says a probe beats the pass: positional fetches from
   the file ("index"), or a gather from the cached columns
   ("cache+index").
2. **Projection pushdown into the raw parser** — each scan extracts only the
   attribute paths the query touches, because for raw formats every fetched
   attribute has a real tokenize/parse/convert cost (§5).
3. **Cache population** — cold/warm scans piggyback columnar materialisation
   of the extracted scalar fields; whole nested objects are admitted in the
   layout the admission policy picks (objects/BSON), or not at all when
   they would pollute the cache (§5).
4. **Join order and algorithm** — greedy cheapest-first ordering using the
   per-format wrapper cost estimates; equi-predicates become hash joins
   (build side = smaller estimated input), everything else nested loops.
5. **Predicate placement** — single-source conjuncts are pushed into the
   scan loop; join-pair equalities become hash keys; the rest evaluate as
   residual filters at the earliest point all their variables are bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...caching import DataCache
from ...caching.policy import DEFAULT_POLICY, AdmissionPolicy
from ...errors import PlanningError
from ...mcc import ast as A
from ...mcc.algebra import (
    AlgNode,
    ExprScanOp,
    JoinOp,
    NestOp,
    ReduceOp,
    ScanOp,
    SelectOp,
    UnnestOp,
)
from ..physical import (
    PhysExprScan,
    PhysFilter,
    PhysHashJoin,
    PhysNest,
    PhysNLJoin,
    PhysNode,
    PhysReduce,
    PhysScan,
    VarUsage,
    collect_usage,
    plan_sources,
)
from . import cost as C


@dataclass
class PlanDecisions:
    """A record of the optimizer's raw-data-aware choices (for EXPLAIN/tests)."""

    access: dict[str, str] = field(default_factory=dict)       # var → access path
    join_order: list[str] = field(default_factory=list)         # vars, build→probe
    populate: dict[str, tuple] = field(default_factory=dict)    # var → cached fields
    batch: dict[str, int] = field(default_factory=dict)         # var → rows per chunk
    #: var → morsel DoP of a scan that runs on worker processes
    parallel: dict[str, int] = field(default_factory=dict)
    filters: dict[str, str] = field(default_factory=dict)       # var → vec | row
    cache_served: bool = False
    notes: list[str] = field(default_factory=list)
    #: var → estimated input rows for its scan (post-pushdown output rows)
    est_rows: dict[str, float] = field(default_factory=dict)
    #: var → estimated scan cost (abstract attribute-fetch units)
    est_cost: dict[str, float] = field(default_factory=dict)
    #: estimated intermediate cardinality after each join-order step
    #: (aligned with ``join_order``; adaptive planner only)
    join_cards: list[float] = field(default_factory=list)
    #: whole-plan estimated cost (scan costs + intermediate tuple volume) —
    #: the number per-query engine selection compares against COMPILE_COST
    total_est_cost: float = 0.0
    #: per-query engine decision ("jit" | "static") with its reason, set by
    #: the session when default_engine="auto"
    engine_choice: str = ""

    def clone(self) -> "PlanDecisions":
        """Independent copy for prepared-plan reuse: per-execution fields
        (notes, engine_choice) must not accrete across executions."""
        return PlanDecisions(
            access=dict(self.access), join_order=list(self.join_order),
            populate=dict(self.populate), batch=dict(self.batch),
            parallel=dict(self.parallel),
            filters=dict(self.filters), cache_served=self.cache_served,
            notes=list(self.notes), est_rows=dict(self.est_rows),
            est_cost=dict(self.est_cost), join_cards=list(self.join_cards),
            total_est_cost=self.total_est_cost,
            engine_choice=self.engine_choice,
        )

    def summary(self) -> str:
        parts = [f"{v}:{a}" for v, a in self.access.items()]
        if self.join_cards and len(self.join_cards) == len(self.join_order):
            order = " -> ".join(
                f"{v}(~{int(c)})"
                for v, c in zip(self.join_order, self.join_cards)
            )
        else:
            order = " -> ".join(self.join_order)
        out = (
            f"access[{', '.join(parts)}] order[{order}]"
            + (" cache-served" if self.cache_served else "")
        )
        if self.est_rows:
            out += " est[" + ", ".join(
                f"{v}:{int(r)}r@{int(self.est_cost.get(v, 0))}u"
                for v, r in self.est_rows.items()) + "]"
        if self.total_est_cost:
            out += f" total_cost~{int(self.total_est_cost)}u"
        if self.engine_choice:
            out += f" engine[{self.engine_choice}]"
        if self.batch:
            out += " batch[" + ", ".join(
                f"{v}:{b}" for v, b in self.batch.items()) + "]"
        if self.parallel:
            out += " parallel[" + ", ".join(
                f"{v}:{n}" for v, n in self.parallel.items()) + "]"
        if self.filters:
            out += " filter[" + ", ".join(
                f"{v}:{k}" for v, k in self.filters.items()) + "]"
        for note in self.notes:
            out += f"\n  note: {note}"
        return out


@dataclass
class _Unit:
    """One plan building block: a scan-like leaf or a dependent unnest."""

    kind: str            # scan | expr | unnest | nest
    var: str
    node: AlgNode
    deps: frozenset = frozenset()
    pushed: list = field(default_factory=list)
    est_rows: float = 1000.0
    est_cost: float = 1000.0
    access: str = "cold"
    fields: tuple = ()
    whole: bool = False
    populate: tuple = ()
    populate_layout: str = "columns"
    batch_size: int = C.MAX_BATCH_SIZE
    #: probe spec when the access-path chooser picked a value index (over
    #: the raw file: access=index; over cached columns: access stays cache)
    index_lookup: tuple | None = None
    #: conjunct fields the scan should emit value-index byproducts for
    index_emit: tuple = ()


class Planner:
    def __init__(
        self,
        catalog,
        cache: DataCache | None = None,
        policy: AdmissionPolicy | None = None,
        enable_cache: bool = True,
        enable_posmap: bool = True,
        batch_size: int | None = None,
        parallelism: int = 1,
        serial_sources: frozenset | set | None = None,
        cleaning_sources: frozenset | set | None = None,
        cleaning_policies: dict | None = None,
        indexes: bool = False,
        calibration=None,
        adaptive: bool = False,
        as_of: dict | None = None,
    ):
        self.catalog = catalog
        self.cache = cache if cache is not None else DataCache()
        self.policy = policy or DEFAULT_POLICY
        self.enable_cache = enable_cache
        self.enable_posmap = enable_posmap
        #: fixed rows-per-chunk override (None = cost-model choice per scan)
        self.batch_size = batch_size
        #: session-level worker-process budget (1 = serial, the default)
        self.parallelism = parallelism
        #: sources that must stay serial (e.g. charged to a simulated device)
        self.serial_sources = frozenset(serial_sources or ())
        #: sources with a scan-time cleaning policy (no selection pushdown:
        #: the predicate must see repaired values, so filters stay in-engine)
        self.cleaning_sources = frozenset(cleaning_sources or ())
        #: live cleaning-policy objects (for the picklability gate); the
        #: frozenset above remains the sel_push gate
        self.cleaning_policies = cleaning_policies or {}
        #: JIT value indexes on: each source state's indexes drive
        #: access-path selection (access=index, cache+index)
        self.indexes = indexes
        #: shared :class:`~repro.stats.CostCalibration` — measured-runtime
        #: calibrated cost constants; None keeps the hand-tuned table
        self.calibration = calibration
        #: statistics-driven planning on: each source state's table stats
        #: give exact row counts, min/max + NDV selectivities, and DP
        #: join-order enumeration replaces the syntax-order greedy heuristics
        self.adaptive = adaptive
        #: time travel: source → pinned GenerationSnapshot. A live-prefix
        #: generation of known row count is planned like a live scan of that
        #: many rows — cache, positional map, semi-index and value indexes
        #: serve it — but serial, with population, index emission and
        #: selection pushdown off: a pinned query grows no shared state.
        #: Anything else is a cold scan the runtime serves from the bytes
        #: or the pinned cache entries
        self.as_of = as_of or {}

    # -- public -----------------------------------------------------------

    def plan(self, root: ReduceOp) -> tuple[PhysReduce, PlanDecisions]:
        decisions = PlanDecisions()
        child = self._plan_subtree(root.child, decisions, extra_exprs=[root.head])
        plan = PhysReduce(child, root.monoid, root.head)
        decisions.cache_served = all(
            a in ("cache", "memory") for a in decisions.access.values()
        ) and bool(decisions.access)
        if self.parallelism > 1:
            self._choose_parallel(plan, decisions)
        return plan, decisions

    # -- morsel parallelism -----------------------------------------------------

    #: formats whose plugins expose splittable scan ranges
    _SPLITTABLE = ("csv", "json", "array")

    def _choose_parallel(self, plan: PhysReduce, decisions: PlanDecisions) -> None:
        """Assign a degree of parallelism to morsel-shardable scans.

        Two shapes shard: the plan's *driver* scan (the outermost loop —
        every worker folds the root monoid, or the chain's grouping Nest,
        into its own partial) and direct hash-join *build* scans (workers
        build partial tables, merged per key). Everything else stays serial;
        DoP per scan comes from the cost model so small or warm scans don't
        pay morsel setup. A sharded scan runs its morsels in worker
        processes, so it also needs a plan that ships as a kernel spec and
        work that amortizes spawn + per-morsel IPC; a scan that misses
        either runs serial, with a note saying why.
        """
        from ..physical import PhysHashJoin, parallel_driver, plan_scans

        candidates: list[PhysScan] = []
        driver = parallel_driver(plan)
        if driver is not None:
            candidates.append(driver)
        stack: list = [plan.child]
        while stack:
            node = stack.pop()
            if isinstance(node, PhysHashJoin) and isinstance(node.build, PhysScan):
                candidates.append(node.build)
            stack.extend(node.children())
        sharded = [(scan, dop) for scan in candidates
                   if (dop := self._scan_parallelism(scan)) > 1]
        blocker = self._process_blocker(plan) if sharded else None
        for scan, dop in sharded:
            why = blocker or self._serial_reason(scan, dop)
            if why is not None:
                decisions.notes.append(f"{scan.var}: {why}; runs serial")
                continue
            scan.parallel = dop
            decisions.parallel[scan.var] = dop
        for scan in plan_scans(plan):
            if scan.parallel > 1:
                continue
            if scan.format == "dbms" or scan.source in self.serial_sources:
                kind = "dbms source" if scan.format == "dbms" \
                    else "device-charged source"
                decisions.notes.append(
                    f"{scan.var}: process backend unavailable "
                    f"({kind} {scan.source!r} is not picklable); runs serial"
                )

    def _serial_reason(self, scan: PhysScan, dop: int) -> str | None:
        """Why a shippable scan worth ``dop`` morsels still runs serial, or
        None when the cost model sends it to worker processes."""
        if scan.access == "cache":
            # cache entries live in the parent; shipping them defeats the cache
            return "cache scan stays in this process"
        entry = self.catalog.get(scan.source)
        chosen = C.choose_backend(
            self._row_estimate(entry), len(scan.chunk_fields()) or 1,
            scan.format, scan.access, dop, calibration=self.calibration,
        )
        if chosen != "process":
            return "work below process-backend threshold"
        return None

    def _process_blocker(self, plan: PhysReduce) -> str | None:
        """Why this plan cannot ship kernel specs to worker processes
        (None when it can): every referenced source must be rebuildable
        from a picklable SourceSpec, must not be charged to a simulated
        device (devices live in the parent), and any cleaning policy that
        would ship must itself pickle."""
        import pickle as _pickle

        from ..executor import procpool

        for name in sorted(plan_sources(plan, self.catalog.names())):
            entry = self.catalog.get(name)
            if name in self.serial_sources:
                return f"device-charged source {name!r} cannot ship to workers"
            if entry.format not in procpool.SPECABLE_FORMATS:
                return f"{entry.format} source {name!r} is not picklable"
            policy = self.cleaning_policies.get(name)
            if policy is not None:
                try:
                    _pickle.dumps(policy)
                except Exception:
                    return f"cleaning policy for {name!r} is not picklable"
        return None

    def _scan_parallelism(self, scan: PhysScan) -> int:
        if scan.source in self.serial_sources or scan.source in self.as_of:
            return 1
        if scan.access == "cache":
            if scan.index_lookup is not None:
                return 1  # a gathered scan hands over candidates, not ranges
            cost_fmt = "cache"
        elif scan.format in self._SPLITTABLE and scan.access in ("cold", "warm"):
            cost_fmt = scan.format
        else:
            return 1  # memory / dbms / xls scans hand over serially
        entry = self.catalog.get(scan.source)
        rows = self._row_estimate(entry)
        return C.choose_parallelism(
            self.parallelism, rows, len(scan.chunk_fields()) or 1,
            cost_fmt, scan.access,
            calibration=self.calibration,
        )

    def _row_estimate(self, entry) -> int:
        """Source row count: exact from JIT table stats when available,
        otherwise the bytes-per-row guess."""
        if self.adaptive:
            tstats = entry.state.stats
            if tstats is not None and tstats.row_count is not None:
                return max(1, tstats.row_count)
        return C.source_row_estimate(entry)

    # -- flattening -----------------------------------------------------------

    def _flatten(self, node: AlgNode, units: list[_Unit], preds: list[A.Expr],
                 decisions: PlanDecisions) -> None:
        if isinstance(node, SelectOp):
            self._flatten(node.child, units, preds, decisions)
            preds.extend(A.conjuncts(node.pred))
        elif isinstance(node, JoinOp):
            self._flatten(node.left, units, preds, decisions)
            self._flatten(node.right, units, preds, decisions)
            if not (isinstance(node.pred, A.Const) and node.pred.value is True):
                preds.extend(A.conjuncts(node.pred))
        elif isinstance(node, ScanOp):
            units.append(_Unit("scan", node.var, node))
        elif isinstance(node, ExprScanOp):
            units.append(_Unit("expr", node.var, node))
        elif isinstance(node, UnnestOp):
            self._flatten(node.child, units, preds, decisions)
            unit_vars = {u.var for u in units}
            deps = frozenset(A.free_vars(node.path) & unit_vars)
            units.append(_Unit("unnest", node.var, node, deps=deps))
        elif isinstance(node, NestOp):
            units.append(_Unit("nest", node.group_var, node))
        else:
            raise PlanningError(f"cannot plan algebra node {type(node).__name__}")

    # -- planning -----------------------------------------------------------

    def _plan_subtree(self, node: AlgNode, decisions: PlanDecisions,
                      extra_exprs: list[A.Expr]) -> PhysNode:
        units: list[_Unit] = []
        preds: list[A.Expr] = []
        self._flatten(node, units, preds, decisions)
        unit_by_var = {u.var: u for u in units}
        unit_vars = set(unit_by_var)

        # usage analysis across every expression in the (sub)query
        usage: dict[str, VarUsage] = {}
        for p in preds:
            collect_usage(p, usage)
        for e in extra_exprs:
            collect_usage(e, usage)
        for u in units:
            if u.kind == "unnest":
                collect_usage(u.node.path, usage)
            if u.kind == "nest":
                for _n, e in u.node.keys:
                    collect_usage(e, usage)
                collect_usage(u.node.head, usage)

        # classify predicates
        equi: list[tuple[str, str, A.Expr, A.Expr]] = []
        residual: list[A.Expr] = []
        for p in preds:
            vars_used = A.free_vars(p) & unit_vars
            if len(vars_used) == 1:
                unit_by_var[next(iter(vars_used))].pushed.append(p)
            elif len(vars_used) == 2 and isinstance(p, A.BinOp) and p.op == "=":
                lvars = A.free_vars(p.left) & unit_vars
                rvars = A.free_vars(p.right) & unit_vars
                if len(lvars) == 1 and len(rvars) == 1 and lvars != rvars:
                    equi.append((next(iter(lvars)), next(iter(rvars)), p.left, p.right))
                else:
                    residual.append(p)
            else:
                residual.append(p)

        # per-unit physical configuration + estimates
        for u in units:
            self._configure_unit(u, usage, decisions)

        cards: list[float] = []
        if self.adaptive and len(units) >= 2:
            from . import enumerator as E

            edges = self._edge_selectivities(unit_by_var, equi)
            ordered = E.enumerate_order(units, edges)
            if ordered is None:
                # beyond the DP cutoff (or dependency cycle): greedy order,
                # still re-costed so EXPLAIN carries cardinalities
                ordered = self._order_units(units, equi)
                if len(units) > E.MAX_DP_UNITS:
                    decisions.notes.append(
                        f"join order: {len(units)} units exceed DP cutoff "
                        f"({E.MAX_DP_UNITS}); greedy order"
                    )
            cards = E.estimate_cards(ordered, edges)
        else:
            ordered = self._order_units(units, equi)
            if self.adaptive and units:
                cards = [units[0].est_rows]
        decisions.join_order.extend(u.var for u in ordered)
        decisions.join_cards.extend(cards)
        decisions.total_est_cost += sum(u.est_cost for u in units) + (
            sum(cards) if cards else sum(u.est_rows for u in units)
        )

        return self._build_tree(ordered, unit_by_var, equi, residual, decisions,
                                extra_exprs)

    def _edge_selectivities(self, unit_by_var: dict, equi) -> dict:
        """Equi-join edge selectivities from the KMV sketches:
        ``1 / max(ndv_left, ndv_right)`` per predicate (the textbook
        containment assumption), multiplied across predicates on the same
        variable pair. Units without statistics fall back to their row
        estimate as the NDV (unique-key assumption)."""
        from . import enumerator as E

        edges: dict = {}
        for v1, v2, e1, e2 in equi:
            ndv1 = self._join_ndv(unit_by_var.get(v1), e1)
            ndv2 = self._join_ndv(unit_by_var.get(v2), e2)
            sel = 1.0 / max(1.0, ndv1, ndv2)
            key = E.edge_key(v1, v2)
            edges[key] = edges.get(key, 1.0) * sel
        return edges

    def _join_ndv(self, u: _Unit | None, key_expr: A.Expr) -> float:
        """Distinct-count estimate for one side of an equi-join key."""
        if u is None:
            return 1.0
        fallback = max(1.0, u.est_rows)
        if u.kind != "scan" or not self.adaptive:
            return fallback
        entry = self.catalog.get(u.node.source)
        fname = _proj_field(key_expr, u.var, entry.format)
        if fname is None:
            return fallback
        tstats = entry.state.stats
        cs = tstats.column(fname) if tstats is not None else None
        if cs is None or cs.count == 0:
            return fallback
        return float(max(1, cs.ndv))

    def _stats_selectivity(self, u: _Unit, entry, tstats) -> float | None:
        """Statistics-based selectivity for the unit's pushed conjuncts.

        Each conjunct with column stats is estimated from min/max + NDV;
        the rest keep the textbook per-operator guesses. Returns None (no
        override) unless at least one conjunct hit stats, so the cost
        model's defaults stay authoritative on never-scanned sources.
        """
        if tstats is None or not u.pushed:
            return None
        sel = 1.0
        hit = False
        for p in u.pushed:
            s = self._conjunct_selectivity(p, u.var, entry.format, tstats)
            if s is None:
                sel *= C.predicate_selectivity(p)
            else:
                sel *= s
                hit = True
        return min(1.0, max(0.0, sel)) if hit else None

    def _conjunct_selectivity(self, p, var: str, fmt: str,
                              tstats) -> float | None:
        """One pushed conjunct's selectivity from column statistics, or
        None when the conjunct's shape or the column's stats can't say."""
        if not isinstance(p, A.BinOp):
            return None
        op, lhs, rhs = p.op, p.left, p.right
        fname = _proj_field(lhs, var, fmt)
        if fname is None and op in _COMPARE_FLIP:
            fname = _proj_field(rhs, var, fmt)
            if fname is not None:
                op, lhs, rhs = _COMPARE_FLIP[op], rhs, lhs
        elif fname is None and op in ("=", "!="):
            fname = _proj_field(rhs, var, fmt)
            if fname is not None:
                lhs, rhs = rhs, lhs
        if fname is None:
            return None
        cs = tstats.column(fname)
        if cs is None or cs.count == 0:
            return None
        const = _const_fold(rhs)
        if const is _NO_FOLD:
            return None
        notnull = 1.0 - cs.null_fraction
        ndv = float(max(1, cs.ndv))
        numeric = isinstance(const, (int, float)) and not isinstance(const, bool)
        if op == "=":
            if numeric and cs.num_min is not None \
                    and not (cs.num_min <= const <= cs.num_max):
                return 0.0  # probe outside the observed domain
            return notnull / ndv
        if op == "!=":
            return notnull * (1.0 - 1.0 / ndv)
        if op == "in":
            if not isinstance(const, tuple):
                return None
            return min(1.0, len(const) / ndv) * notnull
        if op in _COMPARE_FLIP:
            if not numeric or cs.num_min is None or cs.num_max is None:
                return None
            lo, hi = float(cs.num_min), float(cs.num_max)
            if hi <= lo:  # single-point domain
                covers = (const >= lo) if op in ("<", "<=") else (const <= lo)
                return notnull if covers else 0.0
            t = min(1.0, max(0.0, (float(const) - lo) / (hi - lo)))
            frac = t if op in ("<", "<=") else 1.0 - t
            return frac * notnull
        return None

    def _configure_unit(self, u: _Unit, usage: dict[str, VarUsage],
                        decisions: PlanDecisions) -> None:
        use = usage.get(u.var, VarUsage())
        if u.kind == "expr":
            u.est_rows, u.est_cost, u.access = 10.0, 10.0, "memory"
            decisions.est_rows[u.var] = u.est_rows
            decisions.est_cost[u.var] = u.est_cost
            return
        if u.kind == "unnest":
            u.est_rows, u.est_cost, u.access = 10.0, 1.0, "memory"
            decisions.est_rows[u.var] = u.est_rows
            decisions.est_cost[u.var] = u.est_cost
            return
        if u.kind == "nest":
            u.est_rows, u.est_cost, u.access = 100.0, 500.0, "memory"
            decisions.est_rows[u.var] = u.est_rows
            decisions.est_cost[u.var] = u.est_cost
            return

        entry = self.catalog.get(u.node.source)
        fmt = entry.format
        u.whole = use.whole or (fmt == "dbms" and entry.plugin.nested)
        if fmt == "json":
            u.fields = use.dotted_paths()
        else:
            u.fields = use.top_fields()

        rows = C.source_row_estimate(entry)
        tstats = None
        if self.adaptive:
            tstats = entry.state.stats
            if tstats is not None and tstats.row_count is not None:
                # exact cardinality, collected as a byproduct of an earlier
                # scan — supersedes the bytes-per-row guess
                rows = max(1, tstats.row_count)
        snap = self.as_of.get(entry.name)
        prefix = snap is not None and snap.live and snap.row_count is not None
        if snap is not None and snap.row_count is not None:
            rows = max(1, snap.row_count)
        # the cache is shared across tenants, cleaning policies are not: a
        # source this session cleans neither reads cached values nor offers
        # its (repaired or thinned) columns to the cache
        use_cache = self.enable_cache \
            and entry.name not in self.cleaning_sources
        if snap is not None and not prefix:
            u.access = "cold"
        elif entry.data is not None or fmt == "memory":
            u.access = "memory"
        elif fmt == "dbms":
            u.access = "warm"  # loaded store; cost-modelled as const_cost
        elif use_cache and self._cache_covers(entry.state, u):
            u.access = "cache"
        elif fmt == "csv":
            posmap_ready = entry.plugin.posmap.complete and self.enable_posmap
            u.access = "warm" if posmap_ready else "cold"
        elif fmt == "json":
            u.access = "warm" if entry.plugin.has_semi_index() else "cold"
        else:
            u.access = "cold"

        if u.access in ("cold", "warm") and use_cache and snap is None:
            self._choose_population(u, entry)

        batched = fmt in ("csv", "json", "array", "xls") and u.access in ("cold", "warm")
        if batched:
            u.batch_size = self.batch_size if self.batch_size is not None \
                else C.choose_batch_size(rows, len(u.fields) or 1, fmt,
                                         u.access,
                                         calibration=self.calibration)
            decisions.batch[u.var] = u.batch_size

        cost_fmt = "cache" if u.access == "cache" else (
            "memory" if u.access == "memory" else fmt
        )
        if not C.factor_known(cost_fmt, u.access, self.calibration):
            decisions.notes.append(
                f"{u.var}: no cost factor for ({cost_fmt!r}, {u.access!r}); "
                "defaulting to 2.0 — calibrate or extend COST_FACTORS"
            )
        sel_override = self._stats_selectivity(u, entry, tstats)
        est = C.estimate_scan(cost_fmt, u.access, rows, len(u.fields) or 1,
                              u.pushed, batch_size=u.batch_size if batched else 0,
                              calibration=self.calibration,
                              selectivity=sel_override)
        u.est_rows = max(1.0, est.output_rows)
        u.est_cost = est.total_cost

        if fmt in ("csv", "json") and (snap is None or prefix) \
                and entry.name not in self.cleaning_sources \
                and (u.access in ("cold", "warm")
                     or (u.access == "cache" and u.fields and not u.whole)):
            self._choose_index_access(u, entry, fmt, rows, decisions)
        if snap is not None:
            u.index_emit = ()
            decisions.notes.append(
                f"{u.var}: AS OF generation {snap.generation} "
                f"({self._history_path(u, entry, snap)})")

        decisions.access[u.var] = u.access
        decisions.est_rows[u.var] = u.est_rows
        decisions.est_cost[u.var] = u.est_cost

    @staticmethod
    def _history_path(u: _Unit, entry, snap) -> str:
        """How a pinned scan's generation is served, for its EXPLAIN note."""
        if not snap.live:
            return "pinned cache fallback"
        if snap.row_count is None:
            return f"live prefix, first {snap.byte_size} bytes; cold"
        path = "cache+index" if u.access == "cache" and u.index_lookup \
            else u.access
        total = entry.file_rows()
        of = "" if total is None else f" of {total}"
        return f"live prefix, {snap.row_count}{of} rows; {path}"

    def _cache_covers(self, state, u: _Unit) -> bool:
        if u.whole:
            return self.cache.peek(state, [], whole=True)
        if not u.fields:
            return False
        return self.cache.peek(state, list(u.fields))

    def _choose_population(self, u: _Unit, entry) -> None:
        fmt = entry.format
        if fmt == "json":
            if u.whole:
                # whole objects: layout by expected element size
                size = _avg_json_object_bytes(entry)
                layout = self.policy.nested_layout(size)
                if layout == "positions":
                    return  # pollution avoidance: don't cache parsed objects
                u.populate = ("*",)
                u.populate_layout = layout
            elif u.fields:
                u.populate = u.fields
                u.populate_layout = "columns"
        elif fmt in ("csv", "array", "xls"):
            if u.fields:
                u.populate = u.fields
                u.populate_layout = "columns"

    def _order_units(self, units: list[_Unit], equi) -> list[_Unit]:
        """Greedy cheapest-first join ordering respecting unnest dependencies."""
        connected: dict[str, set[str]] = {}
        for v1, v2, _e1, _e2 in equi:
            connected.setdefault(v1, set()).add(v2)
            connected.setdefault(v2, set()).add(v1)

        remaining = list(units)
        ordered: list[_Unit] = []
        bound: set[str] = set()

        def ready(u: _Unit) -> bool:
            return u.deps <= bound

        while remaining:
            candidates = [u for u in remaining if ready(u)]
            if not candidates:
                raise PlanningError(
                    "circular unnest dependencies in plan: "
                    + ", ".join(u.var for u in remaining)
                )
            if not ordered:
                pick = min(candidates, key=lambda u: (u.est_cost, u.var))
            else:
                joinable = [
                    u for u in candidates
                    if u.kind == "unnest" or (connected.get(u.var, set()) & bound)
                ]
                pool = joinable or candidates
                # dependent unnests first (they're free), then smallest output
                pick = min(
                    pool,
                    key=lambda u: (0 if u.kind == "unnest" else 1, u.est_rows, u.var),
                )
            ordered.append(pick)
            remaining.remove(pick)
            bound.add(pick.var)
        return ordered

    # -- tree construction -----------------------------------------------------------

    def _leaf_plan(self, u: _Unit, decisions: PlanDecisions) -> PhysNode:
        pred = A.make_conjunction(u.pushed) if u.pushed else None
        if pred is not None and isinstance(pred, A.Const) and pred.value is True:
            pred = None
        if u.kind == "scan":
            entry = self.catalog.get(u.node.source)
            index_eq = None
            if entry.format == "dbms":
                index_eq = self._index_pushdown(u, entry, decisions)
            sel_push = self._sel_push(u, entry, pred)
            if sel_push and u.populate:
                # pushdown yields survivor rows only; a survivors-only column
                # must never be admitted as a complete one (truncated-column
                # rule), so population is dropped in favour of the pushdown
                decisions.notes.append(
                    f"{u.var}: selection pushdown over populate⊆predicate "
                    "fields; cache population disabled"
                )
                u.populate = ()
            if u.populate:
                decisions.populate[u.var] = u.populate
            scan = PhysScan(
                source=u.node.source, var=u.var, format=entry.format,
                fields=u.fields, access=u.access, bind_whole=u.whole,
                populate=u.populate, populate_layout=u.populate_layout,
                pred=pred, index_eq=index_eq, batch_size=u.batch_size,
                index_lookup=u.index_lookup, index_emit=u.index_emit,
                sel_push=sel_push,
                est_rows=u.est_rows, est_cost=u.est_cost,
            )
            if u.node.source in self.as_of:
                scan.as_of = self.as_of[u.node.source].generation
            if scan.pred is not None:
                if scan.sel_push:
                    decisions.filters[u.var] = "vec+push"
                else:
                    decisions.filters[u.var] = \
                        "vec" if scan.vectorized_filter() else "row"
            return scan

        if u.kind == "expr":
            return PhysExprScan(u.node.expr, u.var, pred=pred)
        if u.kind == "nest":
            nest: NestOp = u.node
            sub = self._plan_subtree(
                nest.child, decisions,
                extra_exprs=[e for _n, e in nest.keys] + [nest.head],
            )
            phys = PhysNest(sub, nest.keys, nest.monoid, nest.head, nest.group_var)
            if pred is not None:
                return PhysFilter(phys, pred)
            return phys
        raise PlanningError(f"unexpected leaf kind {u.kind!r}")

    def _sel_push(self, u: _Unit, entry, pred) -> bool:
        """Push the selection vector into the scan itself (late
        materialization): warm CSV scans navigate the predicate columns
        first and materialise the rest only for surviving rows. Requires
        dense scalar extraction (no whole binding) and no cleaning policy
        (the predicate must see repaired values). A populate set no longer
        blocks the pushdown when the populated columns are a subset of the
        predicate columns — the caller then drops the population instead
        (survivors-only columns must not be cached as complete)."""
        if not (
            pred is not None
            and entry.format == "csv"
            and u.access == "warm"
            and not u.whole
            and bool(u.fields)
            and entry.name not in self.cleaning_sources
            and entry.name not in self.as_of
        ):
            return False
        if not u.populate:
            return True
        pred_use = collect_usage(pred).get(u.var)
        if pred_use is None or pred_use.whole:
            return False
        return set(u.populate) <= set(pred_use.top_fields())

    def _index_pushdown(self, u: _Unit, entry, decisions: PlanDecisions):
        """Use a store index for a value conjunct on an indexed field.

        "ViDa's access paths can utilize existing indexes to speed-up
        queries to this data source" (§2.1). Matching runs through the same
        :meth:`_value_conjuncts` chooser as raw-file JIT indexes, so
        equality with constant-folded comparands and IN-lists push down
        too. The matched conjunct stays in the scan predicate as a cheap
        recheck.
        """
        indexed = set(entry.plugin.indexed_fields())
        if not indexed:
            return None
        for fname, spec in self._value_conjuncts(u, entry.format):
            if fname not in indexed:
                continue
            if spec[0] == "eq":
                decisions.notes.append(
                    f"index lookup on {entry.name}.{fname}"
                )
                return (fname, spec[2])
            if spec[0] == "in":
                decisions.notes.append(
                    f"index lookup on {entry.name}.{fname} (IN-list)"
                )
                return (fname, spec[2], "in")
        return None

    def _value_conjuncts(self, u: _Unit, fmt: str) -> list[tuple]:
        """Pushed single-source conjuncts usable as index probes.

        Matches ``field <op> const-expr`` (either side, comparisons
        flipped), ``field IN (c1, c2, ...)``, with comparands constant-
        folded (negation, arithmetic on literals). Returns
        ``(field, spec)`` pairs, where ``field`` is a
        top-level column for CSV/DBMS sources and a dotted path for JSON,
        and ``spec`` is the lookup-tuple contract of
        :class:`~repro.indexing.ValueIndex`. Range conjuncts on one field
        arrive intersected into one bounded spec (``a >= x and a < y`` is
        one probe of the rows between, not two open-ended ones that each
        lose to the scan).
        """
        out: list[tuple] = []
        for p in u.pushed:
            if not isinstance(p, A.BinOp):
                continue
            if p.op == "in":
                fname = _proj_field(p.left, u.var, fmt)
                vals = _const_fold(p.right)
                if isinstance(vals, list):
                    vals = tuple(vals)
                if fname is not None and isinstance(vals, tuple):
                    out.append((fname, ("in", fname, vals)))
                continue
            if p.op != "=" and p.op not in _COMPARE_FLIP:
                continue
            for field_side, const_side, op in (
                (p.left, p.right, p.op),
                (p.right, p.left,
                 p.op if p.op == "=" else _COMPARE_FLIP[p.op]),
            ):
                fname = _proj_field(field_side, u.var, fmt)
                if fname is None:
                    continue
                value = _const_fold(const_side)
                if value is _NO_FOLD:
                    continue
                if op == "=":
                    spec = ("eq", fname, value)
                elif op in ("<", "<="):
                    spec = ("range", fname, None, value, False, op == "<=")
                else:
                    spec = ("range", fname, value, None, op == ">=", False)
                out.append((fname, spec))
                break
        return _intersect_ranges(out)

    def _choose_index_access(self, u: _Unit, entry, fmt: str, rows: int,
                             decisions: PlanDecisions) -> None:
        """Access-path selection for JIT value indexes, plus byproduct
        marking: every usable conjunct with a sufficiently covering index
        is costed with the index's own candidate count, and the cheapest
        serves the scan if it beats the pass it would replace.

        Over a warm raw scan that is ``access=index`` (probe + run reads +
        fetch at the calibrated warm factor + uncovered scan); over a
        cache-covered scan the access stays ``cache`` and the scan carries
        the probe (``index_lookup``): candidates are gathered from the
        cached columns, priced in the cached scan's own cells. A range too
        dense to win is rejected on the index's O(log n) lower bound, so
        planning a losing probe never sums a bucket. Every matched conjunct
        field of a raw scan is marked for byproduct emission either way, so
        plain scans keep growing the indexes the chooser will use next
        time."""
        matches = self._value_conjuncts(u, fmt)
        if not matches:
            return
        cached = u.access == "cache"
        if not cached:
            u.index_emit = tuple(dict.fromkeys(f for f, _s in matches))
        if not self.indexes or u.access == "cold":
            # positional fetch needs a complete posmap/semi-index; cold
            # scans only emit byproducts this round
            return
        nf = len(u.fields) or 1
        file_bytes = entry.fingerprint.size if entry.fingerprint else 0

        def cost(coverage: float, keys: int, count: int) -> float:
            if cached:
                return C.estimate_cache_index_scan(
                    rows, nf, coverage, keys, count,
                    calibration=self.calibration)
            return C.estimate_index_scan(
                fmt, rows, nf, coverage, count, file_bytes,
                calibration=self.calibration)

        costed: list[tuple[float, str, str, tuple]] = []
        for fname, spec in matches:
            idx = entry.state.indexes.get(fname)
            if idx is None:
                continue  # no index yet: emission will build one, no note
            coverage = idx.coverage(rows)
            if coverage < C.MIN_INDEX_COVERAGE:
                decisions.notes.append(
                    f"{u.var}: index on {entry.name}.{fname} rejected "
                    f"(coverage {coverage:.0%} < "
                    f"{C.MIN_INDEX_COVERAGE:.0%})"
                )
                continue
            keys = idx.key_count(spec)
            if keys is None:
                continue  # probe type this index can't serve
            # every key holds at least one row: a probe that loses at one
            # row per key loses outright, before any bucket is summed
            icost, shown = cost(coverage, keys, keys), f">={keys}"
            if icost < u.est_cost:
                count = idx.count(spec)
                icost, shown = cost(coverage, keys, count), f"~{count}"
            costed.append((icost, shown, fname, spec))
        if not costed:
            return
        costed.sort(key=lambda c: c[0])  # stable: ties go to conjunct order
        icost, shown, fname, spec = costed[0]
        losers = "".join(f"; rejected {f}: {n.lstrip('~')}"
                         for _c, n, f, _s in costed[1:])
        where = " over cache" if cached else ""
        if icost >= u.est_cost:
            decisions.notes.append(
                f"{u.var}: index on {entry.name}.{fname}{where} rejected "
                f"({shown} of {rows} rows, cost {icost:.0f} >= scan "
                f"{u.est_cost:.0f}{losers})"
            )
            return
        if not cached:
            if self._buy_due(u, entry, rows):
                decisions.notes.append(
                    f"{u.var}: index fetches have read the {rows} rows of "
                    f"{entry.name} over again; this scan populates "
                    f"[{', '.join(u.populate)}] instead of probing "
                    f"{entry.name}.{fname}"
                )
                return
            u.access = "index"
            # an index-served scan touches matching rows only; partial
            # columns must never be admitted as complete
            u.populate = ()
        u.index_lookup = spec
        u.est_cost = icost
        decisions.notes.append(
            f"{u.var}: index lookup on {entry.name}.{fname}{where} "
            f"({shown} of {rows} rows{losers})"
        )

    def _buy_due(self, u: _Unit, entry, rows: int) -> bool:
        """Rent or buy. An index-served raw scan never populates the cache,
        so a column reached only through an index is fetched from the file
        by every query that needs it. Once those fetches add up to the
        file's row count they have paid for one full scan (the ski-rental
        break-even): if the cache can take the missing columns without
        evicting anything — and could take every other column of the source
        after them, so that what is bought stays bought — this scan stays
        the populating warm scan it would have been, and later queries are
        cache-served."""
        if not u.populate or u.populate_layout != "columns" \
                or entry.state.rented < rows:
            return False
        if self._sel_push(u, entry, A.make_conjunction(u.pushed)):
            return False  # the pushdown would drop the population again
        width = len(getattr(entry.description.element_type, "fields", ()))
        return self.cache.can_add_columns(entry.state, u.populate, rows,
                                          max(width, len(u.populate)))

    def _build_tree(self, ordered, unit_by_var, equi, residual, decisions,
                    extra_exprs) -> PhysNode:
        from ..physical import PhysUnnest

        plan: PhysNode | None = None
        bound: set[str] = set()
        plan_rows = 1.0
        pending_residual = list(residual)

        def attach_residuals() -> None:
            nonlocal plan
            still: list[A.Expr] = []
            for p in pending_residual:
                vars_used = A.free_vars(p) & set(unit_by_var)
                if vars_used <= bound and plan is not None:
                    plan = PhysFilter(plan, p)
                else:
                    still.append(p)
            pending_residual[:] = still

        for u in ordered:
            if u.kind == "unnest":
                pred = A.make_conjunction(u.pushed) if u.pushed else None
                if plan is None:
                    raise PlanningError(f"unnest {u.var!r} has no parent plan")
                plan = PhysUnnest(plan, u.node.path, u.var, pred=pred)
                bound.add(u.var)
                plan_rows *= 5.0
                attach_residuals()
                continue

            leaf = self._leaf_plan(u, decisions)
            if plan is None:
                plan = leaf
                plan_rows = u.est_rows
                bound.add(u.var)
                attach_residuals()
                continue

            join_preds = [
                (v1, v2, e1, e2) for (v1, v2, e1, e2) in equi
                if (v1 in bound and v2 == u.var) or (v2 in bound and v1 == u.var)
            ]
            if join_preds:
                plan_keys: list[A.Expr] = []
                unit_keys: list[A.Expr] = []
                for v1, v2, e1, e2 in join_preds:
                    if v1 in bound:
                        plan_keys.append(e1)
                        unit_keys.append(e2)
                    else:
                        plan_keys.append(e2)
                        unit_keys.append(e1)
                if u.est_rows <= plan_rows:
                    plan = PhysHashJoin(
                        build=leaf, probe=plan,
                        build_keys=tuple(unit_keys), probe_keys=tuple(plan_keys),
                    )
                else:
                    plan = PhysHashJoin(
                        build=plan, probe=leaf,
                        build_keys=tuple(plan_keys), probe_keys=tuple(unit_keys),
                    )
                plan_rows = min(plan_rows, u.est_rows) * 2.0
            else:
                plan = PhysNLJoin(outer=plan, inner=leaf, pred=None)
                plan_rows = plan_rows * u.est_rows
                decisions.notes.append(f"cross join with {u.var}")
            bound.add(u.var)
            attach_residuals()

        if plan is None:
            raise PlanningError("empty plan: no generators")
        if pending_residual:
            for p in pending_residual:
                plan = PhysFilter(plan, p)
        return plan


#: comparison flip for const-on-the-left conjuncts (5 < p.age ≡ p.age > 5)
_COMPARE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: sentinel for "not a constant expression" (None is a valid constant)
_NO_FOLD = object()


def _intersect_ranges(matches: list[tuple]) -> list[tuple]:
    """Fold the range specs on one field (and one ordered domain) into a
    single spec with the tightest bound on either side, in the position of
    the first; everything else passes through in order."""
    out: list[tuple] = []
    at: dict[tuple, int] = {}
    for fname, spec in matches:
        bound = None
        if spec[0] == "range":
            bound = spec[2] if spec[2] is not None else spec[3]
        if isinstance(bound, (int, float)):
            key = (fname, "num")
        elif isinstance(bound, str):
            key = (fname, "str")
        else:
            out.append((fname, spec))
            continue
        i = at.setdefault(key, len(out))
        if i == len(out):
            out.append((fname, spec))
            continue
        _k, _f, lo, hi, lo_incl, hi_incl = out[i][1]
        _k, _f, lo2, hi2, lo_incl2, hi_incl2 = spec
        if lo2 is not None and (lo is None or lo2 > lo
                                or (lo2 == lo and not lo_incl2)):
            lo, lo_incl = lo2, lo_incl2
        if hi2 is not None and (hi is None or hi2 < hi
                                or (hi2 == hi and not hi_incl2)):
            hi, hi_incl = hi2, hi_incl2
        out[i] = (fname, ("range", fname, lo, hi, lo_incl, hi_incl))
    return out


def _proj_field(e: A.Expr, var: str, fmt: str) -> str | None:
    """The field a ``var.attr...`` projection chain names, or None.

    JSON sources accept dotted paths; CSV/DBMS columns are top-level only.
    """
    path: list[str] = []
    while isinstance(e, A.Proj):
        path.append(e.attr)
        e = e.expr
    if not path or not isinstance(e, A.Var) or e.name != var:
        return None
    if fmt != "json" and len(path) > 1:
        return None
    return ".".join(reversed(path))


def _const_fold(e: A.Expr):
    """Evaluate a constant expression to its Python value, or _NO_FOLD.

    Only operators both engines evaluate with plain Python semantics fold
    (literals, list literals, unary minus, + - * /), so a folded probe is
    exactly the value the predicate recheck will compare against.
    """
    if isinstance(e, A.Const):
        return e.value
    if isinstance(e, A.ListLit):
        items = [_const_fold(i) for i in e.items]
        if any(i is _NO_FOLD for i in items):
            return _NO_FOLD
        return tuple(items)
    if isinstance(e, A.UnOp) and e.op == "-":
        v = _const_fold(e.expr)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return _NO_FOLD
        return -v
    if isinstance(e, A.BinOp) and e.op in ("+", "-", "*", "/", "%"):
        left = _const_fold(e.left)
        right = _const_fold(e.right)
        if left is _NO_FOLD or right is _NO_FOLD:
            return _NO_FOLD
        try:
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            if e.op == "/":
                return left / right
            return left % right
        except (TypeError, ZeroDivisionError):
            return _NO_FOLD
    return _NO_FOLD


def _avg_json_object_bytes(entry) -> float:
    """Rough average top-level object size (file bytes / object count)."""
    import os

    plugin = entry.plugin
    try:
        size = os.path.getsize(plugin.path)
    except OSError:
        return 1024.0
    if plugin.has_semi_index():
        count = plugin.object_count() or 1
    else:
        count = max(1, size // 200)
    return size / count
