"""Physical query plans and field-usage analysis.

The optimizer lowers the logical algebra into these nodes, making the
raw-data-aware decisions of paper §5 explicit in the plan itself: which
access path each scan uses (cold raw scan, positional-map-navigated warm
scan, cache scan, …), which fields it must extract (projection pushdown —
for raw formats *every extracted field has a real parsing cost*, unlike a
buffer-pool DBMS), which extracted fields to admit to the cache, and how
joins are ordered and executed.

Both executors consume this plan: the JIT compiler emits fused Python code
from it; the static engine interprets it operator-by-operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mcc import ast as A
from ..mcc.monoids import Monoid
from .chunk import DEFAULT_BATCH_SIZE

#: access-path choices for a scan (paper §5 wrapper decisions)
ACCESS_COLD = "cold"        # tokenize everything, build auxiliary structures
ACCESS_WARM = "warm"        # navigate via positional map / semi-index
ACCESS_CACHE = "cache"      # serve from ViDa's data cache
ACCESS_MEMORY = "memory"    # in-memory registered collection
ACCESS_POSITIONS = "positions"  # carry (start,end) spans only (Figure 4d)
ACCESS_INDEX = "index"      # resolve rows via a JIT value index + posmap fetch


@dataclass
class VarUsage:
    """How a plan variable is consumed downstream of its binding."""

    paths: set[tuple[str, ...]] = field(default_factory=set)
    whole: bool = False

    def top_fields(self) -> tuple[str, ...]:
        return tuple(sorted({p[0] for p in self.paths}))

    def dotted_paths(self) -> tuple[str, ...]:
        return tuple(sorted(".".join(p) for p in self.paths))


def collect_usage(expr: A.Expr, acc: dict[str, VarUsage] | None = None) -> dict[str, VarUsage]:
    """Collect per-variable projection paths / whole-value uses in ``expr``.

    A maximal ``Proj`` chain rooted at ``Var(v)`` contributes one dotted
    path; a bare ``Var(v)`` anywhere else marks the whole value as needed.
    Variables bound inside nested comprehensions/lambdas are excluded.
    """
    if acc is None:
        acc = {}
    _collect(expr, acc, shadowed=set())
    return acc


def _collect(expr: A.Expr, acc: dict[str, VarUsage], shadowed: set[str]) -> None:
    if isinstance(expr, A.Var):
        if expr.name not in shadowed:
            acc.setdefault(expr.name, VarUsage()).whole = True
        return
    if isinstance(expr, A.Proj):
        path: list[str] = []
        base = expr
        while isinstance(base, A.Proj):
            path.append(base.attr)
            base = base.expr
        if isinstance(base, A.Var) and base.name not in shadowed:
            acc.setdefault(base.name, VarUsage()).paths.add(tuple(reversed(path)))
            return
        _collect(base, acc, shadowed)
        return
    if isinstance(expr, A.Lambda):
        _collect(expr.body, acc, shadowed | {expr.param})
        return
    if isinstance(expr, A.Comprehension):
        inner_shadow = set(shadowed)
        for q in expr.qualifiers:
            if isinstance(q, A.Generator):
                _collect(q.source, acc, inner_shadow)
                inner_shadow.add(q.var)
            elif isinstance(q, A.Filter):
                _collect(q.pred, acc, inner_shadow)
            elif isinstance(q, A.Bind):
                _collect(q.expr, acc, inner_shadow)
                inner_shadow.add(q.var)
        _collect(expr.head, acc, inner_shadow)
        return
    for child in expr.children():
        _collect(child, acc, shadowed)


# ---------------------------------------------------------------------------
# Physical plan nodes
# ---------------------------------------------------------------------------


class PhysNode:
    def children(self) -> tuple["PhysNode", ...]:
        return ()

    def bound_vars(self) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for child in self.children():
            out += child.bound_vars()
        return out


@dataclass
class PhysScan(PhysNode):
    """Scan one catalog source, binding ``var``.

    Attributes:
        fields: dotted paths the scan must extract (projection pushdown).
        access: one of the ACCESS_* constants.
        bind_whole: also bind the full element (records/objects needed whole).
        populate: dotted paths to admit into the data cache during this scan.
        populate_layout: layout for the admitted entry.
        pred: scan-local predicate (single-variable conjuncts pushed down).
        batch_size: rows per chunk on the vectorized scan path (planner pick).
        parallel: degree of parallelism for a morsel-driven scan (planner
            pick; 1 = serial). Only driver scans and direct hash-join build
            scans of splittable formats ever get > 1; such a scan runs its
            morsels in worker processes.
    """

    source: str
    var: str
    format: str
    fields: tuple[str, ...]
    access: str
    bind_whole: bool = False
    populate: tuple[str, ...] = ()
    populate_layout: str = "columns"
    pred: A.Expr | None = None
    #: equality pushed into a DBMS-source index lookup: (field, constant)
    #: or (field, (constants...), "in") for IN-lists
    index_eq: tuple | None = None
    #: probe spec for a JIT value index — ("eq", field, v),
    #: ("in", field, (vs...)) or ("range", field, lo, hi, lo_incl, hi_incl).
    #: With ACCESS_INDEX the candidates are fetched from the raw file; with
    #: ACCESS_CACHE they are gathered from the cached columns. Either way
    #: the scan keeps ``pred`` as a recheck, so partial coverage and hash
    #: false positives stay correct.
    index_lookup: tuple | None = None
    #: predicate-conjunct fields whose values the scan should emit as index
    #: byproducts (grows/creates JIT value indexes while scanning)
    index_emit: tuple = ()
    batch_size: int = DEFAULT_BATCH_SIZE
    parallel: int = 1
    #: selection pushdown into the scan itself (late materialization): the
    #: plugin evaluates the predicate kernel on the predicate columns and
    #: materialises the remaining columns only for surviving rows. Planner
    #: sets it for warm CSV scans with no cleaning/population/whole-binding.
    sel_push: bool = False
    #: planner estimates (output rows after pushed predicates, total cost
    #: units) — informational, surfaced by EXPLAIN; 0.0 = not estimated
    est_rows: float = 0.0
    est_cost: float = 0.0
    #: time travel: generation this scan is pinned to (``AS OF GENERATION``),
    #: or None for the live file. Pinned scans run cold+serial with no
    #: byproduct emission or cache population.
    as_of: int | None = None

    def bound_vars(self):
        return (self.var,)

    def chunk_fields(self) -> tuple:
        """Columns a chunked scan must extract: bound fields + populate-only.

        The runtime requests these (the engines bind the leading ones), so
        column alignment between generated code and the interpreter cannot
        drift.
        """
        return tuple(self.fields) + tuple(
            f for f in self.populate if f != "*" and f not in self.fields
        )

    def binds_objects(self) -> bool:
        """True when the engines bind the element itself — a parsed JSON
        object or a DBMS record — rather than columns (plus, for flat
        formats, the whole row record): the scan is bound whole, or
        projects nothing the engines could bind as a column."""
        return self.format in ("json", "dbms") and (
            self.bind_whole or not self.fields)

    def pred_fields(self) -> tuple:
        """The bound fields the scan predicate reads, in field order: the
        columns a pushed-down predicate kernel is called with."""
        use = collect_usage(self.pred).get(self.var) \
            if self.pred is not None else None
        if use is None or use.whole:
            return ()
        top = use.top_fields()
        return tuple(f for f in self.fields if f in top)

    def chunked(self) -> bool:
        """True when this scan moves data over the chunk protocol (and so
        can evaluate its predicate as a selection-vector kernel)."""
        if self.format == "memory" or self.access == ACCESS_MEMORY:
            return False
        if self.format == "dbms" and self.index_eq is not None:
            return False
        return True

    def vectorized_filter(self) -> bool:
        """True when the pushed-down predicate runs as a per-chunk
        selection-vector kernel instead of a per-row test (EXPLAIN's
        ``filter=vec``)."""
        return self.pred is not None and self.chunked()


@dataclass
class PhysExprScan(PhysNode):
    """Scan a constant/derived collection expression."""

    expr: A.Expr
    var: str
    pred: A.Expr | None = None

    def bound_vars(self):
        return (self.var,)


@dataclass
class PhysFilter(PhysNode):
    child: PhysNode
    pred: A.Expr

    def children(self):
        return (self.child,)


@dataclass
class PhysHashJoin(PhysNode):
    """Equi hash join; the build side is materialised into a hash table."""

    build: PhysNode
    probe: PhysNode
    build_keys: tuple[A.Expr, ...]
    probe_keys: tuple[A.Expr, ...]
    residual: A.Expr | None = None

    def children(self):
        return (self.build, self.probe)


@dataclass
class PhysNLJoin(PhysNode):
    """Nested-loop join for non-equi predicates (inner side materialised)."""

    outer: PhysNode
    inner: PhysNode
    pred: A.Expr | None = None

    def children(self):
        return (self.outer, self.inner)


@dataclass
class PhysUnnest(PhysNode):
    child: PhysNode
    path: A.Expr
    var: str
    pred: A.Expr | None = None

    def children(self):
        return (self.child,)

    def bound_vars(self):
        return self.child.bound_vars() + (self.var,)


@dataclass
class PhysNest(PhysNode):
    """Hash-based grouping: binds ``group_var`` to ⟨keys..., agg⟩ records."""

    child: PhysNode
    keys: tuple[tuple[str, A.Expr], ...]
    monoid: Monoid
    head: A.Expr
    group_var: str
    agg_name: str = "group"

    def children(self):
        return (self.child,)

    def bound_vars(self):
        return (self.group_var,)


@dataclass
class PhysReduce(PhysNode):
    """Root: fold heads through the output monoid."""

    child: PhysNode
    monoid: Monoid
    head: A.Expr

    def children(self):
        return (self.child,)


def parallel_driver(root: PhysReduce) -> PhysScan | None:
    """The scan driving the plan's outermost loop, if morsel-shardable.

    Both executors' outermost iteration follows the probe/outer/child chain
    from the root reduce; sharding *that* scan across morsels (with every
    worker folding into its own accumulator) is what the parallel strategy
    parallelizes. Grouping ``Nest`` nodes on the chain shard too: workers
    build per-key partial group accumulators over their morsels and the
    coordinator merges per key in morsel order (see ``chain_nest``). Plans
    whose chain ends elsewhere (expression scans) execute serially.
    """
    node: PhysNode = root.child
    while True:
        if isinstance(node, PhysScan):
            return node
        if isinstance(node, PhysFilter):
            node = node.child
        elif isinstance(node, PhysHashJoin):
            node = node.probe
        elif isinstance(node, PhysNLJoin):
            node = node.outer
        elif isinstance(node, (PhysUnnest, PhysNest)):
            node = node.child
        else:
            return None


def chain_nest(root: PhysReduce) -> PhysNest | None:
    """The grouping node at which a parallel plan shards, if any.

    Morsel workers iterate *below* this node and return per-key group
    partials; everything above it (including any outer Nest) runs at the
    coordinator over the merged groups. That makes the **bottom-most** Nest
    on the driver chain the only sound shard point: a Nest inside a worker
    would finalize groups over a single morsel's rows.
    """
    node: PhysNode = root.child
    found: PhysNest | None = None
    while True:
        if isinstance(node, PhysNest):
            found = node
            node = node.child
        elif isinstance(node, PhysFilter):
            node = node.child
        elif isinstance(node, PhysHashJoin):
            node = node.probe
        elif isinstance(node, PhysNLJoin):
            node = node.outer
        elif isinstance(node, PhysUnnest):
            node = node.child
        else:
            return found


def plan_scans(node: PhysNode) -> list[PhysScan]:
    """All PhysScan leaves of a plan (pre-order)."""
    out: list[PhysScan] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, PhysScan):
            out.append(n)
        stack.extend(reversed(n.children()))
    return out


def plan_sources(plan: PhysNode, names) -> set[str]:
    """Every catalog source (of ``names``) the plan touches: scan leaves
    plus sources referenced from embedded expressions (subquery
    generators)."""
    out: set[str] = set()
    stack: list = [plan]
    while stack:
        node = stack.pop()
        exprs: list = []
        if isinstance(node, PhysScan):
            out.add(node.source)
            exprs = [node.pred]
        elif isinstance(node, PhysExprScan):
            exprs = [node.expr, node.pred]
        elif isinstance(node, PhysFilter):
            exprs = [node.pred]
        elif isinstance(node, PhysHashJoin):
            exprs = [*node.build_keys, *node.probe_keys, node.residual]
        elif isinstance(node, PhysNLJoin):
            exprs = [node.pred]
        elif isinstance(node, PhysUnnest):
            exprs = [node.path, node.pred]
        elif isinstance(node, PhysNest):
            exprs = [e for _n, e in node.keys] + [node.head]
        elif isinstance(node, PhysReduce):
            exprs = [node.head]
        for e in exprs:
            if e is not None:
                out |= A.free_vars(e) & names
        stack.extend(node.children())
    return out


#: literal types generated code reads as parameters, with their slot tags;
#: ``bool`` (generated code branches on it) and null stay inline
LIFTED_TYPES = {int: "int", float: "float", str: "str"}


class _Slots:
    """The run-time values of a plan, in rendering order: what generated
    code reads from the plan it runs — lifted literals, the scan nodes
    (whose index probes and DBMS lookups carry values) and the fold and
    group monoids (``topk`` carries its ``k``)."""

    def __init__(self):
        self.values: list = []
        #: id(owner) → slot; one slot per owner however often it is seen
        self.index: dict[int, int] = {}

    def take(self, owner, value) -> int:
        slot = self.index.get(id(owner))
        if slot is None:
            slot = self.index[id(owner)] = len(self.values)
            self.values.append(value)
        return slot

    def lift(self, const: A.Const) -> str | None:
        """A type-tagged slot for a liftable literal (``?int3``): the slot
        number shows which occurrences share one value, the tag keeps
        ``1``, ``1.0`` and ``"1"`` apart. None keeps the value inline."""
        tag = LIFTED_TYPES.get(type(const.value))
        if tag is None:
            return None
        return f"?{tag}{self.take(const, const.value)}"


def _tag(value) -> str:
    tag = LIFTED_TYPES.get(type(value))
    return f"?{tag}" if tag is not None else repr(value)


@dataclass(frozen=True)
class PlanShape:
    """A physical plan as the code compiled for it sees it.

    ``key`` — the compile-cache key — is the plan rendered with a typed
    slot wherever it holds a value generated code reads at run time, and
    without row/cost estimates or pinned generations, which generated code
    never reads. ``params`` holds those values in slot order: every plan
    with this key runs the one compiled function, called with its own
    ``params``. ``slots`` maps each value's owner (by ``id``) to its slot,
    for the compiler.
    """

    plan: PhysReduce
    key: str
    params: tuple
    slots: dict = field(compare=False, repr=False)


def plan_shape(plan: PhysReduce) -> PlanShape:
    """The shape of ``plan``: one rendering pass, no copy."""
    slots = _Slots()
    key = explain_physical(plan, slots=slots)
    return PlanShape(plan, key, tuple(slots.values), slots.index)


def explain_physical(node: PhysNode, indent: int = 0,
                     slots: _Slots | None = None) -> str:
    """Readable physical-plan rendering (EXPLAIN output). With ``slots``
    it renders the compile key instead (:func:`plan_shape`)."""
    from ..mcc.pretty import pretty

    lift = slots.lift if slots is not None else None

    def pp(expr: A.Expr) -> str:
        return pretty(expr, lift)

    def child(sub: PhysNode) -> str:
        return explain_physical(sub, indent + 1, slots)

    pad = "  " * indent
    if isinstance(node, PhysScan):
        if node.access == ACCESS_INDEX and node.index_lookup is not None:
            extras = [f"access=index[{node.index_lookup[1]}]"]
        elif node.access == ACCESS_CACHE and node.index_lookup is not None:
            extras = [f"access=cache+index[{node.index_lookup[1]}]"]
        else:
            extras = [f"access={node.access}"]
        if slots is not None:
            slots.take(node, node)
            extras.insert(0, node.format)
        if node.access in (ACCESS_COLD, ACCESS_WARM) and node.format in (
            "csv", "json", "array", "xls"
        ):
            extras.append(f"batch={node.batch_size}")
        if node.parallel > 1:
            extras.append(f"parallel={node.parallel}")
        if node.fields:
            extras.append(f"fields=[{', '.join(node.fields)}]")
        if node.bind_whole:
            extras.append("whole")
        if node.populate:
            extras.append(f"populate=[{', '.join(node.populate)}]->{node.populate_layout}")
        if node.pred is not None:
            extras.append(f"pred={pp(node.pred)}")
            if node.sel_push:
                extras.append("filter=vec+push")
            else:
                extras.append(
                    "filter=vec" if node.vectorized_filter() else "filter=row"
                )
        if node.index_eq is not None:
            field_name, value = node.index_eq[0], node.index_eq[1]
            in_list = len(node.index_eq) == 3 and node.index_eq[2] == "in"
            if slots is not None:
                # the lookup reads the values off the scan node, a parameter
                value = tuple(map(_tag, value)) if in_list else _tag(value)
            if in_list:
                extras.append(f"index[{field_name} in {value!r}]")
            else:
                extras.append(f"index[{field_name}={value!r}]")
        if node.index_emit:
            extras.append(f"index-emit=[{', '.join(node.index_emit)}]")
        if slots is None and node.as_of is not None:
            extras.append(f"generation={node.as_of}")
        if slots is None and (node.est_rows or node.est_cost):
            extras.append(
                f"est_rows=~{node.est_rows:.0f} est_cost=~{node.est_cost:.0f}"
            )
        return f"{pad}Scan({node.source} as {node.var}; {', '.join(extras)})"
    if isinstance(node, PhysExprScan):
        s = f"{pad}ExprScan({pp(node.expr)} as {node.var}"
        if node.pred is not None:
            s += f"; pred={pp(node.pred)}"
        return s + ")"
    if isinstance(node, PhysFilter):
        return f"{pad}Filter[{pp(node.pred)}]\n" + child(node.child)
    if isinstance(node, PhysHashJoin):
        keys = ", ".join(
            f"{pp(b)}={pp(p)}" for b, p in zip(node.build_keys, node.probe_keys)
        )
        s = f"{pad}HashJoin[{keys}]"
        if node.residual is not None:
            s += f" residual[{pp(node.residual)}]"
        return s + "\n" + child(node.build) + "\n" + child(node.probe)
    if isinstance(node, PhysNLJoin):
        pred = pp(node.pred) if node.pred is not None else "true"
        return (f"{pad}NLJoin[{pred}]\n" + child(node.outer)
                + "\n" + child(node.inner))
    if isinstance(node, PhysUnnest):
        s = f"{pad}Unnest[{pp(node.path)} as {node.var}"
        if node.pred is not None:
            s += f"; pred={pp(node.pred)}"
        return s + "]\n" + child(node.child)
    if isinstance(node, PhysNest):
        if slots is not None:
            slots.take(node, node.monoid)
        keys = ", ".join(f"{n}={pp(e)}" for n, e in node.keys)
        agg = f" ({node.agg_name})" if slots is not None else ""
        return (
            f"{pad}Nest[{keys}; {node.monoid.name} {pp(node.head)} as "
            f"{node.group_var}{agg}]\n" + child(node.child)
        )
    if isinstance(node, PhysReduce):
        if slots is not None:
            slots.take(node, node.monoid)
        return (
            f"{pad}Reduce[{node.monoid.name} {pp(node.head)}]\n"
            + child(node.child)
        )
    raise TypeError(f"cannot explain {type(node).__name__}")
