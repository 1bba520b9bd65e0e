"""JIT query compiler: physical plan → specialised Python source → function.

This is the Python analogue of ViDa's LLVM code generation (paper §4): one
fused, push-style (produce/consume, a la HyPer) function is generated *per
plan shape* — the plan with its values taken out (:func:`plan_shape`) —
with

- *vectorized* scans: every scan is one ``_rt.scan(...)`` call streaming
  columnar chunks (tokenized and converted batch-at-a-time by the format
  plugins' column kernels; format, access path and the by-products the
  scan leaves behind — cache population included — are the runtime's
  business), and the generated loop binds locals straight off the column
  lists with C-level ``zip`` iteration,
- predicates, join probes and accumulator updates inlined in the loop body —
  no operator boundaries, no per-tuple interpretation, and
- "general-purpose checks stripped": whole-element binding and predicate
  tests are emitted only when the plan asks for them.

Generated code never inlines a value it reads from a plan. Literals,
scan nodes (which carry index probe values) and monoids arrive as the
parameter tuple ``_P`` that the function unpacks into locals on entry, so
one compiled function serves every literal of a shape — the way JIT
database engines amortise compile time over prepared statements. Kernels
read a lifted literal as a local, exactly as they read a constant; a
lifted literal is never null, so it adds no null guard.

The generated module source is kept on the result object for inspection
(``QueryResult.code``) — the moral equivalent of dumping the LLVM IR.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

from ...errors import CodegenError
from ...mcc import ast as A
from ...mcc.monoids import Monoid
from ..physical import (
    PhysExprScan,
    PhysFilter,
    PhysHashJoin,
    PhysNest,
    PhysNLJoin,
    PhysNode,
    PhysReduce,
    PhysScan,
    PhysUnnest,
    PlanShape,
    chain_nest,
    parallel_driver,
    plan_shape,
)
from .exprs import ExprContext, ObjectBinding, ScalarBinding, compile_expr
from .helpers import HELPERS


@dataclass
class CompiledQuery:
    """One compiled plan shape: callable + its generated source for
    inspection. ``key`` is the shape's compile key."""

    source: str
    fn: object
    key: str

    def __call__(self, runtime, shape: PlanShape):
        """Run the plan of ``shape`` — any plan of this compiled shape,
        with its own values."""
        if shape.key != self.key:
            raise CodegenError("plan shape does not match the compiled code")
        runtime.program = ("jit", shape.plan)
        return self.fn(runtime, shape.params)

    def worker(self, name: str):
        """The morsel worker ``name``: a top-level function of the
        generated module."""
        return self.fn.__globals__[name]


class CodeWriter:
    """One generated function body."""

    def __init__(self, indent: int = 1):
        self.lines: list[str] = []
        self.indent = indent

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    @contextmanager
    def block(self, header: str):
        self.emit(header)
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1

    def text(self) -> str:
        return "\n".join(self.lines)


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _is_true(pred) -> bool:
    return pred is None or (isinstance(pred, A.Const) and pred.value is True)


def _name_used(src: str, name: str) -> bool:
    """Does compiled source ``src`` reference the local ``name``?"""
    return re.search(rf"(?<![\w]){re.escape(name)}(?![\w])", src) is not None


def _contains_comprehension(expr) -> bool:
    """Nested comprehensions compile to helper functions taking the outer
    locals as *parameters* — they cannot live inside a kernel that rebinds
    locals to tuple subscripts, so fused join folds must skip them."""
    if expr is None:
        return False
    if isinstance(expr, A.Comprehension):
        return True
    return any(_contains_comprehension(c) for c in expr.children())


class _ChunkCtx:
    """Per-chunk emitted state: the (possibly predicate-narrowed) column
    list variable, whole-element variable, and surviving-row count."""

    def __init__(self, names: list[str], cols: str | None, total: int,
                 whole: str | None, whole_local: str | None,
                 count: str | None):
        self.names = names          # locals aligned with cols[:len(names)]
        self.cols = cols            # var holding the chunk's column lists
        self.total = total          # how many columns ``cols`` carries
        self.whole = whole          # var holding the whole-element list
        self.whole_local = whole_local
        self.count = count          # var holding the surviving-row count

    def sliced_cols(self) -> str:
        """Column-list expression narrowed to the bound locals."""
        k = len(self.names)
        return self.cols if self.total == k else f"{self.cols}[:{k}]"


def _row_iter(ctx: _ChunkCtx) -> tuple[str, str, bool]:
    """(target, iterable, yields-scalar) for iterating a chunk's rows.

    The iteration is a C-level ``zip`` over column lists; ``scalar`` is True
    when the iterable yields bare values rather than tuples.
    """
    names = ctx.names
    if names and ctx.whole_local:
        if len(names) == 1:
            return (f"{names[0]}, {ctx.whole_local}",
                    f"zip({ctx.cols}[0], {ctx.whole})", False)
        return (f"({', '.join(names)}), {ctx.whole_local}",
                f"zip(zip(*{ctx.sliced_cols()}), {ctx.whole})", False)
    if names:
        if len(names) == 1:
            return names[0], f"{ctx.cols}[0]", True
        return ", ".join(names), f"zip(*{ctx.sliced_cols()})", False
    if ctx.whole_local:
        return ctx.whole_local, ctx.whole, True
    return "_", f"range({ctx.count})", True


# ---------------------------------------------------------------------------
# Morsel-parallel scans
# ---------------------------------------------------------------------------
#
# When the planner marks a scan ``parallel=N`` the generated code wraps that
# scan's chunk loop in a *morsel worker*: a top-level function
# ``worker(_rt, _shared, _split)`` whose first statements bind the plan's
# parameters and the read-only state the coordinator built (hash tables,
# NL-join rows — the compiler knows their names because it allocated them)
# from ``_shared`` and initialise the partial it returns: the root monoid's
# accumulator, a hash table, or per-key groups. The parameters travel in
# ``_shared`` too, so a worker process reads the values of the plan being
# run, whichever plan of the shape it compiled. The coordinator makes one
# ``_rt.run_parallel`` call, which splits, fans out to worker processes,
# merges the partials in morsel order and finishes the scan.


def _fold_init(name: str) -> list[str]:
    """Accumulator initialisation for the root fold (the serial function
    and every morsel worker). The accumulator is the monoid's own
    (``(_sum, _cnt)`` for ``avg``), so a worker's partial merges through
    ``Monoid.merge``; a ``set`` fold dedups into its ``items`` dict inline."""
    if name in ("sum", "count"):
        return ["_acc = 0"]
    if name == "prod":
        return ["_acc = 1"]
    if name in ("max", "min"):
        return ["_acc = None"]
    if name == "avg":
        return ["_sum = 0.0", "_cnt = 0"]
    if name == "any":
        return ["_acc = False"]
    if name == "all":
        return ["_acc = True"]
    if name in ("bag", "list"):
        return ["_acc = []"]
    if name == "set":
        return ["_acc = _M.zero()", "_seen = _acc.items"]
    return ["_acc = _M.zero()"]


class _BuildSink:
    """Vectorized hash-join build side: one fused key+row kernel per chunk
    (a comprehension evaluating the build key and materialising the row
    tuple per surviving row) feeding a tight bulk dict-insert loop."""

    def __init__(self, ht: str, node: PhysHashJoin):
        self.ht = ht
        self.node = node

    def emit(self, c: "QueryCompiler", ctx: _ChunkCtx) -> None:
        w = c.w
        locals_list = c._binding_locals(self.node.build.bound_vars())
        row = ", ".join(locals_list) + ("," if len(locals_list) == 1 else "")
        key = c._join_key(self.node.build_keys)
        tgt, it, _scalar = _row_iter(ctx)
        kb = c._next("kb")
        w.emit(f"{kb} = [({key}, ({row})) for {tgt} in {it}]")
        hg = c._next("hg")
        w.emit(f"{hg} = {self.ht}.get")
        with w.block(f"for _k, _r in {kb}:"):
            w.emit(f"_b = {hg}(_k)")
            with w.block("if _b is None:"):
                w.emit(f"{self.ht}[_k] = [_r]")
            with w.block("else:"):
                w.emit("_b.append(_r)")


class _ProbeSink:
    """Vectorized hash-join probe side: a batched key-lookup kernel emits a
    matched-selection vector per chunk; surviving probe rows are compacted
    with per-column kernels, and either the root fold fuses over them or the
    downstream consumer runs row-at-a-time over matches only."""

    def __init__(self, ht: str, node: PhysHashJoin, build_locals: list[str],
                 consume, fold: tuple | None):
        self.ht = ht
        self.node = node
        self.build_locals = build_locals
        self.consume = consume
        self.fold = fold

    def emit(self, c: "QueryCompiler", ctx: _ChunkCtx) -> None:
        w = c.w
        key = c._join_key(self.node.probe_keys)
        tgt, it, _scalar = _row_iter(ctx)
        kp = c._next("kp")
        ms = c._next("ms")
        w.emit(f"{kp} = [{key} for {tgt} in {it}]")
        w.emit(f"{ms} = [_i for _i, _k in enumerate({kp}) if _k in {self.ht}]")
        with w.block(f"if not {ms}:"):
            w.emit("continue")
        mk = c._next("mk")
        w.emit(f"{mk} = [{kp}[_i] for _i in {ms}]")
        c._emit_narrow(ctx, ms)
        tgt, it, scalar = _row_iter(ctx)
        joined_tgt = f"_k, {tgt}" if scalar else f"_k, ({tgt})"
        joined_it = f"zip({mk}, {it})"
        if self.fold is not None:
            self._emit_fused_fold(c, joined_tgt, joined_it, mk)
            return
        rv = c._next("r")
        with w.block(f"for {joined_tgt} in {joined_it}:"):
            with w.block(f"for {rv} in {self.ht}[_k]:"):
                for i, name in enumerate(self.build_locals):
                    w.emit(f"{name} = {rv}[{i}]")
                c._emit_pred_then(self.node.residual, self.consume)

    def _emit_fused_fold(self, c: "QueryCompiler", joined_tgt: str,
                         joined_it: str, mk: str) -> None:
        """Root fold fused over the surviving (matched) join rows: one
        comprehension per chunk spanning probe matches × build rows."""
        w = c.w
        name, head_expr = self.fold
        residual = self.node.residual
        if name == "count" and _is_true(residual):
            w.emit(f"_acc += sum(len({self.ht}[_k]) for _k in {mk})")
            return
        # build-side locals live in hash-table row tuples inside the
        # comprehension: rebind them to subscripts of the row variable
        saved: dict[str, object] = {}
        pos = {n: i for i, n in enumerate(self.build_locals)}
        for var in self.node.build.bound_vars():
            binding = c.ctx.bindings[var]
            saved[var] = binding
            if isinstance(binding, ObjectBinding):
                c.ctx.bindings[var] = ObjectBinding(f"_r[{pos[binding.local]}]")
            else:
                c.ctx.bindings[var] = ScalarBinding(
                    {p: f"_r[{pos[l]}]"
                     for p, l in binding.locals_by_path.items()},
                    whole_local=(f"_r[{pos[binding.whole_local]}]"
                                 if binding.whole_local else None),
                )
        try:
            cond = ""
            if not _is_true(residual):
                cond = f" if {compile_expr(residual, c.ctx)}"
            inner = f"for {joined_tgt} in {joined_it} for _r in {self.ht}[_k]{cond}"
            if name == "count":
                w.emit(f"_acc += sum(1 {inner})")
                return
            head = compile_expr(head_expr, c.ctx)
            c._emit_fold_tail(name, f"[{head} {inner}]")
        finally:
            c.ctx.bindings.update(saved)


class QueryCompiler:
    """Compiles one physical plan into a Python function ``fn(runtime)``.

    Chunked scans evaluate their predicates as per-chunk selection-vector
    kernels and feed hash-join build/probe a chunk at a time; the row loop
    is what memory, expression and DBMS-index scans run, and what takes a
    predicate :meth:`_emit_pred_kernel` declines.
    """

    def __init__(self, catalog):
        self.catalog = catalog

    def compile(self, plan: PhysReduce) -> CompiledQuery:
        shape = plan_shape(plan)
        #: id(value owner) → the local its parameter slot unpacks into
        self._params: dict[int, str] = {}
        names = []
        owners = {slot: owner for owner, slot in shape.slots.items()}
        for slot, value in enumerate(shape.params):
            if owners[slot] == id(plan):
                name = "_M"  # the root fold's monoid
            elif isinstance(value, PhysScan):
                name = f"_sc{slot}"
            elif isinstance(value, Monoid):
                name = f"_gm{slot}"
            else:
                name = f"_p{slot}"
            self._params[owners[slot]] = name
            names.append(name)
        #: the statement binding every parameter to its local
        self._unpack = ", ".join(names) + ("," if len(names) == 1 else "")
        self.ctx = ExprContext(source_names=self.catalog.names(),
                               params=self._params)
        self.w = CodeWriter(indent=1)
        self._counter = 0
        #: (monoid name, head expr) when the root fold fuses into chunk kernels
        self._fold: tuple | None = None
        #: chunk-level consumer (join build/probe sink) replacing the row loop
        self._chunk_sink: object | None = None
        #: id(PhysScan) → (merge kind, partial, merge monoid, partial init
        #: lines) for morsel-parallel scans
        self._parallel: dict[int, tuple] = {}
        #: coordinator-built state the consumer being emitted reads (hash
        #: tables, NL-join rows): what a morsel worker takes from ``_shared``
        self._state: list[str] = []
        #: top-level morsel worker definitions
        self._workers: list[str] = []
        #: the Nest a parallel plan shards at, and the driver scan feeding it
        self._shard: tuple | None = None

        self._emit_reduce(plan)

        prelude = CodeWriter(indent=1)
        prelude.emit(f"{self._unpack} = _P")
        for helper_name in sorted(HELPERS):
            prelude.emit(f"{helper_name} = _H[{helper_name!r}]")

        parts: list[str] = []
        parts.extend(self.ctx.subqueries)
        parts.extend(self._workers)
        parts.append("def _vida_query(_rt, _P):")
        parts.append(prelude.text())
        parts.append(self.w.text())
        source = "\n".join(parts)

        globals_ns: dict = {
            "_H": HELPERS,
            "_m_sqrt": math.sqrt,
            "_m_exp": math.exp,
            "_m_log": math.log,
        }
        # Subqueries and morsel workers resolve helpers via module globals;
        # the main function shadows them with locals in its prelude for speed.
        globals_ns.update(HELPERS)
        try:
            code = compile(source, "<vida-jit>", "exec")
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise CodegenError(f"generated code failed to compile: {exc}\n{source}") from exc
        exec(code, globals_ns)
        return CompiledQuery(source, globals_ns["_vida_query"], shape.key)

    # -- id helpers -----------------------------------------------------------

    def _next(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    # -- reduce (root) -----------------------------------------------------------

    def _emit_reduce(self, node: PhysReduce) -> None:
        name = node.monoid.name
        acc = "(_sum, _cnt)" if name == "avg" else "_acc"

        driver = parallel_driver(node)
        nest = chain_nest(node)
        if driver is not None and driver.parallel > 1 and nest is None:
            # the accumulator is the morsel workers' partial; the
            # coordinator binds the merged one
            self._parallel[id(driver)] = ("fold", acc, "_M", _fold_init(name))
        else:
            if driver is not None and driver.parallel > 1:
                # the shard point is the bottom-most nest: workers build
                # per-key group partials, and everything above the nest —
                # including this root fold — runs serially at the
                # coordinator over the merged groups
                self._shard = (nest, driver)
            for line in _fold_init(name):
                self.w.emit(line)

        def consume() -> None:
            w = self.w
            head = compile_expr(node.head, self.ctx)
            if name == "sum":
                w.emit(f"_h = {head}")
                with w.block("if _h is not None:"):
                    w.emit("_acc += _h")
            elif name == "count":
                w.emit("_acc += 1")
            elif name == "prod":
                w.emit(f"_h = {head}")
                with w.block("if _h is not None:"):
                    w.emit("_acc *= _h")
            elif name == "max":
                w.emit(f"_h = {head}")
                with w.block("if _h is not None and (_acc is None or _h > _acc):"):
                    w.emit("_acc = _h")
            elif name == "min":
                w.emit(f"_h = {head}")
                with w.block("if _h is not None and (_acc is None or _h < _acc):"):
                    w.emit("_acc = _h")
            elif name == "avg":
                w.emit(f"_h = {head}")
                with w.block("if _h is not None:"):
                    w.emit("_sum += _h")
                    w.emit("_cnt += 1")
            elif name == "any":
                w.emit(f"_acc = _acc or bool({head})")
            elif name == "all":
                w.emit(f"_acc = _acc and bool({head})")
            elif name in ("bag", "list"):
                w.emit(f"_acc.append({head})")
            elif name == "set":
                w.emit(f"_h = {head}")
                w.emit("_hk = _hashable(_h)")
                with w.block("if _hk not in _seen:"):
                    w.emit("_seen[_hk] = _h")
            else:
                w.emit(f"_acc = _M.merge(_acc, _M.lift({head}))")

        # When the root fold consumes a chunked scan directly, the whole
        # reduce vectorizes: one comprehension kernel per chunk instead of a
        # Python-level loop iteration per row (paper §4's "no per-tuple
        # interpretation", batch edition). The same fusion applies through a
        # hash join whose probe is a chunked scan: the fold comprehension
        # then spans the matched-selection survivors × build rows.
        fusible = name in ("count", "sum", "avg", "bag", "list", "max", "min")
        if fusible:
            if isinstance(node.child, PhysScan):
                self._fold = (name, node.head)
            elif isinstance(node.child, PhysHashJoin) \
                    and self._sinkable(node.child.probe) \
                    and not _contains_comprehension(node.head) \
                    and not _contains_comprehension(node.child.residual):
                self._fold = (name, node.head)
        self._emit_node(node.child, consume)
        self._fold = None
        self.w.emit(f"return _M.finalize({acc})")

    # -- plan dispatch -----------------------------------------------------------

    def _emit_node(self, node: PhysNode, consume) -> None:
        if isinstance(node, PhysScan):
            self._emit_scan(node, consume)
        elif isinstance(node, PhysExprScan):
            self._emit_expr_scan(node, consume)
        elif isinstance(node, PhysFilter):
            self._emit_filter(node, consume)
        elif isinstance(node, PhysHashJoin):
            self._emit_hash_join(node, consume)
        elif isinstance(node, PhysNLJoin):
            self._emit_nl_join(node, consume)
        elif isinstance(node, PhysUnnest):
            self._emit_unnest(node, consume)
        elif isinstance(node, PhysNest):
            self._emit_nest(node, consume)
        else:
            raise CodegenError(f"cannot emit {type(node).__name__}")

    def _emit_pred_then(self, pred: A.Expr | None, consume) -> None:
        if pred is None or (isinstance(pred, A.Const) and pred.value is True):
            consume()
            return
        with self.w.block(f"if {compile_expr(pred, self.ctx)}:"):
            consume()

    # -- scans -----------------------------------------------------------

    def _emit_scan(self, node: PhysScan, consume) -> None:
        """One scan: a loop over the chunks of its one ``_rt.scan`` call
        (memory collections and DBMS index lookups run row at a time). The
        engines bind the element itself (:meth:`PhysScan.binds_objects`) or
        the scan's fields as locals, plus the whole row record when it is
        bound whole."""
        w = self.w
        var = _sanitize(node.var)
        if node.format == "memory" or node.access == "memory" \
                or node.index_eq is not None:
            local = f"_{var}_obj"
            self.ctx.bindings[node.var] = ObjectBinding(local)
            if node.index_eq is None:
                call = f"_rt.memory({node.source!r})"
            else:
                call = (f"_rt.dbms_rows({node.source!r}, "
                        f"{self._params[id(node)]}.index_eq)")
            with w.block(f"for {local} in {call}:"):
                self._emit_pred_then(node.pred, consume)
            return
        locals_by_path = {f: f"_{var}_{_sanitize(f)}" for f in node.fields}
        if node.binds_objects():
            whole_local = f"_{var}_obj"
            self.ctx.bindings[node.var] = ObjectBinding(whole_local)
            names: list[str] = []
        else:
            whole_local = f"_{var}_obj" if node.bind_whole else None
            self.ctx.bindings[node.var] = ScalarBinding(
                dict(locals_by_path), whole_local=whole_local)
            names = [locals_by_path[f] for f in node.fields]
        parallel = self._parallel.get(id(node))
        if parallel is None:
            self._emit_chunk_loop(node, locals_by_path, names, whole_local,
                                  consume)
            return
        # the chunk loop becomes the body of a top-level morsel worker
        kind, partial, monoid, init = parallel
        state = list(self._state)
        coordinator, self.w = self.w, CodeWriter(indent=1)
        self.w.emit(f"{self._unpack} = _shared['_P']")
        for name in state:
            self.w.emit(f"{name} = _shared[{name!r}]")
        for line in init:
            self.w.emit(line)
        scan = self._emit_chunk_loop(node, locals_by_path, names, whole_local,
                                     consume, split="_split")
        self.w.emit(f"return {partial}")
        worker = self._next("mw")
        body, self.w = self.w, coordinator
        self._workers.append(f"def {worker}(_rt, _shared, _split):\n"
                             + body.text())
        shared = ", ".join(f"{name!r}: {name}" for name in ["_P", *state])
        self.w.emit(f"{partial} = _rt.run_parallel({scan}, {worker}, "
                    f"{{{shared}}}, ({kind!r}, {monoid}))")

    def _emit_chunk_loop(self, node: PhysScan, locals_by_path: dict,
                         names: list[str], whole_local: str | None, consume,
                         split: str | None = None) -> str:
        """The loop over one ``_rt.scan`` call's chunks (of morsel ``split``
        in a morsel worker); returns the local naming the scan node."""
        pred = node.pred
        kernel = None
        if node.sel_push and pred is not None:
            kernel = self._emit_pred_pushdown(node, locals_by_path)
            if kernel is not None:
                pred = None  # chunks arrive as dense predicate survivors
        scan = self._params[id(node)]
        args = [scan]
        if split is not None:
            args.append(split)
        if kernel is not None:
            args.append(f"pred_kernel={kernel}")
        ch = self._next("ch")
        with self.w.block(f"for {ch} in _rt.scan({', '.join(args)}):"):
            self._emit_chunk_body(ch, names, whole_local,
                                  len(node.chunk_fields()), pred, consume)
        return scan

    def _sinkable(self, node) -> bool:
        """A bare chunked scan whose chunk loop can host a join sink."""
        return (isinstance(node, PhysScan) and node.chunked()
                and bool(node.fields or node.bind_whole))

    def _emit_chunk_body(self, ch: str, names: list[str],
                         whole_local: str | None, total: int, pred,
                         consume) -> None:
        """Emit one chunk's processing inside the scan's chunk loop.

        Chunks arrive dense, carrying ``total`` columns of which ``names``
        bind the leading ones. Stages, all vectorized per chunk:

        1. *predicate kernel* — the pushed-down predicate narrows a fresh
           selection vector in one comprehension; empty short-circuits the
           batch and survivors compact once per column;
        2. *dispatch* — fused root-fold kernel, join build/probe sink, or
           the plain row loop over the surviving rows.
        """
        w = self.w
        if _is_true(pred):
            pred = None
        fold = self._fold
        sink = self._chunk_sink
        need_n = (not names and whole_local is None) or (
            fold is not None and fold[0] == "count")
        cols_var = whole_var = count_var = None
        if names:
            cols_var = self._next("cc")
            w.emit(f"{cols_var} = {ch}.columns")
        if whole_local is not None:
            whole_var = self._next("cw")
            w.emit(f"{whole_var} = {ch}.whole")
        if need_n:
            count_var = self._next("cn")
            w.emit(f"{count_var} = {ch}.length")
        ctx = _ChunkCtx(names, cols_var, total, whole_var, whole_local,
                        count_var)
        row_pred = pred
        if pred is not None and fold is None:
            if self._emit_pred_kernel(ctx, pred):
                row_pred = None
        if fold is not None:
            self._emit_fold_kernel(ctx, pred)
            return
        if sink is not None and row_pred is None:
            sink.emit(self, ctx)
            return
        tgt, it, _scalar = _row_iter(ctx)
        with w.block(f"for {tgt} in {it}:"):
            self._emit_pred_then(row_pred, consume)

    def _emit_pred_kernel(self, ctx: _ChunkCtx, pred) -> bool:
        """Vectorized filter: one comprehension evaluating the predicate
        over exactly the columns it touches, producing a selection vector.
        Empty vectors short-circuit the batch; survivors compact via
        per-column kernels. Returns False for row-independent predicates
        (nothing to vectorize over) — the caller keeps the row-loop test."""
        w = self.w
        src = compile_expr(pred, self.ctx)
        used = [i for i, n in enumerate(ctx.names) if _name_used(src, n)]
        use_w = ctx.whole_local is not None and _name_used(src, ctx.whole_local)
        if not used and not use_w:
            if ctx.names:
                used = list(range(len(ctx.names)))
            elif ctx.whole_local is not None:
                use_w = True
            else:
                return False
        targets = [ctx.names[i] for i in used]
        sources = [f"{ctx.cols}[{i}]" for i in used]
        if use_w:
            targets.append(ctx.whole_local)
            sources.append(ctx.whole)
        sel = self._next("sl")
        if len(sources) == 1:
            w.emit(f"{sel} = [_i for _i, {targets[0]} in "
                   f"enumerate({sources[0]}) if {src}]")
        else:
            w.emit(f"{sel} = [_i for _i, ({', '.join(targets)}) in "
                   f"enumerate(zip({', '.join(sources)})) if {src}]")
        with w.block(f"if not {sel}:"):
            w.emit("continue")
        self._emit_narrow(ctx, sel)
        return True

    def _emit_narrow(self, ctx: _ChunkCtx, sel: str) -> None:
        """Compact a chunk context to the rows a selection vector names."""
        w = self.w
        k = len(ctx.names)
        if ctx.cols is not None and k:
            w.emit(f"{ctx.cols} = [[_c[_i] for _i in {sel}] "
                   f"for _c in {ctx.sliced_cols()}]")
            ctx.total = k
        if ctx.whole is not None:
            w.emit(f"{ctx.whole} = [{ctx.whole}[_i] for _i in {sel}]")
        if ctx.count is not None:
            w.emit(f"{ctx.count} = len({sel})")

    def _emit_fold_kernel(self, ctx: _ChunkCtx, pred) -> None:
        """Vectorized root fold: one comprehension per chunk.

        Emitted instead of the row loop when the reduce sits directly on a
        chunked scan; filter predicate and head evaluation run inside a
        single list comprehension/`sum`/`max` per chunk (the predicate stays
        fused here — a separate selection pass would cost a second kernel).
        """
        w = self.w
        name, head_expr = self._fold
        tgt, it, _scalar = _row_iter(ctx)
        cond = ""
        if not _is_true(pred):
            cond = f" if {compile_expr(pred, self.ctx)}"
        if name == "count":
            if cond:
                w.emit(f"_acc += sum(1 for {tgt} in {it}{cond})")
            else:
                w.emit(f"_acc += {ctx.count}")
            return
        head = compile_expr(head_expr, self.ctx)
        self._emit_fold_tail(name, f"[{head} for {tgt} in {it}{cond}]")

    def _emit_fold_tail(self, name: str, comp: str) -> None:
        """Merge one chunk-kernel comprehension into the fold accumulator."""
        w = self.w
        if name in ("bag", "list"):
            w.emit(f"_acc.extend({comp})")
            return
        hs = self._next("hs")
        if name == "sum":
            w.emit(f"_acc += sum(_h for _h in {comp} if _h is not None)")
        elif name == "avg":
            w.emit(f"{hs} = [_h for _h in {comp} if _h is not None]")
            w.emit(f"_sum += sum({hs})")
            w.emit(f"_cnt += len({hs})")
        elif name in ("max", "min"):
            better = ">" if name == "max" else "<"
            w.emit(f"{hs} = [_h for _h in {comp} if _h is not None]")
            with w.block(f"if {hs}:"):
                w.emit(f"_m = {name}({hs})")
                with w.block(f"if _acc is None or _m {better} _acc:"):
                    w.emit("_acc = _m")
        else:  # pragma: no cover - guarded by the fusible-monoid list
            raise CodegenError(f"no fold kernel for monoid {name!r}")

    def _emit_pred_pushdown(self, node: PhysScan,
                            locals_by_path: dict[str, str]) -> str | None:
        """Selection pushdown (late materialization): the predicate becomes
        a standalone kernel function over its columns
        (``node.pred_fields()``), defined in place; the plugin runs it right
        after navigating those columns and materialises the remaining
        columns only for the surviving row indexes. Returns its name."""
        used = node.pred_fields()
        if not used:
            return None
        src = compile_expr(node.pred, self.ctx)
        kernel = self._next("pk")
        params = [f"_pc{i}" for i in range(len(used))]
        targets = [locals_by_path[f] for f in used]
        w = self.w
        with w.block(f"def {kernel}({', '.join(params)}):"):
            if len(params) == 1:
                w.emit(f"return [_i for _i, {targets[0]} in "
                       f"enumerate({params[0]}) if {src}]")
            else:
                w.emit(f"return [_i for _i, ({', '.join(targets)}) in "
                       f"enumerate(zip({', '.join(params)})) if {src}]")
        return kernel

    def _emit_expr_scan(self, node: PhysExprScan, consume) -> None:
        local = f"_{_sanitize(node.var)}_obj"
        src = compile_expr(node.expr, self.ctx)
        self.ctx.bindings[node.var] = ObjectBinding(local)
        with self.w.block(f"for {local} in ({src} or ()):"):
            self._emit_pred_then(node.pred, consume)

    # -- non-leaf operators -----------------------------------------------------------

    def _emit_filter(self, node: PhysFilter, consume) -> None:
        def inner():
            self._emit_pred_then(node.pred, consume)

        self._emit_node(node.child, inner)

    def _binding_locals(self, variables) -> list[str]:
        """Deterministic flat list of the locals carrying given vars' data."""
        out: list[str] = []
        for var in variables:
            binding = self.ctx.bindings.get(var)
            if binding is None:
                raise CodegenError(f"variable {var!r} has no binding at join time")
            if isinstance(binding, ObjectBinding):
                out.append(binding.local)
            else:
                if binding.whole_local:
                    out.append(binding.whole_local)
                out.extend(binding.locals_by_path[p] for p in sorted(binding.locals_by_path))
        return out

    def _join_key(self, keys: tuple) -> str:
        """Hash-table key expression: bare value for single-key joins (no
        per-row tuple allocation), a tuple otherwise."""
        if len(keys) == 1:
            return compile_expr(keys[0], self.ctx)
        return "(" + ", ".join(compile_expr(k, self.ctx) for k in keys) + ")"

    def _emit_hash_join(self, node: PhysHashJoin, consume) -> None:
        # a root fold aimed at this join's output fuses into the probe sink;
        # it must never leak into the build/probe scan emitters themselves
        fold = self._fold
        self._fold = None
        ht = self._next("ht")
        if isinstance(node.build, PhysScan) and node.build.parallel > 1:
            # morsel-sharded build: workers fill partial tables over their
            # morsels, merged per key in morsel order by the runtime
            self._parallel[id(node.build)] = ("table", ht, "None",
                                              [f"{ht} = {{}}"])
        else:
            self.w.emit(f"{ht} = {{}}")
        state, self._state = self._state, []

        if self._sinkable(node.build):
            # vectorized build: key-column kernel + bulk dict inserts
            self._chunk_sink = _BuildSink(ht, node)
            try:
                self._emit_node(node.build, None)
            finally:
                self._chunk_sink = None
        else:
            def build_consume():
                w = self.w
                locals_list = self._binding_locals(node.build.bound_vars())
                row = ", ".join(locals_list) + ("," if len(locals_list) == 1 else "")
                w.emit(f"_k = {self._join_key(node.build_keys)}")
                w.emit(f"_b = {ht}.get(_k)")
                with w.block("if _b is None:"):
                    w.emit(f"{ht}[_k] = [({row})]")
                with w.block("else:"):
                    w.emit(f"_b.append(({row}))")

            self._emit_node(node.build, build_consume)
        build_locals = self._binding_locals(node.build.bound_vars())
        self._state = state + [ht]

        if self._sinkable(node.probe):
            # vectorized probe: batched key lookups → matched-selection
            # vector; the fused root fold (if any) folds the survivors
            self._chunk_sink = _ProbeSink(ht, node, build_locals, consume,
                                          fold)
            try:
                self._emit_node(node.probe, consume)
            finally:
                self._chunk_sink = None
        else:
            def probe_consume():
                w = self.w
                matches = self._next("mt")
                w.emit(f"{matches} = {ht}.get({self._join_key(node.probe_keys)})")
                with w.block(f"if {matches} is not None:"):
                    row_var = self._next("r")
                    with w.block(f"for {row_var} in {matches}:"):
                        for i, name in enumerate(build_locals):
                            w.emit(f"{name} = {row_var}[{i}]")
                        self._emit_pred_then(node.residual, consume)

            self._emit_node(node.probe, probe_consume)
        self._state = state

    def _emit_nl_join(self, node: PhysNLJoin, consume) -> None:
        inner_rows = self._next("nl")
        self.w.emit(f"{inner_rows} = []")

        def inner_consume():
            locals_list = self._binding_locals(node.inner.bound_vars())
            row = ", ".join(locals_list) + ("," if len(locals_list) == 1 else "")
            self.w.emit(f"{inner_rows}.append(({row}))")

        state, self._state = self._state, []
        self._emit_node(node.inner, inner_consume)
        inner_locals = self._binding_locals(node.inner.bound_vars())
        self._state = state + [inner_rows]

        def outer_consume():
            w = self.w
            row_var = self._next("r")
            with w.block(f"for {row_var} in {inner_rows}:"):
                for i, name in enumerate(inner_locals):
                    w.emit(f"{name} = {row_var}[{i}]")
                self._emit_pred_then(node.pred, consume)

        self._emit_node(node.outer, outer_consume)
        self._state = state

    def _emit_unnest(self, node: PhysUnnest, consume) -> None:
        local = f"_{_sanitize(node.var)}_obj"

        def inner():
            src = compile_expr(node.path, self.ctx)
            self.ctx.bindings[node.var] = ObjectBinding(local)
            with self.w.block(f"for {local} in ({src} or ()):"):
                self._emit_pred_then(node.pred, consume)

        self._emit_node(node.child, inner)

    def _emit_nest(self, node: PhysNest, consume) -> None:
        """Hash grouping. Groups are keyed by the canonical hashable key
        tuple and hold ``(raw key tuple, accumulator)`` — the one group
        shape both engines build, so morsel partials merge per key through
        the group monoid."""
        groups = self._next("grp")
        mono = self._params[id(node)]
        if self._shard is not None and node is self._shard[0]:
            # the driver scan's workers accumulate worker-local groups
            self._parallel[id(self._shard[1])] = ("groups", groups, mono,
                                                  [f"{groups} = {{}}"])
        else:
            self.w.emit(f"{groups} = {{}}")

        def child_consume():
            w = self.w
            keys = ", ".join(compile_expr(e, self.ctx) for _n, e in node.keys)
            trailing = "," if len(node.keys) == 1 else ""
            head = compile_expr(node.head, self.ctx)
            w.emit(f"_gr = ({keys}{trailing})")
            w.emit("_gk = _hashable(_gr)")
            w.emit(f"_g = {groups}.get(_gk)")
            with w.block("if _g is None:"):
                w.emit(f"_g = (_gr, {mono}.zero())")
            w.emit(f"{groups}[_gk] = (_g[0], "
                   f"{mono}.merge(_g[1], {mono}.lift({head})))")

        state, self._state = self._state, []
        self._emit_node(node.child, child_consume)
        self._state = state

        local = f"_{_sanitize(node.group_var)}_obj"
        self.ctx.bindings[node.group_var] = ObjectBinding(local)
        with self.w.block(f"for _gr, _g in {groups}.values():"):
            key_items = ", ".join(
                f"{name!r}: _gr[{i}]" for i, (name, _e) in enumerate(node.keys)
            )
            self.w.emit(
                f"{local} = {{{key_items}, {node.agg_name!r}: {mono}.finalize(_g)}}"
            )
            consume()
