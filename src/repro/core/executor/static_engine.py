"""Static executor: pre-generated, generic, interpreted operators.

This is the repo's stand-in for the paper's static engine ("for the rest of
the queries … we use a static pre-generated executor", §6) and the foil for
the JIT executor: Volcano-style pull operators over generic environment
dicts, with every expression evaluated by a recursive interpreter. The
"significant interpretation overhead" of pre-cooked operators (§4) is
exactly what the JIT-vs-static benchmark measures.

Semantics match the generated code exactly (null-skipping numeric
aggregates, null-safe ordering comparisons, set-monoid dedup by canonical
hashable keys) so the two engines are differential-testable.
"""

from __future__ import annotations

from typing import Iterator

from ...errors import ExecutionError
from ...mcc import ast as A
from ...mcc.monoids import Monoid, get_monoid
from ..chunk import chunked
from ..codegen.helpers import HELPERS, get_path, hashable, like
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
    chain_nest,
)

Env = dict


def _chain_nodes(node: PhysNode) -> list[PhysNode]:
    """Join nodes along the driver chain, in a stable top-down order.

    This is the traversal ``_prebuild_chain`` uses to attach shared state,
    exposed so the process backend can translate its ``id(node)``-keyed
    shared dict into chain *indexes* — stable across a pickle round-trip,
    unlike object ids.
    """
    out: list[PhysNode] = []
    while True:
        if isinstance(node, (PhysFilter, PhysUnnest, PhysNest)):
            node = node.child
        elif isinstance(node, PhysHashJoin):
            out.append(node)
            node = node.probe
        elif isinstance(node, PhysNLJoin):
            out.append(node)
            node = node.outer
        else:
            return out


def rekey_shared(plan: PhysReduce, shared_by_index: dict) -> dict:
    """Child-side inverse of the chain-index translation: rebind shared
    join state to the ids of *this* process's unpickled plan nodes."""
    nodes = _chain_nodes(plan.child)
    return {id(nodes[i]): state for i, state in shared_by_index.items()}


# ---------------------------------------------------------------------------
# Expression interpreter
# ---------------------------------------------------------------------------

_NUMERIC_SKIP_NULL = ("sum", "prod", "avg", "max", "min")


def eval_expr(expr: A.Expr, env: Env, rt) -> object:
    """Interpret a calculus expression under variable bindings ``env``."""
    if isinstance(expr, A.Null):
        return None
    if isinstance(expr, A.Const):
        return expr.value
    if isinstance(expr, A.Var):
        if expr.name in env:
            return env[expr.name]
        if expr.name in rt.catalog.names():
            return list(rt.iter_source(expr.name))
        raise ExecutionError(f"unbound variable {expr.name!r}")
    if isinstance(expr, A.Proj):
        base = eval_expr(expr.expr, env, rt)
        return get_path(base, (expr.attr,))
    if isinstance(expr, A.RecordCons):
        return {name: eval_expr(e, env, rt) for name, e in expr.fields}
    if isinstance(expr, A.If):
        if eval_expr(expr.cond, env, rt):
            return eval_expr(expr.then, env, rt)
        return eval_expr(expr.els, env, rt)
    if isinstance(expr, A.BinOp):
        return _eval_binop(expr, env, rt)
    if isinstance(expr, A.UnOp):
        value = eval_expr(expr.expr, env, rt)
        return (not value) if expr.op == "not" else (-value)
    if isinstance(expr, A.Call):
        return _eval_call(expr, env, rt)
    if isinstance(expr, A.ListLit):
        return [eval_expr(e, env, rt) for e in expr.items]
    if isinstance(expr, A.Index):
        base = eval_expr(expr.expr, env, rt)
        for ix in expr.indices:
            base = base[eval_expr(ix, env, rt)]
        return base
    if isinstance(expr, A.Comprehension):
        return _eval_comprehension(expr, env, rt)
    if isinstance(expr, A.Zero):
        return expr.monoid.finalize(expr.monoid.zero())
    if isinstance(expr, A.Singleton):
        return expr.monoid.finalize(expr.monoid.unit(eval_expr(expr.expr, env, rt)))
    if isinstance(expr, A.Merge):
        m = expr.monoid
        left = eval_expr(expr.left, env, rt)
        right = eval_expr(expr.right, env, rt)
        return _merge_finalized(m, left, right)
    if isinstance(expr, A.Lambda):
        return lambda arg: eval_expr(expr.body, {**env, expr.param: arg}, rt)
    if isinstance(expr, A.Apply):
        fn = eval_expr(expr.func, env, rt)
        return fn(eval_expr(expr.arg, env, rt))
    raise ExecutionError(f"cannot interpret {type(expr).__name__}")


def _merge_finalized(m: Monoid, left, right):
    """Merge two already-finalized monoid values (top-level Merge nodes)."""
    if m.collection or m.name in ("sum", "prod", "count", "any", "all"):
        if m.name == "set":
            out = m.zero()
            for v in (list(left) + list(right)):
                out = m.merge(out, m.lift(v))
            return m.finalize(out)
        if m.collection:
            return list(left) + list(right)
        return m.merge(left, right)
    if m.name in ("max", "min"):
        return m.merge(left, right)
    raise ExecutionError(f"cannot merge finalized values of monoid {m.name!r}")


def _eval_binop(expr: A.BinOp, env: Env, rt):
    op = expr.op
    if op == "and":
        return bool(eval_expr(expr.left, env, rt)) and bool(eval_expr(expr.right, env, rt))
    if op == "or":
        return bool(eval_expr(expr.left, env, rt)) or bool(eval_expr(expr.right, env, rt))
    left = eval_expr(expr.left, env, rt)
    right = eval_expr(expr.right, env, rt)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return False
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[op]
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    if op == "in":
        return left in right
    if op == "like":
        return like(left, right)
    raise ExecutionError(f"unknown operator {op!r}")


def _eval_call(expr: A.Call, env: Env, rt):
    import math

    args = [eval_expr(a, env, rt) for a in expr.args]
    name = expr.name
    helper_map = {
        "lower": "_lower", "upper": "_upper", "len": "_len", "abs": "_abs",
        "substr": "_substr", "contains": "_contains",
        "startswith": "_startswith", "endswith": "_endswith",
    }
    if name in helper_map:
        return HELPERS[helper_map[name]](*args)
    plain = {"round": round, "float": float, "int": int, "str": str,
             "sqrt": math.sqrt, "exp": math.exp, "log": math.log}
    if name in plain:
        return plain[name](*args)
    raise ExecutionError(f"unknown builtin {name!r}")


def _eval_comprehension(comp: A.Comprehension, env: Env, rt):
    m = comp.monoid
    acc = m.zero()
    skip_null = m.name in _NUMERIC_SKIP_NULL

    def rec(qualifiers: tuple, scope: Env):
        nonlocal acc
        if not qualifiers:
            head = eval_expr(comp.head, scope, rt)
            if skip_null and head is None:
                return
            acc = m.merge(acc, m.lift(head))
            return
        q = qualifiers[0]
        rest = qualifiers[1:]
        if isinstance(q, A.Generator):
            if isinstance(q.source, A.Var) and q.source.name not in scope \
                    and q.source.name in rt.catalog.names():
                items = rt.iter_source(q.source.name)
            else:
                items = eval_expr(q.source, scope, rt) or ()
            for item in items:
                rec(rest, {**scope, q.var: item})
        elif isinstance(q, A.Filter):
            if eval_expr(q.pred, scope, rt):
                rec(rest, scope)
        elif isinstance(q, A.Bind):
            rec(rest, {**scope, q.var: eval_expr(q.expr, scope, rt)})
        else:
            raise ExecutionError(f"unknown qualifier {type(q).__name__}")

    rec(comp.qualifiers, env)
    return m.finalize(acc)


# ---------------------------------------------------------------------------
# Plan interpreter (Volcano-style pull operators)
# ---------------------------------------------------------------------------


class StaticExecutor:
    """Interprets physical plans with generic pull operators."""

    def __init__(self, catalog):
        self.catalog = catalog

    def execute(self, plan: PhysReduce, rt):
        from ..physical import parallel_driver

        driver = parallel_driver(plan)
        if driver is not None and driver.parallel > 1:
            return self._execute_parallel(plan, rt, driver)
        m = plan.monoid
        acc = m.zero()
        skip_null = m.name in _NUMERIC_SKIP_NULL
        for env in self._iter(plan.child, rt):
            head = eval_expr(plan.head, env, rt)
            if skip_null and head is None:
                continue
            if m.name == "count":
                acc = m.merge(acc, 1)
            else:
                acc = m.merge(acc, m.lift(head))
        return m.finalize(acc)

    def _execute_parallel(self, plan: PhysReduce, rt, driver: PhysScan):
        """Morsel-driven fold: the driver scan shards; workers fold into
        their own monoid accumulators; partials merge in morsel order.

        Hash-table builds and nested-loop inner materialisations along the
        driver chain run *once*, up front, and are shared read-only by every
        worker. What the driver scan leaves behind — cache population
        included — the runtime merges in morsel order at ``finish_scan``.
        """
        m = plan.monoid
        nest = chain_nest(plan)
        shared: dict = {}
        self._prebuild_chain(plan.child, rt, shared)
        if driver.access != "cache" and driver.format in ("csv", "json", "array"):
            rt.account_raw(driver.source)
        # bag/list folds are LIMIT-countable: over-partition so the
        # scheduler can cancel pending morsels once the limit is satisfied
        # (never through a nest — group counts don't track row counts)
        limited = m.name in ("bag", "list") and nest is None
        splits = rt.scan_splits(driver, limited=limited)

        if driver.backend == "process":
            nodes = _chain_nodes(plan.child)
            shared_ix = {i: shared[id(n)] for i, n in enumerate(nodes)
                         if id(n) in shared}
            partials = rt.run_morsels_plan(plan, shared_ix, splits,
                                           driver.parallel, limited=limited)
        else:
            def worker(split):
                return self.driver_partial(plan, rt, split, shared)

            partials = rt.run_morsels(worker, splits, driver.parallel,
                                      limited=limited)
        if driver.access != "cache":
            rt.finish_scan(driver.source, splits)
        if nest is not None:
            # merge per-key group partials in morsel order (first occurrence
            # fixes key order, same as serial), park them where _iter's Nest
            # operator looks, and run everything above the nest serially
            gm = nest.monoid
            merged_groups: dict = {}
            for (groups,) in partials:
                for key, (acc, raw_key) in groups.items():
                    prev = merged_groups.get(key)
                    if prev is None:
                        merged_groups[key] = (acc, raw_key)
                    else:
                        merged_groups[key] = (gm.merge(prev[0], acc), prev[1])
            shared[("nest", id(nest))] = merged_groups
            skip_null = m.name in _NUMERIC_SKIP_NULL
            acc = m.zero()
            for env in self._iter(plan.child, rt, shared=shared):
                head = eval_expr(plan.head, env, rt)
                if skip_null and head is None:
                    continue
                if m.name == "count":
                    acc = m.merge(acc, 1)
                else:
                    acc = m.merge(acc, m.lift(head))
            return m.finalize(acc)
        acc = m.zero()
        for (pacc,) in partials:
            acc = m.merge(acc, pacc)
        return m.finalize(acc)

    def driver_partial(self, plan: PhysReduce, rt, split, shared):
        """One morsel's partial, a 1-tuple like the compiled workers': the
        fold (or, when the plan shards at a grouping Nest, the per-key group
        accumulators) over the driver chain restricted to ``split``. Called
        by thread workers directly and by process-pool children through the
        kernel-spec protocol."""
        nest = chain_nest(plan)
        if nest is not None:
            gm = nest.monoid
            groups: dict = {}
            for env in self._iter(nest.child, rt, split=split, shared=shared):
                key = tuple(hashable(eval_expr(e, env, rt))
                            for _n, e in nest.keys)
                raw_key = tuple(eval_expr(e, env, rt) for _n, e in nest.keys)
                acc, _raw = groups.get(key, (gm.zero(), raw_key))
                groups[key] = (
                    gm.merge(acc, gm.lift(eval_expr(nest.head, env, rt))),
                    raw_key,
                )
            return (groups,)
        m = plan.monoid
        skip_null = m.name in _NUMERIC_SKIP_NULL
        acc = m.zero()
        for env in self._iter(plan.child, rt, split=split, shared=shared):
            head = eval_expr(plan.head, env, rt)
            if skip_null and head is None:
                continue
            if m.name == "count":
                acc = m.merge(acc, 1)
            else:
                acc = m.merge(acc, m.lift(head))
        return (acc,)

    def _prebuild_chain(self, node: PhysNode, rt, shared: dict) -> None:
        """Materialise join state along the driver chain, once, serially."""
        while True:
            if isinstance(node, (PhysFilter, PhysUnnest, PhysNest)):
                node = node.child
            elif isinstance(node, PhysHashJoin):
                shared[id(node)] = self._build_table(node, rt)
                node = node.probe
            elif isinstance(node, PhysNLJoin):
                shared[id(node)] = list(self._iter(node.inner, rt))
                node = node.outer
            else:
                return

    def _build_table(self, node: PhysHashJoin, rt) -> dict:
        """Vectorized hash-join build: materialise the build rows, run one
        key kernel over them, then bulk-insert (mirrors the JIT engine's
        key-column kernel + dict-update loop)."""
        envs = list(self._iter(node.build, rt))
        keys = [tuple(hashable(eval_expr(k, env, rt)) for k in node.build_keys)
                for env in envs]
        table: dict = {}
        setdef = table.setdefault
        for key, env in zip(keys, envs):
            setdef(key, []).append(env)
        return table

    # -- operators ------------------------------------------------------------

    def _iter(self, node: PhysNode, rt, split=None,
              shared=None) -> Iterator[Env]:
        """Pull-iterate one plan node.

        ``split``/``shared`` carry the morsel-parallel context down the
        driver chain only: the split restricts the driver scan, shared join
        state replaces per-call builds.
        """
        if isinstance(node, PhysScan):
            yield from self._scan(node, rt, split=split)
        elif isinstance(node, PhysExprScan):
            items = eval_expr(node.expr, {}, rt) or ()
            for item in items:
                env = {node.var: item}
                if node.pred is None or eval_expr(node.pred, env, rt):
                    yield env
        elif isinstance(node, PhysFilter):
            for env in self._iter(node.child, rt, split, shared):
                if eval_expr(node.pred, env, rt):
                    yield env
        elif isinstance(node, PhysHashJoin):
            table = shared.get(id(node)) if shared is not None else None
            if table is None:
                table = self._build_table(node, rt)
            # vectorized probe: batch the probe stream, run one key kernel
            # per batch, narrow a matched-selection vector (empty vectors
            # short-circuit), then join only the survivors
            probe_keys = node.probe_keys
            residual = node.residual
            for batch in chunked(self._iter(node.probe, rt, split, shared)):
                keys = [tuple(hashable(eval_expr(k, env, rt))
                              for k in probe_keys) for env in batch]
                matched = [i for i, key in enumerate(keys) if key in table]
                if not matched:
                    continue
                for i in matched:
                    env = batch[i]
                    for build_env in table[keys[i]]:
                        joined = {**build_env, **env}
                        if residual is None or eval_expr(residual, joined, rt):
                            yield joined
        elif isinstance(node, PhysNLJoin):
            if shared is not None and id(node) in shared:
                inner_rows = shared[id(node)]
            else:
                inner_rows = list(self._iter(node.inner, rt))
            for outer_env in self._iter(node.outer, rt, split, shared):
                for inner_env in inner_rows:
                    joined = {**outer_env, **inner_env}
                    if node.pred is None or eval_expr(node.pred, joined, rt):
                        yield joined
        elif isinstance(node, PhysUnnest):
            for env in self._iter(node.child, rt, split, shared):
                items = eval_expr(node.path, env, rt) or ()
                for item in items:
                    child_env = {**env, node.var: item}
                    if node.pred is None or eval_expr(node.pred, child_env, rt):
                        yield child_env
        elif isinstance(node, PhysNest):
            m = node.monoid
            groups: dict | None = None
            if shared is not None:
                # a parallel run already built and merged this node's groups
                groups = shared.get(("nest", id(node)))
            if groups is None:
                groups = {}
                for env in self._iter(node.child, rt, split, shared):
                    key = tuple(hashable(eval_expr(e, env, rt)) for _n, e in node.keys)
                    raw_key = tuple(eval_expr(e, env, rt) for _n, e in node.keys)
                    acc, _raw = groups.get(key, (m.zero(), raw_key))
                    groups[key] = (m.merge(acc, m.lift(eval_expr(node.head, env, rt))), raw_key)
            for _key, (acc, raw_key) in groups.items():
                record = {name: raw_key[i] for i, (name, _e) in enumerate(node.keys)}
                record[node.agg_name] = m.finalize(acc)
                yield {node.group_var: record}
        elif isinstance(node, PhysReduce):
            raise ExecutionError("nested PhysReduce is not a streaming operator")
        else:
            raise ExecutionError(f"cannot interpret {type(node).__name__}")

    def _scan(self, node: PhysScan, rt, split=None) -> Iterator[Env]:
        """One scan's environments: the runtime's chunk stream for the scan
        (its one scan call), each row bound as its whole element when the
        chunk carries one, else as a record of the chunk's columns; the
        pushed-down predicate narrows each chunk in one pass. Memory
        collections and DBMS index lookups have no chunks: row at a time."""
        pred = node.pred
        if isinstance(pred, A.Const) and pred.value is True:
            pred = None
        var = node.var
        if node.format == "memory" or node.access == "memory" \
                or node.index_eq is not None:
            items = rt.memory(node.source) if node.index_eq is None \
                else rt.dbms_rows(node.source, node.index_eq)
            for item in items:
                env = {var: item}
                if pred is None or eval_expr(pred, env, rt):
                    yield env
            return
        kernel = None
        if node.sel_push and pred is not None:
            kernel = _interpreted_pred_kernel(node, pred, rt)
            if kernel is not None:
                pred = None  # chunks arrive as dense predicate survivors
        for chunk in rt.scan(node, split, kernel):
            fields = chunk.fields
            if chunk.whole is not None:
                envs = [{var: element} for element in chunk.whole]
            elif any("." in f for f in fields):
                envs = [{var: _record_from_paths(fields, values)}
                        for values in chunk.iter_rows()]
            else:
                envs = [{var: dict(zip(fields, values))}
                        for values in chunk.iter_rows()]
            if pred is not None:
                envs = [env for env in envs if eval_expr(pred, env, rt)]
            yield from envs


def _interpreted_pred_kernel(node: PhysScan, pred: A.Expr, rt):
    """Selection-pushdown kernel for the interpreted engine: evaluates the
    scan predicate over the predicate columns (``node.pred_fields()``) only,
    returning surviving row indexes (the plugin materialises the other
    columns just for those)."""
    fields = node.pred_fields()
    if not fields:
        return None
    var = node.var

    def kernel(*cols):
        if len(cols) == 1:
            name = fields[0]
            return [i for i, v in enumerate(cols[0])
                    if eval_expr(pred, {var: {name: v}}, rt)]
        return [i for i, vals in enumerate(zip(*cols))
                if eval_expr(pred, {var: dict(zip(fields, vals))}, rt)]

    return kernel


def _record_from_paths(paths: tuple, values: tuple) -> dict:
    """Rebuild a nested record from dotted paths (JSON columns served
    without their objects: cached or pinned ones)."""
    record: dict = {}
    for path, value in zip(paths, values):
        steps = path.split(".")
        target = record
        for step in steps[:-1]:
            target = target.setdefault(step, {})
        target[steps[-1]] = value
    return record
