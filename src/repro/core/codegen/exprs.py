"""Calculus-expression → Python-source compilation.

Used by the JIT compiler for predicates, join keys, and reduce heads. The
compiler resolves variable references against the plan's *bindings*:

- ``ScalarBinding`` — the scan extracted specific dotted paths into Python
  locals ("data bindings placed in CPU registers", paper §4.1 — the closest
  Python analogue is a local variable);
- ``ObjectBinding`` — the whole element is bound to one local (parsed JSON
  object, array-element record, memory row); projections compile to ``_gp``
  path navigation.

Nested comprehensions compile to *correlated subqueries*: a helper function
emitted alongside the main query, taking the runtime and the free outer
locals as parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import CodegenError
from ...mcc import ast as A
from ..physical import LIFTED_TYPES

#: operators that compile 1:1 onto Python
_DIRECT_BINOPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
                  "and": "and", "or": "or"}
#: null-guarded ordering comparisons (helpers from helpers.py)
_GUARDED_CMP = {"<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge"}

_BUILTIN_COMPILE = {
    "lower": "_lower", "upper": "_upper", "len": "_len", "abs": "_abs",
    "substr": "_substr", "contains": "_contains", "startswith": "_startswith",
    "endswith": "_endswith",
}
_PLAIN_FUNCS = {"round": "round", "float": "float", "int": "int", "str": "str"}
_MATH_FUNCS = {"sqrt": "_m_sqrt", "exp": "_m_exp", "log": "_m_log"}


@dataclass
class ScalarBinding:
    """Var bound as extracted locals: dotted path → local name."""

    locals_by_path: dict[str, str]
    whole_local: str | None = None  # set when the full element is also bound


@dataclass
class ObjectBinding:
    """Var bound as one local holding the whole element."""

    local: str


Binding = ScalarBinding | ObjectBinding


@dataclass
class ExprContext:
    """Compilation context: variable bindings + subquery collection.

    ``params`` maps each lifted literal of the plan being compiled (by
    ``id``) to the local its parameter slot is bound to. ``None`` compiles
    a free-standing expression, whose literals are inlined; with a plan, a
    liftable literal missing from ``params`` is a codegen error — generated
    code never inlines a value it reads from a plan.
    """

    bindings: dict[str, Binding] = field(default_factory=dict)
    subqueries: list[str] = field(default_factory=list)
    counter: int = 0
    source_names: frozenset = frozenset()
    params: dict | None = None

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"


def compile_expr(expr: A.Expr, ctx: ExprContext) -> str:
    """Compile ``expr`` to a Python expression string."""
    if isinstance(expr, A.Null):
        return "None"
    if isinstance(expr, A.Const):
        return _compile_const(expr, ctx)
    if isinstance(expr, A.Var):
        return _compile_var(expr.name, ctx)
    if isinstance(expr, A.Proj):
        return _compile_proj(expr, ctx)
    if isinstance(expr, A.RecordCons):
        inner = ", ".join(f"{name!r}: {compile_expr(e, ctx)}" for name, e in expr.fields)
        return "{" + inner + "}"
    if isinstance(expr, A.If):
        return (
            f"({compile_expr(expr.then, ctx)} if {compile_expr(expr.cond, ctx)}"
            f" else {compile_expr(expr.els, ctx)})"
        )
    if isinstance(expr, A.BinOp):
        return _compile_binop(expr, ctx)
    if isinstance(expr, A.UnOp):
        inner = compile_expr(expr.expr, ctx)
        return f"(not {inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, A.Call):
        return _compile_call(expr, ctx)
    if isinstance(expr, A.ListLit):
        return "[" + ", ".join(compile_expr(e, ctx) for e in expr.items) + "]"
    if isinstance(expr, A.Index):
        base = compile_expr(expr.expr, ctx)
        for ix in expr.indices:
            base = f"{base}[{compile_expr(ix, ctx)}]"
        return base
    if isinstance(expr, A.Comprehension):
        return _compile_subquery(expr, ctx)
    if isinstance(expr, A.Lambda) or isinstance(expr, A.Apply):
        raise CodegenError(
            f"{type(expr).__name__} should have been eliminated by normalization"
        )
    if isinstance(expr, (A.Zero, A.Singleton, A.Merge)):
        raise CodegenError(
            f"monoid-algebra node {type(expr).__name__} reached codegen; "
            "evaluate via the interpreter instead"
        )
    raise CodegenError(f"cannot compile {type(expr).__name__}")


def _compile_const(expr: A.Const, ctx: ExprContext) -> str:
    if ctx.params is None:
        return repr(expr.value)
    local = ctx.params.get(id(expr))
    if local is not None:
        return local
    if type(expr.value) in LIFTED_TYPES:
        raise CodegenError(
            f"literal {expr.value!r} has no parameter slot in the plan shape")
    return repr(expr.value)


def _compile_var(name: str, ctx: ExprContext) -> str:
    binding = ctx.bindings.get(name)
    if binding is None:
        raise CodegenError(f"unbound variable {name!r} during codegen")
    if isinstance(binding, ObjectBinding):
        return binding.local
    if binding.whole_local is not None:
        return binding.whole_local
    # Reconstruct a record from the extracted scalar locals (rare path).
    inner = ", ".join(
        f"{path!r}: {local}" for path, local in binding.locals_by_path.items()
    )
    return "{" + inner + "}"


def _proj_path(expr: A.Proj) -> tuple[A.Expr, tuple[str, ...]]:
    """Longest Proj chain → (root expression, path tuple)."""
    path: list[str] = []
    base: A.Expr = expr
    while isinstance(base, A.Proj):
        path.append(base.attr)
        base = base.expr
    return base, tuple(reversed(path))


def _compile_proj(expr: A.Proj, ctx: ExprContext) -> str:
    base, path = _proj_path(expr)
    if isinstance(base, A.Var) and base.name in ctx.bindings:
        binding = ctx.bindings[base.name]
        if isinstance(binding, ScalarBinding):
            dotted = ".".join(path)
            if dotted in binding.locals_by_path:
                return binding.locals_by_path[dotted]
            # longest extracted prefix + residual navigation
            for cut in range(len(path) - 1, 0, -1):
                prefix = ".".join(path[:cut])
                if prefix in binding.locals_by_path:
                    rest = path[cut:]
                    return f"_gp({binding.locals_by_path[prefix]}, {rest!r})"
            if binding.whole_local is not None:
                return f"_gp({binding.whole_local}, {path!r})"
            raise CodegenError(
                f"scan for {base.name!r} did not extract path {dotted!r} "
                f"(has {sorted(binding.locals_by_path)})"
            )
        return f"_gp({binding.local}, {path!r})"
    # projection off an arbitrary expression (record literal, subquery, ...)
    inner = compile_expr(base, ctx)
    return f"_gp({inner}, {path!r})"


def _is_simple_operand(expr: A.Expr, compiled: str) -> bool:
    """Cheap + pure: safe to mention more than once in generated code."""
    if isinstance(expr, A.Const):
        return True
    return compiled.isidentifier()


def _compile_binop(expr: A.BinOp, ctx: ExprContext) -> str:
    left = compile_expr(expr.left, ctx)
    right = compile_expr(expr.right, ctx)
    op = expr.op
    if op == "=":
        return f"({left} == {right})"
    if op == "!=":
        return f"({left} != {right})"
    if op in _GUARDED_CMP:
        # Null-guarded ordering: when both operands are simple (a local or a
        # literal) the guard inlines — no helper call per row in scan loops.
        if isinstance(expr.left, A.Const) and expr.left.value is None:
            return "False"
        if isinstance(expr.right, A.Const) and expr.right.value is None:
            return "False"
        if _is_simple_operand(expr.left, left) and \
                _is_simple_operand(expr.right, right):
            guards = []
            if not isinstance(expr.left, A.Const):
                guards.append(f"{left} is not None")
            if not isinstance(expr.right, A.Const):
                guards.append(f"{right} is not None")
            guards.append(f"{left} {op} {right}")
            return "(" + " and ".join(guards) + ")"
        return f"{_GUARDED_CMP[op]}({left}, {right})"
    if op in _DIRECT_BINOPS:
        return f"({left} {_DIRECT_BINOPS[op]} {right})"
    if op == "in":
        return f"({left} in {right})"
    if op == "like":
        return f"_like({left}, {right})"
    raise CodegenError(f"cannot compile operator {op!r}")


def _compile_call(expr: A.Call, ctx: ExprContext) -> str:
    args = ", ".join(compile_expr(a, ctx) for a in expr.args)
    if expr.name in _BUILTIN_COMPILE:
        return f"{_BUILTIN_COMPILE[expr.name]}({args})"
    if expr.name in _PLAIN_FUNCS:
        return f"{_PLAIN_FUNCS[expr.name]}({args})"
    if expr.name in _MATH_FUNCS:
        return f"{_MATH_FUNCS[expr.name]}({args})"
    raise CodegenError(f"unknown builtin {expr.name!r}")


# ---------------------------------------------------------------------------
# Correlated subqueries (nested comprehensions in heads/predicates)
# ---------------------------------------------------------------------------


def _compile_subquery(comp: A.Comprehension, ctx: ExprContext) -> str:
    """Emit a helper function for a nested comprehension; return its call.

    The helper interprets generators over catalog sources via the runtime's
    generic row iterator and over path expressions via local loops — the
    "naive correlated subplan" evaluation strategy. Outer locals used by the
    subquery are passed as parameters.
    """
    free = A.free_vars(comp)
    outer_vars = sorted(v for v in free if v in ctx.bindings)
    params: list[str] = []
    inner_bindings: dict[str, Binding] = {}
    for v in outer_vars:
        binding = ctx.bindings[v]
        if isinstance(binding, ObjectBinding):
            params.append(binding.local)
            inner_bindings[v] = binding
        else:
            if binding.whole_local is not None:
                params.append(binding.whole_local)
            params.extend(binding.locals_by_path.values())
            inner_bindings[v] = binding

    if ctx.params:
        # the subquery's lifted literals arrive as parameters too
        params.extend(dict.fromkeys(
            ctx.params[id(e)] for e in A.walk(comp) if id(e) in ctx.params))
    name = f"_subq{len(ctx.subqueries)}"
    sub = _SubqueryEmitter(ctx, inner_bindings)
    body = sub.emit(comp)
    params_sig = ", ".join(["_rt"] + params)
    fn_lines = [f"def {name}({params_sig}):"] + ["    " + ln for ln in body]
    ctx.subqueries.append("\n".join(fn_lines))
    call_args = ", ".join(["_rt"] + params)
    return f"{name}({call_args})"


class _SubqueryEmitter:
    """Emits straightforward loop code for a nested comprehension."""

    def __init__(self, ctx: ExprContext, bindings: dict[str, Binding]):
        self.ctx = ctx
        self.bindings = bindings

    def emit(self, comp: A.Comprehension) -> list[str]:
        lines: list[str] = []
        mono = comp.monoid
        lines.append(f"_m = _rt.monoid({mono.name!r}, {mono.params!r})")
        lines.append("_acc = _m.zero()")
        inner_ctx = ExprContext(
            bindings=dict(self.bindings),
            subqueries=self.ctx.subqueries,
            counter=self.ctx.counter + 1000,
            source_names=self.ctx.source_names,
            params=self.ctx.params,
        )
        depth = 0
        body: list[str] = []

        def pad() -> str:
            return "    " * depth

        for q in comp.qualifiers:
            if isinstance(q, A.Generator):
                local = f"_s_{q.var}"
                if isinstance(q.source, A.Var) and q.source.name in self.ctx.source_names:
                    body.append(
                        f"{pad()}for {local} in _rt.iter_source({q.source.name!r}):"
                    )
                else:
                    src = compile_expr(q.source, inner_ctx)
                    body.append(f"{pad()}for {local} in ({src} or ()):")
                inner_ctx.bindings[q.var] = ObjectBinding(local)
                depth += 1
            elif isinstance(q, A.Filter):
                body.append(f"{pad()}if {compile_expr(q.pred, inner_ctx)}:")
                depth += 1
            elif isinstance(q, A.Bind):
                local = f"_s_{q.var}"
                body.append(f"{pad()}{local} = {compile_expr(q.expr, inner_ctx)}")
                inner_ctx.bindings[q.var] = ObjectBinding(local)
        head = compile_expr(comp.head, inner_ctx)
        body.append(f"{pad()}_acc = _m.merge(_acc, _m.lift({head}))")
        lines.extend(body)
        lines.append("return _m.finalize(_acc)")
        self.ctx.counter = inner_ctx.counter
        return lines
