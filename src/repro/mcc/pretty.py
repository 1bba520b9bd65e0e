"""Pretty-printer for calculus expressions.

``pretty(parse(text))`` re-parses to an equal AST (round-trip property,
covered by hypothesis tests). Output uses the same surface syntax the parser
accepts.
"""

from __future__ import annotations

from . import ast as A

#: Binding strength for parenthesisation, mirroring the parser's precedence.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "in": 3, "like": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def pretty(expr: A.Expr, lift=None) -> str:
    """Render ``expr`` in surface syntax. ``lift(const)``, when given,
    may render a constant in place of its value (a parameter slot); it
    returns None for constants that keep their value."""
    return _pp(expr, 0, lift)


def _pp(expr: A.Expr, parent_prec: int, lift) -> str:
    if isinstance(expr, A.Null):
        return "null"
    if isinstance(expr, A.Const):
        slot = lift(expr) if lift is not None else None
        if slot is not None:
            return slot
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(expr.value)
    if isinstance(expr, A.Var):
        return expr.name
    if isinstance(expr, A.Proj):
        return f"{_pp_postfix_base(expr.expr, lift)}.{expr.attr}"
    if isinstance(expr, A.Index):
        indices = ", ".join(_pp(i, 0, lift) for i in expr.indices)
        return f"{_pp_postfix_base(expr.expr, lift)}[{indices}]"
    if isinstance(expr, A.RecordCons):
        inner = ", ".join(f"{name} := {_pp(e, 0, lift)}"
                          for name, e in expr.fields)
        return f"({inner})"
    if isinstance(expr, A.ListLit):
        return "[" + ", ".join(_pp(e, 0, lift) for e in expr.items) + "]"
    if isinstance(expr, A.Call):
        args = ", ".join(_pp(a, 0, lift) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, A.If):
        s = (f"if {_pp(expr.cond, 0, lift)} then {_pp(expr.then, 0, lift)}"
             f" else {_pp(expr.els, 0, lift)}")
        return f"({s})" if parent_prec > 0 else s
    if isinstance(expr, A.BinOp):
        prec = _PRECEDENCE[expr.op]
        left = _pp(expr.left, prec, lift)
        # Right operand gets prec+1 so left-associativity round-trips.
        right = _pp(expr.right, prec + 1, lift)
        s = f"{left} {expr.op} {right}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(expr, A.UnOp):
        inner = _pp(expr.expr, 6, lift)
        return f"-{inner}" if expr.op == "-" else f"not {inner}"
    if isinstance(expr, A.Lambda):
        return f"(\\{expr.param} -> {_pp(expr.body, 0, lift)})"
    if isinstance(expr, A.Apply):
        return f"{_pp(expr.func, 6, lift)}({_pp(expr.arg, 0, lift)})"
    if isinstance(expr, A.Zero):
        return f"zero[{expr.monoid.name}]"
    if isinstance(expr, A.Singleton):
        return f"unit[{expr.monoid.name}]({_pp(expr.expr, 0, lift)})"
    if isinstance(expr, A.Merge):
        return (f"merge[{expr.monoid.name}]({_pp(expr.left, 0, lift)}, "
                f"{_pp(expr.right, 0, lift)})")
    if isinstance(expr, A.Comprehension):
        quals = ", ".join(_pp_qual(q, lift) for q in expr.qualifiers)
        mono = expr.monoid.name
        if expr.monoid.params:
            mono += "(" + ", ".join(repr(p) for p in expr.monoid.params) + ")"
        head = _pp(expr.head, 6, lift)
        s = f"for {{ {quals} }} yield {mono} {head}"
        return f"({s})" if parent_prec > 0 else s
    raise TypeError(f"cannot pretty-print {type(expr).__name__}")


def _pp_postfix_base(expr: A.Expr, lift) -> str:
    """Base of a projection/index chain; parenthesise non-atomic bases."""
    if isinstance(expr, (A.Var, A.Proj, A.Index, A.RecordCons, A.Call)):
        return _pp(expr, 0, lift)
    return f"({_pp(expr, 0, lift)})"


def _pp_qual(q: A.Qualifier, lift) -> str:
    if isinstance(q, A.Generator):
        return f"{q.var} <- {_pp(q.source, 0, lift)}"
    if isinstance(q, A.Bind):
        return f"{q.var} := {_pp(q.expr, 0, lift)}"
    if isinstance(q, A.Filter):
        return _pp(q.pred, 0, lift)
    raise TypeError(f"unknown qualifier {type(q).__name__}")
