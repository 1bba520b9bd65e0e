"""Pretty-printer round-trip tests (including hypothesis-generated ASTs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcc import ast as A
from repro.mcc.monoids import get_monoid
from repro.mcc.parser import parse
from repro.mcc.pretty import pretty

ROUND_TRIP_QUERIES = [
    "for { x <- S } yield sum x.a",
    'for { e <- E, d <- D, e.k = d.k, d.n = "HR" } yield sum 1',
    "for { x <- S, x.a > 3, x.b <= 2 } yield bag (a := x.a, b := x.b + 1)",
    "for { x <- S } yield set (k := for { y <- T } yield bag y.v)",
    "if a > 1 then 2 else 3",
    "1 + 2 * 3 - 4 / 5",
    "not (a and b or c)",
    "x.a.b.c",
    "m[1, 2]",
    '[1, 2, 3]',
    "for { x <- S, v := x.a } yield max v",
    "for { x <- S } yield topk(5) x.score",
    'x like "A_%"',
    "lower(x.name)",
    "-x.a",
]


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
def test_round_trip(text):
    ast1 = parse(text)
    ast2 = parse(pretty(ast1))
    assert ast1 == ast2


# -- hypothesis: random expression trees round-trip ------------------------

_names = st.sampled_from(["x", "y", "S", "T", "abc"])
_fields = st.sampled_from(["a", "b", "val"])


_leaves = st.one_of(
    st.integers(min_value=0, max_value=999).map(A.Const),
    st.booleans().map(A.Const),
    st.text(alphabet="abcxyz ", min_size=0, max_size=6).map(A.Const),
    _names.map(A.Var),
    st.just(A.Null()),
)

# the recursion goes through the name ``_exprs``, so the strategy's repr
# stays one line instead of nesting every level's alternatives
_exprs = st.deferred(lambda: st.one_of(
    _leaves,
    st.tuples(_exprs, _fields).map(lambda t: A.Proj(t[0], t[1])),
    st.tuples(_exprs, _exprs).map(lambda t: A.BinOp("+", t[0], t[1])),
    st.tuples(_exprs, _exprs).map(lambda t: A.BinOp("and",
        A.BinOp("=", t[0], t[1]), A.Const(True))),
    st.tuples(_exprs, _exprs, _exprs).map(
        lambda t: A.If(A.BinOp("=", t[0], t[1]), t[2], A.Const(0))),
    st.lists(st.tuples(_fields, _exprs), min_size=1, max_size=3,
             unique_by=lambda p: p[0]).map(
        lambda fs: A.RecordCons(tuple(fs))),
    st.tuples(_names, _exprs, _exprs).map(
        lambda t: A.Comprehension(
            get_monoid("bag"), t[2], (A.Generator(t[0], t[1]),))),
))


@given(_exprs)
@settings(max_examples=150, deadline=None)
def test_round_trip_random(expr):
    text = pretty(expr)
    assert parse(text) == expr
