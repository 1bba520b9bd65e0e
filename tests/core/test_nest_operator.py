"""PhysNest (hash-based grouping) through both executors.

NestOp/PhysNest is the algebra's grouping form; it is exercised here with
directly-constructed plans (the SQL layer currently encodes GROUP BY as
correlated comprehensions — see languages/sql/translate.py).
"""

import pytest

from repro.caching import DataCache
from repro.core.catalog import Catalog
from repro.core.codegen.compiler import QueryCompiler
from repro.core.executor.runtime import QueryRuntime
from repro.core.executor.static_engine import StaticExecutor
from repro.core.physical import (
    PhysNest,
    PhysReduce,
    PhysScan,
    explain_physical,
    plan_shape,
)
from repro.mcc import ast as A
from repro.mcc.monoids import get_monoid


@pytest.fixture()
def catalog(patients_csv):
    cat = Catalog()
    cat.register_csv("Patients", patients_csv)
    return cat


def group_plan():
    """SELECT gender, AVG(age) FROM Patients GROUP BY gender — as a plan."""
    scan = PhysScan(
        source="Patients", var="p", format="csv",
        fields=("age", "gender"), access="cold",
    )
    nest = PhysNest(
        child=scan,
        keys=(("gender", A.Proj(A.Var("p"), "gender")),),
        monoid=get_monoid("avg"),
        head=A.Proj(A.Var("p"), "age"),
        group_var="g",
        agg_name="avg_age",
    )
    head = A.RecordCons((
        ("gender", A.Proj(A.Var("g"), "gender")),
        ("avg_age", A.Proj(A.Var("g"), "avg_age")),
    ))
    return PhysReduce(nest, get_monoid("bag"), head)


def reference(catalog):
    rows = list(catalog.get("Patients").plugin.scan(["age", "gender"]))
    groups: dict = {}
    for age, gender in rows:
        groups.setdefault(gender, []).append(age)
    return {g: sum(v) / len(v) for g, v in groups.items()}


def test_nest_jit(catalog):
    plan = group_plan()
    compiled = QueryCompiler(catalog).compile(plan)
    rt = QueryRuntime(catalog, DataCache())
    out = compiled(rt, plan_shape(plan))
    expected = reference(catalog)
    assert {r["gender"]: r["avg_age"] for r in out} == pytest.approx(expected)


def test_nest_static(catalog):
    plan = group_plan()
    rt = QueryRuntime(catalog, DataCache())
    out = StaticExecutor(catalog).execute(plan, rt)
    expected = reference(catalog)
    assert {r["gender"]: r["avg_age"] for r in out} == pytest.approx(expected)


def test_nest_multi_key_count(catalog):
    scan = PhysScan(source="Patients", var="p", format="csv",
                    fields=("gender", "city"), access="cold")
    nest = PhysNest(
        child=scan,
        keys=(("gender", A.Proj(A.Var("p"), "gender")),
              ("city", A.Proj(A.Var("p"), "city"))),
        monoid=get_monoid("count"),
        head=A.Const(1),
        group_var="g",
        agg_name="n",
    )
    plan = PhysReduce(nest, get_monoid("sum"), A.Proj(A.Var("g"), "n"))
    rt = QueryRuntime(catalog, DataCache())
    total = QueryCompiler(catalog).compile(plan)(rt, plan_shape(plan))
    assert total == 60  # group counts sum back to the row count


def test_nest_explain(catalog):
    text = explain_physical(group_plan())
    assert "Nest[" in text and "avg" in text
