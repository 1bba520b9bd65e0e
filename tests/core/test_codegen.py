"""Code-generation unit tests: expression compiler + compile cache."""

import pytest

from repro.core.codegen.exprs import (
    ExprContext,
    ObjectBinding,
    ScalarBinding,
    compile_expr,
)
from repro.core.codegen.helpers import HELPERS, get_path, like
from repro.core.executor.engine import JITExecutor
from repro.errors import CodegenError
from repro.mcc.parser import parse


def ctx_with(bindings):
    return ExprContext(bindings=bindings, source_names=frozenset({"S"}))


def evaluate(code: str, env: dict):
    return eval(code, dict(HELPERS), env)  # noqa: S307 - test helper


def test_scalar_binding_direct_local():
    ctx = ctx_with({"p": ScalarBinding({"age": "p_age"})})
    code = compile_expr(parse("p.age + 1"), ctx)
    assert evaluate(code, {"p_age": 41}) == 42


def test_scalar_binding_prefix_navigation():
    ctx = ctx_with({"p": ScalarBinding({"info": "p_info"})})
    code = compile_expr(parse("p.info.vol"), ctx)
    assert evaluate(code, {"p_info": {"vol": 7}}) == 7


def test_scalar_binding_missing_path_raises():
    ctx = ctx_with({"p": ScalarBinding({"age": "p_age"})})
    with pytest.raises(CodegenError):
        compile_expr(parse("p.name"), ctx)


def test_object_binding_navigation():
    ctx = ctx_with({"b": ObjectBinding("b_obj")})
    code = compile_expr(parse("b.meta.version"), ctx)
    assert evaluate(code, {"b_obj": {"meta": {"version": 3}}}) == 3
    assert evaluate(code, {"b_obj": {}}) is None  # null-safe navigation


def test_whole_var_from_scalar_binding_rebuilds_record():
    binding = ScalarBinding({"a": "x_a", "b": "x_b"})
    ctx = ctx_with({"x": binding})
    code = compile_expr(parse("x"), ctx)
    assert evaluate(code, {"x_a": 1, "x_b": 2}) == {"a": 1, "b": 2}


def test_guarded_comparisons_are_null_safe():
    ctx = ctx_with({"p": ScalarBinding({"v": "p_v"})})
    code = compile_expr(parse("p.v < 10"), ctx)
    assert evaluate(code, {"p_v": 5}) is True
    assert evaluate(code, {"p_v": None}) is False


def test_equality_compiles_plain():
    ctx = ctx_with({"p": ScalarBinding({"v": "p_v"})})
    code = compile_expr(parse("p.v = 3"), ctx)
    assert "==" in code


def test_if_and_record_and_list():
    ctx = ctx_with({"p": ScalarBinding({"v": "p_v"})})
    code = compile_expr(parse("(a := if p.v > 0 then 1 else 2, xs := [p.v, 9])"), ctx)
    assert evaluate(code, {"p_v": 5}) == {"a": 1, "xs": [5, 9]}


def test_like_and_builtins():
    ctx = ctx_with({"p": ScalarBinding({"name": "p_name"})})
    code = compile_expr(parse('p.name like "A%" and startswith(p.name, "A")'), ctx)
    assert evaluate(code, {"p_name": "Anna"}) is True
    assert evaluate(code, {"p_name": None}) is False


def test_unbound_variable_raises():
    ctx = ctx_with({})
    with pytest.raises(CodegenError):
        compile_expr(parse("ghost.field"), ctx)


def test_helpers_null_semantics():
    assert get_path({"a": [{"b": 2}]}, ("a", "0", "b")) == 2
    assert get_path(None, ("a",)) is None
    assert like("hello", "h_llo")
    assert not like(None, "%")
    assert HELPERS["_lower"](None) is None
    assert HELPERS["_substr"]("hello", 1, 3) == "ell"


# -- compile cache -----------------------------------------------------------


def test_jit_compile_cache(db):
    executor = db._jit
    before = executor.stats.compilations
    q = "for { p <- Patients, p.age > 33 } yield count 1"
    db.query(q)
    db.query(q)  # same text, same plan shape after cache warm? plans differ
    assert executor.stats.compilations > before
    # identical plan shapes hit the compile cache
    from repro.core.optimizer.planner import Planner
    from repro.core.physical import plan_shape
    from repro.mcc import normalize, parse as mcc_parse, translate

    algebra = translate(normalize(mcc_parse(q)), db.catalog.names())
    plan1, _ = Planner(db.catalog, db.cache).plan(algebra)
    plan2, _ = Planner(db.catalog, db.cache).plan(algebra)
    assert plan_shape(plan1).key == plan_shape(plan2).key
    executor.compile(plan1)
    hits_before = executor.stats.cache_hits
    executor.compile(plan2)
    assert executor.stats.cache_hits == hits_before + 1


def test_generated_source_is_specialised(db):
    """Generated code is specialised to the plan's shape, not its values:
    two cities run one compiled function that inlines neither literal."""
    q = 'for {{ p <- Patients, p.city = "{}" }} yield count 1'
    for _ in range(3):  # cold scan, then the cache-served shape settles
        db.query(q.format("zurich"))
    compilations = db._jit.stats.compilations
    geneva, lausanne = (db.query(q.format(c)) for c in ("geneva", "lausanne"))
    assert db._jit.stats.compilations == compilations
    assert geneva.code == lausanne.code
    assert "geneva" not in geneva.code and "lausanne" not in geneva.code
    assert (geneva.value, lausanne.value) == (20, 20)
    # the root count still fuses into a per-chunk kernel over a local
    assert "_acc += sum(1 for" in geneva.code


def test_moved_estimates_reuse_the_compiled_function(db, patients_csv):
    """A file that grew re-plans its queries with new row and cost
    estimates. Generated code reads neither, so they are not part of the
    compile-cache key: the re-planned query runs the function it had."""
    q = "for { p <- Patients, p.age > 33 } yield count 1"
    db.query(q)                      # cold: builds posmap, fills the cache
    before = db.query(q)             # the cache-served plan shape
    with open(patients_csv, "a") as fh:
        for i in range(60, 120):
            fh.write(f"{i},{20 + (i * 7) % 60},m,geneva,41.5\n")
    compilations = db._jit.stats.compilations
    after = db.query(q)
    assert after.value == 2 * before.value
    assert after.plan_text != before.plan_text       # est_rows / est_cost
    assert after.code == before.code
    assert db._jit.stats.compilations == compilations
    db.close()
