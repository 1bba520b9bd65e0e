"""Optimizer tests: access paths, join ordering, populate decisions."""

import pytest

from repro.caching import DataCache
from repro.core.catalog import Catalog
from repro.core.optimizer.cost import (
    access_factor,
    predicate_selectivity,
    source_row_estimate,
)
from repro.core.optimizer.planner import Planner
from repro.core.physical import (
    PhysFilter,
    PhysHashJoin,
    PhysNLJoin,
    PhysReduce,
    PhysScan,
    PhysUnnest,
    collect_usage,
    plan_scans,
)
from repro.mcc import normalize, parse, translate
from repro.mcc import ast as A


@pytest.fixture()
def catalog(patients_csv, genetics_csv, brain_json):
    cat = Catalog()
    cat.register_csv("Patients", patients_csv)
    cat.register_csv("Genetics", genetics_csv)
    cat.register_json("BrainRegions", brain_json)
    return cat


def plan_for(catalog, cache, text):
    algebra = translate(normalize(parse(text)), catalog.names())
    return Planner(catalog, cache).plan(algebra)


def test_scan_fields_are_pushed_down(catalog):
    plan, _d = plan_for(catalog, DataCache(),
                        "for { p <- Patients, p.age > 50 } yield sum p.protein")
    (scan,) = plan_scans(plan)
    assert set(scan.fields) == {"age", "protein"}
    assert scan.access == "cold"
    assert scan.pred is not None  # single-source predicate pushed into scan


def test_equi_join_becomes_hash_join(catalog):
    plan, decisions = plan_for(
        catalog, DataCache(),
        "for { p <- Patients, g <- Genetics, p.id = g.id } yield count 1",
    )
    assert isinstance(plan, PhysReduce)
    assert isinstance(plan.child, PhysHashJoin)
    assert len(decisions.join_order) == 2


def test_no_equi_pred_gives_nl_join(catalog):
    plan, decisions = plan_for(
        catalog, DataCache(),
        "for { p <- Patients, g <- Genetics, p.age > g.snp_a } yield count 1",
    )
    node = plan.child
    while isinstance(node, PhysFilter):
        node = node.child
    assert isinstance(node, PhysNLJoin)
    assert any("cross join" in n for n in decisions.notes)


def test_unnest_planned_after_parent(catalog):
    plan, decisions = plan_for(
        catalog, DataCache(),
        "for { b <- BrainRegions, r <- b.regions, r.volume > 11 } yield count 1",
    )
    node = plan.child
    assert isinstance(node, PhysUnnest)
    assert node.pred is not None
    assert decisions.join_order.index("b") < decisions.join_order.index("r")


def test_cache_access_chosen_when_covered(catalog):
    cache = DataCache()
    cache.put(catalog.get("Patients").state, "columns", ("age", "id"),
              [(30 + i, i) for i in range(60)])
    plan, decisions = plan_for(catalog, cache,
                               "for { p <- Patients, p.age > 40 } yield count 1")
    (scan,) = plan_scans(plan)
    assert scan.access == "cache"
    assert decisions.cache_served


def test_warm_access_after_posmap_built(catalog):
    list(catalog.get("Patients").plugin.scan(["id"]))  # builds the map
    plan, _d = plan_for(catalog, DataCache(),
                        "for { p <- Patients } yield sum p.age")
    (scan,) = plan_scans(plan)
    assert scan.access == "warm"


def test_populate_decision_on_cold_scan(catalog):
    plan, decisions = plan_for(catalog, DataCache(),
                               "for { p <- Patients } yield avg p.protein")
    (scan,) = plan_scans(plan)
    assert "protein" in scan.populate
    assert decisions.populate


def test_populate_disabled_without_cache(catalog):
    algebra = translate(
        normalize(parse("for { p <- Patients } yield avg p.protein")),
        catalog.names(),
    )
    plan, _d = Planner(catalog, DataCache(), enable_cache=False).plan(algebra)
    (scan,) = plan_scans(plan)
    assert scan.populate == ()


def test_whole_json_population_layout(catalog):
    plan, _d = plan_for(catalog, DataCache(),
                        "for { b <- BrainRegions } yield bag b")
    (scan,) = plan_scans(plan)
    assert scan.bind_whole
    assert scan.populate in ((), ("*",))
    if scan.populate:
        assert scan.populate_layout in ("objects", "bson")


def test_join_order_smaller_build(catalog):
    # Genetics filtered to ~1/10 of rows should be chosen as build side
    plan, _d = plan_for(
        catalog, DataCache(),
        "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp_a = 0 } "
        "yield count 1",
    )
    join = plan.child
    while isinstance(join, PhysFilter):
        join = join.child
    assert isinstance(join, PhysHashJoin)
    assert isinstance(join.build, (PhysScan, PhysFilter))
    build_scan = join.build
    while isinstance(build_scan, PhysFilter):
        build_scan = build_scan.child
    assert build_scan.source == "Genetics"


# -- cost model ----------------------------------------------------------------


def test_access_factor_ordering():
    assert access_factor("csv", "cold") > access_factor("csv", "warm")
    assert access_factor("json", "cold") > access_factor("csv", "cold")
    assert access_factor("cache", "cache") < access_factor("csv", "warm")


def test_predicate_selectivity():
    eq = parse("x.a = 1")
    rng = parse("x.a > 1")
    conj = parse("x.a = 1 and x.b > 2")
    assert predicate_selectivity(eq) < predicate_selectivity(rng)
    assert predicate_selectivity(conj) == pytest.approx(
        predicate_selectivity(eq) * predicate_selectivity(rng)
    )
    assert predicate_selectivity(A.Const(True)) == 1.0
    assert predicate_selectivity(A.Const(False)) == 0.0


def test_source_row_estimate_exact_after_aux(catalog):
    entry = catalog.get("Patients")
    list(entry.plugin.scan(["id"]))
    assert source_row_estimate(entry) == 60


# -- usage analysis ---------------------------------------------------------


def test_collect_usage_paths_and_whole():
    e = parse("for { x <- S } yield bag (a := x.info.vol, whole := x)").head
    usage = collect_usage(e)
    assert usage["x"].whole
    assert ("info", "vol") in usage["x"].paths


def test_collect_usage_respects_shadowing():
    e = parse("for { x <- S } yield sum (for { y <- T } yield sum y.v)")
    usage = collect_usage(e)
    assert "y" not in usage  # bound inside the nested comprehension
