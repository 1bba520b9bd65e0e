"""Catalog tests: registration, schemas, freshness detection."""

import os

import pytest

from repro.core.catalog import Catalog
from repro.core.engine import EngineContext
from repro.errors import CatalogError
from repro.formats import write_csv
from repro.mcc import types as T


def test_duplicate_registration(patients_csv):
    cat = Catalog()
    cat.register_csv("P", patients_csv)
    with pytest.raises(CatalogError):
        cat.register_csv("P", patients_csv)


def test_unknown_lookup():
    cat = Catalog()
    with pytest.raises(CatalogError):
        cat.get("ghost")
    with pytest.raises(CatalogError):
        cat.deregister("ghost")


def test_deregister(patients_csv):
    cat = Catalog()
    cat.register_csv("P", patients_csv)
    cat.deregister("P")
    assert "P" not in cat
    cat.register_csv("P", patients_csv)  # name is reusable


def test_type_env_shapes(patients_csv, brain_json, array_file):
    cat = Catalog()
    cat.register_csv("P", patients_csv)
    cat.register_json("B", brain_json)
    cat.register_array("G", array_file, ["i", "j"])
    env = cat.type_env()
    assert isinstance(env["P"], T.CollectionType)
    assert isinstance(env["G"], T.ArrayType)
    assert env["B"].elem.field_type("regions") is not None


def test_explicit_csv_schema(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [(1, 2)])
    cat = Catalog()
    entry = cat.register_csv("X", path, columns=["a", "b"],
                             types=["float", "string"])
    elem = entry.description.element_type
    assert elem.field_type("a") == T.FLOAT
    assert elem.field_type("b") == T.STRING


def test_freshness_drops_auxiliaries(tmp_path):
    # freshness is the engine's (EngineContext.refresh_source): the catalog
    # only holds the fingerprint it decides by
    path = tmp_path / "f.csv"
    write_csv(path, ["a"], [(1,), (2,)])
    ctx = EngineContext()
    entry = ctx.catalog.register_csv("F", path)
    list(entry.plugin.scan(["a"]))
    assert entry.plugin.posmap.complete
    assert ctx.refresh_source("F")  # unchanged

    write_csv(path, ["a"], [(9,), (8,), (7,)])
    os.utime(path, ns=(123, 456))
    assert not ctx.refresh_source("F")
    assert not entry.plugin.posmap.complete  # auxiliary dropped (paper §2.1)
    # fingerprint refreshed: next check is clean
    assert ctx.refresh_source("F")


def test_memory_entries_have_no_fingerprint():
    ctx = EngineContext()
    ctx.catalog.register_memory("M", [{"v": 1}])
    assert ctx.catalog.get("M").fingerprint is None
    assert ctx.refresh_source("M")
    assert ctx.catalog.get("M").data == [{"v": 1}]


def test_names_frozen(patients_csv):
    cat = Catalog()
    cat.register_csv("P", patients_csv)
    names = cat.names()
    assert names == frozenset({"P"})
    with pytest.raises(AttributeError):
        names.add("Q")  # frozenset
