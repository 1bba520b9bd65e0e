"""QueryRuntime unit tests."""

import pytest

from repro.caching import DataCache
from repro.core.catalog import Catalog
from repro.core.executor.runtime import QueryRuntime
from repro.core.physical import PhysScan
from repro.errors import ExecutionError


@pytest.fixture()
def catalog(patients_csv, brain_json, array_file, xls_file):
    cat = Catalog()
    cat.register_csv("Patients", patients_csv)
    cat.register_json("Brain", brain_json)
    cat.register_array("Grid", array_file, ["i", "j"])
    cat.register_xls("Book", xls_file, "trades")
    return cat


def make_rt(catalog, cache=None):
    return QueryRuntime(catalog, cache or DataCache())


def test_csv_cold_chunks_build_posmap_and_stats(catalog):
    rt = make_rt(catalog)
    chunks = list(rt.scan(PhysScan("Patients", "p", "csv", ("id",), "cold",
                                   batch_size=16)))
    assert sum(c.length for c in chunks) == 60
    assert len(chunks) == 4  # 60 rows at batch_size 16
    assert rt.stats.raw_rows == 60
    assert "Patients" in rt.stats.raw_sources
    assert catalog.get("Patients").plugin.posmap.complete
    assert not rt.stats.cache_only


def test_csv_whole_chunk_row_conversion(catalog):
    rt = make_rt(catalog)
    (chunk, *_rest) = list(rt.scan(PhysScan(
        "Patients", "p", "csv", (), "cold", bind_whole=True, batch_size=64)))
    row = chunk.whole[0]  # fixture row 0: protein is a null token
    assert row == {"id": 0, "age": 20, "gender": "f", "city": "geneva",
                   "protein": None}
    assert all(isinstance(r["id"], int) for r in chunk.whole)


def test_cache_data_errors_without_entry(catalog):
    rt = make_rt(catalog)
    with pytest.raises(ExecutionError):
        rt.cache_data("Patients", ("age",), whole=False)


def test_admit_then_serve_columns(catalog):
    cache = DataCache()
    rt = make_rt(catalog, cache)
    scan = PhysScan("Patients", "p", "csv", ("age", "id"), "cold",
                    populate=("age", "id"), batch_size=16)
    ids = [v for chunk in rt.scan(scan) for v in chunk.column("id")]
    cols, layout = rt.cache_data("Patients", ("id",), whole=False)
    assert layout == "columns"
    assert cols == [ids] and len(ids) == 60
    assert rt.stats.cache_rows == 60


def test_admit_elements_objects(catalog):
    cache = DataCache()
    rt = make_rt(catalog, cache)
    scan = PhysScan("Brain", "b", "json", (), "cold", bind_whole=True,
                    populate=("*",), populate_layout="objects")
    objs = [obj for chunk in rt.scan(scan) for obj in chunk.whole]
    data, layout = rt.cache_data("Brain", (), whole=True)
    assert layout == "objects"
    assert [d["id"] for d in data] == [o["id"] for o in objs]


def test_iter_source_shapes(catalog):
    rt = make_rt(catalog)
    patient = next(iter(rt.iter_source("Patients")))
    assert set(patient) == {"id", "age", "gender", "city", "protein"}
    brain = next(iter(rt.iter_source("Brain")))
    assert "regions" in brain
    cell = next(iter(rt.iter_source("Grid")))
    assert set(cell) == {"i", "j", "elevation", "temperature"}
    trade = next(iter(rt.iter_source("Book")))
    assert set(trade) == {"id", "amount", "desk"}


def test_memory_source_not_memory_error(catalog):
    rt = make_rt(catalog)
    with pytest.raises(ExecutionError):
        rt.memory("Patients")


def test_csv_chunks_cleaning_stats(catalog, tmp_path):
    from repro.cleaning import SkipPolicy
    from repro.core.catalog import Catalog

    path = tmp_path / "dirty.csv"
    path.write_text("id,age\n1,30\n2,bad\n3,45\n")
    cat = Catalog()
    cat.register_csv("D", str(path), columns=["id", "age"],
                     types=["int", "int"])
    rt = QueryRuntime(cat, DataCache(), cleaning={"D": SkipPolicy()})
    chunks = list(rt.scan(PhysScan("D", "d", "csv", ("age",), "cold")))
    # chunks arrive dense: the dropped row is gone from the columns
    assert [v for c in chunks for v in c.column("age")] == [30, 45]
    assert [row for c in chunks for row in c.rows()] == [(30,), (45,)]
    assert rt.stats.skipped_rows == 1
    assert rt.stats.raw_rows == 3  # the dropped row was still scanned


def test_monoid_lookup(catalog):
    rt = make_rt(catalog)
    assert rt.monoid("sum").fold([1, 2]) == 3
    assert rt.monoid("topk", (2,)).fold([3, 1, 5]) == [5, 3]


def test_device_routing(catalog):
    from repro.storage import StorageDevice

    dev = StorageDevice("hdd")
    rt = QueryRuntime(catalog, DataCache(), devices={"*": dev})
    list(rt.scan(PhysScan("Patients", "p", "csv", ("id",), "cold")))
    assert dev.stats.bytes_read > 0
