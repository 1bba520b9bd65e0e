"""CSV plugin + positional map tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataFormatError
from repro.formats.csvfmt import CSVOptions, CSVSource, PositionalMap, write_csv


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(i, f"name{i}", i * 1.5 if i % 4 else None, i % 2 == 0)
            for i in range(20)]
    write_csv(path, ["id", "name", "score", "flag"], rows)
    return str(path)


def test_schema_inference(csv_file):
    src = CSVSource(csv_file)
    assert src.columns == ["id", "name", "score", "flag"]
    assert src.types == ["int", "string", "float", "bool"]


def test_cold_scan_projection(csv_file):
    src = CSVSource(csv_file)
    rows = list(src.scan(["id", "score"]))
    assert rows[0] == (0, None)
    assert rows[1] == (1, 1.5)
    assert len(rows) == 20


def test_cold_scan_builds_posmap(csv_file):
    src = CSVSource(csv_file)
    assert not src.posmap.complete
    list(src.scan(["id"]))
    assert src.posmap.complete
    assert len(src.posmap.row_offsets) == 20


def test_warm_scan_equals_cold_scan(csv_file):
    src = CSVSource(csv_file)
    cold = list(src.scan(["name", "flag"]))
    warm = list(src.scan(["name", "flag"]))
    assert cold == warm


def test_warm_scan_unmapped_column(csv_file):
    src = CSVSource(csv_file, posmap_stride=0)
    list(src.scan(["id"]))  # maps only column 0
    scores = [r[0] for r in src.scan(["score"])]
    assert scores[1] == 1.5
    assert src.posmap.stats.anchored_scans > 0


def test_fetch_row_positional_access(csv_file):
    src = CSVSource(csv_file)
    list(src.scan(["id"]))
    assert src.fetch_row(5, ["name", "id"]) == ("name5", 5)
    assert src.fetch_row(19, ["id"]) == (19,)


def test_fetch_row_requires_map(csv_file):
    src = CSVSource(csv_file)
    with pytest.raises(DataFormatError):
        src.fetch_row(0, ["id"])


def test_row_count(csv_file):
    src = CSVSource(csv_file)
    assert src.row_count() == 20
    list(src.scan(["id"]))
    assert src.row_count() == 20


def test_unknown_column(csv_file):
    src = CSVSource(csv_file)
    with pytest.raises(DataFormatError):
        list(src.scan(["nope"]))


def test_dirty_value_raises_without_policy(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\nXX,4\n")
    # declared types pin column a to int; the dirty token must surface
    src = CSVSource(path, columns=["a", "b"], types=["int", "int"])
    with pytest.raises(DataFormatError):
        list(src.scan(["a"]))


def test_inference_widens_dirty_column_to_string(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("a,b\n1,2\nXX,4\n")
    src = CSVSource(path)
    assert src.types[0] == "string"
    assert list(src.scan(["a"])) == [("1",), ("XX",)]


def test_invalidate_auxiliary(csv_file):
    src = CSVSource(csv_file)
    list(src.scan(["id"]))
    src.invalidate_auxiliary()
    assert not src.posmap.complete


def test_no_header_mode(tmp_path):
    path = tmp_path / "nh.csv"
    path.write_text("1,a\n2,b\n")
    src = CSVSource(path, CSVOptions(header=False))
    assert src.columns == ["c0", "c1"]
    assert list(src.scan(None)) == [(1, "a"), (2, "b")]


def test_alternative_delimiter(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1\tx\n")
    src = CSVSource(path, CSVOptions(delimiter="\t"))
    assert list(src.scan(["b"])) == [("x",)]


# -- positional map unit tests -------------------------------------------------


def test_posmap_direct_hit_and_anchor():
    pm = PositionalMap(ncols=6, stride=0)
    line = "aa,bb,cc,dd,ee,ff"
    pm.begin_population([1, 4])
    pm.record_row(0, line, [1, 4])
    pm.finish_population()
    assert pm.field_in_line(line, 0, 1) == "bb"
    assert pm.stats.direct_hits == 1
    assert pm.field_in_line(line, 0, 5) == "ff"  # anchored from col 4
    assert pm.stats.anchored_scans == 1
    assert pm.field_in_line(line, 0, 0) == "aa"  # full scan from row start
    assert pm.stats.full_scans == 1


def test_posmap_navigation_cost():
    pm = PositionalMap(ncols=10, stride=0)
    pm.begin_population([4])
    pm.record_row(0, ",".join(str(i) for i in range(10)), [4])
    assert pm.navigation_cost(4) == 0
    assert pm.navigation_cost(7) == 3
    assert pm.navigation_cost(2) == 2  # no anchor ≤ 2 → from row start


def test_posmap_short_row():
    pm = PositionalMap(ncols=5, stride=0)
    pm.begin_population([3])
    pm.record_row(0, "a,b", [3])  # row shorter than target column
    assert pm.field_in_line("a,b", 0, 3) == ""


@given(st.lists(
    st.tuples(st.integers(-1000, 1000), st.floats(allow_nan=False,
              allow_infinity=False, width=32)),
    min_size=1, max_size=30,
))
@settings(max_examples=30, deadline=None)
def test_roundtrip_write_then_scan(tmp_path_factory, rows):
    """write_csv → CSVSource.scan is the identity on (int, float) rows."""
    path = tmp_path_factory.mktemp("rt") / "r.csv"
    write_csv(path, ["a", "b"], rows)
    src = CSVSource(path)
    got = list(src.scan(None))
    assert [r[0] for r in got] == [r[0] for r in rows]
    for (_, b1), (_, b2) in zip(rows, got):
        assert b2 == pytest.approx(b1)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_posmap_random_access_equals_split(data):
    """field_in_line agrees with naive split() for random anchors/targets."""
    ncols = data.draw(st.integers(2, 8))
    nrows = data.draw(st.integers(1, 5))
    anchors = sorted(data.draw(st.sets(st.integers(0, ncols - 1), max_size=3)))
    lines = [
        ",".join(f"v{r}_{c}" for c in range(ncols)) for r in range(nrows)
    ]
    pm = PositionalMap(ncols=ncols, stride=0)
    pm.begin_population(list(anchors))
    for r, line in enumerate(lines):
        pm.record_row(r * 100, line, list(anchors))
    pm.finish_population()
    for r, line in enumerate(lines):
        for c in range(ncols):
            assert pm.field_in_line(line, r, c) == line.split(",")[c]


@pytest.mark.parametrize("dop", [1, 2])
def test_utf8_bom_is_stripped_at_registration(tmp_path, dop):
    """A leading UTF-8 byte-order mark belongs to neither the first column's
    name (header) nor the first row's first cell (headerless): both files
    answer exactly, cold and warm, serial and on worker processes. The rows
    are padded so DoP 2 ships both scans."""
    from repro import ViDa

    rows = 15000
    lines = [f"{i},{i % 7},{'x' * 90}\n" for i in range(rows)]
    with open(tmp_path / "h.csv", "w", encoding="utf-8-sig") as fh:
        fh.write("id,v,pad\n")
        fh.writelines(lines)
    with open(tmp_path / "n.csv", "w", encoding="utf-8-sig") as fh:
        fh.writelines(lines)
    db = ViDa(parallelism=dop, enable_cache=False, enable_indexes=False)
    try:
        db.register_csv("H", str(tmp_path / "h.csv"))
        db.register_csv("N", str(tmp_path / "n.csv"), header=False)
        assert db.catalog.get("H").plugin.columns == ["id", "v", "pad"]
        assert db.catalog.get("N").plugin.types == ["int", "int", "string"]
        want = sum(i for i in range(rows) if i % 7 >= 3)
        for q in ("for { r <- H, r.v >= 3 } yield sum r.id",
                  "for { r <- N, r.c1 >= 3 } yield sum r.c0"):
            cold, warm = db.query(q), db.query(q)
            assert "r:cold" in cold.decisions.summary()
            assert "r:warm" in warm.decisions.summary()
            for r in (cold, warm):
                assert r.value == want
                assert r.decisions.parallel == ({"r": 2} if dop > 1 else {})
    finally:
        db.close()
