"""The positional column kernel and run-coalesced positional reads.

One kernel serves a warm scan's dense batches, its push-down survivors and
an index lookup's candidate rows; these tests pin it to the naive oracle
(``line.split(delim)[c]``, the one-row ``field_in_line``), pin positional
fetches to the same rows picked out of a full scan, and check that a dirty
or short row raises the same typed error from every caller.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ViDa
from repro.errors import DataFormatError
from repro.formats.csvfmt import CSVSource
from repro.formats.descriptions import NULL_TOKENS
from repro.formats.jsonfmt import JSONSource
from repro.storage import io
from repro.storage.io import RawFile, read_spans


def _populate(src: CSVSource, mapped: list[int]) -> list[str]:
    """Complete the map over ``mapped`` (+ stride anchors) without
    converting anything, so ragged files populate too; returns the lines."""
    anchors = src.posmap.anchor_columns(mapped)
    src.posmap.begin_population(anchors)
    lines = [line for _start, batch in
             src.iter_line_batches(5, record_anchors=anchors,
                                   record_map=src.posmap)
             for line in batch]
    src.posmap.finish_population()
    return lines


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_equals_split(tmp_path_factory, data):
    ncols = data.draw(st.integers(1, 10), label="ncols")
    stride = data.draw(st.integers(0, 4), label="stride")
    nrows = data.draw(st.integers(1, 12), label="nrows")
    ragged = data.draw(st.booleans(), label="ragged")
    cell = st.text(alphabet="ab", max_size=3)  # "" = empty (trailing) fields
    table = []
    for r in range(nrows):
        width = data.draw(st.integers(1, ncols)) if ragged else ncols
        # the first cell is never empty: a blank line is not a row
        table.append([f"r{r}"] + [data.draw(cell) for _ in range(width - 1)])
    final_newline = data.draw(st.booleans(), label="final newline")
    names = [f"c{i}" for i in range(ncols)]
    path = tmp_path_factory.mktemp("kernel") / "t.csv"
    text = "\n".join([",".join(names)] + [",".join(row) for row in table])
    path.write_text(text + "\n" if final_newline else text)

    src = CSVSource(path, columns=names, types=["string"] * ncols,
                    posmap_stride=stride)
    mapped = sorted(data.draw(st.sets(st.integers(0, ncols - 1)),
                              label="mapped"))
    lines = _populate(src, mapped)
    assert lines == [",".join(row) for row in table]

    picked = sorted(data.draw(
        st.sets(st.integers(0, nrows - 1), min_size=1), label="picked"))
    for rows in (range(nrows), picked):
        batch = [lines[r] for r in rows]
        for c in range(ncols):  # before, at and after every anchor
            fetch = src._column_kernel(src.posmap, [c])
            if any(len(table[r]) <= c for r in rows):
                with pytest.raises(DataFormatError, match=r"row \d+ has \d+ "
                                   rf"cells but column 'c{c}'"):
                    fetch(batch, rows)
                continue
            want = [line.split(",")[c] for line in batch]
            assert want == [src.posmap.field_in_line(lines[r], r, c)
                            for r in rows]
            assert fetch(batch, rows) == [
                [None if v in NULL_TOKENS else v for v in want]]


def test_kernel_counts_navigation_per_batch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n" + "".join(f"{i},x,{i},y\n" for i in range(7)))
    src = CSVSource(path, posmap_stride=0)
    _populate(src, [1])
    chunks = list(src.scan_chunks(["a", "b", "c"], access="warm",
                                  batch_size=4))
    assert [c.columns[2] for c in chunks] == [[0, 1, 2, 3], [4, 5, 6]]
    stats = src.posmap.stats
    assert (stats.full_scans, stats.direct_hits, stats.anchored_scans) \
        == (7, 7, 7)


# -- positional fetch ≡ the same rows of a full scan ------------------------


@pytest.fixture()
def small_runs(monkeypatch):
    """Run constants small enough that a test file's row gaps straddle
    them."""
    monkeypatch.setattr(io, "RUN_GAP_BYTES", 48)
    monkeypatch.setattr(io, "RUN_CAP_BYTES", 160)


def _subsets(n: int, rng: random.Random) -> list[list[int]]:
    return [[], [0], [n - 1], [0, n - 1], [3, 4, 5], list(range(n)),
            *(sorted(rng.sample(range(n), rng.randrange(1, n)))
              for _ in range(40))]


def test_fetch_rows_equals_full_scan(tmp_path, small_runs):
    rng = random.Random(5)
    path = tmp_path / "t.csv"
    # row lengths 8..60 bytes: neighbours' gaps fall on both sides of the
    # run gap, and a few rows fill a run to its cap
    body = [f"{i},{'p' * rng.randrange(1, 50)},{i * 0.5},k{i % 3}"
            for i in range(40)]
    path.write_text("id,pad,x,key\n" + "\n".join(body))  # no final newline
    src = CSVSource(path)
    fields = ["key", "id", "x"]
    full = [col for col in zip(*(c.columns for c in src.scan_chunks(fields)))]
    full = [[v for part in col for v in part] for col in full]
    assert src.posmap.complete
    for rows in _subsets(40, rng):
        assert src.fetch_rows(rows, fields) \
            == [[col[r] for r in rows] for col in full]
        for r in rows[:3]:
            assert src.fetch_row(r, fields) == tuple(col[r] for col in full)


def test_fetch_rows_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,x\n\n\n2,y\n3,z\n\n")
    src = CSVSource(path)
    list(src.scan_chunks(["a"]))
    assert src.fetch_rows([0, 1, 2], ["b", "a"]) \
        == [["x", "y", "z"], [1, 2, 3]]


def test_assemble_equals_full_scan(tmp_path, small_runs):
    rng = random.Random(9)
    path = tmp_path / "t.json"
    objs = [{"id": i, "pad": "p" * rng.randrange(1, 50), "n": {"v": i % 4}}
            for i in range(40)]
    path.write_text("\n".join(json.dumps(o) for o in objs))
    src = JSONSource(path)
    assert list(src.scan_objects()) == objs
    spans = list(src.scan_positions())
    for rows in _subsets(40, rng):
        assert src.assemble([spans[r] for r in rows]) \
            == [objs[r] for r in rows]
    # any order is served, ascending order is what shares reads
    assert src.assemble([spans[7], spans[2]]) == [objs[7], objs[2]]


def _read(path, payload, spans):
    with RawFile(path) as raw:
        assert list(read_spans(raw, spans)) == [payload[a:b] for a, b in spans]
        return raw.stats.read_calls, raw.stats.bytes_read


def test_read_spans_coalesces_within_the_gap(tmp_path):
    path = tmp_path / "f.bin"
    payload = bytes(range(256)) * 256
    path.write_bytes(payload)
    gap = io.RUN_GAP_BYTES
    assert _read(path, payload, [(0, 10), (10 + gap - 1, 20 + gap)]) \
        == (1, 20 + gap)
    assert _read(path, payload, [(0, 10), (10 + gap, 20 + gap)]) == (2, 20)
    # a sparse probe reads its own bytes only
    assert _read(path, payload,
                 [(i * 3 * gap, i * 3 * gap + 5) for i in range(4)]) == (4, 20)


def test_read_spans_cuts_runs_at_the_cap(tmp_path, small_runs):
    path = tmp_path / "f.bin"
    payload = bytes(range(256)) * 4
    path.write_bytes(payload)
    adjacent = [(i * 50, i * 50 + 50) for i in range(7)]
    assert _read(path, payload, adjacent) == (3, 350)  # 150 + 150 + 50
    # one span over the cap is still one read
    assert _read(path, payload, [(0, 400), (400, 410)]) == (2, 410)


# -- typed errors from every caller -----------------------------------------


@pytest.fixture()
def dirty_csv(tmp_path):
    """5,000 rows; past the inference sample, row 4000 holds ``xx`` in the
    int column ``c`` and row 4500 stops after two cells."""
    path = tmp_path / "dirty.csv"
    with open(path, "w") as fh:
        fh.write("a,b,c,d\n")
        for i in range(5000):
            if i == 4500:
                fh.write(f"{i % 10},{i}\n")
            else:
                fh.write(f"{i % 10},{i},{'xx' if i == 4000 else i},{i}\n")
    return str(path)


#: the same two failures met by a dense warm scan, by a push-down survivor
#: fetch and by an index fetch
CALLERS = {
    "dense": ("for { t <- T } yield sum t.%s", "warm"),
    "survivors": ("for { t <- T, t.b >= 0 } yield sum t.%s", "warm"),
    "candidates": ("for { t <- T, t.a = 0 } yield sum t.%s", "index"),
}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("column,message", [
    ("c", r"row 4000: cannot parse 'xx' as int \(column 'c'\)"),
    ("d", r"row 4500 has 2 cells but column 'd' was requested"),
])
def test_positional_paths_raise_typed_errors(dirty_csv, caller, column,
                                             message):
    template, access = CALLERS[caller]
    db = ViDa(enable_cache=False)
    try:
        db.register_csv("T", dirty_csv)
        warmup = "for { t <- T, t.a = 0 } yield count 1"
        db.query(warmup)  # cold: completes the map, builds index[a]
        assert db.query(warmup).value == 500
        assert access in db.explain(template % "b")
        with pytest.raises(DataFormatError, match=message) as err:
            db.query(template % column)
        assert dirty_csv in str(err.value)
    finally:
        db.close()


def test_direct_hit_on_a_missing_cell_is_typed(tmp_path):
    """A stride anchor past a short row's end is a recorded offset: the
    kernel must not read the missing cell as an empty one."""
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,\n5,6,\n")
    src = CSVSource(path, columns=["a", "b", "c"], types=["int"] * 3,
                    posmap_stride=2)
    list(src.scan_chunks(["a"]))  # maps a and the stride anchor c
    assert src.posmap.has_column(2)
    assert src.fetch_rows([0, 2], ["c", "b"]) == [[3, None], [2, 6]]
    with pytest.raises(DataFormatError, match="row 1 has 2 cells"):
        src.fetch_rows([1], ["c"])
    with pytest.raises(DataFormatError, match="row 1 has 2 cells"):
        list(src.scan_chunks(["c"], access="warm"))
