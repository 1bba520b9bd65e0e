"""By-products at batch speed ≡ their per-value / per-byte references.

A first scan's statistics, semi-index and cache sizing are computed by batch
kernels (``set``/``min``/``max`` builtins and one KMV update per batch; one
bytes regex or the JSON decoder's own end offsets; level-wise ``getsizeof``
sums). Each kernel replaced a per-value or per-byte Python loop, and each of
those loops lives on *here* as the oracle the kernel must agree with bit for
bit — whatever the batching, merge order, chunking or nesting depth.
"""

from __future__ import annotations

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ViDa
from repro.caching import materialize
from repro.caching.layouts import deep_bytes, materialize_columns
from repro.errors import DataFormatError
from repro.formats.jsonfmt import JSONSemiIndex, JSONSource
from repro.formats.jsonfmt.semi_index import iter_spans
from repro.stats.table_stats import (
    ColumnSketch,
    ColumnStats,
    StatsPartial,
    _hash64,
)

# ---------------------------------------------------------------------------
# (i) statistics: batch kernels ≡ the per-value loop
# ---------------------------------------------------------------------------

K = 8  # small enough that every example prunes


class PerValueStats:
    """The pre-batch implementation: an ``isinstance`` ladder and one sketch
    update (``max`` of the stored set) per value."""

    def __init__(self):
        self.count = self.nulls = 0
        self.num_min = self.num_max = self.str_min = self.str_max = None
        self.hashes: set[int] = set()

    def add_hash(self, h: int) -> None:
        hs = self.hashes
        if len(hs) < K:
            hs.add(h)
        elif h not in hs:
            top = max(hs)
            if h < top:
                hs.discard(top)
                hs.add(h)

    def observe(self, values) -> "PerValueStats":
        for v in values:
            if v is None:
                self.nulls += 1
                continue
            self.count += 1
            if isinstance(v, bool):
                v = int(v)
            if isinstance(v, (int, float)):
                f = float(v)
                if self.num_min is None or f < self.num_min:
                    self.num_min = f
                if self.num_max is None or f > self.num_max:
                    self.num_max = f
            elif isinstance(v, str):
                if self.str_min is None or v < self.str_min:
                    self.str_min = v
                if self.str_max is None or v > self.str_max:
                    self.str_max = v
            self.add_hash(_hash64(v))
        return self

    def snapshot(self) -> tuple:
        return (self.count, self.nulls, self.num_min, self.num_max,
                self.str_min, self.str_max, tuple(sorted(self.hashes)))


#: values that compare equal across types, or sit where float/int exactness
#: ends — the equality classes ``set`` collapses must hash identically
_TWINS = st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, 2**53,
                          float(2**53), 2**53 + 1, -(2**63), 1e300])
_SCALARS = st.one_of(
    st.none(), _TWINS, st.booleans(), st.integers(-50, 50),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, width=32), st.floats(allow_nan=False),
    st.text(max_size=3), st.sampled_from(["1", "a", "é", "\udc80"]),
)
_CONTAINERS = st.one_of(
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2),
)
_ANY = st.one_of(_SCALARS, _CONTAINERS, st.tuples(st.integers(0, 2)),
                 st.just(1 + 2j))


def _batches(values: list, rng: random.Random) -> list[list]:
    cuts = sorted(rng.randrange(len(values) + 1)
                  for _ in range(rng.randrange(4)))
    return [values[a:b] for a, b in zip([0, *cuts], [*cuts, len(values)])]


def _check_stats(values: list, seed: int) -> None:
    expected = PerValueStats().observe(values).snapshot()
    rng = random.Random(seed)
    # any batching, with and without the caller's memo of observed values
    for seen in (None, set()):
        batched = ColumnStats(sketch=ColumnSketch(k=K))
        for batch in _batches(values, rng):
            batched.observe_batch(batch, seen)
        assert batched.snapshot() == expected
    # any partitioning into partials, merged in any order
    parts = []
    for batch in _batches(values, rng):
        part = ColumnStats(sketch=ColumnSketch(k=K))
        part.observe_batch(batch)
        parts.append(part)
    rng.shuffle(parts)
    merged = ColumnStats(sketch=ColumnSketch(k=K))
    for part in parts:
        merged.merge(part)
    assert merged.snapshot() == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCALARS, max_size=40), st.integers(0, 2**16))
def test_batch_stats_equal_per_value_stats_on_scalars(values, seed):
    _check_stats(values, seed)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ANY, max_size=30), st.integers(0, 2**16))
def test_batch_stats_equal_per_value_stats_on_containers(values, seed):
    _check_stats(values, seed)


def test_sketch_batch_update_keeps_exactly_the_k_smallest():
    rng = random.Random(11)
    hashes = [rng.getrandbits(64) for _ in range(5000)]
    expected = tuple(sorted(set(hashes))[:K])
    sketch = ColumnSketch(k=K)
    for batch in _batches(hashes, rng):
        sketch.update(batch)
    assert sketch.snapshot() == expected
    other = ColumnSketch(k=K, hashes=set(hashes[:100]))
    other.merge(sketch)
    assert other.snapshot() == expected
    import pickle
    assert pickle.loads(pickle.dumps(sketch)).snapshot() == expected
    assert pickle.loads(pickle.dumps(sketch)).estimate() == sketch.estimate()


def test_nan_never_bounds_a_range_whatever_its_position():
    nan = float("nan")
    for values in ([nan, 3.0, 1.0], [3.0, nan, 1.0], [3.0, 1.0, nan]):
        for batches in ([values], [[v] for v in values]):
            cs = ColumnStats()
            for batch in batches:
                cs.observe_batch(batch)
            assert (cs.count, cs.num_min, cs.num_max, cs.ndv) == (3, 1.0, 3.0, 3)
    only = ColumnStats()
    only.observe_batch([nan, None])
    assert (only.count, only.nulls, only.num_min, only.num_max) == (1, 1, None, None)


def test_stats_partial_memo_is_scratch_state():
    import pickle
    part = StatsPartial(("a",))
    part.record(0, {"a": [1, 2, 2, None]})
    part.record(4, {"a": [2, 3]})
    home = pickle.loads(pickle.dumps(part))
    assert home.columns["a"].snapshot() == part.columns["a"].snapshot()
    assert home.columns["a"].snapshot()[:4] == (5, 1, 1.0, 3.0)
    home.record(6, {"a": [9]})  # an unpickled partial still records
    assert home.columns["a"].num_max == 9.0


# ---------------------------------------------------------------------------
# (ii) semi-index: regex scanner ≡ the per-byte state machine; the index a
#      first parse leaves behind ≡ the scanner's
# ---------------------------------------------------------------------------


def per_byte_spans(data: bytes) -> list[tuple[int, int]]:
    """The pre-regex boundary scanner: one Python iteration per byte."""
    spans = []
    in_string = escaped = False
    depth = 0
    object_start = -1
    for i, byte in enumerate(data):
        ch = chr(byte)
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                object_start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise DataFormatError(f"unbalanced '}}' at byte {i}")
            if depth == 0 and object_start >= 0:
                spans.append((object_start, i + 1))
                object_start = -1
    if depth != 0 or in_string:
        raise DataFormatError("truncated JSON: unbalanced braces or open string")
    return spans


def _outcome(fn, *args):
    try:
        return [(s.start, s.end) if not isinstance(s, tuple) else s
                for s in fn(*args)]
    except DataFormatError as exc:
        return str(exc)


def _chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i:i + size] for i in range(0, len(data), size)]


_STRUCTURE = st.lists(st.sampled_from(
    ['{', '}', '"', '\\', 'a', ' ', '[', ']', ',', ':', '\n', 'é', '"}"',
     '"{"', '\\"', '{"k":"v"}']), max_size=16).map("".join)


@settings(max_examples=600, deadline=None)
@given(_STRUCTURE, st.integers(1, 7))
def test_scanner_equals_per_byte_state_machine(text, chunk_size):
    data = text.encode("utf-8")
    expected = _outcome(per_byte_spans, data)
    assert _outcome(JSONSemiIndex.build, data) == expected
    # a chunk boundary may fall inside a string, an escape or a UTF-8 char
    assert _outcome(iter_spans, _chunked(data, chunk_size)) == expected
    shifted = _outcome(JSONSemiIndex.build, data, 1000)
    if isinstance(expected, list):
        assert shifted == [(a + 1000, b + 1000) for a, b in expected]


@pytest.mark.parametrize("data", [
    b'{"a": "he said \\"}{\\""}', b'{"a": "\\\\"}{"b": 1}',
    b'[{"x": "a{b}c"}, {"y": [{"z": {}}]}]',
    '{"k": "é{"}\n{"k": "日本}"}\n'.encode(), b'"{" {"a": 1} "}"',
    b'}{', b'{"a": 1}}', b'{"a": 1', b'{"a": "x', b'{"a": 1}\n{"b": "\\',
])
def test_scanner_corner_cases(data):
    expected = _outcome(per_byte_spans, data)
    assert _outcome(JSONSemiIndex.build, data) == expected
    for size in (1, 2, 3, 5):
        assert _outcome(iter_spans, _chunked(data, size)) == expected


def test_scanner_runs_longer_than_one_bounded_match():
    # far more strings between two braces than one regex match may consume
    body = ", ".join(f'"s{i}{{}}\\""' for i in range(3000))
    for data in (f'{{"a": [{body}]}}\n[{body}]\n{{"b": 1}}\n'.encode(),
                 f'{{"a": [{body}, "open'.encode(),
                 f'[{body}, "open'.encode()):
        expected = _outcome(per_byte_spans, data)
        assert _outcome(JSONSemiIndex.build, data) == expected
        assert _outcome(iter_spans, _chunked(data, 4099)) == expected


def test_scanner_reports_byte_offsets_not_char_offsets():
    data = '{"k": "ééé"}\n{"k": 1}\n'.encode()
    spans = JSONSemiIndex.build(data).spans
    assert [json.loads(data[s.start:s.end]) for s in spans] == \
        [{"k": "ééé"}, {"k": 1}]
    assert spans[1].start == len('{"k": "ééé"}\n'.encode())


_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9),
              st.text(st.sampled_from('a{}"\\é[] '), max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "{", '"']), inner,
                        max_size=3)),
    max_leaves=8)
_JSON_OBJECT = st.dictionaries(st.sampled_from(["k", "n", "}"]), _JSON_VALUE,
                               max_size=3)


def _write_objects(path, objs, as_array: bool, ascii_only: bool) -> bytes:
    if as_array:
        text = json.dumps(objs, ensure_ascii=ascii_only)
    else:
        text = "".join(json.dumps(o, ensure_ascii=ascii_only) + "\n"
                       for o in objs)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


@settings(max_examples=120, deadline=None)
@given(st.lists(_JSON_OBJECT, max_size=6), st.booleans(), st.booleans(),
       st.integers(1, 4))
def test_first_parse_index_equals_scanner_index(tmp_path_factory, objs,
                                                as_array, ascii_only, batch):
    path = tmp_path_factory.mktemp("fused") / "d.json"
    data = _write_objects(path, objs, as_array, ascii_only)
    src = JSONSource(str(path))
    cold = [o for chunk in src.scan_object_chunks(batch) for o in chunk]
    assert src.has_semi_index()
    assert [(s.start, s.end) for s in src.semi_index.spans] == \
        per_byte_spans(data)
    warm = [o for chunk in src.scan_object_chunks(batch) for o in chunk]
    assert cold == warm == objs
    assert list(JSONSource(str(path)).scan_objects()) == objs


def test_first_parse_hands_malformed_input_to_the_scanner(tmp_path):
    path = tmp_path / "d.json"
    # a scalar line and a stray top-level string: skipped exactly as the
    # boundary scanner skips them
    path.write_text('{"a": 1}\n5\n"}{"\n{"a": 2}\n')
    src = JSONSource(str(path))
    assert list(src.scan_objects()) == [{"a": 1}, {"a": 2}]
    assert [(s.start, s.end) for s in src.semi_index.spans] == \
        per_byte_spans(path.read_bytes())
    # brace-balanced but not JSON: same typed error as the warm path
    path.write_text('{"a": 1}\n{"b": tru}\n')
    with pytest.raises(DataFormatError, match="bad JSON object at bytes 9-19"):
        list(JSONSource(str(path)).scan_objects())
    for text in ('{"a": 1}\n{"b": ', '{"a": 1}\n{"b": "x', '{"a": 1}}\n'):
        path.write_text(text)
        src = JSONSource(str(path))
        with pytest.raises(DataFormatError) as new:
            list(src.scan_objects())
        with pytest.raises(DataFormatError) as old:
            per_byte_spans(text.encode())
        assert str(new.value) == str(old.value)
        assert not src.has_semi_index()


def test_first_parse_publishes_only_a_complete_current_index(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("".join(json.dumps({"k": i}) + "\n" for i in range(10)))
    src = JSONSource(str(path))
    chunks = src.scan_object_chunks(batch_size=2)
    next(chunks)
    chunks.close()                       # LIMIT-style early exit
    assert not src.has_semi_index()
    assert src.object_count() == 10      # ... the scanner still serves it
    src.invalidate_auxiliary()
    chunks = src.scan_object_chunks(batch_size=2)
    next(chunks)
    src.invalidate_auxiliary()           # file changed under the scan
    assert sum(map(len, chunks)) == 8
    assert not src.has_semi_index()      # the superseded parse stays private


def test_truncated_append_tail_falls_back_with_a_typed_error(tmp_path):
    path = tmp_path / "d.json"
    head = '{"k": 0}\n{"k": 1}\n'
    path.write_text(head)
    src = JSONSource(str(path))
    list(src.scan_objects())
    before = src.semi_index
    for tail in ('{"k": 2', '{"k": "x', '}\n'):
        path.write_text(head + tail)
        with pytest.raises(DataFormatError):
            src.extend_for_append(len(head), len(head + tail))
        assert src.semi_index is before  # the live index is untouched
    path.write_text(head + '{"k": 2}\n')
    objs, start_row, nbytes = src.extend_for_append(len(head), len(head) + 9)
    assert (objs, start_row, nbytes) == ([{"k": 2}], 2, 9)
    assert [(s.start, s.end) for s in src.semi_index.spans] == \
        per_byte_spans(path.read_bytes())


def test_cold_scan_answers_equal_warm_scan_answers(tmp_path):
    path = tmp_path / "d.json"
    rng = random.Random(5)
    with open(path, "w") as fh:
        for k in range(300):
            fh.write(json.dumps({
                "k": k, "w": rng.randrange(10), "name": f"n{k % 7}",
                "items": [{"v": rng.randrange(9)} for _ in range(k % 4)],
            }) + "\n")
    queries = ["for { d <- D, d.w >= 5 } yield sum d.k",
               "for { d <- D, i <- d.items } yield sum i.v",
               "for { d <- D, d.name = \"n3\" } yield count 1"]
    cold, warm = ViDa(batch_size=64), ViDa(batch_size=64)
    try:
        for db in (cold, warm):
            db.register_json("D", str(path))
        plugins = [db.catalog.get("D").plugin for db in (cold, warm)]
        list(plugins[1].scan_objects())                     # index first
        assert plugins[1].has_semi_index() and not plugins[0].has_semi_index()
        for q in queries:
            assert cold.query(q).value == warm.query(q).value
        assert cold.engine_context.table_stats.snapshot() == \
            warm.engine_context.table_stats.snapshot()
        assert plugins[0].semi_index.spans == plugins[1].semi_index.spans
    finally:
        cold.close()
        warm.close()


# ---------------------------------------------------------------------------
# (iii) cache sizing: level-wise sums ≡ the recursive per-cell estimate
# ---------------------------------------------------------------------------


def recursive_bytes(value, _depth: int = 0) -> int:
    """The pre-batch sizing: one recursive Python call per cell."""
    if _depth > 6:
        return 64
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += sum(recursive_bytes(k, _depth + 1)
                    + recursive_bytes(v, _depth + 1)
                    for k, v in value.items())
    elif isinstance(value, (list, tuple, set)):
        size += sum(recursive_bytes(v, _depth + 1) for v in value)
    return size


_CELL = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=False), st.text(max_size=5),
              st.binary(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.frozensets(st.integers(0, 9), max_size=3).map(set),
        st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL, max_size=8))
def test_level_wise_sizing_equals_recursive_sizing(values):
    assert deep_bytes(values) == sum(map(recursive_bytes, values))


def test_sizing_past_the_depth_cap():
    deep = [1, "x"]
    for _ in range(12):
        deep = [deep, {"a": deep, "b": (deep,)}, {3, 4}]
    assert deep_bytes([deep, 5, None]) == \
        sum(map(recursive_bytes, [deep, 5, None]))


def test_admission_nbytes_equal_recursive_sizing():
    cols = {"a": list(range(300)), "b": [None, "x", 2.5] * 100,
            "items": [[{"v": i, "q": [i, (i,)]}] for i in range(300)]}
    # a column list is charged as exactly sized (``col[:]``), whatever
    # spare capacity its growth left
    expect = sum(sum(map(recursive_bytes, col)) + sys.getsizeof(col[:])
                 for col in cols.values())
    # materialize_columns adopts the lists, so sizes are taken on the same
    # objects the oracle walked
    fields = list(cols)
    assert materialize_columns(fields, [cols[f] for f in fields]).nbytes == expect
    rows = [(i, f"s{i}", {"n": [i]}) for i in range(40)]
    assert materialize("rows", ["x", "y", "z"], rows).nbytes == \
        sum(map(recursive_bytes, rows))
    assert materialize("objects", [], rows).nbytes == \
        sum(map(recursive_bytes, rows))
    by_col = materialize("columns", ["x", "y", "z"], rows)
    assert by_col.nbytes == sum(
        sum(map(recursive_bytes, col)) + sys.getsizeof(col[:])
        for col in by_col.data.values())
