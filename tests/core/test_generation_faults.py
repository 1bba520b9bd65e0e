"""Fault injection: files mutating *during* an in-flight scan.

The adopt-or-discard gate (generation token + a cheap stat check against the
catalog fingerprint) must guarantee two things whatever the timing:

1. no mixed-generation rows — every row a query returns is a row of exactly
   one content version of the file, never a splice of two;
2. every stale partial is discarded — a scan that raced a mutation adopts
   nothing (no posmap, no indexes, no stats, no cache admission), and the
   *next* query rebuilds and answers bit-identically to a cold session on
   the new content.

The mutation hook wraps the plugin's ``iter_line_batches`` so the file is
rewritten between chunk boundaries of the scan itself (deterministic for
serial runs, and for morsels run inline on plugins rebuilt from the kernel
spec when the hook wraps the plugin class); worker-process children never
see the parent's wrapper, so the process-backend runs mutate from a
background thread instead.
"""

import dataclasses
import json
import os
import shutil
import threading
import time
from types import SimpleNamespace

import pytest

from repro import ViDa
from repro.storage import io as storage_io

ROWS = 4000


def write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("id,v\n")
        for i, v in rows:
            fh.write(f"{i},{v}\n")


def old_rows():
    return [(i, i * 2) for i in range(ROWS)]


@pytest.fixture
def csv_path(tmp_path):
    path = str(tmp_path / "t.csv")
    write_rows(path, old_rows())
    return path


Q = "for { t <- T } yield bag (id := t.id, v := t.v)"


def ground_truth(path):
    """What a cold session answers on the file's current content."""
    db = ViDa()
    db.register_csv("GT", path)
    try:
        return db.query("for { t <- GT } yield bag (id := t.id, v := t.v)",
                        output="records").value
    finally:
        db.close()


def arm_mutation(plugin, mutate, after_batches=2):
    """Fire ``mutate()`` once, between two chunk boundaries of the next
    scan that runs through ``plugin.iter_line_batches``."""
    orig = plugin.iter_line_batches
    fired = threading.Event()

    def wrapper(*args, **kwargs):
        n = 0
        for item in orig(*args, **kwargs):
            yield item
            n += 1
            if n >= after_batches and not fired.is_set():
                fired.set()
                mutate()

    plugin.iter_line_batches = wrapper
    return fired


def _mutate_append(path):
    def go():
        time.sleep(0.005)
        with open(path, "a") as fh:
            for i in range(ROWS, ROWS + 100):
                fh.write(f"{i},{i * 2}\n")
    return go


def _mutate_truncate(path):
    def go():
        time.sleep(0.005)
        write_rows(path, old_rows()[: ROWS // 2])
    return go


def _mutate_rewrite(path):
    def go():
        time.sleep(0.005)
        # same shape, different values — catches value-level poisoning
        write_rows(path, [(i, i * 7) for i in range(ROWS)])
    return go


MUTATIONS = {
    "append": _mutate_append,
    "truncate": _mutate_truncate,
    "rewrite": _mutate_rewrite,
}


def row_universe(path):
    """Every (id, v) pair of old and current content: a returned row must
    come from exactly one version — a spliced row is in neither set."""
    universe = {(i, v) for i, v in old_rows()}
    with open(path) as fh:
        next(fh)
        for line in fh:
            i, v = line.strip().split(",")
            universe.add((int(i), int(v)))
    return universe


def check_run(db, path, result):
    universe = row_universe(path)
    for rec in result.value:
        assert (rec["id"], rec["v"]) in universe, \
            f"mixed-generation row {rec!r}"
    # follow-up query must be bit-identical to a cold rebuild on the new
    # content — stale partials that leaked would poison exactly this
    follow = db.query(Q, output="records")
    assert follow.value == ground_truth(path)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_serial_scan_discards_stale_partials(csv_path, mutation):
    db = ViDa(batch_size=256)
    db.register_csv("T", csv_path)
    fired = arm_mutation(db.catalog.get("T").plugin,
                         MUTATIONS[mutation](csv_path))
    result = db.query(Q, output="records")
    assert fired.is_set(), "mutation hook never fired"
    snap = db.engine_context.stats_snapshot()
    # the cold scan raced the mutation: its posmap partial must be discarded
    assert snap["posmap_adoptions"] == 0
    assert snap["posmap_discards"] >= 1
    check_run(db, csv_path, result)
    db.close()


@pytest.mark.parametrize("dop", [2, 4])
@pytest.mark.parametrize("mutation", ["append", "rewrite"])
def test_inline_morsel_scan_discards_stale_partials(csv_path, dop, mutation,
                                                    inline_morsels,
                                                    monkeypatch):
    # inline morsels scan plugins rebuilt from the kernel spec, so the hook
    # wraps the plugin class: it fires in the first morsel to reach its
    # second batch. The file is small: make its morsels worth their setup
    from repro.core.optimizer import cost
    from repro.formats.csvfmt import CSVSource

    monkeypatch.setattr(cost, "MORSEL_SETUP_COST", 1.0)
    db = ViDa(batch_size=128, parallelism=dop)
    db.register_csv("T", csv_path)
    hook = SimpleNamespace(iter_line_batches=CSVSource.iter_line_batches)
    fired = arm_mutation(hook, MUTATIONS[mutation](csv_path))
    monkeypatch.setattr(CSVSource, "iter_line_batches",
                        hook.iter_line_batches)
    result = db.query(Q, output="records")
    assert result.decisions.parallel.get("t") == dop
    assert fired.is_set(), "mutation hook never fired"
    snap = db.engine_context.stats_snapshot()
    if fired.is_set():
        assert snap["posmap_adoptions"] == 0
    check_run(db, csv_path, result)
    db.close()


@pytest.mark.parametrize("dop", [2, 4])
def test_process_morsel_scan_survives_mid_scan_append(csv_path, dop):
    # worker-process children rebuild plugins from pickled specs, so the
    # iter_line_batches wrapper can't fire there; mutate from a background
    # thread racing the query instead. Assertions hold for any timing.
    db = ViDa(batch_size=128, parallelism=dop, backend="process")
    db.register_csv("T", csv_path)
    mutator = threading.Thread(target=_mutate_append(csv_path)())
    mutator.start()
    try:
        result = db.query(Q, output="records")
    finally:
        mutator.join()
    check_run(db, csv_path, result)
    db.close()


# ---------------------------------------------------------------------------
# fingerprint regression: in-place rewrite under a frozen mtime
# ---------------------------------------------------------------------------


def test_frozen_mtime_rewrite_detected(csv_path):
    """A same-size rewrite with mtime (and size) restored must still
    invalidate: FileFingerprint folds head+tail content hashes in, so
    trusting stat alone is a regression."""
    db = ViDa()
    db.register_csv("T", csv_path)
    before = db.query("for { t <- T } yield sum t.v").value
    assert before == sum(v for _i, v in old_rows())

    st = os.stat(csv_path)
    with open(csv_path, "r+b") as fh:
        fh.seek(len("id,v\n"))
        old = fh.read(1)
        fh.seek(len("id,v\n"))
        fh.write(b"9" if old != b"9" else b"8")  # first id digit changes
    os.utime(csv_path, ns=(st.st_atime_ns, st.st_mtime_ns))  # freeze stat

    with open(csv_path) as fh:
        next(fh)
        expected = sum(int(line.split(",")[0]) for line in fh)
    after = db.query("for { t <- T } yield sum t.id").value
    assert after == expected  # stat-only freshness would serve the old sum
    assert db.query(Q, output="records").value == ground_truth(csv_path)
    db.close()


# ---------------------------------------------------------------------------
# same-size edits past the hashed head and tail: ctime and inode decide
# ---------------------------------------------------------------------------

MID_ROWS = 40_000


def _mid_source(tmp_path, fmt):
    """A file several times the hashed head + tail regions, its query, and
    the answer as a function of the file's current bytes."""
    if fmt == "csv":
        path = tmp_path / "mid.csv"
        path.write_text("id,v\n" + "".join(
            f"{i},{i % 997}\n" for i in range(MID_ROWS)))

        def truth():
            with open(path) as fh:
                next(fh)
                return sum(int(line.split(",")[1]) for line in fh)
    else:
        path = tmp_path / "mid.json"
        path.write_text("".join(
            json.dumps({"id": i, "v": i % 997}) + "\n"
            for i in range(MID_ROWS)))

        def truth():
            with open(path) as fh:
                return sum(json.loads(line)["v"] for line in fh)
    return str(path), truth


def _edit_middle(data: bytes) -> bytes:
    """Change the last digit of the record holding the file's midpoint —
    same size, nowhere near the hashed head and tail regions."""
    mid = len(data) // 2
    end = data.index(b"\n", mid)
    at = end - 1 - (data[end - 1:end] == b"}")
    digit = data[at:at + 1]
    assert digit.isdigit()
    return data[:at] + (b"1" if digit != b"1" else b"2") + data[at + 1:]


def _write_in_place_restore_mtime(path):
    st = os.stat(path)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "r+b") as fh:
        fh.write(_edit_middle(data))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _replace_with_same_size_copy(path):
    with open(path, "rb") as fh:
        data = fh.read()
    tmp = path + ".new"
    with open(tmp, "wb") as fh:
        fh.write(_edit_middle(data))
    shutil.copystat(path, tmp)
    os.replace(tmp, path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("edit", [_write_in_place_restore_mtime,
                                  _replace_with_same_size_copy])
def test_same_size_mid_file_edit_with_restored_mtime(tmp_path, fmt, edit):
    """Head/tail hashes cannot see the middle of a large file: an edit
    there, same size, mtime restored, was served stale. ``utime`` moves
    ctime and a rename-over moves the inode, so stat alone now sees it."""
    path, truth = _mid_source(tmp_path, fmt)
    db = ViDa()
    getattr(db, f"register_{fmt}")("T", path)
    q = "for { t <- T } yield sum t.v"
    for _ in range(2):  # cold, then warm: posmap/semi-index, cache, stats
        assert db.query(q).value == truth()
    size, mtime = os.stat(path).st_size, os.stat(path).st_mtime_ns
    edit(path)
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (size, mtime)
    assert db.query(q).value == truth()
    assert db.engine_context.stats.full_invalidations == 1
    db.close()


# ---------------------------------------------------------------------------
# the racily-clean rule: bytes are read only while stat cannot tell
# ---------------------------------------------------------------------------


class _Clock:
    """Wall clock the fingerprint reads, movable forward by the test."""

    def __init__(self):
        self.offset = 0

    def time_ns(self):
        return time.time_ns() + self.offset


def _fresh_counts(db):
    snap = db.engine_context.stats_snapshot()
    return snap["fresh_by_stat"], snap["fresh_by_hash"]


def test_racily_clean_file_is_hashed_until_a_check_outside_the_window(
        csv_path, monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(storage_io, "time", clock)
    db = ViDa()
    db.register_csv("T", csv_path)   # content verified now, just written
    q = "for { t <- T } yield sum t.v"
    db.query(q)
    assert _fresh_counts(db) == (0, 1)   # inside the window: hashed
    clock.offset = 10 * storage_io.RACY_WINDOW_NS
    db.query(q)
    assert _fresh_counts(db) == (0, 2)   # confirmed outside the window
    for _ in range(3):
        db.query(q)
    assert _fresh_counts(db) == (3, 2)   # from then on stat alone decides
    db.close()


def test_rewrite_stat_cannot_show_is_caught_inside_the_window(csv_path):
    """A same-size rewrite whose stat tuple equals the recorded one — what
    a rewrite within the timestamp granularity looks like — is caught by
    the head/tail hash while the file is racily clean."""
    db = ViDa()
    db.register_csv("T", csv_path)
    q = "for { t <- T } yield sum t.id"
    db.query(q)
    entry = db.catalog.get("T")
    with open(csv_path, "r+b") as fh:
        fh.seek(len("id,v\n"))
        fh.write(b"7")                   # row 0's id: 0 -> 7, same size
    st = os.stat(csv_path)
    entry.fingerprint = dataclasses.replace(
        entry.fingerprint, size=st.st_size, mtime_ns=st.st_mtime_ns,
        ctime_ns=st.st_ctime_ns, ino=st.st_ino)
    assert db.query(q).value == sum(i for i, _v in old_rows()) + 7
    assert db.engine_context.stats.full_invalidations == 1
    db.close()
