"""Simulated devices, tracked IO, and buffer pool tests."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    HDD,
    PCM,
    BufferPool,
    FileFingerprint,
    PlacementPlan,
    RawFile,
    StorageDevice,
)
from repro.storage.pages import HeapFile


def test_device_profiles_ordering():
    """Faster technologies must actually be faster in the model."""
    n = 10 << 20
    hdd = HDD.read_seconds(n, seeks=1)
    pcm = PCM.read_seconds(n, seeks=1)
    assert pcm < hdd


def test_device_accounting_sequential_vs_random():
    dev = StorageDevice("hdd")
    dev.read(4096)            # sequential
    assert dev.stats.read_seeks == 0
    dev.read(4096, offset=1 << 20)  # jump
    assert dev.stats.read_seeks == 1
    assert dev.stats.bytes_read == 8192
    assert dev.stats.simulated_seconds > 0


def test_device_random_write_penalty():
    flash = StorageDevice("flash")
    seq = flash.write(1 << 20)
    flash.reset()
    flash.write(0)  # establish position 0
    rnd = flash.write(1 << 20, offset=5 << 20)
    assert rnd > seq


def test_device_energy_positive():
    dev = StorageDevice("pcm")
    dev.read(1 << 20)
    assert dev.stats.energy_joules > 0


def test_unknown_profile():
    with pytest.raises(StorageError):
        StorageDevice("tape")


def test_placement_plan_dedups_devices():
    a = StorageDevice("hdd")
    b = StorageDevice("flash")
    plan = PlacementPlan(raw=a, posmap=b, cache=b, temp=b)
    a.read(1024)
    b.read(1024)
    assert plan.total_seconds() == a.stats.simulated_seconds + b.stats.simulated_seconds


# -- RawFile -----------------------------------------------------------


def test_rawfile_counts_bytes_and_seeks(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"0123456789" * 100)
    with RawFile(p) as raw:
        raw.read(10)
        raw.read_at(500, 10)
        assert raw.stats.bytes_read == 20
        assert raw.stats.seeks == 1
        assert raw.size == 1000


def test_rawfile_charges_device(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"x" * 1000)
    dev = StorageDevice("hdd")
    with RawFile(p, device=dev) as raw:
        raw.read(1000)
    assert dev.stats.bytes_read == 1000


def test_rawfile_iter_lines_offsets(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes(b"aa\nbbb\n\ncccc")
    with RawFile(p) as raw:
        lines = list(raw.iter_lines(chunk_size=4))
    assert lines == [(0, b"aa"), (3, b"bbb"), (7, b""), (8, b"cccc")]


def test_fingerprint_detects_change(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("v1")
    fp = FileFingerprint.of(p)
    assert fp.check(p) is not None
    import os
    p.write_text("v2!")
    os.utime(p, ns=(1, 1))
    assert fp.check(p) is None
    assert fp.check(tmp_path / "missing.txt") is None


@pytest.mark.parametrize("size", [0, 10, 70_000, 200_000])
def test_fingerprint_successor_classifies_appends(tmp_path, size):
    """One pass yields the new fingerprint and the append verdict, for
    files below and above the hashed head/tail regions."""
    p = tmp_path / "f.bin"
    body = bytes(i % 251 for i in range(size))
    p.write_bytes(body)
    old = FileFingerprint.of(p)

    assert old.successor(p) == (old, False)  # unchanged: not a proper prefix
    for tail in (b"x", b"tail\n" * 20_000):
        p.write_bytes(body + tail)
        new, is_prefix = old.successor(p)
        assert new == FileFingerprint.of(p)
        assert is_prefix and new.size == size + len(tail)
    if size:
        for at in {0, size // 2, size - 1}:  # a rewrite under an append
            changed = bytearray(body)
            changed[at] ^= 0xFF
            p.write_bytes(bytes(changed) + b"tail")
            new, is_prefix = old.successor(p)
            assert new == FileFingerprint.of(p)
            # only the hashed regions are compared (the documented bound)
            hashed = at < 65536 or at >= size - 65536
            assert is_prefix == (not hashed)
        p.write_bytes(body[:-1])
        assert old.successor(p) == (FileFingerprint.of(p), False)


# -- buffer pool -----------------------------------------------------------


def test_buffer_pool_hits_and_evictions(tmp_path):
    heap = HeapFile(tmp_path / "t.heap")
    for i in range(40):
        heap.append(b"z" * 1500)  # ~5 per page → 8 pages
    heap.flush()
    pool = BufferPool(capacity_pages=2)
    list(pool.scan(heap))
    first_misses = pool.stats.misses
    assert first_misses == heap.page_count
    list(pool.scan(heap))
    # capacity 2 < page count → rescan misses again (thrash)
    assert pool.stats.misses > first_misses

    big = BufferPool(capacity_pages=64)
    list(big.scan(heap))
    list(big.scan(heap))
    assert big.stats.hits >= heap.page_count
    assert 0 < big.stats.hit_ratio < 1


def test_buffer_pool_invalidate(tmp_path):
    heap = HeapFile(tmp_path / "t.heap")
    heap.append(b"a")
    heap.flush()
    pool = BufferPool(4)
    pool.get(heap, 0)
    pool.invalidate(heap.path)
    pool.get(heap, 0)
    assert pool.stats.misses == 2


def test_buffer_pool_capacity_validation():
    with pytest.raises(ValueError):
        BufferPool(0)
