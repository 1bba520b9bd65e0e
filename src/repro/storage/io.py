"""Tracked raw-file access.

All raw-data reads in the library flow through :class:`RawFile` so benchmarks
can report exactly how many bytes/seeks each strategy caused (the paper's
Section 6 discussion attributes most of ViDa's cumulative time to *initial*
raw accesses — we measure that directly). Optionally a simulated
:class:`~repro.storage.device.StorageDevice` is charged for each access.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from .device import StorageDevice

#: bytes of file head/tail folded into a :class:`FileFingerprint` content
#: hash — bounded, so fingerprinting a multi-GB file stays O(1)
FINGERPRINT_REGION = 64 << 10

#: timestamp-granularity window of the racily-clean rule
#: (:meth:`FileFingerprint.check`): a file whose mtime or ctime lies within
#: this many nanoseconds of the moment its content was last verified may be
#: rewritten again under the same timestamps, so only its bytes can say it
#: did not change. Two seconds covers the coarsest filesystem clocks in use
#: (FAT stores even seconds; ext3 and HFS+ whole seconds; ext4, XFS, Btrfs,
#: tmpfs, APFS and NTFS stamp nanoseconds from a kernel clock that ticks
#: every few milliseconds).
RACY_WINDOW_NS = 2_000_000_000

#: :meth:`FileFingerprint.check` verdicts for an unchanged file
FRESH_BY_STAT = "stat"
FRESH_BY_HASH = "hash"

#: positional fetches (:func:`read_spans`) read neighbouring spans with one
#: call when the bytes between them are fewer than this: a gap under a page
#: costs less to read through than a second seek + read. A run stops growing
#: at ``RUN_CAP_BYTES`` so a dense candidate list is read in bounded pieces.
RUN_GAP_BYTES = 4 << 10
RUN_CAP_BYTES = 256 << 10


@dataclass
class IOStats:
    """Byte/seek/call counters for one file (or aggregated)."""

    bytes_read: int = 0
    read_calls: int = 0
    seeks: int = 0

    def add(self, other: "IOStats") -> None:
        self.bytes_read += other.bytes_read
        self.read_calls += other.read_calls
        self.seeks += other.seeks


def _hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _region_hash(fh, offset: int, nbytes: int) -> str:
    fh.seek(offset)
    return _hash(fh.read(nbytes))


def _stat_key(st) -> tuple:
    return (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


@dataclass
class FileFingerprint:
    """Identity of a file's content, and when that content was verified.

    ViDa handles in-place updates by dropping (or delta-extending)
    auxiliary structures whose underlying file changed (paper Section
    2.1); a fingerprint mismatch is the trigger. The stat tuple ``(size,
    mtime_ns, ctime_ns, ino)`` decides: ``ctime`` moves on every write and
    on every ``utime``, so a rewrite whose mtime was restored still shows,
    and ``ino`` catches a rename over the file. Bounded blake2b hashes of
    the file's head and tail (``FINGERPRINT_REGION`` bytes each) settle the
    one case stat cannot — a rewrite within the filesystem's timestamp
    granularity of the last verification (:meth:`check`) — and serve append
    classification (:meth:`successor`), together with whether the file
    ends in a newline (its last record was complete).

    ``verified_ns`` — the wall-clock time the content was last read or
    confirmed — is bookkeeping, not identity: it takes no part in equality.
    """

    size: int
    mtime_ns: int
    ctime_ns: int = 0
    ino: int = 0
    head_hash: str = ""
    tail_hash: str = ""
    ends_nl: bool = False
    verified_ns: int = field(default=0, compare=False)

    @staticmethod
    def of(path: str | os.PathLike) -> "FileFingerprint":
        with open(path, "rb") as fh:
            return FileFingerprint._read(fh)[0]

    @staticmethod
    def _read(fh) -> "tuple[FileFingerprint, bytes]":
        """Fingerprint of the open file, plus its head region's bytes. The
        verification time is taken before the stat, so it never postdates
        the bytes it vouches for."""
        verified_ns = time.time_ns()
        st = os.fstat(fh.fileno())
        size = st.st_size
        fh.seek(0)
        head = fh.read(min(size, FINGERPRINT_REGION))
        head_hash = _hash(head)
        tail_lo = max(0, size - FINGERPRINT_REGION)
        # a file that fits the region has one region, not two
        tail_hash = _region_hash(fh, tail_lo, size - tail_lo) if tail_lo \
            else head_hash
        ends_nl = False
        if size:
            fh.seek(size - 1)
            ends_nl = fh.read(1) == b"\n"
        return (FileFingerprint(size, st.st_mtime_ns, st.st_ctime_ns,
                                st.st_ino, head_hash, tail_hash, ends_nl,
                                verified_ns), head)

    def _stat_key(self) -> tuple:
        return (self.size, self.mtime_ns, self.ctime_ns, self.ino)

    def stat_matches(self, path: str | os.PathLike) -> bool:
        """Stat-tuple comparison (no content read) — the mid-scan adoption
        gate uses it to drop partials of a file that visibly changed while
        the scan ran."""
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return False
        return _stat_key(st) == self._stat_key()

    def check(self, path: str | os.PathLike) -> str | None:
        """Freshness verdict: ``None`` when the file changed, else how that
        was decided — :data:`FRESH_BY_STAT` or :data:`FRESH_BY_HASH`.

        A different stat tuple is a change. An equal one is trusted unless
        the file is *racily clean* (git's index rule): its mtime or ctime
        lies within :data:`RACY_WINDOW_NS` of the last verification, so a
        rewrite right after it could carry the very same timestamps. Only
        then are head and tail hashed; a confirmation moves the
        verification time forward, and once it lands outside the window
        stat alone decides from then on.
        """
        try:
            st = os.stat(path)
            if _stat_key(st) != self._stat_key():
                return None
            if max(st.st_mtime_ns, st.st_ctime_ns) \
                    < self.verified_ns - RACY_WINDOW_NS:
                return FRESH_BY_STAT
            now = FileFingerprint.of(path)
        except FileNotFoundError:
            return None
        if now != self:
            return None
        # racing checkers may each confirm; the latest confirmation wins
        self.verified_ns = max(self.verified_ns, now.verified_ns)
        return FRESH_BY_HASH

    def successor(self, path: str | os.PathLike) -> "tuple[FileFingerprint, bool]":
        """Fingerprint of the file now at ``path``, and whether this
        fingerprint's content survives as a proper byte-prefix of it — the
        append-classification rule, verified by re-hashing the regions this
        fingerprint hashed over the file's *current* bytes at the old
        offsets. One open; the shared head bytes are read once and, when
        both heads span the full region, hashed once."""
        with open(path, "rb") as fh:
            new, head = FileFingerprint._read(fh)
            if new.size <= self.size:
                return new, False
            old_head = min(self.size, FINGERPRINT_REGION)
            head_hash = new.head_hash if old_head == len(head) \
                else _hash(head[:old_head])
            if head_hash != self.head_hash:
                return new, False
            tail_lo = max(0, self.size - FINGERPRINT_REGION)
            return new, _region_hash(fh, tail_lo, self.size - tail_lo) \
                == self.tail_hash


class RawFile:
    """A byte-oriented file handle with read/seek accounting.

    Not thread-safe; one instance per scan. Supports the context-manager
    protocol. ``device`` (optional) is charged simulated latency/energy.
    """

    def __init__(self, path: str | os.PathLike, device: StorageDevice | None = None):
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        self.stats = IOStats()
        self.device = device
        self._pos = 0

    def __enter__(self) -> "RawFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @property
    def size(self) -> int:
        return os.fstat(self._fh.fileno()).st_size

    def seek(self, offset: int) -> None:
        if offset != self._pos:
            self.stats.seeks += 1
        self._fh.seek(offset)
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def read(self, nbytes: int = -1) -> bytes:
        data = self._fh.read(nbytes)
        self.stats.bytes_read += len(data)
        self.stats.read_calls += 1
        if self.device is not None:
            self.device.read(len(data), offset=self._pos)
        self._pos += len(data)
        return data

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """Positioned read (seek + read), the access pattern of positional maps."""
        self.seek(offset)
        return self.read(nbytes)

    def iter_lines(self, chunk_size: int = 1 << 20):
        """Yield ``(start_offset, line_bytes)`` pairs, newline stripped.

        Reads in large chunks (sequential pattern); offsets are byte
        positions of each line start, suitable for positional maps.
        """
        offset = 0
        carry = b""
        self.seek(0)
        while True:
            chunk = self.read(chunk_size)
            if not chunk:
                break
            data = carry + chunk
            lines = data.split(b"\n")
            carry = lines.pop()
            for line in lines:
                yield offset, line
                offset += len(line) + 1
        if carry:
            yield offset, carry


def read_spans(raw: RawFile, spans):
    """Yield the bytes of each ``(start, end)`` span, in the order given.

    The positional access pattern — index candidates, push-down survivors'
    objects — is many short ascending reads. Spans whose gap to the previous
    one is under ``RUN_GAP_BYTES`` join its *run* and share one ``read_at``
    (the gap bytes are read and dropped); a run is cut at ``RUN_CAP_BYTES``.
    A sparse probe therefore reads its own spans plus sub-constant gaps,
    and one run's bytes are all that is held at a time. Spans that step
    backwards simply start a new run.
    """
    i, n = 0, len(spans)
    while i < n:
        base, end = spans[i]
        j = i + 1
        while j < n:
            start, stop = spans[j]
            if not 0 <= start - end < RUN_GAP_BYTES \
                    or stop - base > RUN_CAP_BYTES:
                break
            end = stop
            j += 1
        data = raw.read_at(base, end - base)
        for start, stop in spans[i:j]:
            yield data[start - base:stop - base]
        i = j


def file_size(path: str | os.PathLike) -> int:
    """Size of ``path`` in bytes (convenience for benchmark reporting)."""
    return os.stat(path).st_size
