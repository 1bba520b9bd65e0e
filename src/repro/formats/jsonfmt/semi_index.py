"""Structural semi-index for JSON files (paper §3.1/§6; Ottaviano & Grossi).

ViDa "maintains positional information such as starting and ending positions
of JSON objects and arrays". This index records, for every *top-level*
object in a file (newline-delimited JSON or a single top-level JSON array),
its ``(start, end)`` byte range — enough to:

- jump straight to the i-th object (positional access path),
- carry cheap ``(start, end)`` pairs through query plans instead of parsed
  objects (Figure 4 layout (d), the cache-pollution avoidance device), and
- re-assemble qualifying objects only at projection time.

The boundary scanner (:func:`iter_spans`) is one bytes regex that skips
whole runs of non-structural text and complete strings at C speed and stops
at each brace outside a string; it never builds parsed objects. A serial
cold scan does not even run it: the index is born from the first parse
(:meth:`JSONSource.scan_object_chunks`), which records where the decoder
stopped after each object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ...errors import DataFormatError

_STRING_TAIL = rb'[^"\\]*(?:\\.[^"\\]*)*"'  # what follows an opening quote
#: at most one structural byte per match: runs of non-structural bytes and
#: complete strings, then ``{`` (1), ``}`` (2) or a ``"`` that no closing
#: quote follows in this buffer (3). The run is bounded so that a match
#: never carries more backtracking state than 512 iterations' worth (an
#: unbounded ``*`` over a group degrades badly past ~10^6 iterations); a
#: match that ends on the bound or at the end of the buffer has no group.
_STRUCTURAL = re.compile(
    rb'(?:[^"{}]+|"' + _STRING_TAIL + rb'){0,512}'
    rb'(?:(\{)|(\})|("(?!' + _STRING_TAIL + rb')))?', re.DOTALL)


@dataclass(frozen=True)
class ObjectSpan:
    """Byte range of one top-level JSON object: ``data[start:end]``."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


def iter_spans(chunks: Iterable[bytes], base: int = 0) -> Iterator[ObjectSpan]:
    """Spans of the top-level objects in a byte stream given as consecutive
    ``chunks`` whose first byte sits at file offset ``base``.

    Handles both NDJSON (objects at depth 0) and a single enclosing array
    (brackets are not structural: only braces outside strings count). A
    string cut by a chunk boundary is carried into the next chunk. Raises
    :class:`DataFormatError` on an unbalanced ``}`` and, once the stream
    ends, on an open object or string (truncated JSON).
    """
    depth = 0
    start = -1
    carry = b""
    for chunk in chunks:
        buf = carry + chunk if carry else chunk
        carry = b""
        for m in _STRUCTURAL.finditer(buf):
            kind = m.lastindex
            if kind == 1:
                if depth == 0:
                    start = base + m.end() - 1
                depth += 1
            elif kind == 2:
                depth -= 1
                if depth < 0:
                    raise DataFormatError(
                        f"unbalanced '}}' at byte {base + m.end() - 1}")
                if depth == 0:
                    yield ObjectSpan(start, base + m.end())
            elif kind == 3:
                carry = buf[m.end() - 1:]
                break
        base += len(buf) - len(carry)
    if depth != 0 or carry:
        raise DataFormatError("truncated JSON: unbalanced braces or open string")


class JSONSemiIndex:
    """Positions of all top-level objects in a JSON file."""

    def __init__(self, spans: list[ObjectSpan]):
        self.spans = spans

    def __len__(self) -> int:
        return len(self.spans)

    def __getitem__(self, i: int) -> ObjectSpan:
        return self.spans[i]

    def __iter__(self):
        return iter(self.spans)

    def memory_bytes(self) -> int:
        return len(self.spans) * 16

    @staticmethod
    def build(data: bytes, base: int = 0) -> "JSONSemiIndex":
        """Boundary-scan raw bytes that start at file offset ``base``."""
        return JSONSemiIndex(list(iter_spans((data,), base)))

    @staticmethod
    def build_from_file(path: str, chunk_size: int = 1 << 22) -> "JSONSemiIndex":
        """Build from a file without holding it all in memory (chunked scan)."""
        with open(path, "rb") as fh:
            return JSONSemiIndex(list(iter_spans(
                iter(lambda: fh.read(chunk_size), b""))))
