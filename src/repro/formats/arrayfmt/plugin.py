"""Binary array format: a ROOT/FITS/NetCDF-style scientific container.

The paper's running description example (§3.1) is an array file::

    Array(Dim(i, int), Dim(j, int), Att(val))
    val = Record(Att(elevation, float), Att(temperature, float))

This module defines a self-describing binary container ("VARR") holding one
such dense, row-major array of fixed-width records, and a plugin exposing
the access units the paper enumerates: single **element**, matrix **row**,
matrix **column**, and **n×m chunk**.

File layout::

    magic 'VARR' | version u16 | rank u16 | dim sizes u32[rank]
    | nfields u16 | (name_len u8, name, type_code u8)[nfields]
    | payload: row-major elements, fields packed in declared order

Type codes: 0 = int64, 1 = float64, 2 = bool(1 byte).
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

from ...errors import DataFormatError
from ...mcc import types as T
from ...storage.io import RawFile

MAGIC = b"VARR"
VERSION = 1

_TYPE_CODES = {"int": 0, "float": 1, "bool": 2}
_CODE_TYPES = {v: k for k, v in _TYPE_CODES.items()}
_TYPE_STRUCT = {"int": struct.Struct("<q"), "float": struct.Struct("<d"),
                "bool": struct.Struct("<?")}
_PRIM = {"int": T.INT, "float": T.FLOAT, "bool": T.BOOL}


@dataclass(frozen=True)
class ArrayHeader:
    dims: tuple[int, ...]
    fields: tuple[tuple[str, str], ...]  # (name, type-name)
    payload_offset: int

    @property
    def element_size(self) -> int:
        return sum(_TYPE_STRUCT[t].size for _n, t in self.fields)

    @property
    def element_count(self) -> int:
        count = 1
        for d in self.dims:
            count *= d
        return count


def write_array(
    path: str | os.PathLike,
    dims: Sequence[int],
    fields: Sequence[tuple[str, str]],
    values: Iterator[tuple] | Sequence[tuple],
) -> int:
    """Write a dense array file; ``values`` yields one tuple per element in
    row-major order. Returns bytes written."""
    for _name, tname in fields:
        if tname not in _TYPE_CODES:
            raise DataFormatError(f"unsupported array field type {tname!r}")
    header = bytearray()
    header += MAGIC
    header += struct.pack("<HH", VERSION, len(dims))
    for d in dims:
        header += struct.pack("<I", d)
    header += struct.pack("<H", len(fields))
    for name, tname in fields:
        raw = name.encode("utf-8")
        header += struct.pack("<B", len(raw)) + raw + struct.pack("<B", _TYPE_CODES[tname])
    expected = 1
    for d in dims:
        expected *= d
    structs = [_TYPE_STRUCT[t] for _n, t in fields]
    written = 0
    count = 0
    with open(path, "wb") as fh:
        fh.write(header)
        written += len(header)
        for tup in values:
            if len(tup) != len(fields):
                raise DataFormatError(
                    f"element {count}: expected {len(fields)} fields, got {len(tup)}"
                )
            for st, v in zip(structs, tup):
                fh.write(st.pack(v))
            written += sum(st.size for st in structs)
            count += 1
    if count != expected:
        raise DataFormatError(f"wrote {count} elements, dims require {expected}")
    return written


def read_header(path: str | os.PathLike) -> ArrayHeader:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: not a VARR file (magic {magic!r})")
        version, rank = struct.unpack("<HH", fh.read(4))
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported VARR version {version}")
        dims = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(rank))
        (nfields,) = struct.unpack("<H", fh.read(2))
        fields = []
        for _ in range(nfields):
            (nlen,) = struct.unpack("<B", fh.read(1))
            name = fh.read(nlen).decode("utf-8")
            (code,) = struct.unpack("<B", fh.read(1))
            fields.append((name, _CODE_TYPES[code]))
        return ArrayHeader(dims, tuple(fields), fh.tell())


class ArraySource:
    """One VARR file exposed as a dimensioned array source."""

    format_name = "array"

    def __init__(self, path: str | os.PathLike, dim_names: Sequence[str] | None = None):
        self.path = os.fspath(path)
        self.header = read_header(self.path)
        self.dim_names = list(dim_names) if dim_names else [
            f"d{i}" for i in range(len(self.header.dims))
        ]
        if len(self.dim_names) != len(self.header.dims):
            raise DataFormatError(
                f"{self.path}: {len(self.header.dims)} dims but "
                f"{len(self.dim_names)} dim names"
            )
        self._structs = [_TYPE_STRUCT[t] for _n, t in self.header.fields]
        self._field_offsets: list[int] = []
        pos = 0
        for st in self._structs:
            self._field_offsets.append(pos)
            pos += st.size
        # one fused struct decoding a whole element; standard ('<') sizes
        # have no padding, so iter_unpack walks the payload element-by-element
        _CODES = {"int": "q", "float": "d", "bool": "?"}
        self._element_struct = struct.Struct(
            "<" + "".join(_CODES[t] for _n, t in self.header.fields)
        )

    # -- schema ---------------------------------------------------------------

    def schema(self) -> T.ArrayType:
        dims = tuple(T.Dim(n, T.INT) for n in self.dim_names)
        elem = T.RecordType(tuple((n, _PRIM[t]) for n, t in self.header.fields))
        return T.ArrayType(dims, elem)

    def element_type(self) -> T.RecordType:
        """Iteration binds records of (dim coords..., field values...)."""
        fields = tuple((n, T.INT) for n in self.dim_names)
        fields += tuple((n, _PRIM[t]) for n, t in self.header.fields)
        return T.RecordType(fields)

    # -- offsets ---------------------------------------------------------------

    def _linear_index(self, coords: Sequence[int]) -> int:
        dims = self.header.dims
        if len(coords) != len(dims):
            raise DataFormatError(
                f"rank-{len(dims)} array indexed with {len(coords)} coords"
            )
        idx = 0
        for c, d in zip(coords, dims):
            if not 0 <= c < d:
                raise DataFormatError(f"index {c} out of bounds for dim of size {d}")
            idx = idx * d + c
        return idx

    def element_offset(self, coords: Sequence[int]) -> int:
        return self.header.payload_offset + self._linear_index(coords) * self.header.element_size

    # -- access paths (units: element / row / column / chunk) -----------------

    def read_element(self, coords: Sequence[int], device=None) -> tuple:
        with RawFile(self.path, device=device) as raw:
            payload = raw.read_at(self.element_offset(coords), self.header.element_size)
        return self._unpack(payload, 0)

    def _unpack(self, data: bytes, offset: int) -> tuple:
        return tuple(
            st.unpack_from(data, offset + off)[0]
            for st, off in zip(self._structs, self._field_offsets)
        )

    def scan(self, device=None) -> Iterator[tuple]:
        """Row-major full scan yielding (coords..., fields...) tuples: the
        element-at-a-time view of :meth:`scan_chunks`."""
        for chunk in self.scan_chunks(device=device):
            yield from chunk.iter_rows()

    def scan_splits(self, dop: int) -> list:
        """Independently scannable morsels: linear element ranges.

        Fixed-width elements make the split exact — a worker seeks straight
        to ``payload_offset + lo × element_size``.
        """
        from ...core.chunk import split_ranges

        return split_ranges(self.header.element_count, dop, "elements")

    def scan_batches(self, batch_size: int = 1024, device=None,
                     element_range: tuple[int, int] | None = None) -> Iterator[list[tuple]]:
        """Row-major scan decoding ``batch_size`` elements per read.

        Each yielded batch is a list of ``(coords..., fields...)`` tuples;
        the fused element struct's ``iter_unpack`` decodes the whole batch
        at C speed instead of one ``read``+unpack round-trip per element.
        ``element_range`` restricts the pass to elements ``[lo, hi)``.
        """
        esize = self.header.element_size
        dims = self.header.dims
        lo, hi = element_range if element_range is not None \
            else (0, self.header.element_count)
        hi = min(hi, self.header.element_count)
        if lo >= hi:
            return
        remaining = hi - lo
        if lo and dims:
            # start the (C-speed) coordinate product at lo's first-dim
            # block and discard only the within-block prefix — never O(lo)
            stride0 = 1
            for d in dims[1:]:
                stride0 *= d
            first = lo // stride0
            coords_iter = itertools.product(
                range(first, dims[0]), *(range(d) for d in dims[1:])
            )
            coords_iter = itertools.islice(coords_iter, lo - first * stride0,
                                           None)
        else:
            coords_iter = itertools.product(*(range(d) for d in dims))
        unpack_all = self._element_struct.iter_unpack
        with RawFile(self.path, device=device) as raw:
            raw.seek(self.header.payload_offset + lo * esize)
            while remaining > 0:
                n = min(batch_size, remaining)
                payload = raw.read(esize * n)
                if len(payload) != esize * n:
                    raise DataFormatError(f"{self.path}: truncated array payload")
                yield [c + v for v, c in zip(unpack_all(payload), coords_iter)]
                remaining -= n

    def scan_chunks(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        device=None,
        whole: bool = False,
        split=None,
        byproducts=None,
    ):
        """Batched scan yielding :class:`~repro.core.chunk.Chunk` objects.

        ``fields`` may name dimensions or element attributes; ``whole``
        additionally materialises full record dicts on ``chunk.whole``.
        ``split`` restricts the scan to one element-range morsel from
        :meth:`scan_splits`.

        ``byproducts`` (a :class:`~repro.core.byproducts.ScanByproducts`)
        is advanced once per batch and handed its ``wanted`` components.
        """
        from ...core.chunk import Chunk

        element_range = None
        if split is not None and split.kind != "all":
            if split.kind != "elements":
                raise DataFormatError(
                    f"{self.path}: array scans cannot interpret a "
                    f"{split.kind!r} morsel"
                )
            element_range = (split.lo, split.hi)
        names = list(self.dim_names) + [n for n, _t in self.header.fields]
        field_list = list(fields) if fields is not None else names
        for f in field_list:
            if f not in names:
                raise DataFormatError(
                    f"{self.path}: array source has no component {f!r}"
                )
        picks = [names.index(f) for f in field_list]
        wanted = [(f, names.index(f)) for f in byproducts.wanted
                  if f in names] if byproducts is not None else []
        row = element_range[0] if element_range is not None else 0
        for batch in self.scan_batches(batch_size, device=device,
                                       element_range=element_range):
            if byproducts is not None:
                byproducts.advance(row, len(batch))
                byproducts.record(row, {
                    f: [t[i] for t in batch] for f, i in wanted})
                row += len(batch)
            if not picks and not whole:
                yield Chunk((), (), len(batch))
                continue
            columns = [[t[i] for t in batch] for i in picks]
            whole_rows = [dict(zip(names, t)) for t in batch] if whole else None
            yield Chunk.from_columns(field_list, columns, whole=whole_rows)

    def read_row(self, i: int, device=None) -> list[tuple]:
        """Unit 'row' of a rank-2 array: all elements with first coord = i."""
        dims = self.header.dims
        if len(dims) != 2:
            raise DataFormatError("read_row requires a rank-2 array")
        esize = self.header.element_size
        with RawFile(self.path, device=device) as raw:
            payload = raw.read_at(self.element_offset((i, 0)), esize * dims[1])
        return [self._unpack(payload, j * esize) for j in range(dims[1])]

    def read_column(self, j: int, device=None) -> list[tuple]:
        """Unit 'column' of a rank-2 array (strided positioned reads)."""
        dims = self.header.dims
        if len(dims) != 2:
            raise DataFormatError("read_column requires a rank-2 array")
        esize = self.header.element_size
        out = []
        with RawFile(self.path, device=device) as raw:
            for i in range(dims[0]):
                payload = raw.read_at(self.element_offset((i, j)), esize)
                out.append(self._unpack(payload, 0))
        return out

    def read_chunk(self, i0: int, j0: int, n: int, m: int, device=None) -> list[list[tuple]]:
        """Unit 'n×m chunk' of a rank-2 array (array-database style)."""
        dims = self.header.dims
        if len(dims) != 2:
            raise DataFormatError("read_chunk requires a rank-2 array")
        if i0 + n > dims[0] or j0 + m > dims[1]:
            raise DataFormatError("chunk exceeds array bounds")
        esize = self.header.element_size
        out: list[list[tuple]] = []
        with RawFile(self.path, device=device) as raw:
            for i in range(i0, i0 + n):
                payload = raw.read_at(self.element_offset((i, j0)), esize * m)
                out.append([self._unpack(payload, k * esize) for k in range(m)])
        return out
