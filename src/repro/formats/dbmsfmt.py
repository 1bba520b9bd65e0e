"""A conventional DBMS as a ViDa data source (paper §2.1).

"The 'capabilities' exposed by each underlying data source dictate the
efficiency of the generated code. For example, in the case that ViDa treats
a conventional DBMS as a data source, ViDa's access paths can utilize
existing indexes to speed-up queries to this data source."

:class:`DBMSSource` adapts one table/collection of the warehouse engines
(row store, column store, document store) into the plugin interface ViDa
scans expect, advertising the store's indexes so the planner can push
equality predicates down into an index lookup instead of a full scan.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import DataFormatError
from ..mcc import types as T
from ..warehouse.colstore import ColStore
from ..warehouse.docstore import DocStore
from ..warehouse.rowstore import RowStore

_PRIM = {"int": T.INT, "float": T.FLOAT, "bool": T.BOOL, "string": T.STRING}


class DBMSSource:
    """One store table/collection exposed as a ViDa source."""

    format_name = "dbms"

    def __init__(self, store: RowStore | ColStore | DocStore, table: str):
        self.store = store
        self.table = table
        if isinstance(store, (RowStore, ColStore)):
            meta = store.tables.get(table) if isinstance(store, RowStore) else None
            if isinstance(store, RowStore):
                if meta is None:
                    raise DataFormatError(f"row store has no table {table!r}")
                self.columns = list(meta.columns)
                self.types = list(meta.types)
            else:
                ctable = store.tables.get(table)
                if ctable is None:
                    raise DataFormatError(f"column store has no table {table!r}")
                self.columns = list(ctable.order)
                self.types = [ctable.columns[c].type for c in ctable.order]
        elif isinstance(store, DocStore):
            if table not in store.collections:
                raise DataFormatError(f"document store has no collection {table!r}")
            self.columns = []
            self.types = []
        else:
            raise DataFormatError(
                f"unsupported store type {type(store).__name__} for a DBMS source"
            )

    # -- schema ----------------------------------------------------------------

    def element_type(self) -> T.Type:
        if isinstance(self.store, DocStore):
            elem: T.Type = T.ANY
            for i, doc in enumerate(self.store.find(self.table)):
                inferred = T.type_of_python_value(doc)
                unified = T.unify(elem, inferred)
                elem = unified if unified is not None else T.ANY
                if i >= 20:
                    break
            return elem
        return T.RecordType(tuple(
            (c, _PRIM.get(t, T.ANY)) for c, t in zip(self.columns, self.types)
        ))

    def schema(self) -> T.CollectionType:
        return T.bag_of(self.element_type())

    # -- capabilities -----------------------------------------------------------

    @property
    def nested(self) -> bool:
        """Document stores hand out nested records: scans bind them whole,
        so path navigation works on the document itself."""
        return isinstance(self.store, DocStore)

    def indexed_fields(self) -> tuple[str, ...]:
        """Fields the underlying store can look up without a scan."""
        if isinstance(self.store, DocStore):
            return tuple(sorted(self.store.collections[self.table].indexes))
        return ()

    def row_count(self) -> int:
        if isinstance(self.store, DocStore):
            return self.store.count(self.table)
        return self.store.row_count(self.table)

    # -- access paths --------------------------------------------------------------

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Full scan yielding dict records of the requested fields."""
        if isinstance(self.store, DocStore):
            yield from self.store.iter_dicts(self.table, list(fields) if fields else None)
            return
        yield from self.store.iter_dicts(self.table, list(fields) if fields else None)

    def scan_chunks(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        whole: bool = False,
    ):
        """Batched scan yielding :class:`~repro.core.chunk.Chunk` objects.

        The stores themselves hand records over one at a time; chunking at
        the source boundary still amortises the plugin → runtime → engine
        handoff, so every registered source speaks the batch protocol.
        Tabular stores columnarise the requested ``fields`` per batch
        (tuples straight off ``store.scan``, no dict round-trip); document
        stores carry whole nested documents on ``chunk.whole``.
        """
        from ..core.chunk import Chunk, chunked

        if isinstance(self.store, DocStore) or whole or not fields:
            names = list(fields) if fields else None
            for batch in chunked(self.scan(names), batch_size):
                yield Chunk((), (), len(batch), whole=batch)
            return
        field_list = list(fields)
        for batch in chunked(self.store.scan(self.table, field_list), batch_size):
            columns = [[t[i] for t in batch] for i in range(len(field_list))]
            yield Chunk.from_columns(field_list, columns)

    def index_lookup(self, field: str, value) -> Iterator[dict]:
        """Index access path: only documents/rows with ``field == value``."""
        if isinstance(self.store, DocStore):
            if field not in self.store.collections[self.table].indexes:
                raise DataFormatError(
                    f"collection {self.table!r} has no index on {field!r}"
                )
            yield from self.store.find(self.table, eq=(field, value))
            return
        raise DataFormatError(
            f"store {type(self.store).__name__} exposes no index on {field!r}"
        )
