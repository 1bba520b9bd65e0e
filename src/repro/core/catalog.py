"""The ViDa catalog: registered raw sources and their descriptions.

"ViDa requires an elementary description of each data format. The equivalent
concept in a DBMS is a catalog containing the schema of each table"
(paper §3). The catalog owns the plugin instance for each source (which in
turn owns its auxiliary structures) and the
:class:`~repro.core.source_state.SourceState` holding everything else the
engine derives from it, tracks file fingerprints to detect in-place
updates, and exposes the type environment the type checker needs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import CatalogError
from ..formats import (
    ArraySource,
    CSVOptions,
    CSVSource,
    JSONSource,
    SourceDescription,
    XLSSource,
    learn_description,
)
from ..mcc import types as T
from ..storage.io import FileFingerprint
from .source_state import SourceState


@dataclass
class CatalogEntry:
    """One registered source: description + live plugin + fingerprint, and
    the :class:`SourceState` holding everything derived from it."""

    description: SourceDescription
    plugin: object
    fingerprint: FileFingerprint | None = None
    #: in-memory collections registered directly (no file behind them)
    data: list | None = None
    state: SourceState = field(init=False)

    def __post_init__(self):
        self.state = SourceState(self.plugin)

    @property
    def generation(self) -> int | None:
        """The live generation token: it moves whenever the backing file's
        fingerprint changes (``SourceState.drop`` / ``extend``)."""
        return self.state.generation

    @property
    def name(self) -> str:
        return self.description.name

    @property
    def format(self) -> str:
        return self.description.format

    def file_rows(self) -> int | None:
        """How many rows (top-level objects) the file holds, read off its
        complete positional map or semi-index; None while neither is built
        — this never reads the file."""
        if self.format == "csv" and self.plugin.posmap.complete:
            return len(self.plugin.posmap.row_offsets)
        if self.format == "json" and self.plugin.has_semi_index():
            return self.plugin.object_count()
        return None


class Catalog:
    """Name → :class:`CatalogEntry` registry with update detection.

    Safe to share across sessions/threads: registration and name lookups
    serialise on a registry lock, a leaf under each entry's
    ``state.lock`` (which makes generation moves and by-product adoption
    mutually exclusive — the atomic adopt-or-discard gate every concurrent
    merge point goes through).
    """

    def __init__(self, cache=None):
        #: the DataCache holding the entries' cache entries (dropped with a
        #: registration that ends)
        self.cache = cache
        self._entries: dict[str, CatalogEntry] = {}
        self._lock = threading.Lock()
        #: bumps on any shape change (register/deregister) or generation
        #: bump — one component of the plan-cache epoch
        self.version = 0
        #: bumps on register/deregister only: what a SQL translation, which
        #: resolves columns against the schemas, was made under
        self.schema_version = 0

    # -- registration ---------------------------------------------------------

    def _check_free(self, name: str) -> None:
        if name in self._entries:
            raise CatalogError(f"source {name!r} is already registered")

    def _install(self, name: str, entry: CatalogEntry) -> CatalogEntry:
        """Atomically publish a built entry (plugin I/O stays outside the
        lock; the registration races of two tenants resolve to one error)."""
        with self._lock:
            if name in self._entries:
                raise CatalogError(f"source {name!r} is already registered")
            self._entries[name] = entry
            self.version += 1
            self.schema_version += 1
            return entry

    def register_csv(
        self,
        name: str,
        path: str | os.PathLike,
        delimiter: str = ",",
        header: bool = True,
        columns: Sequence[str] | None = None,
        types: Sequence[str] | None = None,
    ) -> CatalogEntry:
        """Register a CSV file as a bag-of-records source."""
        self._check_free(name)
        plugin = CSVSource(
            path, CSVOptions(delimiter=delimiter, header=header),
            columns=columns, types=types,
        )
        desc = SourceDescription(
            name=name, format="csv", schema=plugin.schema(), unit="row",
            access_paths=("sequential", "positional"), path=os.fspath(path),
            options={"delimiter": delimiter, "header": header},
        )
        entry = CatalogEntry(desc, plugin, FileFingerprint.of(path))
        return self._install(name, entry)

    def register_json(self, name: str, path: str | os.PathLike) -> CatalogEntry:
        """Register a JSON file (NDJSON or top-level array) as a source."""
        self._check_free(name)
        plugin = JSONSource(path)
        desc = SourceDescription(
            name=name, format="json", schema=plugin.schema(), unit="object",
            access_paths=("sequential", "positional"), path=os.fspath(path),
        )
        entry = CatalogEntry(desc, plugin, FileFingerprint.of(path))
        return self._install(name, entry)

    def register_array(
        self, name: str, path: str | os.PathLike, dim_names: Sequence[str] | None = None
    ) -> CatalogEntry:
        """Register a VARR binary array file as a dimensioned source."""
        self._check_free(name)
        plugin = ArraySource(path, dim_names)
        desc = SourceDescription(
            name=name, format="array", schema=plugin.schema(), unit="element",
            access_paths=("sequential", "positional"), path=os.fspath(path),
        )
        entry = CatalogEntry(desc, plugin, FileFingerprint.of(path))
        return self._install(name, entry)

    def register_xls(
        self, name: str, path: str | os.PathLike, sheet: str | None = None
    ) -> CatalogEntry:
        """Register one sheet of a VXLS workbook as a source."""
        self._check_free(name)
        plugin = XLSSource(path)
        sheet_name = sheet or plugin.sheet_names()[0]
        desc = SourceDescription(
            name=name, format="xls", schema=plugin.schema(sheet_name), unit="row",
            access_paths=("sequential",), path=os.fspath(path),
            options={"sheet": sheet_name},
        )
        entry = CatalogEntry(desc, plugin, FileFingerprint.of(path))
        return self._install(name, entry)

    def register_memory(
        self, name: str, data: Sequence, elem_type: T.Type | None = None
    ) -> CatalogEntry:
        """Register an in-memory collection (tests, intermediate results)."""
        self._check_free(name)
        data = list(data)
        if elem_type is None:
            elem_type = T.ANY
            for item in data[:50]:
                inferred = T.type_of_python_value(item)
                unified = T.unify(elem_type, inferred)
                elem_type = unified if unified is not None else T.ANY
        desc = SourceDescription(
            name=name, format="memory", schema=T.bag_of(elem_type), unit="element",
            access_paths=("sequential",),
        )
        entry = CatalogEntry(desc, None, None, data=data)
        return self._install(name, entry)

    def register_dbms(self, name: str, store, table: str) -> CatalogEntry:
        """Register a warehouse store's table/collection as a source.

        ViDa's access paths can then use the store's indexes (paper §2.1).
        """
        self._check_free(name)
        from ..formats.dbmsfmt import DBMSSource

        plugin = DBMSSource(store, table)
        desc = SourceDescription(
            name=name, format="dbms", schema=plugin.schema(), unit="tuple",
            access_paths=("sequential", "index") if plugin.indexed_fields()
            else ("sequential",),
            options={"table": table},
        )
        entry = CatalogEntry(desc, plugin, None)
        return self._install(name, entry)

    def register_auto(self, name: str, path: str | os.PathLike) -> CatalogEntry:
        """Register a file of unknown format via schema learning (§3.1)."""
        desc = learn_description(path, name)
        if desc.format == "csv":
            return self.register_csv(name, path, delimiter=desc.options["delimiter"])
        if desc.format == "json":
            return self.register_json(name, path)
        if desc.format == "array":
            return self.register_array(name, path)
        if desc.format == "xls":
            return self.register_xls(name, path, desc.options.get("sheet"))
        raise CatalogError(f"cannot auto-register format {desc.format!r}")

    def deregister(self, name: str) -> None:
        """End ``name``'s registration: unpublish it and drop its state, so
        a scan still running over it adopts nothing and a later registration
        of the name starts from nothing."""
        entry = self._entries.get(name)
        if entry is None:
            raise CatalogError(f"unknown source {name!r}")
        with entry.state.lock:
            with self._lock:
                if self._entries.get(name) is not entry:
                    raise CatalogError(f"unknown source {name!r}")
                del self._entries[name]
                self.version += 1
                self.schema_version += 1
            entry.state.drop(self.cache, end=True)

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> frozenset[str]:
        return frozenset(self._entries)

    def get(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(
                f"unknown source {name!r}; registered: {', '.join(sorted(self._entries))}"
            ) from None

    def type_env(self) -> dict[str, T.Type]:
        """Variable environment for the type checker (source name → schema)."""
        return {name: e.description.schema for name, e in self._entries.items()}

    # -- update detection ---------------------------------------------------------

    def bump_version(self) -> None:
        """Register a visible state change (a generation bump by
        :meth:`EngineContext.refresh_source`) so plan epochs move."""
        with self._lock:
            self.version += 1
