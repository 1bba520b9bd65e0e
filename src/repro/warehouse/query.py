"""Engine-neutral query specs + a hash-join runner for the baselines.

The Figure 5 experiment runs the *same* 150-query workload against ViDa and
against every warehouse configuration. ViDa takes comprehension text; the
baselines take these :class:`QuerySpec` objects — the neutral description a
BI tool would compile to either system. The runner implements the paper's
query template: conjunctive filters per dataset, equi-join on a shared key,
project 1–5 attributes.

Adapters wrap each engine's ``iter_dicts``; the integration layer (separate
module) wraps adapters of *different* systems with a mediation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..errors import WarehouseError
from .colstore import ColStore
from .docstore import DocStore
from .rowstore import RowStore

_OPS: dict[str, Callable] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
    "in": lambda a, b: a in b,
}


@dataclass(frozen=True)
class Filter:
    field: str
    op: str
    value: object

    def matches(self, record: dict) -> bool:
        return _OPS[self.op](record.get(self.field), self.value)


@dataclass(frozen=True)
class QuerySpec:
    """One workload query: filters per source, equi-join, projection.

    ``project`` entries are (source, field, alias). ``aggregate`` optionally
    folds the projected rows: (func, alias-of-projected-field) with func in
    count/sum/avg/min/max. ``distinct`` deduplicates projected records (used
    when a baseline's flattened storage introduces row-multiplicity the
    object model does not have).
    """

    sources: tuple[str, ...]
    filters: dict[str, tuple[Filter, ...]] = field(default_factory=dict)
    join_key: str = "id"
    project: tuple[tuple[str, str, str], ...] = ()
    aggregate: tuple[str, str] | None = None
    distinct: bool = False

    def fields_needed(self, source: str) -> list[str]:
        needed = {self.join_key} if len(self.sources) > 1 else set()
        for f in self.filters.get(source, ()):
            needed.add(f.field)
        for src, fieldname, _alias in self.project:
            if src == source:
                needed.add(fieldname)
        return sorted(needed)


class Adapter:
    """Engine adapter protocol: fetch dict-records of selected fields.

    ``fetch_filtered`` pushes conjunctive filters down to the engine; the
    default applies them row-at-a-time, engines override with native
    strategies (columnar selection, tuple-level tests before dict build).
    """

    def fetch(self, fields: Sequence[str]) -> Iterator[dict]:
        raise NotImplementedError

    def fetch_filtered(self, fields: Sequence[str],
                       filters: Sequence[Filter]) -> Iterator[dict]:
        for record in self.fetch(fields):
            if all(f.matches(record) for f in filters):
                yield record


@dataclass
class RowStoreAdapter(Adapter):
    store: RowStore
    table: str

    def fetch(self, fields):
        return self.store.iter_dicts(self.table, list(fields))

    def fetch_filtered(self, fields, filters):
        """Decode tuples, test before building dicts (Volcano-with-projection)."""
        names = list(fields)
        fset = list(filters)
        pos = {f: i for i, f in enumerate(names)}
        tests = [(pos[f.field], _OPS[f.op], f.value) for f in fset if f.field in pos]
        for tup in self.store.scan(self.table, names):
            ok = True
            for i, op, value in tests:
                if not op(tup[i], value):
                    ok = False
                    break
            if ok:
                yield dict(zip(names, tup))


@dataclass
class ColStoreAdapter(Adapter):
    store: ColStore
    table: str

    def fetch(self, fields):
        return self.store.iter_dicts(self.table, list(fields))

    def fetch_filtered(self, fields, filters):
        """Column-at-a-time selection: each filter narrows one selection
        vector of surviving row indexes; an empty vector short-circuits
        before any projection column is fetched, and only surviving rows
        are read off the projection columns (no ``range(row_count)``
        fallback when nothing filtered)."""
        names = list(fields)
        selection: list[int] | None = None
        for f in filters:
            column = self.store.column(self.table, f.field)
            op = _OPS[f.op]
            value = f.value
            if selection is None:
                selection = [i for i, v in enumerate(column) if op(v, value)]
            else:
                selection = [i for i in selection if op(column[i], value)]
            if not selection:
                return
        cols = [self.store.column(self.table, f) for f in names]
        if selection is not None:
            rows = (tuple(col[i] for col in cols) for i in selection)
        elif cols:
            rows = zip(*cols)
        else:
            rows = (() for _ in range(self.store.row_count(self.table)))
        for values in rows:
            yield dict(zip(names, values))


@dataclass
class DocStoreAdapter(Adapter):
    store: DocStore
    collection: str

    def fetch(self, fields):
        return self.store.iter_dicts(self.collection, list(fields))

    def fetch_filtered(self, fields, filters):
        """Decode each document once; filter on dotted paths, then project."""
        from ..formats.jsonfmt import get_path

        names = list(fields)
        fset = [(f.field, _OPS[f.op], f.value) for f in filters]
        for doc in self.store.find(self.collection):
            ok = True
            for path, op, value in fset:
                if not op(get_path(doc, path), value):
                    ok = False
                    break
            if ok:
                yield {f: get_path(doc, f) for f in names}


def run_spec(spec: QuerySpec, adapters: dict[str, Adapter]) -> list[dict] | dict:
    """Execute a spec: filtered scans → left-deep hash joins → projection."""
    missing = [s for s in spec.sources if s not in adapters]
    if missing:
        raise WarehouseError(f"no adapters for sources {missing}")

    current: list[dict] | None = None
    for source in spec.sources:
        filters = spec.filters.get(source, ())
        fields = spec.fields_needed(source)
        rows = list(adapters[source].fetch_filtered(fields, filters))
        tagged = [(source, r) for r in rows]
        if current is None:
            current = [dict(_prefix(source, r)) for r in rows]
        else:
            table: dict = {}
            for row in current:
                table.setdefault(row.get(spec.join_key), []).append(row)
            joined: list[dict] = []
            for source_name, record in tagged:
                for match in table.get(record.get(spec.join_key), ()):
                    merged = dict(match)
                    merged.update(_prefix(source_name, record))
                    merged[spec.join_key] = record.get(spec.join_key)
                    joined.append(merged)
            current = joined
    assert current is not None

    projected: list[dict] = []
    for row in current:
        out = {}
        for source, fieldname, alias in spec.project:
            key = f"{source}.{fieldname}" if len(spec.sources) > 1 else fieldname
            out[alias] = row.get(key, row.get(fieldname))
        projected.append(out)

    if spec.distinct:
        seen: set = set()
        unique: list[dict] = []
        for row in projected:
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        projected = unique

    if spec.aggregate is not None:
        func, alias = spec.aggregate
        values = [r.get(alias) for r in projected if r.get(alias) is not None]
        if func == "count":
            return {"count": len(projected)}
        if not values:
            return {func: None}
        if func == "sum":
            return {"sum": sum(values)}
        if func == "avg":
            return {"avg": sum(values) / len(values)}
        if func == "min":
            return {"min": min(values)}
        if func == "max":
            return {"max": max(values)}
        raise WarehouseError(f"unknown aggregate {func!r}")
    return projected


def _prefix(source: str, record: dict) -> dict:
    return {f"{source}.{k}": v for k, v in record.items()} | {
        k: v for k, v in record.items()
    }
