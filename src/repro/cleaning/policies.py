"""Data-cleaning policies for raw scans (paper §7, "Data Cleaning").

"A conservative strategy starts by identifying entries whose ingestion
triggers errors during the first access to raw data; then, the code
generated for subsequent queries can explicitly skip processing of the
problematic entries. … different policies can be implemented for wrong
values detected during scanning; options include skipping the invalid
entry, or transforming it to the 'nearest acceptable value' using a
distance-based metric such as Hamming distance."

Policies implemented:

- :class:`SkipPolicy` — drop rows whose requested fields fail conversion,
  remembering row numbers so later scans skip them outright.
- :class:`RaisePolicy` — fail loudly (the "no cleaning" contract).
- :class:`NullPolicy` — replace unparseable values with null.
- :class:`DictionaryPolicy` — repair string values to the nearest entry of a
  per-column dictionary of valid values (Hamming distance for equal-length
  candidates, with a prefix/length fallback otherwise), and clamp numeric
  values into a per-column acceptable range.

Each policy implements ``repair(plugin, row, cells, cols) -> tuple | None``
(None = skip the row). The returned values align with ``cols``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CleaningError


def hamming(a: str, b: str) -> int:
    """Hamming distance for equal-length strings (paper's suggested metric).

    >>> hamming('karolin', 'kathrin')
    3
    """
    if len(a) != len(b):
        raise ValueError("hamming distance requires equal-length strings")
    return sum(1 for x, y in zip(a, b) if x != y)


def nearest_value(value: str, candidates: list[str]) -> str | None:
    """Nearest candidate by Hamming distance; prefix-overlap fallback for
    unequal lengths. None when there are no candidates."""
    if not candidates:
        return None
    best = None
    best_score = None
    for cand in candidates:
        if len(cand) == len(value):
            score = hamming(value, cand)
        else:
            common = sum(1 for x, y in zip(value, cand) if x == y)
            score = (max(len(value), len(cand)) - common) + 0.5
        if best_score is None or score < best_score:
            best = cand
            best_score = score
    return best


class CleaningPolicy:
    """Base: converts the requested cells, dispatching failures per policy."""

    #: when True, the engine routes *every* row through :meth:`repair`
    #: (needed by policies that validate successfully-parsed values, e.g.
    #: dictionary membership), not just rows whose conversion failed.
    validate_always = False

    def repair(self, plugin, row: int, cells: list, cols: list[int]):
        values = []
        for col in cols:
            text = cells[col] if col < len(cells) else ""
            try:
                conv = plugin.converter(col)
                values.append(conv(text))
            except Exception as exc:
                outcome = self.on_error(plugin, row, col, text, exc)
                if outcome is _SKIP:
                    return None
                values.append(outcome)
        return tuple(values)

    def on_error(self, plugin, row: int, col: int, text: str, exc: Exception):
        raise NotImplementedError


_SKIP = object()


@dataclass
class SkipPolicy(CleaningPolicy):
    """Skip dirty rows; remembers them so repeat scans stay consistent."""

    skipped_rows: set[int] = field(default_factory=set)

    def on_error(self, plugin, row, col, text, exc):
        self.skipped_rows.add(row)
        return _SKIP


class RaisePolicy(CleaningPolicy):
    """Surface the first dirty value as a :class:`CleaningError`."""

    def on_error(self, plugin, row, col, text, exc):
        raise CleaningError(
            f"dirty value {text!r}: {exc}", row=row,
            field=plugin.columns[col] if col < len(plugin.columns) else None,
        )


class NullPolicy(CleaningPolicy):
    """Replace unparseable values with null (SQL-style permissiveness)."""

    def on_error(self, plugin, row, col, text, exc):
        return None


@dataclass
class DictionaryPolicy(CleaningPolicy):
    """Repair values using per-column domain knowledge (paper §7).

    Attributes:
        dictionaries: column name → list of valid string values; dirty
            strings are replaced by the nearest valid value.
        ranges: column name → (lo, hi) acceptable numeric range; parseable
            but out-of-range numbers are clamped; unparseable numbers become
            the range midpoint.
        fallback_skip: when no domain knowledge covers the column, skip the
            row (True) or null the value (False).
    """

    dictionaries: dict[str, list[str]] = field(default_factory=dict)
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    fallback_skip: bool = True
    repairs: int = 0

    #: dictionary membership must be checked even for parseable values
    validate_always = True

    def repair(self, plugin, row: int, cells: list, cols: list[int]):
        values = []
        for col in cols:
            text = cells[col] if col < len(cells) else ""
            name = plugin.columns[col]
            try:
                value = plugin.converter(col)(text)
            except Exception:
                value = self._repair_value(name, text)
                if value is _SKIP:
                    return None
                self.repairs += 1
            else:
                # parseable but invalid per the column's value dictionary
                valid = self.dictionaries.get(name)
                if valid is not None and isinstance(value, str) and value not in valid:
                    value = nearest_value(value, valid)
                    self.repairs += 1
            clamped = self._apply_range(name, value)
            if clamped != value and value is not None:
                self.repairs += 1
            values.append(clamped)
        return tuple(values)

    def _repair_value(self, name: str, text: str):
        if name in self.dictionaries:
            return nearest_value(text, self.dictionaries[name])
        if name in self.ranges:
            lo, hi = self.ranges[name]
            return (lo + hi) / 2
        return _SKIP if self.fallback_skip else None

    def _apply_range(self, name: str, value):
        if name in self.ranges and isinstance(value, (int, float)):
            lo, hi = self.ranges[name]
            if value < lo:
                return lo
            if value > hi:
                return hi
        return value

    def on_error(self, plugin, row, col, text, exc):  # pragma: no cover
        raise NotImplementedError("DictionaryPolicy overrides repair() directly")
