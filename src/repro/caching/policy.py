"""Cache admission & layout policy (paper §5, "Avoiding Cache Pollution").

Two decisions are made here, both called out explicitly by the paper:

1. **Admission / pollution avoidance** — "Large, complex objects (e.g., JSON
   deep hierarchies) materialized as the result of a projected attribute of
   a query will pollute ViDa's caches. By carrying only the starting and
   ending binary positions of large objects through query evaluation, ViDa
   can avoid these unnecessary costs." :meth:`AdmissionPolicy.admit_layout`
   demotes over-budget nested values to the ``positions`` layout.

2. **Materialisation layout choice** (Figure 4) — scalars cache columnar;
   nested values cache as objects when small, BSON when mid-sized (compact
   but still binary-navigable), positions when large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layouts import deep_bytes


@dataclass(frozen=True)
class AdmissionPolicy:
    """Thresholds controlling what enters the cache and in which layout.

    Attributes:
        max_entry_fraction: an entry may use at most this fraction of the
            total cache budget (bigger candidates are rejected or demoted).
        object_bytes_demote_bson: average per-element size above which parsed
            objects are stored as BSON instead of Python objects.
        object_bytes_demote_positions: average per-element size above which
            even BSON is considered pollution; only byte positions are kept.
        min_expected_reuse: entries are admitted only if the workload model
            expects at least this many future uses (1 = always admit).
    """

    max_entry_fraction: float = 0.5
    object_bytes_demote_bson: int = 512
    object_bytes_demote_positions: int = 8192
    min_expected_reuse: int = 1

    def admit(self, entry_bytes: int, budget_bytes: int, expected_reuse: int = 1) -> bool:
        """Should an entry of ``entry_bytes`` enter a cache of ``budget_bytes``?"""
        if expected_reuse < self.min_expected_reuse:
            return False
        if budget_bytes <= 0:
            return False
        return entry_bytes <= budget_bytes * self.max_entry_fraction

    def nested_layout(self, avg_element_bytes: float) -> str:
        """Pick the cache layout for nested (JSON-like) elements by size."""
        if avg_element_bytes > self.object_bytes_demote_positions:
            return "positions"
        if avg_element_bytes > self.object_bytes_demote_bson:
            return "bson"
        return "objects"

    def layout_for(self, sample_element, is_nested: bool) -> str:
        """Pick a layout given a sample element of the candidate data."""
        if not is_nested:
            return "columns"
        return self.nested_layout(deep_bytes((sample_element,)))


DEFAULT_POLICY = AdmissionPolicy()
