"""JIT statistics & cost calibration: table stats collected as scan
byproducts, merged adopt-or-discard into their source's
:class:`~repro.core.source_state.SourceState`, feeding the adaptive
optimizer."""

from .calibration import DEFAULT_UNIT_MS, CostCalibration, ScanTiming
from .table_stats import (
    SKETCH_K,
    ColumnSketch,
    ColumnStats,
    StatsPartial,
    TableStats,
)

__all__ = [
    "SKETCH_K",
    "DEFAULT_UNIT_MS",
    "ColumnSketch",
    "ColumnStats",
    "CostCalibration",
    "ScanTiming",
    "StatsPartial",
    "TableStats",
]
