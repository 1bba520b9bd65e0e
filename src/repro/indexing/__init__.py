"""JIT secondary indexes: value-based access paths built as scan byproducts.

ViDa's positional maps (paper §2.1) locate rows *positionally* as a
byproduct of query execution. This package extends the same just-in-time
philosophy to *value-based* access paths, following "Just-in-Time Index
Compilation" (arXiv 1901.07627): while a scan's predicate kernel already
holds a converted column in its hands, the values are recorded into a
:class:`ValueIndex` — a hash index for equality probes plus lazily sorted
runs for range probes — over exactly the row ranges the scan touched.
Indexes grow incrementally across queries (on serial scans and the
uncovered ranges of index-served ones; worker processes emit none), and
live in their source's
:class:`~repro.core.source_state.SourceState`: dropped with the posmap when
the underlying file is rewritten, extended with it when it is appended to.
"""

from .value_index import ValueIndex, IndexPartial

__all__ = ["ValueIndex", "IndexPartial"]
