"""Database substrate: bitmap indices and BitWeaving scans.

The Ambit evaluation's end-to-end experiment runs real database queries
whose inner loops are bulk bitwise operations:

* **Bitmap indices** — one bit vector per (column, value) pair; conjunctive
  and disjunctive predicates become bulk ANDs/ORs of those vectors, and the
  result cardinality is a population count.
* **BitWeaving/V** — a column of ``k``-bit codes stored as ``k`` vertical
  bit planes; range and equality predicates are evaluated with a short
  sequence of bulk bitwise operations per bit plane, independent of the
  number of rows per word.

Both query styles can execute their bulk bitwise operations either on the
host CPU (where performance collapses once the bit vectors no longer fit in
the cache hierarchy) or on Ambit (constant row-parallel throughput) — the
comparison that produces the paper's 2x–12x query-latency reduction (E4).
"""

from repro.database.tables import ColumnTable, generate_sales_table
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine, QueryResult, ScanBackend
from repro.database.sharding import BitmapIndexShardView

__all__ = [
    "BitWeavingColumn",
    "BitmapIndex",
    "BitmapIndexShardView",
    "ColumnTable",
    "QueryEngine",
    "QueryResult",
    "ScanBackend",
    "generate_sales_table",
]
