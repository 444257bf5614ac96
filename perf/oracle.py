"""Device-free NumPy reference for the benchmark streams.

The oracle knows nothing about DRAM, lanes, batches or caches: it holds a
private copy of every table column a stream touches, replays the stream
in arrival order, and says what each completed request should have
returned.  Reads are boolean masks over the column codes packed
little-endian; a write's value is its rows affected, and a write is
applied to the private copy only when the program did not reject it.

It runs outside the timed region.  :class:`Oracle` must be constructed
*before* the stream is submitted — writes mutate the tables in place.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.service import BitmapConjunctionRequest, ScanRequest
from repro.storage.requests import UpdateRequest

_COMPARE = {
    "less_than": lambda codes, c: codes < c[0],
    "less_equal": lambda codes, c: codes <= c[0],
    "equal": lambda codes, c: codes == c[0],
    "between": lambda codes, c: (codes >= c[0]) & (codes <= c[1]),
}


def _pack(mask: np.ndarray) -> np.ndarray:
    return np.packbits(mask.astype(np.uint8), bitorder="little")


def _column_codes(column: Any) -> np.ndarray:
    """Integer codes of a BitWeaving column, rebuilt from its bit planes."""
    codes = np.zeros(column.num_rows, dtype=np.int32)
    for bit, plane in enumerate(column.planes):
        codes |= np.unpackbits(plane, bitorder="little")[: column.num_rows].astype(np.int32) << bit
    return codes


class Oracle:
    """Expected answers for one stream of ``ArrivalEvent``s.

    Requests in the benchmark's service streams that carry writes are
    served FIFO (no priorities), so arrival order is the order the
    program applies them in.
    """

    def __init__(self, events: Sequence[Any]) -> None:
        self.events = list(events)
        self._tables: Dict[int, Dict[str, np.ndarray]] = {}
        self._scan_codes: Dict[int, np.ndarray] = {}
        for event in self.events:
            request = event.request
            if isinstance(request, ScanRequest):
                if id(request.column) not in self._scan_codes:
                    self._scan_codes[id(request.column)] = _column_codes(request.column)
            else:
                table = request.index.table
                if id(table) not in self._tables:
                    self._tables[id(table)] = {
                        name: codes.astype(np.int16) for name, codes in table.columns.items()
                    }
        # Column versions let identical reads share one evaluation until a
        # write touches a column they depend on.
        self._versions: Dict[Tuple[int, str], int] = {}
        self._memo: Dict[Tuple, np.ndarray] = {}

    def _expected_read(self, request: Any) -> np.ndarray:
        if isinstance(request, ScanRequest):
            key: Tuple = (id(request.column), request.kind, tuple(request.constants))
            if key not in self._memo:
                codes = self._scan_codes[id(request.column)]
                self._memo[key] = _pack(_COMPARE[request.kind](codes, request.constants))
            return self._memo[key]
        table_id = id(request.index.table)
        versions = tuple(
            self._versions.get((table_id, column), 0) for column, _ in request.predicates
        )
        key = (table_id, request.predicates, versions)
        if key not in self._memo:
            columns = self._tables[table_id]
            mask = np.ones(request.index.num_rows, dtype=bool)
            for column, values in request.predicates:
                # ``col IN values`` as an OR of equalities: an order of
                # magnitude faster than np.isin on these small code ranges.
                member = np.zeros_like(mask)
                for value in values:
                    member |= columns[column] == value
                mask &= member
            self._memo[key] = _pack(mask)
        return self._memo[key]

    def check(self, responses: Sequence[Any]) -> List[int]:
        """Replay the stream against ``responses`` (both in arrival order).

        Returns the positions of completed responses whose value is wrong.
        Rejected or failed responses are not mismatches here (the harness
        counts them as failed operations separately) — but a rejected
        write must not have been applied, so the replay skips it too.
        """
        if len(responses) != len(self.events):
            raise ValueError("one response per event expected")
        wrong: List[int] = []
        for position, (event, response) in enumerate(zip(self.events, responses)):
            request = event.request
            if isinstance(request, UpdateRequest):
                if not response.completed:
                    continue
                table_id = id(request.table)
                self._tables[table_id][request.column][list(request.row_ids)] = request.values
                key = (table_id, request.column)
                self._versions[key] = self._versions.get(key, 0) + 1
                if response.value != len(request.row_ids):
                    wrong.append(position)
            elif isinstance(request, (ScanRequest, BitmapConjunctionRequest)):
                if not response.completed:
                    continue
                expected = self._expected_read(request)
                if not np.array_equal(np.asarray(response.value), expected):
                    wrong.append(position)
            else:
                raise TypeError(f"oracle has no reference for {type(request).__name__}")
        return wrong
