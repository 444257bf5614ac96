"""A deterministic host-path budget: Python calls per served request.

The simulator's speed is the number of simulated requests the host gets
through per wall second, and that is decided by how much Python runs per
request.  A wall-clock assertion would flake; the *call count* under
:mod:`cProfile` does not — it is exact for one interpreter and moves by a
few calls between CPython releases.  Each stream mirrors one cell of the
benchmark (``perf/workloads.py``: a 65 536-row, three-column index on the
paper's 8-bank device, batches of 16) at a fraction of its length — a
tenth, except the mixed cell at half: what a write costs depends on how
full the result cache is, and 600 requests only half fill it (3 000 fill
it and start evicting, like the cell itself):

* ``svc_plain_conj`` — 12 templates, every conjunction lowered and
  executed on its own;
* ``svc_shared_conj`` — the same pool with ``optimize`` + ``cache``:
  nearly every request is a cache hit or a duplicate of its batch, so
  only the fixed per-request path is left;
* ``svc_mixed_rw`` — 2 048 templates, 30 % scans and 20 % updates
  through optimizer, cache and hybrid maintenance.

A budget fails the day someone re-threads a per-request derivation
(lowering a template per arrival, pricing admission per offer, sizing a
vector per primitive, keying a conjunction per request, walking the cache
per write): the tree before conjunction shapes were compiled once per
template spent ~680 calls per plain request, the one before shapes were
keyed once per template ~230 per all-hit request and ~810 per mixed one.
A fourth budget is a *slope*: ``scan(...).result()`` per request over a
two-shard cluster must cost the same at request 2 000 as at request 100 —
the tree that settled records by walking every record ever offered spent
7× more by then.  Run with ``-s`` to see the measured numbers.
"""

import cProfile
import pstats

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import BatchPolicy, BitmapConjunctionRequest, ScanRequest
from repro.storage import UpdateRequest

ROWS = 65536
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
SCAN_COLUMNS, SCAN_BITS = 16, 8
WRITE_ROWS = 64

#: name -> (requests, templates, zipf_s, rate_per_s, scan_frac, write_frac,
#: priority_frac, deadline_us, pipeline knobs).
CELLS = {
    "plain": (600, 12, 1.2, 3.8e5, 0.0, 0.0, 0.0, 0.0, {}),
    "all_hit": (
        2400, 12, 1.2, 4.0e6, 0.0, 0.0, 0.10, 100.0, dict(optimize=True, cache=True),
    ),
    "mixed_rw": (
        3000, 2048, 0.9, 4.5e5, 0.30, 0.20, 0.0, 0.0,
        dict(optimize=True, cache=True, maintenance="hybrid", max_backlog_ns=2.0e6),
    ),
}


def _templates(rng, count):
    """2-3 columns, an ``IN`` set of 2-4 values each."""
    columns = list(CARDINALITIES)
    pool = []
    for _ in range(count):
        picked = rng.choice(len(columns), size=int(rng.integers(2, 4)), replace=False)
        pool.append(
            tuple(
                (
                    columns[c],
                    tuple(
                        int(v)
                        for v in rng.choice(
                            CARDINALITIES[columns[c]], size=int(rng.integers(2, 5)), replace=False
                        )
                    ),
                )
                for c in picked
            )
        )
    return pool


def _stream(rng, table, index, count, templates, zipf_s, scan_frac, write_frac):
    """The cell's request mix: conjunctions drawn Zipf from the pool,
    scans over 16 BitWeaving columns, 64-row updates of one column."""
    pool = _templates(rng, templates)
    weights = 1.0 / np.arange(1, templates + 1) ** zipf_s
    draws = rng.choice(templates, size=count, p=weights / weights.sum())
    kinds = rng.random(count)
    scans = [
        BitWeavingColumn(rng.integers(0, 1 << SCAN_BITS, size=ROWS), SCAN_BITS)
        for _ in range(SCAN_COLUMNS if scan_frac else 0)
    ]
    requests = []
    for draw, kind in zip(draws, kinds):
        if kind < write_frac:
            row_ids = rng.choice(ROWS, size=WRITE_ROWS, replace=False)
            values = rng.integers(0, CARDINALITIES["status"], size=WRITE_ROWS)
            requests.append(
                UpdateRequest(
                    table=table, index=index, column="status",
                    row_ids=tuple(int(r) for r in row_ids),
                    values=tuple(int(v) for v in values),
                )
            )
        elif kind < write_frac + scan_frac:
            column = scans[int(rng.integers(len(scans)))]
            requests.append(
                ScanRequest(column=column, kind="less_than", constants=(int(rng.integers(256)),))
            )
        else:
            requests.append(BitmapConjunctionRequest(index=index, predicates=pool[draw]))
    return requests


def _check_budget(cell, budget):
    """Serve the cell's stream under cProfile: at most ``budget`` Python
    function calls per request."""
    (count, templates, zipf_s, rate, scan_frac, write_frac,
     priority_frac, deadline_us, knobs) = CELLS[cell]
    rng = np.random.default_rng(7)
    table = ColumnTable("orders", ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=ROWS), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    requests = _stream(rng, table, index, count, templates, zipf_s, scan_frac, write_frac)
    urgent = rng.random(count) < priority_frac
    arrivals = np.cumsum(rng.exponential(1e9 / rate, size=count))
    session = PimSession.over_service(
        engine=AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8)),
        policy=BatchPolicy(max_batch=16),
        max_queue_depth=4096,
        **knobs,
    )

    profile = cProfile.Profile()
    profile.enable()
    for request, at_ns, hurry in zip(requests, arrivals, urgent):
        session.submit(
            request,
            priority=1 if hurry else 0,
            deadline_ns=float(at_ns) + deadline_us * 1e3 if hurry else None,
            at_ns=float(at_ns),
        )
    session.drain()
    report = session.report()
    responses = session.responses()
    profile.disable()

    assert report.completed == len(responses) == count
    last = max(i for i, r in enumerate(requests) if isinstance(r, BitmapConjunctionRequest))
    expected, _plan = index.evaluate_conjunction(requests[last].predicates)
    if not write_frac:  # (a later write may have moved the index past the answer)
        np.testing.assert_array_equal(responses[last].value, expected)
    calls_per_request = pstats.Stats(profile).total_calls / count
    print(f"\nhost path [{cell}]: {calls_per_request:.1f} Python calls per request "
          f"(budget {budget})")
    assert calls_per_request <= budget


def test_plain_conjunction_path_stays_within_its_call_budget():
    _check_budget("plain", 560)  # ~435


def test_all_hit_optimizer_path_stays_within_its_call_budget():
    _check_budget("all_hit", 190)  # ~181 (~223 when every request derived its keys)


def test_mixed_read_write_path_stays_within_its_call_budget():
    _check_budget("mixed_rw", 740)  # ~722 (~797 when every write walked the cache)


def test_interactive_cluster_requests_cost_the_same_at_any_stream_position():
    """``f = session.scan(...); f.result()`` per request — the pattern
    ``PimSession``'s docstring shows — is flat: calls per request at
    requests 1 900-2 000 within 10 % of requests 100-200."""
    rng = np.random.default_rng(7)
    column = BitWeavingColumn(rng.integers(0, 64, size=512), 6)
    session = PimSession.over_cluster(num_shards=2)

    def calls_per_request(first, last):
        for i in range(len(session.futures), first):
            session.scan(column, "less_than", 1 + i % 60).result()
        profile = cProfile.Profile()
        profile.enable()
        for i in range(first, last):
            session.scan(column, "less_than", 1 + i % 60).result()
        profile.disable()
        return pstats.Stats(profile).total_calls / (last - first)

    early = calls_per_request(100, 200)
    late = calls_per_request(1900, 2000)
    print(f"\nhost path [interactive cluster]: {early:.1f} Python calls per request at "
          f"100-200, {late:.1f} at 1900-2000")
    assert session.report().completed == 2000
    assert abs(late / early - 1.0) <= 0.10
