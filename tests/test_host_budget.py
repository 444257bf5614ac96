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
  through optimizer, cache and hybrid maintenance;
* ``cluster_faulted_audited`` — 256 templates and 50 % scans over four
  shards at replication factor 2, with the sanitizer, span recording,
  the elastic controller and one kill; a second budget caps what the two
  checking planes add over the same stream served without them.

A budget fails the day someone re-threads a per-request derivation
(lowering a template per arrival, pricing admission per offer, sizing a
vector per primitive, keying a conjunction per request, walking the cache
per write): the tree before conjunction shapes were compiled once per
template spent ~680 calls per plain request, the one before shapes were
keyed once per template ~230 per all-hit request and ~810 per mixed one,
and ~421 per plain request when every chain step was its own primitive.
The mixed cell also caps :class:`BulkBitVector` constructions per
request: a write's maintenance charge is shape-only, and the tree that
gave every charged plane op three fresh 8 KiB operands built 12.8.  So
does the plain cell: a question whose answer is current binds nothing,
and the tree that bound it again built 7.2.
The plain and all-hit cells also cap the distinct result arrays the
responses hold: a repeated question shares its answer across batches
until a write touches its columns, so twelve templates hold twelve
arrays (600 and ~1 000 when every batch computed its own).
A fourth budget is a *slope*: ``scan(...).result()`` per request over a
two-shard cluster must cost the same at request 2 000 as at request 100 —
the tree that settled records by walking every record ever offered spent
7× more by then.  Run with ``-s`` to see the measured numbers.
"""

import cProfile
import pstats

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.cluster import ElasticController, ShardRouter, kill_revive_schedule
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
    # Served by _audited_cluster, over a 16 384-row index.
    "audited_cluster": (500, 256, 0.9, 1.0e6, 0.50, 0.0, 0.10, 400.0, {}),
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
    rows = table.num_rows
    scans = [
        BitWeavingColumn(rng.integers(0, 1 << SCAN_BITS, size=rows), SCAN_BITS)
        for _ in range(SCAN_COLUMNS if scan_frac else 0)
    ]
    requests = []
    for draw, kind in zip(draws, kinds):
        if kind < write_frac:
            row_ids = rng.choice(rows, size=WRITE_ROWS, replace=False)
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


def _paper_engine():
    return AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))


def _cell_stream(cell, rows=ROWS):
    """The cell's table, index, requests, priorities and arrivals (seed 7)."""
    (count, templates, zipf_s, rate, scan_frac, write_frac,
     priority_frac, deadline_us, knobs) = CELLS[cell]
    rng = np.random.default_rng(7)
    table = ColumnTable("orders", rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=rows), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    requests = _stream(rng, table, index, count, templates, zipf_s, scan_frac, write_frac)
    urgent = rng.random(count) < priority_frac
    arrivals = np.cumsum(rng.exponential(1e9 / rate, size=count))
    return index, requests, urgent, arrivals


def _check_budget(cell, budget, vectors_budget=None, values_budget=None):
    """Serve the cell's stream under cProfile: at most ``budget`` Python
    function calls per request (and, when given, at most
    ``vectors_budget`` :class:`BulkBitVector` constructions per request
    and ``values_budget`` distinct conjunction value arrays held)."""
    count, deadline_us, knobs = CELLS[cell][0], CELLS[cell][7], CELLS[cell][8]
    index, requests, urgent, arrivals = _cell_stream(cell)
    session = PimSession.over_service(
        engine=_paper_engine(), policy=BatchPolicy(max_batch=16), max_queue_depth=4096, **knobs
    )
    stats, report, responses = _profiled(session, requests, urgent, arrivals, deadline_us)
    calls_per_request = stats.total_calls / count
    assert report.completed == len(responses) == count
    last = max(i for i, r in enumerate(requests) if isinstance(r, BitmapConjunctionRequest))
    expected, _plan = index.evaluate_conjunction(requests[last].predicates)
    if not CELLS[cell][5]:  # (a later write may have moved the index past the answer)
        np.testing.assert_array_equal(responses[last].value, expected)
    print(f"\nhost path [{cell}]: {calls_per_request:.1f} Python calls per request "
          f"(budget {budget})")
    assert calls_per_request <= budget
    if vectors_budget is not None:
        init = BulkBitVector.__init__.__code__
        key = (init.co_filename, init.co_firstlineno, init.co_name)
        vectors_per_request = stats.stats[key][1] / count
        print(f"host path [{cell}]: {vectors_per_request:.2f} BulkBitVector constructions "
              f"per request (budget {vectors_budget})")
        assert vectors_per_request <= vectors_budget
    values = {
        id(response.value)
        for request, response in zip(requests, responses)
        if isinstance(request, BitmapConjunctionRequest)
    }
    print(f"host path [{cell}]: {len(values)} distinct conjunction value arrays held "
          f"(budget {values_budget})")
    if values_budget is not None:
        assert len(values) <= values_budget


def _profiled(session, requests, urgent, arrivals, deadline_us):
    """Submit, drain, report and read back the stream under cProfile:
    ``(profile stats, report, responses)``."""
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
    return pstats.Stats(profile), report, responses


def _audited_cluster(checks):
    """The audited cluster cell: calls per request and every outcome."""
    index, requests, urgent, arrivals = _cell_stream("audited_cluster", rows=16384)
    span = float(arrivals[-1])
    session = PimSession.over_cluster(
        num_shards=4,
        router=ShardRouter(4, replication_factor=2),
        engine_factory=_paper_engine,
        faults=kill_revive_schedule([(1, 0.25 * span, 0.60 * span)]),
        policy=BatchPolicy(max_batch=16, window_ns=20e3),
        max_queue_depth=4096,
        shed_low_priority=True,
        sanitize=checks,
        observe=checks,
    )
    ElasticController(session.backend)
    stats, report, responses = _profiled(
        session, requests, urgent, arrivals, CELLS["audited_cluster"][7]
    )
    calls_per_request = stats.total_calls / len(requests)
    assert report.completed == len(responses) == len(requests)
    outcomes = [(r.finish_ns, r.value.tobytes()) for r in responses]
    return calls_per_request, outcomes, session.backend.elastic_summary()


def test_plain_conjunction_path_stays_within_its_call_budget():
    # ~170 calls and ~0.3 vectors (~239 and 7.2 when a current answer was
    # bound again, a fresh output vector per step); one value array per
    # template (600 when every batch copied its own).
    _check_budget("plain", 185, vectors_budget=0.5, values_budget=12)


def test_all_hit_optimizer_path_stays_within_its_call_budget():
    # ~155 calls (~158 when the cache copied every hit and fill; ~223 when
    # every request derived its keys); one value array per template
    # (~1 000 when every batch joined its own).
    _check_budget("all_hit", 170, values_budget=12)


def test_mixed_read_write_path_stays_within_its_call_budget():
    # ~547 calls (~554 when the cache kept its own liveness table and
    # copied every hit and fill; ~587 when every optimizer sub-chain step
    # was its own primitive; ~722 when every charged plane op had three
    # fresh 8 KiB operands and every scan priced one metrics object per
    # step; ~797 when every write walked the cache) and ~3.7 vectors
    # (12.8 then).
    _check_budget("mixed_rw", 570, vectors_budget=4.5)


def test_audited_cluster_path_and_its_checks_stay_within_their_call_budgets():
    """The sanitizer and the span recorder cost a bounded number of calls
    per request over the same stream served without them, and change
    nothing it decides."""
    audited, outcomes, elastic = _audited_cluster(checks=True)
    bare, bare_outcomes, bare_elastic = _audited_cluster(checks=False)
    assert outcomes == bare_outcomes and elastic == bare_elastic
    assert elastic["shard_failures"] == 1 and elastic["failovers"] > 0
    print(f"\nhost path [audited cluster]: {audited:.1f} Python calls per request "
          f"(budget 990), checks add {audited - bare:.1f} (budget 380)")
    # ~932 and +266 (~948 when every optimizer sub-chain step and ~1 022
    # when every chain step was its own primitive;
    # ~1 380 and +540 when every request was linted in full, every
    # placement re-derived its tolerance, and every span was an object
    # with its own child list).
    assert audited <= 990
    assert audited - bare <= 380


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
