"""A deterministic host-path budget: Python calls per served request.

The simulator's speed is the number of simulated requests the host gets
through per wall second, and on the plain conjunction path that is
decided by how much Python runs per request.  A wall-clock assertion
would flake; the *call count* under :mod:`cProfile` does not — it is
exact for one interpreter and moves by a few calls between CPython
releases.  The stream mirrors the benchmark's ``svc_plain_conj`` cell
(12 templates over a 65 536-row, three-column index on the paper's 8-bank
device, batches of 16) at a tenth of its length.

The budget fails the day someone re-threads a per-request derivation
(lowering a template per arrival, pricing admission per offer, sizing a
vector per primitive): the tree before conjunction shapes were compiled
once per template spent ~680 calls per request here, this one ~460.  Run
with ``-s`` to see the measured number.
"""

import cProfile
import pstats

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import BatchPolicy

REQUESTS = 600
TEMPLATES = 12
ROWS = 65536
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
RATE_PER_S = 3.8e5
#: Python function calls per request the plain conjunction path may spend.
CALLS_PER_REQUEST_BUDGET = 560


def _templates(rng):
    """2-3 columns, an ``IN`` set of 2-4 values each."""
    columns = list(CARDINALITIES)
    pool = []
    for _ in range(TEMPLATES):
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


def test_plain_conjunction_path_stays_within_its_call_budget():
    rng = np.random.default_rng(7)
    table = ColumnTable("orders", ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=ROWS), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    pool = _templates(rng)
    weights = 1.0 / np.arange(1, TEMPLATES + 1) ** 1.2
    draws = rng.choice(TEMPLATES, size=REQUESTS, p=weights / weights.sum())
    arrivals = np.cumsum(rng.exponential(1e9 / RATE_PER_S, size=REQUESTS))
    session = PimSession.over_service(
        engine=AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8)),
        policy=BatchPolicy(max_batch=16),
        max_queue_depth=4096,
    )

    profile = cProfile.Profile()
    profile.enable()
    for draw, at_ns in zip(draws, arrivals):
        session.conjunction(index, pool[draw], at_ns=float(at_ns))
    session.drain()
    report = session.report()
    responses = session.responses()
    profile.disable()

    assert report.completed == len(responses) == REQUESTS
    expected, _plan = index.evaluate_conjunction(pool[draws[-1]])
    np.testing.assert_array_equal(responses[-1].value, expected)
    calls_per_request = pstats.Stats(profile).total_calls / REQUESTS
    print(f"\nhost path: {calls_per_request:.1f} Python calls per plain conjunction "
          f"(budget {CALLS_PER_REQUEST_BUDGET})")
    assert calls_per_request <= CALLS_PER_REQUEST_BUDGET
