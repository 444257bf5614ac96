"""The frontend's kept queue state equals what a fresh computation gives.

Two pieces of admission state are kept incrementally instead of being
recomputed per arrival (see :mod:`repro.service.frontend`):

* an unpinned request's backlog shares wait in an ordered pending list
  and reach the bank lanes only when something reads the vector, so after
  every offer, shed, cancel and served batch ``backlog_ns`` and every lane
  must equal a reference that applied each charge the moment it was made
  — compared with ``==``, since the deferral claims the same float
  additions in the same order;
* the queue's next close instant is lowered at each admission and
  recomputed when requests leave, so it must equal
  :meth:`BatchPlanner.next_close_ns` over the queue as it stands.

A stream that never empties its queue keeps the pending list within
:data:`~repro.service.frontend.PENDING_SHARES`.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    CopyRequest,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
)
from repro.service.frontend import PENDING_SHARES

CARDINALITIES = {"region": 8, "status": 4, "channel": 4}
COPY_BYTES = (64, 100_000, 300_000, 1_000_000, 3_000_000, 7_777_777)


@functools.lru_cache(maxsize=1)
def _requests():
    """Unpinned conjunctions (under the optimizer) and copies of many
    sizes, plus scans pinned to their column's banks."""
    rng = np.random.default_rng(5)
    table = ColumnTable("orders", 2048)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=2048), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    conjunctions = [
        BitmapConjunctionRequest(index=index, predicates=predicates)
        for predicates in (
            (("region", (1, 2)), ("status", (0, 3))),
            (("region", (0, 4, 5)), ("channel", (1,))),
            (("status", (1, 2, 3)), ("channel", (0, 2)), ("region", (7,))),
        )
    ]
    copies = [CopyRequest(num_bytes=size) for size in COPY_BYTES]
    columns = [BitWeavingColumn(rng.integers(0, 256, size=2048), 8) for _ in range(3)]
    scans = [ScanRequest(column=c, kind="less_than", constants=(90,)) for c in columns]
    return conjunctions + copies + scans


def _frontend(banks=8, **knobs):
    engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=banks))
    return ServiceFrontend(PipelineConfig(optimize=True, cache=True, **knobs), engine=engine)


#: Bank counts a share is spread over.  The paper device's latencies are
#: multiples of 1/4 ns, so over 8 banks every share is a dyadic fraction
#: whose sums are exact in any order; over 3, 5 or 7 they round, and only
#: the order the frontend claims gives the reference's bits.
BANKS = st.sampled_from((3, 5, 7))


def _with_eager_reference(frontend):
    """A backlog vector beside the frontend's that takes every charge the
    moment it is made (the frontend's own eager ``_charge_onto``) and
    resets to zero whenever requests leave the queue empty."""
    reference = dict(frontend._bank_backlog)
    charge, release = frontend._charge, frontend._release

    def eager_charge(queued, sign, banks=0):
        charge(queued, sign, banks)
        frontend._charge_onto(reference, queued, sign * queued.modeled_ns)

    def eager_release(left):
        release(left)
        if not frontend._heap:
            for key in reference:
                reference[key] = 0.0

    frontend._charge = eager_charge
    frontend._release = eager_release
    return reference


_OFFER = st.tuples(
    st.just("offer"),
    st.integers(0, 11),  # which request
    st.integers(0, 2),  # priority
    st.one_of(st.none(), st.floats(2e3, 4e5)),  # deadline slack
    st.floats(0.0, 1e3),  # gap since the clock
)
_OPS = st.lists(
    st.one_of(
        _OFFER,
        _OFFER,
        _OFFER,
        # Several arrivals at one instant: their shares pend together.
        st.tuples(st.just("burst"), st.lists(st.integers(0, 11), min_size=2, max_size=12)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("serve")),
        st.tuples(st.just("advance"), st.floats(0.0, 2e4)),
    ),
    min_size=20,
    max_size=80,
)


class TestKeptAdmissionState:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=_OPS,
        bound=st.one_of(st.none(), st.floats(0.5, 10.0)),
        window_us=st.floats(2.0, 60.0),
        max_batch=st.integers(2, 16),
        depth=st.integers(3, 24),
        pipeline=st.booleans(),
        banks=BANKS,
    )
    def test_backlog_and_close_instant_equal_a_fresh_computation(
        self, ops, bound, window_us, max_batch, depth, pipeline, banks
    ):
        """A batch may leave work queued (its shares pend in order) and a
        queue may be shorter than a batch (a full queue sheds too)."""
        requests = _requests()
        frontend = _frontend(
            banks,
            policy=BatchPolicy(max_batch=max_batch, window_ns=window_us * 1e3),
            max_queue_depth=depth,
            max_backlog_ns=None if bound is None else bound * frontend_unit_ns(),
            shed_low_priority=True,
            pipeline=pipeline,
        )
        reference = _with_eager_reference(frontend)
        planner = frontend.planner
        for op in ops:
            if op[0] == "offer":
                _, which, priority, slack, gap = op
                at = frontend.clock_ns + gap
                frontend.advance_to(at)
                at = max(at, frontend.clock_ns)
                deadline = None if slack is None else at + slack
                frontend.offer(requests[which], priority, deadline_ns=deadline, arrival_ns=at)
            elif op[0] == "burst":
                for which in op[1]:
                    frontend.offer(requests[which], arrival_ns=frontend.clock_ns)
            elif op[0] == "cancel":
                queued = frontend.queued()
                if queued:
                    assert frontend.cancel(queued[op[1] % len(queued)])
            elif op[0] == "serve":
                frontend.serve_batch()
            else:
                frontend.advance_to(frontend.clock_ns + op[1])
            assert frontend._close_ns == planner.next_close_ns(frontend.queued(), frontend.clock_ns)
            assert len(frontend._pending) <= PENDING_SHARES
            assert frontend.backlog_ns == max(reference.values())
            assert frontend._bank_backlog == reference
        frontend.drain()
        assert frontend.backlog_ns == 0.0 and frontend._close_ns == float("inf")

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from(COPY_BYTES), min_size=PENDING_SHARES + 1, max_size=300),
        banks=BANKS,
    )
    def test_a_queue_that_never_empties_keeps_the_pending_list_bounded(self, sizes, banks):
        """No window, no deadline, no admission bound and a batch larger
        than the stream: nothing is served and nothing reads the vector
        until the end."""
        frontend = _frontend(banks, policy=BatchPolicy(max_batch=1024), max_queue_depth=1024)
        reference = _with_eager_reference(frontend)
        for i, size in enumerate(sizes):
            frontend.advance_to(10.0 * i)
            frontend.offer(CopyRequest(num_bytes=size), arrival_ns=10.0 * i)
            assert len(frontend._pending) <= PENDING_SHARES
        assert frontend.queue_depth == len(sizes)
        assert frontend.backlog_ns == max(reference.values()) > 0.0
        assert frontend._bank_backlog == reference


def test_a_batch_policy_is_fixed_once_built():
    """The kept close instant and ``advance_to``'s batch size are read off
    the policy the queue was built under, so the policy cannot change."""
    policy = BatchPolicy(max_batch=4, window_ns=1e3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.window_ns = 2e3


@functools.lru_cache(maxsize=1)
def frontend_unit_ns():
    """The median modeled latency of the requests the streams draw from."""
    planner = _frontend().planner
    return float(np.median([planner.modeled_latency_ns(r) for r in _requests()]))
