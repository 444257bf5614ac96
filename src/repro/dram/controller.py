"""Memory controller with request scheduling and latency/energy accounting.

The controller is deliberately first-order: it tracks per-bank open rows,
per-channel bus occupancy, and classifies each access as a row hit, row
miss, or closed-bank access.  That is the level of detail the paper's
processor-centric baseline costs depend on (streaming traffic is dominated
by bus occupancy; random traffic by row misses).

Two usage modes are supported:

* *Functional requests* — :meth:`MemoryController.submit` /
  :meth:`MemoryController.drain` move real bytes through the banks and
  return per-request latencies (behind :meth:`DramDevice.read_bytes`).
* *Analytical accounting* —
  :meth:`MemoryController.peak_bandwidth_bytes_per_s`, the channel
  bandwidth the host baselines are priced against without materializing
  every request (the benchmark harnesses' vectors are tens of MiB).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.dram.address import CACHE_LINE_BYTES, AddressMapper, DramCoordinate
from repro.dram.bank import Bank
from repro.dram.energy import DramEnergyParameters, EnergyBreakdown
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters


class RequestKind(enum.Enum):
    """Memory request types accepted by the controller."""

    READ = "read"
    WRITE = "write"


@dataclass
class Request:
    """One cache-line-granularity memory request.

    Attributes:
        kind: READ or WRITE.
        address: Byte address (aligned down to a cache line internally).
        data: For writes, exactly 64 bytes of payload.
        issue_time_ns: Time the request entered the controller queue.
        completion_time_ns: Filled in when the request is serviced.
        result: For reads, the 64 bytes returned.
        row_hit: Whether the access hit an already-open row.
    """

    kind: RequestKind
    address: int
    data: Optional[np.ndarray] = None
    issue_time_ns: float = 0.0
    completion_time_ns: Optional[float] = None
    result: Optional[np.ndarray] = None
    row_hit: Optional[bool] = None

    @property
    def latency_ns(self) -> Optional[float]:
        """Queue-to-completion latency, available after servicing."""
        if self.completion_time_ns is None:
            return None
        return self.completion_time_ns - self.issue_time_ns


@dataclass
class ControllerStats:
    """Aggregate statistics for one controller instance."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_closed: int = 0
    activations: int = 0
    precharges: int = 0
    busy_time_ns: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)


class MemoryController:
    """Controller for one DRAM system (all channels).

    Args:
        geometry: Physical organization.
        timing: Speed-bin timing parameters.
        energy: Current/energy parameters.
        mapping_policy: Address-mapping policy name (see
            :class:`repro.dram.address.AddressMapper`).
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[DramTimingParameters] = None,
        energy: Optional[DramEnergyParameters] = None,
        mapping_policy: str = "row_interleaved",
    ) -> None:
        self.geometry = geometry or DramGeometry.ddr3_dimm()
        self.timing = timing or DramTimingParameters.ddr3_1600()
        self.energy_params = energy or DramEnergyParameters.ddr3_1600()
        self.mapper = AddressMapper(self.geometry, mapping_policy)
        self.banks: Dict[Tuple[int, int, int], Bank] = {}
        g = self.geometry
        for channel in range(g.channels):
            for rank in range(g.ranks_per_channel):
                for bank in range(g.banks_per_rank):
                    self.banks[(channel, rank, bank)] = Bank(
                        subarrays=g.subarrays_per_bank,
                        rows_per_subarray=g.rows_per_subarray,
                        row_size_bytes=g.row_size_bytes,
                        index=bank,
                    )
        self._queue: Deque[Request] = deque()
        self._now_ns: float = 0.0
        self._channel_free_ns: List[float] = [0.0] * g.channels
        self._bank_free_ns: Dict[Tuple[int, int, int], float] = {
            key: 0.0 for key in self.banks
        }
        self.stats = ControllerStats()

    # ------------------------------------------------------------------
    # Functional request path
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """Current simulated time (advances as requests drain)."""
        return self._now_ns

    def bank_for(self, coordinate: DramCoordinate) -> Bank:
        """Return the bank object a coordinate refers to."""
        return self.banks[(coordinate.channel, coordinate.rank, coordinate.bank)]

    def submit(self, request: Request) -> None:
        """Enqueue a request at the current simulated time."""
        if request.kind is RequestKind.WRITE:
            if request.data is None or len(request.data) != CACHE_LINE_BYTES:
                raise ValueError("WRITE requests need exactly 64 bytes of data")
        request.issue_time_ns = self._now_ns
        self._queue.append(request)

    def drain(self) -> List[Request]:
        """Service every queued request in FR-FCFS order and return them.

        FR-FCFS is approximated per drain batch: among queued requests, ones
        that hit the currently open row of their bank are serviced before
        older requests that would require a row miss.
        """
        serviced: List[Request] = []
        while self._queue:
            request = self._pick_next()
            self._service(request)
            serviced.append(request)
        return serviced

    def _pick_next(self) -> Request:
        """Pick the next request: oldest row-hit first, else oldest overall."""
        for i, request in enumerate(self._queue):
            coordinate = self.mapper.decode(request.address)
            bank = self.bank_for(coordinate)
            if bank.open_row == coordinate.row:
                del self._queue[i]
                return request
        return self._queue.popleft()

    def _service(self, request: Request) -> None:
        coordinate = self.mapper.decode(request.address)
        bank = self.bank_for(coordinate)
        key = (coordinate.channel, coordinate.rank, coordinate.bank)
        timing = self.timing
        energy = self.energy_params

        start = max(self._now_ns, self._bank_free_ns[key], request.issue_time_ns)
        access_energy = EnergyBreakdown()

        if bank.open_row == coordinate.row:
            latency = timing.row_hit_read_latency_ns
            request.row_hit = True
            self.stats.row_hits += 1
        elif bank.open_row is None:
            bank.activate(coordinate.row)
            latency = timing.row_empty_read_latency_ns
            request.row_hit = False
            self.stats.row_closed += 1
            self.stats.activations += 1
            access_energy.activation_j += energy.activation_energy_j
        else:
            bank.precharge()
            bank.activate(coordinate.row)
            latency = timing.row_miss_read_latency_ns
            request.row_hit = False
            self.stats.row_misses += 1
            self.stats.activations += 1
            self.stats.precharges += 1
            access_energy.activation_j += energy.activation_energy_j

        column_bytes = coordinate.column * CACHE_LINE_BYTES
        if request.kind is RequestKind.READ:
            request.result = bank.read(coordinate.row, column_bytes, CACHE_LINE_BYTES)
            access_energy.read_j += energy.read_burst_energy_j
            self.stats.reads += 1
        else:
            bank.write(coordinate.row, column_bytes, request.data)
            access_energy.write_j += energy.write_burst_energy_j
            latency = latency - timing.t_cas_ns + timing.t_wr_ns
            self.stats.writes += 1
        access_energy.io_j += CACHE_LINE_BYTES * energy.io_energy_per_byte_j

        # Channel occupancy: the data burst must serialize on the channel.
        channel_ready = self._channel_free_ns[coordinate.channel]
        burst_start = max(start + latency - timing.burst_time_ns, channel_ready)
        completion = burst_start + timing.burst_time_ns

        self._channel_free_ns[coordinate.channel] = completion
        self._bank_free_ns[key] = start + timing.t_rc_ns
        self._now_ns = max(self._now_ns, completion)
        request.completion_time_ns = completion

        self.stats.busy_time_ns = self._now_ns
        self.stats.energy = self.stats.energy.add(access_energy)

    # ------------------------------------------------------------------
    # Analytical accounting for bulk access patterns
    # ------------------------------------------------------------------
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Aggregate peak channel bandwidth of the system."""
        per_channel = self.timing.channel_bandwidth_bytes_per_s(
            self.geometry.channel_width_bits
        )
        return per_channel * self.geometry.channels
