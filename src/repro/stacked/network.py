"""Interconnect model: vault-to-vault switch and cube-to-cube links.

Tesseract's message-passing programming model sends remote function calls
between vaults (possibly in different cubes).  The interconnect model
captures the two levels that matter for performance:

* the on-logic-layer crossbar between the vaults of one cube (wide, cheap,
  low latency), and
* the off-cube SerDes links between cubes (the same links the host uses),
  which are the scarce resource when graphs are partitioned across many
  cubes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterconnectParameters:
    """Bandwidth, latency, and energy of the two interconnect levels.

    Attributes:
        intra_cube_bandwidth_bytes_per_s: Aggregate crossbar bandwidth
            between vaults of one cube.
        intra_cube_latency_ns: Latency of one vault-to-vault message hop.
        intra_cube_energy_pj_per_bit: Energy per bit moved on the crossbar.
        inter_cube_link_bandwidth_bytes_per_s: Bandwidth of one cube-to-cube
            SerDes link (per direction).
        links_per_cube: Number of external links per cube.
        inter_cube_latency_ns: Latency of one cube-to-cube hop.
        inter_cube_energy_pj_per_bit: Energy per bit on a SerDes link.
        message_overhead_bytes: Header/flit overhead added to every message.
    """

    intra_cube_bandwidth_bytes_per_s: float = 256e9
    intra_cube_latency_ns: float = 15.0
    intra_cube_energy_pj_per_bit: float = 2.0
    inter_cube_link_bandwidth_bytes_per_s: float = 40e9
    links_per_cube: int = 4
    inter_cube_latency_ns: float = 60.0
    inter_cube_energy_pj_per_bit: float = 6.0
    message_overhead_bytes: int = 16

    @classmethod
    def hmc2_mesh(cls) -> "InterconnectParameters":
        """HMC 2.0-style links (4 x ~40 GB/s per cube) in a mesh of cubes."""
        return cls()

    @property
    def inter_cube_bandwidth_bytes_per_s(self) -> float:
        """Aggregate external link bandwidth of one cube (all links)."""
        return self.inter_cube_link_bandwidth_bytes_per_s * self.links_per_cube


class StackNetwork:
    """Traffic accounting over the two-level interconnect.

    The model is bandwidth-centric: callers register how many messages of
    what payload go vault-to-vault within a cube and cube-to-cube, and the
    network reports the serialization time on the binding resource and the
    energy spent.  Topological detail (hop counts in the cube mesh) is
    folded into an average hop factor.

    Args:
        parameters: Link/crossbar parameters.
        num_cubes: Number of memory cubes in the system.
        average_inter_cube_hops: Mean number of cube-to-cube hops a remote
            message traverses (1.0 for a fully connected topology, ~2.0 for
            a 4x4 mesh with adaptive routing).
    """

    def __init__(
        self,
        parameters: InterconnectParameters = None,
        num_cubes: int = 16,
        average_inter_cube_hops: float = 2.0,
    ) -> None:
        self.parameters = parameters or InterconnectParameters.hmc2_mesh()
        if num_cubes <= 0:
            raise ValueError("num_cubes must be positive")
        if average_inter_cube_hops < 1.0:
            raise ValueError("average_inter_cube_hops must be >= 1")
        self.num_cubes = num_cubes
        self.average_inter_cube_hops = average_inter_cube_hops
        self.intra_cube_bytes = 0
        self.inter_cube_bytes = 0

    # ------------------------------------------------------------------
    # Traffic registration
    # ------------------------------------------------------------------
    def add_messages(
        self,
        count: int,
        payload_bytes: int,
        crosses_cube: bool,
    ) -> None:
        """Register ``count`` messages of ``payload_bytes`` each."""
        if count < 0 or payload_bytes < 0:
            raise ValueError("count and payload_bytes must be non-negative")
        total = count * (payload_bytes + self.parameters.message_overhead_bytes)
        if crosses_cube:
            self.inter_cube_bytes += total
        else:
            self.intra_cube_bytes += total

    def reset(self) -> None:
        """Clear registered traffic."""
        self.intra_cube_bytes = 0
        self.inter_cube_bytes = 0

    # ------------------------------------------------------------------
    # Serialization time and energy
    # ------------------------------------------------------------------
    def intra_cube_time_ns(self) -> float:
        """Serialization time of the registered intra-cube traffic.

        Crossbar traffic is spread over every cube's crossbar.
        """
        aggregate = self.parameters.intra_cube_bandwidth_bytes_per_s * self.num_cubes
        return self.intra_cube_bytes / aggregate * 1e9 if self.intra_cube_bytes else 0.0

    def inter_cube_time_ns(self) -> float:
        """Serialization time of the registered inter-cube traffic.

        Each message consumes link bandwidth on every hop; the aggregate
        usable bandwidth is the sum of all cubes' links divided by two
        (every hop occupies a sender and a receiver port).
        """
        if not self.inter_cube_bytes:
            return 0.0
        aggregate = (
            self.parameters.inter_cube_bandwidth_bytes_per_s * self.num_cubes / 2.0
        )
        effective_bytes = self.inter_cube_bytes * self.average_inter_cube_hops
        return effective_bytes / aggregate * 1e9

    def total_time_ns(self) -> float:
        """Serialization time on the binding interconnect level."""
        return max(self.intra_cube_time_ns(), self.inter_cube_time_ns())
