"""Analytical models of the four Google consumer workloads.

Each workload is decomposed into :class:`ExecutionPhase` objects.  A phase
is either a *target function* (identified by the study as data-movement
heavy, simple enough to offload to PIM logic) or host-resident work.  Every
phase carries the quantities the energy/performance models need:

* instructions executed on the host CPU,
* bytes moved to/from DRAM,
* bytes served by the on-chip caches, and
* whether the phase's memory traffic is streaming or scattered (which
  determines the fraction of peak bandwidth it achieves on the host).

The volumes are derived from the workload's natural parameters (display
resolution, tab size, matrix dimensions, video resolution), following the
descriptions in the consumer-workloads study; they are representative
rather than trace-accurate, which is sufficient because the E6/E7 results
are ratios over these volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class ExecutionPhase:
    """One phase of a consumer workload.

    Attributes:
        name: Phase name (e.g. ``"texture_tiling"``).
        is_target_function: True when the study offloads this phase to PIM.
        host_instructions: Instructions the host CPU executes for the phase.
        dram_bytes: Bytes moved between DRAM and the SoC for the phase.
        on_chip_bytes: Additional bytes served by the on-chip caches.
        streaming_fraction: Fraction of the DRAM traffic that is streaming
            (the remainder is scattered and achieves lower bandwidth).
        pim_ops: Operations the phase needs when executed on PIM logic
            (defaults to ``host_instructions`` for a general-purpose core;
            fixed-function accelerators process several per cycle).
    """

    name: str
    is_target_function: bool
    host_instructions: float
    dram_bytes: float
    on_chip_bytes: float = 0.0
    streaming_fraction: float = 1.0
    pim_ops: Optional[float] = None

    def __post_init__(self) -> None:
        if self.host_instructions < 0 or self.dram_bytes < 0 or self.on_chip_bytes < 0:
            raise ValueError("phase volumes must be non-negative")
        if not 0.0 <= self.streaming_fraction <= 1.0:
            raise ValueError("streaming_fraction must be in [0, 1]")

    @property
    def effective_pim_ops(self) -> float:
        """Operations to execute on PIM logic (defaults to host instructions)."""
        return self.host_instructions if self.pim_ops is None else self.pim_ops


@dataclass
class ConsumerWorkload:
    """One consumer workload: a named list of execution phases.

    Attributes:
        name: Workload name.
        description: One-line description of the modelled scenario.
        phases: The workload's phases (target functions and host work).
    """

    name: str
    description: str
    phases: List[ExecutionPhase] = field(default_factory=list)

    @property
    def target_functions(self) -> List[ExecutionPhase]:
        """Phases the study offloads to PIM logic."""
        return [p for p in self.phases if p.is_target_function]

    @property
    def host_phases(self) -> List[ExecutionPhase]:
        """Phases that always stay on the host."""
        return [p for p in self.phases if not p.is_target_function]


# ----------------------------------------------------------------------
# Workload presets
# ----------------------------------------------------------------------
def chrome_browser(
    width: int = 1920,
    height: int = 1080,
    scroll_frames: int = 60,
    tab_switches: int = 2,
    tab_size_bytes: int = 80 * 1024 * 1024,
) -> ConsumerWorkload:
    """Chrome browser: page scrolling and tab switching.

    The study's target functions are **texture tiling** (converting the
    rasterized linear bitmap into the GPU's tiled layout, touched twice per
    scrolled frame) and **color blitting** during rasterization, plus tab
    **compression/decompression** when switching tabs.
    """
    frame_bytes = width * height * 4
    tiling_bytes = 2.0 * frame_bytes * scroll_frames        # read linear + write tiled
    blitting_bytes = 1.5 * frame_bytes * scroll_frames
    compression_bytes = 2.0 * tab_size_bytes * tab_switches  # read tab + write compressed

    rasterization_instr = 220.0 * width * height / 1e3 * scroll_frames * 1e3 / 1e3
    return ConsumerWorkload(
        name="chrome",
        description=f"scroll {scroll_frames} frames at {width}x{height}, {tab_switches} tab switches",
        phases=[
            ExecutionPhase(
                name="texture_tiling",
                is_target_function=True,
                host_instructions=4.0 * frame_bytes / 4 * scroll_frames,
                dram_bytes=tiling_bytes,
                on_chip_bytes=0.5 * tiling_bytes,
                streaming_fraction=0.5,
            ),
            ExecutionPhase(
                name="color_blitting",
                is_target_function=True,
                host_instructions=3.0 * frame_bytes / 4 * scroll_frames,
                dram_bytes=blitting_bytes,
                on_chip_bytes=0.5 * blitting_bytes,
                streaming_fraction=0.8,
            ),
            ExecutionPhase(
                name="tab_compression",
                is_target_function=True,
                host_instructions=2.5 * tab_size_bytes / 4 * tab_switches,
                dram_bytes=compression_bytes,
                on_chip_bytes=0.3 * compression_bytes,
                streaming_fraction=0.9,
            ),
            ExecutionPhase(
                name="rasterization_and_layout",
                is_target_function=False,
                host_instructions=40.0 * width * height / 4 * scroll_frames / 10,
                dram_bytes=0.4 * frame_bytes * scroll_frames,
                on_chip_bytes=2.0 * frame_bytes * scroll_frames,
                streaming_fraction=0.6,
            ),
        ],
    )


def tensorflow_mobile(
    batch: int = 4,
    matrix_dim: int = 512,
    layers: int = 8,
) -> ConsumerWorkload:
    """TensorFlow Mobile inference.

    The study's target functions are **packing** (reordering matrix tiles
    into the GEMM kernel's layout) and **quantization** (float/uint8
    conversion); the GEMM itself is compute-bound and stays on the host.
    """
    matrix_bytes = matrix_dim * matrix_dim  # uint8 quantized weights
    activation_bytes = batch * matrix_dim
    packing_bytes = 2.0 * (matrix_bytes + activation_bytes) * layers
    quantization_bytes = 2.5 * activation_bytes * layers * 4

    gemm_flops = 2.0 * batch * matrix_dim * matrix_dim * layers
    return ConsumerWorkload(
        name="tensorflow",
        description=f"{layers}-layer quantized inference, batch {batch}, {matrix_dim}x{matrix_dim}",
        phases=[
            ExecutionPhase(
                name="packing",
                is_target_function=True,
                host_instructions=1.5 * packing_bytes / 4,
                dram_bytes=packing_bytes,
                on_chip_bytes=0.5 * packing_bytes,
                streaming_fraction=0.5,
            ),
            ExecutionPhase(
                name="quantization",
                is_target_function=True,
                host_instructions=2.0 * quantization_bytes / 4,
                dram_bytes=quantization_bytes,
                on_chip_bytes=0.5 * quantization_bytes,
                streaming_fraction=0.9,
            ),
            ExecutionPhase(
                name="gemm",
                is_target_function=False,
                host_instructions=gemm_flops / 16.0,  # SIMD packs 16 MACs per instr
                dram_bytes=0.3 * matrix_bytes * layers,
                on_chip_bytes=4.0 * matrix_bytes * layers,
                streaming_fraction=0.9,
            ),
        ],
    )


def vp9_playback(
    width: int = 1920,
    height: int = 1080,
    frames: int = 120,
) -> ConsumerWorkload:
    """VP9 video playback (decoding) on the device's software/hardware stack.

    The target functions are the **sub-pixel interpolation** of motion
    compensation and the **deblocking filter**, both of which stream
    reference-frame pixels from memory with very little computation per
    pixel.
    """
    luma_bytes = width * height * 1.5  # YUV 4:2:0
    interpolation_bytes = 3.0 * luma_bytes * frames
    deblocking_bytes = 2.0 * luma_bytes * frames
    return ConsumerWorkload(
        name="vp9_playback",
        description=f"decode {frames} frames at {width}x{height}",
        phases=[
            ExecutionPhase(
                name="subpixel_interpolation",
                is_target_function=True,
                host_instructions=3.0 * luma_bytes * frames / 4,
                dram_bytes=interpolation_bytes,
                on_chip_bytes=0.8 * interpolation_bytes,
                streaming_fraction=0.5,
            ),
            ExecutionPhase(
                name="deblocking_filter",
                is_target_function=True,
                host_instructions=3.0 * luma_bytes * frames / 4,
                dram_bytes=deblocking_bytes,
                on_chip_bytes=0.8 * deblocking_bytes,
                streaming_fraction=0.7,
            ),
            ExecutionPhase(
                name="entropy_decode_and_reconstruct",
                is_target_function=False,
                host_instructions=20.0 * luma_bytes * frames / 4 / 4,
                dram_bytes=0.6 * luma_bytes * frames,
                on_chip_bytes=2.0 * luma_bytes * frames,
                streaming_fraction=0.8,
            ),
        ],
    )


def vp9_capture(
    width: int = 1920,
    height: int = 1080,
    frames: int = 120,
    search_range: int = 24,
) -> ConsumerWorkload:
    """VP9 video capture (encoding).

    The dominant target function is **motion estimation**: for every block
    of the current frame, candidate blocks of the reference frame within
    the search window are fetched and compared — enormous data movement for
    simple absolute-difference computation.
    """
    luma_bytes = width * height * 1.5
    blocks = (width // 16) * (height // 16)
    candidates = (2 * search_range // 4) ** 2  # coarse-to-fine search grid
    motion_bytes = blocks * candidates * 16 * 16 * frames * 0.15  # window reuse factor
    transform_bytes = 2.0 * luma_bytes * frames
    return ConsumerWorkload(
        name="vp9_capture",
        description=f"encode {frames} frames at {width}x{height}, +-{search_range} px search",
        phases=[
            ExecutionPhase(
                name="motion_estimation",
                is_target_function=True,
                host_instructions=motion_bytes / 4 * 0.8,
                dram_bytes=motion_bytes,
                on_chip_bytes=1.5 * motion_bytes,
                streaming_fraction=0.4,
            ),
            ExecutionPhase(
                name="transform_quantize_reconstruct",
                is_target_function=False,
                host_instructions=30.0 * luma_bytes * frames / 4 / 4,
                dram_bytes=transform_bytes,
                on_chip_bytes=2.0 * luma_bytes * frames,
                streaming_fraction=0.8,
            ),
        ],
    )


def default_workloads() -> List[ConsumerWorkload]:
    """The four workloads of the study with their default parameters."""
    return [chrome_browser(), tensorflow_mobile(), vp9_playback(), vp9_capture()]
