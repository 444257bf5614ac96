"""Compressed-sparse-row graph container.

The container is NumPy-backed so the algorithm implementations and the
partition analysis can be vectorized; graphs with a few million edges are
processed in well under a second, which keeps the Tesseract benchmark
harness fast.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np


class CsrGraph:
    """A directed graph in compressed-sparse-row form.

    Args:
        indptr: Row-pointer array of length ``num_vertices + 1``.
        indices: Column (destination) indices of length ``num_edges``.
        weights: Optional per-edge weights (defaults to 1.0).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if self.indptr.size == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal the number of edges")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValueError("edge destination out of range")
        if weights is None:
            self.weights = np.ones(self.indices.size, dtype=np.float64)
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            if self.weights.shape != self.indices.shape:
                raise ValueError("weights must have one entry per edge")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "CsrGraph":
        """Build a graph from an iterable of (source, destination) pairs."""
        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            return cls(np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be (source, destination) pairs")
        weight_array = None
        if weights is not None:
            weight_array = np.asarray(list(weights), dtype=np.float64)
        return cls.from_arrays(num_vertices, edge_array[:, 0], edge_array[:, 1], weight_array)

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        sources: np.ndarray,
        destinations: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "CsrGraph":
        """Build a graph from parallel source/destination index arrays.

        This is the fast path used by the synthetic generators; it avoids
        materializing Python tuples for multi-million-edge graphs.
        """
        sources = np.asarray(sources, dtype=np.int64).ravel()
        destinations = np.asarray(destinations, dtype=np.int64).ravel()
        if sources.shape != destinations.shape:
            raise ValueError("sources and destinations must have the same length")
        if sources.size == 0:
            return cls(np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if sources.min() < 0 or sources.max() >= num_vertices:
            raise ValueError("edge source out of range")
        if destinations.min() < 0 or destinations.max() >= num_vertices:
            raise ValueError("edge destination out of range")
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        destinations = destinations[order]
        weight_array = None
        if weights is not None:
            weight_array = np.asarray(weights, dtype=np.float64).ravel()[order]
        counts = np.bincount(sources, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, destinations, weight_array)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.indices.size

    def out_degree(self, vertex: Optional[int] = None) -> np.ndarray:
        """Out-degree of one vertex, or the full out-degree array."""
        degrees = np.diff(self.indptr)
        if vertex is None:
            return degrees
        return degrees[vertex]

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination vertices of ``vertex``'s out-edges."""
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edge_sources(self) -> np.ndarray:
        """Per-edge source-vertex array (expanded from indptr)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr))

    def describe(self) -> str:
        """One-line summary used in benchmark output."""
        avg_degree = self.num_edges / max(1, self.num_vertices)
        return (
            f"{self.num_vertices} vertices, {self.num_edges} edges, "
            f"avg out-degree {avg_degree:.1f}"
        )
