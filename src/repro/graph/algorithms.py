"""The five Tesseract graph workloads, with work profiles.

Each algorithm returns both its numerical result and a
:class:`WorkProfile` describing how much work each iteration performed —
the number of active vertices and the number of edges traversed.  The
Tesseract and conventional-baseline performance models consume these
profiles; using the *actual* per-iteration edge counts (rather than
assuming every edge is touched every iteration) is what lets the frontier
algorithms (BFS, SSSP) behave differently from the all-active algorithms
(PageRank), as they do in the paper.

The five workloads follow the Tesseract evaluation:

* PageRank (``pagerank``)
* Breadth-first search (``breadth_first_search``)
* Single-source shortest paths (``single_source_shortest_paths``)
* Weakly connected components (``weakly_connected_components``)
* Average teenage followers (``average_teenage_follower``) — the
  conditional neighbour-counting workload used by Tesseract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.graph import CsrGraph


@dataclass
class WorkProfile:
    """Per-iteration work performed by one algorithm run.

    Attributes:
        name: Algorithm name.
        active_vertices: Vertices processed in each iteration.
        traversed_edges: Edges traversed in each iteration.
        vertex_state_bytes: Bytes of per-vertex state the algorithm keeps.
        ops_per_edge: Arithmetic/compare operations per traversed edge.
    """

    name: str
    active_vertices: List[int] = field(default_factory=list)
    traversed_edges: List[int] = field(default_factory=list)
    vertex_state_bytes: int = 8
    ops_per_edge: int = 4

    def record(self, active: int, edges: int) -> None:
        """Append one iteration's work."""
        self.active_vertices.append(int(active))
        self.traversed_edges.append(int(edges))

    def scaled(self, factor: float) -> "WorkProfile":
        """Return a copy with every per-iteration count multiplied by ``factor``.

        The performance models are analytical, so a work profile measured on
        a moderate synthetic graph can be scaled up to represent the
        multi-gigabyte graphs of the paper's evaluation without paying the
        host-memory cost of materializing them.  The per-iteration *shape*
        (frontier growth, convergence) is preserved; only the magnitudes
        scale.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        copy = WorkProfile(
            self.name,
            vertex_state_bytes=self.vertex_state_bytes,
            ops_per_edge=self.ops_per_edge,
        )
        for active, edges in zip(self.active_vertices, self.traversed_edges):
            copy.record(int(active * factor), int(edges * factor))
        return copy


def pagerank(
    graph: CsrGraph,
    damping: float = 0.85,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
) -> Tuple[np.ndarray, WorkProfile]:
    """Power-iteration PageRank.

    Returns the rank vector and the work profile.  Every vertex is active
    in every iteration and every edge is traversed, which is what makes
    PageRank the most bandwidth-hungry of the five workloads.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    n = graph.num_vertices
    profile = WorkProfile("pagerank", vertex_state_bytes=16, ops_per_edge=3)
    if n == 0:
        return np.zeros(0), profile
    ranks = np.full(n, 1.0 / n)
    out_degree = graph.out_degree().astype(np.float64)
    sources = graph.edge_sources()
    dangling = out_degree == 0
    for _ in range(max_iterations):
        contributions = np.where(dangling, 0.0, ranks / np.maximum(out_degree, 1))
        new_ranks = np.bincount(
            graph.indices, weights=contributions[sources], minlength=n
        ).astype(np.float64)
        dangling_mass = ranks[dangling].sum() / n
        new_ranks = (1.0 - damping) / n + damping * (new_ranks + dangling_mass)
        profile.record(active=n, edges=graph.num_edges)
        delta = np.abs(new_ranks - ranks).sum()
        ranks = new_ranks
        if delta < tolerance:
            break
    return ranks, profile


def breadth_first_search(
    graph: CsrGraph, source: Optional[int] = None
) -> Tuple[np.ndarray, WorkProfile]:
    """Level-synchronous BFS from ``source``.

    Returns the level of every vertex (-1 when unreachable) and the work
    profile (one iteration per BFS level; edges traversed are the out-edges
    of the frontier).  When ``source`` is omitted, the highest-out-degree
    vertex is used so that synthetic graphs with isolated low-degree
    vertices still produce a meaningful traversal.
    """
    n = graph.num_vertices
    if source is None:
        source = int(np.argmax(graph.out_degree())) if n else 0
    if not 0 <= source < n:
        raise IndexError("source vertex out of range")
    profile = WorkProfile("bfs", vertex_state_bytes=8, ops_per_edge=2)
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    degrees = graph.out_degree()
    level = 0
    while frontier.size:
        edges = int(degrees[frontier].sum())
        profile.record(active=frontier.size, edges=edges)
        # Gather all out-neighbours of the frontier in one vectorized pass.
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        lengths = ends - starts
        if lengths.sum() == 0:
            break
        offsets = np.repeat(starts, lengths) + _ragged_arange(lengths)
        neighbors = np.unique(graph.indices[offsets])
        new_frontier = neighbors[levels[neighbors] == -1]
        level += 1
        levels[new_frontier] = level
        frontier = new_frontier
    return levels, profile


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(l)`` for every l in ``lengths`` (vectorized)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def single_source_shortest_paths(
    graph: CsrGraph, source: Optional[int] = None, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, WorkProfile]:
    """Frontier-based Bellman-Ford shortest paths from ``source``.

    Edge weights come from ``graph.weights``.  Returns the distance array
    (``inf`` when unreachable) and the work profile.  When ``source`` is
    omitted, the highest-out-degree vertex is used.
    """
    n = graph.num_vertices
    if source is None:
        source = int(np.argmax(graph.out_degree())) if n else 0
    if not 0 <= source < n:
        raise IndexError("source vertex out of range")
    if max_iterations is None:
        max_iterations = n
    profile = WorkProfile("sssp", vertex_state_bytes=8, ops_per_edge=4)
    distances = np.full(n, np.inf)
    distances[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    degrees = graph.out_degree()
    iteration = 0
    while frontier.size and iteration < max_iterations:
        edges = int(degrees[frontier].sum())
        profile.record(active=frontier.size, edges=edges)
        if edges == 0:
            break
        # Relax every out-edge of the frontier in one vectorized pass.
        starts = graph.indptr[frontier]
        lengths = degrees[frontier]
        offsets = np.repeat(starts, lengths) + _ragged_arange(lengths)
        targets = graph.indices[offsets]
        candidates = np.repeat(distances[frontier], lengths) + graph.weights[offsets]
        improved_mask = candidates < distances[targets]
        improved_targets = targets[improved_mask]
        np.minimum.at(distances, improved_targets, candidates[improved_mask])
        frontier = np.unique(improved_targets)
        iteration += 1
    return distances, profile


def weakly_connected_components(
    graph: CsrGraph, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, WorkProfile]:
    """Label-propagation weakly connected components.

    Every vertex starts with its own id as label; each iteration every
    vertex adopts the minimum label among itself and its neighbours (over
    the undirected view of the graph) until no label changes.
    """
    n = graph.num_vertices
    profile = WorkProfile("wcc", vertex_state_bytes=8, ops_per_edge=2)
    labels = np.arange(n, dtype=np.int64)
    if n == 0:
        return labels, profile
    if max_iterations is None:
        max_iterations = n
    sources = graph.edge_sources()
    destinations = graph.indices
    iteration = 0
    changed = True
    while changed and iteration < max_iterations:
        new_labels = labels.copy()
        # Propagate both ways so direction does not matter.
        np.minimum.at(new_labels, destinations, labels[sources])
        np.minimum.at(new_labels, sources, labels[destinations])
        changed = bool(np.any(new_labels != labels))
        profile.record(active=n, edges=2 * graph.num_edges)
        labels = new_labels
        iteration += 1
    return labels, profile


def average_teenage_follower(
    graph: CsrGraph,
    teenage_mask: Optional[np.ndarray] = None,
    teen_fraction: float = 0.2,
    seed: int = 7,
) -> Tuple[float, WorkProfile]:
    """Average-teenage-followers workload from the Tesseract evaluation.

    Counts, for every vertex, how many of its followers (in-edges) belong
    to a designated subset ("teenagers"), then averages the count.  A
    single pass over every edge with a conditional increment — the lowest
    compute intensity of the five workloads.

    Args:
        graph: Input graph (edges point follower -> followee).
        teenage_mask: Boolean per-vertex mask; generated randomly if omitted.
        teen_fraction: Fraction of vertices marked as teenagers when the
            mask is generated.
        seed: RNG seed for mask generation.
    """
    n = graph.num_vertices
    profile = WorkProfile("atf", vertex_state_bytes=8, ops_per_edge=2)
    if n == 0:
        return 0.0, profile
    if teenage_mask is None:
        rng = np.random.default_rng(seed)
        teenage_mask = rng.random(n) < teen_fraction
    teenage_mask = np.asarray(teenage_mask, dtype=bool)
    if teenage_mask.shape != (n,):
        raise ValueError("teenage_mask must have one entry per vertex")
    sources = graph.edge_sources()
    follower_is_teen = teenage_mask[sources]
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, graph.indices, follower_is_teen.astype(np.int64))
    profile.record(active=n, edges=graph.num_edges)
    return float(counts.mean()), profile
