"""Virtual-clock spans: the tracing half of the observability plane.

A :class:`Span` is one named interval of *virtual* time in a request's
lifecycle — admission, queueing, planning, per-lane execution, scatter,
gather-merge — with attributes and children, forming a tree per request
(and per dispatched batch).  Spans are stamped with times the simulation
already knows (``arrival_ns``, ``start_ns``, lane placements); nothing
here ever reads a wall clock, which is what keeps tracing bit-exact:
recording a run cannot perturb it.

The :class:`Tracer` owns the forest.  ``Tracer(enabled=False)`` — the
module-level :data:`NULL_TRACER` — is the zero-overhead default: its
``span`` hands back one shared inert :data:`NULL_SPAN` and records
nothing.  Hot paths additionally guard on :attr:`Tracer.enabled`, so the
disabled configuration allocates no span objects at all (pinned by the
``Span.allocated`` counter test in ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Optional, Set, Tuple


class Span:
    """One named interval of virtual time, with attributes and children.

    ``track`` is the tuple of export-track labels the span renders on
    (bank-lane labels for device execution, a batch row for dispatch
    windows); spans without a track render on their request's row.
    ``end_ns`` stays ``None`` while the interval is open (e.g. a request
    still queued when the run stops).
    """

    __slots__ = ("name", "category", "start_ns", "end_ns", "track", "attrs", "children", "parent")

    #: Spans constructed since import.  The disabled-path test pins the
    #: delta of this counter at zero across an ``observe=False`` run — a
    #: deterministic "no allocation on the hot path" assertion that
    #: cannot flake the way a wall-clock micro-benchmark would.
    allocated: ClassVar[int] = 0

    def __init__(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
        parent: Optional["Span"] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start_ns = float(start_ns)
        self.end_ns: Optional[float] = float(end_ns) if end_ns is not None else None
        self.track = track
        self.attrs: Dict[str, Any] = {}
        self.children: List[Span] = []
        self.parent = parent
        if parent is not None:
            parent.children.append(self)
        Span.allocated += 1

    @property
    def duration_ns(self) -> float:
        """Span length; 0.0 while the span is still open."""
        return (self.end_ns if self.end_ns is not None else self.start_ns) - self.start_ns

    def end(self, end_ns: float) -> "Span":
        """Close the interval at ``end_ns`` (chainable)."""
        self.end_ns = float(end_ns)
        return self

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def child(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
    ) -> "Span":
        """Create and attach a child span."""
        return Span(name, category=category, start_ns=start_ns, end_ns=end_ns, track=track, parent=self)

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree (children in creation order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of the subtree (for reports and debugging)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.track is not None:
            payload["track"] = list(self.track)
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:
        end = "open" if self.end_ns is None else f"{self.end_ns:.0f}"
        return f"Span({self.name!r}, {self.category!r}, [{self.start_ns:.0f}, {end}] ns)"


class _NullSpan(Span):
    """The shared inert span a disabled tracer hands out.

    Every mutator is a no-op and ``child`` returns the instance itself,
    so code holding one can call the full Span surface without branching
    — and without ever retaining per-request state.
    """

    __slots__ = ()

    def end(self, end_ns: float) -> "Span":
        return self

    def set(self, **attrs: Any) -> "Span":
        return self

    def child(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
    ) -> "Span":
        return self


#: The one inert span (allocated once, at import).
NULL_SPAN: Span = _NullSpan("null")


class Tracer:
    """Records a forest of span trees stamped on the virtual clock.

    ``roots`` holds top-level spans (requests, batches) in creation
    order; ``tracks`` holds the declared export-track labels (one per
    bank lane, plus the host lane and a batch row) in declaration order,
    so an exported trace shows the full lane topology even for lanes
    that never ran work.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: List[Span] = []
        self.tracks: List[str] = []
        self._track_set: Set[str] = set()

    def span(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        """Open a span; parentless spans become roots.  Disabled tracers
        return :data:`NULL_SPAN` and record nothing."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name, category=category, start_ns=start_ns, end_ns=end_ns, track=track, parent=parent)
        if parent is None:
            self.roots.append(span)
        return span

    def declare_tracks(self, labels: Iterable[str]) -> None:
        """Register export tracks (idempotent, order-preserving)."""
        if not self.enabled:
            return
        for label in labels:
            if label not in self._track_set:
                self._track_set.add(label)
                self.tracks.append(label)

    def adopt(self, span: Span, parent: Span) -> None:
        """Re-parent a root span under ``parent``.

        The cluster tier uses this to pull the per-shard part spans (each
        opened as a root by its shard's frontend) under the cluster
        request's span, so one scatter-gather reads as one tree.
        """
        if not self.enabled or span is NULL_SPAN or parent is NULL_SPAN:
            return
        # Adopted spans were opened a moment ago, and `roots` keeps every
        # request and batch of the stream: search from the tail.
        roots = self.roots
        for index in range(len(roots) - 1, -1, -1):
            if roots[index] is span:
                del roots[index]
                break
        span.parent = parent
        parent.children.append(span)


#: The shared no-op tracer behind ``observe=False``.
NULL_TRACER = Tracer(enabled=False)
