"""Virtual-clock spans: the tracing half of the observability plane.

A :class:`Span` is one named interval of *virtual* time in a request's
lifecycle — admission, queueing, planning, per-lane execution, scatter,
gather-merge — with attributes and children, forming a tree per request
(and per dispatched batch).  Spans are stamped with times the simulation
already knows (``arrival_ns``, ``start_ns``, lane placements); nothing
here ever reads a wall clock, which is what keeps tracing bit-exact:
recording a run cannot perturb it.

The :class:`Tracer` owns the forest as flat rows — a tuple of atoms per
span, which the collector stops tracking, beside its attribute dict — and
a :class:`Span` is a view of one, made when the forest is read.
``Tracer(enabled=False)`` — the module-level :data:`NULL_TRACER` — is the
zero-overhead default: its ``span`` hands back one shared inert
:data:`NULL_SPAN` and records nothing.  Hot paths additionally guard on
:attr:`Tracer.enabled`, so the disabled configuration records no spans at
all (pinned by the ``Span.allocated`` counter test in
``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: ``(name, category, start_ns, end_ns, track, parent row or -1, order)``;
#: ``order`` counts attachments: children read back in the order they joined.
Row = Tuple[str, str, float, Optional[float], Optional[Tuple[str, ...]], int, int]


class Span:
    """One named interval of virtual time, with attributes and children.

    A span is a view of its tracer's row.  ``track`` is the tuple of
    export-track labels the span renders on (bank-lane labels for device
    execution, a batch row for dispatch windows); spans without a track
    render on their request's row.  ``end_ns`` stays ``None`` while the
    interval is open (e.g. a request still queued when the run stops).
    """

    __slots__ = ("tracer", "row")

    #: Spans recorded since import.  The disabled-path test pins the
    #: delta of this counter at zero across an ``observe=False`` run — a
    #: deterministic "nothing recorded on the hot path" assertion that
    #: cannot flake the way a wall-clock micro-benchmark would.
    allocated: ClassVar[int] = 0

    def __init__(self, tracer: "Tracer", row: int) -> None:
        self.tracer = tracer
        self.row = row

    @property
    def name(self) -> str:
        return self.tracer._rows[self.row][0]

    @property
    def category(self) -> str:
        return self.tracer._rows[self.row][1]

    @property
    def start_ns(self) -> float:
        return self.tracer._rows[self.row][2]

    @property
    def end_ns(self) -> Optional[float]:
        return self.tracer._rows[self.row][3]

    @property
    def track(self) -> Optional[Tuple[str, ...]]:
        return self.tracer._rows[self.row][4]

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.tracer._attrs[self.row]

    @property
    def parent(self) -> Optional["Span"]:
        parent = self.tracer._rows[self.row][5]
        return None if parent < 0 else self.tracer.view(parent)

    @property
    def children(self) -> List["Span"]:
        return [self.tracer.view(row) for row in self.tracer._child_rows(self.row)]

    def end(self, end_ns: float, **attrs: Any) -> "Span":
        """Close the interval at ``end_ns``, attaching ``attrs`` (chainable)."""
        self.tracer.close(self.row, end_ns, **attrs)
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
        **attrs: Any,
    ) -> "Span":
        """Record a child span."""
        tracer = self.tracer
        return tracer.view(tracer.record(name, category, start_ns, end_ns, track, self.row, **attrs))

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree (children in attach order)."""
        yield self
        for child in self.children:
            yield from child.walk()

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

    def end(self, *args: Any, **attrs: Any) -> "Span":
        return self

    def set(self, **attrs: Any) -> "Span":
        return self

    def child(self, *args: Any, **attrs: Any) -> "Span":
        return self

    def __repr__(self) -> str:
        return "NULL_SPAN"


class Tracer:
    """Records a forest of span trees stamped on the virtual clock.

    ``roots`` reads the top-level spans (requests, batches) in creation
    order; ``tracks`` holds the declared export-track labels (one per
    bank lane, plus the host lane and a batch row) in declaration order,
    so an exported trace shows the full lane topology even for lanes
    that never ran work.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracks: List[str] = []
        self._track_set: Set[str] = set()
        self._rows: List[Row] = []
        self._attrs: List[Dict[str, Any]] = []
        self._views: Dict[int, Span] = {}
        self._attached = 0
        # Parent row -> child rows; rebuilt on the first read after a change.
        self._children: Optional[Dict[int, List[int]]] = None

    def record(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
        parent: int = -1,
        **attrs: Any,
    ) -> int:
        """Append a span's row under the ``parent`` row (-1: a root) and
        return its number; a disabled tracer records nothing (-1)."""
        if not self.enabled:
            return -1
        order = -1
        if parent >= 0:
            self._attached += 1
            order = self._attached
            self._children = None
        rows = self._rows
        rows.append((name, category, start_ns, end_ns, track, parent, order))
        self._attrs.append(attrs)
        Span.allocated += 1
        return len(rows) - 1

    def close(self, row: int, end_ns: float, **attrs: Any) -> None:
        """Close ``row``'s interval at ``end_ns`` and attach ``attrs``."""
        name, category, start_ns, _, track, parent, order = self._rows[row]
        self._rows[row] = (name, category, start_ns, end_ns, track, parent, order)
        self._attrs[row].update(attrs)

    def span(
        self,
        name: str,
        category: str = "span",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        track: Optional[Tuple[str, ...]] = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a span and return its view; parentless spans are roots.
        Disabled tracers return :data:`NULL_SPAN` and record nothing."""
        if not self.enabled:
            return NULL_SPAN
        parent_row = -1 if parent is None else parent.row
        return self.view(self.record(name, category, start_ns, end_ns, track, parent_row, **attrs))

    def view(self, row: int) -> Span:
        """The one view of a recorded row."""
        span = self._views.get(row)
        if span is None:
            span = self._views[row] = Span(self, row)
        return span

    @property
    def roots(self) -> List[Span]:
        """Top-level spans in creation order (adopted spans excluded)."""
        return [self.view(row) for row, fields in enumerate(self._rows) if fields[5] < 0]

    def _child_rows(self, row: int) -> List[int]:
        if self._children is None:
            self._children = {}
            attached = sorted((f[6], f[5], child) for child, f in enumerate(self._rows) if f[5] >= 0)
            for _, parent, child in attached:
                self._children.setdefault(parent, []).append(child)
        return self._children.get(row, [])

    def declare_tracks(self, labels: Iterable[str]) -> None:
        """Register export tracks (idempotent, order-preserving)."""
        if not self.enabled:
            return
        for label in labels:
            if label not in self._track_set:
                self._track_set.add(label)
                self.tracks.append(label)

    def adopt(self, span: Span, parent: Span) -> None:
        """Re-parent ``span`` under ``parent``, as its newest child.

        The cluster tier uses this to pull the per-shard part spans (each
        opened as a root by its shard's frontend) under the cluster
        request's span, so one scatter-gather reads as one tree.
        """
        if not self.enabled or span is NULL_SPAN or parent is NULL_SPAN:
            return
        name, category, start_ns, end_ns, track, _, _ = self._rows[span.row]
        self._attached += 1
        self._rows[span.row] = (name, category, start_ns, end_ns, track, parent.row, self._attached)
        self._children = None


#: The shared no-op tracer behind ``observe=False``.
NULL_TRACER = Tracer(enabled=False)

#: The one inert span.
NULL_SPAN: Span = _NullSpan(NULL_TRACER, -1)
