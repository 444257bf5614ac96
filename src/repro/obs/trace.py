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

Most rows are *derived*, not recorded.  While a run is served the tracer
keeps one entry per request — a :class:`DerivedSpan`: a reference to the
owner's envelope, plus a small tuple of what the envelope does not hold —
and one per placed primitive run (:meth:`Tracer.record_run`).  The first
read (``roots``, ``view``, ``children``, ``attrs``, a span's fields, an
export) derives their rows: a request's lifecycle children, a run's
one-row-per-step ``exec`` spans.  Only batch dispatch windows and plan
markers are recorded as rows when they happen.  ``Span.allocated`` counts
registered entries: recorded rows, derived roots and runs.

``Tracer(enabled=False)`` — the module-level :data:`NULL_TRACER` — is the
zero-overhead default: its ``span`` hands back one shared inert
:data:`NULL_SPAN` and records nothing.  Hot paths additionally guard on
:attr:`Tracer.enabled`, so the disabled configuration records no spans at
all (pinned by the ``Span.allocated`` counter test in
``tests/test_obs.py``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: ``(name, category, start_ns, end_ns, track, parent row or -1, order)``;
#: ``order`` counts attachments: children read back in the order they joined.
Row = Tuple[str, str, float, Optional[float], Optional[Tuple[str, ...]], int, int]

#: What a derived root's row and attrs hold until it is first derived.
_UNDERIVED: Row = ("", "", 0.0, None, None, -1, -1)
_NO_ATTRS: Dict[str, Any] = {}


class Span:
    """One named interval of virtual time, with attributes and children.

    A span is a view of its tracer's row.  ``track`` is the tuple of
    export-track labels the span renders on (bank-lane labels for device
    execution, a batch row for dispatch windows); spans without a track
    render on their request's row.  ``end_ns`` stays ``None`` while the
    interval is open (e.g. a request still queued when the run stops).
    """

    __slots__ = ("tracer", "row")

    #: Entries registered since import (recorded rows, derived roots and
    #: placed runs).  The disabled-path test pins the delta of this
    #: counter at zero across an ``observe=False`` run — a deterministic
    #: "nothing recorded on the hot path" assertion that cannot flake the
    #: way a wall-clock micro-benchmark would.
    allocated: ClassVar[int] = 0

    def __init__(self, tracer: "Tracer", row: int) -> None:
        self.tracer = tracer
        self.row = row

    @property
    def name(self) -> str:
        return self.tracer._row(self.row)[0]

    @property
    def category(self) -> str:
        return self.tracer._row(self.row)[1]

    @property
    def start_ns(self) -> float:
        return self.tracer._row(self.row)[2]

    @property
    def end_ns(self) -> Optional[float]:
        return self.tracer._row(self.row)[3]

    @property
    def track(self) -> Optional[Tuple[str, ...]]:
        return self.tracer._row(self.row)[4]

    @property
    def attrs(self) -> Dict[str, Any]:
        self.tracer._row(self.row)
        return self.tracer._attrs[self.row]

    @property
    def parent(self) -> Optional["Span"]:
        parent = self.tracer._row(self.row)[5]
        return None if parent < 0 else self.tracer.view(parent)

    @property
    def children(self) -> List["Span"]:
        return [self.tracer.view(row) for row in self.tracer._child_rows(self.row)]

    def end(self, end_ns: float, **attrs: Any) -> "Span":
        """Close the interval at ``end_ns``, attaching ``attrs`` (chainable)."""
        self.tracer._row(self.row)
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


class DerivedSpan(Span):
    """A root registered by reference to its owner's record; its row and
    children are derived from that record when the trace is read.

    A subclass names what it derives in :meth:`derive`.  ``facts`` holds
    what the record itself does not (set by :meth:`touch`); ``note`` is
    what another layer adds to the span (the session's future, or the
    adopting cluster's placement).  The owner calls :meth:`touch` at each
    door that changes what the record derives to; nothing else is
    recorded while the run is served.
    """

    __slots__ = ("source", "facts", "note")

    def __init__(self, tracer: "Tracer", source: Any) -> None:
        super().__init__(tracer, len(tracer._rows))
        self.source = source
        self.facts: Any = None
        self.note: Any = None
        tracer._rows.append(_UNDERIVED)
        tracer._attrs.append(_NO_ATTRS)
        tracer._stale.append(self)
        Span.allocated += 1

    def touch(self, facts: Any = None) -> None:
        """The record changed (it settled, or gained a part): derive it
        again on the next read, with ``facts`` when given."""
        if facts is not None:
            self.facts = facts
        self.tracer._stale.append(self)

    def derive(self) -> Tuple[str, str, float, Optional[float], Dict[str, Any], List[Any]]:
        """``(name, category, start_ns, end_ns, attrs, children)`` as the
        record stands.  A child is ``(name, category, start_ns, end_ns,
        attrs)`` or a :class:`DerivedSpan` to adopt; children are only ever
        appended, so a re-derivation adds what is new."""
        raise NotImplementedError

    def _ordered(self, attrs: Dict[str, Any], outcome: Dict[str, Any], early: bool) -> Dict[str, Any]:
        """``attrs`` plus ``outcome`` and what ``note`` adds, in the order
        they became known: an outcome reached inside the offer (``early``)
        precedes the note, a later one follows it.  A tuple note is an
        adopted part's ``(shard, failover, refused at the scatter)``; any
        other is the submitting session's future."""
        if early:
            attrs.update(outcome)
        note = self.note
        if type(note) is tuple:
            attrs["shard"] = note[0]
            if note[1]:
                attrs["failover"] = True
        elif note is not None:
            attrs.update(submitted=note.kind, session=note.session.name)
        if not early:
            attrs.update(outcome)
        return attrs


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
        # Derived roots to derive (again) on the next read, placed runs not
        # yet expanded, and how many children each derived root has.
        self._stale: List[DerivedSpan] = []
        self._runs: List[Tuple[int, Tuple[str, ...], float, Sequence[Any], float, int]] = []
        self._emitted: Dict[int, int] = {}

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
        Span.allocated += 1
        return self._attach((name, category, start_ns, end_ns, track), parent, attrs)

    def record_run(self, batch_row: int, track: Tuple[str, ...], start_ns: float,
                   prices: Sequence[Any], release_ns: float, banks: int) -> None:
        """Register one placed run under ``batch_row``: read back as one
        ``exec`` span per step (``prices`` in order, back to back from
        ``start_ns``) on the run's lane ``track``."""
        self._runs.append((batch_row, track, start_ns, prices, release_ns, banks))
        Span.allocated += 1

    def _attach(self, fields: Tuple[Any, ...], parent: int, attrs: Dict[str, Any]) -> int:
        """Append a row of ``fields`` (name, category, start, end, track)."""
        order = -1
        if parent >= 0:
            self._attached += 1
            order = self._attached
            self._children = None
        rows = self._rows
        rows.append((*fields, parent, order))
        self._attrs.append(attrs)
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
        row = self.record(name, category, start_ns, end_ns, track, parent_row, **attrs)
        span = self._views[row] = Span(self, row)  # not `view`: that would derive mid-run
        return span

    def view(self, row: int) -> Span:
        """The one view of a row (a derived root's is its own span)."""
        self._fresh()
        span = self._views.get(row)
        if span is None:
            span = self._views[row] = Span(self, row)
        return span

    @property
    def roots(self) -> List[Span]:
        """Top-level spans in creation order (adopted spans excluded)."""
        self._fresh()
        return [self.view(row) for row, fields in enumerate(self._rows) if fields[5] < 0]

    def _child_rows(self, row: int) -> List[int]:
        self._fresh()
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

    def _reparent(self, row: int, parent: int) -> None:
        name, category, start_ns, end_ns, track, _, _ = self._rows[row]
        self._attached += 1
        self._rows[row] = (name, category, start_ns, end_ns, track, parent, self._attached)
        self._children = None

    # ------------------------------------------------------------------
    # Derivation: what registered entries read back as
    # ------------------------------------------------------------------
    def _row(self, row: int) -> Row:
        self._fresh()
        return self._rows[row]

    def _fresh(self) -> None:
        if self._stale or self._runs:
            self._derive_all()

    def _derive_all(self) -> None:
        runs, self._runs = self._runs, []
        for batch_row, track, start, prices, release_ns, banks in runs:
            for price in prices:  # back to back, as the lanes placed them
                finish = start + price.latency_ns
                attrs = {"latency_ns": price.latency_ns, "release_ns": release_ns, "banks": banks}
                self._attach((price.name, "exec", start, finish, track), batch_row, attrs)
                start = finish
        stale, self._stale = self._stale, []
        # In registration order: an adopter before the roots it adopts.
        for span in sorted(set(stale), key=attrgetter("row")):
            self._derive(span)

    def _derive(self, span: DerivedSpan) -> None:
        name, category, start_ns, end_ns, attrs, children = span.derive()
        row = span.row
        held = self._rows[row]  # keeps its parent if it was adopted
        self._rows[row] = (name, category, start_ns, end_ns, None, held[5], held[6])
        if held is _UNDERIVED:
            self._attrs[row] = attrs
            self._views[row] = span
        else:
            self._attrs[row].update(attrs)
        for child in children[self._emitted.get(row, 0):]:
            if isinstance(child, DerivedSpan):
                if self._rows[child.row] is _UNDERIVED:
                    self._derive(child)
                self._reparent(child.row, row)
            else:
                self._attach((*child[:4], None), row, child[4])
        self._emitted[row] = len(children)


#: The shared no-op tracer behind ``observe=False``.
NULL_TRACER = Tracer(enabled=False)

#: The one inert span.
NULL_SPAN: Span = _NullSpan(NULL_TRACER, -1)
