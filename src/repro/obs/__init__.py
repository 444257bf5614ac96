"""``repro.obs`` — the observability plane: virtual-clock tracing + metrics.

Everything in this package rides the simulation's virtual clock; spans
are stamped post-hoc from timestamps the scheduler already computed, so
tracing a run is bit-exact with not tracing it (property-tested in
``tests/test_obs.py``).  Wall-clock imports are banned here by the
``obs-wall-clock`` rule in ``tools/lint_invariants.py``.

The public knob is ``observe=`` on :class:`~repro.service.ServiceFrontend`,
:class:`~repro.cluster.ClusterFrontend`, and :class:`~repro.api.PimSession`
(each pushes its plane down to the executors it owns):

* ``observe=False`` (default) — the shared :data:`NULL_OBSERVER`; hot
  paths allocate no span objects.
* ``observe=True`` — a fresh recording :class:`Observer`.
* ``observe=<Observer>`` — share one plane across components.

Export with :func:`write_trace` (Chrome/Perfetto trace-event JSON) or
:meth:`MetricsRegistry.snapshot`; render in-terminal with
``repro.analysis.timeline``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.export import build_trace, trace_events, write_trace
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.trace import NULL_SPAN, NULL_TRACER, DerivedSpan, Span, Tracer


class Observer:
    """One tracer + one metrics registry — the unit the ``observe=``
    knobs thread through the stack (session → frontend → executor, or
    cluster → every shard)."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def snapshot(self) -> Dict[str, Any]:
        """The metrics-snapshot dict (see ``tools/validate_bench.py``)."""
        return self.metrics.snapshot()


#: The shared no-op plane behind ``observe=False``.
NULL_OBSERVER = Observer(tracer=NULL_TRACER)


def resolve_observe(observe: Union[bool, Observer]) -> Observer:
    """Normalize an ``observe=`` knob value: ``False`` → the shared no-op
    observer, ``True`` → a fresh recording one, an observer → itself."""
    if isinstance(observe, Observer):
        return observe
    return Observer() if observe else NULL_OBSERVER


__all__ = [
    "Counter",
    "DerivedSpan",
    "Gauge",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observer",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "build_trace",
    "resolve_observe",
    "trace_events",
    "write_trace",
]
