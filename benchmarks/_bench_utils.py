"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
from typing import Any


def emit(table_or_text) -> None:
    """Print a result table (or plain text) into the benchmark log.

    Benchmarks run with ``-s`` show these tables inline; without ``-s`` they
    are still captured by pytest and shown for failing benchmarks.
    """
    text = table_or_text.render() if hasattr(table_or_text, "render") else str(table_or_text)
    print("\n" + text)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars, tuples, and odd dict keys into JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def emit_trace(name: str, tracer, metrics=None) -> str:
    """Write ``TRACE_<name>.json`` — the Perfetto trace for one bench run.

    Uploaded alongside ``BENCH_<name>.json`` so a regression in the perf
    trajectory comes with the lane-level timeline that explains it: load
    the file at ui.perfetto.dev (or chrome://tracing) and read the bank
    lanes directly.  Validated in CI by ``tools/validate_bench.py``.
    """
    from repro.obs import build_trace

    directory = os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"TRACE_{name}.json")
    with open(path, "w") as handle:
        json.dump(build_trace(tracer, metrics=metrics), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return path


def emit_json(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` — the machine-readable perf trajectory.

    One JSON file per benchmark, overwritten on every run, so CI (and any
    tooling diffing runs over time) can track throughput, percentiles,
    makespans, and bank idle fractions without scraping tables.  The
    target directory defaults to the working directory and can be moved
    with ``BENCH_JSON_DIR``.
    """
    directory = os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    return path


def serve(backend, events, name: str):
    """Drive an arrival stream through a session over ``backend`` and drain
    it: the session's report and every envelope, in event order."""
    from repro.api import PimSession

    session = PimSession(backend, name=name)
    futures = session.submit_stream(events)
    session.drain()
    return session.report(), [future.record for future in futures]
