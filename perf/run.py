#!/usr/bin/env python3
"""The repo's two-clock benchmark: four traffic workloads through ``PimSession``.

Two clocks, always named:

* **virtual** — what the modeled DRAM/PIM device would take.  Deterministic:
  the same seed gives the same value to the last bit.
* **host** — ``time.perf_counter`` / ``ru_maxrss`` of this Python process.
  Noisy; reported as the median over the timed repeats.

One workload, as the benchmark driver runs it::

    python3 perf/run.py --workload svc_plain_conj --seed 7 --seconds 20 --trace 0

prints every metric by name with its unit and clock, then — as the last
line of standard output — one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  Without ``--workload`` every workload
runs in its own fresh subprocess, one after another, and the results are
merged into ``<out>/RESULT.json``; ``--traced`` adds the per-layer pass and
``--check-repeat`` runs everything twice and feeds both to ``compare.py``.

See ``perf/README.md`` for the protocol and the metric tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import PimSession  # noqa: E402
from repro.cluster import ElasticController  # noqa: E402
from repro.obs import Span  # noqa: E402

from oracle import Oracle  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import SPECS, Workload, WorkloadSpec, build  # noqa: E402

#: name -> (unit, clock).  Bounds and directions live in BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "host"),
    "sim_req_per_wall_s": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "modeled_krps": ("kreq/s", "virtual"),
    "sojourn_p50_us": ("us", "virtual"),
    "sojourn_p99_us": ("us", "virtual"),
    "energy_uj_per_req": ("uJ/req", "virtual"),
    "slo_met_frac": ("frac", "virtual"),
}

#: Per-layer metrics beyond ``<layer>.self_ms`` / ``<layer>.calls``.
#: "virtual" here means exact: a count or modeled quantity that repeats to
#: the last bit for one seed; "host" ones are timings.
PER_LAYER_EXTRA: Dict[str, Tuple[str, str]] = {
    "ambit.bitvector.alloc_mb": ("MB", "virtual"),
    "service.planner.primitives_per_req": ("count", "virtual"),
    "ambit.engine.distinct_costs": ("count", "virtual"),
    "api.session.us_per_req_q4_over_q1": ("ratio", "host"),
    "service.frontend.batches": ("count", "virtual"),
    "service.frontend.mean_batch_size": ("count", "virtual"),
    "service.frontend.rejected": ("count", "virtual"),
    "service.frontend.shed": ("count", "virtual"),
    "service.frontend.deadline_misses": ("count", "virtual"),
    "service.frontend.wait_p99_us": ("us", "virtual"),
    "service.lanes.bank_idle_frac": ("frac", "virtual"),
    "service.lanes.device_idle_frac": ("frac", "virtual"),
    "service.lanes.cross_batch_overlap_us": ("us", "virtual"),
    "optimizer.ops_eliminated": ("count", "virtual"),
    "optimizer.shared_subchains": ("count", "virtual"),
    "optimizer.host_merge_us": ("us", "virtual"),
    "cache.hit_ratio": ("frac", "virtual"),
    "cache.hits": ("count", "virtual"),
    "cache.misses": ("count", "virtual"),
    "cache.fills": ("count", "virtual"),
    "cache.bypasses": ("count", "virtual"),
    "cache.invalidations": ("count", "virtual"),
    "cache.evictions": ("count", "virtual"),
    "storage.writes": ("count", "virtual"),
    "storage.rebuilds": ("count", "virtual"),
    "cluster.frontend.fanout_mean": ("count", "virtual"),
    "cluster.frontend.merge_ops": ("count", "virtual"),
    "cluster.frontend.host_merge_us": ("us", "virtual"),
    "cluster.frontend.imbalance": ("ratio", "virtual"),
    "cluster.frontend.shard_advance_calls": ("count", "virtual"),
    "cluster.frontend.shard_advance_noop_frac": ("frac", "virtual"),
    "cluster.faults.kills": ("count", "virtual"),
    "cluster.faults.failovers": ("count", "virtual"),
    "cluster.faults.failover_failures": ("count", "virtual"),
    "cluster.controller.ticks": ("count", "virtual"),
    "cluster.controller.actions": ("count", "virtual"),
    "verify.overhead_frac": ("frac", "host"),
    "obs.overhead_frac": ("frac", "host"),
    "obs.spans_per_req": ("count", "virtual"),
    "trace.overhead_frac": ("frac", "host"),
    "trace.uncovered_frac": ("frac", "host"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_ms": ("ms", "host") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "virtual") for layer in LAYERS},
    **PER_LAYER_EXTRA,
}

MIN_TIMED_REPEATS = 2


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """Numbers of one repeat; the session and its responses are released."""

    setup_s: float
    timed_s: float
    ops: Dict[str, int]
    virtual: Dict[str, float]
    counters: Dict[str, float]


def open_session(workload: Workload) -> Tuple[PimSession, Optional[ElasticController]]:
    """Build the program under test from a workload's constructor kwargs."""
    kwargs = dict(workload.session_kwargs)
    if workload.tier == "cluster":
        session = PimSession.over_cluster(**kwargs)
        controller = ElasticController(session.backend) if workload.controller else None
        return session, controller
    return PimSession.over_service(**kwargs), None


def drive(session: PimSession, events: List[Any]) -> Tuple[Any, List[Any]]:
    """The timed region: submit every arrival, drain, roll up, read back."""
    submit = session.submit
    for event in events:
        submit(
            event.request,
            priority=event.priority,
            deadline_ns=event.deadline_ns,
            at_ns=event.arrival_ns,
        )
    session.drain()
    report = session.report()
    return report, session.responses()


def run_repeat(
    spec: WorkloadSpec,
    seed: int,
    scale: float,
    tracer: Optional[Tracer] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> Repeat:
    """Set up, time, and check one pass over the stream.

    ``overrides`` replace session kwargs (``controller`` toggles the
    elastic controller) for the sanitizer/observer overhead arms.
    """
    gc.collect()
    started = time.perf_counter()
    workload = build(spec, seed, scale)
    if overrides:
        overrides = dict(overrides)
        workload.controller = overrides.pop("controller", workload.controller)
        workload.session_kwargs.update(overrides)
    session, controller = open_session(workload)
    setup_s = time.perf_counter() - started

    oracle = Oracle(workload.events)
    spans_before = Span.allocated
    if tracer is not None:
        tracer.attach(session, workload.events, controller)
    gc.collect()
    started = time.perf_counter()
    try:
        report, responses = drive(session, workload.events)
        timed_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.detach()

    wrong = set(oracle.check(responses))
    failed = {
        i
        for i, response in enumerate(responses)
        if not response.completed or response.deadline_missed or i in wrong
    }
    completed = [r for r in responses if r.completed]
    limit_ns = spec.slo_us * 1e3
    met = sum(
        1
        for i, response in enumerate(responses)
        if i not in failed and response.sojourn_ns <= limit_ns
    )
    ops = {
        "attempted": len(responses),
        "completed": len(completed),
        "failed": len(failed),
        "oracle_mismatches": len(wrong),
    }
    virtual = {
        "modeled_krps": report.completed / report.makespan_ns * 1e6,
        "sojourn_p50_us": report.sojourn_p50_ns / 1e3,
        "sojourn_p99_us": report.sojourn_p99_ns / 1e3,
        "energy_uj_per_req": sum(r.energy_j for r in completed) / len(completed) * 1e6,
        "slo_met_frac": met / len(responses),
    }
    counters = _counters(session, controller, report, responses)
    counters["obs.spans_per_req"] = (Span.allocated - spans_before) / len(responses)
    return Repeat(setup_s, timed_s, ops, virtual, counters)


_CLUSTER_COUNTERS = (
    "cluster.frontend.fanout_mean",
    "cluster.frontend.merge_ops",
    "cluster.frontend.host_merge_us",
    "cluster.frontend.imbalance",
    "cluster.faults.kills",
    "cluster.faults.failovers",
    "cluster.faults.failover_failures",
    "cluster.controller.ticks",
    "cluster.controller.actions",
)


def _counters(
    session: PimSession, controller: Optional[ElasticController], report: Any, responses: List[Any]
) -> Dict[str, float]:
    """Exact per-layer counters read off the program's own reports."""
    details = report.details
    backend = session.backend
    if session.tier == "cluster":
        frontends = list(backend.shards)
        batches = sum(m.batches for m in details.per_shard)
        parts = sum(m.completed for m in details.per_shard)
        elastic = backend.elastic_summary()
        cluster = {
            "cluster.frontend.fanout_mean": details.cross_shard_fanout,
            "cluster.frontend.merge_ops": details.merge_ops,
            "cluster.frontend.host_merge_us": details.host_merge_ns / 1e3,
            "cluster.frontend.imbalance": details.imbalance,
            "cluster.faults.kills": elastic["shard_failures"],
            "cluster.faults.failovers": elastic["failovers"],
            "cluster.faults.failover_failures": elastic["failover_failures"],
            "cluster.controller.ticks": controller.ticks if controller else 0,
            "cluster.controller.actions": len(controller.events) if controller else 0,
        }
    else:
        frontends = [backend]
        batches, parts = details.batches, details.completed
        cluster = dict.fromkeys(_CLUSTER_COUNTERS, 0)
    lanes = [frontend.lane_metrics() for frontend in frontends]
    cache = {key: 0 for key in ("hits", "misses", "fills", "bypasses", "invalidations", "evictions")}
    for frontend in frontends:
        if frontend.cache is not None:
            snapshot = frontend.cache.snapshot()
            for key in cache:
                cache[key] += snapshot[key]
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.frontend.batches": batches,
        "service.frontend.mean_batch_size": parts / batches if batches else 0.0,
        "service.frontend.rejected": report.rejected,
        "service.frontend.shed": report.shed,
        "service.frontend.deadline_misses": report.deadline_misses,
        "service.frontend.wait_p99_us": report.wait_p99_ns / 1e3,
        "service.lanes.bank_idle_frac": statistics.fmean(m.bank_idle_fraction for m in lanes),
        "service.lanes.device_idle_frac": statistics.fmean(m.device_idle_fraction for m in lanes),
        "service.lanes.cross_batch_overlap_us": sum(m.cross_batch_overlap_ns for m in lanes) / 1e3,
        "optimizer.ops_eliminated": report.ops_eliminated,
        "optimizer.shared_subchains": report.shared_subchains,
        "optimizer.host_merge_us": 0.0 if session.tier == "cluster" else report.host_merge_ns / 1e3,
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        **{f"cache.{key}": value for key, value in cache.items()},
        "storage.writes": sum(1 for r in responses if r.completed and r.kind == "update"),
        **cluster,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _budgeted(seconds: float, step) -> int:
    """Call ``step()`` until one more call would overrun ``seconds``, and
    at least ``MIN_TIMED_REPEATS`` times.  Returns the number of calls."""
    started = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        spent = time.perf_counter() - started
        if calls >= MIN_TIMED_REPEATS and spent + spent / calls > seconds:
            return calls


def _same_virtual(repeats: List[Repeat]) -> bool:
    """Virtual metrics, counts and counters must repeat to the last bit."""
    first = repeats[0]
    return all(
        r.virtual == first.virtual and r.ops == first.ops and r.counters == first.counters
        for r in repeats[1:]
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Measure one workload in this process; returns its result document."""
    spec = SPECS[name]
    budget_started = time.perf_counter()  # the budget covers the warm-up too
    run_repeat(spec, seed, scale)  # discarded: the cold first pass is up to 3x slower

    def remaining() -> float:
        return seconds - (time.perf_counter() - budget_started)

    plain: List[Repeat] = []
    traced: List[Tuple[Repeat, Dict[str, Any]]] = []  # (repeat, Tracer.summary())
    last_tracer: Optional[Tracer] = None
    if not trace:
        _budgeted(remaining(), lambda: plain.append(run_repeat(spec, seed, scale)))
    else:
        # Single passes that price the sanitizer and the observer.
        arm_s = {
            arm: run_repeat(spec, seed, scale, overrides=overrides).timed_s
            for arm, overrides in _overhead_arms(spec).items()
        }

        def pair() -> None:
            nonlocal last_tracer
            plain.append(run_repeat(spec, seed, scale))
            # Only the summary is kept: a few hundred thousand retained spans
            # would slow the collector down for every later repeat.
            last_tracer = Tracer()
            repeat = run_repeat(spec, seed, scale, tracer=last_tracer)
            traced.append((repeat, last_tracer.summary()))

        _budgeted(remaining(), pair)

    repeats = plain + [r for r, _ in traced]
    first = repeats[0]
    correct = first.ops["oracle_mismatches"] == 0 and _same_virtual(repeats)
    timed_s = statistics.median(r.timed_s for r in plain)

    if not trace:
        values = {
            "setup_s": statistics.median(r.setup_s for r in plain),
            "sim_req_per_wall_s": first.ops["attempted"] / timed_s,
            "peak_rss_mb": _peak_rss_mb(),
            **first.virtual,
        }
        declared = END_TO_END
    else:
        values = _per_layer(first, timed_s, traced, arm_s)
        declared = PER_LAYER
        if out is not None:
            last_tracer.write(out / f"TRACE_{name}.json", name, traced[-1][0].timed_s)

    document = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "spec": spec.echo(),
        "repeats": len(plain),
        "correct": correct,
        "ops": dict(first.ops, p99_samples=first.ops["completed"]),
        "metrics": {
            key: {"value": values[key], "unit": unit, "clock": clock}
            for key, (unit, clock) in declared.items()
        },
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with (out / f"RUN_{name}_trace{int(trace)}.json").open("w") as handle:
            json.dump(document, handle, indent=1)
    return document


def _overhead_arms(spec: WorkloadSpec) -> Dict[str, Dict[str, Any]]:
    """Session overrides of the extra single passes that price the
    sanitizer and the observability plane (only where the workload runs
    with them on).  The observer arms drop the controller too: it forces
    a recording plane."""
    arms: Dict[str, Dict[str, Any]] = {}
    if spec.pipeline.get("sanitize"):
        arms["sanitize_off"] = dict(sanitize=False)
    if spec.pipeline.get("observe"):
        arms["observe_on"] = dict(sanitize=False, observe=True, controller=False)
        arms["observe_off"] = dict(sanitize=False, observe=False, controller=False)
    return arms


def _per_layer(
    first: Repeat,
    untraced_s: float,
    traced: List[Tuple[Repeat, Dict[str, Any]]],
    arm_s: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics: host timings are medians over the traced repeats,
    counts are read off the first one (they repeat exactly)."""
    requests = first.ops["attempted"]
    summaries = [summary for _, summary in traced]
    counts = summaries[0]
    traced_s = statistics.median(r.timed_s for r, _ in traced)
    advances = counts["shard_advance_calls"]
    values: Dict[str, float] = dict(first.counters)
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = statistics.median(s["self_s"][layer] for s in summaries) * 1e3
        values[f"{layer}.calls"] = counts["calls"][layer]
    values.update(
        {
            "ambit.bitvector.alloc_mb": counts["alloc_bytes"] / 1e6,
            "service.planner.primitives_per_req": counts["primitives"] / requests,
            "ambit.engine.distinct_costs": counts["distinct_costs"],
            "api.session.us_per_req_q4_over_q1": statistics.median(
                s["submit_q4_over_q1"] for s in summaries
            ),
            "storage.rebuilds": counts["rebuilds"],
            "cluster.frontend.shard_advance_calls": advances,
            "cluster.frontend.shard_advance_noop_frac": (
                counts["shard_advance_noops"] / advances if advances else 0.0
            ),
            "verify.overhead_frac": (
                untraced_s / arm_s["sanitize_off"] - 1.0 if "sanitize_off" in arm_s else 0.0
            ),
            "obs.overhead_frac": (
                arm_s["observe_on"] / arm_s["observe_off"] - 1.0 if "observe_on" in arm_s else 0.0
            ),
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            "trace.uncovered_frac": statistics.median(
                1.0 - s["under_shims_s"] / r.timed_s for r, s in traced
            ),
        }
    )
    return values


def report_lines(document: Dict[str, Any]) -> List[str]:
    """Every metric by name, with its unit and the clock it was read on."""
    name, ops = document["workload"], document["ops"]
    lines = [
        f"{name} ops_attempted={ops['attempted']} ops_completed={ops['completed']} "
        f"ops_failed={ops['failed']} oracle_mismatches={ops['oracle_mismatches']} "
        f"p99_samples={ops['p99_samples']} repeats={document['repeats']} "
        f"correct={document['correct']}"
    ]
    for key, metric in document["metrics"].items():
        lines.append(f"{name} {key} = {metric['value']:.6g} {metric['unit']} [{metric['clock']}]")
    return lines


def contract_line(document: Dict[str, Any]) -> str:
    """The driver's result object (last line of standard output)."""
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["ops"]["attempted"],
            "failed": document["ops"]["failed"],
            "metrics": {
                key: {"value": metric["value"], "unit": metric["unit"]}
                for key, metric in document["metrics"].items()
            },
        }
    )


# ----------------------------------------------------------------------
# Every workload, each in its own fresh process
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, out: Path) -> Dict[str, Any]:
    """Run the workloads strictly one after another (nothing concurrent)
    and merge their documents into ``<out>/RESULT.json``."""
    result: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale, "workloads": {},
    }
    for name in SPECS:
        entry: Dict[str, Any] = {}
        for trace in (0, 1) if args.traced else (0,):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", str(args.scale), "--out", str(out),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            if done.returncode != 0:
                raise SystemExit(f"{name} (trace {trace}) exited with {done.returncode}")
            with (out / f"RUN_{name}_trace{trace}.json").open() as handle:
                entry["per_layer" if trace else "end_to_end"] = json.load(handle)
        result["workloads"][name] = entry
    out.mkdir(parents=True, exist_ok=True)
    with (out / "RESULT.json").open("w") as handle:
        json.dump(result, handle, indent=1)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add the per-layer pass")
    parser.add_argument("--scale", type=float, default=1.0, help="stream-length multiplier")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice (traced) and compare the two")
    args = parser.parse_args(argv)

    if args.workload:
        document = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.out
        )
        print("\n".join(report_lines(document)))
        print(contract_line(document), flush=True)
        return 0 if document["correct"] else 1

    if args.check_repeat:
        import compare  # local: only this mode needs it

        args.traced = True
        first = run_all(args, args.out / "repeat_a")
        second = run_all(args, args.out / "repeat_b")
        return compare.report(first, second)
    result = run_all(args, args.out)
    return 0 if all(w["end_to_end"]["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
