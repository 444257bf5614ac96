#!/usr/bin/env python3
"""``perf/compare.py A.json B.json`` — did run B move against run A?

Both files are ``RESULT.json`` documents written by ``perf/run.py``.  One
row per workload and metric, each gated by the clock it was read on:

* **virtual** metrics and exact counters are deterministic for one seed, so
  they must agree to 1e-9 relative — in *either* direction.  A change that
  moves a modeled number has to say so; it cannot hide inside noise.
* **host** end-to-end metrics may get worse by at most the bound declared
  for them in ``BENCHMARK.json``; getting better always passes.
* host per-layer timings have no gate.  Their ``self_ms`` deltas are printed
  next to a workload's failed gate, so a red run arrives with its suspects.

Exit status 0 when every gate holds, 1 on a regression, 2 when the two runs
are not comparable (different seed or scale).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXACT = 1e-9


def declared_bounds() -> Dict[str, Tuple[str, float]]:
    """``name -> (better, bound)`` of the end-to-end metrics."""
    with (ROOT / "BENCHMARK.json").open() as handle:
        declared = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def _relative(a: float, b: float) -> float:
    """Signed change of ``b`` against ``a``, as a share of ``a``."""
    if a == b:
        return 0.0
    return (b - a) / abs(a) if a else math.copysign(math.inf, b)


def _rows(workload: str, a: Dict[str, Any], b: Dict[str, Any], bounds) -> Tuple[List[str], int]:
    lines: List[str] = []
    failures = 0
    for name, before in a["metrics"].items():
        after = b["metrics"][name]
        change = _relative(before["value"], after["value"])
        if before["clock"] == "virtual":
            gate, ok = "exact", abs(change) <= EXACT
        elif name in bounds:
            better, bound = bounds[name]
            worse = -change if better == "higher" else change
            gate, ok = f"<={bound:.0%} worse", worse <= bound
        else:
            gate, ok = "none", True
        failures += not ok
        # Passing exact rows (a hundred per workload) are left out.
        if not ok or (gate != "none" and before["clock"] == "host"):
            lines.append(
                f"{workload:26s} {name:38s} {before['value']:>14.6g} {after['value']:>14.6g} "
                f"{change:>+9.2%}  {gate:12s} {'ok' if ok else 'FAIL'}"
            )
    return lines, failures


def _layer_deltas(workload: str, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    lines = [f"{workload}: per-layer self_ms, A -> B"]
    for name, before in a["metrics"].items():
        if name.endswith(".self_ms") and (before["value"] or b["metrics"][name]["value"]):
            was, now = before["value"], b["metrics"][name]["value"]
            lines.append(f"    {name:32s} {was:>10.1f} {now:>10.1f} {now - was:>+10.1f}")
    return lines


def report(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Print the comparison; returns the process exit status."""
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"not comparable: seed/scale {a['seed']}/{a['scale']} vs {b['seed']}/{b['scale']}")
        return 2
    bounds = declared_bounds()
    print(f"{'workload':26s} {'metric':38s} {'A':>14s} {'B':>14s} {'change':>9s}  {'gate':12s} verdict")
    total = 0
    for workload, before in a["workloads"].items():
        after = b["workloads"][workload]
        failures = 0
        for part in ("end_to_end", "per_layer"):
            if part in before and part in after:
                lines, failed = _rows(workload, before[part], after[part], bounds)
                if lines:
                    print("\n".join(lines))
                failures += failed
        if failures and "per_layer" in before and "per_layer" in after:
            print("\n".join(_layer_deltas(workload, before["per_layer"], after["per_layer"])))
        total += failures
    print(f"{total} gate(s) failed" if total else "all gates hold (virtual metrics and counters identical)")
    return 1 if total else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return report(*documents)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
