#!/usr/bin/env python
"""Do the benchmark artifacts repeat byte for byte?

The seven CI benchmark smokes and ``examples/trace_timeline.py`` write
``BENCH_*.json`` / ``TRACE_*.json`` from virtual-clock numbers only, so two
runs of one tree must produce identical files — a differing byte means host
time, process randomness, dict-order or ``id()`` leaked into a modeled
number (``perf/run.py --check-repeat`` guards the same property for
``perf/``).  This tool runs the smokes into a scratch directory and compares
every artifact against a first pass::

    python tools/check_artifacts_repeat.py              # both passes, ~1 min
    python tools/check_artifacts_repeat.py --against .  # CI: the smoke steps
                                                        # already wrote pass one

Exit status is 1 on the first differing (or missing) artifact, naming it.
Stdlib-only, like the other tools.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: The ``benchmarks/bench_<name>.py`` smokes CI runs, in CI order.
SMOKES = (
    "service_batch",
    "service_frontend",
    "cluster",
    "pipeline",
    "optimizer",
    "writes",
    "elastic",
)

ARTIFACT_GLOBS = ("BENCH_*.json", "TRACE_*.json")


def run_pass(directory: Path) -> None:
    """Run every smoke (and the trace example) writing into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    source = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=f"{source}{os.pathsep}{inherited}" if inherited else source,
        BENCH_JSON_DIR=str(directory),
    )
    for name in SMOKES:
        command = [
            sys.executable, "-m", "pytest", f"benchmarks/bench_{name}.py",
            "-q", "--benchmark-disable-gc", "-p", "no:cacheprovider",
        ]
        subprocess.run(command, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    # The example writes TRACE_timeline.json into its working directory.
    subprocess.run(
        [sys.executable, str(ROOT / "examples" / "trace_timeline.py")],
        cwd=directory, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def artifacts(directory: Path) -> Dict[str, Path]:
    """``name -> path`` of every artifact directly inside ``directory``."""
    return {
        path.name: path for pattern in ARTIFACT_GLOBS for path in directory.glob(pattern)
    }


def first_difference(first: Path, second: Path) -> Optional[str]:
    """The first artifact (by name) the two passes disagree on, as a
    one-line description; None when every file repeats byte for byte."""
    a, b = artifacts(first), artifacts(second)
    if not a and not b:
        return f"no BENCH_*.json / TRACE_*.json under {first} or {second}"
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            return f"{name}: only written by the {'first' if name in a else 'second'} pass"
        if a[name].read_bytes() != b[name].read_bytes():
            return f"{name}: {a[name]} and {b[name]} differ"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--against", type=Path, metavar="DIR",
        help="take the artifacts already in DIR as the first pass instead of running it",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifacts_repeat_") as scratch:
        first = args.against
        if first is None:
            first = Path(scratch) / "first"
            run_pass(first)
        second = Path(scratch) / "second"
        run_pass(second)
        difference = first_difference(first, second)
        if difference is not None:
            print(f"check_artifacts_repeat: {difference}", file=sys.stderr)
            return 1
        print(f"check_artifacts_repeat: {len(artifacts(second))} artifacts repeat byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
