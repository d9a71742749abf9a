"""Run one workload of the repository benchmark and print its result.

    python3 hcbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``
and the planning service is started from it as a child process.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced
run.  Workload parameters and the reasons they were chosen live in
``hcbench/workloads.json``; ``hcbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def cpu_times() -> list[int]:
    """The host's aggregate CPU jiffies (user, nice, system, idle, ..., steal)."""
    with open("/proc/stat", encoding="ascii") as f:
        return [int(x) for x in f.readline().split()[1:]]


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One CPU for this process and every child it starts (the server
    # inherits it): a request then costs client plus server CPU time with
    # no cross-CPU wake-up, whose latency on a shared VM drifted from
    # minute to minute (plan-cold p50_ms spread across seeds: 0.32
    # unpinned, 0.15 pinned).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops the servers it started (context managers)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import figures
    import service

    params = workloads[args.workload]
    runner = figures.run if args.workload == "figures" else service.run
    before = cpu_times()
    result = runner(ROOT, params, args.seed, args.seconds, bool(args.trace))
    spent = [b - a for a, b in zip(before, cpu_times())]
    # a slow run on a shared VM is easier to read next to the host's steal
    print(f"# host: steal {100.0 * spent[7] / max(1, sum(spent)):.1f}% of CPU time during the run")
    for note in result.notes:
        print(f"# {args.workload}: {note}")
    for problem in result.problems:
        print(f"# {args.workload}: PROBLEM {problem}")
    for name, metric in result.metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
