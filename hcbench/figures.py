"""The ``figures`` workload: the paper's Figures 9-14 as one serial sweep.

``run_sweep(FIGURES, fast=True, jobs=1)`` on a fresh in-memory cache.
It runs serially because wall-clock scaling of a process pool on a
2-CPU host would measure the OS scheduler, not the program.  Each
figure is gated: rendered at the archive precision it must be
byte-identical to the committed ``benchmarks/results`` table, and every
``check_figure`` shape claim must pass.  The sweep's inputs are the
paper's fixed destination sets, so the seed does not change them.
"""

from __future__ import annotations

import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import Result, SpeedProbe, quantile
from service import SERVICE_ONLY
from tracing import instrument, layer_metrics, new_tracer, probing, timed_points, write_spans

FIGURES = ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14")
#: committed archive name and rendering precision of each figure
ARCHIVE = {
    "fig9": ("fig09.txt", 2),
    "fig10": ("fig10.txt", 2),
    "fig11": ("fig11.txt", 0),
    "fig12": ("fig12.txt", 0),
    "fig13": ("fig13.txt", 0),
    "fig14": ("fig14.txt", 0),
}


def setup_seconds(root: Path, repeats: int, probe: SpeedProbe) -> list[float]:
    """Launch-to-ready times: a fresh interpreter importing the sweep.

    The child says when its imports are done, and the parent times that
    line.  Waiting for the child's exit with a timeout would not do: it
    polls in steps of up to 50 ms, which showed as 50 ms steps in the
    times.  ``probe`` samples the host's speed before each launch.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import repro.analysis.experiments; print('ready', flush=True)"
    times = []
    for _ in range(repeats):
        probe.sample(3)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=root, env=env, stdout=subprocess.PIPE
        ) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            line = proc.stdout.readline() if ready else b""
            times.append(time.perf_counter() - t0)
            if not ready:
                proc.kill()
            proc.communicate(timeout=120)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"importing the sweep failed: {line!r}, exit {proc.returncode}")
    return times


def sweep() -> dict:
    from repro.analysis.experiments import run_sweep

    return run_sweep(FIGURES, fast=True, jobs=1)


def figure_errors(root: Path, tables: dict) -> dict[str, list[str]]:
    """``{figure: problems}`` for every figure that fails a gate."""
    from repro.analysis.shapes import check_figure

    errors = {}
    for fig in FIGURES:
        name, precision = ARCHIVE[fig]
        expected = (root / "benchmarks" / "results" / name).read_text(encoding="utf-8")
        found = [] if tables[fig].render(precision) + "\n" == expected else [
            f"table differs from benchmarks/results/{name}"
        ]
        found += [f"claim failed: {c.claim} ({c.detail})" for c in check_figure(fig, tables[fig]) if not c.passed]
        if found:
            errors[fig] = found
    return errors


def _gate(root: Path, tables: dict, result: Result) -> None:
    errors = figure_errors(root, tables)
    result.attempted += len(FIGURES)
    result.failed += len(errors)
    result.wrong += len(errors)
    result.problems += [f"{fig}: {e}" for fig, found in errors.items() for e in found]


def run(root: Path, params: dict, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    if trace:
        return _run_traced(root, result)
    setup_probe = SpeedProbe()
    setups = setup_seconds(root, params["setup_repeats"], setup_probe)
    import repro.analysis.experiments  # noqa: F401 -- keep imports out of the first sweep
    # a fixed number of sweeps for a given --seconds, so a slow host makes
    # a run longer instead of changing what it measures
    sweeps = max(1, round(seconds / params["nominal_sweep_s"]))
    walls: list[float] = []
    cpus: list[float] = []
    scaled: list[float] = []
    speeds: list[float] = []
    points: list[float] = []
    for _ in range(sweeps):
        probe = SpeedProbe()
        with timed_points(points), probing(probe):
            c0, t0 = time.process_time(), time.perf_counter()
            tables = sweep()
            wall = time.perf_counter() - t0 - probe.spent_s
            cpus.append(time.process_time() - c0 - probe.spent_s)
        walls.append(wall)
        scaled.append(probe.scaled(wall))
        speeds.append(statistics.median(probe.samples) * 1e3)
        _gate(root, tables, result)
    wall_s = sum(scaled) / sweeps
    # CPU time next to wall time tells a slow host (both grow: contention)
    # from a blocked process (only wall grows); the probe's median loop
    # time gives the host's speed during each sweep
    result.note(
        f"sweeps={sweeps} walls_s={[round(w, 3) for w in walls]} "
        f"cpu_s={[round(c, 3) for c in cpus]} probe_ms={[round(p, 3) for p in speeds]} "
        f"scaled_s={[round(s, 3) for s in scaled]} points={len(points)} "
        f"setups_s={[round(s, 3) for s in setups]}"
    )
    result.add("setup_s", setup_probe.scaled(statistics.median(setups)), "s")
    result.add("wall_s", wall_s, "s")
    result.add("throughput_rps", len(points) / sweeps / wall_s, "1/s")
    result.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return result


def _run_traced(root: Path, result: Result) -> Result:
    points: list[float] = []
    with timed_points(points):
        t0 = time.perf_counter()
        tables = sweep()
        untraced = time.perf_counter() - t0
    tracer = new_tracer("hcbench-figures")
    with instrument(tracer), tracer.span("analysis.sweep") as top:
        traced_tables = sweep()
    traced = top.duration_us / 1e6
    for found in (tables, traced_tables):
        _gate(root, found, result)
    metrics = layer_metrics(tracer, "analysis.sweep")
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["p50_ms"] = quantile(points, 0.50) * 1e3
    metrics["p99_ms"] = quantile(points, 0.99) * 1e3
    metrics["error_rate"] = result.failed / result.attempted
    metrics.update(dict.fromkeys(SERVICE_ONLY, 0.0))  # the sweep never touches HTTP
    write_spans(tracer, root / "hcbench" / "out" / "spans-figures.json")
    result.note(
        f"untraced_s={untraced:.3f} traced_s={traced:.3f} "
        f"kernel_share={metrics['trace.kernel_share']:.3f} "
        f"unaccounted_ms={metrics['trace.unaccounted_ms']:.1f}"
    )
    result.add_layers(metrics)
    return result
