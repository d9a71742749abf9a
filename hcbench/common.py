"""The result every workload returns, the one quantile rule, and the
host-speed probe that times are scaled by."""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass, field

#: the probe loop's median time (s) on the reference host; a scaled
#: time reads as if every probe loop had taken exactly this long
REFERENCE_PROBE_S = 1.5e-3


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of raw samples (no buckets)."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _probe_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class SpeedProbe:
    """How fast the host runs interpreted Python, sampled during the work.

    The shared reference host slows down and speeds up by up to ~1.7x
    over minutes, for every process alike: a process's CPU time grows
    with its wall time, so it is the CPU that is slower, not the process
    that waits.  The probe times a fixed pure-Python loop between pieces
    of the measured work, at most once every ``every_s``, and
    :meth:`scaled` turns a wall time measured over the same span into
    the time it would have taken at the reference speed.  A sample is
    the loop's CPU time, so a process that shares the CPU (the server,
    finishing a request) does not count as a slow host.  The probe's
    own wall time is kept in ``spent_s`` so callers leave it out.
    """

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._next = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0, c0 = time.perf_counter(), time.process_time()
            _probe_loop()
            self.samples.append(time.process_time() - c0)
            t1 = time.perf_counter()
            self._next = t1 + self.every_s
            self.spent_s += t1 - t0

    def maybe(self) -> None:
        """Take a sample if ``every_s`` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scaled(self, wall_s: float) -> float:
        return wall_s * REFERENCE_PROBE_S / statistics.median(self.samples)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name (scale suffix ``.nK`` aside)."""
    stem = re.sub(r"\.n\d+$", "", name)
    if stem.startswith("analysis.fig_s."):
        return "s"
    if stem.endswith("_ms"):
        return "ms"
    if stem.endswith(("_us", "us_per_event")):
        return "us"
    if stem.endswith(("_ratio", "_share", "error_rate")):
        return "ratio"
    if stem.endswith("arcs_per_plan"):
        return "arcs"
    return "count"


@dataclass
class Result:
    """Counts, metrics and human-readable notes of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def add_layers(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.add(name, value, layer_unit(name))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
