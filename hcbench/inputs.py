"""Seeded request stream for the planning-service workload.

Everything the benchmark sends is drawn here from ``random.Random(seed)``
before any timing starts, so the same seed gives the same requests and
the service only ever sees the generated bodies.

``cold_stream`` gives every request a distinct cache key.  Cube size
and endpoint are stratified (each block holds every (n, endpoint) pair
the same number of times) and the destination-set size is a stratified
log-uniform fraction of the cube, so the per-request cost distribution
is the same for every seed while the keys differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

ENDPOINTS = ("schedule", "verify", "simulate")


@dataclass(frozen=True)
class Plan:
    """One planning request: endpoint, cube, destinations, encoded body."""

    kind: str
    n: int
    destinations: tuple[int, ...]
    body: bytes
    #: whether the response is compared against an in-process result
    check: bool = False

    @property
    def path(self) -> bytes:
        return b"/v1/" + self.kind.encode()

    @property
    def key(self) -> tuple:
        return (self.kind, self.n, self.destinations)


class _Drawer:
    """Draws plans whose keys are unique across one stream."""

    def __init__(self, rng: random.Random, check_share: float) -> None:
        self.rng = rng
        self.check_share = check_share
        self.seen: set[tuple] = set()

    def plan(self, kind: str, n: int, fraction: float) -> Plan:
        nodes = (1 << n) - 1
        m = max(1, min(nodes, round(fraction * nodes)))
        while True:
            for _ in range(100):
                dests = tuple(sorted(self.rng.sample(range(1, nodes + 1), m)))
                if (kind, n, dests) not in self.seen:
                    self.seen.add((kind, n, dests))
                    body = json.dumps({"n": n, "destinations": list(dests)}).encode()
                    check = self.rng.random() < self.check_share
                    return Plan(kind, n, dests, body, check)
            m = m + 1 if m < nodes else 1  # every set of this size is taken


def _log_fraction(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _strata(rng: random.Random, combos: list, per_block: int) -> Iterator[tuple]:
    """Endless ``(*combo, u)``: each block holds every combo ``per_block``
    times with ``u`` stratified over [0, 1), in seeded order."""
    while True:
        block = [
            (*combo, (j + rng.random()) / per_block) for combo in combos for j in range(per_block)
        ]
        rng.shuffle(block)
        yield from block


def cold_stream(seed: int, params: dict) -> Iterator[Plan]:
    """Endless stream of requests with distinct keys."""
    rng = random.Random(f"cold:{seed}")
    drawer = _Drawer(rng, params["check_share"])
    lo, hi = params["m_fraction"]
    combos = [(n, kind) for n in params["n"] for kind in ENDPOINTS]
    for n, kind, u in _strata(rng, combos, params["stratum_size"]):
        yield drawer.plan(kind, n, _log_fraction(lo, hi, u))


def poisson_schedule(
    seed: int, rate: float, seconds: float, plans: Iterator[Plan]
) -> list[tuple[float, Plan]]:
    """``(due offset s, request)`` pairs of a Poisson arrival process."""
    rng = random.Random(f"arrivals:{seed}")
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append((t, next(plans)))
        t += rng.expovariate(rate)
    return out
