"""All-pairs Definition-4 oracle for the arc-indexed verifier.

This is the direct reading of Definitions 3 and 4: a recursive subtree
walk for the reachable sets, and a loop over every one of the
``k(k-1)/2`` unicast pairs that intersects their arc sets.  It is
quadratic and recursion-bound, so the library does not use it; the
differential tests in ``test_contention_oracle.py`` hold
:func:`repro.core.contention.check_contention_free` to its answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.contention import ContentionReport, Unicast
from repro.core.paths import ResolutionOrder


def oracle_arcs(u: int, v: int, order: ResolutionOrder) -> list[tuple[int, int]]:
    """The ``(tail, dim)`` channels of ``P(u, v)`` in traversal order: scan
    the differing bits, then correct them highest first (descending) or
    lowest first (ascending)."""
    x = u ^ v
    dims = [d for d in range(x.bit_length()) if (x >> d) & 1]
    if order is ResolutionOrder.DESCENDING:
        dims.reverse()
    arcs = []
    for d in dims:
        arcs.append((u, d))
        u ^= 1 << d
    return arcs


def oracle_reachable_sets(source: int, unicasts: Iterable[Unicast]) -> dict[int, set[int]]:
    """Definition 3 by recursion over the tree of unicasts."""
    children: dict[int, list[int]] = {}
    nodes = {source}
    for uc in unicasts:
        children.setdefault(uc.src, []).append(uc.dst)
        nodes.add(uc.src)
        nodes.add(uc.dst)

    reach: dict[int, set[int]] = {}

    def collect(u: int) -> set[int]:
        if u in reach:
            return reach[u]
        r = {u}
        for c in children.get(u, ()):
            r |= collect(c)
        reach[u] = r
        return r

    for u in nodes:
        collect(u)
    return reach


def oracle_check_contention_free(
    source: int,
    unicasts: Sequence[Unicast],
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
    arcs_of=None,
) -> ContentionReport:
    """Definition 4 and causality, testing every pair of unicasts."""
    report = ContentionReport(ok=True)

    recv_step: dict[int, int] = {source: 0}
    for uc in unicasts:
        if uc.dst in recv_step:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.dst} receives the message more than once"
            )
        else:
            recv_step[uc.dst] = uc.step
    for uc in unicasts:
        got = recv_step.get(uc.src)
        if got is None:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} without ever receiving"
            )
        elif got >= uc.step:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} but only receives at step {got}"
            )

    reach = oracle_reachable_sets(source, unicasts)
    k = len(unicasts)
    if arcs_of is None:
        arcs = [set(oracle_arcs(uc.src, uc.dst, order)) for uc in unicasts]
    else:
        arcs = [set(arcs_of(uc.src, uc.dst)) for uc in unicasts]
    for i in range(k):
        for j in range(i + 1, k):
            shared = arcs[i] & arcs[j]
            if not shared:
                continue
            a, b = unicasts[i], unicasts[j]
            if a.step == b.step:
                ok = False
            elif a.step < b.step:
                ok = b.src in reach.get(a.src, set())
            else:
                ok = a.src in reach.get(b.src, set())
            if not ok:
                report.ok = False
                report.violations.append((a, b, min(shared)))
    return report
