"""Contention between unicasts of a multicast implementation (Section 3.4).

A software multicast is a collection of unicasts ``(u, v, P(u, v), t)``;
``t`` is the (integer) time step in which the unicast is sent.  Two
unicasts whose paths share an arc may or may not contend for it,
depending on timing.  Definition 4 of the paper gives the condition
under which a pair is *guaranteed* contention-free regardless of
startup latency and message length:

- their paths are arc-disjoint; or
- the earlier unicast's source can only have obtained the message
  through the later unicast's subtree -- formally ``t < tau`` and the
  later sender ``x`` is in the reachable set ``R_u`` of the earlier
  sender ``u`` (Definition 3).

This module implements reachable sets, the pairwise condition, and a
whole-schedule verifier.  The verifier is deliberately *independent* of
the algorithms' own reasoning: it recomputes paths and reachable sets
from scratch so the property-based tests exercise the algorithms
against it.  It indexes the unicasts by arc, so only pairs that share a
channel are tested; the plain all-pairs loop is kept in the test suite
as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.paths import ARC_DIM_BITS, Arc, ResolutionOrder, ecube_arc_ids, ecube_arcs

__all__ = [
    "ContentionReport",
    "Unicast",
    "check_contention_free",
    "pair_contention_free",
    "reachable_sets",
]


@dataclass(frozen=True, slots=True)
class Unicast:
    """A constituent unicast ``(src, dst, P(src, dst), step)`` of a multicast.

    ``step`` is the 1-based time step in which the message is sent; all
    unicasts sent in the same step are considered (potentially)
    concurrent.
    """

    src: int
    dst: int
    step: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"unicast source and destination coincide ({self.src})")
        if self.step < 1:
            raise ValueError(f"unicast step must be >= 1, got {self.step}")

    def arcs(self, order: ResolutionOrder = ResolutionOrder.DESCENDING) -> list[Arc]:
        """The directed channels used by this unicast's E-cube path."""
        return ecube_arcs(self.src, self.dst, order)


@dataclass(slots=True)
class ContentionReport:
    """Result of verifying a unicast schedule against Definition 4."""

    ok: bool
    violations: list[tuple[Unicast, Unicast, Arc]] = field(default_factory=list)
    causality_errors: list[str] = field(default_factory=list)
    #: verifier cost: arc uses indexed, arcs held by two or more
    #: unicasts, and unicast pairs tested (the pairs sharing an arc)
    arcs: int = field(default=0, compare=False)
    shared_arcs: int = field(default=0, compare=False)
    pairs_checked: int = field(default=0, compare=False)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "contention-free"
        lines = [f"{len(self.violations)} contention violation(s)"]
        for a, b, arc in self.violations[:10]:
            lines.append(
                f"  {a.src}->{a.dst}@{a.step} vs {b.src}->{b.dst}@{b.step} share arc {arc}"
            )
        lines.extend(f"  causality: {e}" for e in self.causality_errors[:10])
        return "\n".join(lines)


def reachable_sets(source: int, unicasts: Iterable[Unicast]) -> dict[int, set[int]]:
    """Reachable set ``R_u`` for every node ``u`` in the multicast (Def. 3).

    ``R_u`` contains ``u`` itself plus every node that receives the
    message, directly or transitively, through a unicast originating at
    a node of ``R_u`` -- i.e. the subtree rooted at ``u`` when the
    multicast is viewed as a tree of unicasts.
    """
    children: dict[int, list[int]] = {}
    nodes = {source}
    for uc in unicasts:
        children.setdefault(uc.src, []).append(uc.dst)
        nodes.add(uc.src)
        nodes.add(uc.dst)

    # Iterative post-order: a chain multicast is one tree level per hop,
    # far deeper than the interpreter's recursion limit.
    reach: dict[int, set[int]] = {}
    entered: set[int] = set()
    for root in nodes:
        stack = [(root, False)]
        while stack:
            u, expanded = stack.pop()
            if u in reach:
                continue
            kids = children.get(u, ())
            if expanded:
                r = {u}
                for c in kids:
                    r.update(reach.get(c, ()))
                reach[u] = r
            elif u not in entered:  # met again before it finished: a cycle
                entered.add(u)
                stack.append((u, True))
                stack.extend((c, False) for c in kids if c not in reach)
    return reach


def pair_contention_free(
    a: Unicast,
    b: Unicast,
    reach: dict[int, set[int]],
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> tuple[bool, Arc | None]:
    """Definition 4 applied to one unordered pair of unicasts.

    Returns ``(True, None)`` if the pair is guaranteed contention-free,
    else ``(False, shared_arc)`` with a witness arc.
    """
    # Orient so `a` is the earlier (or equal-step) unicast.
    if b.step < a.step:
        a, b = b, a
    shared = set(a.arcs(order)) & set(b.arcs(order))
    if not shared:
        return True, None
    if a.step < b.step and b.src in reach.get(a.src, set()):
        return True, None
    return False, min(shared)


def check_contention_free(
    source: int,
    unicasts: Sequence[Unicast],
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
    arcs_of=None,
) -> ContentionReport:
    """Verify a whole multicast schedule against Definition 4.

    Also checks *causality*: every sender other than the multicast
    source must have received the message in a strictly earlier step
    than any step in which it sends.

    The unicasts are indexed by arc, so only pairs that share an arc are
    tested, and reachable sets are built only if such a pair exists.
    Violations come in ``(i, j)`` index order, each with the smallest
    shared arc as its witness.

    Args:
        arcs_of: optional ``(src, dst) -> channels`` override.  Defaults
            to E-cube paths in the given resolution order; the mesh
            extension passes XY-routed paths instead (Definition 4 is
            topology-agnostic once the channel sets are known).
    """
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

    if arcs_of is None:
        paths = [ecube_arc_ids(uc.src, uc.dst, order) for uc in unicasts]
    else:
        paths = [set(arcs_of(uc.src, uc.dst)) for uc in unicasts]
    owner: dict = {}
    users: dict = {}  # arc -> every unicast using it, once it has two
    for i, path in enumerate(paths):
        for arc in path:
            first = owner.setdefault(arc, i)
            if first != i:
                users.setdefault(arc, [first]).append(i)
    witness: dict[tuple[int, int], object] = {}  # (i, j) -> min shared arc
    for arc in sorted(users):
        idx = users[arc]
        for p, i in enumerate(idx):
            for j in idx[p + 1:]:
                witness.setdefault((i, j), arc)
    report.arcs = sum(map(len, paths))
    report.shared_arcs = len(users)
    report.pairs_checked = len(witness)
    if not witness:
        return report

    reach = reachable_sets(source, unicasts)
    for i, j in sorted(witness):
        a, b = unicasts[i], unicasts[j]
        early, late = (a, b) if a.step <= b.step else (b, a)
        if early.step < late.step and late.src in reach.get(early.src, ()):
            continue
        arc = witness[i, j]
        if arcs_of is None:
            arc = divmod(arc, 1 << ARC_DIM_BITS)
        report.ok = False
        report.violations.append((a, b, arc))
    return report
