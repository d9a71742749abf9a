"""Differential tests: the arc-indexed Definition-4 verifier against the
all-pairs oracle in ``tests/core/contention_oracle.py``.

Verdicts, violations (their ``(i, j)`` order and ``min(shared)``
witness arcs) and causality errors must be identical on the paper's
trees, on trees whose steps are perturbed to force violations and
causality errors, and on mesh trees with XY channel sets.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.contention import Unicast, check_contention_free, reachable_sets
from repro.core.paths import ResolutionOrder
from repro.mesh import Mesh2D, UMesh
from repro.multicast.ports import ALL_PORT, ONE_PORT
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from tests.conftest import multicast_cases
from tests.core.contention_oracle import oracle_check_contention_free, oracle_reachable_sets


def assert_same(source, unicasts, order=ResolutionOrder.DESCENDING, arcs_of=None):
    got = check_contention_free(source, unicasts, order, arcs_of=arcs_of)
    want = oracle_check_contention_free(source, unicasts, order, arcs_of=arcs_of)
    assert got.ok == want.ok
    assert got.violations == want.violations
    assert got.causality_errors == want.causality_errors
    assert all(type(arc) is tuple for _, _, arc in got.violations)
    k = len(unicasts)
    assert len(got.violations) <= got.pairs_checked <= k * (k - 1) // 2
    return got


@st.composite
def perturbed(draw, unicasts, nodes):
    """Reassign some steps, then add unicasts from nodes outside the tree.

    New steps force same-step sharing and send-before-receive errors;
    the added senders never receive, and their targets may receive
    twice.  The added edges start at fresh nodes, so the tree of
    unicasts stays acyclic, as the recursive oracle needs.
    """
    out = list(unicasts)
    top = max((uc.step for uc in out), default=0) + 1
    if out:
        edits = st.tuples(st.integers(0, len(out) - 1), st.integers(1, top))
        for i, step in draw(st.lists(edits, max_size=len(out))):
            out[i] = Unicast(out[i].src, out[i].dst, step)
    used = {uc.src for uc in out} | {uc.dst for uc in out}
    fresh = [v for v in nodes if v not in used]
    if fresh:
        for src, dst, step in draw(
            st.lists(
                st.tuples(st.sampled_from(fresh), st.sampled_from(nodes), st.integers(1, top)),
                max_size=3,
            )
        ):
            if src != dst and dst not in fresh:
                out.append(Unicast(src, dst, step))
    return out


class TestExhaustive3Cube:
    @pytest.mark.parametrize("ports", [ALL_PORT, ONE_PORT], ids=["all-port", "one-port"])
    @pytest.mark.parametrize("order", list(ResolutionOrder), ids=lambda o: o.value)
    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    def test_every_source_and_destination_set(self, name, order, ports):
        alg = get_algorithm(name)
        shared = 0
        for source in range(8):
            others = [v for v in range(8) if v != source]
            for mask in range(1, 1 << 7):
                dests = [v for i, v in enumerate(others) if mask >> i & 1]
                ucs = alg.build_tree(3, source, dests, order).schedule(ports).unicasts
                shared += assert_same(source, ucs, order).pairs_checked > 0
                # every unicast in step 1: sharing pairs become violations
                assert_same(source, [Unicast(u.src, u.dst, 1) for u in ucs], order)
        if name == "ucube":
            assert shared  # the reachable-set branch runs on real schedules


class TestPerturbedSchedules:
    @given(
        multicast_cases(min_n=4, max_n=8),
        st.sampled_from(PAPER_ALGORITHMS),
        st.sampled_from(list(ResolutionOrder)),
        st.sampled_from([ALL_PORT, ONE_PORT]),
        st.data(),
    )
    def test_matches_oracle(self, case, name, order, ports, data):
        n, source, dests = case
        sched = get_algorithm(name).build_tree(n, source, dests, order).schedule(ports)
        ucs = data.draw(perturbed(sched.unicasts, list(range(1 << n))))
        assert_same(source, ucs, order)
        assert reachable_sets(source, ucs) == oracle_reachable_sets(source, ucs)


class TestMeshArcs:
    @given(st.integers(2, 6), st.integers(2, 6), st.sampled_from([ALL_PORT, ONE_PORT]), st.data())
    def test_matches_oracle(self, cols, rows, ports, data):
        mesh = Mesh2D(cols, rows)
        nodes = list(range(mesh.size))
        source = data.draw(st.sampled_from(nodes))
        dests = data.draw(
            st.lists(st.sampled_from([v for v in nodes if v != source]), min_size=1, unique=True)
        )
        tree = UMesh().build_tree(mesh, source, dests)
        ucs = data.draw(perturbed(tree.schedule(ports).unicasts, nodes))
        assert_same(source, ucs, arcs_of=tree.arcs_of)
