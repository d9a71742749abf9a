"""Dimension-ordered and cube-ordered chains (Sections 4.1-4.2).

The multicast algorithms all operate on *chains*: sequences of node
addresses with structural ordering guarantees.

- A *dimension-ordered chain* (Section 4.1) is a sequence sorted by the
  relation ``<_d``.  When addresses are resolved from the highest bit
  to the lowest, ``<_d`` coincides with ordinary integer order.
- A *``d0``-relative dimension-ordered chain* is a sequence whose
  element-wise XOR with ``d0`` is dimension-ordered; the U-cube family
  sorts the source and destinations into such a chain before routing.
- A *cube-ordered chain* (Definition 5) only requires that the members
  of every subcube appear contiguously.  Every dimension-ordered chain
  is cube-ordered (Theorem 4), but not conversely; ``weighted_sort``
  produces cube-ordered chains that are not dimension-ordered.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "dimension_compare",
    "dimension_sorted",
    "is_cube_ordered_chain",
    "is_cube_ordered_chain_bruteforce",
    "is_dimension_ordered_chain",
    "relative_chain",
    "unrelative_chain",
]


def dimension_compare(a: int, b: int) -> int:
    """Compare ``a`` and ``b`` under the dimension-order relation ``<_d``.

    Returns a negative number, zero, or a positive number as ``a <_d b``,
    ``a == b``, or ``b <_d a``.  With high-to-low address resolution the
    relation reduces to ordinary integer comparison (the paper notes
    this), which is how it is implemented; the formal definition in
    Section 4.1 is checked against this implementation in the tests.
    """
    return (a > b) - (a < b)


def dimension_sorted(addresses: Sequence[int]) -> list[int]:
    """Sort ``addresses`` into a dimension-ordered chain."""
    return sorted(addresses)


def relative_chain(d0: int, destinations: Sequence[int]) -> list[int]:
    """Build the ``d0``-relative dimension-ordered chain for a multicast.

    Returns the sorted sequence ``[0] + sorted(d ^ d0 for d in
    destinations)`` -- i.e. the chain in *relative* address space, in
    which the source always occupies position 0 with relative address 0.

    Raises:
        ValueError: if ``d0`` appears among the destinations or the
            destinations contain duplicates.
    """
    rel = [d ^ d0 for d in destinations]
    if 0 in rel:
        raise ValueError(f"source {d0} must not be one of the destinations")
    if len(set(rel)) != len(rel):
        raise ValueError("destination addresses must be distinct")
    return [0] + sorted(rel)


def unrelative_chain(d0: int, chain: Sequence[int]) -> list[int]:
    """Translate a relative chain back to absolute addresses."""
    return [d ^ d0 for d in chain]


def is_dimension_ordered_chain(chain: Sequence[int]) -> bool:
    """True if ``chain`` is a dimension-ordered chain (distinct, sorted)."""
    return all(chain[i] < chain[i + 1] for i in range(len(chain) - 1))


def is_cube_ordered_chain(chain: Sequence[int], n: int) -> bool:
    """True if ``chain`` is a cube-ordered chain of dimension ``n`` (Def. 5).

    A chain is cube-ordered iff the members of every subcube appear
    contiguously.  Checked recursively: split the chain by the top free
    bit; the bit values along the chain must form at most two runs, and
    each run must itself be cube-ordered one level down.  This is
    ``O(m * n)``; the test suite validates it against the ``O(4**n * m)``
    brute-force check below.
    """
    for d in chain:
        if not isinstance(d, int) or d < 0 or d >> n:
            return False
    if len(set(chain)) != len(chain):
        return False

    def rec(lo: int, hi: int, dim: int) -> bool:
        # chain[lo:hi] lies in a single subcube with `dim` free bits
        if hi - lo <= 1 or dim == 0:
            return True
        b = 1 << (dim - 1)
        first_bit = chain[lo] & b
        split = hi
        for i in range(lo + 1, hi):
            if (chain[i] & b) != first_bit:
                split = i
                break
        # after the split, the bit must never revert
        other_bit = first_bit ^ b
        for i in range(split, hi):
            if (chain[i] & b) != other_bit:
                return False
        return rec(lo, split, dim - 1) and rec(split, hi, dim - 1)

    return rec(0, len(chain), n)


def is_cube_ordered_chain_bruteforce(chain: Sequence[int], n: int) -> bool:
    """Literal transcription of Definition 5 (exponential; tests only)."""
    from repro.core.subcube import Subcube

    for d in chain:
        if not isinstance(d, int) or d < 0 or d >> n:
            return False
    if len(set(chain)) != len(chain):
        return False
    m = len(chain)
    for dim in range(n + 1):
        for mask in range(1 << (n - dim)):
            s = Subcube(n, dim, mask)
            member = [i for i in range(m) if chain[i] in s]
            if member and member[-1] - member[0] + 1 != len(member):
                return False
    return True
