"""Brute-force walk counts, the oracle of record for the walk closed forms.

A dynamic program over the adjacency counts discounted walks that keep off a
forbidden interior set, never touching the influence matrix or its factor;
truncation_tail_bound bounds what it leaves uncounted.
"""

from __future__ import annotations

import numpy as np

from netsurgeon import InputError, Network, NodeSet
def enumerate_avoiding_walks(
    net: Network, delta: float, i: int, j: int, s: NodeSet, max_len: int = 40
) -> float:
    """Brute-force truncated total of discounted i-to-j walks avoiding s.

    Dynamic program over (endpoint, length). A walk endpoint inside s is
    legal but cannot be extended, because extension would turn it into an
    interior node; the start position is never interior and so never masked.
    Exact for the walks it counts; the tail beyond max_len is bounded by
    truncation_tail_bound.
    """
    if max_len < 0:
        raise InputError(f"max_len must be nonnegative, got {max_len}")
    if not (0 <= i < net.n and 0 <= j < net.n):
        raise InputError(f"node indices ({i},{j}) out of range for n={net.n}")
    if s.members and s.members[-1] >= net.n:
        raise InputError(f"node index {s.members[-1]} out of range for n={net.n}")
    blocked = list(s.members)
    u = np.zeros(net.n)
    u[i] = 1.0
    total = u[j]
    weight = 1.0
    for step in range(1, max_len + 1):
        if step >= 2:
            u[blocked] = 0.0
        u = net.sparse_adjacency @ u
        weight *= delta
        total += weight * u[j]
    return float(total)


def truncation_tail_bound(delta: float, lambda_max: float, max_len: int) -> float:
    """Upper bound on everything enumerate_avoiding_walks leaves uncounted."""
    r = delta * lambda_max
    if r >= 1.0:
        return float("inf")
    return r ** (max_len + 1) / (1.0 - r)
