"""Test oracles: readings of networks, interventions and walk matrices the
library does not carry, and brute-force walk counts.

The walk counts are the oracle of record for the walk closed forms: a
dynamic program over the adjacency counts discounted walks that keep off a
forbidden interior set, never touching the influence matrix or its factor;
truncation_tail_bound bounds what it leaves uncounted.
"""

from __future__ import annotations

import numpy as np

from netsurgeon import InputError, Network, NodeSet, StructuralIntervention


def serialize(net: Network) -> str:
    """net as edge-list text: its edges, then its isolated nodes."""
    edges = net.edges()
    touched = {u for e in edges for u in e}
    lines = [f"{u} {v}" for u, v in edges] + [lab for lab in net.labels if lab not in touched]
    return "\n".join(lines) + "\n"


def degree(net: Network, i: int) -> int:
    return int(np.count_nonzero(np.concatenate(net.links) == i))


def as_matrix(iv: StructuralIntervention, n: int) -> np.ndarray:
    """The n x n change matrix C of iv."""
    c = np.zeros((n, n))
    for i, j, sign in iv.entries:
        c[i, j] = c[j, i] = float(sign)
    return c


def inverse(iv: StructuralIntervention) -> StructuralIntervention:
    """The change that undoes iv."""
    return StructuralIntervention(frozenset((i, j, -s) for i, j, s in iv.entries))


def node_removal(net: Network, labels) -> StructuralIntervention:
    """Delete every link touching the given nodes."""
    drop = {net.index_of(lab) for lab in labels}
    a = net.adjacency
    entries = set()
    for i in range(net.n):
        for j in range(i + 1, net.n):
            if a[i, j] and (i in drop or j in drop):
                entries.add((i, j, -1))
    return StructuralIntervention(frozenset(entries))


def walk_entry(wm, i: int, j: int) -> float:
    """w_ij of a WalkMatrix, whichever side of the partition i and j sit on."""
    row_e, col_e = i in wm.excluded.members, j in wm.excluded.members
    rows = wm.excluded.members if row_e else wm.kept.members
    cols = wm.excluded.members if col_e else wm.kept.members
    block = ((wm.kept_kept, wm.kept_excluded), (wm.excluded_kept, wm.excluded_excluded))
    return float(block[row_e][col_e][rows.index(i), cols.index(j)])


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
