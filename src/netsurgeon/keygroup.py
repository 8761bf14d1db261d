"""Group intercentrality and the key-group search.

The intercentrality of a set S prices its removal: it equals the drop in
aggregate play when S leaves the game, yet is computed from the intact
network through one |S| x |S| solve. Search strategies: exhaustive over all
size-k subsets, and greedy one node at a time. Exhaustive search reads the
influence matrix M = (I - delta G)^-1 once, gathers the k x k blocks of M
in chunks and solves each chunk in one stacked call; it scores and ranks
every subset, but builds result objects only for the `top` groups it
returns. Greedy search uses the same identity as intercentrality and reads
no n x n array: each step prices the residual game from the columns
M[:, S] of the picks so far, one solve per pick, and a Cholesky factor of
M_SS, O(n |S|^2) a step beyond that solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .graphs import (
    NEAR_TIE,
    GameSpec,
    InputError,
    InternalCheckError,
    NodeSet,
    rank_order,
)

ENUMERATION_CAP = 10_000_000

# Subsets scored per stacked solve; bounds the gathered k x k blocks.
CHUNK = 4096


@dataclass(frozen=True)
class GroupScore:
    """Removal value of a node set, split into direct and indirect parts."""

    group: NodeSet
    intercentrality: float
    direct_effect: float
    indirect_effect: float


def _score(m_ss, b_theta_s, b_unw_s) -> tuple[np.ndarray, np.ndarray]:
    """Scores of stacked groups: m_ss (c, k, k), centralities (c, k)."""
    try:
        v = np.linalg.solve(m_ss, b_theta_s[..., None])
    except np.linalg.LinAlgError as exc:
        # Principal submatrices of the SPD influence matrix stay SPD.
        raise InternalCheckError(f"singular principal influence block: {exc}") from exc
    # matmul of (1, k) by (k, 1) is the same dot product as one group's b @ v.
    return (b_unw_s[:, None, :] @ v)[:, 0, 0], b_theta_s.sum(axis=1)


def _group_scores(groups, d, direct) -> list[GroupScore]:
    return [
        GroupScore(NodeSet(tuple(g)), x, y, x - y)
        for g, x, y in zip(groups.tolist(), d.tolist(), direct.tolist())
    ]


def intercentrality(spec: GameSpec, s: NodeSet) -> GroupScore:
    """Removal value of s, from the intact network only: the block M_SS
    (GameSpec.block) and one |S| x |S| solve."""
    if len(s) == 0:
        raise InputError("group must be nonempty")
    if s.members[-1] >= spec.n:
        raise InputError(f"node index {s.members[-1]} out of range for n={spec.n}")
    idx = np.array([s.members])  # one group, shape (1, k)
    d, direct = _score(spec.block(idx[0])[None], spec.b[idx], spec.b_unit[idx])
    return _group_scores(idx, d, direct)[0]


def key_group_exhaustive(
    spec: GameSpec, k: int, workers: int = 1, top: int | None = None
) -> list[GroupScore]:
    """Score and rank every size-k subset; the best `top` of them, best first.

    Larger groups always score higher than their subsets, so only subsets of
    size exactly k are candidates for the size-at-most-k optimum. Every
    subset is scored and ranked whatever `top` is; only the returned ones
    become GroupScore objects, and top=None returns the full ranking. More
    than ENUMERATION_CAP subsets are refused. `workers` is accepted and
    ignored: the search runs in one thread.
    """
    if not 1 <= k <= spec.n:
        raise InputError(f"k must be between 1 and {spec.n}, got {k}")
    if top is not None and top < 1:
        raise InputError(f"top must be positive, got {top}")
    count = math.comb(spec.n, k)
    if count > ENUMERATION_CAP:
        raise InputError(
            f"{count} subsets exceed the enumeration cap ({ENUMERATION_CAP}); use the greedy mode"
        )
    b_theta, b_unw = spec.b, spec.b_unit
    m_full = spec.influence()
    combos = itertools.chain.from_iterable(itertools.combinations(range(spec.n), k))
    groups = np.fromiter(combos, dtype=np.intp, count=count * k).reshape(count, k)
    d, direct = np.empty(count), np.empty(count)
    for lo in range(0, count, CHUNK):
        idx = groups[lo : lo + CHUNK]
        d[lo : lo + CHUNK], direct[lo : lo + CHUNK] = _score(
            m_full[idx[:, :, None], idx[:, None, :]], b_theta[idx], b_unw[idx]
        )
    order = rank_order(d, tuple(groups.T))[:top]
    return _group_scores(groups[order], d[order], direct[order])


def key_group_greedy(spec: GameSpec, k: int) -> GroupScore:
    """Pick the best single node k times, each step in the residual network.

    The returned score is measured in the original network, so it compares
    directly with exhaustive output. Can be strictly suboptimal: the best
    pair need not contain the best singleton. Deleting the chosen set S
    leaves the game on the rest C with centralities b_C - M_CS M_SS^-1 b_S
    and self-loops m_ii - M_iS M_SS^-1 M_Si, so each step reads only the
    columns M[:, S], one solve per pick, and a Cholesky factor of M_SS.
    Deleting nodes never breaks the spectral certificate.
    """
    if not 1 <= k <= spec.n:
        raise InputError(f"k must be between 1 and {spec.n}, got {k}")
    # Weighted and unweighted centralities side by side, reduced together.
    b = np.column_stack((spec.b, spec.b_unit))
    m_cs = np.empty((spec.n, k - 1))
    chosen: list[int] = []
    for step in range(k):
        cols = m_cs[:, :step]
        try:
            low = np.linalg.cholesky(cols[chosen])
        except np.linalg.LinAlgError as exc:
            # Principal submatrices of the SPD influence matrix stay SPD.
            raise InternalCheckError(f"singular principal influence block: {exc}") from exc
        # With M_SS = L L^T and W = L^-1 M_S., M_.S M_SS^-1 x_S = W^T L^-1 x_S.
        w = solve_triangular(low, cols.T, lower=True)
        res = b - w.T @ solve_triangular(low, b[chosen], lower=True)
        loops = spec.self_loops - np.einsum("ij,ij->j", w, w)
        loops[chosen] = 1.0  # about 0 for the chosen, whose scores are masked below
        single = res[:, 0] * res[:, 1] / loops
        single[chosen] = -np.inf
        best = float(single.max())
        pick = int(np.flatnonzero(single >= best - NEAR_TIE * max(1.0, abs(best)))[0])
        chosen.append(pick)
        if step + 1 < k:
            m_cs[:, step] = spec.columns([pick])[:, 0]
    return intercentrality(spec, NodeSet.of(chosen, spec.n))
