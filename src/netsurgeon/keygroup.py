"""Group intercentrality and the key-group search.

The intercentrality of a set S prices its removal: it equals the drop in
aggregate play when S leaves the game, yet is computed from the intact
network through one |S| x |S| solve. Search strategies: exhaustive over all
size-k subsets, greedy one node at a time, and a dominance filter that
discards provably inferior candidates before scoring. Each search reads one
influence matrix M = (I - delta G)^-1: exhaustive search gathers the k x k
blocks of M in chunks and solves each chunk in one stacked call; greedy
search drops each pick from M by a Schur-complement downdate, O(n^2) a step.
Exhaustive search scores and ranks every subset, but builds result objects
only for the `top` groups it returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import NEAR_TIE, GameSpec, InputError, InternalCheckError, Network, NodeSet, rank_order

ENUMERATION_CAP = 10_000_000

# Subsets scored per stacked solve; bounds the gathered k x k blocks.
CHUNK = 4096

DOMINANCE_SLACK = 1e-12


@dataclass(frozen=True)
class GroupScore:
    """Removal value of a node set, split into direct and indirect parts."""

    group: NodeSet
    intercentrality: float
    direct_effect: float
    indirect_effect: float

    def check_definition(self, spec: GameSpec, tol: float = 1e-9) -> None:
        """Verify against a literal subgame solve; raises on disagreement."""
        rest = self.group.complement(spec.n)
        full = float(spec.b.sum())
        if len(rest) == 0:
            residual = 0.0
        else:
            idx = list(rest.members)
            sub = Network(
                tuple(spec.network.labels[i] for i in idx),
                spec.network.adjacency[np.ix_(idx, idx)].copy(),
            )
            # Deleting nodes never raises lambda_max, so the subgame stays certified.
            subgame = GameSpec(sub, spec.theta[idx], spec.delta)
            residual = float(subgame.solve(spec.theta[idx]).sum())
        if abs(full - residual - self.intercentrality) > tol:
            raise InternalCheckError(
                f"intercentrality {self.intercentrality:.12g} disagrees with subgame "
                f"difference {full - residual:.12g} for group {self.group.members}"
            )

    def to_json_dict(self, net: Network) -> dict:
        return {
            "group": list(self.group.labels(net)),
            "intercentrality": float(self.intercentrality),
            "direct_effect": float(self.direct_effect),
            "indirect_effect": float(self.indirect_effect),
        }


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
    """Removal value of s, from the intact network only."""
    if len(s) == 0:
        raise InputError("group must be nonempty")
    if s.members[-1] >= spec.n:
        raise InputError(f"node index {s.members[-1]} out of range for n={spec.n}")
    b_theta = spec.b
    b_unw = b_theta if spec.theta_is_ones() else spec.b_unit
    idx = np.array([s.members])  # one group, shape (1, k)
    m_ss = spec.columns(idx[0])[idx[0], :]
    d, direct = _score(m_ss[None], b_theta[idx], b_unw[idx])
    return _group_scores(idx, d, direct)[0]


def key_group_exhaustive(
    spec: GameSpec, k: int, cap: int = ENUMERATION_CAP, workers: int = 1, top: int | None = None
) -> list[GroupScore]:
    """Score and rank every size-k subset; the best `top` of them, best first.

    Larger groups always score higher than their subsets, so only subsets of
    size exactly k are candidates for the size-at-most-k optimum. Every
    subset is scored and ranked whatever `top` is; only the returned ones
    become GroupScore objects, and top=None returns the full ranking.
    `workers` is accepted and ignored: the search runs in one thread.
    """
    if not 1 <= k <= spec.n:
        raise InputError(f"k must be between 1 and {spec.n}, got {k}")
    if top is not None and top < 1:
        raise InputError(f"top must be positive, got {top}")
    count = math.comb(spec.n, k)
    if count > cap:
        raise InputError(
            f"{count} subsets exceed the enumeration cap ({cap}); use the greedy mode"
        )
    b_theta = spec.b
    b_unw = b_theta if spec.theta_is_ones() else spec.b_unit
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
    pair need not contain the best singleton. The residual network's
    influence matrix is the Schur complement of the pick in the current one,
    and deleting nodes never breaks the spectral certificate.
    """
    if not 1 <= k <= spec.n:
        raise InputError(f"k must be between 1 and {spec.n}, got {k}")
    chosen: list[int] = []
    alive = np.arange(spec.n)
    m = spec.influence()
    for step in range(k):
        b_theta = m @ spec.theta[alive]
        b_unw = b_theta if spec.theta_is_ones() else m.sum(axis=1)
        single = b_unw * b_theta / np.diag(m)
        best = float(single.max())
        pick = int(np.flatnonzero(single >= best - NEAR_TIE * max(1.0, abs(best)))[0])
        chosen.append(int(alive[pick]))
        if step + 1 == k:
            break
        keep = np.delete(np.arange(len(alive)), pick)
        m = m[np.ix_(keep, keep)] - np.outer(m[keep, pick], m[pick, keep]) / m[pick, pick]
        alive = alive[keep]
    return intercentrality(spec, NodeSet.of(chosen, spec.n))


def _covers(m_full, b, high: NodeSet, low: NodeSet) -> bool:
    """True when high's profile dominates low's, so d_low <= d_high.

    Alignment pairs the t-th largest centrality of one group with the t-th
    largest of the other; domination must then hold entrywise for both the
    centralities and the influence blocks.
    """
    ih = sorted(high.members, key=lambda t: (-b[t], t))
    il = sorted(low.members, key=lambda t: (-b[t], t))
    if np.any(b[il] > b[ih] + DOMINANCE_SLACK):
        return False
    if np.any(m_full[np.ix_(il, il)] < m_full[np.ix_(ih, ih)] - DOMINANCE_SLACK):
        return False
    return True


def dominance_prune(spec: GameSpec, candidates: list[NodeSet]) -> list[NodeSet]:
    """Drop candidates that some other candidate provably outscores.

    Needs unit characteristics; the monotonicity argument behind the filter
    does not cover weighted theta. Mutually dominating (hence tied)
    groups keep only the lexicographically smallest. Conservative: never
    drops every optimizer, may keep prunable sets.
    """
    if not spec.theta_is_ones():
        raise InputError("dominance pruning requires theta = 1")
    if not candidates:
        return []
    sizes = {len(c) for c in candidates}
    if len(sizes) != 1:
        raise InputError(f"candidates must share one size, got sizes {sorted(sizes)}")
    if 0 in sizes:
        raise InputError("candidates must be nonempty")
    for c in candidates:
        if c.members[-1] >= spec.n:
            raise InputError(f"node index {c.members[-1]} out of range for n={spec.n}")
    b = spec.b_unit
    m_full = spec.influence()
    kept = []
    for x, s in enumerate(candidates):
        dropped = False
        for y, t in enumerate(candidates):
            if x == y or not _covers(m_full, b, t, s):
                continue
            if _covers(m_full, b, s, t):
                if t.members < s.members or (t.members == s.members and y < x):
                    dropped = True
                    break
            else:
                dropped = True
                break
        if not dropped:
            kept.append(s)
    return kept
