"""Group intercentrality and the key-group search.

The intercentrality of a set S prices its removal: it equals the drop in
aggregate play when S leaves the game, yet is computed from the intact
network through one |S| x |S| solve. Search strategies: exhaustive over all
size-k subsets, and greedy one node at a time. Exhaustive search reads the
lower half of the influence matrix M = (I - delta G)^-1 once and streams the
subsets a chunk at a time, holding no array of all of them: pairs are priced
in closed form, other sizes by one stacked solve of their k x k blocks per
chunk. It keeps only the pool of subsets that can still place among the
best `top`, scores the pool by the stacked solve intercentrality uses, and
ranks the pool alone. Greedy search uses the same identity as
intercentrality and reads no n x n array: each step prices the residual
game from the columns M[:, S] of the picks so far, one solve per pick, and a
Cholesky factor of M_SS, O(n |S|^2) a step beyond that solve.
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

# Subsets per chunk of the search, and per stacked solve; bounds the gathered
# k x k blocks and the closed form's per-pair arrays.
CHUNK = 4096

# A pair's closed-form score is within _PAIR_SLACK * eps * max(b_unit) *
# (b_p + b_q) (|x_p| + |x_q|) / det of _score's; derived in _pair_scores.
_PAIR_SLACK = 128.0


@dataclass(frozen=True)
class GroupScore:
    """Removal value of a node set, split into direct and indirect parts."""

    group: NodeSet
    intercentrality: float
    direct_effect: float
    indirect_effect: float


def _score(m_ss, b_theta_s, b_unw_s) -> tuple[np.ndarray, np.ndarray]:
    """Scores of stacked groups: m_ss (c, k, k), centralities (c, k).

    Scores that overflow, or whose indirect part would, are refused as bad
    input: a finite equilibrium can still give them.
    """
    try:
        v = np.linalg.solve(m_ss, b_theta_s[..., None])
    except np.linalg.LinAlgError as exc:
        # Principal submatrices of the SPD influence matrix stay SPD.
        raise InternalCheckError(f"singular principal influence block: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        # matmul of (1, k) by (k, 1) is the same dot product as one group's b @ v.
        d, direct = (b_unw_s[:, None, :] @ v)[:, 0, 0], b_theta_s.sum(axis=1)
        finite = np.isfinite(d - direct).all()
    if not finite:
        raise InputError("theta is too large: the group intercentralities overflow")
    return d, direct


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


def _blocks(low, groups) -> np.ndarray:
    """The k x k blocks of M at sorted groups (c, k), gathered from low, whose
    lower triangle and diagonal are M's: entry (a, b) is low[g_max(a, b),
    g_min(a, b)], the bits influence() mirrors."""
    ar = np.arange(groups.shape[1])
    return low[groups[:, np.maximum.outer(ar, ar)], groups[:, np.minimum.outer(ar, ar)]]


def _scores(spec: GameSpec, low, groups) -> tuple[np.ndarray, np.ndarray]:
    """_score over groups, CHUNK groups per stacked solve."""
    d, direct = np.empty(len(groups)), np.empty(len(groups))
    for lo in range(0, len(groups), CHUNK):
        idx = groups[lo : lo + CHUNK]
        d[lo : lo + CHUNK], direct[lo : lo + CHUNK] = _score(
            _blocks(low, idx), spec.b[idx], spec.b_unit[idx]
        )
    return d, direct


def _subsets(n: int, k: int):
    """Every size-k subset of range(n), as rows of sorted indices, about CHUNK
    rows at a time. Pairs come a block of rows q of the strict lower triangle
    at a time, (p, q) for every p < q, with no Python loop per pair."""
    if k == 2:
        lo = 1
        while lo < n:
            # Rows lo <= q < hi hold (hi - lo)(hi + lo - 1) / 2 <= CHUNK pairs.
            hi = (1 + math.isqrt(1 + 4 * (lo * lo - lo + 2 * CHUNK))) // 2
            hi = max(lo + 1, min(n, hi))
            q, p = np.nonzero(np.tri(hi - lo, hi, lo - 1, dtype=bool))
            yield np.column_stack((p, q + lo))
            lo = hi
        return
    count = math.comb(n, k)
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    for lo in range(0, count, CHUNK):
        rows = min(CHUNK, count - lo)
        yield np.fromiter(combos, dtype=np.intp, count=rows * k).reshape(rows, k)


def _pair_scores(spec: GameSpec, low, groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form scores of pairs (p, q), p < q, each with a bound on its
    distance from _score's, and the direct parts.

    With A = M_SS, u = b_unit,S and t = b_S, the score is s = u^T A^-1 t =
    u^T x / det for x = adj(A) t and det = m_pp m_qq - m_pq^2. The bound:
    M's eigenvalues are 1 / (1 - delta lambda(G)) with |delta lambda(G)| < 1,
    so above 1/2, and at most M's largest row sum B = max(b_unit) >= 1; A's
    interlace them, so ||A^-1|| < 2, ||A|| <= B and kappa(A) < 2B (all up to
    the rounding of the held M). Let v = A^-1 t and e = eps.

    - _score's LU with partial pivoting solves (A + E) v' = t with
      |E| <= gamma_8 |L||U|, whose entries are at most 2 max(m_pp, m_qq), so
      ||E|| <= 32 e B and ||v' - v|| <= ||A^-1|| ||E|| ||v'|| <= 64 e B ||v'||;
      with its dot product, |s_solve - s| <= (64 B + 2) e ||u|| ||v||.
    - The closed form has x to within gamma_2 |adj(A)| |t| and det to within
      gamma_2 (m_pp m_qq + m_pq^2) <= gamma_2 det (kappa + 1)^2 / (2 kappa)
      <= gamma_2 det (B + 3/2). As || |A^-1| |t| || <= 2 sqrt(2) B ||v||,
      |s_closed - s| <= (16.2 B + 4) e ||u|| ||v||.

    The two differ by at most 87 e B ||u|| ||v||. (b_p + b_q) (|x_p| + |x_q|)
    / det bounds ||u|| ||v|| to within a factor 1 + 10 e B, and e B < 1e-3:
    M's spectral norm is below 1e9 in a certified game, so B < 1e9 sqrt(n),
    and the enumeration cap keeps n below 4,500. The slack returned,
    _PAIR_SLACK e B (b_p + b_q) (|x_p| + |x_q|) / det, covers both.

    _score's intermediates for a pair are at most 6 B (|t_p| + |t_q|) and its
    outputs 13 B^2 (|t_p| + |t_q|); the closed form's are at most
    21 B^2 (|t_p| + |t_q|). A pair with max(|t_p|, |t_q|) above the largest
    float / (64 B^2) is therefore scored by _score itself, exactly and with
    no slack, so _score overflows on some pair exactly when it overflows
    here, and raises the same refusal.
    """
    b, t = spec.b_unit, spec.b
    big = float(b.max())
    unit = _PAIR_SLACK * np.finfo(float).eps * big
    p, q = groups[:, 0], groups[:, 1]
    m_pp, m_qq, m_pq = low[p, p], low[q, q], low[q, p]
    u_p, u_q, t_p, t_q = b[p], b[q], t[p], t[q]
    with np.errstate(over="ignore", invalid="ignore"):
        x_p = m_qq * t_p - m_pq * t_q
        x_q = m_pp * t_q - m_pq * t_p
        det = m_pp * m_qq - m_pq * m_pq
        value = (u_p * x_p + u_q * x_q) / det
        slack = unit * (u_p + u_q) * (abs(x_p) + abs(x_q)) / det
        direct = t_p + t_q
    limit = np.finfo(float).max / (64.0 * big * big)
    if abs(t).max() > limit:
        unsure = np.flatnonzero(np.maximum(abs(t_p), abs(t_q)) > limit)
        if unsure.size:
            value[unsure], direct[unsure] = _scores(spec, low, groups[unsure])
            slack[unsure] = 0.0
    return value, slack, direct


def _pool(chunks, top):
    """(groups, value, slack, direct) of the candidates in chunks that can
    place among the best `top`: every one whose upper bound value + slack is
    at or above the floor v - NEAR_TIE * max(1, |v|) of v, the top-th
    largest lower bound value - slack.

    rank_order places a window, the best value w left and every value at or
    above w - NEAR_TIE * max(1, |w|), before anything below it; the floor
    rises with w, so the windows up to the top-th place hold only scores at
    or above the floor of the top-th best score. v is at most that score,
    so the pool holds all of them, and rank_order on the pool places its
    first `top` exactly as on every candidate. With one slack e for all the
    test reads value >= v' - NEAR_TIE * max(1, |v'|) - (2 + NEAR_TIE) e, for
    v' the top-th largest value. The floor only rises as chunks arrive, so
    each chunk is cut by the floor so far, and the kept ones are cut again
    whenever they have doubled.
    """
    kept, size, limit, floor = [], 0, 0, -np.inf
    for chunk in chunks:
        keep = chunk[1] + chunk[2] >= floor
        kept.append(tuple(a[keep] for a in chunk))
        size += len(kept[-1][1])
        if size > limit:
            pool, floor = _cut(kept, top)
            kept, size, limit = [pool], len(pool[1]), 2 * len(pool[1]) + CHUNK
    return _cut(kept, top)[0]


def _cut(kept, top):
    """The kept chunks joined and cut at their floor (_pool), and the floor;
    -inf while fewer than `top` are known."""
    groups, value, slack, direct = (np.concatenate(column) for column in zip(*kept))
    floor = -np.inf
    if top is not None and len(value) >= top:
        low = value - slack
        v = float(np.partition(low, len(low) - top)[len(low) - top])
        floor = v - NEAR_TIE * max(1.0, abs(v))
    keep = value + slack >= floor
    return (groups[keep], value[keep], slack[keep], direct[keep]), floor


def key_group_exhaustive(
    spec: GameSpec, k: int, workers: int = 1, top: int | None = None
) -> list[GroupScore]:
    """Every size-k subset ranked; the best `top` of them, best first.

    Larger groups always score higher than their subsets, so only subsets of
    size exactly k are candidates for the size-at-most-k optimum. Subsets
    are streamed a chunk at a time from M's lower half. Pairs are priced in
    closed form with a rounding bound (_pair_scores); other sizes, and pairs
    when top is None or reaches every pair, by _score itself. Only the pool
    that can still place among the best `top` (_pool) is kept; it is scored
    by _score and ranked by rank_order, so the result is rank_order over
    _score of every subset, cut to `top`, position for position and bit for
    bit. top=None returns the full ranking. More than ENUMERATION_CAP
    subsets are refused. `workers` is accepted and ignored: the search runs
    in one thread.
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
    spec._held_inverse()  # frees dpotri's array before the lower half is read
    low = spec._held_read([(0, spec.n)], np.empty((spec.n, spec.n)), lower=True)
    closed = k == 2 and top is not None and top < count

    def chunks():
        for groups in _subsets(spec.n, k):
            if closed:
                value, slack, direct = _pair_scores(spec, low, groups)
            else:
                value, direct = _scores(spec, low, groups)
                slack = np.zeros(len(groups))
            yield groups, value, slack, direct

    groups, value, _, direct = _pool(chunks(), top)
    if closed:
        value, direct = _scores(spec, low, groups)
    order = rank_order(value, tuple(groups.T))[:top]
    return _group_scores(groups[order], value[order], direct[order])


def key_group_greedy(spec: GameSpec, k: int) -> GroupScore:
    """Pick the best single node k times, each step in the residual network.

    Each pick is the first node of rank_order on the residual single-node
    scores: of the scores within NEAR_TIE * max(1, |best|) of the best, the
    lowest index. The returned score is measured in the original network,
    so it compares directly with exhaustive output. Can be strictly
    suboptimal: the best pair need not contain the best singleton. Deleting
    the chosen set S leaves the game on the rest C with centralities
    b_C - M_CS M_SS^-1 b_S and self-loops m_ii - M_iS M_SS^-1 M_Si, so each
    step reads only the columns M[:, S], one single-column solve per pick,
    and a Cholesky factor of M_SS. Deleting nodes never breaks the spectral
    certificate.
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
        loops = spec.self_loops - np.einsum("ij,ij->j", w, w)
        loops[chosen] = 1.0  # about 0 for the chosen, whose scores are masked below
        with np.errstate(over="ignore", invalid="ignore"):
            res = b - w.T @ solve_triangular(low, b[chosen], lower=True)
            single = res[:, 0] * res[:, 1] / loops
        single[chosen] = 0.0
        if not np.isfinite(single).all():
            raise InputError("theta is too large: the greedy single-node scores overflow")
        single[chosen] = -np.inf
        pick = int(rank_order(single, (np.arange(spec.n),))[0])
        chosen.append(pick)
        if step + 1 < k:
            unit = np.zeros(spec.n)
            unit[pick] = 1.0
            m_cs[:, step] = spec.solve(unit)
    return intercentrality(spec, NodeSet.of(chosen, spec.n))
