"""Group intercentrality and the key-group search.

The intercentrality of a set S prices its removal: it equals the drop in
aggregate play when S leaves the game, yet is computed from the intact
network through one |S| x |S| solve. Both searches price a node p beside a
set S by the residual game that deleting S leaves (_residual):
d(S + p) = d(S) + r_p^theta r_p^1 / rho_p. Greedy search reads no n x n
array, only the columns M[:, S] of its picks. Exhaustive search takes each
size-k subset once, a sorted (k - 1)-set S and one p > max S, reads
M = (I - delta G)^-1 in place from the game's held triangle, and streams
the subsets a chunk at a time; only the pool that can still place among
the best `top` is scored by the stacked solve intercentrality uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import NEAR_TIE, GameSpec, InputError, InternalCheckError, NodeSet, rank_order

ENUMERATION_CAP = 10_000_000

# Subsets per chunk of the search, and per stacked solve; bounds the arrays
# each chunk makes.
CHUNK = 4096


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


def _blocks(held, groups) -> np.ndarray:
    """The k x k blocks of M at sorted groups (c, k), read in place from the
    held (triangle, diagonal) of GameSpec._held_inverse: entry (a, b) off the
    diagonal is triangle[g_max(a, b), g_min(a, b)], the bits influence()
    mirrors."""
    tri, diag = held
    ar = np.arange(groups.shape[1])
    out = tri[groups[:, np.maximum.outer(ar, ar)], groups[:, np.minimum.outer(ar, ar)]]
    out[:, ar, ar] = diag[groups]
    return out


def _scores(spec: GameSpec, held, groups) -> tuple[np.ndarray, np.ndarray]:
    """_score over groups, CHUNK groups per stacked solve."""
    d, direct = np.empty(len(groups)), np.empty(len(groups))
    for lo in range(0, len(groups), CHUNK):
        idx = groups[lo : lo + CHUNK]
        d[lo : lo + CHUNK], direct[lo : lo + CHUNK] = _score(
            _blocks(held, idx), spec.b[idx], spec.b_unit[idx]
        )
    return d, direct


def _forward(low, x) -> np.ndarray:
    """low^-1 x by forward substitution, for lower-triangular low (s, s, ...)
    and x (s, ...); the trailing axes broadcast."""
    y = np.empty(x.shape[:1] + np.broadcast_shapes(low.shape[2:], x.shape[1:]))
    for j in range(len(x)):
        row = x[j] - np.einsum("i...,i...->...", low[j, :j], y[:j]) if j else x[j]
        np.divide(row, low[j, j], out=y[j])
    return y


def _factor(m_ss, b_s) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1 b_S): the Cholesky factor of the blocks M_SS (..., s, s),
    moved to (s, s, ...), and the centralities b_S (s, 2, ...), at theta and
    at theta = 1, solved against it."""
    try:
        low = np.moveaxis(np.linalg.cholesky(m_ss), (-2, -1), (0, 1))
    except np.linalg.LinAlgError as exc:
        # Principal submatrices of the SPD influence matrix stay SPD.
        raise InternalCheckError(f"singular principal influence block: {exc}") from exc
    return low, _forward(low, b_s)


def _residual(low, y, m_sp, m_pp, b_p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual game that deleting S leaves, at candidates p: with
    (L, y) from _factor, m_sp = M_Sp (s, ...), m_pp (...) and b_p (2, ...),
    (w, rho, res) for w = L^-1 M_Sp, the self-loops rho_p = m_pp - w^T w and
    the centralities res_p = b_p - y^T w, as M_pS M_SS^-1 x_S = w^T L^-1 x_S."""
    w = _forward(low, m_sp)
    rho = m_pp - np.einsum("i...,i...->...", w, w)
    return w, rho, b_p - np.einsum("ik...,i...->k...", y, w)


def _extensions(sets, n: int):
    """(i, p, groups) for each row i of sets, sorted subsets of range(n), and
    each p in range(max(sets[i]) + 1, n), with the groups sets[i] + [p]:
    whole rows of sets at a time, about CHUNK pairs."""
    counts = n - 1 - np.max(sets, axis=1, initial=-1)
    ends = np.cumsum(counts)
    a = 0
    while a < len(sets):
        lo = int(ends[a] - counts[a])
        z = max(a + 1, int(np.searchsorted(ends, lo + CHUNK, side="right")))
        i = np.repeat(np.arange(a, z), counts[a:z])
        p = (n - ends)[i] + np.arange(lo, int(ends[z - 1]))  # pairs lo, lo + 1, ... of all
        yield i, p, np.concatenate((np.take(sets, i, axis=0), p[:, None]), axis=1)
        a = z


def _subsets(n: int, m: int):
    """Every size-m subset of range(n), about CHUNK sorted rows at a time: a
    sorted (m - 1)-subset of range(n - 1) and one index above its largest,
    built the same way from the empty set, each level resumed from this
    loop (not nested, so m may pass the recursion limit)."""
    levels = [iter([np.zeros((1, 0), dtype=np.intp)])]
    while levels:
        sets = next(levels[-1], None)
        if sets is None:
            levels.pop()
        elif len(levels) > m:
            yield sets
        else:
            levels.append(groups for _, _, groups in _extensions(sets, n - m + len(levels)))


def _priced(spec: GameSpec, held, k: int):
    """(groups, value, slack) for every size-k subset, a chunk at a time: a
    sorted (k - 1)-subset S of range(n - 1), factored once (_factor), and
    each p > max S, valued d(S) + r^theta r^1 / rho within slack of _score.

    The bound. For a group G let A = M_GG, u = b_unit,G, t = b_G,
    v = A^-1 t, e = eps and B = max(b_unit): M's eigenvalues lie in
    (1/2, B], so ||A^-1|| < 2 and |a_ij| <= B. _score's LU with partial
    pivoting is exact for A + E, |E| <= gamma_3k |L||U|, |l_ij| <= 1,
    |u_ij| <= 2^(k-1) B, so with its dot product it errs by at most
    2^(k+1) k^3 e B ||u|| ||v||. The identity is A's Cholesky factor
    [[L, 0], [w^T, rho^1/2]], exact for A + F, |F| <= gamma_(k+1) |L||L^T|
    <= gamma_(k+1) B, and its solves [y; r / rho^1/2] of t and u, each exact
    for L + D, |D| <= gamma_k |L|, dotted; with ||L|| <= B^1/2, ||L^-1|| <
    2^1/2 and ||y^theta|| <= B^1/2 ||v|| it errs by at most 6 k^2 e B ||u||
    ||v||. v = [L^-T (y^theta - w v_p); v_p], v_p = r^theta / rho, comes
    within a factor 1 + 8 k e B, e B < 1e-4 (B < 1e9 sqrt(n) when certified,
    n < 4,500 under the cap), and ||u|| ||v|| <= k max|u_G| max|v_G|. Among
    subnormals a product or quotient may err by h = s / 2, s the smallest
    subnormal, absolutely; on t's side these act as changes to t, or to LU's
    forward result, that A^-1 or U^-1 (||U^-1|| <= 2k) carry to the score:
    at most (2^k k^2 + 4 k^3 + k) B^2 h for _score, (2 k^2 + 3 k + 2) B^2 h
    here. The slack C (e B k max|u_G| max|v_G| + s B^2), C = 2^(k+1) k^3 +
    8 k^2, covers all of these.

    For T = max|t_G|, _score's intermediates are at most 2^(k+1) k^2 B T and
    its outputs (2 k B + k) T, the identity's at most 16 k B^2 T. A group
    with a node whose |t| reaches the largest float / (4 C B^2) (every node,
    where C overflows) is scored by _score itself, exactly and with no
    slack, so _score overflows on some group exactly when it would here.
    """
    n, b, (tri, diag) = spec.n, np.stack((spec.b, spec.b_unit)), held
    big, scale = float(spec.b_unit.max()), 2.0 ** min(k + 1, 1023) * k**3 + 8.0 * k * k
    unit, least = scale * np.finfo(float).eps * big * k, scale * 5e-324 * big * big
    huge = abs(spec.b) >= np.finfo(float).max / (4.0 * scale * big * big)
    for sets in _subsets(n - 1, k - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            # Per set S, along the last axis: L (s, s, c), y (s, 2, c), d(S), max u_S.
            low, y = _factor(_blocks(held, sets), np.take(b, sets.T, axis=1).swapaxes(0, 1))
            d_s = np.einsum("i...,i...->...", y[:, 0], y[:, 1])
        u_s = b[1][sets].max(axis=1, initial=0.0)
        for i, p, groups in _extensions(sets, n):
            sets_i, b_p = groups[:, :-1], np.take(b, p, axis=1)
            low_i, y_i = np.take(low, i, axis=-1), np.take(y, i, axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):
                w, rho, (r_t, r_u) = _residual(low_i, y_i, tri[p, sets_i.T], diag[p], b_p)
                v_p = r_t / rho
                value = d_s[i] + v_p * r_u
                # L^T v_S = y - w v_p by forward substitution on both reversed (v_S reversed).
                v_s = _forward(np.swapaxes(low_i, 0, 1)[::-1, ::-1], (y_i[:, 0] - w * v_p)[::-1])
                size = np.maximum(abs(v_p), abs(v_s).max(axis=0, initial=0.0))
                slack = unit * np.maximum(b_p[1], u_s[i]) * size + least
            over = huge[groups].any(axis=1) if huge.any() else ()
            if np.any(over):
                value[over], slack[over] = _scores(spec, held, groups[over])[0], 0.0
            yield groups, value, slack


def _pool(chunks, top):
    """(groups, value, slack) of the candidates in chunks that can place
    among the best `top`: every one whose upper bound value + slack is at or
    above the floor v - NEAR_TIE * max(1, |v|) of v, the top-th largest
    lower bound value - slack.

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
    groups, value, slack = (np.concatenate(column) for column in zip(*kept))
    floor = -np.inf
    if top is not None and len(value) >= top:
        low = value - slack
        v = float(np.partition(low, len(low) - top)[len(low) - top])
        floor = v - NEAR_TIE * max(1.0, abs(v))
    keep = value + slack >= floor
    return (groups[keep], value[keep], slack[keep]), floor


def key_group_exhaustive(
    spec: GameSpec, k: int, workers: int = 1, top: int | None = None
) -> list[GroupScore]:
    """Every size-k subset ranked; the best `top` of them, best first.

    Larger groups always score higher than their subsets, so only subsets of
    size exactly k are candidates for the size-at-most-k optimum. Each is
    priced with a rounding bound (_priced); only the pool that can still
    place among the best `top` (_pool) is scored by _score and ranked, so
    the result is rank_order over _score of every subset, cut to `top`, bit
    for bit. top=None returns the full ranking. More than ENUMERATION_CAP
    subsets are refused. `workers` is accepted and ignored.
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
    held = spec._held_inverse()
    groups, _, _ = _pool(_priced(spec, held, k), top)
    value, direct = _scores(spec, held, groups)
    order = rank_order(value, tuple(groups.T))[:top]
    return _group_scores(groups[order], value[order], direct[order])


def key_group_greedy(spec: GameSpec, k: int) -> GroupScore:
    """Pick the best single node k times, each step in the residual network.

    Each pick is the first node of rank_order on the residual single-node
    scores: of the scores within NEAR_TIE * max(1, |best|) of the best, the
    lowest index. The returned score is measured in the original network,
    so it compares directly with exhaustive output. Can be strictly
    suboptimal: the best pair need not contain the best singleton. Each
    step prices every node in the residual game of the picks S so far
    (_residual) from the columns M[:, S], one solve per pick. Deleting nodes
    never breaks the spectral certificate.
    """
    if not 1 <= k <= spec.n:
        raise InputError(f"k must be between 1 and {spec.n}, got {k}")
    # Weighted and unweighted centralities stacked, reduced together.
    b = np.stack((spec.b, spec.b_unit))
    m_cs = np.empty((spec.n, k - 1))
    chosen: list[int] = []
    for step in range(k):
        cols = m_cs[:, :step]
        with np.errstate(over="ignore", invalid="ignore"):
            low, y = _factor(cols[chosen], b[:, chosen].T)
            _, loops, res = _residual(low, y, cols.T, spec.self_loops, b)
            loops[chosen] = 1.0  # about 0 for the chosen, whose scores are masked below
            single = res[0] * res[1] / loops
        single[chosen] = 0.0
        if not np.isfinite(single).all():
            raise InputError("theta is too large: the greedy single-node scores overflow")
        single[chosen] = -np.inf
        pick = int(rank_order(single, (np.arange(spec.n),))[0])
        chosen.append(pick)
        if step + 1 < k:
            m_cs[:, step] = spec.solve(np.eye(1, spec.n, pick)[0])
    return intercentrality(spec, NodeSet.of(chosen, spec.n))
