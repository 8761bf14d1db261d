"""Discounted counts of walks that stay off a forbidden node set.

Entry (i, j) of the walk matrix totals delta^length over all i-to-j walks
whose interior nodes avoid the excluded set; endpoints are exempt, so walks
may start or end inside it. Closed forms fall out of block inversion of the
influence matrix; the walk matrix reads its blocks straight from the M its
game holds (GameSpec.influence_rows and influence_less, one reader over runs
of nodes), one inverse per game. Its kept-kept block is built as one lower
triangle: M_cc's lower half, less the symmetric part of the rank-|S| update
by one dsyr2k in place, then mirrored, so walks i -> j and j -> i carry the
same bits. Every operation here checks its result and refuses to return if
the check fails: the walk matrix against the equations of the network with
the excluded set deleted, whose residuals times max(b_unit) bound each
block's distance to the exact answer (walks that avoid a set are some of
all walks, so that network's inverse has row sums at most max(b_unit)); the
avoidance block by peeling the constraint off the other end, from the
block of the influence matrix on a and b (GameSpec.block: one forward
triangular solve and its Gram). The kept-kept residual is bounded from the
residual of the held M itself, O(nnz(G) n) once per game, so a walk query
costs O(n^2 |S|) for its answer and O(nnz(G) |S| + n_c^2) for its check,
n_c the number of kept nodes. The loop that forms that residual also forms
the kept-kept one when its bound fails.

The walk matrix also reads the intercentrality of S (keygroup): its direct
part is the members' own play b[S], and its indirect part is the play of
walks from outside into S, kept_excluded.sum(axis=0) @ b[S].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graphs import GameSpec, InputError, InternalCheckError, NodeSet, _inverse_residual

CROSS_ROUTE_TOL = 1e-9

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(m: int) -> float:
    """m u / (1 - m u): the relative error bound of m rounded operations."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _require_agreement(gap: float, what: str) -> None:
    """Raise unless gap is within CROSS_ROUTE_TOL; a NaN gap fails."""
    if not gap <= CROSS_ROUTE_TOL:
        raise InternalCheckError(f"{what} by {gap:.3g}")


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """The four blocks of avoiding-walk totals for one excluded set."""

    excluded: NodeSet
    kept: NodeSet
    kept_kept: np.ndarray = field(repr=False)
    kept_excluded: np.ndarray = field(repr=False)
    excluded_kept: np.ndarray = field(repr=False)
    excluded_excluded: np.ndarray = field(repr=False)


def _direct_kept_residual(spec: GameSpec, keep: np.ndarray, w_cc, slack, reach) -> float:
    """max |A W_cc - I| plus the rounding its evaluation can make, formed from
    column blocks of W_cc through the sparse adjacency, O(nnz(G) n_c)."""
    g_cc = spec.network.sparse_adjacency[keep][:, keep]
    residual, size = _inverse_residual(
        g_cc, spec.delta, lambda lo, hi: np.ascontiguousarray(w_cc[:, lo:hi])
    )
    return residual + slack * (reach * size + 1.0)


def _deleted_network_gaps(spec: GameSpec, e: list, w_cc, w_cs, w_ss, m_cs) -> tuple:
    """Upper bounds on the kept-kept, kept-excluded and excluded-excluded
    blocks' distances to the exact walk counts of the network without e,
    given m_cs = M_cs, the held M's kept-excluded block as walk_matrix read it.

    The exact blocks are A^-1, delta A^-1 G_cs and I + delta G_ss +
    delta G_cs^T (delta A^-1 G_cs), A = I - delta G_cc, so the first two
    are off by A^-1 times the residuals, and the third by its own residual
    plus delta G_cs^T times the second's error. Each residual entry takes at
    most deg + 4 rounded operations, deg the largest degree, and the error
    those can make is added to it.

    The kept-kept residual is not formed. With M the held inverse,
    R = (I - delta G) M - I, R_cs = A W_cs - delta G_cs and U = W_cs M_cs^T,
    the block W_cc = fl(M_cc - fl((U + U^T) / 2)) (one dsyr2k) satisfies
    A W_cc - I = R_cc - R_cs M_cs^T + A (U - U^T) / 2 + A E_syr2k. Each
    entry of W_cc is a sum of 2|e| + 1 terms, so |E_syr2k| is at most
    gamma_(2|e|+1) (max|M| + sum_s max|W_cs[:, s]| max|M_cs[:, s]|). The
    antisymmetric part is U - U^T = M_cs (X - X^T) M_cs^T + E_w M_cs^T
    - M_cs E_w^T, X the computed M_ss^-1 (W_ss = 2I - X) and E_w the
    rounding of W_cs = fl(M_cs X), |E_w| <= gamma_|e| |M_cs| |X|; it is
    bounded from |X - X^T|, gamma_|e| |X| (both read off W_ss) and the
    column maxima of M_cs, O(|e|^2). So max |A W_cc - I| is bounded from
    the game's max |R| (GameSpec._held_residual, once per game) and column
    maxima of W_cs and M_cs, O(nnz(G) |e|). A probe A (W_cc P) - P on the
    two columns P = [1, (j + 1) / n_c], O(n_c^2), checks the block itself
    against the deleted network's equations; the larger of the two counts. Only when that bound fails is the residual
    formed, O(nnz(G) n_c), and the decision made by it.
    """
    delta, g = spec.delta, spec.network.sparse_adjacency
    n, k, n_c = spec.n, len(e), len(w_cc)
    keep = np.ones(n, dtype=bool)
    keep[e] = False
    deg = int(np.diff(g.indptr).max(initial=0))
    slack = _gamma(deg + 4)
    reach = 1.0 + delta * deg  # |A| |W| <= reach max|W| entrywise

    # One product by G of W_cs, W_cc P and the unit columns at e, embedded in n rows.
    probe = np.ones((n_c, 2))
    probe[:, 1] = np.arange(1, n_c + 1) / n_c
    embedded = np.zeros((n, 2 * k + 2))
    embedded[keep, :k] = w_cs
    walked = w_cc @ probe
    embedded[keep, k : k + 2] = walked
    embedded[e, k + 2 + np.arange(k)] = 1.0
    product = g @ embedded
    kept, out = product[keep], product[e]
    g_cs, g_ss = kept[:, k + 2 :], out[:, k + 2 :]

    cs_size = np.abs(w_cs).max(axis=0)  # per column, as is cs_miss
    cs_miss = np.abs(w_cs - delta * kept[:, :k] - delta * g_cs).max(axis=0)
    r_cs = float(cs_miss.max()) + slack * (reach * float(cs_size.max()) + delta * g_cs.max())
    miss_ss = float(np.abs(w_ss - np.eye(k) - delta * g_ss - delta * out[:, :k]).max())
    miss_ss += slack * (
        np.abs(w_ss).max() + 1.0 + delta * g_ss.max() + delta * (deg * float(cs_size.max()))
    )

    rho, m_size = spec._held_residual()
    rho += slack * (reach * m_size + 1.0)
    m_cs_size = np.abs(m_cs).max(axis=0)
    update = float(cs_size @ m_cs_size)  # bounds |W_cs| |M_cs|^T and |M_cs| |W_cs|^T entrywise
    # X's off-diagonal is -W_ss's exactly, its diagonal 2 - W_ss's within one rounding.
    x_size = np.abs(2.0 * np.eye(k) - w_ss) + 2.0 * _UNIT_ROUNDOFF * np.abs(w_ss)
    skew = m_cs_size @ (np.abs(w_ss - w_ss.T) + 2.0 * _gamma(k) * x_size) @ m_cs_size
    cs_miss += slack * (reach * cs_size + delta * g_cs.max(axis=0))
    identity = rho + float(cs_miss @ m_cs_size)
    identity += reach * (_gamma(2 * k + 1) * (m_size + update) + 0.5 * float(skew))
    tested = float(np.abs(walked - delta * kept[:, k : k + 2] - probe).max())
    r_cc = float(np.maximum(identity, tested))  # NaN-preserving

    bound = float(spec.b_unit.max())
    if not bound * r_cc <= CROSS_ROUTE_TOL:
        r_cc = _direct_kept_residual(spec, keep, w_cc, slack, reach)
    # |delta G_cs^T D| <= delta (largest column sum of G_cs) max|D| entrywise.
    return bound * r_cc, bound * r_cs, miss_ss + delta * (g_cs.sum(axis=0).max() * bound * r_cs)


def walk_matrix(spec: GameSpec, s: NodeSet) -> WalkMatrix:
    """All four avoiding-walk blocks for excluded set s.

    Schur-complement algebra on the M the game holds (one dpotri per game,
    made by its first call), O(n^2 |s|) a query. The kept-kept block is
    M_cc less (W_cs M_cs^T + M_cs W_cs^T) / 2, the symmetric part of the
    rank-|s| update W_cs M_cs^T: M_cc's lower half is read into the
    answer's array, one dsyr2k updates it in place and its strict lower
    triangle is mirrored, so the block is exactly symmetric and no second
    n_c x n_c array is made. The check makes no second inverse. With
    A = I - delta G_cc the deleted network's system (delta > 0, G 0/1),
    walks that avoid s are some of all walks, so
    0 <= A^-1 <= M_cc entrywise and ||A^-1||_inf <= max(b_unit). Bounds on
    the residuals A W_cc - I and A W_cs - delta G_cs, times max(b_unit),
    then bound each block's distance to the exact answer, and each bound
    must be within CROSS_ROUTE_TOL. The kept-kept residual is bounded from
    the held M's own residual, computed by the game's first walk query,
    O(nnz(G) n), and from the |s| columns, O(nnz(G) |s| + n_c^2) a query;
    only when that bound fails is it formed through the sparse adjacency,
    O(nnz(G) n), half a strip of columns at a time (_deleted_network_gaps).
    """
    if len(s) == 0 or len(s) >= spec.n:
        raise InputError("excluded set must be a nonempty proper subset of the nodes")
    if s.members[-1] >= spec.n:
        raise InputError(f"node index {s.members[-1]} out of range for n={spec.n}")
    kept = s.complement(spec.n)
    e = list(s.members)
    m_es = spec.influence_rows(e)
    m_cs = np.ascontiguousarray(np.delete(m_es, e, axis=1).T)
    m_ss = m_es[:, e]
    spec._held_residual()  # once per game, before this query's n x n update is made
    try:
        inv_ss = cho_solve(cho_factor(m_ss, lower=True, overwrite_a=True), np.eye(len(e)))
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(
            f"excluded-block of the influence matrix is not positive definite: {exc}"
        ) from exc
    w_cs = m_cs @ inv_ss
    w_cc = spec.influence_less(e, w_cs, m_cs)
    w_ss = 2.0 * np.eye(len(e)) - inv_ss
    gaps = _deleted_network_gaps(spec, e, w_cc, w_cs, w_ss, m_cs)
    for name, gap in zip(("kept-kept", "kept-excluded", "excluded-excluded"), gaps):
        what = f"walk counts miss the deleted network's equations on the {name} block"
        _require_agreement(gap, what)
    # Walks are symmetric, so the excluded-kept block is the checked one's transpose.
    return WalkMatrix(s, kept, w_cc, w_cs, w_cs.T, w_ss)


def avoidance_block(spec: GameSpec, a: NodeSet, b: NodeSet) -> np.ndarray:
    """Walks from a to b avoiding both sets in the interior.

    Two factorizations exist, peeling the avoidance constraint off either
    end; both are computed and must agree.
    """
    if len(a) == 0 or len(b) == 0:
        raise InputError("both node sets must be nonempty")
    if set(a.members) & set(b.members):
        raise InputError(f"node sets overlap: {sorted(set(a.members) & set(b.members))}")
    hi = max(a.members[-1], b.members[-1])
    if hi >= spec.n:
        raise InputError(f"node index {hi} out of range for n={spec.n}")
    k = len(a)
    m = spec.block(a.members + b.members)  # M on a then b, exactly symmetric
    m_aa, m_ab, m_bb = m[:k, :k], m[:k, k:], m[k:, k:]
    try:
        aa_ab = np.linalg.solve(m_aa, m_ab)
        bb_ba = np.linalg.solve(m_bb, m_ab.T)
        first = aa_ab @ np.linalg.inv(m_bb - m_ab.T @ aa_ab)
        second = np.linalg.solve(m_aa - m_ab @ bb_ba, bb_ba.T)
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(f"singular block in avoidance factorization: {exc}") from exc
    _require_agreement(float(np.max(np.abs(first - second))), "avoidance factorizations disagree")
    return first
