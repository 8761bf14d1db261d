"""Discounted counts of walks that stay off a forbidden node set.

Entry (i, j) of the walk matrix totals delta^length over all i-to-j walks
whose interior nodes avoid the excluded set; endpoints are exempt, so walks
may start or end inside it. Closed forms fall out of block inversion of the
influence matrix. Every operation here recomputes its result a second way
and refuses to return if the routes disagree: the walk matrix on the
node-deleted network, whose kept-to-kept block is inverted from its Cholesky
factor by LAPACK dpotri; the avoidance block by peeling the constraint off
the other end, from the |a| + |b| columns of the influence matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .graphs import STRIP, GameSpec, InputError, InternalCheckError, Network, NodeSet, fill_upper
from .keygroup import intercentrality

CROSS_ROUTE_TOL = 1e-9


def _require_agreement(gap: float, what: str) -> None:
    """Raise unless gap is within CROSS_ROUTE_TOL; a NaN gap fails."""
    if not gap <= CROSS_ROUTE_TOL:
        raise InternalCheckError(f"{what} by {gap:.3g}")


def _max_gap(ours: np.ndarray, alt: np.ndarray) -> float:
    """max |ours - alt| through one buffer a strip of rows tall, so no
    full-size difference is built; a NaN anywhere makes the gap NaN."""
    buf = np.empty_like(ours[:STRIP])
    gaps = []
    for lo in range(0, len(ours), STRIP):
        diff = np.subtract(ours[lo : lo + STRIP], alt[lo : lo + STRIP], out=buf[: len(ours) - lo])
        gaps.append(np.abs(diff, out=diff).max())
    return float(np.max(gaps))


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """The four blocks of avoiding-walk totals for one excluded set."""

    excluded: NodeSet
    kept: NodeSet
    kept_kept: np.ndarray = field(repr=False)
    kept_excluded: np.ndarray = field(repr=False)
    excluded_kept: np.ndarray = field(repr=False)
    excluded_excluded: np.ndarray = field(repr=False)

    def entry(self, i: int, j: int) -> float:
        """w_ij regardless of which side of the partition i and j sit on."""
        in_e = set(self.excluded.members)
        row_e, col_e = i in in_e, j in in_e
        rows = self.excluded.members if row_e else self.kept.members
        cols = self.excluded.members if col_e else self.kept.members
        block = {
            (False, False): self.kept_kept,
            (False, True): self.kept_excluded,
            (True, False): self.excluded_kept,
            (True, True): self.excluded_excluded,
        }[(row_e, col_e)]
        return float(block[rows.index(i), cols.index(j)])


def _spd_factor(matrix: np.ndarray, what: str):
    """Cholesky factor of matrix, in place where its layout allows."""
    try:
        return cho_factor(matrix, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(f"{what} is not positive definite: {exc}") from exc


def walk_matrix(spec: GameSpec, s: NodeSet) -> WalkMatrix:
    """All four avoiding-walk blocks for excluded set s.

    Primary route: Schur-complement algebra on the intact influence matrix.
    Check route: solve the game on the network with s deleted, where kept-to-
    kept totals are a plain inverse (LAPACK dpotri on the Cholesky factor of
    the kept system) and crossings peel off one explicit step.
    """
    if len(s) == 0 or len(s) >= spec.n:
        raise InputError("excluded set must be a nonempty proper subset of the nodes")
    if s.members[-1] >= spec.n:
        raise InputError(f"node index {s.members[-1]} out of range for n={spec.n}")
    kept = s.complement(spec.n)
    c = list(kept.members)
    e = list(s.members)
    m = spec.influence()
    w_cc = m[np.ix_(c, c)]
    m_cs = m[np.ix_(c, e)]
    m_ss = m[np.ix_(e, e)]
    del m
    inv_ss = cho_solve(_spd_factor(m_ss, "excluded-block of the influence matrix"), np.eye(len(e)))
    w_cs = m_cs @ inv_ss
    w_sc = inv_ss @ m_cs.T
    w_cc -= w_cs @ m_cs.T
    w_ss = 2.0 * np.eye(len(e)) - inv_ss

    a = spec.network.adjacency
    g_cs = a.take(e, axis=1).take(c, axis=0)
    g_ss = a.take(e, axis=0).take(e, axis=1)
    # I - delta G_cc, gathered in one copy and written in place; its transpose
    # is the same matrix in the Fortran order LAPACK factors and inverts
    # without a copy.
    system = a[np.ix_(c, c)]
    system *= -spec.delta
    system[np.diag_indices(len(c))] = 1.0
    kept_factor = _spd_factor(system.T, "kept-node system of the deleted network")
    peeled = cho_solve(kept_factor, g_cs)
    alt_cs = spec.delta * peeled
    alt_ss = spec.delta * (spec.delta * (g_cs.T @ peeled)) + spec.delta * g_ss + np.eye(len(e))
    alt_cc = fill_upper(dpotri(kept_factor[0], lower=True, overwrite_c=True)[0], mirror=True)
    for name, ours, alt in (
        ("kept-kept", w_cc, alt_cc),
        ("kept-excluded", w_cs, alt_cs),
        ("excluded-excluded", w_ss, alt_ss),
    ):
        _require_agreement(_max_gap(ours, alt), f"walk-count routes disagree on the {name} block")
    return WalkMatrix(s, kept, w_cc, w_cs, w_sc, w_ss)


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
    ia, ib = list(a.members), list(b.members)
    m = spec.columns(ia + ib)  # M[:, a] then M[:, b]
    m_aa = m[ia, : len(ia)]
    m_ab = m[ia, len(ia) :]
    m_bb = m[ib, len(ia) :]
    try:
        w_bb_no_a = m_bb - m_ab.T @ np.linalg.solve(m_aa, m_ab)
        first = np.linalg.solve(m_aa, m_ab) @ np.linalg.inv(w_bb_no_a)
        w_aa_no_b = m_aa - m_ab @ np.linalg.solve(m_bb, m_ab.T)
        second = np.linalg.solve(w_aa_no_b, np.linalg.solve(m_bb, m_ab.T).T)
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(f"singular block in avoidance factorization: {exc}") from exc
    _require_agreement(float(np.max(np.abs(first - second))), "avoidance factorizations disagree")
    return first


def intercentrality_decomposition(spec: GameSpec, s: NodeSet) -> dict:
    """Split the removal value of s into the members' own play and the play
    they relay to everyone else.

    direct: sum of centralities inside s. walk_mediated: outside players'
    exposure, priced by walks that reach s without crossing it. The two must
    recompose the intercentrality exactly.
    """
    if not spec.theta_is_ones():
        raise InputError("the decomposition requires theta = 1")
    wm = walk_matrix(spec, s)
    b = spec.b_unit
    idx = list(s.members)
    direct = float(b[idx].sum())
    walk_mediated = float(wm.kept_excluded.sum(axis=0) @ b[idx])
    d = intercentrality(spec, s).intercentrality
    _require_agreement(
        abs(direct + walk_mediated - d), f"decomposition of {s.members} misses the removal value"
    )
    return {"direct": direct, "walk_mediated": walk_mediated}


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
        u = net.adjacency @ u
        weight *= delta
        total += weight * u[j]
    return float(total)


def truncation_tail_bound(delta: float, lambda_max: float, max_len: int) -> float:
    """Upper bound on everything enumerate_avoiding_walks leaves uncounted."""
    r = delta * lambda_max
    if r >= 1.0:
        return float("inf")
    return r ** (max_len + 1) / (1.0 - r)
