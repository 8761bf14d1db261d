"""Characteristic, structural, and hybrid interventions.

The engine rests on one equivalence: changing the network from G to G + C
moves the equilibrium exactly as if the characteristics of the touched nodes
S had been shifted by

    dtheta*_S = delta C_SS (I - delta M_SS(G) C_SS)^-1 b_S(G, theta),

computed entirely from pre-intervention quantities. Per-node and aggregate
effects then follow linearly through M(G), read through the columns M[:, S]
that the local system already solved: one solve of |S| columns a query (one
more column, M(G) dtheta, for a hybrid's theta shift). The |S| x |S| system carries
relative rounding error up to about u * cond(I - delta M_SS C_SS). Since its
inverse is I + delta M_SS(G + C) C_SS, that condition number grows like the
product of 1 / (1 - delta lambda_max) over the game before and after the
change: a change that both adds and removes links can leave both near the
bound and lose u / (1 - delta lambda_max)^2. Past LOCAL_ROUNDING_TOL the
changed game is solved from its own Cholesky factor instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    GameSpec,
    InputError,
    Network,
    NodeSet,
    certify_local,
    embed,
)

STRICT_TOL = 1e-12

# Largest estimated relative rounding error, eps * cond, of the local system.
LOCAL_ROUNDING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CharacteristicIntervention:
    """A shift of the characteristics vector; support = nonzero coordinates."""

    delta_theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.delta_theta)):
            raise InputError("delta_theta must be finite")

    @staticmethod
    def from_pairs(net: Network, pairs: dict[str, float]) -> "CharacteristicIntervention":
        v = np.zeros(net.n)
        for lab, val in pairs.items():
            v[net.index_of(lab)] = val
        return CharacteristicIntervention(v)

    def support(self) -> NodeSet:
        return NodeSet.of(np.flatnonzero(self.delta_theta))


@dataclass(frozen=True)
class StructuralIntervention:
    """A set of signed link changes: (+1 create, -1 delete), 0 <= i < j.

    Network-independent data; legality against a concrete network (create only
    absent links, delete only present ones) is checked at application time.
    The builders that already hold a network validate eagerly.
    """

    entries: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        seen = set()
        for i, j, sign in self.entries:
            if i < 0:
                raise InputError(f"negative node index in ({i},{j})")
            if i >= j:
                raise InputError(f"entries must have i < j, got ({i},{j})")
            if sign not in (1, -1):
                raise InputError(f"sign must be +1 or -1, got {sign}")
            if (i, j) in seen:
                raise InputError(f"pair ({i},{j}) appears more than once")
            seen.add((i, j))

    @staticmethod
    def from_label_pairs(net: Network, add=(), remove=()) -> "StructuralIntervention":
        entries = set()
        for pairs, sign in ((add, 1), (remove, -1)):
            for u, v in pairs:
                i, j = sorted((net.index_of(u), net.index_of(v)))
                if i == j:
                    raise InputError(f"self-loop change on node {u!r}")
                entries.add((i, j, sign))
        iv = StructuralIntervention(frozenset(entries))
        iv.check_legal(net)
        return iv

    def support(self) -> NodeSet:
        return NodeSet.of({i for i, _, _ in self.entries} | {j for _, j, _ in self.entries})

    def is_empty(self) -> bool:
        return not self.entries

    def check_legal(self, net: Network) -> None:
        for i, j, sign in self.entries:
            if j >= net.n:
                raise InputError(f"node index {j} out of range for n={net.n}")
            present = net.has_link(i, j)
            if sign > 0 and present:
                raise InputError(
                    f"cannot create link ({net.labels[i]},{net.labels[j]}): already present"
                )
            if sign < 0 and not present:
                raise InputError(
                    f"cannot delete link ({net.labels[i]},{net.labels[j]}): not present"
                )

    def applied_to(self, net: Network) -> Network:
        self.check_legal(net)
        return net.with_changes(self.entries)


@dataclass(frozen=True, eq=False)
class EffectReport:
    """Per-node changes, aggregate change, and the equivalent theta shift."""

    labels: tuple[str, ...]
    delta_x: np.ndarray = field(repr=False)
    delta_aggregate: float
    equivalent_delta_theta: np.ndarray = field(repr=False)
    post_b: np.ndarray = field(repr=False)


def _report(spec: GameSpec, shift: np.ndarray, s: NodeSet, delta_x: np.ndarray) -> EffectReport:
    """The report of the theta shift with support s and per-node effect delta_x.

    The aggregate change is b_S(G,1)' shift_S: the unweighted centralities
    price the shift.
    """
    members = list(s.members)
    delta_aggregate = float(spec.b_unit[members] @ shift[members])
    return EffectReport(spec.network.labels, delta_x, delta_aggregate, shift, spec.b + delta_x)


def characteristic_effect(spec: GameSpec, iv: CharacteristicIntervention) -> EffectReport:
    """Effect of shifting theta with the network fixed: delta_x = M_{N,S} dtheta_S
    through one solve."""
    dtheta = np.asarray(iv.delta_theta, dtype=float)
    if dtheta.shape != (spec.n,):
        raise InputError(f"delta_theta must have shape ({spec.n},), got {dtheta.shape}")
    s = iv.support()
    if len(s) == 0:
        zero = np.zeros(spec.n)
        return EffectReport(spec.network.labels, zero, 0.0, zero.copy(), spec.b.copy())
    return _report(spec, dtheta.copy(), s, spec.solve(dtheta))


def _equivalent_on(spec: GameSpec, iv: StructuralIntervention, dv=None):
    """dtheta*_S for iv in the game with characteristics theta + dv, dv None
    for a structural change.

    One solve gives M[:, S] and, for a theta shift, M dv after it: the
    columns certify the changed network, and b_S(theta + dv) = b_S +
    (M dv)_S prices the |S| x |S| local system, whose solution is the changed
    equilibrium on S. Returns the values on S, the solved columns, and the
    changed game's equilibrium when the local system was too inexact and
    that game was solved in full, else None.
    """
    iv.check_legal(spec.network)
    idx = list(iv.support().members)
    k = len(idx)
    pos = {node: t for t, node in enumerate(idx)}
    c_ss = np.zeros((k, k))
    for i, j, sign in iv.entries:
        c_ss[pos[i], pos[j]] = c_ss[pos[j], pos[i]] = float(sign)
    rhs = np.zeros((spec.n, k if dv is None else k + 1))
    rhs[idx, np.arange(k)] = 1.0
    if dv is not None:
        rhs[:, k] = dv
    solved = spec.solve(rhs)
    cols = solved[:, :k]
    certify_local(spec, iv.entries, idx, cols, c_ss)
    m_ss = cols[idx, :]
    b_s = spec.b[idx] if dv is None else spec.b[idx] + solved[idx, k]
    system = np.eye(k) - spec.delta * m_ss @ c_ss
    if np.finfo(float).eps * np.linalg.cond(system) <= LOCAL_ROUNDING_TOL:
        return spec.delta * (c_ss @ np.linalg.solve(system, b_s)), solved, None
    # Certified above, so the changed game has a Cholesky factor.
    theta = spec.theta if dv is None else spec.theta + dv
    post = GameSpec(iv.applied_to(spec.network), theta, spec.delta).b
    return spec.delta * (c_ss @ post[idx]), solved, post


def _effect(spec: GameSpec, iv: StructuralIntervention, dv=None) -> EffectReport:
    """The report of iv after the theta shift dv (None for a structural
    change), read through the columns the local system solved, or from the
    solved changed game."""
    values, solved, post = _equivalent_on(spec, iv, dv)
    shift = embed(values, iv.support(), spec.n)
    if dv is not None:
        shift = dv + shift
    if post is not None:
        delta_x = post - spec.b
        return EffectReport(spec.network.labels, delta_x, float(delta_x.sum()), shift, post)
    s = NodeSet.of(np.flatnonzero(shift))
    if len(s) == 0:
        return characteristic_effect(spec, CharacteristicIntervention(shift))
    # M [E_S, dv] [values; 1] = M (embed(values) + dv) = M shift.
    weights = values if dv is None else np.append(values, 1.0)
    return _report(spec, shift, s, solved @ weights)


def equivalent_theta(spec: GameSpec, iv: StructuralIntervention) -> CharacteristicIntervention:
    """The endogenous theta shift on S replicating the structural intervention."""
    if iv.is_empty():
        return CharacteristicIntervention(np.zeros(spec.n))
    values, _, _ = _equivalent_on(spec, iv)
    return CharacteristicIntervention(embed(values, iv.support(), spec.n))


def structural_effect(spec: GameSpec, iv: StructuralIntervention) -> EffectReport:
    """Effect of changing the network from G to G + C, at fixed theta."""
    if iv.is_empty():
        return characteristic_effect(spec, equivalent_theta(spec, iv))
    return _effect(spec, iv)


def hybrid_effect(
    spec: GameSpec, c: StructuralIntervention, dtheta: CharacteristicIntervention
) -> EffectReport:
    """Joint network-and-characteristics intervention.

    Equivalent to the structural intervention applied to the theta-shifted
    game: the local system is priced at b(G, theta + dtheta), read from the
    same solve as the columns of M(G), and the combined shift acts through
    those columns, unless the local system is too inexact and the changed
    game is solved.
    """
    dv = np.asarray(dtheta.delta_theta, dtype=float)
    if dv.shape != (spec.n,):
        raise InputError(f"delta_theta must have shape ({spec.n},), got {dv.shape}")
    if c.is_empty():
        return characteristic_effect(spec, dtheta)
    return _effect(spec, c, dv)


def sufficient_increase_check(spec: GameSpec, iv: StructuralIntervention) -> dict:
    """The l-value test: b'Cb >= 0 guarantees the aggregate does not fall.

    Stated for theta = 1. Sums of l-values b_i b_j over created links minus
    removed links; when nonnegative the realized aggregate change is at least
    delta * b'Cb (convexity of the aggregate in the network).
    """
    if not spec.theta_is_ones():
        raise InputError("the sufficient-increase test requires theta = 1")
    iv.check_legal(spec.network)
    b = spec.b_unit
    quad = 0.0
    for i, j, sign in iv.entries:
        quad += 2.0 * sign * b[i] * b[j]
    return {
        "quadratic_form": float(quad),
        "guaranteed_increase": bool(quad >= -STRICT_TOL),
        "strict_increase": bool(quad > STRICT_TOL),
    }
