"""Characteristic, structural, and hybrid interventions.

The engine rests on one equivalence: changing the network from G to G + C
moves the equilibrium exactly as if the characteristics of the touched nodes
S had been shifted by

    dtheta*_S = delta C_SS (I - delta M_SS(G) C_SS)^-1 b_S(G, theta),

computed entirely from pre-intervention quantities. Per-node and aggregate
effects then follow linearly through M(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    GameSpec,
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    SpectralConditionError,
    embed,
    spectral_radius,
    within_bound,
)

STRICT_TOL = 1e-12


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

    def scaled(self, alpha: float) -> "CharacteristicIntervention":
        return CharacteristicIntervention(alpha * self.delta_theta)


@dataclass(frozen=True)
class StructuralIntervention:
    """A set of signed link changes: (+1 create, -1 delete), i < j.

    Network-independent data; legality against a concrete network (create only
    absent links, delete only present ones) is checked at application time.
    The builders that already hold a network validate eagerly.
    """

    entries: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        seen = set()
        for i, j, sign in self.entries:
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
        for u, v in add:
            i, j = sorted((net.index_of(u), net.index_of(v)))
            if i == j:
                raise InputError(f"self-loop change on node {u!r}")
            entries.add((i, j, 1))
        for u, v in remove:
            i, j = sorted((net.index_of(u), net.index_of(v)))
            if i == j:
                raise InputError(f"self-loop change on node {u!r}")
            entries.add((i, j, -1))
        iv = StructuralIntervention(frozenset(entries))
        iv.check_legal(net)
        return iv

    @staticmethod
    def node_removal(net: Network, labels) -> "StructuralIntervention":
        """Delete every link touching the given nodes."""
        drop = {net.index_of(lab) for lab in labels}
        entries = set()
        for i in range(net.n):
            for j in range(i + 1, net.n):
                if net.adjacency[i, j] and (i in drop or j in drop):
                    entries.add((i, j, -1))
        return StructuralIntervention(frozenset(entries))

    def support(self) -> NodeSet:
        return NodeSet.of({i for i, _, _ in self.entries} | {j for _, j, _ in self.entries})

    def is_empty(self) -> bool:
        return not self.entries

    def as_matrix(self, n: int) -> np.ndarray:
        c = np.zeros((n, n))
        for i, j, sign in self.entries:
            c[i, j] = c[j, i] = float(sign)
        return c

    def check_legal(self, net: Network) -> None:
        for i, j, sign in self.entries:
            if j >= net.n:
                raise InputError(f"node index {j} out of range for n={net.n}")
            present = bool(net.adjacency[i, j])
            if sign > 0 and present:
                raise InputError(
                    f"cannot create link ({net.labels[i]},{net.labels[j]}): already present"
                )
            if sign < 0 and not present:
                raise InputError(
                    f"cannot delete link ({net.labels[i]},{net.labels[j]}): not present"
                )

    def inverse(self) -> "StructuralIntervention":
        return StructuralIntervention(frozenset((i, j, -s) for i, j, s in self.entries))

    def applied_to(self, net: Network) -> Network:
        self.check_legal(net)
        return Network(net.labels, net.adjacency + self.as_matrix(net.n))


@dataclass(frozen=True, eq=False)
class EffectReport:
    """Per-node changes, aggregate change, and the equivalent theta shift."""

    labels: tuple[str, ...]
    delta_x: np.ndarray = field(repr=False)
    delta_aggregate: float
    equivalent_delta_theta: np.ndarray = field(repr=False)
    post_b: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "delta_x": [float(x) for x in self.delta_x],
            "delta_aggregate": float(self.delta_aggregate),
            "equivalent_delta_theta": [float(x) for x in self.equivalent_delta_theta],
            "post_b": [float(x) for x in self.post_b],
        }


def characteristic_effect(spec: GameSpec, iv: CharacteristicIntervention) -> EffectReport:
    """Effect of shifting theta with the network fixed.

    delta_x = M_{N,S} dtheta_S through one solve; the aggregate change is
    b_S(G,1)' dtheta_S (the unweighted centralities price the shift).
    """
    dtheta = np.asarray(iv.delta_theta, dtype=float)
    if dtheta.shape != (spec.n,):
        raise InputError(f"delta_theta must have shape ({spec.n},), got {dtheta.shape}")
    s = iv.support()
    if len(s) == 0:
        zero = np.zeros(spec.n)
        return EffectReport(
            spec.network.labels, zero, 0.0, zero.copy(), spec.solve(spec.theta)
        )
    delta_x = spec.solve(dtheta)
    b_unw = spec.b_unit
    delta_aggregate = float(b_unw[list(s.members)] @ dtheta[list(s.members)])
    pre_b = spec.solve(spec.theta)
    return EffectReport(
        spec.network.labels, delta_x, delta_aggregate, dtheta.copy(), pre_b + delta_x
    )


def _equivalent_on(spec: GameSpec, iv: StructuralIntervention, b_vec: np.ndarray) -> np.ndarray:
    """dtheta*_S for intervention iv priced at the weighted centralities b_vec.

    Solves only an |S| x |S| system; the full game is never re-factorized.
    """
    iv.check_legal(spec.network)
    post_net = Network(spec.network.labels, spec.network.adjacency + iv.as_matrix(spec.n))
    if not within_bound(post_net, spec.delta):
        raise SpectralConditionError(spec.delta, spectral_radius(post_net))
    s = iv.support()
    idx = list(s.members)
    c_ss = iv.as_matrix(spec.n)[np.ix_(idx, idx)]
    m_ss = spec.solve(np.eye(spec.n)[:, idx])[idx, :]
    b_s = b_vec[idx]
    system = np.eye(len(idx)) - spec.delta * m_ss @ c_ss
    try:
        y = np.linalg.solve(system, b_s)
    except np.linalg.LinAlgError as exc:
        # Both networks certify, so this system is provably nonsingular.
        raise InternalCheckError(
            f"singular local system for a certified intervention: {exc}"
        ) from exc
    return spec.delta * (c_ss @ y)


def equivalent_theta(spec: GameSpec, iv: StructuralIntervention) -> CharacteristicIntervention:
    """The endogenous theta shift on S replicating the structural intervention."""
    if iv.is_empty():
        return CharacteristicIntervention(np.zeros(spec.n))
    b = spec.solve(spec.theta)
    values = _equivalent_on(spec, iv, b)
    return CharacteristicIntervention(embed(values, iv.support(), spec.n))


def structural_effect(spec: GameSpec, iv: StructuralIntervention) -> EffectReport:
    """Effect of changing the network from G to G + C, at fixed theta."""
    return characteristic_effect(spec, equivalent_theta(spec, iv))


def hybrid_effect(
    spec: GameSpec, c: StructuralIntervention, dtheta: CharacteristicIntervention
) -> EffectReport:
    """Joint network-and-characteristics intervention.

    Equivalent to the structural intervention applied to the theta-shifted
    game: the local system is priced at b(G, theta + dtheta), obtained with
    the existing factorization, and the combined shift acts through M(G).
    """
    dv = np.asarray(dtheta.delta_theta, dtype=float)
    if dv.shape != (spec.n,):
        raise InputError(f"delta_theta must have shape ({spec.n},), got {dv.shape}")
    if c.is_empty():
        return characteristic_effect(spec, dtheta)
    b_shifted = spec.solve(spec.theta + dv)
    values = _equivalent_on(spec, c, b_shifted)
    combined = dv + embed(values, c.support(), spec.n)
    return characteristic_effect(spec, CharacteristicIntervention(combined))


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
