"""Bridge scores between separate components and values of single links.

Each score is the paper's equivalence on S = {i, j}: adding or cutting the
link (i, j) is C_SS = +P or -P, P the 2 x 2 swap, and acts as the
characteristic shift delta C_SS y with y = (I - delta M_SS C_SS)^-1 b_S,
solved in closed form by graphs.one_link_solve. The score b_i y_j + b_j y_i,
stated for unit characteristics, times the synergy weight is the realized
aggregate change exactly. A bridge joins two separate components, whose
joined M is block diagonal: its index is the same solve with m_ij = 0, from
the endpoints' centralities and self-loops. Every added link, bridges
too, is certified from M_SS and b_unit by graphs.links_certified, each
column of M bounded by its endpoint's b_unit, and what that leaves by
certify's rule on the changed network: graphs.certify_change, or for a
bridge graphs.certified_game, whose refusal words no lambda_max. The
searches score every candidate in array arithmetic: the frontier-by-frontier
grid of bridges, and every absent or present link of a network from one
influence matrix.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import (
    GameSpec,
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    certified_game,
    certify_change,
    label_key,
    links_certified,
    one_link_solve,
    rank_order,
)

FRONTIER_SLACK = 1e-12

_UNCERTIFIED = "bridging these endpoints pushes the joined game outside the certified range"


@dataclass(frozen=True)
class BridgeScore:
    """A scored candidate link from one component to another."""

    i: str
    j: str
    index: float
    predicted_delta_aggregate: float


@dataclass(frozen=True)
class LinkValue:
    """Value of one link of a network: potential (absent) or existing."""

    i: str
    j: str
    kind: str
    value: float


@dataclass(frozen=True, eq=False)
class RankedPairs(Sequence):
    """Scored label pairs, best first, held as arrays.

    Entry t pairs first[rows[t]] with second[cols[t]] at score values[t].
    Compares equal to any sequence of the same entries. Plain data: the
    printed records and their field names are written in cli.py.
    """

    first: tuple[str, ...]
    second: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, t):
        return self._entry(self.first[self.rows[t]], self.second[self.cols[t]], t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    @abstractmethod
    def _entry(self, i: str, j: str, t: int):
        """Entry t, on labels i and j."""


@dataclass(frozen=True, eq=False)
class BridgeRanking(RankedPairs):
    """Bridges best first, values their indices; entries are BridgeScores."""

    delta: float

    @cached_property
    def predicted(self) -> np.ndarray:
        """The realized aggregate change of each bridge: delta times its index."""
        return self.delta * self.values

    def _entry(self, i: str, j: str, t: int) -> BridgeScore:
        return BridgeScore(i, j, float(self.values[t]), float(self.predicted[t]))


@dataclass(frozen=True, eq=False)
class LinkRanking(RankedPairs):
    """Links of one kind best first; entries are LinkValues."""

    kind: str

    def _entry(self, i: str, j: str, t: int) -> LinkValue:
        return LinkValue(i, j, self.kind, float(self.values[t]))


def joined_network(net1: Network, net2: Network, bridge: tuple[str, str] | None = None) -> Network:
    """Disjoint union of two networks, optionally plus one connecting link."""
    if set(net1.labels) & set(net2.labels):
        raise InputError(
            f"components share labels {sorted(set(net1.labels) & set(net2.labels))}; "
            "relabel before joining"
        )
    edges = net1.edges() + net2.edges()
    if bridge is not None:
        u, v = bridge
        net1.index_of(u)
        net2.index_of(v)
        edges.append((u, v))
    isolated = [lab for net in (net1, net2) for lab in net.labels]
    return Network.from_edges(edges, isolated)


def _bridge_indices(spec1: GameSpec, spec2: GameSpec, rows, cols) -> np.ndarray:
    """Indices of the bridges (rows[t], cols[t]); refused unless certify accepts
    the joined network with each.

    A bridge is a created link of the disjoint union, whose influence matrix
    is block diagonal: m_ij = 0. One past the 2 x 2 test is refused before
    the solve, which could overflow; links_certified decides the rest in
    closed form, and certify's own rule (certified_game) on the union, built
    once, the sliver; a refusal there words no lambda_max.
    """
    delta, net1, net2 = spec1.delta, spec1.network, spec2.network
    b = np.concatenate((spec1.b_unit, spec2.b_unit))
    loops = np.concatenate((spec1.self_loops, spec2.self_loops))
    joint = cols + spec1.n
    b_i, b_j, m_ii, m_jj = b[rows], b[joint], loops[rows], loops[joint]
    if not np.all(delta * np.sqrt(m_ii * m_jj) < 1.0):
        raise InputError(_UNCERTIFIED)
    y_i, y_j, den = one_link_solve(delta, 1.0, b_i, b_j, m_ii, m_jj, 0.0)
    if np.any(den <= FRONTIER_SLACK):
        raise InputError(_UNCERTIFIED)
    left = np.flatnonzero(~links_certified(delta, b, rows, joint, m_ii, m_jj, np.zeros(len(rows))))
    if left.size:
        union = joined_network(net1, net2)
        at = np.array([union.index[label] for label in net1.labels + net2.labels], dtype=np.intp)
        for t in left:
            if certified_game(union.with_changes([(at[rows[t]], at[joint[t]], 1)]), delta) is None:
                raise InputError(_UNCERTIFIED)
    return b_i * y_j + b_j * y_i


def _require_unit_theta(spec: GameSpec, what: str) -> None:
    if not spec.theta_is_ones():
        raise InputError(f"{what} is defined for theta = 1")


def _require_shared_delta(spec1: GameSpec, spec2: GameSpec, what: str) -> None:
    if spec1.delta != spec2.delta:
        raise InputError(
            f"components must share one synergy weight, got {spec1.delta:g} and {spec2.delta:g}"
        )
    _require_unit_theta(spec1, what)
    _require_unit_theta(spec2, what)


def bridge_index(spec1: GameSpec, spec2: GameSpec, i: str, j: str) -> BridgeScore:
    """Score the link joining node i of the first component to j of the second;
    refused unless the joined game certifies."""
    _require_shared_delta(spec1, spec2, "the bridge index")
    rows, cols = np.array([spec1.network.index_of(i)]), np.array([spec2.network.index_of(j)])
    value = float(_bridge_indices(spec1, spec2, rows, cols)[0])
    return BridgeScore(i, j, value, spec1.delta * value)


def _frontier(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Indices of the nodes no other node strictly beats; see pareto_frontier."""
    # Entry [i, t] compares challenger t with node i; t = i never beats itself.
    at_least = (b >= b[:, None] - FRONTIER_SLACK) & (m >= m[:, None] - FRONTIER_SLACK)
    better = (b > b[:, None] + FRONTIER_SLACK) | (m > m[:, None] + FRONTIER_SLACK)
    return np.flatnonzero(~np.any(at_least & better, axis=1))


def pareto_frontier(spec: GameSpec) -> NodeSet:
    """Nodes not strictly beaten on the (centrality, self-loop) pair.

    A node is dropped only when some other node is at least as good in both
    coordinates and better than rounding noise in one. Regular graphs tie
    everywhere and keep every node.
    """
    _require_unit_theta(spec, "the bridge-endpoint frontier")
    return NodeSet.of(_frontier(spec.b_unit, spec.self_loops), spec.n)


def rank_bridges(spec1: GameSpec, spec2: GameSpec) -> BridgeRanking:
    """All frontier-to-frontier candidate links, best first; entries are BridgeScores.

    Only frontier endpoints can host the best bridge, so non-frontier pairs
    are never scored. Near-ties order by label pair. The search is refused
    unless the joined game certifies with every candidate.
    """
    _require_shared_delta(spec1, spec2, "the key-bridge search")
    front1, front2 = (_frontier(s.b_unit, s.self_loops) for s in (spec1, spec2))
    rows, cols = np.repeat(front1, len(front2)), np.tile(front2, len(front1))
    value = _bridge_indices(spec1, spec2, rows, cols)
    order = rank_order(value, (rows, cols))
    return BridgeRanking(
        spec1.network.labels, spec2.network.labels, rows[order], cols[order], value[order],
        spec1.delta,
    )


def key_bridge(spec1: GameSpec, spec2: GameSpec) -> BridgeScore:
    """Best single link between the two components."""
    return rank_bridges(spec1, spec2)[0]


def _link_value(spec: GameSpec, kind: str, rows, cols, m_ii, m_jj, m_ij) -> np.ndarray:
    """Values of the links (rows[t], cols[t]) from their influence entries.

    An existing link is priced by the aggregate loss from cutting it, a
    potential one by the gain from adding it, both over the synergy weight.
    """
    present = kind == "existing"
    b_i, b_j = spec.b_unit[rows], spec.b_unit[cols]
    y_i, y_j, den = one_link_solve(spec.delta, -1.0 if present else 1.0, b_i, b_j, m_ii, m_jj, m_ij)
    bad = np.flatnonzero(den <= FRONTIER_SLACK)
    if bad.size:
        # Removal only shrinks the certified range, and additions are certified.
        labels = spec.network.labels
        raise InternalCheckError(
            f"nonpositive denominator for {'existing' if present else 'certified'} link "
            f"({labels[rows[bad[0]]]},{labels[cols[bad[0]]]})"
        )
    return b_i * y_j + b_j * y_i


def _single_link(spec: GameSpec, i: str, j: str, kind: str) -> LinkValue:
    _require_unit_theta(spec, f"the {kind}-link value")
    ii, jj = spec.network.index_of(i), spec.network.index_of(j)
    if ii == jj:
        raise InputError(f"no self-link on node {i!r}")
    present = spec.network.has_link(ii, jj)
    if present and kind == "potential":
        raise InputError(f"link ({i},{j}) already present; use the existing-link value")
    if not present and kind == "existing":
        raise InputError(f"link ({i},{j}) not present; use the potential-link value")
    rows, cols = np.array([ii]), np.array([jj])
    m = spec.block([ii, jj])
    entries = m[:1, 0], m[1:, 1], m[1:, 0]
    if not (present or links_certified(spec.delta, spec.b_unit, rows, cols, *entries)[0]):
        certify_change(spec.network, spec.delta, [(ii, jj, 1)])
    value = _link_value(spec, kind, rows, cols, *entries)[0]
    u, v = sorted((i, j), key=label_key)
    return LinkValue(u, v, kind, value)


def link_value_potential(spec: GameSpec, i: str, j: str) -> LinkValue:
    """Value of creating the absent link (i, j) inside one network.

    The synergy weight times this value is exactly the aggregate gain from
    adding the link. The network with the link added must itself certify.
    """
    return _single_link(spec, i, j, "potential")


def link_value_existing(spec: GameSpec, i: str, j: str) -> LinkValue:
    """Value of an existing link (i, j): the aggregate loss from cutting it,
    divided by the synergy weight."""
    return _single_link(spec, i, j, "existing")


def link_values(spec: GameSpec, kind: str) -> tuple[LinkRanking, list[tuple[str, str, str]]]:
    """Values of every potential (absent) or existing link, best first;
    entries are LinkValues.

    Near-ties order by label pair. A potential link whose addition would
    leave the certified range is skipped: skipped lists (i, j, reason) in
    label order.
    """
    if kind not in ("potential", "existing"):
        raise InputError(f"link kind must be 'potential' or 'existing', got {kind!r}")
    _require_unit_theta(spec, f"the {kind}-link value")
    net = spec.network

    def ranked(rows, cols, value):
        return LinkRanking(net.labels, net.labels, rows, cols, value, kind)

    if kind == "existing":
        rows, cols = net.links
    else:  # every absent pair, from an n x n mask of the links: O(n^2) whatever holds them
        absent = ~np.tri(net.n, dtype=bool)
        absent[net.links] = False
        rows, cols = np.nonzero(absent)
    if not len(rows):
        return ranked(rows, cols, np.zeros(0)), []
    m = spec.influence()
    entries = m[rows, rows], m[cols, cols], m[cols, rows]
    skipped = []
    if kind == "potential":
        fits = links_certified(spec.delta, spec.b_unit, rows, cols, *entries)
        for t in np.flatnonzero(~fits):
            try:
                # The sliver and every refusal are settled by the exact certificate.
                certify_change(net, spec.delta, [(rows[t], cols[t], 1)])
                fits[t] = True
            except InputError as exc:
                skipped.append((net.labels[rows[t]], net.labels[cols[t]], str(exc)))
        rows, cols, entries = rows[fits], cols[fits], [e[fits] for e in entries]
    value = _link_value(spec, kind, rows, cols, *entries)
    order = rank_order(value, (rows, cols))
    return ranked(rows[order], cols[order], value[order]), skipped
