"""Bridge scores between separate components and values of single links.

A bridge's worth is a closed form in four per-component scalars: the two
endpoints' centralities and self-loop counts. The same algebra prices any
single link inside one network, present or absent. All scores are stated
for unit characteristics, where score times the synergy weight equals the
realized aggregate change exactly. The searches score every candidate in
array arithmetic: the Pareto frontiers and the frontier-by-frontier grid of
bridges from each game's centralities and self-loops, and every absent or
present link of a network from one influence matrix.
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
    certify_local,
    label_key,
    links_certified,
    rank_order,
)

FRONTIER_SLACK = 1e-12

_UNCERTIFIED = "bridging these endpoints pushes the joined game outside the certified range"

# C_SS of one created link, on its two endpoints.
_ONE_LINK = np.array([[0.0, 1.0], [1.0, 0.0]])


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


def _bridge_value(delta: float, b_i, m_ii, b_j, m_jj):
    """Bridge index from endpoint statistics; scalars or arrays."""
    den = 1.0 - delta * delta * m_ii * m_jj
    if np.any(den <= FRONTIER_SLACK):
        raise InputError(_UNCERTIFIED)
    return (delta * m_jj * b_i * b_i + delta * m_ii * b_j * b_j + 2.0 * b_i * b_j) / den


def _require_certified(spec1: GameSpec, spec2: GameSpec, rows, cols) -> None:
    """Raise unless certify accepts the joined network with each bridge (rows[t], cols[t]).

    A bridge is a created link of the disjoint union, whose influence matrix
    is block diagonal: m_ij = 0, and each side's max(b_unit), its largest row
    sum, bounds its column maxima. links_certified decides in closed form,
    and certify's own rule on the joined network decides the sliver it leaves.
    """
    b = np.concatenate((spec1.b_unit, spec2.b_unit))
    loops = np.concatenate((spec1.self_loops, spec2.self_loops))
    top = np.repeat([s.b_unit.max(initial=0.0) for s in (spec1, spec2)], (spec1.n, spec2.n))
    fits = links_certified(spec1.delta, b, loops, top, rows, cols + spec1.n, np.zeros(len(rows)))
    net1, net2 = spec1.network, spec2.network
    for t in np.flatnonzero(~fits):
        joined = joined_network(net1, net2, (net1.labels[rows[t]], net2.labels[cols[t]]))
        if certified_game(joined, spec1.delta) is None:
            raise InputError(_UNCERTIFIED)


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
    b1, m1 = spec1.b_unit, spec1.self_loops
    b2, m2 = spec2.b_unit, spec2.self_loops
    ii = spec1.network.index_of(i)
    jj = spec2.network.index_of(j)
    value = _bridge_value(spec1.delta, b1[ii], m1[ii], b2[jj], m2[jj])
    _require_certified(spec1, spec2, np.array([ii]), np.array([jj]))
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
    b1, m1 = spec1.b_unit, spec1.self_loops
    b2, m2 = spec2.b_unit, spec2.self_loops
    front1, front2 = _frontier(b1, m1), _frontier(b2, m2)
    rows, cols = np.repeat(front1, len(front2)), np.tile(front2, len(front1))
    value = _bridge_value(spec1.delta, b1[rows], m1[rows], b2[cols], m2[cols])
    _require_certified(spec1, spec2, rows, cols)
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
    delta = spec.delta
    present = kind == "existing"
    s = 1.0 + delta * m_ij if present else 1.0 - delta * m_ij
    # float_power calls the C pow that ** 2 on a float64 scalar calls; ** 2 on
    # an array squares instead, which can round the last bit differently.
    den = np.float_power(s, 2) - delta**2 * m_ii * m_jj
    bad = np.flatnonzero(den <= FRONTIER_SLACK)
    if bad.size:
        # Removal only shrinks the certified range, and additions are certified.
        labels = spec.network.labels
        raise InternalCheckError(
            f"nonpositive denominator for {'existing' if present else 'certified'} link "
            f"({labels[rows[bad[0]]]},{labels[cols[bad[0]]]})"
        )
    b_i, b_j = spec.b_unit[rows], spec.b_unit[cols]
    own = delta * m_ii * b_j * b_j + delta * m_jj * b_i * b_i
    cross = 2.0 * s * b_i * b_j
    return (cross - own if present else own + cross) / den


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
    if kind == "potential":
        # The changed row sums need all of M[:, {i, j}].
        m = spec.columns([ii, jj])
        certify_local(spec, [(ii, jj, 1)], [ii, jj], m, _ONE_LINK)
        m = m[[ii, jj]]
    else:
        m = spec.block([ii, jj])
    rows, cols = np.array([ii]), np.array([jj])
    value = _link_value(spec, kind, rows, cols, m[:1, 0], m[1:, 1], m[1:, 0])[0]
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
    skipped = []
    if kind == "potential":
        loops, top = np.diag(m), m.max(axis=0)
        fits = links_certified(spec.delta, spec.b_unit, loops, top, rows, cols, m[cols, rows])
        for t in np.flatnonzero(~fits):
            try:
                # The sliver and every refusal are settled by the exact certificate.
                certify_change(net, spec.delta, [(rows[t], cols[t], 1)])
                fits[t] = True
            except InputError as exc:
                skipped.append((net.labels[rows[t]], net.labels[cols[t]], str(exc)))
        rows, cols = rows[fits], cols[fits]
        if not len(rows):  # also keeps delta**2 from overflowing when nothing certifies
            return ranked(rows, cols, np.zeros(0)), skipped
    value = _link_value(spec, kind, rows, cols, m[rows, rows], m[cols, cols], m[cols, rows])
    order = rank_order(value, (rows, cols))
    return ranked(rows[order], cols[order], value[order]), skipped
