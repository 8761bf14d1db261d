"""Bridge scores between separate components and values of single links.

A bridge's worth is a closed form in four per-component scalars: the two
endpoints' centralities and self-loop counts. The same algebra prices any
single link inside one network, present or absent. All scores are stated
for unit characteristics, where score times the synergy weight equals the
realized aggregate change exactly. The searches read one influence matrix
per game and score every candidate in array arithmetic: the Pareto
frontiers and the frontier-by-frontier grid of bridges, and every absent or
present link of a network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    GameSpec,
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    certify,
    label_key,
    links_within_bound,
    rank_order,
)

FRONTIER_SLACK = 1e-12


@dataclass(frozen=True)
class BridgeScore:
    """A scored candidate link from one component to another."""

    i: str
    j: str
    index: float
    predicted_delta_aggregate: float

    def check_prediction(self, spec1: GameSpec, spec2: GameSpec, tol: float = 1e-9) -> None:
        """Re-solve the physically joined game and compare; raises on mismatch."""
        joined = joined_network(spec1.network, spec2.network, bridge=(self.i, self.j))
        before = float(spec1.solve(spec1.theta).sum() + spec2.solve(spec2.theta).sum())
        spec = certify(joined, spec1.delta)
        after = float(spec.solve(spec.theta).sum())
        gap = abs(after - before - self.predicted_delta_aggregate)
        if gap > tol:
            raise InternalCheckError(
                f"bridge ({self.i},{self.j}) prediction off by {gap:.3g} "
                f"against the joined-game solve"
            )

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "index": float(self.index),
            "predicted_delta_aggregate": float(self.predicted_delta_aggregate),
        }


@dataclass(frozen=True)
class LinkValue:
    """Value of one link of a network: potential (absent) or existing."""

    i: str
    j: str
    kind: str
    value: float

    def to_json_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "kind": self.kind, "value": float(self.value)}


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


def _endpoint_stats(spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    return spec.b_unit, np.diag(spec.influence())


def _bridge_value(delta: float, b_i, m_ii, b_j, m_jj):
    """Bridge index from endpoint statistics; scalars or arrays."""
    den = 1.0 - delta * delta * m_ii * m_jj
    if np.any(den <= FRONTIER_SLACK):
        raise InputError("bridging these endpoints pushes the joined game outside the certified range")
    return (delta * m_jj * b_i * b_i + delta * m_ii * b_j * b_j + 2.0 * b_i * b_j) / den


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
    """Score the link joining node i of the first component to j of the second."""
    _require_shared_delta(spec1, spec2, "the bridge index")
    b1, m1 = _endpoint_stats(spec1)
    b2, m2 = _endpoint_stats(spec2)
    ii = spec1.network.index_of(i)
    jj = spec2.network.index_of(j)
    value = _bridge_value(spec1.delta, b1[ii], m1[ii], b2[jj], m2[jj])
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
    return NodeSet.of(_frontier(*_endpoint_stats(spec)), spec.n)


def rank_bridges(spec1: GameSpec, spec2: GameSpec) -> list[BridgeScore]:
    """All frontier-to-frontier candidate links, best first.

    Only frontier endpoints can host the best bridge, so non-frontier pairs
    are never scored. Near-ties order by label pair.
    """
    _require_shared_delta(spec1, spec2, "the key-bridge search")
    b1, m1 = _endpoint_stats(spec1)
    b2, m2 = _endpoint_stats(spec2)
    front1, front2 = _frontier(b1, m1), _frontier(b2, m2)
    rows, cols = np.repeat(front1, len(front2)), np.tile(front2, len(front1))
    value = _bridge_value(spec1.delta, b1[rows], m1[rows], b2[cols], m2[cols])
    order = rank_order(value, (rows, cols))
    lab1, lab2 = spec1.network.labels, spec2.network.labels
    return [
        BridgeScore(lab1[i], lab2[j], v, spec1.delta * v)
        for i, j, v in zip(rows[order].tolist(), cols[order].tolist(), value[order].tolist())
    ]


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
    if spec.network.adjacency[ii, jj] and kind == "potential":
        raise InputError(f"link ({i},{j}) already present; use the existing-link value")
    if not spec.network.adjacency[ii, jj] and kind == "existing":
        raise InputError(f"link ({i},{j}) not present; use the potential-link value")
    if kind == "potential":
        plus = spec.network.adjacency.copy()
        plus[ii, jj] = plus[jj, ii] = 1.0
        certify(Network(spec.network.labels, plus), spec.delta)
    m = spec.solve(np.eye(spec.n)[:, [ii, jj]])  # columns ii and jj of M
    rows, cols = np.array([ii]), np.array([jj])
    value = _link_value(spec, kind, rows, cols, m[rows, 0], m[cols, 1], m[cols, 0])[0]
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


def link_values(spec: GameSpec, kind: str) -> tuple[list[LinkValue], list[tuple[str, str, str]]]:
    """Values of every potential (absent) or existing link, best first.

    Exact ties order by label pair. A potential link whose addition would
    leave the certified range is skipped: skipped lists (i, j, reason) in
    label order.
    """
    if kind not in ("potential", "existing"):
        raise InputError(f"link kind must be 'potential' or 'existing', got {kind!r}")
    _require_unit_theta(spec, f"the {kind}-link value")
    net = spec.network
    want = 1.0 if kind == "existing" else 0.0
    rows, cols = np.nonzero(np.triu(net.adjacency == want, 1))
    skipped = []
    if kind == "potential":
        fits = links_within_bound(net, spec.delta, rows, cols)
        for t in np.flatnonzero(~fits):
            plus = net.adjacency.copy()
            plus[rows[t], cols[t]] = plus[cols[t], rows[t]] = 1.0
            try:
                # Refusals near the bound are settled by the exact certificate.
                certify(Network(net.labels, plus), spec.delta)
                fits[t] = True
            except InputError as exc:
                skipped.append((net.labels[rows[t]], net.labels[cols[t]], str(exc)))
        rows, cols = rows[fits], cols[fits]
    if not len(rows):  # also keeps delta**2 from overflowing when nothing certifies
        return [], skipped
    m = spec.influence()
    value = _link_value(spec, kind, rows, cols, m[rows, rows], m[cols, cols], m[cols, rows])
    order = rank_order(value, (rows, cols), tie=0.0)
    ranked = [
        LinkValue(net.labels[i], net.labels[j], kind, v)
        for i, j, v in zip(rows[order].tolist(), cols[order].tolist(), value[order].tolist())
    ]
    return ranked, skipped
