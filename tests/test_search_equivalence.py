"""The array searches against the per-item loops they replace.

Each reference below is written out in the test, one item at a time: one
intercentrality per subset, a re-certified and re-inverted residual game per
greedy step, the pairwise frontier definition, one link value per pair, and
one certificate per grown network.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netsurgeon import (
    InputError,
    Network,
    NodeSet,
    bridge_index,
    certify,
    intercentrality,
    key_group_exhaustive,
    key_group_greedy,
    link_value_existing,
    link_value_potential,
    link_values,
    pareto_frontier,
    rank_bridges,
)
from netsurgeon.graphs import NEAR_TIE, links_within_bound, rank_order, within_bound

from .conftest import eig_lambda_max, random_graph
from .test_graphs import small_networks


def loop_ranked(items, value, key):
    """Best first; runs of gaps within NEAR_TIE * max(1, |first|) order by key."""
    items = sorted(items, key=lambda x: (-value(x), key(x)))
    out, i = [], 0
    while i < len(items):
        j = i + 1
        limit = NEAR_TIE * max(1.0, abs(value(items[i])))
        while j < len(items) and value(items[j - 1]) - value(items[j]) <= limit:
            j += 1
        out.extend(sorted(items[i:j], key=key))
        i = j
    return out


def game(net, data, weighted):
    lam = eig_lambda_max(net)
    frac = data.draw(st.floats(0.1, 0.95))
    theta = None
    if weighted:
        draws = st.lists(st.floats(0.5, 2.0), min_size=net.n, max_size=net.n)
        theta = np.array(data.draw(draws))
    return certify(net, frac / max(lam, 1.0), theta)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=0, max_size=40),
    st.lists(st.floats(-1e-9, 1e-9), min_size=40, max_size=40),
)
def test_rank_order_matches_the_run_loop(coarse, noise):
    values = np.array([c + e for c, e in zip(coarse, noise)])
    key = np.arange(len(values))[::-1].copy()
    want = loop_ranked(range(len(values)), lambda t: values[t], lambda t: key[t])
    assert rank_order(values, (key,)).tolist() == want


@settings(max_examples=40, deadline=None)
@given(small_networks(max_nodes=8), st.booleans(), st.data())
def test_exhaustive_matches_one_intercentrality_per_subset(net, weighted, data):
    spec = game(net, data, weighted)
    for k in range(1, min(3, net.n) + 1):
        ranked = key_group_exhaustive(spec, k)
        groups = itertools.combinations(range(net.n), k)
        singles = [intercentrality(spec, NodeSet(c)) for c in groups]
        want = loop_ranked(singles, lambda gs: gs.intercentrality, lambda gs: gs.group.members)
        assert [gs.group for gs in ranked] == [gs.group for gs in want]
        for got, ref in zip(ranked, want):
            for field in ("intercentrality", "direct_effect", "indirect_effect"):
                want_value = pytest.approx(getattr(ref, field), rel=1e-12, abs=1e-12)
                assert getattr(got, field) == want_value


def greedy_by_reinversion(spec, k):
    """Each step certifies the residual network and inverts it afresh."""
    chosen, alive, cur = [], list(range(spec.n)), spec
    for _ in range(k):
        m = np.linalg.inv(np.eye(cur.n) - cur.delta * cur.network.adjacency)
        b_theta = m @ cur.theta
        single = m.sum(axis=1) * b_theta / np.diag(m)
        best = single.max()
        pick = int(np.flatnonzero(single >= best - NEAR_TIE * max(1.0, abs(best)))[0])
        chosen.append(alive.pop(pick))
        keep = [t for t in range(cur.n) if t != pick]
        if keep:
            sub = Network(
                tuple(cur.network.labels[t] for t in keep),
                cur.network.adjacency[np.ix_(keep, keep)].copy(),
            )
            cur = certify(sub, spec.delta, cur.theta[keep])
    return NodeSet.of(chosen, spec.n)


@settings(max_examples=40, deadline=None)
@given(small_networks(max_nodes=10), st.booleans(), st.data())
def test_downdated_greedy_picks_match_reinversion(net, weighted, data):
    spec = game(net, data, weighted)
    k = data.draw(st.integers(1, net.n))
    assert key_group_greedy(spec, k).group == greedy_by_reinversion(spec, k)


def frontier_by_definition(spec):
    b = spec.solve(np.ones(spec.n))
    m = np.diag(spec.solve(np.eye(spec.n)))
    slack = 1e-12
    return NodeSet.of(
        [
            i
            for i in range(spec.n)
            if not any(
                b[t] >= b[i] - slack
                and m[t] >= m[i] - slack
                and (b[t] > b[i] + slack or m[t] > m[i] + slack)
                for t in range(spec.n)
                if t != i
            )
        ],
        spec.n,
    )


@settings(max_examples=40, deadline=None)
@given(small_networks(max_nodes=9), small_networks(max_nodes=9), st.data())
def test_frontier_and_bridge_grid_match_the_pairwise_loops(net1, net2, data):
    net2 = Network(tuple(f"r{lab}" for lab in net2.labels), net2.adjacency.copy())
    frac = data.draw(st.floats(0.1, 0.9))
    delta = frac / (max(eig_lambda_max(net1), eig_lambda_max(net2)) + 1.0)
    s1, s2 = certify(net1, delta), certify(net2, delta)
    front1, front2 = pareto_frontier(s1), pareto_frontier(s2)
    assert front1 == frontier_by_definition(s1)
    assert front2 == frontier_by_definition(s2)
    ranked = rank_bridges(s1, s2)
    singles = [
        bridge_index(s1, s2, net1.labels[i], net2.labels[j]) for i in front1 for j in front2
    ]
    want = loop_ranked(
        singles,
        lambda sc: sc.index,
        lambda sc: (net1.index_of(sc.i), net2.index_of(sc.j)),
    )
    assert ranked == want


@settings(max_examples=60, deadline=None)
@given(small_networks(max_nodes=9), st.sampled_from(["potential", "existing"]), st.data())
def test_link_values_match_one_value_per_pair(net, kind, data):
    lam = eig_lambda_max(net)
    # Up to past the bound of some grown networks, so that potential pairs get skipped.
    delta = data.draw(st.floats(0.1, 0.99)) / max(lam, 1.0)
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    values, skipped = link_values(spec, kind)
    single = link_value_existing if kind == "existing" else link_value_potential
    want_values, want_skipped = {}, []
    for i, j in itertools.combinations(range(net.n), 2):
        if net.adjacency[i, j] != (kind == "existing"):
            continue
        u, v = net.labels[i], net.labels[j]
        try:
            want_values[(u, v)] = single(spec, u, v).value
        except InputError as exc:
            want_skipped.append((u, v, str(exc)))
    assert skipped == want_skipped
    assert sorted((lv.i, lv.j) for lv in values) == sorted(want_values)
    for lv in values:
        assert lv.kind == kind
        assert lv.value == pytest.approx(want_values[(lv.i, lv.j)], rel=1e-12, abs=1e-12)
    # Best first; only exactly equal values fall back to the label order.
    keys = [(-lv.value, net.index_of(lv.i), net.index_of(lv.j)) for lv in values]
    assert keys == sorted(keys)


def scalar_link_value(delta, b, m, i, j, present):
    """The closed form on float64 scalars, one pair at a time."""
    b_i, b_j, m_ii, m_jj, m_ij = b[i], b[j], m[i, i], m[j, j], m[j, i]
    s = 1.0 + delta * m_ij if present else 1.0 - delta * m_ij
    den = s**2 - delta**2 * m_ii * m_jj
    own = delta * m_ii * b_j * b_j + delta * m_jj * b_i * b_i
    cross = 2.0 * s * b_i * b_j
    return (cross - own if present else own + cross) / den


def test_link_values_keep_the_scalar_arithmetic():
    # Same bits, not merely close values: exact ties rank by these bits.
    net = random_graph(np.random.default_rng(5), 80, p=0.08)
    spec = certify(net, 0.5 / (eig_lambda_max(net) + 1.0))
    m = spec.influence()
    for kind in ("potential", "existing"):
        values, skipped = link_values(spec, kind)
        assert not skipped
        for lv in values:
            i, j = net.index_of(lv.i), net.index_of(lv.j)
            assert lv.value == scalar_link_value(
                spec.delta, spec.b_unit, m, i, j, kind == "existing"
            )


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=10), st.data())
def test_two_by_two_link_test_is_exact_at_one_part_per_million(net, data):
    pairs = itertools.combinations(range(net.n), 2)
    absent = [(i, j) for i, j in pairs if not net.adjacency[i, j]]
    assume(absent)
    i, j = data.draw(st.sampled_from(absent))
    plus = net.adjacency.copy()
    plus[i, j] = plus[j, i] = 1.0
    lam_plus = eig_lambda_max(Network(net.labels, plus))
    # The intact game must certify even past the grown network's bound.
    assume(eig_lambda_max(net) < lam_plus / 1.00001)
    rows, cols = np.array([i]), np.array([j])
    grown = Network(net.labels, plus)
    for frac, fits in ((0.999999, True), (1.000001, False)):
        delta = frac / lam_plus
        assert within_bound(grown, delta) == fits
        assert links_within_bound(net, delta, rows, cols)[0] == fits
        assert links_within_bound(net, delta, cols, rows)[0] == fits
