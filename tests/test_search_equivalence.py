"""The array searches against the per-item loops they replace.

Each reference below is written out in the test, one item at a time: the
near-tie ranking one run at a time, one intercentrality per subset, a
re-certified and re-inverted residual game per greedy step (on random and
circulant graphs), the pairwise frontier definition, one link value per
pair, and one certificate per grown network. The streamed exhaustive search
is held to the search it replaced: the stacked solve over every subset and
one rank_order over all of them.
"""

import io
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from netsurgeon import (
    InputError,
    cli,
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
from netsurgeon import keygroup
from netsurgeon.graphs import NEAR_TIE, links_certified, rank_order, within_bound

from .conftest import eig_lambda_max, random_graph
from .oracle import serialize
from .test_graphs import small_networks


def loop_ranked(items, value, key):
    """Best first: the best value v not yet placed and every later value at or
    above v - NEAR_TIE * max(1, |v|) tie, and order by key."""
    items = sorted(items, key=lambda x: (-value(x), key(x)))
    out, i = [], 0
    while i < len(items):
        best = value(items[i])
        floor = best - NEAR_TIE * max(1.0, abs(best))
        j = i + 1
        while j < len(items) and value(items[j]) >= floor:
            j += 1
        out.extend(sorted(items[i:j], key=key))
        i = j
    return out


def ranked_by_loop(values, keys):
    return loop_ranked(
        range(len(values)), lambda t: values[t], lambda t: tuple(k[t] for k in keys)
    )


def largest_late_lead(values):
    """The most any entry of a ranking beats an earlier one by, in units of
    NEAR_TIE * max(1, largest |value|): at most 1 under the near-tie rule, up
    to rounding (the values are scaled to at most 1 first, so no gap overflows)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    scaled = values / max(1.0, float(np.abs(values).max()))
    return float((scaled[1:] - np.minimum.accumulate(scaled)[:-1]).max()) / NEAR_TIE


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


def test_rank_order_matches_the_loop_on_circulant_bridge_grids():
    # Every endpoint of a circulant graph is alike: the whole grid is one tie run.
    for n in (5, 12, 30):
        s1, s2 = (
            certify(Network.from_edges(
                [(f"{p}{i}", f"{p}{(i + o) % n}") for i in range(n) for o in (1, 2, 3)]
            ), 0.1)
            for p in ("", "r")
        )
        ranked = rank_bridges(s1, s2)
        assert len(ranked) == n * n  # a regular graph keeps every node on its frontier
        values = ranked.values[np.argsort(ranked.rows * n + ranked.cols)]
        rows, cols = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert len(set(values.tolist())) > 1  # rounding noise, not exact ties
        assert rank_order(values, (rows, cols)).tolist() == ranked_by_loop(values, (rows, cols))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=50),
    st.sampled_from([1e-6, 1.0, 1e3, 1e7]),
    st.sampled_from([0.0, 0.4, 1.0, 3.0, 1e3]),
    st.lists(st.floats(0.05, 0.95), max_size=25),
    st.lists(st.sampled_from([-np.inf, 1e308, 1e308 * (1 - 5e-10), -1e308]), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_rank_order_matches_the_loop(coarse, scale, spread, steps, extremes, seed):
    rng = np.random.default_rng(seed)
    tol = NEAR_TIE * max(1.0, scale * 3)
    values = np.array(coarse, dtype=float) * scale + rng.uniform(-1, 1, len(coarse)) * spread * tol
    # A chain of steps each within tolerance but summing past it splits where
    # it falls below its first value's tolerance, and again from there.
    start = 4.0 * max(1.0, scale * 3)
    chain = start - NEAR_TIE * max(1.0, start) * np.cumsum(steps)
    # Scores of chosen nodes (-inf) and values whose gaps pass the largest float.
    values = np.concatenate([values, chain, chain[::2], extremes])
    keys = (rng.integers(0, 3, len(values)), rng.permutation(len(values)))
    order = rank_order(values, keys)
    assert order.tolist() == ranked_by_loop(values, keys)
    ranked = values[order]
    assert largest_late_lead(ranked[np.isfinite(ranked)]) <= 1.0 + 1e-6


def circulant(n):
    """Each node a0 ... a{n-1} linked to the 3 nearest on either side: long
    chains of near-tied scores, every one within NEAR_TIE of the next."""
    return Network.from_edges([(f"a{i}", f"a{(i + o) % n}") for i in range(n) for o in (1, 2, 3)])


def test_top_pair_on_a_circulant_is_within_near_tie_of_the_best():
    spec = certify(circulant(90), 0.0833)
    best = max(gs.intercentrality for gs in key_group_exhaustive(spec, 2, top=None))
    (top,) = key_group_exhaustive(spec, 2, top=1)
    assert best - top.intercentrality <= NEAR_TIE * max(1.0, abs(best))


@pytest.mark.parametrize("n", [60, 90])
@pytest.mark.parametrize("frac", [0.3, 0.4, 0.5])
def test_no_ranked_entry_leads_an_earlier_one_past_near_tie(n, frac):
    spec = certify(circulant(n), frac / 6.0)  # 6-regular: lambda_max = 6
    values, skipped = link_values(spec, "potential")
    assert not skipped
    assert largest_late_lead([lv.value for lv in values]) <= 1.0 + 1e-6
    pairs = key_group_exhaustive(spec, 2)
    assert largest_late_lead([gs.intercentrality for gs in pairs]) <= 1.0 + 1e-6


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


def solved_and_ranked(spec, k):
    """Every size-k group scored by keygroup._score on blocks of influence(),
    all ranked by one rank_order: (group, score, direct, indirect), best first."""
    m = spec.influence()
    groups = np.array(list(itertools.combinations(range(spec.n), k)), dtype=np.intp)
    d, direct = keygroup._score(
        m[groups[:, :, None], groups[:, None, :]], spec.b[groups], spec.b_unit[groups]
    )
    order = rank_order(d, tuple(groups.T))
    return [(tuple(groups[t].tolist()), d[t], direct[t], d[t] - direct[t]) for t in order]


def as_bits(ranked):
    return [
        (gs.group.members, *(float(x).hex() for x in (gs.intercentrality, gs.direct_effect,
                                                       gs.indirect_effect)))
        for gs in ranked
    ]


def reference_bits(ranked):
    return [(g, *(float(x).hex() for x in values)) for g, *values in ranked]


@st.composite
def search_networks(draw):
    """Random, circulant, two-component and isolated-node networks."""
    family = draw(st.sampled_from(["random", "circulant", "two", "isolated"]))
    if family == "random":
        return draw(small_networks(max_nodes=14))
    if family == "circulant":
        return draw(circulant_networks(max_nodes=16))
    one = draw(small_networks(max_nodes=8)).adjacency
    if family == "two":
        other = draw(small_networks(max_nodes=8)).adjacency
    else:
        other = np.zeros((draw(st.integers(1, 3)),) * 2)
    a = block_diag(one, other)
    return Network(tuple(str(i + 1) for i in range(len(a))), a)


def game_near(net, frac, weights, data):
    """The game at frac of net's bound, with unit theta or theta drawn from
    [0.5, 2] ("positive") or [-2, 2] ("mixed")."""
    theta = None
    if weights != "unit":
        low = 0.5 if weights == "positive" else -2.0
        draws = st.lists(st.floats(low, 2.0), min_size=net.n, max_size=net.n)
        theta = np.array(data.draw(draws))
    lam = eig_lambda_max(net)
    return certify(net, frac / lam if lam > 0 else frac, theta)


FRACTIONS = [0.3, 0.5, 0.9, 0.99, 0.999999]


@settings(max_examples=150, deadline=None)
@given(
    search_networks(),
    st.sampled_from(FRACTIONS),
    st.sampled_from(["unit", "positive", "mixed"]),
    st.integers(1, 3),
    st.sampled_from([1, 3, 15, "count - 1", None]),
    st.sampled_from([1, 7, 4096]),
    st.data(),
)
def test_streamed_search_equals_one_ranking_of_every_solve(net, frac, weights, k, top, chunk,
                                                           data):
    assume(k <= net.n)
    spec = game_near(net, frac, weights, data)
    want = reference_bits(solved_and_ranked(spec, k))
    count = len(want)
    t = max(count - 1, 1) if top == "count - 1" else top
    # Small chunks stream many of them through the pool, with many cuts.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keygroup, "CHUNK", chunk)
        got = as_bits(key_group_exhaustive(spec, k, top=t))
    assert got == want[:t]


@settings(max_examples=150, deadline=None)
@given(
    search_networks(),
    st.sampled_from(FRACTIONS),
    st.sampled_from(["unit", "positive", "mixed"]),
    st.data(),
)
def test_closed_form_pair_scores_stay_within_their_bound(net, frac, weights, data):
    assert_pair_bound_holds(game_near(net, frac, weights, data))


def assert_pair_bound_holds(spec):
    groups = np.array(list(itertools.combinations(range(spec.n), 2)), dtype=np.intp)
    m = spec.influence()
    value, slack, direct = keygroup._pair_scores(spec, m, groups)
    d, want_direct = keygroup._score(
        m[groups[:, :, None], groups[:, None, :]], spec.b[groups], spec.b_unit[groups]
    )
    assert np.all(np.abs(value - d) <= slack)
    assert direct.tolist() == want_direct.tolist()
    return np.abs(value - d), slack, d


@pytest.mark.parametrize("theta", ["unit", "weighted"])
@pytest.mark.parametrize("frac", [0.5, 0.999, 0.999999])
def test_closed_form_gap_grows_with_conditioning_and_stays_bounded(frac, theta):
    # ER n = 160: near the bound the closed form and the solve part by
    # about 1e-12 of the score, far past a fixed relative slack of 1e-12.
    net = random_graph(np.random.default_rng(160), 160, p=6.0 / 159)
    weights = np.random.default_rng(3).uniform(0.5, 2.0, net.n) if theta == "weighted" else None
    spec = certify(net, frac / eig_lambda_max(net), weights)
    gap, slack, d = assert_pair_bound_holds(spec)
    relative = float((gap / np.abs(d)).max())
    assert relative < (1e-14 if frac == 0.5 else 1e-9)
    if frac == 0.999999:
        assert relative > 1e-12
    # The bound stays a small part of the score, so the pool stays small.
    assert float((slack / np.abs(d)).max()) < 1e-6


def refusal_or_ranking(spec, k, top):
    try:
        return True, reference_bits(solved_and_ranked(spec, k))[:top]
    except InputError as exc:
        return False, str(exc)


def searched(spec, k, top):
    try:
        return True, as_bits(key_group_exhaustive(spec, k, top=top))
    except InputError as exc:
        return False, str(exc)


# Two components: a huge theta on one node overflows the scores of the
# pairs near it and leaves the far component's finite.
OVERFLOW_SCALES = [1e150, 1e300, 1e304, 1e305, 3e305, 1e306, 3e306, 1e307, 3e307, 1e308, 1.7e308]


@pytest.mark.parametrize("frac", [0.5, 0.99])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflow_refusals_match_the_solve_over_every_group(frac, sign, tmp_path):
    rng = np.random.default_rng(29)
    a = np.zeros((24, 24))
    for lo in (0, 12):
        block = np.triu(rng.random((12, 12)) < 0.35, 1)
        a[lo : lo + 12, lo : lo + 12] = block | block.T
    net = Network(tuple(str(i + 1) for i in range(24)), a)
    lam = eig_lambda_max(net)
    graph = tmp_path / "g.txt"
    graph.write_text(serialize(net))
    hub = int(np.argmax(a[:12].sum(axis=1)))
    outcomes = set()
    for scale in OVERFLOW_SCALES:
        theta = np.ones(net.n)
        theta[hub], theta[hub + 1] = sign * scale, -sign * scale / 3
        try:
            spec = certify(net, frac / lam, theta)
            spec.b
        except InputError:
            continue  # the equilibrium itself overflows
        for k, top in ((2, 1), (2, 3), (2, None), (1, 2), (3, 2)):
            want = refusal_or_ranking(spec, k, top)
            assert searched(spec, k, top) == want
            outcomes.add(want[0])
        weights = tmp_path / "theta.txt"
        weights.write_text("".join(f"{i + 1} {v!r}\n" for i, v in enumerate(theta.tolist())))
        out, err = io.StringIO(), io.StringIO()
        argv = ["key-group", "--graph", str(graph), "--delta", repr(frac / lam), "--k", "2",
                "--top", "3", "--theta", str(weights)]
        code = cli.run(argv, out=out, err=err)
        ok, message = refusal_or_ranking(spec, 2, 3)
        if ok:
            assert (code, err.getvalue()) == (0, "")
        else:
            assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")
    assert outcomes == {True, False}  # the sweep crosses the overflow


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


@st.composite
def circulant_networks(draw, max_nodes=12):
    """Circulant graphs: every node alike, so every first pick is a tie."""
    n = draw(st.integers(3, max_nodes))
    offsets = draw(st.sets(st.integers(1, n // 2), min_size=1))
    return Network.from_edges(
        [(str(i + 1), str((i + o) % n + 1)) for i in range(n) for o in offsets]
    )


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_networks(max_nodes=10), circulant_networks()), st.booleans(), st.data())
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
        bridge_index(s1, s2, net1.labels[i], net2.labels[j])
        for i in front1.members
        for j in front2.members
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
    # Best first; near-ties (NEAR_TIE) fall back to the label order.
    want = loop_ranked(
        values,
        lambda lv: lv.value,
        lambda lv: (net.index_of(lv.i), net.index_of(lv.j)),
    )
    assert values == want


def scalar_link_value(delta, b, m, i, j, present):
    """The one-link solve on float64 scalars, one pair at a time: b_i y_j + b_j y_i
    with y = (I - delta M_SS C_SS)^-1 b_S, C_SS = -P for a cut and +P for an addition."""
    b_i, b_j, m_ii, m_jj, m_ij = b[i], b[j], m[i, i], m[j, j], m[j, i]
    s = 1.0 + delta * m_ij if present else 1.0 - delta * m_ij
    d_i, d_j = (-delta * m_ii, -delta * m_jj) if present else (delta * m_ii, delta * m_jj)
    den = s * s - (delta * m_ii) * (delta * m_jj)
    y_i, y_j = (s * b_i + d_i * b_j) / den, (d_j * b_i + s * b_j) / den
    return b_i * y_j + b_j * y_i


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
        spec = certify(net, delta)
        m = spec.influence()
        for r, c in ((rows, cols), (cols, rows)):
            assert links_certified(delta, spec.b_unit, r, c, m[r, r], m[c, c], m[c, r])[0] == fits
