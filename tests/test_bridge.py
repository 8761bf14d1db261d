import dataclasses
import io
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netsurgeon import (
    InputError,
    Network,
    SpectralConditionError,
    bridge_index,
    certify,
    joined_network,
    katz_bonacich,
    key_bridge,
    link_value_existing,
    link_value_potential,
    link_values,
    pareto_frontier,
    rank_bridges,
    spectral_radius,
)
from netsurgeon import cli
from netsurgeon.graphs import certified_game, one_link_solve

from .conftest import dense_inverse, eig_lambda_max, oracle_b, random_connected_graph, safe_delta
from .oracle import degree, serialize


@pytest.fixture(scope="module")
def star_and_hubs(star7, twohub9):
    def at(delta):
        return certify(star7, delta), certify(twohub9, delta)

    return at


class TestBridgeIndex:
    def test_benchmark_values(self, star_and_hubs):
        s1, s2 = star_and_hubs(0.25)
        assert bridge_index(s1, s2, "h", "a2").index == pytest.approx(79.0258, abs=1e-3)
        assert bridge_index(s1, s2, "h", "a1").index == pytest.approx(78.9970, abs=1e-3)
        s1, s2 = star_and_hubs(0.23)
        assert bridge_index(s1, s2, "h", "a1").index == pytest.approx(48.6711, abs=1e-3)
        assert bridge_index(s1, s2, "h", "a2").index == pytest.approx(47.6461, abs=1e-3)

    def test_prediction_is_exact(self, star_and_hubs):
        s1, s2 = star_and_hubs(0.25)
        score = bridge_index(s1, s2, "h", "a2")
        gain = oracle_b(joined_network(s1.network, s2.network, ("h", "a2")), 0.25).sum() - (
            katz_bonacich(s1).aggregate + katz_bonacich(s2).aggregate
        )
        assert score.predicted_delta_aggregate == pytest.approx(gain, abs=1e-9)
        assert score.predicted_delta_aggregate == pytest.approx(0.25 * score.index, abs=1e-12)

    def test_winner_flips_with_delta(self, star_and_hubs):
        hi = key_bridge(*star_and_hubs(0.25))
        lo = key_bridge(*star_and_hubs(0.23))
        assert (hi.i, hi.j) == ("h", "a2")
        assert (lo.i, lo.j) == ("h", "a1")

    def test_deltas_must_match(self, star7, twohub9):
        with pytest.raises(InputError):
            bridge_index(certify(star7, 0.25), certify(twohub9, 0.23), "h", "a1")

    def test_unit_theta_required(self, star7, twohub9):
        s1 = certify(star7, 0.25, np.full(8, 2.0))
        with pytest.raises(InputError):
            bridge_index(s1, certify(twohub9, 0.25), "h", "a1")


class TestCertifiedRange:
    """A bridge is scored only if certify accepts the joined network: its
    factor, its row sums, and in the sliver next to the bound the margin
    test. delta sits at (1 - gap) / lambda_max of star7 + twohub9 joined
    by h-a2, the winning bridge; certify's margin is 1e-9."""

    REFUSAL = "bridging these endpoints pushes the joined game outside the certified range"

    @staticmethod
    def run_at(star7, twohub9, gap, tmp_path):
        joined = joined_network(star7, twohub9, ("h", "a2"))
        delta = (1.0 - gap) / eig_lambda_max(joined)
        paths = [tmp_path / "star7.txt", tmp_path / "twohub9.txt"]
        for path, net in zip(paths, (star7, twohub9)):
            path.write_text(serialize(net))
        out, err = io.StringIO(), io.StringIO()
        argv = ["key-bridge", "--graph1", str(paths[0]), "--graph2", str(paths[1])]
        code = cli.run(argv + ["--delta", repr(delta)], out=out, err=err)
        return joined, delta, (code, out.getvalue(), err.getvalue())

    def test_refused_inside_the_margin(self, star7, twohub9, tmp_path):
        joined, delta, run = self.run_at(star7, twohub9, 5e-10, tmp_path)
        with pytest.raises(SpectralConditionError):
            certify(joined, delta)
        s1, s2 = certify(star7, delta), certify(twohub9, delta)
        with pytest.raises(InputError, match=f"^{self.REFUSAL}$"):
            rank_bridges(s1, s2)
        with pytest.raises(InputError, match=f"^{self.REFUSAL}$"):
            bridge_index(s1, s2, "h", "a2")
        assert run == (1, "", f"error: {self.REFUSAL}\n")

    def test_answered_past_the_margin(self, star7, twohub9, tmp_path):
        joined, delta, (code, out, err) = self.run_at(star7, twohub9, 2e-9, tmp_path)
        certify(joined, delta)
        s1, s2 = certify(star7, delta), certify(twohub9, delta)
        winner = key_bridge(s1, s2)
        assert (winner.i, winner.j) == ("h", "a2")
        assert bridge_index(s1, s2, "h", "a2") == winner
        assert (code, err) == (0, "") and '"j": "a2"' in out


@st.composite
def components(draw, prefix):
    """A small ER or circulant network on the labels prefix0, prefix1, ..."""
    n = draw(st.integers(2, 8))
    if draw(st.sampled_from(["er", "circulant"])) == "er":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = draw(st.floats(0.2, 0.9))
        pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    else:
        steps = draw(st.sets(st.integers(1, n // 2), min_size=1))
        pairs = {tuple(sorted((k, (k + s) % n))) for k in range(n) for s in steps}
    labels = [f"{prefix}{k}" for k in range(n)]
    return Network.from_edges([(labels[u], labels[v]) for u, v in pairs], labels)


@settings(max_examples=80, deadline=None)
@given(
    components("a"), components("b"),
    st.sampled_from((0.5, 0.999999, 1 - 2e-9, 1 - 5e-10, 1.000001)),
)
def test_bridge_decisions_match_certify_of_each_joined_network(net1, net2, frac):
    # delta at frac of the strongest bridge's joined bound; both components
    # must certify on their own.
    bridges = list(itertools.product(net1.labels, net2.labels))
    delta = frac / max(eig_lambda_max(joined_network(net1, net2, uv)) for uv in bridges)
    spec1, spec2 = certified_game(net1, delta), certified_game(net2, delta)
    assume(spec1 is not None and spec2 is not None)
    front = list(itertools.product(pareto_frontier(spec1).labels(net1),
                                   pareto_frontier(spec2).labels(net2)))
    accepted = {uv: certified_game(joined_network(net1, net2, uv), delta) is not None
                for uv in front}
    for (u, v), want in accepted.items():
        try:
            bridge_index(spec1, spec2, u, v)
        except InputError as exc:
            assert not want and str(exc) == TestCertifiedRange.REFUSAL
        else:
            assert want
    try:
        ranked = rank_bridges(spec1, spec2)
    except InputError as exc:
        assert not all(accepted.values()) and str(exc) == TestCertifiedRange.REFUSAL
    else:
        assert all(accepted.values()) and len(ranked) == len(front)


class TestJoin:
    def test_disjoint_labels_enforced(self, star7):
        with pytest.raises(InputError):
            joined_network(star7, star7)

    def test_bridge_edge_added(self, star7, twohub9):
        joined = joined_network(star7, twohub9, ("h", "a1"))
        assert joined.n == 17
        assert joined.adjacency[joined.index_of("h"), joined.index_of("a1")] == 1.0
        plain = joined_network(star7, twohub9)
        assert plain.adjacency.sum() == star7.adjacency.sum() + twohub9.adjacency.sum()


class TestParetoFrontier:
    def test_star_collapses_to_hub(self, star7):
        spec = certify(star7, 0.25)
        front = pareto_frontier(spec)
        assert front.labels(star7) == ("h",)

    def test_regular_graph_keeps_everyone(self):
        edges = [(str(i), str(i % 8 + 1)) for i in range(1, 9)]
        net = Network.from_edges(edges)
        spec = certify(net, 0.3)
        assert len(pareto_frontier(spec)) == 8

    def test_two_hub_component_keeps_both_hubs(self, twohub9):
        spec = certify(twohub9, 0.25)
        front = pareto_frontier(spec).labels(twohub9)
        assert "a1" in front and "a2" in front

    def test_candidates_drawn_from_frontiers(self, star_and_hubs):
        s1, s2 = star_and_hubs(0.25)
        f1 = set(pareto_frontier(s1).labels(s1.network))
        f2 = set(pareto_frontier(s2).labels(s2.network))
        for sc in rank_bridges(s1, s2):
            assert sc.i in f1 and sc.j in f2

    def test_frontier_restriction_never_misses_the_argmax(self):
        rng = np.random.default_rng(89)
        for _ in range(12):
            n1, n2 = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            net1 = random_connected_graph(rng, n1)
            net2 = Network.from_edges(
                [(f"r{u}", f"r{v}") for u, v in random_connected_graph(rng, n2).edges()]
            )
            best_joined = None
            lam = max(spectral_radius(net1), spectral_radius(net2))
            delta = 0.6 / (lam + 1.0)  # room for any single bridge
            s1, s2 = certify(net1, delta), certify(net2, delta)
            base = katz_bonacich(s1).aggregate + katz_bonacich(s2).aggregate
            gains = {}
            for u in net1.labels:
                for v in net2.labels:
                    joined = joined_network(net1, net2, (u, v))
                    gains[(u, v)] = oracle_b(joined, delta).sum() - base
            winner = key_bridge(s1, s2)
            assert winner.predicted_delta_aggregate == pytest.approx(
                max(gains.values()), abs=1e-9
            )
            assert gains[(winner.i, winner.j)] == pytest.approx(
                winner.predicted_delta_aggregate, abs=1e-9
            )


def bridge_value(delta, b_i, m_ii, b_j, m_jj):
    """The bridge index from its four endpoint statistics: the one-link solve with m_ij = 0."""
    y_i, y_j, _ = one_link_solve(delta, 1.0, b_i, b_j, m_ii, m_jj, 0.0)
    return b_i * y_j + b_j * y_i


class TestScalarShape:
    # the index as a function of the four endpoint statistics

    def test_monotone_in_centrality_and_self_loops(self):
        base = dict(delta=0.2, b_i=2.0, m_ii=1.3, b_j=3.0, m_jj=1.5)
        v0 = bridge_value(**base)
        assert bridge_value(**{**base, "b_i": 2.2}) > v0
        assert bridge_value(**{**base, "m_ii": 1.4}) > v0
        assert bridge_value(**{**base, "b_j": 3.3}) > v0
        assert bridge_value(**{**base, "m_jj": 1.6}) > v0

    def test_gains_from_better_endpoints_compound(self):
        # moving the far endpoint up helps more when the near one is stronger
        for delta in (0.1, 0.2, 0.3):
            hi, lo = 1.6, 1.2
            b_hi, b_lo = 3.0, 2.4
            gap_strong = bridge_value(delta, 2.0, hi, b_hi, 1.4) - bridge_value(
                delta, 2.0, hi, b_lo, 1.4
            )
            gap_weak = bridge_value(delta, 2.0, lo, b_hi, 1.4) - bridge_value(
                delta, 2.0, lo, b_lo, 1.4
            )
            assert gap_strong >= gap_weak - 1e-10

    def test_small_delta_expansion_orders_by_degree(self, star7, twohub9):
        lam = max(spectral_radius(star7), spectral_radius(twohub9))
        degrees = {
            lab: degree(twohub9, twohub9.index_of(lab)) for lab in ("a1", "a2", "a41")
        }
        assert degrees["a1"] > degrees["a2"] > degrees["a41"]
        for frac in (1e-1, 1e-2, 1e-3):
            delta = frac / lam
            s1, s2 = certify(star7, delta), certify(twohub9, delta)
            vals = {lab: bridge_index(s1, s2, "h", lab).index for lab in degrees}
            assert vals["a1"] > vals["a2"] > vals["a41"]
        # linear coefficient of the expansion around zero: 2(1 + e_i + e_j)
        e_h = degree(star7, star7.index_of("h"))
        slope = (vals["a1"] - 2.0) / (2.0 * delta)
        assert slope == pytest.approx(1 + e_h + degrees["a1"], abs=0.05)


class TestWalkCensus:
    def test_block_sums_match_closed_forms(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            net1 = random_connected_graph(rng, int(rng.integers(2, 6)))
            net2 = Network.from_edges(
                [(f"q{u}", f"q{v}") for u, v in random_connected_graph(rng, int(rng.integers(2, 6))).edges()]
            )
            lam = max(spectral_radius(net1), spectral_radius(net2)) + 1.0
            delta = float(rng.uniform(0.2, 0.6)) / lam
            s1, s2 = certify(net1, delta), certify(net2, delta)
            u = net1.labels[int(rng.integers(net1.n))]
            v = net2.labels[int(rng.integers(net2.n))]
            i, j = net1.index_of(u), net2.index_of(v)
            b1, b2 = katz_bonacich(s1).b, katz_bonacich(s2).b
            m1, m2 = s1.influence(), s2.influence()
            geo = 1.0 - delta**2 * m1[i, i] * m2[j, j]

            joined = joined_network(net1, net2, (u, v))
            mj = dense_inverse(joined, delta)
            one = [joined.index_of(lab) for lab in net1.labels]
            two = [joined.index_of(lab) for lab in net2.labels]
            cross = mj[np.ix_(one, two)].sum()
            within1 = mj[np.ix_(one, one)].sum() - m1.sum()
            within2 = mj[np.ix_(two, two)].sum() - m2.sum()

            assert cross == pytest.approx(delta * b1[i] * b2[j] / geo, abs=1e-9)
            assert within1 == pytest.approx(delta**2 * b1[i] ** 2 * m2[j, j] / geo, abs=1e-9)
            assert within2 == pytest.approx(delta**2 * b2[j] ** 2 * m1[i, i] / geo, abs=1e-9)
            score = bridge_index(s1, s2, u, v)
            assert 2 * cross + within1 + within2 == pytest.approx(
                score.predicted_delta_aggregate, abs=1e-9
            )

    def test_block_sums_within_truncation_tail(self):
        net1 = Network.from_edges([("1", "2"), ("2", "3")])
        net2 = Network.from_edges([("x", "y")])
        delta = 0.2
        joined = joined_network(net1, net2, ("2", "x"))
        mj = dense_inverse(joined, delta)
        acc = np.zeros_like(mj)
        term = np.eye(joined.n)
        K = 120
        for _ in range(K + 1):
            acc += term
            term = delta * (joined.adjacency @ term)
        r = delta * spectral_radius(joined)
        tail = r ** (K + 1) / (1.0 - r)
        one = [joined.index_of(lab) for lab in net1.labels]
        two = [joined.index_of(lab) for lab in net2.labels]
        for rows, cols in ((one, two), (one, one), (two, two)):
            got = acc[np.ix_(rows, cols)].sum()
            want = mj[np.ix_(rows, cols)].sum()
            slack = np.sqrt(len(rows) * len(cols)) * tail + 1e-12
            assert abs(got - want) <= slack


class TestLinkValues:
    def test_tied_values_rank_in_label_order(self):
        # On a circulant graph, the links at one circular distance are
        # automorphic: their values tie up to rounding, and must come out as
        # one run in label order.
        n = 10
        net = Network.from_edges(
            [(str(i + 1), str((i + o) % n + 1)) for i in range(n) for o in (1, 2)]
        )
        spec = certify(net, 0.2)
        for kind in ("existing", "potential"):
            values, skipped = link_values(spec, kind)
            assert not skipped

            def distance(lv):
                gap = abs(int(lv.i) - int(lv.j))
                return min(gap, n - gap)

            runs = [list(run) for _, run in itertools.groupby(values, key=distance)]
            assert len(runs) == len({distance(lv) for lv in values})
            for run in runs:
                pairs = [(int(lv.i), int(lv.j)) for lv in run]
                assert pairs == sorted(pairs)
                assert max(lv.value for lv in run) - min(lv.value for lv in run) < 1e-9

    def test_dyad_existing_link(self):
        spec = certify(Network.from_edges([("a", "b")]), 0.25)
        lv = link_value_existing(spec, "a", "b")
        assert (lv.i, lv.j, lv.kind) == ("a", "b", "existing")
        assert lv.value == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_addition_pays_exactly_its_value(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            net = random_connected_graph(rng, n, extra=0.2)
            absent = [
                (net.labels[i], net.labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if net.adjacency[i, j] == 0
            ]
            if not absent:
                continue
            u, v = absent[int(rng.integers(len(absent)))]
            delta = 0.8 / (spectral_radius(net) + 1.0)
            spec = certify(net, delta)
            lv = link_value_potential(spec, u, v)
            grown = Network.from_edges(net.edges() + [(u, v)], isolated=net.labels)
            gain = oracle_b(grown, delta).sum() - katz_bonacich(spec).aggregate
            assert delta * lv.value == pytest.approx(gain, abs=1e-9)

    def test_removal_costs_exactly_its_value(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            net = random_connected_graph(rng, n, extra=0.3)
            u, v = net.edges()[int(rng.integers(len(net.edges())))]
            delta = safe_delta(rng, net)
            spec = certify(net, delta)
            lv = link_value_existing(spec, u, v)
            cut = [e for e in net.edges() if e != (u, v)]
            shrunk = Network.from_edges(cut, isolated=net.labels)
            loss = katz_bonacich(spec).aggregate - oracle_b(shrunk, delta).sum()
            assert delta * lv.value == pytest.approx(loss, abs=1e-9)

    def test_value_conserved_across_addition(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            n = int(rng.integers(4, 8))
            net = random_connected_graph(rng, n, extra=0.2)
            absent = [
                (net.labels[i], net.labels[j])
                for i in range(n)
                for j in range(i + 1, n)
                if net.adjacency[i, j] == 0
            ]
            if not absent:
                continue
            u, v = absent[int(rng.integers(len(absent)))]
            grown = Network.from_edges(net.edges() + [(u, v)], isolated=net.labels)
            delta = 0.7 / (spectral_radius(grown) + 0.5)
            before = link_value_potential(certify(net, delta), u, v)
            after = link_value_existing(certify(grown, delta), u, v)
            assert after.value == pytest.approx(before.value, abs=1e-10)

    def test_kind_mismatch_rejected(self):
        spec = certify(Network.from_edges([("a", "b"), ("b", "c")]), 0.25)
        with pytest.raises(InputError):
            link_value_existing(spec, "a", "c")
        with pytest.raises(InputError):
            link_value_potential(spec, "a", "b")
        with pytest.raises(InputError):
            link_value_potential(spec, "a", "a")

    def test_addition_must_stay_certified(self):
        # one more link would put delta past the spectral bound
        net = Network.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
        spec = certify(net, 0.49)
        with pytest.raises(InputError):
            link_value_potential(spec, "1", "3")

    def test_unit_theta_required(self):
        net = Network.from_edges([("a", "b")])
        spec = certify(net, 0.25, np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            link_value_existing(spec, "a", "b")


def test_rankings_give_their_entries_field_by_field(star_and_hubs):
    s1, s2 = star_and_hubs(0.2)
    spec = certify(random_connected_graph(np.random.default_rng(3), 9, 0.4), 0.1)
    rankings = [rank_bridges(s1, s2)] + [
        link_values(spec, kind)[0] for kind in ("potential", "existing")
    ]
    for ranked in rankings:
        entries = [dataclasses.asdict(e) for e in ranked]
        assert len(entries) == len(ranked) > 0
        assert cli._ranked_columns(ranked) == {k: [e[k] for e in entries] for k in entries[0]}
    assert rankings[0][-1] == list(rankings[0])[-1]
