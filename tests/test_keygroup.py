import math
import tracemalloc

import numpy as np
import pytest

from netsurgeon import (
    InputError,
    Network,
    NodeSet,
    certify,
    intercentrality,
    katz_bonacich,
    key_group_exhaustive,
    key_group_greedy,
    spectral_radius,
)
from netsurgeon import graphs, keygroup

from .conftest import oracle_b, random_connected_graph, random_graph, safe_delta


@pytest.fixture(scope="module")
def reg_spec(regular10):
    return certify(regular10, 0.2)


class TestIntercentrality:
    def test_singleton_values(self, reg_spec):
        net = reg_spec.network
        for lab, want in (("1", 5.3474), ("2", 5.2166), ("3", 5.1390)):
            gs = intercentrality(reg_spec, NodeSet.of_labels(net, [lab]))
            assert gs.intercentrality == pytest.approx(want, abs=1e-3)

    def test_singleton_closed_form(self, reg_spec):
        b = katz_bonacich(reg_spec)
        m = reg_spec.influence()
        for i in range(reg_spec.n):
            gs = intercentrality(reg_spec, NodeSet.of([i]))
            assert gs.intercentrality == pytest.approx(
                b.b_unweighted[i] * b.b[i] / m[i, i], abs=1e-12
            )

    def test_equals_aggregate_drop_from_removal(self, reg_spec):
        net = reg_spec.network
        s = NodeSet.of_labels(net, ["2", "7"])
        gs = intercentrality(reg_spec, s)
        keep = [i for i in range(net.n) if i not in s.members]
        sub = net.adjacency[np.ix_(keep, keep)]
        residual = oracle_b(
            type(net)(tuple(net.labels[i] for i in keep), sub), reg_spec.delta
        ).sum()
        assert gs.intercentrality == pytest.approx(
            katz_bonacich(reg_spec).aggregate - residual, abs=1e-9
        )

    def test_direct_plus_indirect(self, reg_spec):
        s = NodeSet.of_labels(reg_spec.network, ["1", "4", "9"])
        gs = intercentrality(reg_spec, s)
        assert gs.direct_effect + gs.indirect_effect == pytest.approx(
            gs.intercentrality, abs=1e-12
        )
        assert gs.direct_effect == pytest.approx(
            katz_bonacich(reg_spec).b[list(s.members)].sum(), abs=1e-12
        )

    def test_whole_network_removes_everything(self, reg_spec):
        s = NodeSet.of(range(10))
        gs = intercentrality(reg_spec, s)
        assert gs.intercentrality == pytest.approx(katz_bonacich(reg_spec).aggregate, abs=1e-12)

    def test_empty_group_rejected(self, reg_spec):
        with pytest.raises(InputError):
            intercentrality(reg_spec, NodeSet(()))


class TestExhaustive:
    def test_winner_and_tie_orbit(self, reg_spec):
        net = reg_spec.network
        ranked = key_group_exhaustive(reg_spec, 2)
        assert len(ranked) == 45
        assert ranked[0].group.labels(net) == ("2", "7")
        assert ranked[0].intercentrality == pytest.approx(10.2938, abs=1e-3)
        # the four symmetric optima tie to machine precision, in index order
        top = [gs.group.labels(net) for gs in ranked[:4]]
        assert top == [("2", "7"), ("2", "10"), ("5", "7"), ("5", "10")]
        spread = max(gs.intercentrality for gs in ranked[:4]) - min(
            gs.intercentrality for gs in ranked[:4]
        )
        assert spread <= 1e-12

    def test_scores_descend(self, reg_spec):
        ranked = key_group_exhaustive(reg_spec, 2)
        values = [gs.intercentrality for gs in ranked]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_worker_count_does_not_change_output(self, reg_spec):
        one = key_group_exhaustive(reg_spec, 2, workers=1)
        four = key_group_exhaustive(reg_spec, 2, workers=4)
        assert [gs.group for gs in one] == [gs.group for gs in four]
        np.testing.assert_allclose(
            [gs.intercentrality for gs in one],
            [gs.intercentrality for gs in four],
            atol=0,
        )

    def test_unit_theta_given_or_defaulted_scores_the_same_bits(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_connected_graph(rng, int(rng.integers(4, 10)))
            delta = safe_delta(rng, net, frac_hi=0.999)
            default, given = certify(net, delta), certify(net, delta, np.ones(net.n))
            s = NodeSet.of(range(3))
            a, b = intercentrality(default, s), intercentrality(given, s)
            assert (a.intercentrality, a.direct_effect) == (b.intercentrality, b.direct_effect)
            ranked = [key_group_exhaustive(s, 2, top=None) for s in (default, given)]
            assert [(g.group, g.intercentrality, g.direct_effect) for g in ranked[0]] == [
                (g.group, g.intercentrality, g.direct_effect) for g in ranked[1]
            ]

    def test_enumeration_cap(self, reg_spec, monkeypatch):
        monkeypatch.setattr(keygroup, "ENUMERATION_CAP", 100)
        with pytest.raises(InputError, match="greedy"):
            key_group_exhaustive(reg_spec, 5)

    def test_bad_k(self, reg_spec):
        with pytest.raises(InputError):
            key_group_exhaustive(reg_spec, 0)
        with pytest.raises(InputError):
            key_group_exhaustive(reg_spec, 11)


def _circulant(n, offsets):
    return Network.from_edges(
        [(str(i + 1), str((i + o) % n + 1)) for i in range(n) for o in offsets]
    )


def _top_games():
    rng = np.random.default_rng(5)
    games = []
    for n, weighted in ((9, False), (12, True), (14, False)):
        net = random_graph(rng, n, 0.35)
        theta = rng.uniform(0.5, 2.0, n) if weighted else None
        games.append(certify(net, safe_delta(rng, net), theta))
    for n, offsets in ((12, (1, 3)), (10, (1, 2)), (9, (1,))):
        net = _circulant(n, offsets)
        games.append(certify(net, safe_delta(rng, net)))
    return games


class TestTop:
    """top=t returns the first t groups of the full ranking, and only those."""

    @pytest.mark.parametrize("spec", _top_games())
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_top_is_a_prefix_of_the_full_ranking(self, spec, k):
        full = key_group_exhaustive(spec, k)
        count = math.comb(spec.n, k)
        assert len(full) == count
        for t in (1, 2, 7, count - 1, count, count + 5):
            assert key_group_exhaustive(spec, k, top=t) == full[:t]
        assert key_group_exhaustive(spec, k, top=None) == full

    def test_circulant_near_ties_order_by_label(self):
        spec = certify(_circulant(10, (1, 2)), 0.2)
        # Pairs at one distance tie by symmetry: the 5 antipodal pairs first,
        # then the 10 at distance 4, each run in label order.
        top = key_group_exhaustive(spec, 2, top=15)
        for run in (top[:5], top[5:]):
            values = [gs.intercentrality for gs in run]
            assert max(values) - min(values) <= 1e-12
            groups = [gs.group.labels(spec.network) for gs in run]
            assert groups == sorted(groups, key=lambda g: tuple(map(int, g)))
        assert top[0].intercentrality > top[5].intercentrality + 0.5
        assert top == key_group_exhaustive(spec, 2)[:15]

    def test_workers_is_still_accepted(self, reg_spec):
        assert key_group_exhaustive(reg_spec, 2, workers=2, top=3) == key_group_exhaustive(
            reg_spec, 2
        )[:3]

    @pytest.mark.parametrize("t", [0, -1])
    def test_nonpositive_top_rejected(self, reg_spec, t):
        with pytest.raises(InputError, match="top must be positive"):
            key_group_exhaustive(reg_spec, 2, top=t)


class TestGreedy:
    def test_first_pick_is_key_player(self, reg_spec):
        gs = key_group_greedy(reg_spec, 1)
        assert gs.group.labels(reg_spec.network) == ("1",)
        assert gs.intercentrality == pytest.approx(5.3474, abs=1e-3)

    def test_k2_choice_and_score(self, reg_spec):
        gs = key_group_greedy(reg_spec, 2)
        assert gs.group.labels(reg_spec.network) == ("1", "8")
        # scored in the original network, strictly below the exhaustive optimum
        assert gs.intercentrality == pytest.approx(10.2083, abs=1e-3)
        assert gs.intercentrality < 10.2938

    def test_never_beats_exhaustive(self, reg_spec):
        rng = np.random.default_rng(43)
        for _ in range(15):
            net = random_connected_graph(rng, int(rng.integers(5, 9)))
            spec = certify(net, safe_delta(rng, net))
            k = int(rng.integers(1, 4))
            best = key_group_exhaustive(spec, k)[0].intercentrality
            greedy = key_group_greedy(spec, k).intercentrality
            assert greedy <= best + 1e-9

    def test_reads_columns_not_the_influence_matrix(self, monkeypatch):
        n, k = 600, 6
        rng = np.random.default_rng(61)
        a = np.triu(rng.random((n, n)) < 6.0 / n, 1)
        net = Network(tuple(str(i) for i in range(n)), (a | a.T).astype(float))
        spec = certify(net, 0.9 / spectral_radius(net))
        inverses, dpotri = [], graphs.dpotri

        def counted(c, *args, **kwargs):
            inverses.append(c.shape)
            return dpotri(c, *args, **kwargs)

        monkeypatch.setattr(graphs, "dpotri", counted)
        tracemalloc.start()
        try:
            gs = key_group_greedy(spec, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inverses == []
        # The one n x n array is the inverse factor behind the self-loops.
        assert peak < 1.5 * n * n * 8
        assert len(gs.group) == k


class TestMonotonicity:
    def test_supersets_strictly_dominate_on_connected_graphs(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(5, 10))
            net = random_connected_graph(rng, n)
            spec = certify(net, safe_delta(rng, net))
            small = NodeSet.of(rng.permutation(n)[: int(rng.integers(1, n - 2))])
            outside = [i for i in range(n) if i not in small.members]
            extra = outside[int(rng.integers(n - len(small)))]
            big = NodeSet.of(list(small.members) + [extra])
            assert (
                intercentrality(spec, small).intercentrality
                < intercentrality(spec, big).intercentrality
            )

    def test_removal_weights_stay_nonnegative_at_unit_theta(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(4, 11))
            net = random_connected_graph(rng, n)
            spec = certify(net, safe_delta(rng, net))
            s = NodeSet.of(rng.permutation(n)[: int(rng.integers(1, n))])
            m = spec.influence()
            b = katz_bonacich(spec).b
            v = np.linalg.solve(m[np.ix_(s.members, s.members)], b[list(s.members)])
            assert np.all(v >= -1e-12)
