"""Walk counting with forbidden interior nodes.

The closed forms all come from block algebra on the Leontief inverse, so the
oracle of record is direct enumeration: a dynamic program over the adjacency
matrix that masks the forbidden set everywhere except the walk's endpoints.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from netsurgeon import (
    GroupScore,
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    avoidance_block,
    certify,
    enumerate_avoiding_walks,
    intercentrality,
    intercentrality_decomposition,
    katz_bonacich,
    leontief_matrix,
    spectral_radius,
    truncation_tail_bound,
    walk_matrix,
    walks,
)
from netsurgeon import graphs

from netsurgeon.graphs import fill_upper

from .conftest import dense_inverse, dyad, path, random_connected_graph, random_graph, safe_delta


class TestWalkMatrix:
    def test_dyad_excluded_block(self):
        spec = dyad(0.25)
        wm = walk_matrix(spec, NodeSet.of([1]))
        # closed walks at the surviving endpoint: the empty walk plus the
        # out-and-back through the removed node, re-counted once
        assert wm.excluded_excluded[0, 0] == pytest.approx(17.0 / 16.0, abs=1e-12)
        assert wm.kept_kept[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert wm.kept_excluded[0, 0] == pytest.approx(wm.excluded_kept[0, 0], abs=1e-12)

    def test_path_center_self_walks(self):
        spec = path(3, 0.25)
        wm = walk_matrix(spec, NodeSet.of([1]))
        # 2 - 1/m_22 collapses to 1 + 2 delta^2 on a three-node path
        assert wm.excluded_excluded[0, 0] == pytest.approx(1.0 + 2 * 0.25**2, abs=1e-12)
        np.testing.assert_allclose(wm.kept_kept, np.eye(2), atol=1e-12)

    def test_kept_block_equals_deleted_network_inverse(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            net = random_graph(rng, n, p=0.45)
            spec = certify(net, safe_delta(rng, net))
            s = NodeSet.of(rng.permutation(n)[: int(rng.integers(1, n - 1))])
            keep = s.complement(n)
            wm = walk_matrix(spec, s)
            survivor = Network(
                tuple(net.labels[i] for i in keep),
                net.adjacency[np.ix_(keep.members, keep.members)].copy(),
            )
            np.testing.assert_allclose(
                wm.kept_kept, dense_inverse(survivor, spec.delta), atol=1e-9
            )

    def test_entry_dispatch_covers_all_quadrants(self):
        spec = path(4, 0.2)
        s = NodeSet.of([1, 3])
        wm = walk_matrix(spec, s)
        assert wm.entry(0, 2) == wm.kept_kept[0, 1]
        assert wm.entry(0, 3) == wm.kept_excluded[0, 1]
        assert wm.entry(1, 0) == wm.excluded_kept[0, 0]
        assert wm.entry(3, 1) == wm.excluded_excluded[1, 0]

    def test_rejects_empty_and_full_exclusions(self):
        spec = path(4, 0.2)
        with pytest.raises(InputError):
            walk_matrix(spec, NodeSet(()))
        with pytest.raises(InputError):
            walk_matrix(spec, NodeSet.of(range(4)))

    def test_entries_are_nonnegative(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            net = random_graph(rng, n, p=0.5)
            spec = certify(net, safe_delta(rng, net))
            s = NodeSet.of(rng.permutation(n)[: int(rng.integers(1, n - 1))])
            wm = walk_matrix(spec, s)
            for block in (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded):
                assert np.all(block >= -1e-12)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edgeless_graph_at_huge_delta(self):
        # delta * delta overflows here; the check route must not form inf * 0
        net = Network.from_edges([], isolated=["1", "2", "3"])
        wm = walk_matrix(certify(net, 1e308), NodeSet.of([1]))
        np.testing.assert_array_equal(wm.excluded_excluded, [[1.0]])
        np.testing.assert_array_equal(wm.kept_kept, np.eye(2))

    def test_nan_gap_is_refused(self, regular10, monkeypatch):
        spec = certify(regular10, 0.2)
        s = NodeSet.of([0])
        nan_score = GroupScore(s, float("nan"), 0.0, float("nan"))
        monkeypatch.setattr(walks, "intercentrality", lambda spec, s: nan_score)
        with pytest.raises(InternalCheckError, match="by nan"):
            intercentrality_decomposition(spec, s)


def _core_periphery_game(n, seed):
    """Sparse ER links plus two hubs tied to about a third of the nodes."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 6.0 / n, 1)
    a[0, 1:] |= rng.random(n - 1) < 0.3
    a[1, 2:] |= rng.random(n - 2) < 0.3
    net = Network(tuple(str(i + 1) for i in range(n)), (a | a.T).astype(float))
    return certify(net, 0.5 / spectral_radius(net))


def _walk_matrix_whole_arrays(spec, s):
    """walk_matrix as first written, with whole-matrix temporaries: the four
    blocks, then the kept-kept, kept-excluded and excluded-excluded gaps."""
    c, e = list(s.complement(spec.n).members), list(s.members)
    m = spec.influence()
    m_cc, m_cs, m_ss = m[np.ix_(c, c)], m[np.ix_(c, e)], m[np.ix_(e, e)]
    inv_ss = cho_solve(cho_factor(m_ss, lower=True), np.eye(len(e)))
    w_cs = m_cs @ inv_ss
    w_sc = inv_ss @ m_cs.T
    w_cc = m_cc - w_cs @ m_cs.T
    w_ss = 2.0 * np.eye(len(e)) - inv_ss
    a = spec.network.adjacency
    g_cs = a.take(e, axis=1).take(c, axis=0)
    g_ss = a.take(e, axis=0).take(e, axis=1)
    system = a.take(c, axis=0).take(c, axis=1)
    system *= -spec.delta
    system[np.diag_indices(len(c))] = 1.0
    kept_factor = cho_factor(system.T, lower=True, overwrite_a=True)
    peeled = cho_solve(kept_factor, g_cs)
    alt_cs = spec.delta * peeled
    alt_ss = spec.delta * (spec.delta * (g_cs.T @ peeled)) + spec.delta * g_ss + np.eye(len(e))
    alt_cc = fill_upper(dpotri(kept_factor[0], lower=True, overwrite_c=True)[0], mirror=True)
    gaps = [float(np.max(np.abs(ours - alt)))
            for ours, alt in ((w_cc, alt_cc), (w_cs, alt_cs), (w_ss, alt_ss))]
    return (w_cc, w_cs, w_sc, w_ss), gaps


class TestWalkMatrixFootprint:
    """walk_matrix updates in place and compares its routes a strip at a time."""

    @pytest.mark.parametrize(
        "n, excluded", [(40, [5]), (300, [0, 1, 150]), (600, [7, 299, 598])]
    )
    def test_blocks_and_gaps_match_the_whole_array_route(self, monkeypatch, n, excluded):
        spec = _core_periphery_game(n, seed=n)
        s = NodeSet.of(excluded, n)
        want_blocks, want_gaps = _walk_matrix_whole_arrays(spec, s)
        gaps = []
        monkeypatch.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
        wm = walk_matrix(spec, s)
        got = (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded)
        assert all(np.array_equal(x, y) for x, y in zip(got, want_blocks))
        assert gaps == want_gaps
        assert max(gaps) <= walks.CROSS_ROUTE_TOL

    def test_a_nan_anywhere_makes_the_gap_nan(self):
        ours = np.zeros((700, 5))
        alt = ours.copy()
        alt[600, 3] = np.nan
        assert np.isnan(walks._max_gap(ours, alt))
        alt[600, 3] = -2.5
        assert walks._max_gap(ours, alt) == 2.5

    def test_peak_memory_stays_under_three_full_arrays(self):
        n = 600
        spec = _core_periphery_game(n, seed=1)
        s = NodeSet.of([3, 100, 300], n)
        walk_matrix(spec, s)  # untraced first call: lazy imports and caches
        tracemalloc.start()
        try:
            walk_matrix(spec, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * n * n * 8

    # walk_matrix reads M's blocks from the inverse its game holds.
    @pytest.mark.parametrize("repeated", [False, True])
    @pytest.mark.parametrize(
        "excluded",
        [[0], [299], [0, 1, 2, 298, 299], [10, 11, 12, 40, 41, 150], list(range(3, 283, 7))],
        ids=["first-node", "last-node", "both-ends", "adjacent-runs", "forty-nodes"],
    )
    def test_held_blocks_and_gaps_match_the_whole_array_route(
        self, monkeypatch, excluded, repeated
    ):
        n = 300
        spec = _core_periphery_game(n, seed=11)
        s = NodeSet.of(excluded, n)
        gaps = []
        monkeypatch.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
        if repeated:
            walk_matrix(spec, NodeSet.of([n // 2], n))
            gaps.clear()
        assert bool(spec._held) == repeated
        wm = walk_matrix(spec, s)
        # The reference reads M from a fresh dpotri on a game that holds nothing.
        want_blocks, want_gaps = _walk_matrix_whole_arrays(certify(spec.network, spec.delta), s)
        got = (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded)
        assert all(np.array_equal(x, y) for x, y in zip(got, want_blocks))
        assert gaps == want_gaps

    def test_repeated_queries_make_no_full_size_inverse(self, monkeypatch):
        n = 200
        spec = _core_periphery_game(n, seed=2)
        shapes = []

        def counted(routine):
            def call(c, *args, **kwargs):
                shapes.append(c.shape)
                return routine(c, *args, **kwargs)
            return call

        monkeypatch.setattr(graphs, "dpotri", counted(graphs.dpotri))
        monkeypatch.setattr(walks, "dpotri", counted(walks.dpotri))
        walk_matrix(spec, NodeSet.of([4, 9], n))
        assert shapes == [(n, n), (n - 2, n - 2)]  # the held M, then the check route
        shapes.clear()
        walk_matrix(spec, NodeSet.of([0, 50, 199], n))
        spec.influence()
        spec.with_theta(np.full(n, 2.0)).influence()
        assert shapes == [(n - 3, n - 3)]


class TestSingleNodeIdentities:
    def _random_case(self, rng):
        n = int(rng.integers(3, 9))
        net = random_connected_graph(rng, n)
        return certify(net, safe_delta(rng, net)), n

    def test_removing_one_node_from_walk_counts(self):
        # counting walks that dodge i reproduces the rank-one correction
        rng = np.random.default_rng(71)
        for _ in range(20):
            spec, n = self._random_case(rng)
            m = leontief_matrix(spec)
            i = int(rng.integers(n))
            wm = walk_matrix(spec, NodeSet.of([i]))
            keep = [t for t in range(n) if t != i]
            for a, j in enumerate(keep):
                for c, k in enumerate(keep):
                    assert m[j, k] - wm.kept_kept[a, c] == pytest.approx(
                        m[j, i] * m[i, k] / m[i, i], abs=1e-10
                    )

    def test_self_loop_exchange_symmetry(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            spec, n = self._random_case(rng)
            m = leontief_matrix(spec)
            i, j = rng.choice(n, size=2, replace=False)
            wi = walk_matrix(spec, NodeSet.of([int(i)]))
            wj = walk_matrix(spec, NodeSet.of([int(j)]))
            pos_j = j - (1 if i < j else 0)
            pos_i = i - (1 if j < i else 0)
            left = m[i, i] * wi.kept_kept[pos_j, pos_j]
            right = m[j, j] * wj.kept_kept[pos_i, pos_i]
            assert left == pytest.approx(right, abs=1e-10)


class TestAvoidance:
    def test_two_singleton_closed_form(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            net = random_connected_graph(rng, n)
            spec = certify(net, safe_delta(rng, net))
            m = leontief_matrix(spec)
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            block = avoidance_block(spec, NodeSet.of([i]), NodeSet.of([j]))
            want = m[i, j] / (m[i, i] * m[j, j] - m[i, j] ** 2)
            assert block[0, 0] == pytest.approx(want, abs=1e-10)

    def test_block_shape_and_disjointness(self):
        spec = path(5, 0.2)
        block = avoidance_block(spec, NodeSet.of([0, 1]), NodeSet.of([3, 4]))
        assert block.shape == (2, 2)
        with pytest.raises(InputError):
            avoidance_block(spec, NodeSet.of([0, 1]), NodeSet.of([1, 2]))
        with pytest.raises(InputError):
            avoidance_block(spec, NodeSet(()), NodeSet.of([1]))

    def test_matches_enumeration(self):
        spec = path(4, 0.3)
        a, b = NodeSet.of([0]), NodeSet.of([3])
        block = avoidance_block(spec, a, b)
        censored = NodeSet.of([0, 3])
        total = enumerate_avoiding_walks(spec.network, spec.delta, 0, 3, censored, max_len=60)
        tail = truncation_tail_bound(spec.delta, spec.lambda_max, 60)
        assert abs(block[0, 0] - total) <= tail + 1e-12


class TestDecomposition:
    def test_direct_term_and_identity(self, regular10):
        spec = certify(regular10, 0.2)
        s = NodeSet.of_labels(regular10, ["1", "7"])
        parts = intercentrality_decomposition(spec, s)
        rep = katz_bonacich(spec)
        assert parts["direct"] == pytest.approx(rep.b[list(s)].sum(), abs=1e-12)
        total = intercentrality(spec, s).intercentrality
        assert parts["direct"] + parts["walk_mediated"] == pytest.approx(total, abs=1e-9)

    def test_requires_unit_theta(self, regular10):
        spec = certify(regular10, 0.2, np.linspace(0.5, 1.5, 10))
        with pytest.raises(InputError):
            intercentrality_decomposition(spec, NodeSet.of([0]))


class TestEnumeration:
    def test_hand_counted_path_cases(self):
        net = path(3, 0.25).network
        mid = NodeSet.of([1])
        # no way between the endpoints without crossing the middle
        assert enumerate_avoiding_walks(net, 0.25, 0, 2, mid, max_len=30) == 0.0
        # closed walks at an endpoint all bounce off the middle
        assert enumerate_avoiding_walks(net, 0.25, 0, 0, mid, max_len=30) == 1.0
        # the censored node itself may start and finish, not pass through
        got = enumerate_avoiding_walks(net, 0.25, 1, 1, mid, max_len=30)
        assert got == pytest.approx(1.0 + 2 * 0.25**2, abs=1e-15)

    def test_monotone_in_max_len_and_convergent(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            net = random_connected_graph(rng, n)
            spec = certify(net, safe_delta(rng, net, frac_hi=0.7))
            s_members = rng.permutation(n)[: int(rng.integers(1, n - 1))]
            s = NodeSet.of(s_members)
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            prev = -1.0
            for cap in (5, 10, 20, 40):
                cur = enumerate_avoiding_walks(spec.network, spec.delta, i, j, s, max_len=cap)
                assert cur >= prev - 1e-15
                prev = cur
            wm = walk_matrix(spec, s)
            tail = truncation_tail_bound(spec.delta, spec.lambda_max, 40)
            assert abs(wm.entry(i, j) - prev) <= tail + 1e-12

    def test_bounds_checked(self):
        net = path(3, 0.2).network
        with pytest.raises(InputError):
            enumerate_avoiding_walks(net, 0.2, 0, 5, NodeSet.of([1]))
        with pytest.raises(InputError):
            enumerate_avoiding_walks(net, 0.2, 0, 1, NodeSet.of([4]))
        with pytest.raises(InputError):
            enumerate_avoiding_walks(net, 0.2, 0, 1, NodeSet.of([1]), max_len=-1)


class TestTailBound:
    def test_decreasing_in_length(self):
        bounds = [truncation_tail_bound(0.2, 3.0, k) for k in (10, 20, 40)]
        assert bounds[0] > bounds[1] > bounds[2] > 0.0

    def test_divergent_regime(self):
        assert truncation_tail_bound(0.5, 2.0, 10) == np.inf
        assert truncation_tail_bound(0.6, 2.0, 10) == np.inf

    def test_geometric_value(self):
        assert truncation_tail_bound(0.25, 2.0, 3) == pytest.approx(0.5**4 / 0.5, abs=1e-15)
