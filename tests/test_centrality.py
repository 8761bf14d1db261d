import io
import json

import numpy as np
import pytest

from netsurgeon import (
    Network,
    NodeSet,
    certify,
    cli,
    katz_bonacich,
    spectral_radius,
)

from .conftest import dense_inverse, dyad, random_graph


def star_spec(leaves, delta):
    net = Network.from_edges([("h", f"l{i}") for i in range(1, leaves + 1)])
    return certify(net, delta)


class TestClosedForms:
    def test_dyad(self):
        rep = katz_bonacich(dyad(0.25))
        np.testing.assert_allclose(rep.b, [4.0 / 3.0, 4.0 / 3.0], atol=1e-12)
        assert rep.aggregate == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_triangle(self):
        net = Network.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        rep = katz_bonacich(certify(net, 0.2))
        # x = 1 + 2 delta x on a fully symmetric triangle
        np.testing.assert_allclose(rep.b, np.full(3, 1.0 / 0.6), atol=1e-12)

    def test_star(self):
        k, delta = 5, 0.3
        spec = star_spec(k, delta)
        hub = spec.network.index_of("h")
        denom = 1.0 - k * delta**2
        rep = katz_bonacich(spec)
        assert rep.b[hub] == pytest.approx((1.0 + k * delta) / denom, abs=1e-12)
        leaf = spec.network.index_of("l1")
        assert rep.b[leaf] == pytest.approx((1.0 + delta) / denom, abs=1e-12)

    def test_weighted_theta(self):
        spec = dyad(0.25).with_theta(np.array([2.0, 0.0]))
        rep = katz_bonacich(spec)
        # 2/(1-d^2) and 2d/(1-d^2)
        np.testing.assert_allclose(rep.b, [32.0 / 15.0, 8.0 / 15.0], atol=1e-12)
        # unweighted companion ignores theta
        np.testing.assert_allclose(rep.b_unweighted, [4.0 / 3.0, 4.0 / 3.0], atol=1e-12)


class TestReportShape:
    def test_json_dict_keys_and_rounding_are_stable(self, tmp_path):
        graph = tmp_path / "dyad.txt"
        graph.write_text("a b\n")
        out = io.StringIO()
        assert cli.run(["centrality", "--graph", str(graph), "--delta", "0.25"], out=out) == 0
        d = json.loads(out.getvalue())
        assert list(d) == ["labels", "b", "self_loops", "aggregate"]
        assert d["labels"] == ["a", "b"]

    def test_self_loops_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            net = random_graph(rng, 7)
            spec = certify(net, 0.7 / max(spectral_radius(net), 1.0))
            rep = katz_bonacich(spec)
            assert np.all(rep.self_loops >= 1.0 - 1e-12)
            assert rep.aggregate == pytest.approx(rep.b.sum(), abs=1e-12)


class TestLeontief:
    # Sizes past one strip of the in-place triangle fill, and its boundary.
    @pytest.mark.parametrize("n", [2, 9, 256, 600])
    def test_influence_is_the_identity_solve_exactly_symmetric(self, n):
        net = random_graph(np.random.default_rng(n), n, p=min(0.5, 8 / n))
        spec = certify(net, 0.9 / max(spectral_radius(net), 1.0))
        m = spec.influence()
        assert np.array_equal(m, m.T)
        want = spec.solve(np.eye(n))
        assert np.max(np.abs(m - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [0, 1, 9, 256, 600])
    def test_self_loops_are_the_diagonal_of_the_inverse(self, n):
        net = random_graph(np.random.default_rng(n), n, p=min(0.5, 8 / max(n, 1)))
        spec = certify(net, 0.9 / max(spectral_radius(net), 1.0))
        np.testing.assert_allclose(
            spec.self_loops, np.diag(dense_inverse(net, spec.delta)), rtol=1e-13, atol=0
        )
        assert not spec.self_loops.flags.writeable

    def test_block_matches_dense_inverse(self):
        rng = np.random.default_rng(9)
        net = random_graph(rng, 8, p=0.5)
        spec = certify(net, 0.6 / max(spectral_radius(net), 1.0))
        m = dense_inverse(net, spec.delta)
        rows, cols = NodeSet.of([0, 3, 5]), NodeSet.of([1, 2, 6, 7])
        block = spec.solve(np.eye(net.n)[:, list(cols.members)])[list(rows.members), :]
        np.testing.assert_allclose(block, m[np.ix_(rows.members, cols.members)], atol=1e-10)

    def test_block_transpose_symmetry(self):
        rng = np.random.default_rng(21)
        net = random_graph(rng, 9, p=0.4)
        spec = certify(net, 0.65 / max(spectral_radius(net), 1.0))
        a, b = NodeSet.of([0, 2, 4]), NodeSet.of([1, 5, 8])
        ab = spec.solve(np.eye(net.n)[:, list(b.members)])[list(a.members), :]
        ba = spec.solve(np.eye(net.n)[:, list(a.members)])[list(b.members), :]
        np.testing.assert_allclose(ab, ba.T, atol=1e-12)

    def test_row_sums_equal_unweighted_centrality(self):
        rng = np.random.default_rng(13)
        net = random_graph(rng, 10, p=0.35)
        spec = certify(net, 0.7 / max(spectral_radius(net), 1.0))
        m = spec.influence()
        rep = katz_bonacich(spec)
        np.testing.assert_allclose(m.sum(axis=1), rep.b_unweighted, atol=1e-10)

    def test_truncated_power_series_within_tail_bound(self):
        # geometric tail controls the truncation error of the walk series
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = random_graph(rng, int(rng.integers(3, 11)), p=0.45)
            lam = max(spectral_radius(net), 1.0)
            delta = 0.7 / lam
            spec = certify(net, delta)
            m = spec.influence()
            acc = np.zeros_like(m)
            term = np.eye(net.n)
            for _k in range(201):
                acc += term
                term = delta * (net.adjacency @ term)
            r = delta * spectral_radius(net)
            tail = r ** 201 / (1.0 - r) if r > 0 else 0.0
            assert np.max(np.abs(acc - m)) <= tail + 1e-12

    def test_adding_edge_raises_every_entry(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_graph(rng, 7, p=0.3)
            absent = [
                (i, j)
                for i in range(7)
                for j in range(i + 1, 7)
                if net.adjacency[i, j] == 0
            ]
            if not absent:
                continue
            i, j = absent[int(rng.integers(len(absent)))]
            grown = net.adjacency.copy()
            grown[i, j] = grown[j, i] = 1.0
            net2 = Network(net.labels, grown)
            delta = 0.6 / max(spectral_radius(net2), 1.0)
            m1 = certify(net, delta).influence()
            m2 = certify(net2, delta).influence()
            assert np.all(m2 - m1 >= -1e-12)
            assert np.all(m2.sum(axis=1) - m1.sum(axis=1) >= -1e-12)
