import numpy as np
import pytest
from scipy.linalg import cho_factor

from netsurgeon import (
    InputError,
    InternalCheckError,
    Network,
    SpectralConditionError,
    StructuralIntervention,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    congestion_equilibrium,
    global_substitution_equilibrium,
    katz_bonacich,
    multi_activity_equilibrium,
    spectral_radius,
    structural_effect,
)
from netsurgeon import extensions, graphs

from .conftest import random_connected_graph, safe_delta
from .test_refusal_enclosure import build, eig_lambda_max


def foc_residual_multi(spec, xa, xb):
    g = spec.network.adjacency
    ra = xa - spec.theta_a - spec.delta * (g @ xa) + spec.beta * xb
    rb = xb - spec.theta_b - spec.delta * (g @ xb) + spec.beta * xa
    return max(np.max(np.abs(ra)), np.max(np.abs(rb)))


class TestMultiActivity:
    def _spec(self, beta, delta=0.1, seed=0):
        rng = np.random.default_rng(seed)
        net = random_connected_graph(rng, 7)
        ta = rng.uniform(0.5, 2.0, 7)
        tb = rng.uniform(0.5, 2.0, 7)
        return certify_multi_activity(net, delta, beta, ta, tb)

    def test_first_order_conditions(self):
        for beta in (-0.4, -0.1, 0.0, 0.2, 0.5):
            spec = self._spec(beta, seed=int((beta + 1) * 10))
            eq = multi_activity_equilibrium(spec)
            assert foc_residual_multi(spec, eq["activity_a"], eq["activity_b"]) <= 1e-9

    def test_beta_zero_decouples(self):
        spec = self._spec(0.0, seed=3)
        eq = multi_activity_equilibrium(spec)
        plain_a = certify(spec.network, spec.delta, spec.theta_a)
        plain_b = certify(spec.network, spec.delta, spec.theta_b)
        np.testing.assert_allclose(eq["activity_a"], plain_a.solve(spec.theta_a), atol=1e-10)
        np.testing.assert_allclose(eq["activity_b"], plain_b.solve(spec.theta_b), atol=1e-10)

    def test_identical_characteristics_give_identical_activities(self):
        rng = np.random.default_rng(5)
        net = random_connected_graph(rng, 6)
        theta = rng.uniform(0.5, 2.0, 6)
        spec = certify_multi_activity(net, 0.08, 0.3, theta, theta)
        eq = multi_activity_equilibrium(spec)
        np.testing.assert_allclose(eq["activity_a"], eq["activity_b"], atol=1e-12)

    def test_certification_shrinks_with_mixing_cost(self):
        net = Network.from_edges([("a", "b")])  # lambda = 1
        certify_multi_activity(net, 0.55, 0.0, np.ones(2), np.ones(2))
        with pytest.raises(SpectralConditionError):
            certify_multi_activity(net, 0.55, 0.5, np.ones(2), np.ones(2))
        with pytest.raises(InputError):
            certify_multi_activity(net, 0.1, 1.0, np.ones(2), np.ones(2))

    def test_structural_intervention_consistency(self):
        # updating each constituent game locally must equal the full re-solve
        rng = np.random.default_rng(9)
        net = Network.from_edges(
            [(str(i), str(i + 1)) for i in range(1, 7)] + [("2", "5"), ("3", "6")]
        )
        ta = rng.uniform(0.5, 2.0, 7)
        tb = rng.uniform(0.5, 2.0, 7)
        beta = 0.25
        delta = 0.05
        iv = StructuralIntervention.from_label_pairs(
            net, add=[("1", "7")], remove=[("2", "5")]
        )
        post_net = iv.applied_to(net)

        sum_spec = certify(net, delta / (1 + beta), ta + tb)
        diff_spec = certify(net, delta / (1 - beta), ta - tb)
        new_sum = structural_effect(sum_spec, iv).post_b
        new_diff = structural_effect(diff_spec, iv).post_b
        xa = 0.5 * new_sum / (1 + beta) + 0.5 * new_diff / (1 - beta)
        xb = 0.5 * new_sum / (1 + beta) - 0.5 * new_diff / (1 - beta)

        direct = multi_activity_equilibrium(
            certify_multi_activity(post_net, delta, beta, ta, tb)
        )
        np.testing.assert_allclose(xa, direct["activity_a"], atol=1e-9)
        np.testing.assert_allclose(xb, direct["activity_b"], atol=1e-9)


class TestCongestion:
    def test_gamma_zero_is_plain_centrality(self):
        rng = np.random.default_rng(11)
        net = random_connected_graph(rng, 6)
        delta = safe_delta(rng, net)
        x = congestion_equilibrium(certify_congestion(net, delta, 0.0))
        np.testing.assert_allclose(x, katz_bonacich(certify(net, delta)).b, atol=1e-10)

    def test_first_order_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_connected_graph(rng, int(rng.integers(4, 9)))
            delta = 0.3 / spectral_radius(net)
            gamma = float(rng.uniform(0.0, 0.05))
            theta = rng.uniform(0.5, 2.0, net.n)
            spec = certify_congestion(net, delta, gamma, theta)
            x = congestion_equilibrium(spec)
            g = net.adjacency
            res = x - theta - delta * (g @ x) + gamma * (g @ (g @ x))
            assert np.max(np.abs(res)) <= 1e-9

    def test_real_root_split_matches_direct_inverse(self):
        net = Network.from_edges([("1", "2"), ("2", "3"), ("3", "4")])
        delta, gamma = 0.3, 0.02  # two real roots, both certified
        disc = np.sqrt(delta**2 - 4 * gamma)
        b1, b2 = (delta + disc) / 2, (delta - disc) / 2
        g = net.adjacency
        lhs = np.linalg.inv(np.eye(4) - delta * g + gamma * (g @ g))
        split = (
            b1 / (b1 - b2) * np.linalg.inv(np.eye(4) - b1 * g)
            - b2 / (b1 - b2) * np.linalg.inv(np.eye(4) - b2 * g)
        )
        np.testing.assert_allclose(lhs, split, atol=1e-10)
        # the library's own cross-check runs on the same regime without tripping
        x = congestion_equilibrium(certify_congestion(net, delta, gamma))
        np.testing.assert_allclose(x, lhs @ np.ones(4), atol=1e-10)

    def test_split_check_refuses_a_wrong_direct_solve(self, monkeypatch):
        # Well inside the bound the check is live: a system off by 1e-6 trips it.
        # The spec keeps the system it was certified with, so the fault goes in first.
        net = Network.from_edges([("1", "2"), ("2", "3"), ("3", "4")])
        right = extensions._congestion_system
        monkeypatch.setattr(
            extensions, "_congestion_system", lambda *args: right(*args) + 1e-6 * np.eye(4)
        )
        spec = certify_congestion(net, 0.3, 0.02)
        with pytest.raises(InternalCheckError, match="congestion split disagrees"):
            congestion_equilibrium(spec)

    @pytest.mark.parametrize("family, n", [("er", 60), ("er", 300), ("path", 40), ("path", 120)])
    def test_the_chain_compares_at_a_near_repeated_root(self, monkeypatch, family, n):
        # delta = 2 sqrt(gamma) (1 + 1e-9): real roots 1e-9 apart, which the
        # chain of two plain solves checks; (1 - 1e-9): complex, nothing to check.
        net = build(family, n, 7)
        g = net.adjacency
        gamma = (0.45 / eig_lambda_max(net)) ** 2
        for side in (1.0, -1.0):
            delta = 2.0 * np.sqrt(gamma) * (1.0 + side * 1e-9)
            x = congestion_equilibrium(certify_congestion(net, delta, gamma))
            dense = np.linalg.solve(np.eye(n) - delta * g + gamma * (g @ g), np.ones(n))
            np.testing.assert_allclose(x, dense, rtol=0, atol=1e-10)
        # The comparison is live there: a system off by 1e-6 trips it.
        right = extensions._congestion_system
        monkeypatch.setattr(
            extensions, "_congestion_system", lambda *args: right(*args) + 1e-6 * np.eye(n)
        )
        spec = certify_congestion(net, 2.0 * np.sqrt(gamma) * (1.0 + 1e-9), gamma)
        with pytest.raises(InternalCheckError, match="congestion split disagrees"):
            congestion_equilibrium(spec)

    def test_complex_root_regime_still_solves(self):
        net = Network.from_edges([("1", "2"), ("2", "3")])
        spec = certify_congestion(net, 0.2, 0.05)  # delta^2 < 4 gamma
        x = congestion_equilibrium(spec)
        g = net.adjacency
        lhs = np.eye(3) - 0.2 * g + 0.05 * (g @ g)
        np.testing.assert_allclose(lhs @ x, np.ones(3), atol=1e-10)

    def test_a_failed_solve_factor_is_one_input_error(self):
        # Built past the certificate: on the kite at gamma 5e307 the formed
        # system has no Cholesky factor although the exact one is definite.
        net = Network.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
        spec = extensions.CongestionSpec(net, np.ones(4), 0.3, 5e307)
        with pytest.raises(InputError, match="^game system is not positive definite in floating"):
            congestion_equilibrium(spec)

    def test_definiteness_guard(self):
        net = Network.from_edges(
            [(str(i), str(j)) for i in range(1, 6) for j in range(i + 1, 6)]
        )  # complete, lambda = 4
        with pytest.raises(InputError):
            certify_congestion(net, 0.6, 0.02)
        with pytest.raises(InputError):
            certify_congestion(net, -0.1, 0.02)
        with pytest.raises(InputError):
            certify_congestion(net, 0.1, -0.01)


class TestGlobalSubstitution:
    def test_phi_zero_is_plain_centrality(self):
        rng = np.random.default_rng(17)
        net = random_connected_graph(rng, 6)
        delta = safe_delta(rng, net)
        x = global_substitution_equilibrium(certify_global_substitution(net, delta, 0.0))
        np.testing.assert_allclose(x, katz_bonacich(certify(net, delta)).b, atol=1e-10)

    def test_first_order_conditions(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            net = random_connected_graph(rng, int(rng.integers(4, 9)))
            phi = float(rng.uniform(0.0, 0.6))
            delta = float(rng.uniform(0.2, 0.8)) * (1 - phi) / spectral_radius(net)
            spec = certify_global_substitution(net, delta, phi)
            x = global_substitution_equilibrium(spec)
            n = net.n
            system = (1 - phi) * np.eye(n) - delta * net.adjacency + phi * np.ones((n, n))
            np.testing.assert_allclose(system @ x, np.ones(n), atol=1e-9)

    def test_global_pressure_lowers_activity(self):
        net = Network.from_edges([("a", "b"), ("b", "c")])
        free = global_substitution_equilibrium(certify_global_substitution(net, 0.1, 0.0))
        taxed = global_substitution_equilibrium(certify_global_substitution(net, 0.1, 0.4))
        assert np.all(taxed < free)

    def test_certification_bounds(self):
        net = Network.from_edges([("a", "b")])
        with pytest.raises(InputError):
            certify_global_substitution(net, 0.2, 1.0)
        with pytest.raises(InputError):
            certify_global_substitution(net, 0.2, -0.1)
        with pytest.raises(SpectralConditionError):
            certify_global_substitution(net, 0.6, 0.5)  # stretched weight 1.2 > 1


class TestPlainGamesOnTheKernel:
    """Each extension's plain games are GameSpecs, certified from their own factor."""

    @staticmethod
    def _count_factorizations(monkeypatch):
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return cho_factor(a, *args, **kwargs)

        monkeypatch.setattr(graphs, "cho_factor", counted)
        monkeypatch.setattr(extensions, "cho_factor", counted)
        return calls

    @staticmethod
    def _game():
        net = random_connected_graph(np.random.default_rng(23), 30)
        return net, 0.5 / spectral_radius(net)

    def test_global_factors_once(self, monkeypatch):
        net, delta = self._game()
        calls = self._count_factorizations(monkeypatch)
        x = global_substitution_equilibrium(certify_global_substitution(net, delta, 0.3))
        assert len(calls) == 1
        system = 0.7 * np.eye(30) - delta * net.adjacency + 0.3 * np.ones((30, 30))
        np.testing.assert_allclose(system @ x, np.ones(30), atol=1e-10)

    @pytest.mark.parametrize("beta, factorizations", [(0.3, 2), (-0.3, 2), (0.0, 1)])
    def test_multi_factors_each_distinct_weight_once(self, monkeypatch, beta, factorizations):
        net, delta = self._game()
        theta_a, theta_b = np.linspace(0.5, 1.5, 30), np.linspace(1.5, 0.5, 30)
        calls = self._count_factorizations(monkeypatch)
        spec = certify_multi_activity(net, delta * (1 - abs(beta)), beta, theta_a, theta_b)
        eq = multi_activity_equilibrium(spec)
        assert len(calls) == factorizations
        assert foc_residual_multi(spec, eq["activity_a"], eq["activity_b"]) <= 1e-10

    def test_congestion_factors_four_times(self, monkeypatch):
        net, delta = self._game()
        gamma = 0.1 * delta * delta  # two real roots, both inside the plain bound
        calls = self._count_factorizations(monkeypatch)
        x = congestion_equilibrium(certify_congestion(net, delta, gamma))
        assert len(calls) == 4
        g = net.adjacency
        res = x - 1.0 - delta * (g @ x) + gamma * (g @ (g @ x))
        assert np.max(np.abs(res)) <= 1e-10

    def test_congestion_with_complex_roots_factors_once(self, monkeypatch):
        # delta^2 < 4 gamma with room to spare: the quadratic certifies the
        # system, and the solve's factor is the game's only one.
        net, delta = self._game()
        gamma = delta * delta
        calls = self._count_factorizations(monkeypatch)
        x = congestion_equilibrium(certify_congestion(net, delta, gamma))
        assert len(calls) == 1
        g = net.adjacency
        res = x - 1.0 - delta * (g @ x) + gamma * (g @ (g @ x))
        assert np.max(np.abs(res)) <= 1e-10

    def test_zero_delta_is_accepted(self):
        net, _ = self._game()
        theta_a, theta_b = np.linspace(0.5, 1.5, 30), np.linspace(1.5, 0.5, 30)
        for beta in (0.0, 0.4, -0.4):
            spec = certify_multi_activity(net, 0.0, beta, theta_a, theta_b)
            eq = multi_activity_equilibrium(spec)
            assert foc_residual_multi(spec, eq["activity_a"], eq["activity_b"]) <= 1e-14
        x = global_substitution_equilibrium(certify_global_substitution(net, 0.0, 0.25))
        np.testing.assert_array_equal(x, np.full(30, 1.0 / (0.75 + 0.25 * 30)))
        x = congestion_equilibrium(certify_congestion(net, 0.0, 0.0, theta_a))
        np.testing.assert_array_equal(x, theta_a)

    def test_refusals_keep_their_wording(self):
        net = Network.from_edges([("a", "b"), ("b", "c")])  # lambda = sqrt(2)
        lam = spectral_radius(net)
        with pytest.raises(SpectralConditionError) as exc:
            certify_multi_activity(net, 0.5, -0.4, np.ones(3), np.ones(3))
        assert str(exc.value) == str(SpectralConditionError(0.5, lam / 0.6))
        with pytest.raises(SpectralConditionError) as exc:
            certify_global_substitution(net, 0.5, 0.4)
        assert str(exc.value) == str(SpectralConditionError(0.5, lam / 0.6))

    def test_an_overflowing_weight_is_refused_not_solved(self):
        # delta / (1 - |beta|) overflows; every G, even an edgeless one, is refused
        # with one message instead of a system full of inf * 0.
        net = Network.from_edges([], isolated=["1", "2", "3"])
        with pytest.raises(SpectralConditionError):
            certify_multi_activity(net, 1e308, 0.5, np.ones(3), np.ones(3))
        with pytest.raises(SpectralConditionError):
            certify_global_substitution(net, 1e308, 0.5)
