"""Intervention machinery: the local update must always equal a re-solve."""

import numpy as np
import pytest

from netsurgeon import (
    CharacteristicIntervention,
    InputError,
    Network,
    SpectralConditionError,
    StructuralIntervention,
    certify,
    characteristic_effect,
    equivalent_theta,
    hybrid_effect,
    katz_bonacich,
    spectral_radius,
    structural_effect,
    sufficient_increase_check,
)

from .conftest import oracle_b, random_graph, random_legal_intervention, safe_delta
from .oracle import as_matrix, degree, inverse, node_removal


def small_spec(delta=0.2, theta=None):
    net = Network.from_edges(
        [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4")]
    )
    return certify(net, delta, theta)


class TestCharacteristic:
    def test_effect_matches_oracle(self):
        spec = small_spec(theta=np.array([1.0, 2.0, 0.5, 1.5]))
        iv = CharacteristicIntervention.from_pairs(spec.network, {"2": 0.7, "4": -0.2})
        eff = characteristic_effect(spec, iv)
        direct = oracle_b(spec.network, spec.delta, spec.theta + iv.delta_theta)
        np.testing.assert_allclose(eff.post_b, direct, atol=1e-10)
        assert eff.delta_aggregate == pytest.approx(direct.sum() - spec.solve(spec.theta).sum(), abs=1e-9)

    def test_unknown_label_rejected(self):
        spec = small_spec()
        with pytest.raises(InputError):
            CharacteristicIntervention.from_pairs(spec.network, {"9": 1.0})

    def test_zero_intervention(self):
        spec = small_spec()
        iv = CharacteristicIntervention.from_pairs(spec.network, {})
        eff = characteristic_effect(spec, iv)
        assert eff.delta_aggregate == 0.0
        np.testing.assert_array_equal(eff.delta_x, np.zeros(4))

    def test_linearity_in_the_shift(self):
        spec = small_spec()
        iv = CharacteristicIntervention.from_pairs(spec.network, {"1": 0.3, "3": -0.1})
        one = characteristic_effect(spec, iv)
        stretched = characteristic_effect(spec, CharacteristicIntervention(2.5 * iv.delta_theta))
        np.testing.assert_allclose(stretched.delta_x, 2.5 * one.delta_x, atol=1e-10)
        assert stretched.delta_aggregate == pytest.approx(2.5 * one.delta_aggregate, abs=1e-10)


class TestStructuralValidation:
    def test_entry_normalization(self):
        with pytest.raises(InputError):
            StructuralIntervention(frozenset([(2, 1, 1)]))  # i < j required
        with pytest.raises(InputError):
            StructuralIntervention(frozenset([(1, 1, 1)]))
        with pytest.raises(InputError):
            StructuralIntervention(frozenset([(0, 1, 2)]))
        with pytest.raises(InputError):
            StructuralIntervention(frozenset([(0, 1, 1), (0, 1, -1)]))

    def test_negative_index_rejected(self):
        # Read as range(n)[-1], index -1 would name the last node: on the
        # path 0-1-2-3-4 this change priced and added link (2, 4).
        net = Network.from_edges([(str(i), str(i + 1)) for i in range(4)])
        with pytest.raises(InputError, match=r"^negative node index in \(-1,2\)$"):
            iv = StructuralIntervention(frozenset({(-1, 2, 1)}))
            sufficient_increase_check(certify(net, 0.2), iv)

    def test_legality_against_network(self):
        spec = small_spec()
        with pytest.raises(InputError):
            StructuralIntervention.from_label_pairs(spec.network, add=[("1", "2")])
        with pytest.raises(InputError):
            StructuralIntervention.from_label_pairs(spec.network, remove=[("1", "3")])

    def test_as_matrix_and_inverse(self):
        spec = small_spec()
        iv = StructuralIntervention.from_label_pairs(
            spec.network, add=[("1", "3")], remove=[("2", "4")]
        )
        c = as_matrix(iv, 4)
        np.testing.assert_array_equal(c, c.T)
        assert c[0, 2] == 1 and c[1, 3] == -1
        np.testing.assert_array_equal(as_matrix(inverse(iv), 4), -c)
        assert iv.support().labels(spec.network) == ("1", "2", "3", "4")

    def test_applied_to(self):
        spec = small_spec()
        iv = StructuralIntervention.from_label_pairs(spec.network, add=[("1", "3")])
        post = iv.applied_to(spec.network)
        assert post.adjacency[0, 2] == 1.0
        assert spec.network.adjacency[0, 2] == 0.0

    def test_node_removal_cuts_every_incident_link(self):
        spec = small_spec()
        iv = node_removal(spec.network, ["2"])
        post = iv.applied_to(spec.network)
        assert degree(post, post.index_of("2")) == 0
        assert post.adjacency.sum() == 2 * 2  # edges 3-4 and 1-4 survive


class TestStructuralEffect:
    def test_matches_resolve_on_fixed_example(self):
        spec = small_spec(theta=np.array([1.0, 0.8, 1.2, 1.0]))
        iv = StructuralIntervention.from_label_pairs(
            spec.network, add=[("1", "3")], remove=[("2", "4")]
        )
        eff = structural_effect(spec, iv)
        post = oracle_b(iv.applied_to(spec.network), spec.delta, spec.theta)
        np.testing.assert_allclose(eff.post_b, post, atol=1e-9)
        assert eff.delta_aggregate == pytest.approx(
            post.sum() - oracle_b(spec.network, spec.delta, spec.theta).sum(), abs=1e-9
        )

    def test_equivalent_shift_lives_on_support_and_replicates(self):
        spec = small_spec()
        iv = StructuralIntervention.from_label_pairs(spec.network, remove=[("2", "4")])
        shift = equivalent_theta(spec, iv)
        outside = [i for i in range(4) if i not in iv.support().members]
        assert np.all(shift.delta_theta[outside] == 0.0)
        # feeding the shift back as a plain theta change reproduces the new equilibrium
        replay = characteristic_effect(spec, shift)
        post = oracle_b(iv.applied_to(spec.network), spec.delta, spec.theta)
        np.testing.assert_allclose(replay.post_b, post, atol=1e-9)

    def test_locality_of_the_shift(self):
        # the shift derived from the small blocks equals the one recovered by
        # pushing the re-solved equilibrium back through (I - delta G)
        rng = np.random.default_rng(31)
        for _ in range(25):
            net = random_graph(rng, 8, p=0.4)
            iv = random_legal_intervention(rng, net)
            post_net = iv.applied_to(net)
            delta = safe_delta(rng, net, post_net)
            theta = rng.uniform(0.5, 2.0, 8)
            spec = certify(net, delta, theta)
            shift = equivalent_theta(spec, iv).delta_theta
            x_post = oracle_b(post_net, delta, theta)
            recovered = (np.eye(8) - delta * net.adjacency) @ x_post - theta
            np.testing.assert_allclose(shift, recovered, atol=1e-9)

    def test_apply_then_undo_is_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            net = random_graph(rng, 7, p=0.45)
            iv = random_legal_intervention(rng, net)
            post_net = iv.applied_to(net)
            delta = safe_delta(rng, net, post_net)
            spec = certify(net, delta, rng.uniform(0.5, 2.0, 7))
            forward = structural_effect(spec, iv)
            back = structural_effect(
                certify(post_net, delta, spec.theta), inverse(iv)
            )
            np.testing.assert_allclose(forward.delta_x + back.delta_x, 0.0, atol=1e-9)

    def test_post_spectral_condition_checked(self):
        # densifying a near-critical graph must be refused, not extrapolated
        net = Network.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
        spec = certify(net, 0.49)  # cycle lambda = 2
        iv = StructuralIntervention.from_label_pairs(
            net, add=[("1", "3"), ("2", "4")]
        )
        with pytest.raises(SpectralConditionError):
            structural_effect(spec, iv)

    def test_empty_intervention(self):
        spec = small_spec()
        iv = StructuralIntervention(frozenset())
        assert iv.is_empty()
        eff = structural_effect(spec, iv)
        assert eff.delta_aggregate == 0.0


class TestHybrid:
    def test_matches_full_resolve(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            net = random_graph(rng, 8, p=0.4)
            iv = random_legal_intervention(rng, net)
            post_net = iv.applied_to(net)
            delta = safe_delta(rng, net, post_net)
            theta = rng.uniform(0.5, 2.0, 8)
            spec = certify(net, delta, theta)
            dtheta = CharacteristicIntervention.from_pairs(
                net, {net.labels[int(rng.integers(8))]: float(rng.uniform(-0.3, 0.8))}
            )
            eff = hybrid_effect(spec, iv, dtheta)
            direct = oracle_b(post_net, delta, theta + dtheta.delta_theta)
            np.testing.assert_allclose(eff.post_b, direct, atol=1e-9)


class TestSufficientIncrease:
    def test_requires_unit_theta(self):
        spec = small_spec(theta=np.array([1.0, 1.0, 1.0, 2.0]))
        iv = StructuralIntervention.from_label_pairs(spec.network, add=[("1", "3")])
        with pytest.raises(InputError):
            sufficient_increase_check(spec, iv)

    def test_single_addition_reports_strict_increase(self):
        spec = small_spec()
        b = katz_bonacich(spec).b
        iv = StructuralIntervention.from_label_pairs(spec.network, add=[("1", "3")])
        report = sufficient_increase_check(spec, iv)
        assert report["quadratic_form"] == pytest.approx(2.0 * b[0] * b[2], abs=1e-12)
        assert report["guaranteed_increase"] and report["strict_increase"]

    def test_pure_removal_gives_no_guarantee(self):
        spec = small_spec()
        iv = StructuralIntervention.from_label_pairs(spec.network, remove=[("2", "4")])
        report = sufficient_increase_check(spec, iv)
        assert report["quadratic_form"] < 0.0
        assert not report["guaranteed_increase"]

    def test_degenerate_swap_sits_on_the_boundary(self):
        # swapping between endpoints of equal centrality zeroes the form
        net = Network.from_edges([("1", "2"), ("3", "4"), ("1", "3")])
        lam = spectral_radius(net)
        spec = certify(net, 0.5 / lam)
        b = katz_bonacich(spec).b
        assert b[1] == pytest.approx(b[3], abs=1e-12)  # symmetric ends
        iv = StructuralIntervention.from_label_pairs(
            net, add=[("1", "4")], remove=[("1", "2")]
        )
        report = sufficient_increase_check(spec, iv)
        assert abs(report["quadratic_form"]) < 1e-9
        assert report["guaranteed_increase"] and not report["strict_increase"]
