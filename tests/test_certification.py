"""Exact spectral certification at 1e-6 of the bound on slow-gap paths.

On a long path the top two adjacency eigenvalues nearly coincide, so any
iterative estimate of lambda_max converges slowly and can stop short. These
tests pose games at 0.999999 and 1.000001 of the bound computed by numpy's
full eigensolver: the first must be answered and agree with a dense
inverse, the second must be refused as bad input (exit 1), never accepted
and then fail inside the solver (exit 2).
"""

import io
import json

import numpy as np
import pytest

from netsurgeon import (
    Network,
    SpectralConditionError,
    StructuralIntervention,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    congestion_equilibrium,
    spectral_radius,
    structural_effect,
)
from netsurgeon import cli, extensions, graphs
from netsurgeon.graphs import certified_game

from .conftest import dense_inverse, eig_lambda_max
from .oracle import serialize

PATH_N = 420
BETA = 0.3
PHI = 0.2
INSIDE, OUTSIDE = 0.999999, 1.000001


def path_network(first: int, last: int) -> Network:
    return Network.from_edges([(str(i), str(i + 1)) for i in range(first, last)])


@pytest.fixture(scope="module")
def long_path():
    return path_network(1, PATH_N)


@pytest.fixture()
def path_file(tmp_path, long_path):
    p = tmp_path / "path420.txt"
    p.write_text(serialize(long_path))
    return str(p)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


MODELS = {
    # model: (CLI arguments past --delta, bound as a multiple of 1/lambda_max)
    "centrality": ([], 1.0),
    "multi": (["--beta", repr(BETA)], 1.0 - BETA),
    "global": (["--phi", repr(PHI)], 1.0 - PHI),
}


def model_argv(model, path_file, delta):
    extra, _ = MODELS[model]
    if model == "centrality":
        head = ["centrality"]
    else:
        head = ["extension", "--model", model]
    return head + ["--graph", path_file, "--delta", repr(delta)] + extra


def dense_answer(model, net, delta):
    n = net.n
    g = net.adjacency
    ones = np.ones(n)
    if model == "centrality":
        return {"b": dense_inverse(net, delta) @ ones}
    if model == "multi":
        block = np.block([[np.eye(n) - delta * g, BETA * np.eye(n)],
                          [BETA * np.eye(n), np.eye(n) - delta * g]])
        x = np.linalg.inv(block) @ np.ones(2 * n)
        return {"activity_a": x[:n], "activity_b": x[n:]}
    system = (1.0 - PHI) * np.eye(n) - delta * g + PHI * np.ones((n, n))
    return {"x": np.linalg.inv(system) @ ones}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_path_just_past_the_bound_exits_1(model, long_path, path_file):
    delta = OUTSIDE * MODELS[model][1] / eig_lambda_max(long_path)
    code, out, err = invoke(model_argv(model, path_file, delta))
    assert code == 1 and out == ""
    assert err.startswith("error: spectral condition violated") and err.count("\n") == 1


@pytest.mark.parametrize("model", sorted(MODELS))
def test_path_just_inside_the_bound_matches_dense_inverse(model, long_path, path_file):
    delta = INSIDE * MODELS[model][1] / eig_lambda_max(long_path)
    code, out, err = invoke(model_argv(model, path_file, delta))
    assert code == 0 and err == ""
    payload = json.loads(out)
    for key, expected in dense_answer(model, long_path, delta).items():
        # output carries six significant digits
        np.testing.assert_allclose(payload[key], expected, rtol=1e-5)


def test_certify_matches_the_eigensolver_bound_on_the_path(long_path):
    bound = 1.0 / eig_lambda_max(long_path)
    certify(long_path, INSIDE * bound)
    certify_multi_activity(long_path, INSIDE * (1 - BETA) * bound, BETA,
                           np.ones(PATH_N), np.ones(PATH_N))
    certify_global_substitution(long_path, INSIDE * (1 - PHI) * bound, PHI)
    with pytest.raises(SpectralConditionError) as exc:
        certify(long_path, OUTSIDE * bound)
    # the rejection reports the exact lambda_max
    assert exc.value.lambda_max == pytest.approx(eig_lambda_max(long_path), rel=1e-12)


class TestPostInterventionCheck:
    """Joining two 210-node paths end to end gives the 420-node path."""

    @pytest.fixture(scope="class")
    def halves(self):
        left = path_network(1, PATH_N // 2)
        right = path_network(PATH_N // 2 + 1, PATH_N)
        joined = Network.from_edges(left.edges() + right.edges())
        iv = StructuralIntervention.from_label_pairs(
            joined, add=[(str(PATH_N // 2), str(PATH_N // 2 + 1))]
        )
        return joined, iv, path_network(1, PATH_N)

    def test_past_the_post_bound_is_refused(self, halves):
        pre, iv, post = halves
        delta = OUTSIDE / eig_lambda_max(post)
        spec = certify(pre, delta)  # the two halves alone are well inside
        with pytest.raises(SpectralConditionError):
            structural_effect(spec, iv)

    def test_past_the_post_bound_exits_1(self, halves, tmp_path):
        pre, _, post = halves
        graph = tmp_path / "halves.txt"
        graph.write_text(serialize(pre))
        delta = OUTSIDE / eig_lambda_max(post)
        code, out, err = invoke(["intervene", "--graph", str(graph), "--delta", repr(delta),
                                 "--add", f"{PATH_N // 2},{PATH_N // 2 + 1}"])
        assert code == 1 and out == ""
        assert err.startswith("error: spectral condition violated") and err.count("\n") == 1

    def test_inside_the_post_bound_matches_dense_resolve(self, halves):
        pre, iv, post = halves
        delta = INSIDE / eig_lambda_max(post)
        report = structural_effect(certify(pre, delta), iv)
        before = dense_inverse(pre, delta) @ np.ones(PATH_N)
        after = dense_inverse(post, delta) @ np.ones(PATH_N)
        np.testing.assert_allclose(report.post_b, after, rtol=1e-6)
        np.testing.assert_allclose(report.delta_x, after - before, rtol=1e-6, atol=1e-6)


class TestAcceptPathComputesNoEigenvalue:
    """Accepting a game costs one Cholesky factorization; lambda_max is
    computed only to word a rejection, or when read."""

    @pytest.fixture()
    def no_eigenvalues(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue computed on an accept path")

        monkeypatch.setattr(graphs, "spectral_radius", refuse)
        for module in (graphs, extensions):
            monkeypatch.setattr(module, "_lambda_enclosure", refuse)
            monkeypatch.setattr(module, "eigh", refuse)

    def test_certifiers(self, long_path, no_eigenvalues):
        ones = np.ones(PATH_N)
        certify(long_path, 0.4)
        certify_multi_activity(long_path, 0.3, BETA, ones, ones)
        certify_global_substitution(long_path, 0.3, PHI)
        certify_congestion(long_path, 0.3, 0.01)

    def test_lambda_max_is_computed_when_read(self, long_path):
        expected = eig_lambda_max(long_path)
        spec = certify(long_path, 0.4)
        assert spectral_radius(spec.network) == pytest.approx(expected, rel=1e-12)
        ones = np.ones(PATH_N)
        multi = certify_multi_activity(long_path, 0.3, BETA, ones, ones)
        assert spectral_radius(multi.network) == pytest.approx(expected, rel=1e-12)
        glob = certify_global_substitution(long_path, 0.3, PHI)
        assert spectral_radius(glob.network) == pytest.approx(expected, rel=1e-12)
        cong = certify_congestion(long_path, 0.3, 0.01)
        mu = np.linalg.eigvalsh(long_path.adjacency)
        assert cong.smallest_eigenvalue == pytest.approx(np.min(1 - 0.3 * mu + 0.01 * mu**2))


class TestCongestionNearTheBound:
    """The congestion model answers certified games up to its bound.

    Its split check compares the two-game route with the direct solve at
    1e-9, but near the bound both carry rounding of about
    u / (1 - beta1 lambda_max), which at 0.9999 of an ER graph's bound
    already exceeded 1e-9 and raised InternalCheckError.
    """

    GAMMA = 0.01

    @pytest.fixture(scope="class")
    def er100(self):
        rng = np.random.default_rng(1)
        a = np.triu((rng.random((100, 100)) < 0.05).astype(float), 1)
        return Network(tuple(str(i + 1) for i in range(100)), a + a.T)

    @pytest.mark.parametrize("frac", [0.9999, 0.999999])
    def test_matches_a_dense_solve(self, er100, frac):
        g = er100.adjacency
        mu = np.linalg.eigvalsh(g)
        # I - delta mu + gamma mu^2 > 0 for every eigenvalue mu > 0.
        bound = float(np.min(1.0 / mu[mu > 0] + self.GAMMA * mu[mu > 0]))
        delta = frac * bound
        theta = np.random.default_rng(2).uniform(0.5, 1.5, 100)
        x = congestion_equilibrium(certify_congestion(er100, delta, self.GAMMA, theta))
        want = np.linalg.solve(np.eye(100) - delta * g + self.GAMMA * (g @ g), theta)
        np.testing.assert_allclose(x, want, rtol=1e-6)


class TestCertifiedGameDecidesEveryPlainGame:
    """certified_game is the one code that decides a plain game at weight >= 0."""

    def test_weight_zero_is_the_identity_game(self):
        net = path_network(1, 6)
        game = certified_game(net, 0.0)
        assert game is not None and game.delta == 0.0
        assert np.array_equal(game.b_unit, np.ones(net.n))
        assert np.array_equal(game.solve(np.arange(6.0)), np.arange(6.0))

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_a_non_finite_weight_is_none(self, weight):
        assert certified_game(path_network(1, 6), weight) is None
        assert certified_game(Network.from_edges([("a", "b")]).with_changes([(0, 1, -1)]),
                              weight) is None
