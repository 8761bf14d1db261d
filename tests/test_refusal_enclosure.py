"""Refusals worded from an enclosure of lambda_max built from the links.

A refusal prints lambda_max (or, for congestion, the system's smallest
eigenvalue) to six (three) significant digits. The enclosure [lo, hi] comes
from Collatz-Wielandt bounds on a short Lanczos run's Ritz vector and holds
whether or not Lanczos converged; where Lanczos stops open on a graph whose
Perron vector is nowhere tiny (slow-gap paths), shift-invert iteration on one
factorization closes it. The text is taken from the enclosure only when both
ends print alike, and from the dense eigensolver otherwise. These tests hold
the enclosure to lambda_max from numpy's eigh, every message to the dense
route's, and congestion's closed-form acceptance to the factorization it skips.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

from netsurgeon import (
    InputError,
    Network,
    SpectralConditionError,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    graphs,
    spectral_radius,
)
from netsurgeon.extensions import PD_FLOOR, CongestionSpec, _clears_floor
from netsurgeon.graphs import _lambda_enclosure, is_positive_definite, spectral_refusal

FAMILIES = ("er", "sparse-er", "path", "star", "circulant", "two", "edgeless", "isolated")


def _er(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


def build(family: str, n: int, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=bool)
    if family == "er":
        a = _er(rng, n, min(1.0, 6.0 / (n - 1)))
    elif family == "sparse-er":
        a = _er(rng, n, min(1.0, 2.0 / (n - 1)))
    elif family == "path":
        a[np.arange(n - 1), np.arange(1, n)] = True
    elif family == "star":
        a[0, 1:] = True
    elif family == "circulant":
        for step in range(1, int(rng.integers(1, max(2, n // 2))) + 1):
            a[np.arange(n), (np.arange(n) + step) % n] = True
        np.fill_diagonal(a, False)
    elif family == "two":
        half = n // 2
        a[:half, :half] = _er(rng, half, min(1.0, 5.0 / max(half - 1, 1)))
        a[half:, half:] = _er(rng, n - half, min(1.0, 5.0 / max(n - half - 1, 1)))
    elif family == "isolated":
        a[: n - 3, : n - 3] = _er(rng, n - 3, min(1.0, 4.0 / max(n - 4, 1)))
    a = a | a.T
    perm = rng.permutation(n)
    return Network(tuple(str(i) for i in range(n)), a[np.ix_(perm, perm)].astype(float))


networks = st.builds(
    build, st.sampled_from(FAMILIES), st.integers(4, 90), st.integers(0, 2**32 - 1)
)


def eig_lambda_max(net: Network) -> float:
    return float(np.linalg.eigvalsh(net.adjacency)[-1])


def rayleigh_lambda_max(net: Network) -> Fraction:
    """lambda_max as the Rayleigh quotient of eigh's top eigenvector v, summed
    exactly in integers.

    eigvalsh's own value is off by up to a few n eps ||G||, as far as the
    enclosure's ends may lie from lambda_max. v^T G v / v^T v never exceeds
    lambda_max and falls short of it by the square of v's error, far below
    one rounding.
    """
    ratios = [x.as_integer_ratio() for x in np.linalg.eigh(net.adjacency)[1][:, -1].tolist()]
    scale = max(den for _, den in ratios)
    k = [num * (scale // den) for num, den in ratios]  # v * scale, exactly
    rows, cols = np.nonzero(net.adjacency)  # 0/1 entries, each link both ways
    return Fraction(sum(k[i] * k[j] for i, j in zip(rows.tolist(), cols.tolist())),
                    sum(x * x for x in k))


@settings(max_examples=200, deadline=None)
@given(networks)
def test_the_enclosure_holds_eigvalsh_lambda_max(net):
    lo, hi, ritz = _lambda_enclosure(net)
    lam = rayleigh_lambda_max(net) if len(net.links[0]) else 0.0
    assert lo <= lam <= hi
    assert lo <= ritz <= hi


@settings(max_examples=150, deadline=None)
@given(networks, st.sampled_from([1.000001, 1.001, 1.5, 3.0]),
       st.sampled_from([1.0, 0.7, 0.8, 0.6]))
def test_every_refusal_reads_as_the_dense_route(net, fraction, scale):
    assume(len(net.links[0]))
    delta = fraction * scale / eig_lambda_max(net)
    dense = SpectralConditionError(delta, spectral_radius(net) / scale)
    assert str(spectral_refusal(net, delta, scale)) == str(dense)
    if scale == 1.0:
        with pytest.raises(SpectralConditionError) as exc:
            certify(net, delta)
        assert str(exc.value) == str(dense)


def test_a_closed_enclosure_words_the_refusal_without_eigh(monkeypatch):
    net = build("er", 300, 3)
    lam = eig_lambda_max(net)
    monkeypatch.setattr(graphs, "spectral_radius", None)  # never reached
    with pytest.raises(SpectralConditionError) as exc:
        certify(net, 1.000001 / lam)
    assert exc.value.lambda_max == pytest.approx(lam, rel=1e-12)


def congestion_bound(net: Network, gamma: float) -> float:
    mu = np.linalg.eigvalsh(net.adjacency)
    mu = mu[mu > 1e-9]
    return float(np.min(1.0 / mu + gamma * mu))


@settings(max_examples=150, deadline=None)
@given(networks, st.sampled_from([1.000001, 1.001, 1.5, 3.0]),
       st.sampled_from([0.0, 1e-4, 0.01, 0.1]))
def test_every_congestion_refusal_reads_as_the_dense_route(net, fraction, gamma):
    assume(len(net.links[0]))
    delta = fraction * congestion_bound(net, gamma)
    dense = CongestionSpec(net, np.ones(net.n), delta, gamma).smallest_eigenvalue
    with pytest.raises(InputError) as exc:
        certify_congestion(net, delta, gamma)
    assert str(exc.value) == f"game system is not positive definite: smallest eigenvalue {dense:.3g}"


@settings(max_examples=200, deadline=None)
@given(networks, st.floats(0.0, 1.2), st.one_of(
    st.floats(1e-6, 100.0), st.sampled_from([1e-300, 1e-12, 1e12, 1e300, 5e307])))
def test_the_quadratic_accepts_only_what_the_factorization_accepts(net, ratio, gamma):
    delta = ratio * 2.0 * np.sqrt(gamma)  # complex roots below ratio 1
    degree = int(np.diff(net.sparse_adjacency.indptr).max(initial=0))
    assume(np.isfinite(gamma * degree))
    spec = CongestionSpec(net, np.ones(net.n), float(delta), float(gamma))
    if _clears_floor(spec, 1.0 + delta * degree + gamma * degree * degree):
        shifted = spec.system.copy()
        shifted[np.diag_indices(net.n)] -= PD_FLOOR
        assert is_positive_definite(shifted)


def closed(lo: float, hi: float) -> bool:
    """Whether an enclosure settles lambda_max to 1e-12; (0, inf) settles nothing."""
    return hi < np.inf and hi - lo <= 1e-12 * hi


def path_in_order(n: int) -> Network:
    return Network.from_edges([(str(i), str(i + 1)) for i in range(n - 1)])


SLOW_GAP_PATHS = [(kind, n) for n in (150, 300, 420, 600) for kind in ("relabelled", "in-order")]


@pytest.fixture(scope="module", params=SLOW_GAP_PATHS, ids=[f"{k}-{n}" for k, n in SLOW_GAP_PATHS])
def slow_gap_path(request):
    kind, n = request.param
    net = build("path", n, n) if kind == "relabelled" else path_in_order(n)
    return net, np.linalg.eigvalsh(net.adjacency)


def test_shift_invert_closes_the_enclosure_on_a_path(slow_gap_path):
    net, mu = slow_gap_path
    lo, hi, ritz = _lambda_enclosure(net)
    assert lo <= mu[-1] <= hi
    assert lo <= ritz <= hi
    assert closed(lo, hi)


@pytest.mark.parametrize("fraction", [1.000001, 1.001, 1.5, 3.0])
def test_a_slow_gap_refusal_reads_as_the_dense_route(slow_gap_path, fraction):
    net, mu = slow_gap_path
    for scale in (1.0, 0.7, 0.8):
        delta = fraction * scale / mu[-1]
        dense = SpectralConditionError(delta, spectral_radius(net) / scale)
        assert str(spectral_refusal(net, delta, scale)) == str(dense)
    for gamma in (0.0, 1e-4, 0.01, 0.1):
        positive = mu[mu > 1e-9]
        delta = fraction * float(np.min(1.0 / positive + gamma * positive))
        dense = CongestionSpec(net, np.ones(net.n), delta, gamma).smallest_eigenvalue
        with pytest.raises(InputError) as exc:
            certify_congestion(net, delta, gamma)
        assert str(exc.value) == f"game system is not positive definite: smallest eigenvalue {dense:.3g}"


def test_slow_gap_refusals_need_no_eigensolver(monkeypatch):
    # Every model just past its bound on the 420-node path, with the text the
    # dense eigensolvers word.
    net = build("path", 420, 0)
    lam, ones = spectral_radius(net), np.ones(net.n)
    plain, congested = 1.000001 / lam, 1.000001 * congestion_bound(net, 0.01)
    floor = CongestionSpec(net, ones, congested, 0.01).smallest_eigenvalue
    cases = [
        (lambda: certify(net, plain), SpectralConditionError(plain, lam)),
        (lambda: certify_multi_activity(net, 0.7 * plain, 0.3, ones, ones),
         SpectralConditionError(0.7 * plain, lam / 0.7)),
        (lambda: certify_global_substitution(net, 0.8 * plain, 0.2),
         SpectralConditionError(0.8 * plain, lam / 0.8)),
        (lambda: certify_congestion(net, congested, 0.01),
         f"game system is not positive definite: smallest eigenvalue {floor:.3g}"),
    ]

    def no_eigensolver(*args):
        raise AssertionError("the dense eigensolver ran")

    monkeypatch.setattr(graphs, "spectral_radius", no_eigensolver)
    monkeypatch.setattr(CongestionSpec, "smallest_eigenvalue", property(no_eigensolver))
    for refuse, dense in cases:
        with pytest.raises(InputError) as exc:
            refuse()
        assert str(exc.value) == str(dense)


def test_graphs_with_a_tiny_perron_entry_skip_the_shift_invert(monkeypatch):
    # Isolated nodes and components of different lambda_max put zeros in the
    # Perron vector, where shift-invert's bounds cannot close.
    factored = []

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(graphs, "cho_factor", counted)
    open_runs = 0
    for family in ("sparse-er", "two"):
        for n in (89, 150, 250, 436):
            for seed in range(4):
                net = build(family, n, seed)
                lo, hi, _ = _lambda_enclosure(net)
                open_runs += not closed(lo, hi)
                delta = 1.000001 / eig_lambda_max(net)
                dense = SpectralConditionError(delta, spectral_radius(net))
                assert str(spectral_refusal(net, delta)) == str(dense)
                assert factored == []
    assert open_runs  # the guard was consulted
