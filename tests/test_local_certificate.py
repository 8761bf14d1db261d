"""The certificates read from the solver's own factor, against the margin tests.

certify decides from its factor of I - delta G and the row sums of the
inverse; structural and hybrid interventions decide from the |S| columns of
M they read; a single potential link from its 2 x 2 block of M and b_unit,
and link_values(..., "potential") every absent link from M at once. Each
must give the decision of the n x n margin test it replaces (within_bound,
or certify_change on the same changed network), refusal messages included,
at fractions of the eigvalsh
bound on both sides of the margin. The two fractions in the sliver between
the row-sum bound and the margin must reach that margin test. Interventions
that certify must also price the changed network as an exact rational solve
of it does, up to the sliver.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netsurgeon import (
    CharacteristicIntervention,
    Network,
    SpectralConditionError,
    StructuralIntervention,
    certify,
    equivalent_theta,
    hybrid_effect,
    link_value_potential,
    link_values,
    spectral_radius,
    structural_effect,
)
from netsurgeon import bridge, graphs
from netsurgeon.graphs import certify_change, within_bound

from .conftest import dense_inverse, eig_lambda_max, random_graph
from .test_graphs import small_networks

SLIVER = (1 - 2e-9, 1 - 5e-10)
FRACTIONS = (0.5, 0.999999, 1.000001) + SLIVER


class Recorder:
    """A function that records the arguments of every call, then makes it."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


class Draws:
    """Stands in for st.data() in an @example: returns the given draws in turn."""

    def __init__(self, *values):
        self.next = itertools.cycle(values).__next__

    def draw(self, strategy):
        return self.next()


# A 3-node path rewired into another path: the change both adds and removes a
# link and leaves lambda_max where it was.
PATH3 = Network.from_edges([("1", "2"), ("2", "3")])


def refusal(call):
    """The SpectralConditionError text call raises, or None if it returns."""
    try:
        call()
    except SpectralConditionError as exc:
        return str(exc)
    return None


def with_links(net, changes):
    a = net.adjacency.copy()
    for i, j, sign in changes:
        a[i, j] = a[j, i] = a[i, j] + sign
    return Network(net.labels, a)


@settings(max_examples=120, deadline=None)
@given(small_networks(max_nodes=12), st.sampled_from(FRACTIONS))
def test_certify_decides_as_within_bound(net, frac):
    lam = eig_lambda_max(net)
    assume(lam > 0)
    delta = frac / lam
    fallback = Recorder(within_bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "within_bound", fallback)
        got = refusal(lambda: certify(net, delta))
    if within_bound(net, delta):
        assert got is None
    else:
        assert got == str(SpectralConditionError(delta, spectral_radius(net)))
    # A failed factor rejects and small row sums accept; only the sliver asks.
    assert bool(fallback.calls) == (frac in SLIVER)


def draw_changes(net, kind, data):
    pairs = list(itertools.combinations(range(net.n), 2))
    present = [p for p in pairs if net.adjacency[p]]
    absent = [p for p in pairs if not net.adjacency[p]]
    assume(kind == "remove" or absent)
    assume(kind == "add" or present)
    add = remove = []
    if kind != "remove":
        add = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=3, unique=True))
    if kind != "add":
        remove = data.draw(st.lists(st.sampled_from(present), min_size=1, max_size=2, unique=True))
    return [(i, j, 1) for i, j in add] + [(i, j, -1) for i, j in remove]


@settings(max_examples=200, deadline=None)
@given(
    small_networks(max_nodes=10),
    st.sampled_from(["add", "remove", "mixed"]),
    st.sampled_from(FRACTIONS),
    st.data(),
)
@example(PATH3, "mixed", SLIVER[0], Draws([(0, 2)], [(0, 1)]))
def test_local_certificate_decides_as_certify_change(net, kind, frac, data):
    changes = draw_changes(net, kind, data)
    lam = max(eig_lambda_max(net), eig_lambda_max(with_links(net, changes)))
    assume(lam > 0)
    delta = frac / lam
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    want = refusal(lambda: certify_change(net, delta, changes))
    fallback = Recorder(certify_change)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "certify_change", fallback)
        got = refusal(lambda: equivalent_theta(spec, StructuralIntervention(frozenset(changes))))
    assert got == want
    if kind == "remove":
        assert want is None and not fallback.calls
    if kind == "add":
        # The |S| x |S| test refuses past the bound and hands over the refusal.
        assert bool(fallback.calls) == (frac in SLIVER or frac == 1.000001)


def exact_equilibrium(net, delta, theta):
    """(I - delta G)^-1 theta in rational arithmetic, rounded to floats."""
    n, d = net.n, Fraction(delta)
    rows = [
        [Fraction(int(i == j)) - d * int(net.adjacency[i, j]) for j in range(n)]
        + [Fraction(theta[i])]
        for i in range(n)
    ]
    # Gauss-Jordan; the system is positive definite, so no pivot is zero.
    for k in range(n):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return np.array([float(r[n]) for r in rows])


@settings(max_examples=150, deadline=None)
@given(
    small_networks(max_nodes=10),
    st.sampled_from(["add", "remove", "mixed"]),
    st.sampled_from((0.5, 0.999999) + SLIVER),
    st.booleans(),
    st.data(),
)
@example(PATH3, "mixed", SLIVER[0], False, Draws([(0, 2)], [(0, 1)]))
@example(PATH3, "mixed", 0.999999, False, Draws([(0, 2)], [(0, 1)]))
@example(PATH3, "mixed", 0.999999, True, Draws([(0, 2)], [(0, 1)]))
def test_interventions_match_an_exact_solve_up_to_the_bound(net, kind, frac, hybrid, data):
    # The local |S| x |S| system of a change that adds and removes links can
    # lose u / (1 - delta lambda_max)^2; such changes must be solved in full.
    changes = draw_changes(net, kind, data)
    grown = with_links(net, changes)
    lam = max(eig_lambda_max(net), eig_lambda_max(grown))
    assume(lam > 0)
    delta = frac / lam
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    iv = StructuralIntervention(frozenset(changes))
    shift = np.zeros(net.n)
    shift[0] = 0.5 if hybrid else 0.0
    try:
        if hybrid:
            report = hybrid_effect(spec, iv, CharacteristicIntervention(shift))
        else:
            report = structural_effect(spec, iv)
    except SpectralConditionError:
        assert frac in SLIVER
        return
    want = exact_equilibrium(grown, delta, 1.0 + shift)
    rtol = 1e-6 if frac in SLIVER else 1e-8
    np.testing.assert_allclose(report.post_b, want, rtol=rtol, atol=0)
    np.testing.assert_allclose(report.post_b, spec.b + report.delta_x, rtol=rtol, atol=0)


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=9), st.sampled_from(FRACTIONS), st.data())
def test_all_potential_decides_as_certify_change_per_link(net, frac, data):
    absent = [(i, j) for i, j in itertools.combinations(range(net.n), 2) if not net.adjacency[i, j]]
    assume(absent)
    i, j = data.draw(st.sampled_from(absent))
    delta = frac / eig_lambda_max(with_links(net, [(i, j, 1)]))
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    kept, skipped = [], []
    for u, v in absent:
        why = refusal(lambda: certify_change(net, delta, [(u, v, 1)]))
        if why is None:
            kept.append((net.labels[u], net.labels[v]))
        else:
            skipped.append((net.labels[u], net.labels[v], why))
    fallback = Recorder(certify_change)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bridge, "certify_change", fallback)
        values, got_skipped = link_values(spec, "potential")
    assert got_skipped == skipped
    assert sorted((lv.i, lv.j) for lv in values) == sorted(kept)
    reached = {(int(u), int(v)) for _, _, ((u, v, _),) in fallback.calls}
    if frac in SLIVER:
        assert (i, j) in reached
    if frac == 0.5:
        assert not reached


def test_single_potential_link_at_the_sliver_reaches_certify_change():
    # A 12-node path grown into a cycle by its end link.
    net = Network.from_edges([(str(k), str(k + 1)) for k in range(1, 12)])
    for frac in SLIVER:
        delta = frac / 2.0  # the 12-cycle's lambda_max
        spec = certify(net, delta)
        fallback = Recorder(certify_change)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bridge, "certify_change", fallback)
            got = refusal(lambda: link_value_potential(spec, "1", "12"))
        assert len(fallback.calls) == 1
        assert got == refusal(lambda: certify_change(net, delta, [(0, 11, 1)]))
        assert (got is None) == (frac == SLIVER[0])


def test_interventions_make_no_n_by_n_factorization(monkeypatch):
    n = 300
    net = random_graph(np.random.default_rng(11), n, p=0.03)
    spec = certify(net, 0.5 / eig_lambda_max(net))
    spec.b  # the weighted centralities are one more solve, not a factorization
    sizes = []

    def recording(fn):
        def wrapped(matrix, *args, **kwargs):
            sizes.append(len(matrix))
            return fn(matrix, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(graphs, "cho_factor", recording(graphs.cho_factor))
    monkeypatch.setattr(np.linalg, "cholesky", recording(np.linalg.cholesky))
    absent = np.argwhere(np.triu(net.adjacency == 0, 1))[:3]
    present = np.argwhere(np.triu(net.adjacency, 1))[:1]
    label = net.labels.__getitem__
    iv = StructuralIntervention.from_label_pairs(
        net,
        add=[(label(i), label(j)) for i, j in absent[:2]],
        remove=[(label(i), label(j)) for i, j in present],
    )
    report = structural_effect(spec, iv)
    shift = CharacteristicIntervention.from_pairs(net, {label(absent[0][0]): 0.5})
    hybrid_effect(spec, iv, shift)
    link_value_potential(spec, label(absent[2][0]), label(absent[2][1]))
    assert sizes and max(sizes) <= 6
    monkeypatch.undo()
    after = dense_inverse(with_links(net, iv.entries), spec.delta) @ np.ones(n)
    np.testing.assert_allclose(report.post_b, after, rtol=1e-10)
