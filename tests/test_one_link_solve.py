"""graphs.one_link_solve, the 2 x 2 solve behind every one-link query.

Adding (sign +1) or cutting (sign -1) the link (i, j) is C_SS = sign P on
S = {i, j}, P the 2 x 2 swap. The helper returns y = (I - delta M_SS C_SS)^-1 b_S
and the system's determinant den. The link's value b_i y_j + b_j y_i, times
sign delta, is the realized aggregate change. Link values, bridge indices and
links_certified all read it, so it is checked here against a dense solve and
against the changed network's equilibrium.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsurgeon.graphs import one_link_solve

from .conftest import eig_lambda_max
from .test_graphs import small_networks

EPS = np.finfo(float).eps
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def one_link_case(net, data):
    """A pair i < j, its sign (-1 for a present link, +1 for an absent one), the
    changed adjacency, a delta at which both games certify, and the intact game's
    influence matrix and centralities from a dense inverse."""
    i, j = sorted(data.draw(st.lists(st.integers(0, net.n - 1), min_size=2, max_size=2,
                                     unique=True)))
    sign = -1.0 if net.adjacency[i, j] else 1.0
    changed = net.adjacency.copy()
    changed[i, j] = changed[j, i] = 1.0 - changed[i, j]
    # One of the two networks holds the link, so the larger lambda_max is at least 1.
    lam = max(eig_lambda_max(net), float(np.linalg.eigvalsh(changed)[-1]))
    delta = data.draw(st.floats(0.05, 0.99)) / lam
    m = np.linalg.inv(np.eye(net.n) - delta * net.adjacency)
    return i, j, sign, changed, delta, m, m.sum(axis=1)


def solve_at(delta, sign, b, m, i, j):
    return one_link_solve(delta, sign, b[i], b[j], m[i, i], m[j, j], m[j, i])


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=9), st.data())
def test_solves_the_two_by_two_system(net, data):
    i, j, sign, _, delta, m, b = one_link_case(net, data)
    y_i, y_j, den = solve_at(delta, sign, b, m, i, j)
    s = [i, j]
    a = np.eye(2) - delta * m[np.ix_(s, s)] @ (sign * SWAP)
    kappa = np.linalg.cond(a)
    want = np.linalg.solve(a, b[s])
    assert np.linalg.norm([y_i - want[0], y_j - want[1]]) <= 8 * kappa * EPS * np.linalg.norm(want)
    assert abs(den - np.linalg.det(a)) <= 8 * kappa * EPS * abs(np.linalg.det(a))


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=9), st.data())
def test_value_is_symmetric_in_the_endpoints_bit_for_bit(net, data):
    # Exact ties, as on circulants, rank by these bits.
    i, j, sign, _, delta, m, b = one_link_case(net, data)
    m_ij = m[j, i]
    y_i, y_j, den = one_link_solve(delta, sign, b[i], b[j], m[i, i], m[j, j], m_ij)
    x_j, x_i, den_swapped = one_link_solve(delta, sign, b[j], b[i], m[j, j], m[i, i], m_ij)
    assert (x_i, x_j, den_swapped) == (y_i, y_j, den)
    assert b[i] * y_j + b[j] * y_i == b[j] * x_i + b[i] * x_j
    # The array form rounds as the scalar form does.
    arrays = one_link_solve(delta, sign, *(np.array([v, v]) for v in
                                           (b[i], b[j], m[i, i], m[j, j], m_ij)))
    assert all((got == want).all() for got, want in zip(arrays, (y_i, y_j, den)))


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=9), st.data())
def test_value_times_delta_is_the_realized_aggregate_change(net, data):
    i, j, sign, changed, delta, m, b = one_link_case(net, data)
    y_i, y_j, _ = solve_at(delta, sign, b, m, i, j)
    realized = np.linalg.inv(np.eye(net.n) - delta * changed).sum() - b.sum()
    predicted = sign * delta * (b[i] * y_j + b[j] * y_i)
    assert abs(predicted - realized) <= 1e-9 * max(1.0, abs(realized))
