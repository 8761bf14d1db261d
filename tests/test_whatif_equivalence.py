"""The what-if queries against the formulas they use and the dense ones they replaced.

Each reference below is written out in the test. The walk matrix's check
route is cho_solve against an identity, and the post-change certificate of
an intervention or a single potential link goes through a validated Network
and within_bound (or certify); those answers must be equal bit for bit. The
avoidance block and the intervention reports have two references each: the
one-solve formula the query uses (the block of M as the Gram of one forward
solve; effects read through the columns M[:, S], and M dtheta, that the local
system solved), equal bit for bit, and the earlier dense formula (M solved
against an identity; effects through a second solve of the whole shift),
within 1e-12 of the largest entry. An intervention whose local system cannot
be shown well conditioned (both games near the bound) is checked against an
exact solve of the changed network.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dsyr2k

from netsurgeon import (
    CharacteristicIntervention,
    InternalCheckError,
    Network,
    NodeSet,
    SpectralConditionError,
    StructuralIntervention,
    avoidance_block,
    certify,
    characteristic_effect,
    hybrid_effect,
    katz_bonacich,
    label_key,
    link_value_potential,
    structural_effect,
    walk_matrix,
)
from netsurgeon.graphs import (
    certify_change,
    embed,
    one_link_solve,
    spectral_radius,
    within_bound,
)
from netsurgeon.walks import CROSS_ROUTE_TOL

from .conftest import eig_lambda_max
from .oracle import as_matrix
from .test_graphs import small_networks
from .test_local_certificate import exact_equilibrium


# --------------------------------------------------------------------------
# References: the formulas the queries used before reading columns only.


def reference_walk_matrix(spec, s):
    """Both routes in full; the check route solves against an identity."""
    c = list(s.complement(spec.n).members)
    e = list(s.members)
    m = spec.influence()
    m_cc, m_cs, m_ss = m[np.ix_(c, c)], m[np.ix_(c, e)], m[np.ix_(e, e)]
    inv_ss = cho_solve(cho_factor(m_ss, lower=True), np.eye(len(e)))
    w_cs = m_cs @ inv_ss
    w_sc = w_cs.T
    w_cc = m_cc.copy(order="C")  # less the update's symmetric part, then mirrored
    dsyr2k(-0.5, w_cs, m_cs, beta=1.0, c=w_cc.T, lower=0, overwrite_c=1)
    w_cc = np.where(np.tri(len(c), dtype=bool), w_cc, w_cc.T)
    w_ss = 2.0 * np.eye(len(e)) - inv_ss
    a = spec.network.adjacency
    g_cc, g_cs, g_ss = a[np.ix_(c, c)], a[np.ix_(c, e)], a[np.ix_(e, e)]
    kept = cho_factor(np.eye(len(c)) - spec.delta * g_cc, lower=True)
    alt_cc = cho_solve(kept, np.eye(len(c)))
    alt_cs = spec.delta * cho_solve(kept, g_cs)
    alt_ss = (
        spec.delta * (spec.delta * (g_cs.T @ cho_solve(kept, g_cs)))
        + spec.delta * g_ss
        + np.eye(len(e))
    )
    for ours, alt in ((w_cc, alt_cc), (w_cs, alt_cs), (w_ss, alt_ss)):
        assert np.max(np.abs(ours - alt)) <= CROSS_ROUTE_TOL
    return w_cc, w_cs, w_sc, w_ss


def dense_block(spec, idx):
    """M[idx][:, idx] from M solved against an identity: the earlier route."""
    return spec.solve(np.eye(spec.n))[np.ix_(idx, idx)]


def gram_block(spec, idx):
    """M[idx][:, idx] as Y^T Y, Y = L^-1 E_idx from the factor's lower triangle alone."""
    y = solve_triangular(np.tril(spec._factor[0]), np.eye(spec.n)[:, idx], lower=True)
    return y.T @ y


def reference_avoidance_block(spec, a, b, block):
    ia, ib = list(a.members), list(b.members)
    m = block(spec, ia + ib)
    k = len(ia)
    m_aa, m_ab, m_bb = m[:k, :k], m[:k, k:], m[k:, k:]
    w_bb_no_a = m_bb - m_ab.T @ np.linalg.solve(m_aa, m_ab)
    first = np.linalg.solve(m_aa, m_ab) @ np.linalg.inv(w_bb_no_a)
    w_aa_no_b = m_aa - m_ab @ np.linalg.solve(m_bb, m_ab.T)
    second = np.linalg.solve(w_aa_no_b, np.linalg.solve(m_bb, m_ab.T).T)
    assert np.max(np.abs(first - second)) <= CROSS_ROUTE_TOL
    return first


def reference_equivalent_on(spec, iv, b_s):
    """dtheta*_S priced at b_s, the equilibrium on S, after the certificate."""
    post = Network(spec.network.labels, spec.network.adjacency + as_matrix(iv, spec.n))
    if not within_bound(post, spec.delta):
        raise SpectralConditionError(spec.delta, spectral_radius(post))
    idx = list(iv.support().members)
    c_ss = as_matrix(iv, spec.n)[np.ix_(idx, idx)]
    m_ss = spec.solve(np.eye(spec.n)[:, idx])[idx, :]
    y = np.linalg.solve(np.eye(len(idx)) - spec.delta * m_ss @ c_ss, b_s)
    return spec.delta * (c_ss @ y)


def local_condition_bound(spec, iv):
    """An upper bound on cond_2(I - delta M_SS C_SS), from eigvalsh alone.

    The system's inverse is I + delta M'_SS C_SS, M' the changed game's
    influence matrix, and |M|_2 = 1 / (1 - delta lambda_max) for each game.
    """
    idx = list(iv.support().members)
    reach = spec.delta * np.linalg.norm(as_matrix(iv, spec.n)[np.ix_(idx, idx)], 2)
    h_pre = 1.0 / (1.0 - spec.delta * eig_lambda_max(spec.network))
    h_post = 1.0 / (1.0 - spec.delta * eig_lambda_max(changed(spec.network, iv)))
    return (1.0 + reach * h_pre) * (1.0 + reach * h_post)


def reference_characteristic(spec, dtheta):
    s = list(np.flatnonzero(dtheta))
    delta_x = spec.solve(dtheta)
    agg = float(spec.solve(np.ones(spec.n))[s] @ dtheta[s])
    return delta_x, agg, spec.solve(spec.theta) + delta_x


def dense_structural(spec, iv):
    """The earlier report: the theta shift solved again as a whole vector."""
    idx = list(iv.support().members)
    values = reference_equivalent_on(spec, iv, spec.solve(spec.theta)[idx])
    return reference_characteristic(spec, embed(values, iv.support(), spec.n))


def dense_hybrid(spec, iv, dtheta):
    """The earlier report: b(theta + dtheta) and the combined shift each solved in full."""
    idx = list(iv.support().members)
    values = reference_equivalent_on(spec, iv, spec.solve(spec.theta + dtheta)[idx])
    return reference_characteristic(spec, dtheta + embed(values, iv.support(), spec.n))


def shift_report(spec, shift, delta_x):
    s = list(np.flatnonzero(shift))
    agg = float(spec.solve(np.ones(spec.n))[s] @ shift[s])
    return delta_x, agg, spec.solve(spec.theta) + delta_x


def reference_structural(spec, iv):
    """One solve: delta_x = M[:, S] dtheta*_S, from the columns that price it."""
    idx = list(iv.support().members)
    cols = spec.solve(np.eye(spec.n)[:, idx])
    values = reference_equivalent_on(spec, iv, spec.solve(spec.theta)[idx])
    return shift_report(spec, embed(values, iv.support(), spec.n), cols @ values)


def reference_hybrid(spec, iv, dtheta):
    """One solve for [E_S, dtheta]: b_S(theta + dtheta) = b_S + (M dtheta)_S, and
    delta_x = M [E_S, dtheta] [dtheta*_S; 1] = M (dtheta + dtheta*)."""
    idx = list(iv.support().members)
    solved = spec.solve(np.column_stack((np.eye(spec.n)[:, idx], dtheta)))
    b_s = spec.solve(spec.theta)[idx] + solved[idx, len(idx)]
    values = reference_equivalent_on(spec, iv, b_s)
    shift = dtheta + embed(values, iv.support(), spec.n)
    return shift_report(spec, shift, solved @ np.append(values, 1.0))


def loop_edges(net):
    out = []
    for i in range(net.n):
        for j in range(i + 1, net.n):
            if net.adjacency[i, j]:
                out.append((net.labels[i], net.labels[j]))
    return sorted(out, key=lambda e: (label_key(e[0]), label_key(e[1])))


# --------------------------------------------------------------------------
# Inputs: seeded Erdos-Renyi and core-periphery games, and small graphs.


def erdos_renyi(rng, n, mean_degree=6.0):
    upper = np.triu(rng.random((n, n)) < mean_degree / (n - 1), 1)
    return upper | upper.T


def core_periphery(rng, n):
    """A dense core of n/10 nodes and a periphery hung off it."""
    core = n // 10
    a = np.zeros((n, n), dtype=bool)
    a[:core, :core] = np.triu(rng.random((core, core)) < 0.3, 1)
    a[rng.integers(0, core, size=n - core), np.arange(core, n)] = True
    a[0, core + np.flatnonzero(rng.random(n - core) < 0.4)] = True
    a = a | a.T
    np.fill_diagonal(a, False)
    return a


def seeded_net(family, n, seed):
    rng = np.random.default_rng(seed)
    adj = erdos_renyi(rng, n) if family == "er" else core_periphery(rng, n)
    return Network(tuple(str(i) for i in range(n)), adj.astype(float))


def random_change(rng, net, count):
    """count distinct signed link changes, legal for net."""
    entries = {}
    while len(entries) < count:
        i, j = sorted(int(v) for v in rng.choice(net.n, size=2, replace=False))
        entries[(i, j)] = -1 if net.adjacency[i, j] else 1
    return StructuralIntervention(frozenset((i, j, s) for (i, j), s in entries.items()))


def changed(net, iv):
    return Network(net.labels, net.adjacency + as_matrix(iv, net.n))


def accepts(net, delta, entries):
    try:
        certify_change(net, delta, entries)
    except SpectralConditionError:
        return False
    return True


SEEDED = [("er", 60, 1), ("er", 150, 2), ("er", 300, 3), ("cp", 100, 4), ("cp", 240, 5)]


@pytest.fixture(scope="module", params=SEEDED, ids=lambda p: f"{p[0]}{p[1]}")
def seeded(request):
    family, n, seed = request.param
    net = seeded_net(family, n, seed)
    rng = np.random.default_rng(seed + 100)
    changes = [random_change(rng, net, count) for count in (1, 2, 3, 3)]
    # Every changed network stays well inside the bound.
    lam = max([eig_lambda_max(net)] + [eig_lambda_max(changed(net, iv)) for iv in changes])
    theta = rng.uniform(0.5, 1.5, size=n)
    return certify(net, 0.6 / lam), certify(net, 0.6 / lam, theta), changes, rng


def assert_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected, strict=True)


def assert_near(actual, expected):
    """Within 1e-12 of expected's largest entry."""
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


def assert_report(report, expected, dense=None):
    """Equal bits with the formula used; near the earlier dense one, if given."""
    delta_x, agg, post_b = expected
    assert_bits(report.delta_x, delta_x)
    assert report.delta_aggregate == agg
    assert_bits(report.post_b, post_b)
    if dense is not None:
        for ours, old in zip((report.delta_x, report.delta_aggregate, report.post_b), dense):
            assert_near(np.asarray(ours), np.asarray(old))


# --------------------------------------------------------------------------
# Seeded games: every answer equals the reference bit for bit.


def test_block_is_the_gram_of_one_forward_solve(seeded):
    # Exactly symmetric, the same bits before and after the held M is packed
    # into the factor array, and within 1e-12 of a solve on unit columns.
    spec, _, _, rng = seeded
    fresh = certify(spec.network, spec.delta)
    picks = [rng.choice(spec.n, size=k, replace=False) for k in (1, 2, 3, 5, 17)]
    before = [fresh.block(idx) for idx in picks]
    fresh.influence()
    for idx, first in zip(picks, before):
        got = fresh.block(idx)
        assert_bits(got, first)
        assert_bits(got, got.T)
        assert_bits(got, gram_block(fresh, idx))
        assert_near(got, fresh.solve(np.eye(fresh.n)[:, idx])[idx])


def test_walk_matrix_blocks(seeded):
    spec, _, _, rng = seeded
    for k in (1, 2, 3):
        s = NodeSet.of(rng.choice(spec.n, size=k, replace=False))
        wm = walk_matrix(spec, s)
        for ours, ref in zip(
            (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded),
            reference_walk_matrix(spec, s),
        ):
            assert_bits(ours, ref)


def test_avoidance_blocks(seeded):
    spec, _, _, rng = seeded
    for size, split in ((2, 1), (3, 1), (3, 2), (4, 2)):
        nodes = rng.choice(spec.n, size=size, replace=False)
        a, b = NodeSet.of(nodes[:split]), NodeSet.of(nodes[split:])
        got = avoidance_block(spec, a, b)
        assert_bits(got, reference_avoidance_block(spec, a, b, gram_block))
        assert_near(got, reference_avoidance_block(spec, a, b, dense_block))


def test_intervention_reports(seeded):
    unit, weighted, changes, rng = seeded
    for spec in (unit, weighted):
        for iv in changes:
            assert_report(
                structural_effect(spec, iv), reference_structural(spec, iv),
                dense_structural(spec, iv),
            )
            dtheta = np.zeros(spec.n)
            dtheta[rng.choice(spec.n, size=2, replace=False)] = rng.uniform(-0.5, 0.5, size=2)
            civ = CharacteristicIntervention(dtheta)
            assert_report(
                hybrid_effect(spec, iv, civ), reference_hybrid(spec, iv, dtheta),
                dense_hybrid(spec, iv, dtheta),
            )
            assert_report(characteristic_effect(spec, civ), reference_characteristic(spec, dtheta))


# --------------------------------------------------------------------------
# Small graphs drawn by hypothesis.


@settings(max_examples=60, deadline=None)
@given(small_networks(max_nodes=9), st.floats(0.1, 0.95), st.data())
def test_small_graphs_match_the_references(net, frac, data):
    assume(net.n >= 3)
    spec = certify(net, frac / max(eig_lambda_max(net), 1.0))
    nodes = data.draw(st.permutations(range(net.n)))
    k = data.draw(st.integers(1, net.n - 1))
    s = NodeSet.of(nodes[:k])
    wm = walk_matrix(spec, s)
    ref = reference_walk_matrix(spec, s)
    blocks = (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded)
    for ours, want in zip(blocks, ref):
        assert_bits(ours, want)
    a, b = NodeSet.of(nodes[:1]), NodeSet.of(nodes[1 : 1 + min(k, net.n - 1)])
    got = avoidance_block(spec, a, b)
    assert_bits(got, reference_avoidance_block(spec, a, b, gram_block))
    assert_near(got, reference_avoidance_block(spec, a, b, dense_block))


@settings(max_examples=80, deadline=None)
@given(small_networks(max_nodes=9), st.sampled_from([0.5, 0.999999, 1.000001]), st.data())
def test_post_change_certificate_matches_the_network_route(net, frac, data):
    assume(net.n >= 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    iv = random_change(rng, net, data.draw(st.integers(1, 3)))
    post = changed(net, iv)
    lam_post = eig_lambda_max(post)
    assume(lam_post > 0)
    delta = frac / lam_post
    assert within_bound(post, delta) == accepts(net, delta, iv.entries)
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    try:
        want = reference_structural(spec, iv)
    except SpectralConditionError as exc:
        with pytest.raises(SpectralConditionError) as got:
            structural_effect(spec, iv)
        assert str(got.value) == str(exc)
    else:
        report = structural_effect(spec, iv)
        if np.finfo(float).eps * local_condition_bound(spec, iv) <= 1e-12:
            assert_report(report, want, dense_structural(spec, iv))
        else:
            exact = exact_equilibrium(post, delta, np.ones(net.n))
            np.testing.assert_allclose(report.post_b, exact, rtol=1e-8, atol=0)
            np.testing.assert_allclose(report.post_b, spec.b + report.delta_x, rtol=1e-8, atol=0)


@settings(max_examples=60, deadline=None)
@given(small_networks(max_nodes=9), st.sampled_from([0.5, 0.999999, 1.000001]), st.data())
def test_single_potential_link_matches_certify_of_the_grown_network(net, frac, data):
    absent = [(i, j) for i in range(net.n) for j in range(i + 1, net.n) if not net.adjacency[i, j]]
    assume(absent)
    i, j = data.draw(st.sampled_from(absent))
    grown = changed(net, StructuralIntervention(frozenset({(i, j, 1)})))
    delta = frac / eig_lambda_max(grown)
    assume(within_bound(net, delta))
    spec = certify(net, delta)
    try:
        certify(grown, delta)
    except SpectralConditionError as exc:
        with pytest.raises(SpectralConditionError) as got:
            link_value_potential(spec, net.labels[i], net.labels[j])
        assert str(got.value) == str(exc)
        return
    m = spec.block([i, j])
    b = spec.b_unit
    y_i, y_j, _ = one_link_solve(spec.delta, 1.0, b[i], b[j], m[0, 0], m[1, 1], m[1, 0])
    want = b[i] * y_j + b[j] * y_i
    assert link_value_potential(spec, net.labels[i], net.labels[j]).value == want


# --------------------------------------------------------------------------
# Vectorized loops and cached centralities.


@settings(max_examples=60, deadline=None)
@given(small_networks(max_nodes=12))
def test_edges_match_the_loop(net):
    assert net.edges() == loop_edges(net)


def test_edges_keep_the_natural_label_order():
    net = Network.from_edges([("b", "10"), ("2", "a"), ("10", "2"), ("a", "b")])
    assert net.edges() == loop_edges(net) == [("2", "10"), ("2", "a"), ("10", "b"), ("a", "b")]


def test_weighted_centralities_are_cached_and_read_only(seeded):
    _, spec, _, _ = seeded
    assert_bits(spec.b, spec.solve(spec.theta))
    assert spec.b is spec.b and not spec.b.flags.writeable
    other = spec.with_theta(np.full(spec.n, 2.0))
    assert "b" not in other.__dict__
    assert_bits(other.b, spec.solve(np.full(spec.n, 2.0)))
    report = katz_bonacich(spec)
    assert report.b.flags.writeable and not np.shares_memory(report.b, spec.b)
    empty = characteristic_effect(spec, CharacteristicIntervention(np.zeros(spec.n)))
    assert empty.post_b.flags.writeable and not np.shares_memory(empty.post_b, spec.b)


def test_solve_rejects_non_finite_right_hand_sides(seeded):
    spec = seeded[0]
    rhs = np.ones(spec.n)
    rhs[3] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        spec.solve(rhs)
    assert not spec._factor[0].flags.writeable


# --------------------------------------------------------------------------
# Single potential links on a slow-gap path, at the grown network's bound.

PATH_N = 120
INSIDE, OUTSIDE = 0.999999, 1.000001
# A chord across the middle of the path, where its eigenvector is largest.
CHORD = (str(PATH_N // 2 - 2), str(PATH_N // 2 + 2))


@pytest.fixture(scope="module")
def path_and_chord():
    net = Network.from_edges([(str(i), str(i + 1)) for i in range(1, PATH_N)])
    iv = StructuralIntervention.from_label_pairs(net, add=[CHORD])
    return net, iv, changed(net, iv)


def dense_b(net, delta, theta):
    return np.linalg.solve(np.eye(net.n) - delta * net.adjacency, theta)


def test_past_the_grown_bound_every_query_refuses_with_the_certify_message(path_and_chord):
    net, iv, grown = path_and_chord
    delta = OUTSIDE / eig_lambda_max(grown)
    spec = certify(net, delta)  # the path alone is well inside
    with pytest.raises(SpectralConditionError) as want:
        certify(grown, delta)
    dtheta = CharacteristicIntervention.from_pairs(net, {"1": 0.5})
    for query in (
        lambda: structural_effect(spec, iv),
        lambda: hybrid_effect(spec, iv, dtheta),
        lambda: link_value_potential(spec, *CHORD),
    ):
        with pytest.raises(SpectralConditionError) as got:
            query()
        assert str(got.value) == str(want.value)


def test_inside_the_grown_bound_every_query_matches_a_dense_resolve(path_and_chord):
    net, iv, grown = path_and_chord
    delta = INSIDE / eig_lambda_max(grown)
    spec = certify(net, delta)
    ones = np.ones(net.n)
    before, after = dense_b(net, delta, ones), dense_b(grown, delta, ones)
    report = structural_effect(spec, iv)
    np.testing.assert_allclose(report.post_b, after, rtol=1e-6)
    shift = np.zeros(net.n)
    shift[0] = 0.5
    hybrid = hybrid_effect(spec, iv, CharacteristicIntervention(shift))
    np.testing.assert_allclose(hybrid.post_b, dense_b(grown, delta, ones + shift), rtol=1e-6)
    value = link_value_potential(spec, *CHORD).value
    assert delta * value == pytest.approx(after.sum() - before.sum(), rel=1e-6)


def test_walk_check_route_still_refuses_a_perturbed_inverse(seeded, monkeypatch):
    # Each checked block, shifted by 1e-8 in one entry or throughout, is
    # refused by name; so is an M_cc shifted in the held influence matrix.
    from netsurgeon import GameSpec, walks

    spec, _, _, rng = seeded
    s = NodeSet.of(rng.choice(spec.n, size=2, replace=False))
    check = walks._deleted_network_gaps
    for k, name in enumerate(("kept-kept", "kept-excluded", "excluded-excluded")):
        for entry_only in (True, False):

            def perturbed(spec, e, *blocks, k=k, entry_only=entry_only):
                blocks = [w.copy() for w in blocks]
                if entry_only:
                    blocks[k][-1, 0] += 1e-8
                else:
                    blocks[k] += 1e-8
                return check(spec, e, *blocks)

            monkeypatch.setattr(walks, "_deleted_network_gaps", perturbed)
            with pytest.raises(InternalCheckError, match=f"on the {name} block"):
                walk_matrix(spec, s)
    monkeypatch.setattr(walks, "_deleted_network_gaps", check)

    held = GameSpec._held_read

    def shifted(self, runs, dst, lower=False):
        read = held(self, runs, dst, lower)
        if lower:  # M_cc's lower half, before the update
            read[len(read) // 2, 0] += 1e-8
        return read

    monkeypatch.setattr(GameSpec, "_held_read", shifted)
    with pytest.raises(InternalCheckError, match="on the kept-kept block"):
        walk_matrix(spec, s)
