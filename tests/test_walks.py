"""Walk counting with forbidden interior nodes.

The closed forms all come from block algebra on the Leontief inverse, so the
oracle of record is direct enumeration: a dynamic program over the adjacency
matrix that masks the forbidden set everywhere except the walk's endpoints.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyr2k

from netsurgeon import (
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    avoidance_block,
    certify,
    intercentrality,
    spectral_radius,
    walk_matrix,
    walks,
)
from netsurgeon import graphs

from .conftest import dense_inverse, dyad, path, random_connected_graph, random_graph, safe_delta
from .oracle import enumerate_avoiding_walks, truncation_tail_bound, walk_entry


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
                tuple(net.labels[i] for i in keep.members),
                net.adjacency[np.ix_(keep.members, keep.members)].copy(),
            )
            np.testing.assert_allclose(
                wm.kept_kept, dense_inverse(survivor, spec.delta), atol=1e-9
            )

    def test_entry_dispatch_covers_all_quadrants(self):
        spec = path(4, 0.2)
        s = NodeSet.of([1, 3])
        wm = walk_matrix(spec, s)
        assert walk_entry(wm, 0, 2) == wm.kept_kept[0, 1]
        assert walk_entry(wm, 0, 3) == wm.kept_excluded[0, 1]
        assert walk_entry(wm, 1, 0) == wm.excluded_kept[0, 0]
        assert walk_entry(wm, 3, 1) == wm.excluded_excluded[1, 0]

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
        monkeypatch.setattr(walks, "_deleted_network_gaps", lambda *a: (float("nan"), 0.0, 0.0))
        with pytest.raises(InternalCheckError, match="kept-kept block by nan"):
            walk_matrix(spec, NodeSet.of([0]))


def _core_periphery_game(n, seed):
    """Sparse ER links plus two hubs tied to about a third of the nodes."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 6.0 / n, 1)
    a[0, 1:] |= rng.random(n - 1) < 0.3
    a[1, 2:] |= rng.random(n - 2) < 0.3
    net = Network(tuple(str(i + 1) for i in range(n)), (a | a.T).astype(float))
    return certify(net, 0.5 / spectral_radius(net))


def _walk_matrix_whole_arrays(spec, s):
    """walk_matrix's four blocks from whole arrays: the kept-kept block as
    dsyr2k on a copy of M_cc, then its lower triangle mirrored."""
    c, e = list(s.complement(spec.n).members), list(s.members)
    m = spec.influence()
    m_cc, m_cs, m_ss = m[np.ix_(c, c)], m[np.ix_(c, e)], m[np.ix_(e, e)]
    inv_ss = cho_solve(cho_factor(m_ss, lower=True), np.eye(len(e)))
    w_cs = m_cs @ inv_ss
    w_sc = w_cs.T
    w_cc = m_cc.copy(order="C")
    dsyr2k(-0.5, w_cs, m_cs, beta=1.0, c=w_cc.T, lower=0, overwrite_c=1)
    w_cc = np.where(np.tri(len(c), dtype=bool), w_cc, w_cc.T)
    w_ss = 2.0 * np.eye(len(e)) - inv_ss
    return w_cc, w_cs, w_sc, w_ss


def _checked_blocks(monkeypatch, change):
    """Route walk_matrix's three checked blocks through change(name, block)
    before the check sees them."""
    check = walks._deleted_network_gaps

    def changed(spec, e, w_cc, w_cs, w_ss, m_cs):
        named = {"kept-kept": w_cc, "kept-excluded": w_cs, "excluded-excluded": w_ss}
        changed_blocks = (change(name, block.copy()) for name, block in named.items())
        return check(spec, e, *changed_blocks, m_cs)

    monkeypatch.setattr(walks, "_deleted_network_gaps", changed)


BLOCK_NAMES = ("kept-kept", "kept-excluded", "excluded-excluded")


class TestWalkMatrixFootprint:
    """walk_matrix updates in place and checks its blocks a strip at a time."""

    @pytest.mark.parametrize(
        "n, excluded", [(40, [5]), (300, [0, 1, 150]), (600, [7, 299, 598])]
    )
    def test_blocks_and_gaps_match_the_whole_array_route(self, monkeypatch, n, excluded):
        spec = _core_periphery_game(n, seed=n)
        s = NodeSet.of(excluded, n)
        want_blocks = _walk_matrix_whole_arrays(spec, s)
        gaps = []
        monkeypatch.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
        wm = walk_matrix(spec, s)
        got = (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded)
        assert all(np.array_equal(x, y) for x, y in zip(got, want_blocks))
        assert len(gaps) == 3
        assert max(gaps) <= walks.CROSS_ROUTE_TOL

    # A NaN in the last row of a strip, in a later strip, or in a small block.
    @pytest.mark.parametrize("block", BLOCK_NAMES)
    @pytest.mark.parametrize("row", [0, 255, 256, -1])
    def test_a_nan_in_any_block_is_refused(self, monkeypatch, block, row):
        n = 300
        spec = _core_periphery_game(n, seed=3)

        def poison(name, w):
            if name == block:
                w[row, -1] = np.nan
            return w

        _checked_blocks(monkeypatch, poison)
        # excluded-excluded is |S| x |S|: rows 255 and 256 need a large S.
        large = block == "excluded-excluded" and row not in (0, -1)
        excluded = list(range(5, 265)) if large else [4, 90, 200]
        with pytest.raises(InternalCheckError, match=f"{block} block by nan"):
            walk_matrix(spec, NodeSet.of(excluded, n))

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
        # The answer's n x n array and one strip of rows (256 of 600 here).
        assert peak <= 1.6 * n * n * 8

    def test_the_check_allocates_about_one_strip(self, monkeypatch):
        n = 1000
        spec = _core_periphery_game(n, seed=1)
        s = NodeSet.of([3, 100, 300], n)
        walk_matrix(spec, s)  # untraced first call: lazy imports and caches
        check, extra = walks._deleted_network_gaps, []

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gaps = check(*args)
            extra.append(tracemalloc.get_traced_memory()[1] - before)
            return gaps

        monkeypatch.setattr(walks, "_deleted_network_gaps", traced)
        tracemalloc.start()
        try:
            walk_matrix(spec, s)
        finally:
            tracemalloc.stop()
        assert extra[0] <= 1.25 * graphs.STRIP * n * 8

    def test_a_query_peaks_at_one_kept_block_and_a_strip(self):
        # The kept-kept block is read, updated and mirrored in one array; a
        # copy of it (dsyr2k's wrapper copies a c it cannot update in place)
        # would add another n_c x n_c array.
        n = 1000
        spec = _core_periphery_game(n, seed=1)
        s = NodeSet.of([3, 100, 300], n)
        walk_matrix(spec, s)  # untraced first call: lazy imports, caches, the held residual
        n_c = n - len(s)
        tracemalloc.start()
        try:
            walk_matrix(spec, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_c * n_c * 8 + 1.25 * graphs.STRIP * n * 8

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
        want_blocks = _walk_matrix_whole_arrays(certify(spec.network, spec.delta), s)
        got = (wm.kept_kept, wm.kept_excluded, wm.excluded_kept, wm.excluded_excluded)
        assert all(np.array_equal(x, y) for x, y in zip(got, want_blocks))
        assert len(gaps) == 3
        assert max(gaps) <= walks.CROSS_ROUTE_TOL

    def test_first_query_packs_the_held_inverse_without_influence(self, monkeypatch):
        spec = _core_periphery_game(120, seed=5)
        want = walk_matrix(certify(spec.network, spec.delta), NodeSet.of([3, 60], 120))

        def refuse(self):
            raise AssertionError("influence() called")

        monkeypatch.setattr(graphs.GameSpec, "influence", refuse)
        assert not spec._held
        got = walk_matrix(spec, NodeSet.of([3, 60], 120))
        for name in ("kept_kept", "kept_excluded", "excluded_kept", "excluded_excluded"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_repeated_queries_make_no_full_size_inverse(self, monkeypatch):
        n = 200
        spec = _core_periphery_game(n, seed=2)
        inverses, factors = [], []

        def counted(routine, shapes):
            def call(c, *args, **kwargs):
                shapes.append(c.shape)
                return routine(c, *args, **kwargs)
            return call

        monkeypatch.setattr(graphs, "dpotri", counted(graphs.dpotri, inverses))
        monkeypatch.setattr(graphs, "cho_factor", counted(graphs.cho_factor, factors))
        monkeypatch.setattr(walks, "cho_factor", counted(walks.cho_factor, factors))
        walk_matrix(spec, NodeSet.of([4, 9], n))
        assert inverses == [(n, n)]  # the held M
        assert factors == [(2, 2)]
        inverses.clear()
        factors.clear()
        walk_matrix(spec, NodeSet.of([0, 50, 199], n))
        walk_matrix(spec, NodeSet.of([7], n))
        spec.influence()
        spec.with_theta(np.full(n, 2.0)).influence()
        assert inverses == []
        assert factors == [(3, 3), (1, 1)]


def _dense_core_network(rng, n):
    """A dense core of n/10 nodes (at least 2), a sparse periphery hung off
    it, and two adjacent hubs (nodes 0 and 1) reaching 40% and 20% of the
    periphery."""
    core = max(n // 10, 2)
    a = np.zeros((n, n), dtype=bool)
    a[:core, :core] = np.triu(rng.random((core, core)) < 0.3, 1)
    periphery = np.arange(core, n)
    a[rng.integers(0, core, size=periphery.size), periphery] = True
    u = rng.choice(periphery, size=n // 2)
    v = rng.choice(periphery, size=n // 2)
    a[u[u != v], v[u != v]] = True
    a[0, 1] = True
    for hub, reach in ((0, 0.4), (1, 0.2)):
        a[hub, periphery[rng.random(periphery.size) < reach]] = True
    a = a | a.T
    np.fill_diagonal(a, False)
    return Network(tuple(str(i + 1) for i in range(n)), a.astype(float))


def _at_fraction(net, fraction):
    return certify(net, fraction / spectral_radius(net))


def _er_game(n, seed, fraction=0.5):
    """An Erdos-Renyi game of mean degree 6 at the given fraction of its bound."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 6.0 / (n - 1), 1)
    net = Network(tuple(str(i + 1) for i in range(n)), (a | a.T).astype(float))
    return certify(net, fraction / spectral_radius(net))


class TestHeldResidual:
    """The kept-kept check reads one residual of the held M per game."""

    @pytest.mark.parametrize(
        "game, excluded",
        [
            (lambda: _er_game(300, seed=1), [0]),
            (lambda: _er_game(300, seed=1), [5, 150, 299]),
            (lambda: _er_game(613, seed=2), list(range(10, 610, 60))),
            (lambda: _core_periphery_game(300, seed=4), [0, 1]),
            (lambda: _core_periphery_game(600, seed=5), [3, 100, 300]),
        ],
        ids=["er-one", "er-three", "er-ten", "core-hubs", "core-three"],
    )
    def test_half_bound_queries_never_form_the_kept_residual(self, monkeypatch, game, excluded):
        spec = game()

        def refuse(*args):
            raise AssertionError("the kept-kept residual was formed")

        monkeypatch.setattr(walks, "_direct_kept_residual", refuse)
        walk_matrix(spec, NodeSet.of(excluded, spec.n))

    def test_the_residual_is_computed_once_per_game(self, monkeypatch):
        n = 200
        spec = _core_periphery_game(n, seed=6)
        calls = []
        residual = graphs._inverse_residual

        def counted(*args):
            calls.append(args[0])
            return residual(*args)

        monkeypatch.setattr(graphs, "_inverse_residual", counted)
        walk_matrix(spec, NodeSet.of([4, 9], n))
        walk_matrix(spec, NodeSet.of([0, 50, 199], n))
        weighted = spec.with_theta(np.full(n, 2.0))
        walk_matrix(weighted, NodeSet.of([7], n))
        assert len(calls) == 1 and calls[0] is spec.network.sparse_adjacency
        assert weighted._held_residual() == spec._held_residual()
        walk_matrix(certify(spec.network, spec.delta), NodeSet.of([7], n))
        assert len(calls) == 2  # a new game holds its own M

    def test_each_query_reads_the_held_rows_once(self, monkeypatch):
        n = 200
        spec = _core_periphery_game(n, seed=6)
        calls = []
        rows = graphs.GameSpec.influence_rows

        def counted(self, members):
            calls.append(list(members))
            return rows(self, members)

        monkeypatch.setattr(graphs.GameSpec, "influence_rows", counted)
        for excluded in ([4], [0, 50, 199], [7, 8, 9, 120]):
            calls.clear()
            walk_matrix(spec, NodeSet.of(excluded, n))
            assert calls == [excluded]

    def test_the_residual_allocates_about_one_strip(self):
        n = 1000
        spec = _core_periphery_game(n, seed=1)
        spec.influence_rows([0])  # packs the held M
        spec.network.sparse_adjacency  # built and kept by the network
        tracemalloc.start()
        try:
            spec._held_residual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * graphs.STRIP * n * 8

    def test_a_row_sum_preserving_change_is_refused(self, monkeypatch):
        # Invisible to an all-ones probe: the changed row's sum is unchanged.
        n = 300
        spec = _core_periphery_game(n, seed=3)

        def shift(name, w):
            if name == "kept-kept":
                w[17, 0] += 1e-8
                w[17, -1] -= 1e-8
            return w

        _checked_blocks(monkeypatch, shift)
        with pytest.raises(InternalCheckError, match="on the kept-kept block by"):
            walk_matrix(spec, NodeSet.of([4, 90, 200], n))


def _longdouble_inverse(a):
    """The inverse of a square array by Gauss-Jordan elimination with partial
    pivoting in np.longdouble."""
    k = len(a)
    rows = np.hstack([a.astype(np.longdouble), np.eye(k, dtype=np.longdouble)])
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(rows[col:, col])))
        rows[[col, pivot]] = rows[[pivot, col]]
        rows[col] /= rows[col, col]
        others = np.arange(k) != col
        rows[others] -= np.outer(rows[others, col], rows[col])
    return rows[:, k:]


@st.composite
def _family_networks(draw):
    """Small networks of one family: Erdos-Renyi, path, star, circulant,
    two components, or Erdos-Renyi plus an isolated node."""
    family = draw(st.sampled_from(["er", "path", "star", "circulant", "disconnected", "isolated"]))
    n = draw(st.integers(4, 14))
    a = np.zeros((n, n))
    if family in ("er", "isolated"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = n - 1 if family == "isolated" else n
        a[:m, :m] = np.triu(rng.random((m, m)) < draw(st.floats(0.2, 0.7)), 1)
    elif family == "star":
        a[0, 1:] = 1.0
    else:
        steps = (1, 2) if family == "circulant" else (1,)
        links = [(i, i + d) for d in steps for i in range(n - d)]
        if family == "circulant":
            links += [(n - d + i, i) for d in steps for i in range(d)]
        elif family == "disconnected":
            links.remove((n // 2 - 1, n // 2))
        for i, j in links:
            a[min(i, j), max(i, j)] = 1.0
    return Network(tuple(str(i + 1) for i in range(n)), np.maximum(a, a.T))


class TestKeptBound:
    """The kept-kept gap read off the held M's residual covers the error
    against an extended-precision inverse of the deleted network's system."""

    @settings(max_examples=80, deadline=None)
    @given(_family_networks(), st.floats(0.3, 0.999), st.data())
    def test_reported_gap_covers_the_extended_precision_error(self, net, fraction, data):
        lam = spectral_radius(net)
        assume(lam > 0)
        spec = certify(net, fraction / lam)
        nodes = data.draw(st.permutations(range(net.n)))
        s = NodeSet.of(nodes[: data.draw(st.integers(1, min(3, net.n - 1)))])
        kept = list(s.complement(net.n).members)
        for tol in (walks.CROSS_ROUTE_TOL, np.inf):  # the gate, and the bound alone
            gaps = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(walks, "CROSS_ROUTE_TOL", tol)
                mp.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
                wm = walk_matrix(spec, s)
            system = np.eye(len(kept)) - spec.delta * net.adjacency[np.ix_(kept, kept)]
            error = np.abs(wm.kept_kept - _longdouble_inverse(system)).max()
            assert gaps[0] >= error, (tol, gaps[0], error)


class TestTransposedBlock:
    @settings(max_examples=40, deadline=None)
    @given(_family_networks(), st.floats(0.3, 0.99), st.data())
    def test_excluded_kept_is_the_checked_block_transposed(self, net, fraction, data):
        # Walks are symmetric: the printed excluded-kept block is exactly the
        # kept-excluded block that the deleted network's equations check.
        lam = spectral_radius(net)
        assume(lam > 0)
        spec = certify(net, fraction / lam)
        nodes = data.draw(st.permutations(range(net.n)))
        s = NodeSet.of(nodes[: data.draw(st.integers(1, min(3, net.n - 1)))])
        wm = walk_matrix(spec, s)
        assert np.array_equal(wm.excluded_kept, wm.kept_excluded.T)


@st.composite
def _symmetry_cases(draw):
    """A network of one family (Erdos-Renyi, path, core-periphery, circulant
    or two Erdos-Renyi components), small or past one strip of rows, and an
    excluded set holding some of node 0, node n - 1 and nodes 255 and 256."""
    family = draw(st.sampled_from(["er", "path", "core", "circulant", "two-components"]))
    n = draw(st.one_of(st.integers(4, 24), st.integers(258, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "core":
        net = _dense_core_network(rng, n)
    else:
        a = np.zeros((n, n), dtype=bool)
        if family == "er":
            a = np.triu(rng.random((n, n)) < min(6.0 / n, 0.5), 1)
        elif family == "two-components":
            for lo, hi in ((0, n // 2), (n // 2, n)):
                a[lo:hi, lo:hi] = np.triu(rng.random((hi - lo, hi - lo)) < min(6.0 / n, 0.5), 1)
        else:
            for step in (1,) if family == "path" else (1, 2):
                a[np.arange(n - step), np.arange(step, n)] = True
                if family == "circulant":
                    a[np.arange(step), np.arange(n - step, n)] = True
        net = Network(tuple(str(i + 1) for i in range(n)), (a | a.T).astype(float))
    edges = [0, n - 1] + ([255, 256] if n > 257 else [])
    picks = draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
    picks += draw(st.lists(st.integers(0, n - 1), max_size=2))
    s = NodeSet.of(picks)
    assume(len(s) < n)
    return net, s


class TestExactSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(_symmetry_cases(), st.floats(0.3, 0.99))
    def test_kept_kept_is_its_own_transpose(self, case, fraction):
        # One triangle is computed and mirrored, so walks i -> j and j -> i
        # print the same bits, answered or not.
        net, s = case
        lam = spectral_radius(net)
        assume(lam > 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "_require_agreement", lambda gap, what: None)
            wm = walk_matrix(certify(net, fraction / lam), s)
        assert np.array_equal(wm.kept_kept, wm.kept_kept.T)


class TestNearTheBound:
    """Where the check stops answering: the answered side, on the ER, path and
    core-periphery games whose walk queries it refuses a step closer to the
    bound (ER and path from 0.9999 of it, core-periphery from 0.999)."""

    @pytest.mark.parametrize(
        "game, excluded",
        [
            (lambda: _er_game(200, seed=1, fraction=0.999), [6, 51]),
            (lambda: _at_fraction(path(100).network, 0.999), [6, 51]),
            (lambda: _at_fraction(_dense_core_network(np.random.default_rng(3), 300), 0.99),
             [1, 50, 100]),
            (lambda: _at_fraction(_dense_core_network(np.random.default_rng(3), 300), 0.99),
             [7, 8, 9]),
        ],
        ids=["er200-0.999", "path100-0.999", "core300-0.99-a", "core300-0.99-b"],
    )
    def test_is_answered(self, game, excluded):
        spec = game()
        walk_matrix(spec, NodeSet.of(excluded, spec.n))

    # The reported gap, through the gate and from the bound alone, covers the
    # error against an extended-precision inverse of the deleted network's system.
    @pytest.mark.parametrize("fraction", [0.5, 0.999])
    @pytest.mark.parametrize(
        "game, excluded",
        [
            (lambda f: _er_game(200, seed=1, fraction=f), [6, 51]),
            (lambda f: _at_fraction(path(100).network, f), [6, 51]),
            (lambda f: _at_fraction(_dense_core_network(np.random.default_rng(3), 300), f),
             [7, 8, 9]),
        ],
        ids=["er200", "path100", "core300"],
    )
    def test_kept_gap_covers_the_extended_precision_error(self, game, excluded, fraction):
        spec = game(fraction)
        s = NodeSet.of(excluded, spec.n)
        kept = list(s.complement(spec.n).members)
        g = spec.network.adjacency[np.ix_(kept, kept)]
        want = _longdouble_inverse(np.eye(len(kept)) - spec.delta * g)
        for tol in (walks.CROSS_ROUTE_TOL, np.inf):
            gaps = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(walks, "CROSS_ROUTE_TOL", tol)
                mp.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
                wm = walk_matrix(spec, s)
            assert gaps[0] >= np.abs(wm.kept_kept - want).max(), (tol, gaps[0])


def _exact_walk_blocks(net, delta, s):
    """The deleted network's walk blocks in exact rational arithmetic:
    A^-1, delta A^-1 G_cs and I + delta G_ss + delta G_cs^T (delta A^-1 G_cs),
    with A = I - delta G_cc, by Gauss-Jordan elimination on Fractions."""
    c, e = list(s.complement(net.n).members), list(s.members)
    d = Fraction(delta)
    g = [[int(v) for v in row] for row in net.adjacency]
    k = len(c)
    rows = [
        [Fraction(int(i == j)) - d * g[c[i]][c[j]] for j in range(k)]
        + [Fraction(int(i == j)) for j in range(k)]
        for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inv = [row[k:] for row in rows]
    w_cs = [[d * sum(inv[i][t] * g[c[t]][x] for t in range(k)) for x in e] for i in range(k)]
    w_ss = [
        [
            Fraction(int(p == q)) + d * g[x][y] + d * sum(g[c[t]][x] * w_cs[t][q] for t in range(k))
            for q, y in enumerate(e)
        ]
        for p, x in enumerate(e)
    ]
    return inv, w_cs, w_ss


def _exact_distance(block, exact):
    pairs = (
        (float(v), want) for row, wants in zip(block, exact) for v, want in zip(row, wants)
    )
    return max((abs(Fraction(v) - want) for v, want in pairs), default=Fraction(0))


class TestCheckBound:
    """The gated quantity bounds the distance to the exact deleted-network answer."""

    @pytest.mark.parametrize("fraction", [0.5, 0.999999])
    @pytest.mark.parametrize("family", ["er", "path"])
    def test_reported_gaps_bound_the_exact_error(self, monkeypatch, family, fraction):
        rng = np.random.default_rng([len(family), int(fraction * 1e6)])
        gaps = []
        monkeypatch.setattr(walks, "_require_agreement", lambda gap, what: gaps.append(gap))
        trials = 0
        while trials < 12:
            n = int(rng.integers(4, 11))
            if family == "path":
                net = path(n, 0.1).network
            else:
                net = random_graph(rng, n, p=0.45)
            lam = spectral_radius(net)
            if lam == 0.0:
                continue
            spec = certify(net, fraction / lam)
            s = NodeSet.of(rng.permutation(n)[: int(rng.integers(1, n - 1))])
            gaps.clear()
            wm = walk_matrix(spec, s)
            exact = _exact_walk_blocks(net, spec.delta, s)
            blocks = (wm.kept_kept, wm.kept_excluded, wm.excluded_excluded)
            for name, gap, block, want in zip(BLOCK_NAMES, gaps, blocks, exact):
                assert Fraction(gap) >= _exact_distance(block, want), (name, n, s)
            trials += 1


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
            m = spec.influence()
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
            m = spec.influence()
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
            m = spec.influence()
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
        tail = truncation_tail_bound(spec.delta, spectral_radius(spec.network), 60)
        assert abs(block[0, 0] - total) <= tail + 1e-12


def _walk_reading(spec, s):
    """The intercentrality of s read off the walk matrix: the members' own
    play, and the play of walks from outside into s."""
    idx = list(s.members)
    into = walk_matrix(spec, s).kept_excluded.sum(axis=0)
    return float(spec.b[idx].sum()), float(into @ spec.b[idx])


class TestDecomposition:
    """Walks into S priced by the centralities of S are the indirect part of
    its intercentrality, which keygroup computes from one |S| x |S| solve."""

    def test_direct_term_and_identity(self):
        rng = np.random.default_rng(83)
        for trial in range(60):
            n = int(rng.integers(4, 13))
            net = random_graph(rng, n)
            # Every third game weights its play; the walks are priced by b[S].
            theta = rng.uniform(0.5, 2.0, n) if trial % 3 == 0 else None
            spec = certify(net, safe_delta(rng, net), theta)
            for size in (1, 2, 3):
                s = NodeSet.of(rng.permutation(n)[:size])
                direct, reading = _walk_reading(spec, s)
                gs = intercentrality(spec, s)
                assert direct == gs.direct_effect
                assert abs(reading - gs.indirect_effect) <= 1e-12 * gs.intercentrality, (n, s)


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
            tail = truncation_tail_bound(spec.delta, spectral_radius(spec.network), 40)
            assert abs(walk_entry(wm, i, j) - prev) <= tail + 1e-12

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
