"""Networks keep their links, not a dense adjacency.

The dense Network the links replaced is kept here as the reference: its
validation, from_edges, parse_edge_list, with_changes and read-outs, written
over one n x n float64 array. Every way of building a Network must give the
same adjacency, CSR array, edges, degrees, text, equality and hash, and the
same error texts. The systems built from the links must equal their dense
formulas bit for bit, no query may build the dense adjacency, and a certified
game holds no n x n array beside its factor.
"""

import gc
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import netsurgeon.graphs as graphs
from netsurgeon import (
    CharacteristicIntervention,
    GameSpec,
    InputError,
    Network,
    NodeSet,
    StructuralIntervention,
    avoidance_block,
    certify,
    certify_congestion,
    characteristic_effect,
    cli,
    hybrid_effect,
    intercentrality,
    label_key,
    link_value_existing,
    link_value_potential,
    parse_edge_list,
    spectral_radius,
    structural_effect,
    walk_matrix,
)

from .test_graphs import (
    LABELS,
    LINE_BREAKS,
    edge_list_lines,
    loop_from_edges,
    parse_edge_list_by_line,
)
from .oracle import node_removal, serialize


def dense_network(labels, adjacency):
    """The dense Network's validation: its float64 adjacency, read-only."""
    a = np.asarray(adjacency)
    if a.dtype.kind not in "biuf":
        raise InputError(f"adjacency must be a numeric 0/1 array, got dtype {a.dtype}")
    a = a.astype(np.float64)
    n = len(labels)
    if len(set(labels)) != n:
        raise InputError("duplicate node labels")
    if tuple(sorted(labels, key=label_key)) != labels:
        raise InputError("labels must be given in natural order")
    if a.shape != (n, n):
        raise InputError(f"adjacency shape {a.shape} does not match {n} labels")
    if not np.array_equal(a, a.T):
        raise InputError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0):
        raise InputError("self-loops are not allowed")
    if not np.all((a == 0) | (a == 1)):
        raise InputError("adjacency entries must be 0 or 1")
    a.flags.writeable = False
    return a


def dense_with_changes(a, changes):
    """The dense Network.with_changes: written over a copy, written entries checked."""
    out = a.copy()
    touched = []
    for i, j, sign in changes:
        out[i, j] = out[j, i] = a[i, j] + sign
        touched.append((i, j))
    rows, cols = np.array(touched, dtype=np.intp).reshape(-1, 2).T
    if np.any(out[rows, rows] != 0):
        raise InputError("self-loops are not allowed")
    written = out[rows, cols]
    if not np.all((written == 0) | (written == 1)):
        raise InputError("adjacency entries must be 0 or 1")
    return out


def assert_same(net, labels, a):
    """net against the dense Network on labels and a, read-out by read-out."""
    assert net.labels == labels
    got = net.adjacency
    assert got.dtype == np.float64 and not got.flags.writeable
    assert np.array_equal(got, a) and not np.signbit(got).any()
    sparse, want = net.sparse_adjacency, csr_array(a)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sparse, part), getattr(want, part))
    rows, cols = np.nonzero(np.triu(a, 1))
    edges = [(labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    assert net.edges() == edges
    rebuilt = Network(labels, a)
    assert net == rebuilt and hash(net) == hash(rebuilt) == hash(labels)
    for i in range(net.n):
        for j in range(net.n):
            assert net.has_link(i, j) == bool(a[i, j])


def outcome(build):
    """("ok", value) or ("error", exception type, text)."""
    try:
        return ("ok", build())
    except InputError as exc:
        return ("error", type(exc), str(exc))


@st.composite
def dense_arrays(draw, max_nodes=7):
    """Labels in natural order and a square array: mostly valid, sometimes not."""
    n = draw(st.integers(0, max_nodes))
    labels = tuple(str(i + 1) for i in range(n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    a = np.array(bits, dtype=float).reshape(n, n)
    a = np.triu(a, 1)
    a = a + a.T
    fault = draw(st.sampled_from(["none", "none", "none", "loop", "asym", "half", "dtype"]))
    if n >= 2 and fault == "loop":
        a[1, 1] = 1.0
    elif n >= 2 and fault == "asym":
        a[0, 1] = 1.0 - a[1, 0]
    elif n >= 2 and fault == "half":
        a[0, 1] = a[1, 0] = 0.5
    elif fault == "dtype":
        a = a.astype(draw(st.sampled_from([bool, np.int64, np.float32])))
    return labels, a


@settings(max_examples=200, deadline=None)
@given(dense_arrays())
def test_a_validated_array_gives_the_dense_network(case):
    labels, a = case
    want = outcome(lambda: dense_network(labels, a))
    got = outcome(lambda: Network(labels, a))
    if want[0] == "error":
        assert got == want
        return
    assert_same(got[1], labels, want[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(LABELS, LABELS), max_size=25), st.lists(LABELS, max_size=4))
def test_from_edges_gives_the_dense_network(edges, isolated):
    want = outcome(lambda: loop_from_edges(edges, isolated))
    got = outcome(lambda: Network.from_edges(edges, isolated))
    if want[0] == "error":
        assert got == want
        return
    assert_same(got[1], *want[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(edge_list_lines(), min_size=1, max_size=12), st.sampled_from(LINE_BREAKS))
def test_parse_edge_list_gives_the_dense_network(lines, brk):
    text = brk.join(lines)
    want = outcome(lambda: parse_edge_list_by_line(text))
    got = outcome(lambda: parse_edge_list(text))
    if want[0] == "error":
        assert got == want
        return
    assert_same(got[1], *want[1])


@st.composite
def changed_networks(draw):
    """A network and signed changes: repeated, reversed, self-loops and off-0/1 writes."""
    n = draw(st.integers(1, 7))
    labels = tuple(str(i + 1) for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = np.zeros((n, n))
    for (i, j), bit in zip(pairs, bits):
        a[i, j] = a[j, i] = float(bit)
    node = st.integers(0, n - 1)
    legal = draw(st.booleans())
    changes = []
    for i, j in draw(st.lists(st.tuples(node, node), max_size=6)):
        if legal:
            if i == j or (min(i, j), max(i, j)) in {(min(p), max(p)) for p, _ in changes}:
                continue
            sign = -1 if a[i, j] else 1
        else:
            sign = draw(st.sampled_from([-1, 1, 0]))
        changes.append(((i, j), sign))
    return labels, a, [(i, j, sign) for (i, j), sign in changes]


@settings(max_examples=300, deadline=None)
@given(changed_networks())
def test_with_changes_gives_the_dense_network(case):
    labels, a, changes = case
    net = Network(labels, a)
    want = outcome(lambda: dense_with_changes(dense_network(labels, a), changes))
    got = outcome(lambda: net.with_changes(changes))
    if want[0] == "error":
        assert got == want
        return
    changed = got[1]
    assert_same(changed, labels, want[1])
    assert (changed == net) == np.array_equal(want[1], a)
    assert_same(net, labels, a)  # the original is untouched


def test_with_changes_reads_indices_as_numpy_does():
    net = Network.from_edges([("a", "b")], isolated=["c"])
    assert net.with_changes([(-1, 0, 1)]) == net.with_changes([(0, 2, 1)])
    with pytest.raises(IndexError):
        net.with_changes([(0, 3, 1)])
    with pytest.raises(IndexError):
        net.has_link(3, 0)


# A graph with an isolated node, and edge lines repeated and reversed.
ODD_EDGES = "1 2\n2 1\n1 2\n3 2\n2 4\n4 5\n5 3\n6 4\n7\n"


@pytest.mark.parametrize("delta, gamma", [(0.3, 0.02), (0.0, 0.05), (0.2, 0.0), (0.0, 0.0)])
def test_congestion_system_is_the_dense_formula_bit_for_bit(delta, gamma):
    net = parse_edge_list(ODD_EDGES)
    a = net.adjacency
    want = np.eye(net.n) - delta * a + gamma * (a @ a)
    got = certify_congestion(net, delta, gamma).system
    assert not got.flags.writeable
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("delta", [0.0, 0.1, 0.3])
def test_game_system_is_the_dense_formula_bit_for_bit(delta, monkeypatch):
    net = parse_edge_list(ODD_EDGES)
    seen = []
    real = graphs.cho_factor

    def spy(system, **kwargs):
        seen.append(system.copy())
        return real(system, **kwargs)

    monkeypatch.setattr(graphs, "cho_factor", spy)
    GameSpec(net, np.ones(net.n), delta)._factor
    want = np.eye(net.n) - delta * net.adjacency
    (got,) = seen
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_unit_theta_equilibrium_is_b_unit_from_one_solve(monkeypatch):
    net = parse_edge_list(ODD_EDGES)
    calls = []
    real = GameSpec.solve
    monkeypatch.setattr(GameSpec, "solve", lambda self, rhs: calls.append(rhs) or real(self, rhs))
    spec = certify(net, 0.2)
    assert len(calls) == 1  # b_unit, the certificate's row sums
    assert spec.b is spec.b_unit and len(calls) == 1
    assert np.array_equal(spec.b, real(spec, np.ones(net.n)))
    theta = np.linspace(0.5, 1.5, net.n)
    weighted = spec.with_theta(theta)
    assert np.array_equal(weighted.b, real(spec, theta)) and len(calls) == 2
    assert spec.with_theta(np.ones(net.n)).b is spec.b_unit and len(calls) == 2


def er_network(rng, n, degree=6.0):
    """Erdos-Renyi network on labels 1..n with the given mean degree."""
    upper = np.triu(rng.random((n, n)) < degree / (n - 1), 1)
    edges = [(str(i + 1), str(j + 1)) for i, j in zip(*np.nonzero(upper))]
    return Network.from_edges(edges, isolated=[str(i + 1) for i in range(n)])


def test_a_certified_game_holds_one_n_by_n_array():
    n = 600
    rng = np.random.default_rng(3)
    delta = 0.5 / spectral_radius(er_network(rng, n))
    text = serialize(er_network(rng, n))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = certify(parse_edge_list(text), delta)
        gc.collect()
        after_certify = tracemalloc.get_traced_memory()[0] - base
        walk_matrix(spec, NodeSet.of([5, 50, 500]))
        gc.collect()
        after_walk = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    limit = 1.1 * n * n * 8
    assert after_certify <= limit and after_walk <= limit, (after_certify, after_walk, limit)


class TestNoQueryBuildsTheDenseAdjacency:
    """Every what-if query and CLI run on a small certified game reads links only."""

    @staticmethod
    def forbid(monkeypatch):
        def refuse(self):
            raise AssertionError("the dense adjacency was built")

        monkeypatch.setattr(Network, "adjacency", property(refuse))

    @pytest.fixture()
    def game(self):
        net = er_network(np.random.default_rng(8), 30)
        return certify(net, 0.5 / spectral_radius(net))

    def test_library_queries(self, game, monkeypatch):
        net = game.network
        rows, cols = net.links
        u, v = net.labels[rows[0]], net.labels[cols[0]]
        absent = next((i, j) for i in range(net.n) for j in range(i + 1, net.n)
                      if not net.has_link(i, j))
        cut = node_removal(net, ["4"])
        self.forbid(monkeypatch)
        civ = CharacteristicIntervention.from_pairs(net, {"3": 0.5})
        add = StructuralIntervention.from_label_pairs(
            net, add=[tuple(net.labels[k] for k in absent)], remove=[(u, v)]
        )
        characteristic_effect(game, civ)
        structural_effect(game, add)
        structural_effect(game, cut)
        hybrid_effect(game, add, civ)
        intercentrality(game, NodeSet.of([1, 2]))
        link_value_existing(game, u, v)
        link_value_potential(game, *(net.labels[k] for k in absent))
        walk_matrix(game, NodeSet.of([0, 7]))
        avoidance_block(game, NodeSet.of([0, 1]), NodeSet.of([5]))

    def test_cli_subcommands(self, game, tmp_path, monkeypatch):
        net = game.network
        graph = tmp_path / "g.txt"
        graph.write_text(serialize(net))
        other = tmp_path / "h.txt"
        other.write_text("".join(f"x{i} x{i + 1}\n" for i in range(6)))
        rows, cols = net.links
        link = f"{net.labels[rows[0]]},{net.labels[cols[0]]}"
        absent = next(f"{net.labels[i]},{net.labels[j]}" for i in range(net.n)
                      for j in range(i + 1, net.n) if not net.has_link(i, j))
        game_args = ["--graph", str(graph), "--delta", repr(game.delta)]
        low = ["--graph", str(graph), "--delta", repr(0.3 * game.delta)]
        runs = [
            ["centrality", *game_args],
            ["intervene", *game_args, "--dtheta", "3=0.5"],
            ["intervene", *game_args, "--add", absent, "--remove", link],
            ["intervene", *game_args, "--add", absent, "--dtheta", "3=0.5"],
            ["key-group", *game_args, "--k", "2"],
            ["key-group", *game_args, "--k", "3", "--mode", "greedy"],
            ["key-bridge", "--graph1", str(graph), "--graph2", str(other), "--delta", repr(0.1)],
            ["link-value", *game_args, "--pair", link],
            ["link-value", *game_args, "--pair", absent],
            ["link-value", *game_args, "--all-existing"],
            ["walks", *game_args, "--exclude", "1,2"],
            ["walks", *game_args, "--from", "1,2", "--to", "5"],
            ["extension", "--model", "multi", *low, "--beta", "0.2"],
            ["extension", "--model", "congestion", *low, "--gamma", "0.01"],
            ["extension", "--model", "global", *low, "--phi", "0.3"],
        ]
        self.forbid(monkeypatch)
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            assert cli.run(argv, out=out, err=err) == 0, (argv, err.getvalue())
            json.loads(out.getvalue())
