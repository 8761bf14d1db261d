import gc
import weakref

import numpy as np
import pytest
from scipy.linalg.lapack import dpotri
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netsurgeon import (
    GameSpec,
    GraphFormatError,
    InputError,
    Network,
    NodeSet,
    SpectralConditionError,
    StructuralIntervention,
    certify,
    label_key,
    parse_edge_list,
    spectral_radius,
)
from netsurgeon.graphs import _inverse_residual, embed

from .conftest import dense_inverse, eig_lambda_max, random_graph
from .oracle import as_matrix, degree, serialize


class TestParsing:
    def test_basic_edges_and_comments(self):
        net = parse_edge_list("# header\na b\nb c  # trailing\n\nd\n")
        assert net.labels == ("a", "b", "c", "d")
        assert net.edges() == [("a", "b"), ("b", "c")]
        assert degree(net, net.index_of("d")) == 0

    def test_duplicate_edges_collapse(self):
        net = parse_edge_list("a b\nb a\na b\n")
        assert net.edges() == [("a", "b")]
        assert net.adjacency.sum() == 2.0

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list("a b\nc c\n")
        assert exc.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list("a b c\n")
        assert exc.value.line == 1

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_edge_list("# nothing here\n")

    def test_round_trip(self):
        net = parse_edge_list("1 2\n2 10\nlone\n")
        again = parse_edge_list(serialize(net))
        assert again == net
        assert serialize(again) == serialize(net)


class TestNaturalOrder:
    def test_numeric_labels_sort_numerically(self):
        net = parse_edge_list("\n".join(f"{i} {i + 1}" for i in range(1, 12)))
        assert net.labels == tuple(str(i) for i in range(1, 13))
        assert net.index_of("10") == 9

    def test_mixed_labels_numbers_first(self):
        net = parse_edge_list("b 2\n10 a\n2 10\n")
        assert net.labels == ("2", "10", "a", "b")

    def test_label_key_orders_zero_padding_deterministically(self):
        assert sorted(["07", "7"], key=label_key) == ["07", "7"]

    def test_label_key_orders_decimals_by_value(self):
        # Zero padding, non-ASCII decimal digits and letters, against int().
        rng = np.random.default_rng(5)
        digits = list("0123456789") + ["\u0663", "\u0660", "\uff17"]
        names = ["".join(rng.choice(digits, size=rng.integers(1, 5))) for _ in range(300)]
        names += ["a", "b2", "\u00b3", "Z"]
        want = sorted(names, key=lambda s: (0, int(s), s) if s.isdecimal() else (1, 0, s))
        assert sorted(names, key=label_key) == want

    def test_label_key_reads_labels_longer_than_int_allows(self):
        huge = "9" * 5000
        names = [huge, "1" + "0" * 5000, "0" + huge, "8" + "9" * 4999, "12", "x"]
        assert sorted(names, key=label_key) == [
            "12", "8" + "9" * 4999, "0" + huge, huge, "1" + "0" * 5000, "x"
        ]

    def test_unsorted_labels_rejected(self):
        with pytest.raises(InputError):
            Network(("b", "a"), np.zeros((2, 2)))


class TestNetworkValidation:
    def test_duplicate_labels(self):
        with pytest.raises(InputError):
            Network(("a", "a"), np.zeros((2, 2)))

    def test_asymmetric_adjacency(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        with pytest.raises(InputError):
            Network(("a", "b"), a)

    def test_diagonal_rejected(self):
        with pytest.raises(InputError):
            Network(("a", "b"), np.eye(2))

    def test_nonbinary_rejected(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(InputError):
            Network(("a", "b"), a)

    def test_adjacency_frozen(self):
        net = Network.from_edges([("a", "b")])
        with pytest.raises(ValueError):
            net.adjacency[0, 1] = 0.0

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32])
    def test_numeric_adjacency_is_stored_as_float64(self, dtype):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        net = Network(("a", "b", "c"), a.astype(dtype))
        assert net.adjacency.dtype == np.float64
        assert net == Network(("a", "b", "c"), a.astype(float))

    def test_float64_adjacency_is_neither_frozen_nor_kept(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(("a", "b"), a)
        assert a.flags.writeable
        kept = weakref.ref(a)
        del a
        gc.collect()
        assert kept() is None
        assert net.edges() == [("a", "b")] and net.adjacency is not net.adjacency

    @pytest.mark.parametrize("values", [[["0", "1"], ["1", "0"]], [[0j, 1j], [1j, 0j]]])
    def test_non_numeric_adjacency_rejected(self, values):
        with pytest.raises(InputError, match="numeric 0/1"):
            Network(("a", "b"), np.array(values))

    def test_unknown_label(self):
        net = Network.from_edges([("a", "b")])
        with pytest.raises(InputError):
            net.index_of("zzz")


class TestWithChanges:
    def test_creates_and_deletes_links_on_a_copy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            net = random_graph(rng, int(rng.integers(3, 12)), p=0.4)
            pairs = [(i, j) for i in range(net.n) for j in range(i + 1, net.n)]
            picked = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
            iv = StructuralIntervention(frozenset(
                (i, j, -1 if net.adjacency[i, j] else 1) for i, j in (pairs[t] for t in picked)
            ))
            before = net.adjacency.copy()
            changed = net.with_changes(iv.entries)
            assert changed == Network(net.labels, net.adjacency + as_matrix(iv, net.n))
            assert np.array_equal(net.adjacency, before)
            assert not net.adjacency.flags.writeable and not changed.adjacency.flags.writeable

    @pytest.mark.parametrize("change", [(0, 1, 1), (1, 2, -1)], ids=["writes-2", "writes-minus-1"])
    def test_a_change_off_zero_one_is_refused(self, change):
        net = Network.from_edges([("a", "b")], isolated=["c"])
        with pytest.raises(InputError, match="0 or 1"):
            net.with_changes([change])

    @pytest.mark.parametrize("change", [(1, 1, 1), (2, 2, -1)], ids=["creates", "deletes"])
    def test_a_self_loop_change_is_refused(self, change):
        net = Network.from_edges([("a", "b")], isolated=["c"])
        with pytest.raises(InputError, match="^self-loops are not allowed$"):
            net.with_changes([(0, 1, -1), change])


class TestSpectralRadius:
    def test_star_is_sqrt_of_leaf_count(self):
        net = Network.from_edges([("h", f"l{i}") for i in range(1, 8)])
        assert spectral_radius(net) == pytest.approx(np.sqrt(7.0), abs=1e-10)

    def test_regular_graph_equals_degree(self, regular10):
        # every node has degree three
        assert all(degree(regular10, i) == 3 for i in range(10))
        assert spectral_radius(regular10) == pytest.approx(3.0, abs=1e-10)

    def test_cycle(self):
        edges = [(str(i), str(i % 6 + 1)) for i in range(1, 7)]
        assert spectral_radius(Network.from_edges(edges)) == pytest.approx(2.0, abs=1e-10)

    def test_edgeless(self):
        assert spectral_radius(Network.from_edges([], isolated=["a", "b"])) == 0.0

    def test_bipartite_path(self):
        # dominant eigenvalue 2 cos(pi/4) = sqrt(2), tied with its negative
        net = Network.from_edges([("1", "2"), ("2", "3")])
        assert spectral_radius(net) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_graph(rng, int(rng.integers(3, 9)))
            renamed = Network.from_edges(
                [(f"x{u}", f"x{v}") for u, v in net.edges()],
                isolated=[f"x{lab}" for lab in net.labels if degree(net, net.index_of(lab)) == 0],
            )
            assert spectral_radius(renamed) == pytest.approx(spectral_radius(net), abs=1e-10)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = random_graph(rng, int(rng.integers(2, 12)), p=0.5)
            assert spectral_radius(net) == pytest.approx(eig_lambda_max(net), abs=1e-8)


class TestCertify:
    def test_solve_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_graph(rng, 8)
            delta = 0.8 / max(spectral_radius(net), 1.0)
            theta = rng.uniform(0.5, 2.0, 8)
            spec = certify(net, delta, theta)
            np.testing.assert_allclose(
                spec.solve(theta), dense_inverse(net, delta) @ theta, atol=1e-10
            )

    def test_rejects_delta_at_spectral_bound(self):
        net = Network.from_edges([("a", "b")])  # lambda = 1
        with pytest.raises(SpectralConditionError) as exc:
            certify(net, 1.0)
        assert exc.value.max_delta == pytest.approx(1.0, abs=1e-6)
        certify(net, 0.999999)  # just inside

    def test_rejects_nonpositive_delta(self):
        net = Network.from_edges([("a", "b")])
        with pytest.raises(InputError):
            certify(net, 0.0)
        with pytest.raises(InputError):
            certify(net, -0.1)

    def test_theta_shape_checked(self):
        net = Network.from_edges([("a", "b")])
        with pytest.raises(InputError):
            certify(net, 0.25, np.ones(3))

    def test_with_theta_shares_factorization(self):
        spec = certify(Network.from_edges([("a", "b")]), 0.25)
        other = spec.with_theta(np.array([2.0, 3.0]))
        assert other._factor is spec._factor
        assert other.b_unit is spec.b_unit
        assert not other.theta_is_ones() and spec.theta_is_ones()

    def test_direct_spec_construction_still_solves(self):
        # certify() is the normal entry; GameSpec itself stays usable
        net = Network.from_edges([("a", "b")])
        spec = GameSpec(net, np.ones(2), 0.25)
        np.testing.assert_allclose(spec.solve(np.ones(2)), [4.0 / 3.0, 4.0 / 3.0], atol=1e-12)


def _sparse_game(n, seed=0, frac=0.5):
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 6.0 / max(n, 1), 1)
    net = Network(tuple(str(i) for i in range(n)), (a | a.T).astype(float))
    lam = spectral_radius(net)
    return certify(net, frac / lam if lam > 0 else 0.5)


def _dpotri_inverse(spec):
    """M from a fresh dpotri on the factor, as influence() made it before M was held."""
    if spec.n == 0:
        return np.zeros((0, 0))
    low = dpotri(spec._factor[0], lower=True)[0]
    return np.where(np.tri(spec.n, dtype=bool), low, low.T)  # the lower triangle, mirrored


class TestHeldInverse:
    """influence() keeps M in the factor array's free triangle, bit for bit."""

    # Either side of the strip height used to pack M, and one size not a multiple of 8.
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 613])
    def test_every_call_is_a_fresh_dpotri(self, n):
        spec = _sparse_game(n, seed=n)
        want = _dpotri_inverse(spec)
        for _ in range(3):
            m = spec.influence()
            assert np.array_equal(m, want)
            assert m.flags.f_contiguous and m.flags.writeable
        # dpotri reads only L's triangle, so packing M leaves it unchanged.
        assert np.array_equal(_dpotri_inverse(spec), want)
        assert not spec._factor[0].flags.writeable

    @pytest.mark.parametrize("held_first", [False, True])
    def test_with_theta_shares_the_held_inverse(self, held_first):
        spec = _sparse_game(300, seed=3)
        want = _dpotri_inverse(spec)
        if held_first:
            spec.influence()
        other = spec.with_theta(np.linspace(0.5, 1.5, spec.n))
        assert np.array_equal(other.influence(), want)
        assert np.array_equal(spec.influence(), want)
        assert other._held is spec._held and len(spec._held) == 1

    def test_queries_read_the_same_bits_before_and_after(self):
        spec = _sparse_game(400, seed=4).with_theta(np.linspace(0.5, 1.5, 400))
        rhs = np.random.default_rng(4).random((400, 3))
        idx = [0, 17, 399]
        before = (spec.solve(rhs), spec.columns(idx), spec.b_unit.copy(), spec.b.copy(),
                  spec.self_loops.copy())
        spec.influence()
        after = (spec.solve(rhs), spec.columns(idx), spec.solve(np.ones(400)),
                 spec.solve(spec.theta), GameSpec.self_loops.func(spec))
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_a_returned_copy_is_the_callers(self):
        spec = _sparse_game(260, seed=5)
        want = _dpotri_inverse(spec)
        for _ in range(2):
            m = spec.influence()
            m[:] = np.nan
        assert np.array_equal(spec.influence(), want)

    # Members on the edges of the strips the held M is read in (0, 255, 256,
    # 511, 512, n - 1), alone and together, and kept runs across strips.
    @pytest.mark.parametrize(
        "n, members",
        [
            (300, [0]), (300, [299]), (300, [0, 1, 2, 150, 299]), (300, list(range(5, 285, 7))),
            (257, [0, 255, 256]), (257, [255]), (257, [256]),
            (613, [0, 255, 256, 511, 512, 612]), (613, [0, 612]), (613, [256, 511]),
            (613, [255, 512]),
        ],
        ids=[
            "members0", "members1", "members2", "members3", "257-edges", "257-255", "257-last",
            "613-edges", "613-ends", "613-256-511", "613-255-512",
        ],
    )
    def test_blocks_are_gathered_from_the_held_inverse(self, n, members):
        spec = _sparse_game(n, seed=6)
        rows = spec.influence_rows(members)  # made without an earlier influence() call
        want = _dpotri_inverse(spec)
        kept = [i for i in range(n) if i not in members]
        update = np.random.default_rng(len(members)).random((len(kept), len(kept)))
        want_less = want[np.ix_(kept, kept)] - update
        less = spec.influence_less(members, update)
        assert less is update
        assert np.array_equal(less, want_less)
        assert np.array_equal(rows, want[members, :])
        assert rows.flags.c_contiguous
        zeros = np.zeros((len(kept), len(kept)))
        assert np.array_equal(spec.influence_less(members, zeros), want[np.ix_(kept, kept)])
        # The residual reads M's columns from the held M with the same bits.
        g, columns = spec.network.sparse_adjacency, lambda lo, hi: want[:, lo:hi].copy()
        assert spec._held_residual() == _inverse_residual(g, spec.delta, columns)
        assert not spec._factor[0].flags.writeable


class TestDropNodes:
    """M without some nodes, gathered over the runs of kept nodes: no run,
    one run, runs at either end and runs of one node."""

    @pytest.mark.parametrize(
        "members", [[], [0], [9], [0, 1, 2], [4, 5], [0, 3, 4, 9], [1, 3, 5, 7], list(range(10))]
    )
    def test_equals_the_fancy_indexed_gather(self, members):
        spec = _sparse_game(10, seed=7, frac=0.9)
        kept = [i for i in range(10) if i not in members]
        out = spec.influence_less(members, np.zeros((len(kept), len(kept))))
        assert np.array_equal(out, _dpotri_inverse(spec)[np.ix_(kept, kept)])


class TestNodeSet:
    def test_of_dedupes_and_sorts(self):
        s = NodeSet.of([3, 1, 3, 2])
        assert s.members == (1, 2, 3)
        assert len(s) == 3

    def test_bounds_check(self):
        with pytest.raises(InputError):
            NodeSet.of([0, 5], n=5)

    def test_raw_constructor_requires_sorted(self):
        with pytest.raises(InputError):
            NodeSet((2, 1))
        with pytest.raises(InputError):
            NodeSet((-1,))

    def test_complement_and_labels(self):
        net = Network.from_edges([("a", "b"), ("b", "c")])
        s = NodeSet.of_labels(net, ["c", "a"])
        assert s.members == (0, 2)
        assert s.complement(3).members == (1,)
        assert s.labels(net) == ("a", "c")
        # The loop over range(n) it replaced: members at or past n are ignored.
        for members, n in (((), 0), ((), 4), ((0, 1, 2), 3), ((1, 5), 3), ((0, 7), 9)):
            got = NodeSet(members).complement(n)
            assert got == NodeSet(tuple(i for i in range(n) if i not in members))
            assert all(type(i) is int for i in got.members)

    def test_embed(self):
        out = embed(np.array([5.0, 6.0]), NodeSet.of([1, 3]), 4)
        np.testing.assert_array_equal(out, [0.0, 5.0, 0.0, 6.0])


@st.composite
def small_networks(draw, max_nodes=9):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = np.zeros((n, n))
    for (i, j), keep in zip(pairs, bits):
        if keep:
            a[i, j] = a[j, i] = 1.0
    return Network(tuple(str(i + 1) for i in range(n)), a)


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_serialize_round_trips(net):
    assert parse_edge_list(serialize(net)) == net


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_spectral_radius_agrees_with_eigensolver(net):
    assert spectral_radius(net) == pytest.approx(eig_lambda_max(net), abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(small_networks(max_nodes=12))
def test_certify_is_exact_at_one_part_per_million(net):
    lam = eig_lambda_max(net)
    assume(lam > 0)
    certify(net, 0.999999 / lam)
    with pytest.raises(SpectralConditionError):
        certify(net, 1.000001 / lam)


def loop_from_edges(edges, isolated=()):
    """Network.from_edges as one Python step per edge: (labels, adjacency)."""
    names = set(isolated)
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop on node {u!r}")
        names.add(u)
        names.add(v)
    labels = tuple(sorted(names, key=label_key))
    index = {lab: i for i, lab in enumerate(labels)}
    a = np.zeros((len(labels), len(labels)))
    for u, v in edges:
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    return labels, a


LABELS = st.sampled_from(["1", "2", "3", "10", "07", "a", "b", "ab"])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(LABELS, LABELS), max_size=25),
    st.lists(LABELS, max_size=4),
)
def test_from_edges_matches_the_loop(edges, isolated):
    try:
        labels, a = loop_from_edges(edges, isolated)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            Network.from_edges(edges, isolated)
        assert str(got.value) == str(exc)
        return
    net = Network.from_edges(iter(edges), isolated)
    assert net.labels == labels
    assert net.adjacency.dtype == a.dtype and np.array_equal(net.adjacency, a)


@pytest.mark.parametrize(
    "edges", [[("a",), ("b", "c", "d")], [("a", "b"), ("c",)], [("a", "b", "c", "d")]]
)
def test_from_edges_refuses_anything_but_pairs(edges):
    with pytest.raises(InputError, match=r"^edges must be \(label, label\) pairs$"):
        Network.from_edges(edges)


def test_from_edges_equals_the_validated_network():
    # from_edges skips the n x n checks; its networks must pass them all.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        names = [str(k) for k in rng.permutation(n) + 1] + ["a", "b10", "b2"][: rng.integers(0, 4)]
        ends = rng.choice(names, size=(int(rng.integers(0, 60)), 2)).tolist()
        edges = [(u, v) for u, v in ends if u != v]
        net = Network.from_edges(edges, isolated=names)
        labels, a = loop_from_edges(edges, names)
        assert net == Network(labels, a)
        assert net.adjacency.dtype == np.float64 and not net.adjacency.flags.writeable
        assert parse_edge_list(serialize(net)) == Network(labels, a)


def parse_edge_list_by_line(text):
    """parse_edge_list as one Python step per line: (labels, adjacency)."""
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            isolated.append(parts[0])
        elif len(parts) == 2:
            u, v = parts
            if u == v:
                raise GraphFormatError(f"self-loop on node {u!r}", lineno)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"expected 'u v', got {raw.strip()!r}", lineno)
    if not edges and not isolated:
        raise InputError("empty edge list")
    return loop_from_edges(edges, isolated)


# Every break str.splitlines honours, and whitespace str.split drops.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
SPACES = [" ", "\t", "  ", " \t", "\u3000", "\x1f"]


@st.composite
def edge_list_lines(draw):
    """One line: blank, a comment, or 1-3 labels with spacing and maybe a comment."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "node", "blank", "comment", "wide"]))
    width = {"edge": 2, "node": 1, "wide": 3, "blank": 0, "comment": 0}[kind]
    if kind == "wide":
        width = draw(st.integers(3, 4))
    line = draw(st.sampled_from(SPACES + [""]))
    for _ in range(width):
        line += draw(LABELS) + draw(st.sampled_from(SPACES))
    if kind == "comment" or draw(st.booleans()):
        line += "#" + draw(st.sampled_from(["", " a b", "# 1 1", "x y z"]))
    return line


@settings(max_examples=300, deadline=None)
@given(
    st.lists(edge_list_lines(), max_size=14),
    st.lists(st.sampled_from(LINE_BREAKS), min_size=14, max_size=14),
    st.booleans(),
)
def test_parse_edge_list_matches_the_line_loop(lines, breaks, trailing):
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if not trailing and lines:
        text = text[: -len(breaks[len(lines) - 1])]
    try:
        labels, a = parse_edge_list_by_line(text)
    except InputError as exc:
        with pytest.raises(type(exc)) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "line", None) == getattr(exc, "line", None)
        return
    net = parse_edge_list(text)
    assert net == Network(labels, a)
    assert not net.adjacency.flags.writeable


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n2 2\n1 2 3\n", "line 2: self-loop on node '2'"),
        ("1 2\n1 2 3\n2 2\n", "line 2: expected 'u v', got '1 2 3'"),
        ("# a a\n\n\ta a\t# b\n", "line 3: self-loop on node 'a'"),
        ("1 2\r\n\x0b 3 4 5 \u2028 6 6", "line 3: expected 'u v', got '3 4 5'"),
        pytest.param(
            "1 2\n" + "7" * 5000 + " 1 2\n",
            "line 2: expected 'u v', got '" + "7" * 5000 + " 1 2'",
            id="label-longer-than-int-reads",
        ),
    ],
)
def test_the_first_bad_line_is_reported(text, message):
    with pytest.raises(GraphFormatError) as got:
        parse_edge_list(text)
    assert str(got.value) == message
    with pytest.raises(GraphFormatError) as want:
        parse_edge_list_by_line(text)
    assert str(want.value) == message
