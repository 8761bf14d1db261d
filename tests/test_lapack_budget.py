"""The n x n LAPACK calls a whole CLI run makes, counted through cli.run.

scipy's eigh and cho_factor, LAPACK's dpotri and the blocked triangular
inverse behind self-loops are wrapped where netsurgeon calls them, on a
300-node ER game (mean degree 6) and the 420-node path. Answered queries keep
to one factorization per game and at most one triangular inverse, apart from
the marked cells. A refusal words lambda_max from the links' enclosure, so it
makes no dense eigensolve: on the slow-gap path, where Lanczos cannot close
the enclosure, one shift-invert factorization closes it instead; a key-bridge
refusal is worded without lambda_max and computes none. Congestion
with complex roots is certified by its quadratic, so its solve's factor is
its only one.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

import netsurgeon
from netsurgeon import Network, bridge, cli, extensions, graphs

from .oracle import serialize
from .test_refusal_enclosure import build, congestion_bound, eig_lambda_max


@pytest.fixture(scope="module")
def er300(tmp_path_factory):
    net = build("er", 300, 11)
    path = tmp_path_factory.mktemp("budget") / "er300.txt"
    path.write_text(serialize(net))
    return net, str(path)


@pytest.fixture(scope="module")
def path420(tmp_path_factory):
    net = build("path", 420, 0)
    path = tmp_path_factory.mktemp("budget") / "path420.txt"
    path.write_text(serialize(net))
    return net, str(path)


@pytest.fixture
def lapack(monkeypatch):
    """Counts of eigh and cho_factor calls, by name, and of graphs' dpotri
    and self-loops inverse ("trtri") once either has run. The inverse is
    counted at its entry point, once per game: its dtrtri leaves number
    about n / 128."""
    counts = {"eigh": 0, "cho_factor": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    for name in list(counts):
        for module in (graphs, extensions):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(graphs, "dpotri", counted("dpotri", graphs.dpotri))
    monkeypatch.setattr(graphs, "_inverse_diagonal", counted("trtri", graphs._inverse_diagonal))
    return counts


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, out=out, err=err), err.getvalue()


def absent_pair_past_bound(net) -> tuple[int, int, float]:
    """An absent link whose addition the game at the returned delta cannot
    take: delta sits midway between the two bounds."""
    a = net.adjacency
    lam = eig_lambda_max(net)
    top = np.argsort(-np.abs(np.linalg.eigh(a)[1][:, -1]))[:12].tolist()
    i, j = next((i, j) for i in top for j in top if i < j and not a[i, j])
    a = a.copy()
    a[i, j] = a[j, i] = 1.0
    grown = float(np.linalg.eigvalsh(a)[-1])
    return i, j, 0.5 * (1.0 / lam + 1.0 / grown)


@pytest.mark.parametrize("model", [
    ["centrality"],
    ["extension", "--model", "multi", "--beta", "0.3"],
    ["extension", "--model", "global", "--phi", "0.2"],
    ["key-group", "--k", "2"],
])
def test_a_refused_game_makes_no_eigensolve(er300, lapack, model):
    net, path = er300
    delta = 1.01 / eig_lambda_max(net)  # past every model's bound
    code, err = run(model + ["--graph", path, "--delta", repr(delta)])
    assert code == 1 and err.startswith("error: spectral condition violated")
    assert lapack == {"eigh": 0, "cho_factor": 1}


def test_a_refused_link_addition_makes_no_eigensolve(er300, lapack):
    net, path = er300
    i, j, delta = absent_pair_past_bound(net)
    code, err = run(["intervene", "--graph", path, "--delta", repr(delta),
                     "--add", f"{net.labels[i]},{net.labels[j]}"])
    assert code == 1 and err.startswith("error: spectral condition violated")
    # The game's factor and the changed network's.
    assert lapack == {"eigh": 0, "cho_factor": 2}


def test_a_refused_link_value_makes_no_eigensolve(er300, lapack):
    net, path = er300
    i, j, delta = absent_pair_past_bound(net)
    code, err = run(["link-value", "--graph", path, "--delta", repr(delta),
                     "--pair", f"{net.labels[i]},{net.labels[j]}"])
    assert code == 1 and err.startswith("error: spectral condition violated")
    # Known excess (item 12): the second factorization is certify_change's,
    # of the grown network, for a change the 2 x 2 test already fails.
    assert lapack == {"eigh": 0, "cho_factor": 2}


def test_a_refused_link_value_in_the_sliver_makes_no_eigensolve(er300, lapack):
    net, path = er300
    absent = next(j for j in range(1, net.n) if not net.has_link(0, j))
    delta = (1 - 2e-9) / eig_lambda_max(net)  # adding any link leaves the bound
    code, err = run(["link-value", "--graph", path, "--delta", repr(delta),
                     "--pair", f"{net.labels[0]},{net.labels[absent]}"])
    assert code == 1 and err.startswith("error: spectral condition violated")
    # The game's factor, its margin system's, and certify_change's failed
    # factor of the grown network; the refusal is worded from the enclosure.
    assert lapack == {"eigh": 0, "cho_factor": 3}


def test_an_answered_key_bridge_factors_each_component_once(er300, tmp_path, lapack):
    net, path = er300
    other = build("er", 200, 12)
    other = Network.from_edges([(f"b{u}", f"b{v}") for u, v in other.edges()],
                               [f"b{label}" for label in other.labels])
    other_path = tmp_path / "er200.txt"
    other_path.write_text(serialize(other))
    # Half of a bound every bridge keeps: one link raises lambda_max by at most 1.
    delta = 0.5 / (max(eig_lambda_max(net), eig_lambda_max(other)) + 1.0)
    code, err = run(["key-bridge", "--graph1", path, "--graph2", str(other_path),
                     "--delta", repr(delta)])
    assert (code, err) == (0, "")
    # Each component's factor and self-loops; no joined network is factored.
    assert {name: count for name, count in lapack.items() if count} == {
        "cho_factor": 2, "trtri": 2,
    }


def strongest_bridge(net1: Network, net2: Network) -> tuple[str, str]:
    """The bridge that raises lambda_max of the union most. Past both
    components' lambda_max, a bridge (i, j) puts lambda_max at the root of
    R1_ii(l) R2_jj(l) = 1, R(l) = (l I - G)^-1, each factor falling in l; the
    largest root pairs each component's largest diagonal at that root."""
    (m1, v1), (m2, v2) = (np.linalg.eigh(net.adjacency) for net in (net1, net2))
    w1, w2 = v1**2, v2**2
    lo = max(m1[-1], m2[-1])
    hi = lo + 2.0  # one link raises lambda_max by at most 1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        grows = (w1 @ (1 / (mid - m1))).max() * (w2 @ (1 / (mid - m2))).max() > 1
        lo, hi = (mid, hi) if grows else (lo, mid)
    i, j = np.argmax(w1 @ (1 / (hi - m1))), np.argmax(w2 @ (1 / (hi - m2)))
    return net1.labels[i], net2.labels[j]


def test_a_key_bridge_refused_in_the_sliver_words_no_lambda_max(tmp_path, lapack, monkeypatch):
    # Two sparse ER components; delta sits inside certify's margin on the
    # union joined by the strongest bridge, so every bridge passes the closed
    # form's 2 x 2 test and the strongest is refused by certify's own rule.
    net1 = build("sparse-er", 300, 11)
    net2 = build("sparse-er", 300, 12)
    net2 = Network.from_edges([(f"b{u}", f"b{v}") for u, v in net2.edges()],
                              [f"b{label}" for label in net2.labels])
    joined = bridge.joined_network(net1, net2, strongest_bridge(net1, net2))
    delta = (1 - 5e-10) / eig_lambda_max(joined)
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path, net in zip(paths, (net1, net2)):
        path.write_text(serialize(net))
    calls = {"_lambda_enclosure": 0, "spectral_radius": 0}
    for name in calls:
        def counted(*args, _fn=getattr(graphs, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(graphs, name, counted)
    code, err = run(["key-bridge", "--graph1", str(paths[0]), "--graph2", str(paths[1]),
                     "--delta", repr(delta)])
    assert (code, err) == (1, f"error: {bridge._UNCERTIFIED}\n")
    assert calls == {"_lambda_enclosure": 0, "spectral_radius": 0}
    # Each component's factor and self-loops; the union's factor and its margin system's.
    assert {name: count for name, count in lapack.items() if count} == {
        "cho_factor": 4, "trtri": 2,
    }


def test_all_potential_links_in_the_sliver_factor_each_refusal(tmp_path, lapack):
    # Known excess (item 12): in the sliver every absent link is refused, and
    # certify_change factors each grown network to word the refusal. On the
    # 300-node game that is 43,977 factorizations, so this cell has 30 nodes.
    net = build("er", 30, 11)
    path = tmp_path / "er30.txt"
    path.write_text(serialize(net))
    code, err = run(["link-value", "--all-potential", "--graph", str(path),
                     "--delta", repr((1 - 2e-9) / eig_lambda_max(net))])
    assert (code, err) == (0, "")
    # The game's factor, its margin system's, and one per refused link.
    assert {name: count for name, count in lapack.items() if count} == {
        "cho_factor": 2 + 342, "dpotri": 1,
    }


def test_congestion_with_complex_roots_factors_once(er300, lapack):
    net, path = er300
    delta = 0.5 / eig_lambda_max(net)  # delta^2 < 4 gamma
    code, err = run(["extension", "--model", "congestion", "--graph", path,
                     "--delta", repr(delta), "--gamma", "0.01"])
    assert (code, err) == (0, "")
    assert lapack == {"eigh": 0, "cho_factor": 1}


# Each model on the slow-gap path just past its own bound: (argv, bound
# over 1 / lambda_max(G) or, for congestion, the bound's gamma).
SLOW_GAP = {
    "centrality": (["centrality"], 1.0),
    "multi": (["extension", "--model", "multi", "--beta", "0.3"], 0.7),
    "global": (["extension", "--model", "global", "--phi", "0.2"], 0.8),
    "congestion": (["extension", "--model", "congestion", "--gamma", "0.01"], 0.01),
}


@pytest.mark.parametrize("model", list(SLOW_GAP))
def test_a_slow_gap_refusal_makes_no_eigensolve(path420, lapack, model):
    # Lanczos cannot close on the path; one shift-invert factorization does.
    net, path = path420
    argv, scale = SLOW_GAP[model]
    bound = congestion_bound(net, scale) if model == "congestion" else scale / eig_lambda_max(net)
    code, err = run(argv + ["--graph", path, "--delta", repr(1.000001 * bound)])
    want = "error: game system" if model == "congestion" else "error: spectral condition violated"
    assert code == 1 and err.startswith(want)
    # The game's factor (congestion: its shifted positive-definite test) and the shift-invert's.
    assert lapack == {"eigh": 0, "cho_factor": 2}


def test_a_refusal_leaves_scipy_sparse_unloaded(er300):
    net, path = er300
    src = os.path.dirname(os.path.dirname(netsurgeon.__file__))
    argv = ["centrality", "--graph", path, "--delta", repr(1.01 / eig_lambda_max(net))]
    probe = (
        "import io, sys; from netsurgeon import cli; "
        f"code = cli.run({argv!r}, out=io.StringIO(), err=io.StringIO()); "
        "print(code, 'scipy.sparse' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.split() == ["1", "False"], done.stderr


# The answered column of the budget table: ER n = 300 at delta =
# 0.5 / lambda_max(G) unless the row gives its own delta. A query may use one
# factorization of its game and at most one triangular inverse (dpotri for the
# held M, the blocked inverse of L for self-loops); multi-activity one
# factorization per game. Cells past that budget carry the ROADMAP item that
# will lower them.
ANSWERED = [
    ("centrality", ["centrality"], {"cho_factor": 1, "trtri": 1}),
    ("greedy", ["key-group", "--k", "2", "--mode", "greedy"], {"cho_factor": 1, "trtri": 1}),
    # In the sliver below the bound, certify factors the margin system too.
    ("centrality-sliver", ["centrality", "--delta", "SLIVER"], {"cho_factor": 2, "trtri": 1}),
    ("greedy-sliver", ["key-group", "--k", "2", "--mode", "greedy", "--delta", "SLIVER"],
     {"cho_factor": 2, "trtri": 1}),
    ("remove", ["intervene", "--remove", "EDGE"], {"cho_factor": 1}),
    ("add", ["intervene", "--add", "ABSENT"], {"cho_factor": 1}),
    ("pair", ["link-value", "--pair", "ABSENT"], {"cho_factor": 1}),
    ("pair-existing", ["link-value", "--pair", "EDGE"], {"cho_factor": 1}),
    ("pair-existing-sliver", ["link-value", "--pair", "EDGE", "--delta", "SLIVER"],
     {"cho_factor": 2}),
    ("from-to", ["walks", "--from", "0", "--to", "1"], {"cho_factor": 1}),
    ("exhaustive", ["key-group", "--k", "2"], {"cho_factor": 1, "dpotri": 1}),
    ("exhaustive-sliver", ["key-group", "--k", "2", "--delta", "SLIVER"],
     {"cho_factor": 2, "dpotri": 1}),
    ("exclude", ["walks", "--exclude", "0,1"], {"cho_factor": 1, "dpotri": 1}),
    ("all-existing", ["link-value", "--all-existing"], {"cho_factor": 1, "dpotri": 1}),
    ("all-potential", ["link-value", "--all-potential"], {"cho_factor": 1, "dpotri": 1}),
    ("global", ["extension", "--model", "global", "--phi", "0.2"], {"cho_factor": 1}),
    ("multi", ["extension", "--model", "multi", "--beta", "0.3"], {"cho_factor": 2}),
    ("multi-at-0", ["extension", "--model", "multi", "--beta", "0.3", "--delta", "0"],
     {"cho_factor": 1}),
    ("global-at-0", ["extension", "--model", "global", "--phi", "0.2", "--delta", "0"],
     {"cho_factor": 1}),
    ("congestion-complex", ["extension", "--model", "congestion", "--gamma", "0.01"],
     {"cho_factor": 1}),
    # Known excess (item 16): the shifted test, the solve's factor, and the
    # cross-check's two plain games.
    ("congestion-real", ["extension", "--model", "congestion", "--gamma", "1e-4"],
     {"cho_factor": 4}),
    # Just past the repeated root the chain cross-checks too (item 16, as above);
    # just before it the roots are complex and the quadratic certifies.
    ("congestion-root+", ["extension", "--model", "congestion", "--gamma", "1e-4",
                          "--delta", repr(0.02 * (1 + 1e-9))], {"cho_factor": 4}),
    ("congestion-root-", ["extension", "--model", "congestion", "--gamma", "1e-4",
                          "--delta", repr(0.02 * (1 - 1e-9))], {"cho_factor": 1}),
]


@pytest.mark.parametrize("argv, want", [case[1:] for case in ANSWERED],
                         ids=[case[0] for case in ANSWERED])
def test_an_answered_query_keeps_its_budget(er300, lapack, argv, want):
    net, path = er300
    edge = tuple(int(v[0]) for v in net.links)
    absent = next((0, j) for j in range(1, net.n) if not net.has_link(0, j))
    pairs = {"EDGE": edge, "ABSENT": absent}
    argv = [",".join(net.labels[i] for i in pairs[a]) if a in pairs else a for a in argv]
    argv = [repr((1 - 2e-9) / eig_lambda_max(net)) if a == "SLIVER" else a for a in argv]
    if "--delta" not in argv:
        argv += ["--delta", repr(0.5 / eig_lambda_max(net))]
    code, err = run(argv + ["--graph", path])
    assert (code, err) == (0, "")
    assert {name: count for name, count in lapack.items() if count} == want
