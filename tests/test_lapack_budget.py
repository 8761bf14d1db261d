"""The n x n LAPACK calls a whole CLI run makes, counted through cli.run.

scipy's eigh and cho_factor, and LAPACK's dpotri and dtrtri, are wrapped
where netsurgeon calls them, on a 300-node ER game (mean degree 6) and the
420-node path. Answered queries keep to one factorization per game and at
most one triangular inverse, apart from the marked cells. A refusal words
lambda_max from the links' enclosure, so it makes no dense eigensolve
unless the enclosure cannot settle the text (the slow-gap path); congestion
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
from netsurgeon import cli, extensions, graphs

from .oracle import serialize
from .test_refusal_enclosure import build, eig_lambda_max


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
    and dtrtri once either has run."""
    counts = {"eigh": 0, "cho_factor": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    for name in list(counts):
        for module in (graphs, extensions):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in ("dpotri", "dtrtri"):
        monkeypatch.setattr(graphs, name, counted(name, getattr(graphs, name)))
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


def test_congestion_with_complex_roots_factors_once(er300, lapack):
    net, path = er300
    delta = 0.5 / eig_lambda_max(net)  # delta^2 < 4 gamma
    code, err = run(["extension", "--model", "congestion", "--graph", path,
                     "--delta", repr(delta), "--gamma", "0.01"])
    assert (code, err) == (0, "")
    assert lapack == {"eigh": 0, "cho_factor": 1}


def test_the_slow_gap_path_falls_back_to_one_eigensolve(path420, lapack):
    net, path = path420
    code, err = run(["centrality", "--graph", path, "--delta", repr(1.000001 / eig_lambda_max(net))])
    assert code == 1 and err.startswith("error: spectral condition violated")
    assert lapack == {"eigh": 1, "cho_factor": 1}


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
# held M, dtrtri for self-loops); multi-activity one factorization per game.
# Cells past that budget carry the ROADMAP item that will lower them.
ANSWERED = [
    ("centrality", ["centrality"], {"cho_factor": 1, "dtrtri": 1}),
    ("greedy", ["key-group", "--k", "2", "--mode", "greedy"], {"cho_factor": 1, "dtrtri": 1}),
    ("remove", ["intervene", "--remove", "EDGE"], {"cho_factor": 1}),
    ("add", ["intervene", "--add", "ABSENT"], {"cho_factor": 1}),
    ("pair", ["link-value", "--pair", "ABSENT"], {"cho_factor": 1}),
    ("from-to", ["walks", "--from", "0", "--to", "1"], {"cho_factor": 1}),
    ("exhaustive", ["key-group", "--k", "2"], {"cho_factor": 1, "dpotri": 1}),
    ("exclude", ["walks", "--exclude", "0,1"], {"cho_factor": 1, "dpotri": 1}),
    ("all-existing", ["link-value", "--all-existing"], {"cho_factor": 1, "dpotri": 1}),
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
    if "--delta" not in argv:
        argv += ["--delta", repr(0.5 / eig_lambda_max(net))]
    code, err = run(argv + ["--graph", path])
    assert (code, err) == (0, "")
    assert {name: count for name, count in lapack.items() if count} == want
