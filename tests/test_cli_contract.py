"""The CLI contract as one property, run in process through cli.run.

Every subcommand and output format runs on small graphs of six families
(Erdos-Renyi, path, star, circulant, two components, an isolated node;
n 2-30), at 0.3, 0.999999, 1 - 2e-9 and 1.000001 of each model's bound and
at NaN and inf, with theta files scaled from 1 to 1e308. Whatever the input:

- exit 0 prints strict JSON (no NaN or Infinity) or RFC 4180 CSV holding no
  inf or nan, and nothing on stderr;
- exit 1 prints nothing on stdout and exactly one `error:` line;
- exit 2 happens only for walk queries near the bound, as one `internal
  check failed:` line;
- nothing raises: cli.run never ends in a traceback, and the suite's
  warning filters turn a warning into a failure.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsurgeon import Network, cli, reference

from .oracle import serialize

FAMILIES = ("er", "path", "star", "circulant", "two", "isolated")
FRACTIONS = (0.3, 0.999999, 1.0 - 2e-9, 1.000001, float("nan"), float("inf"))
THETA_SCALES = (1.0, 1e150, 3e307, 1e308)
NON_FINITE = {"inf", "-inf", "+inf", "nan", "infinity", "-infinity"}


def network(family: str, n: int, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=bool)
    if family in ("er", "isolated"):
        m = n - 1 if family == "isolated" else n
        a[:m, :m] = np.triu(rng.random((m, m)) < min(1.0, 4.0 / max(m - 1, 1)), 1)
    elif family == "path":
        a[np.arange(n - 1), np.arange(1, n)] = True
    elif family == "star":
        a[0, 1:] = True
    elif family == "circulant":
        for step in range(1, max(1, n // 4) + 1):
            a[np.arange(n), (np.arange(n) + step) % n] = True
        np.fill_diagonal(a, False)
    else:  # two components, each a path
        half = n // 2
        a[np.arange(half - 1), np.arange(1, half)] = True
        a[np.arange(half, n - 1), np.arange(half + 1, n)] = True
    a = a | a.T
    return Network(tuple(str(i) for i in range(n)), a.astype(float))


def bounds(net: Network, beta: float, gamma: float, phi: float) -> dict:
    """Each model's bound on delta, from the dense eigenvalues (a finite
    stand-in for an edgeless graph, which has none)."""
    mu = np.linalg.eigvalsh(net.adjacency)
    lam = float(mu[-1])
    if lam <= 1e-12:
        return dict.fromkeys(("plain", "multi", "global", "congestion", "bridge"), 1.0)
    top = mu[mu > 1e-12]
    return {
        "plain": 1.0 / lam,
        "multi": (1.0 - abs(beta)) / lam,
        "global": (1.0 - phi) / lam,
        "congestion": float(np.min(1.0 / top + gamma * top)),
        "bridge": 1.0 / max(lam, np.sqrt(2.0)),  # joined to the 3-node path
    }


def commands(net: Network, files: dict, fraction: float, params: dict, theta: str) -> list:
    """One command line for every subcommand and format."""
    n = net.n
    limits = bounds(net, params["beta"], params["gamma"], params["phi"])

    def game(model="plain", graph=True):
        delta = fraction * limits[model]
        return (["--graph", files["graph"]] if graph else []) + ["--delta", repr(float(delta))]

    rows, cols = net.links
    edge = f"{rows[0]},{cols[0]}" if len(rows) else "0,1"
    absent = next(
        (f"{i},{j}" for i in range(n) for j in range(i + 1, n) if not net.has_link(i, j)), "0,1"
    )
    theta_flags = ["--theta", theta]
    plain = [
        ["centrality", *game(), *theta_flags],
        ["centrality", *game(), *theta_flags, "--format", "csv"],
        ["intervene", *game(), *theta_flags, "--add", absent],
        ["intervene", *game(), *theta_flags, "--remove", edge, "--dtheta", "0=0.5",
         "--format", "csv"],
        ["key-group", *game(), *theta_flags, "--k", "2", "--top", "3"],
        ["key-group", *game(), *theta_flags, "--k", "2", "--format", "csv"],
        ["key-group", *game(), *theta_flags, "--k", "2", "--mode", "greedy"],
        ["link-value", *game(), "--pair", edge],
        ["link-value", *game(), "--all-potential", "--format", "csv"],
        ["link-value", *game(), "--all-existing"],
        ["walks", *game(), "--exclude", "0"],
        ["walks", *game(), "--from", "0", "--to", str(n - 1)],
    ]
    bridge = ["key-bridge", "--graph1", files["graph"], "--graph2", files["path3"],
              *game("bridge", graph=False)]
    return plain + [
        bridge,
        bridge + ["--format", "csv"],
        ["extension", "--model", "multi", *game("multi"), *theta_flags,
         "--theta-b", theta, "--beta", repr(params["beta"])],
        ["extension", "--model", "congestion", *game("congestion"), *theta_flags,
         "--gamma", repr(params["gamma"])],
        ["extension", "--model", "global", *game("global"), "--phi", repr(params["phi"])],
        ["reproduce", "--table", str(params["table"]), "--format", "json"],
    ]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_contract(argv: list, fraction: float) -> None:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    stdout, stderr = out.getvalue(), err.getvalue()
    if code == 0:
        assert stderr == "", (argv, stderr)
        if "csv" in argv:
            assert stdout.endswith("\r\n"), argv
            rows = list(csv.reader(io.StringIO(stdout, newline="")))
            assert all(len(row) == len(rows[0]) for row in rows), argv
            cells = {cell.strip().lower() for row in rows for cell in row}
            assert not cells & NON_FINITE, (argv, cells & NON_FINITE)
        else:
            assert stdout.endswith("\n"), argv
            json.loads(stdout, parse_constant=_refuse_constant)
        return
    assert stdout == "", (argv, code)
    assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
    if code == 1:
        assert stderr.startswith("error: "), (argv, stderr)
        return
    # Walk checks refuse near the bound (ROADMAP item 8); nothing else may.
    assert code == 2 and argv[0] == "walks" and fraction >= 0.999, (argv, code, stderr)
    assert stderr.startswith("internal check failed: "), (argv, stderr)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    path3 = root / "path3.txt"
    path3.write_text("x y\ny z\n")
    return {"graph": str(root / "graph.txt"), "path3": str(path3),
            "theta": str(root / "theta.txt")}


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.sampled_from(FRACTIONS),
    scale=st.sampled_from(THETA_SCALES),
    params=st.fixed_dictionaries({
        "beta": st.sampled_from([0.3, -0.4, 0.999, -0.999, 0.0]),
        "gamma": st.sampled_from([0.0, 1e-4, 0.01, 0.1, 10.0, 1e300]),
        "phi": st.sampled_from([0.0, 0.2, 0.999]),
        "table": st.sampled_from(reference.TABLE_IDS),
    }),
)
def test_every_run_keeps_the_contract(workdir, family, n, seed, fraction, scale, params):
    files = workdir
    net = network(family, n, seed)
    with open(files["graph"], "w") as fh:
        fh.write(serialize(net))
    theta = "ones"
    if scale != 1.0:
        rng = np.random.default_rng(seed)
        values = scale * rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
        with open(files["theta"], "w") as fh:
            fh.write("".join(f"{lab} {v!r}\n" for lab, v in zip(net.labels, values)))
        theta = files["theta"]
    for argv in commands(net, files, fraction, params, theta):
        check_contract(argv, fraction)
