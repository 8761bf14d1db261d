"""Seeded inputs for the benchmark's three workloads.

Every generator draws from one numpy Generator built from the run's seed, so
one seed gives the same input files and argument lists every time. The
sizes, the operation mix and the delta fractions are fixed per workload;
the seed only picks edges, nodes and characteristics. That keeps the cost
of a round independent of the seed, so runs with different seeds measure
the same amount of work.

netsurgeon sees only what is written here: edge-list files, theta files and
argument lists. Each workload returns a plan, a JSON-ready dict holding the
operations of one round, and the generated graphs, which stay in the
benchmark's own process for the independent checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("what-if", "search", "fresh-games")

# Fractions of the true bound 1/lambda_max (eigvalsh) at which fresh-games
# poses each game. 1.000001 must be rejected with exit 1.
ANSWERED = (0.5, 0.9, 0.999999)
PAST_BOUND = 1.000001

# The congestion split check divides by a root gap that closes as delta
# nears its bound, so at 0.999999 it fails on every instance; that fraction
# is left out for the congestion model (see CHANGES.md).
CONGESTION_FRACTIONS = (0.5, 0.9, PAST_BOUND)

MULTI_BETA = 0.3
GLOBAL_PHI = 0.2
CONGESTION_GAMMA = 0.01

# Nodes of the fixed path posed just past its bound for every model. Power
# iteration reads its lambda_max about 1.2e-6 low, so the certificate
# accepts it and the solve exits 2 (see README.md). The path and its labels
# do not depend on the seed, so every run fails the same operations.
FAULT_PATH_N = 420


@dataclass
class Graph:
    """A generated graph; adj rows and columns follow `labels`."""

    labels: list
    adj: np.ndarray
    eigenvalues: np.ndarray

    @property
    def lam(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def n(self) -> int:
        return len(self.labels)


def make_graph(adj: np.ndarray, prefix: str = "") -> Graph:
    adj = adj.astype(float)
    labels = [f"{prefix}{i}" for i in range(adj.shape[0])]
    return Graph(labels, adj, np.linalg.eigvalsh(adj))


def erdos_renyi(rng, n: int, mean_degree: float = 6.0) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < mean_degree / (n - 1), 1)
    return upper | upper.T


def core_periphery(rng, n: int) -> np.ndarray:
    """A dense core of n/10 nodes, a sparse periphery hung off it, and two
    adjacent hubs (nodes 0 and 1) reaching 40% and 20% of the periphery."""
    core = n // 10
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
    return a


def circulant(n: int, degree: int) -> np.ndarray:
    """Ring where each node links to its degree/2 nearest on each side."""
    a = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    for step in range(1, degree // 2 + 1):
        a[idx, (idx + step) % n] = True
    return a | a.T


def path(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    a[np.arange(n - 1), np.arange(1, n)] = True
    return a | a.T


def edge_list_text(g: Graph) -> str:
    rows, cols = np.nonzero(np.triu(g.adj, 1))
    lines = [f"{g.labels[i]} {g.labels[j]}" for i, j in zip(rows, cols)]
    touched = set(rows) | set(cols)
    lines += [lab for i, lab in enumerate(g.labels) if i not in touched]
    return "\n".join(lines) + "\n"


class Inputs:
    """Writes generated graphs and theta files into one work directory."""

    def __init__(self, root: str):
        self.root = root
        self.graphs: dict[str, Graph] = {}
        self.thetas: dict[str, np.ndarray] = {}
        os.makedirs(root, exist_ok=True)

    def graph(self, name: str, g: Graph) -> str:
        path_ = os.path.join(self.root, f"{name}.txt")
        with open(path_, "w", encoding="utf-8") as fh:
            fh.write(edge_list_text(g))
        self.graphs[name] = g
        return path_

    def theta(self, name: str, g: Graph, values: np.ndarray) -> str:
        path_ = os.path.join(self.root, f"{name}.theta")
        with open(path_, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{lab} {v!r}\n" for lab, v in zip(g.labels, values.tolist())))
        self.thetas[name] = values
        return path_


def interleaved(ops: list) -> list:
    """ops in a fixed shuffled order, so that no kind runs as one block.

    The order does not depend on the seed: the sequence of allocations, and
    with it the process's peak memory, then differs between seeds only by
    the inputs themselves.
    """
    return [ops[k] for k in np.random.default_rng(len(ops)).permutation(len(ops))]


def _nodes(rng, n: int, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def _absent_pair(rng, adj) -> tuple[int, int]:
    n = adj.shape[0]
    while True:
        i, j = _nodes(rng, n, 2)
        if not adj[i, j]:
            return i, j


def _present_edge(rng, adj) -> tuple[int, int]:
    rows, cols = np.nonzero(np.triu(adj, 1))
    k = int(rng.integers(rows.size))
    return int(rows[k]), int(cols[k])


# --------------------------------------------------------------------------
# what-if: single queries against four shared certified games.

# (family, n, delta as a fraction of 1/lambda_max, unit theta)
WHAT_IF_GAMES = (
    ("er", 800, 0.5, True),
    ("er", 1200, 0.55, True),
    ("cp", 1000, 0.5, True),
    ("cp", 1400, 0.45, False),
)

# Operation kinds and the games each is issued against, one operation per
# entry, in four cost tiers (measured on a 2-vCPU x86 virtual machine):
#   21 cheap queries (2-17 ms),
#   14 interventions on the two smaller games (30-45 ms),
#   13 interventions on the two larger games and small avoidance blocks
#      (50-100 ms),
#    9 walk queries of 140-150 ms, then 3 larger walk matrices (0.2-0.6 s).
# The median falls in the middle of the second tier and the 90th percentile
# in the middle of the fourth, each several operations away from a tier
# boundary, so neither moves when a seed reorders neighbouring operations.
WHAT_IF_MIX = (
    ("characteristic", (0, 1, 2, 3, 0, 1, 2, 3)),
    ("intercentrality", (0, 1, 2, 3, 0, 1, 2, 0, 2, 3)),
    ("link_value_existing", (0, 1, 2)),
    ("structural", (0, 2, 0, 2, 0, 2, 0)),
    ("hybrid", (0, 2, 0)),
    ("link_value_potential", (0, 2, 0, 2)),
    ("structural", (1, 3, 1, 3, 1, 3, 1)),
    ("hybrid", (1, 3)),
    ("link_value_potential", (1, 1)),
    ("avoidance_block", (0, 2)),
    ("walk_matrix", (0, 0, 0, 0, 0)),
    ("avoidance_block", (1, 1, 1, 1)),
    ("walk_matrix", (2, 1, 3)),
)

# Post-intervention games must stay this far inside the spectral bound.
WHAT_IF_HEADROOM = 0.95


def _link_changes(rng, g: Graph, delta: float, count: int) -> tuple[list, list]:
    """1..count random link changes whose post game provably certifies.

    Weyl's inequality bounds lambda_max(G + C) by lambda_max(G) + ||C||_2;
    draws that could leave delta * lambda_max above the headroom are redrawn.
    """
    while True:
        add, remove = [], []
        touched = set()
        for _ in range(count):
            if rng.random() < 0.5:
                i, j = _absent_pair(rng, g.adj)
                target = add
            else:
                i, j = _present_edge(rng, g.adj)
                target = remove
            if (i, j) in touched:
                continue
            touched.add((i, j))
            target.append((i, j))
        nodes = sorted({v for e in add + remove for v in e})
        pos = {v: k for k, v in enumerate(nodes)}
        c = np.zeros((len(nodes), len(nodes)))
        for sign, pairs in ((1.0, add), (-1.0, remove)):
            for i, j in pairs:
                c[pos[i], pos[j]] = c[pos[j], pos[i]] = sign
        if delta * (g.lam + np.linalg.norm(c, 2)) < WHAT_IF_HEADROOM:
            return add, remove


def _dtheta(rng, n: int, count: int) -> dict:
    nodes = _nodes(rng, n, count)
    return {str(i): float(rng.uniform(-0.5, 0.5)) for i in nodes}


def what_if(rng, inputs: Inputs) -> dict:
    games = []
    for gid, (family, n, fraction, unit) in enumerate(WHAT_IF_GAMES):
        adj = erdos_renyi(rng, n) if family == "er" else core_periphery(rng, n)
        g = make_graph(adj)
        theta = None if unit else rng.uniform(0.5, 1.5, size=n)
        games.append(
            {
                "file": inputs.graph(f"game{gid}", g),
                "name": f"game{gid}",
                "delta": fraction / g.lam,
                "theta": None if theta is None else theta.tolist(),
            }
        )
    ops = []
    for kind, game_ids in WHAT_IF_MIX:
        for t, gid in enumerate(game_ids):
            if kind.startswith("link_value") and not WHAT_IF_GAMES[gid][3]:
                raise ValueError("link values are defined for unit theta only")
            g = inputs.graphs[f"game{gid}"]
            delta = games[gid]["delta"]
            op = {"kind": kind, "game": gid}
            if kind == "characteristic":
                op["dtheta"] = _dtheta(rng, g.n, 1 + t % 3)
            elif kind == "intercentrality":
                op["group"] = _nodes(rng, g.n, 1 + t % 3)
            elif kind == "link_value_existing":
                op["pair"] = _present_edge(rng, g.adj)
            elif kind == "link_value_potential":
                op["pair"] = _absent_pair(rng, g.adj)
            elif kind == "structural":
                op["add"], op["remove"] = _link_changes(rng, g, delta, 1 + t % 3)
            elif kind == "hybrid":
                op["add"], op["remove"] = _link_changes(rng, g, delta, 1 + t % 2)
                op["dtheta"] = _dtheta(rng, g.n, 1 + t % 2)
            elif kind == "walk_matrix":
                op["excluded"] = _nodes(rng, g.n, 1 + t % 3)
            elif kind == "avoidance_block":
                nodes = _nodes(rng, g.n, 2 + t % 3)
                split = min(1 + t % 2, len(nodes) - 1)
                op["a"], op["b"] = nodes[:split], nodes[split:]
            ops.append(op)
    ops = interleaved(ops)
    warmup = [next(k for k, op in enumerate(ops) if op["game"] == gid) for gid in range(len(games))]
    warmup += [next(k for k, op in enumerate(ops) if op["kind"] == kind) for kind, _ in WHAT_IF_MIX]
    return {"workload": "what-if", "games": games, "ops": ops, "warmup": sorted(set(warmup))}


# --------------------------------------------------------------------------
# search: whole-network searches through cli.run, JSON output.

# Sizes, one operation per entry. Measured on a 2-vCPU x86 virtual machine
# they form a round of 30 searches: 10 under 60 ms, 10 of 80-105 ms, 4 of
# 120-140 ms, 5 of 200-240 ms and one of about 0.5 s, so the median and the
# 90th percentile each fall inside a group of searches of similar cost.
SEARCH_EXHAUSTIVE_N = (50, 70, 70, 90, 90, 110, 110, 160)
SEARCH_GREEDY = ((200, 4), (300, 5), (400, 6), (450, 6), (500, 8))
# (first family, n1, second family, n2): ER frontiers are small, regular
# graphs put every node on the frontier.
SEARCH_BRIDGES = (
    ("er", 240, "regular", 60),
    ("er", 200, "er", 200),
    ("er", 300, "er", 300),
    ("er", 500, "er", 500),
    ("regular", 60, "regular", 60),
    ("regular", 60, "regular", 60),
    ("regular", 90, "regular", 90),
    ("regular", 90, "regular", 90),
)
SEARCH_POTENTIAL_N = (18, 24, 24, 30)
SEARCH_EXISTING_N = (60, 80, 100, 150, 150)


def _cli(argv: list, check: dict, expect: int = 0) -> dict:
    return {"kind": "cli", "argv": argv, "expect": expect, "check": check}


def search(rng, inputs: Inputs) -> dict:
    ops = []
    for t, n in enumerate(SEARCH_EXHAUSTIVE_N):
        g = make_graph(erdos_renyi(rng, n))
        name = f"exhaustive{t}"
        delta = 0.5 / g.lam
        argv = ["key-group", "--graph", inputs.graph(name, g), "--delta", repr(delta),
                "--k", "2", "--mode", "exhaustive", "--top", "3"]
        ops.append(_cli(argv, {"type": "exhaustive", "graph": name, "delta": delta, "k": 2}))
    for t, (n, k) in enumerate(SEARCH_GREEDY):
        g = make_graph(erdos_renyi(rng, n))
        name = f"greedy{t}"
        delta = 0.5 / g.lam
        argv = ["key-group", "--graph", inputs.graph(name, g), "--delta", repr(delta),
                "--k", str(k), "--mode", "greedy"]
        ops.append(_cli(argv, {"type": "greedy", "graph": name, "delta": delta, "k": k}))
    for t, (fam1, n1, fam2, n2) in enumerate(SEARCH_BRIDGES):
        parts = []
        for side, fam, n in (("a", fam1, n1), ("b", fam2, n2)):
            adj = erdos_renyi(rng, n) if fam == "er" else _relabeled_circulant(rng, n)
            parts.append(make_graph(adj, prefix=side))
        delta = 0.5 / max(parts[0].lam, parts[1].lam)
        names = [f"bridge{t}{side}" for side in "ab"]
        argv = ["key-bridge", "--graph1", inputs.graph(names[0], parts[0]),
                "--graph2", inputs.graph(names[1], parts[1]), "--delta", repr(delta)]
        ops.append(_cli(argv, {"type": "bridge", "graphs": names, "delta": delta}))
    for mode, sizes in (("potential", SEARCH_POTENTIAL_N), ("existing", SEARCH_EXISTING_N)):
        for t, n in enumerate(sizes):
            g = make_graph(erdos_renyi(rng, n))
            name = f"{mode}{t}"
            # Adding one link raises lambda_max by at most 1 (Weyl), so every
            # potential link keeps the game certified.
            delta = 0.5 / (g.lam + 1.0)
            argv = ["link-value", "--graph", inputs.graph(name, g), "--delta", repr(delta),
                    f"--all-{mode}"]
            ops.append(_cli(argv, {"type": "link_values", "mode": mode, "graph": name,
                                   "delta": delta}))
    ops = interleaved(ops)
    warmup = sorted({next(k for k, op in enumerate(ops) if op["check"]["type"] == kind)
                     for kind in ("exhaustive", "greedy", "bridge", "link_values")})
    return {"workload": "search", "games": [], "ops": ops, "warmup": warmup}


def _relabeled_circulant(rng, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    a = circulant(n, 6)
    return a[np.ix_(perm, perm)]


# --------------------------------------------------------------------------
# fresh-games: every operation is a new game, through cli.run.

FRESH_ER = (
    ("centrality", ANSWERED + (PAST_BOUND,), (200, 400, 600)),
    ("multi", ANSWERED + (PAST_BOUND,), (300, 500)),
    ("global", ANSWERED + (PAST_BOUND,), (250, 450)),
    ("congestion", CONGESTION_FRACTIONS, (150, 350, 550)),
)

# (model, fraction, n) on seeded relabelings of paths, where power
# iteration needs thousands of steps.
FRESH_PATHS = (
    ("centrality", 0.5, 340),
    ("centrality", 0.9, 350),
    ("centrality", 0.999999, 360),
    ("multi", 0.999999, 370),
    ("global", 0.5, 380),
    ("congestion", 0.9, 390),
)

# The fixed path FAULT_PATH_N just past its bound, for every model.
FRESH_FAULT_MODELS = ("centrality", "multi", "global", "congestion")


def true_bound(model: str, g: Graph) -> float:
    """Largest delta keeping the model's game system positive definite,
    from the full eigendecomposition of the adjacency matrix."""
    lam = g.lam
    if model == "centrality":
        return 1.0 / lam
    if model == "multi":
        return (1.0 - abs(MULTI_BETA)) / lam
    if model == "global":
        return (1.0 - GLOBAL_PHI) / lam
    # I - delta*mu + gamma*mu^2 > 0 for every eigenvalue mu > 0.
    mu = g.eigenvalues[g.eigenvalues > 0]
    return float(np.min(1.0 / mu + CONGESTION_GAMMA * mu))


def _fresh_op(inputs: Inputs, rng, name: str, g: Graph, model: str, fraction: float,
              seeded_theta: bool) -> dict:
    delta = fraction * true_bound(model, g)
    graph_file = inputs.graph(name, g)
    check = {"type": model, "graph": name, "delta": delta, "fraction": fraction,
             "theta": None, "theta_b": None}
    if model == "centrality":
        argv = ["centrality", "--graph", graph_file, "--delta", repr(delta)]
    else:
        argv = ["extension", "--model", model, "--graph", graph_file, "--delta", repr(delta)]
        argv += {"multi": ["--beta", repr(MULTI_BETA)], "global": ["--phi", repr(GLOBAL_PHI)],
                 "congestion": ["--gamma", repr(CONGESTION_GAMMA)]}[model]
    if seeded_theta and model != "global":
        check["theta"] = f"{name}-a"
        argv += ["--theta", inputs.theta(check["theta"], g, rng.uniform(0.5, 1.5, size=g.n))]
        if model == "multi":
            check["theta_b"] = f"{name}-b"
            argv += ["--theta-b",
                     inputs.theta(check["theta_b"], g, rng.uniform(0.5, 1.5, size=g.n))]
    return _cli(argv, check, expect=1 if fraction > 1 else 0)


def fresh_games(rng, inputs: Inputs) -> dict:
    ops = []
    for model, fractions, sizes in FRESH_ER:
        for t, (fraction, n) in enumerate((f, n) for f in fractions for n in sizes):
            g = make_graph(erdos_renyi(rng, n))
            ops.append(_fresh_op(inputs, rng, f"{model}-er{t}", g, model, fraction, t % 2 == 0))
    for t, (model, fraction, n) in enumerate(FRESH_PATHS):
        perm = rng.permutation(n)
        g = make_graph(path(n)[np.ix_(perm, perm)])
        ops.append(_fresh_op(inputs, rng, f"{model}-path{t}", g, model, fraction, True))
    fault = make_graph(path(FAULT_PATH_N))
    for model in FRESH_FAULT_MODELS:
        op = _fresh_op(inputs, rng, f"{model}-fault", fault, model, PAST_BOUND, False)
        op["check"]["fault_eligible"] = True
        ops.append(op)
    ops = interleaved(ops)
    warmup = sorted({next(k for k, op in enumerate(ops) if op["check"]["type"] == model)
                     for model in ("centrality", "multi", "global", "congestion")})
    return {"workload": "fresh-games", "games": [], "ops": ops, "warmup": warmup}


def build(workload: str, seed: int, root: str) -> tuple[dict, Inputs]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = Inputs(root)
    plan = {"what-if": what_if, "search": search, "fresh-games": fresh_games}[workload](rng, inputs)
    return plan, inputs
