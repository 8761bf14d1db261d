"""Independent checks of netsurgeon's answers.

Every expected value here comes from dense numpy.linalg solves and inverses
of the generated matrices, never from netsurgeon's factorizations, solves or
closed-form update paths. Library answers carry full double precision and
are compared at LIBRARY_RTOL; CLI answers print 6 significant digits and
are compared at CLI_RTOL.

check(op, answer, ctx) returns "ok" or "failed" (the one named fault: a
path game just past its bound that exits 2 instead of 1) and raises
CheckError on any other disagreement.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import CONGESTION_GAMMA, GLOBAL_PHI, MULTI_BETA

LIBRARY_RTOL = 1e-8
CLI_RTOL = 1e-5
# Relative slack that keeps near-zero entries of a vector from demanding
# more digits than its largest entry has.
FLOOR = 1e-6
NEAR_TIE = 1e-9


class CheckError(Exception):
    pass


class Context:
    """The generated graphs and thetas, plus cached dense solves."""

    def __init__(self, plan: dict, inputs):
        self.plan = plan
        self.graphs = inputs.graphs
        self.thetas = inputs.thetas
        self._pre = {}

    def game(self, gid: int):
        g = self.graphs[f"game{gid}"]
        delta = self.plan["games"][gid]["delta"]
        theta = self.plan["games"][gid]["theta"]
        theta = np.ones(g.n) if theta is None else np.asarray(theta)
        if gid not in self._pre:
            system = np.eye(g.n) - delta * g.adj
            self._pre[gid] = (np.linalg.solve(system, theta), np.linalg.solve(system, np.ones(g.n)))
        pre_b, b_unit = self._pre[gid]
        return g, delta, theta, pre_b, b_unit


def agree(got, want, rtol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = np.abs(want)
    tol = rtol * (scale + FLOOR * scale.max(initial=0.0))
    bad = np.abs(got - want) > tol
    if np.any(bad) or not np.all(np.isfinite(got)):
        k = int(np.argmax(np.abs(got - want) - tol)) if np.any(bad) else 0
        raise CheckError(
            f"{what}: got {got.ravel()[k]!r}, expected {want.ravel()[k]!r} (entry {k}, rtol {rtol:g})"
        )


def within(got: float, want: float, scale: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * abs(scale):
        raise CheckError(f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g} of {scale:.6g})")


def aggregate(adj: np.ndarray, delta: float, theta=None) -> float:
    n = adj.shape[0]
    if n == 0:
        return 0.0
    theta = np.ones(n) if theta is None else theta
    return float(np.linalg.solve(np.eye(n) - delta * adj, theta).sum())


def _change_matrix(n: int, op: dict) -> np.ndarray:
    c = np.zeros((n, n))
    for sign, key in ((1.0, "add"), (-1.0, "remove")):
        for i, j in op.get(key, ()):
            c[i, j] = c[j, i] = sign
    return c


def _dtheta(n: int, op: dict) -> np.ndarray:
    v = np.zeros(n)
    for lab, val in op.get("dtheta", {}).items():
        v[int(lab)] += val
    return v


# ---------------------------------------------------------------- what-if


def _check_effect(op, ans, ctx):
    g, delta, theta, pre_b, _ = ctx.game(op["game"])
    post_adj = g.adj + _change_matrix(g.n, op)
    post = np.linalg.solve(np.eye(g.n) - delta * post_adj, theta + _dtheta(g.n, op))
    agree(ans["post_b"], post, LIBRARY_RTOL, "post_b against a re-solve of I - delta(G+C)")
    gap = float(np.abs(ans["delta_x"] - (post - pre_b)).max())
    within(gap, 0.0, np.abs(post).max(), LIBRARY_RTOL, "delta_x against post - pre (largest gap)")
    within(ans["delta_aggregate"], float(post.sum() - pre_b.sum()), post.sum(), LIBRARY_RTOL,
           "delta_aggregate")


def _check_intercentrality(op, ans, ctx):
    g, delta, theta, pre_b, _ = ctx.game(op["game"])
    rest = np.setdiff1d(np.arange(g.n), op["group"])
    want = float(pre_b.sum()) - aggregate(g.adj[np.ix_(rest, rest)], delta, theta[rest])
    within(ans["value"], want, pre_b.sum(), LIBRARY_RTOL, "intercentrality against sum b - subgame sum b")
    within(ans["direct"], float(pre_b[op["group"]].sum()), pre_b.sum(), LIBRARY_RTOL, "direct effect")
    within(ans["indirect"], want - float(pre_b[op["group"]].sum()), pre_b.sum(), LIBRARY_RTOL,
           "indirect effect")


def _link_change(adj, delta, i, j, sign) -> float:
    changed = adj.copy()
    changed[i, j] = changed[j, i] = adj[i, j] + sign
    return aggregate(changed, delta) - aggregate(adj, delta)


def _check_link_value(op, ans, ctx):
    g, delta, _, _, b_unit = ctx.game(op["game"])
    i, j = op["pair"]
    potential = op["kind"] == "link_value_potential"
    if (ans["i"], ans["j"], ans["kind"]) != (str(i), str(j), "potential" if potential else "existing"):
        raise CheckError(f"link value names {ans['i']},{ans['j']},{ans['kind']} for pair {i},{j}")
    realized = _link_change(g.adj, delta, i, j, 1.0 if potential else -1.0)
    want = realized if potential else -realized
    within(delta * ans["value"], want, b_unit.sum(), LIBRARY_RTOL,
           "delta * link value against the realized aggregate change")


def _check_walk_matrix(op, ans, ctx):
    g, delta, *_ = ctx.game(op["game"])
    e = np.asarray(op["excluded"])
    c = np.setdiff1d(np.arange(g.n), e)
    if ans["excluded"] != e.tolist() or ans["kept"] != c.tolist():
        raise CheckError("walk matrix partition differs from the requested excluded set")
    kept_inverse = np.linalg.inv(np.eye(c.size) - delta * g.adj[np.ix_(c, c)])
    g_ce = g.adj[np.ix_(c, e)]
    ke = delta * kept_inverse @ g_ce
    ee = np.eye(e.size) + delta * g.adj[np.ix_(e, e)] + delta * delta * g_ce.T @ kept_inverse @ g_ce
    for key, want in (("kk", kept_inverse), ("ke", ke), ("ek", ke.T), ("ee", ee)):
        agree(ans[key], want, LIBRARY_RTOL, f"walk block {key} from the deleted-network inverse")


def _check_avoidance(op, ans, ctx):
    g, delta, *_ = ctx.game(op["game"])
    a, b = np.asarray(op["a"]), np.asarray(op["b"])
    rest = np.setdiff1d(np.arange(g.n), np.concatenate([a, b]))
    rest_inverse = np.linalg.inv(np.eye(rest.size) - delta * g.adj[np.ix_(rest, rest)])
    want = delta * g.adj[np.ix_(a, b)] + delta * delta * g.adj[np.ix_(a, rest)] @ rest_inverse @ g.adj[np.ix_(rest, b)]
    agree(ans["block"], want, LIBRARY_RTOL, "avoidance block from the deleted-network inverse")


# ----------------------------------------------------------------- CLI


def _json(ans, what: str) -> dict:
    if ans["rc"] != 0:
        raise CheckError(f"{what}: exit {ans['rc']}: {ans['err'].strip()}")
    try:
        return json.loads(ans["out"])
    except ValueError as exc:
        raise CheckError(f"{what}: output is not JSON: {exc}") from None


def _index(g) -> dict:
    return {lab: k for k, lab in enumerate(g.labels)}


def _nodes(g, labels) -> list[int]:
    index = _index(g)
    try:
        return sorted(index[lab] for lab in labels)
    except KeyError as exc:
        raise CheckError(f"unknown label {exc}") from None


def _pair_scores(adj, delta):
    """Intercentrality of every pair {i, j} at theta = 1, all at once."""
    m = np.linalg.inv(np.eye(adj.shape[0]) - delta * adj)
    b = m.sum(axis=1)
    d = np.diag(m)
    det = np.outer(d, d) - m * m
    num = np.outer(b * b, d) + np.outer(d, b * b) - 2.0 * np.outer(b, b) * m
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = num / det
    np.fill_diagonal(scores, -np.inf)
    return scores


def _check_group_definition(g, delta, result, what):
    nodes = _nodes(g, result["group"])
    rest = np.setdiff1d(np.arange(g.n), nodes)
    full = aggregate(g.adj, delta)
    want = full - aggregate(g.adj[np.ix_(rest, rest)], delta)
    within(result["intercentrality"], want, want, CLI_RTOL, f"{what}: sum b - subgame sum b")
    b = np.linalg.solve(np.eye(g.n) - delta * g.adj, np.ones(g.n))
    direct = float(b[nodes].sum())
    within(result["direct_effect"], direct, direct, CLI_RTOL, f"{what}: direct effect")
    within(result["indirect_effect"], want - direct, want, CLI_RTOL, f"{what}: indirect effect")
    return nodes


def _check_exhaustive(check, ans, ctx):
    g = ctx.graphs[check["graph"]]
    out = _json(ans, "key-group exhaustive")
    results = out["results"]
    if out["mode"] != "exhaustive" or out["k"] != 2 or len(results) != 3:
        raise CheckError("key-group exhaustive: wrong mode, k or number of results")
    scores = _pair_scores(g.adj, check["delta"])
    best = np.sort(scores[np.triu_indices(g.n, 1)])[::-1][:3]
    for rank, result in enumerate(results):
        i, j = _nodes(g, result["group"])
        within(result["intercentrality"], scores[i, j], best[0], CLI_RTOL,
               f"key-group rank {rank + 1} against the all-pairs score")
        within(result["intercentrality"], best[rank], best[0], CLI_RTOL,
               f"key-group rank {rank + 1} against the all-pairs ranking")
    _check_group_definition(g, check["delta"], results[0], "key-group winner")


def _check_greedy(check, ans, ctx):
    g = ctx.graphs[check["graph"]]
    out = _json(ans, "key-group greedy")
    if out["mode"] != "greedy" or len(out["results"]) != 1:
        raise CheckError("key-group greedy: wrong mode or number of results")
    result = out["results"][0]
    chosen = set(_check_group_definition(g, check["delta"], result, "greedy group"))
    if len(chosen) != check["k"]:
        raise CheckError(f"greedy group has {len(chosen)} nodes, expected {check['k']}")
    # Replay: each pick maximizes b_i^2 / m_ii in the residual network.
    alive = np.arange(g.n)
    for step in range(check["k"]):
        m = np.linalg.inv(np.eye(alive.size) - check["delta"] * g.adj[np.ix_(alive, alive)])
        b = m.sum(axis=1)
        single = b * b / np.diag(m)
        best = single.max()
        tied = {int(alive[t]) for t in np.flatnonzero(single >= best - NEAR_TIE * max(1.0, best))}
        picks = sorted(tied & chosen)
        if not picks:
            raise CheckError(f"greedy step {step + 1}: no chosen node is a best single removal")
        alive = alive[alive != picks[0]]


def _check_bridge(check, ans, ctx):
    g1, g2 = (ctx.graphs[name] for name in check["graphs"])
    delta = check["delta"]
    out = _json(ans, "key-bridge")
    stats = []
    for g in (g1, g2):
        m = np.linalg.inv(np.eye(g.n) - delta * g.adj)
        stats.append((m.sum(axis=1), np.diag(m)))
    (b1, m1), (b2, m2) = stats
    value = (
        delta * np.outer(b1 * b1, m2) + delta * np.outer(m1, b2 * b2) + 2.0 * np.outer(b1, b2)
    ) / (1.0 - delta * delta * np.outer(m1, m2))
    best = float(value.max())
    idx1, idx2 = _index(g1), _index(g2)
    candidates = out["candidates"]
    if not candidates or candidates[0] != out["winner"]:
        raise CheckError("key-bridge: winner is not the first candidate")
    previous = np.inf
    for cand in candidates:
        try:
            v = value[idx1[cand["i"]], idx2[cand["j"]]]
        except KeyError as exc:
            raise CheckError(f"key-bridge: unknown label {exc}") from None
        within(cand["index"], v, best, CLI_RTOL, f"bridge {cand['i']}-{cand['j']} index")
        within(cand["predicted_delta_aggregate"], delta * v, delta * best, CLI_RTOL,
               f"bridge {cand['i']}-{cand['j']} predicted change")
        if cand["index"] > previous * (1 + CLI_RTOL):
            raise CheckError("key-bridge: candidates are not ranked best first")
        previous = cand["index"]
    winner = out["winner"]
    within(winner["index"], best, best, CLI_RTOL, "key-bridge winner against every cross pair")
    joined = np.zeros((g1.n + g2.n, g1.n + g2.n))
    joined[: g1.n, : g1.n] = g1.adj
    joined[g1.n :, g1.n :] = g2.adj
    i, j = idx1[winner["i"]], g1.n + idx2[winner["j"]]
    joined[i, j] = joined[j, i] = 1.0
    realized = aggregate(joined, delta) - aggregate(g1.adj, delta) - aggregate(g2.adj, delta)
    within(winner["predicted_delta_aggregate"], realized, realized, CLI_RTOL,
           "key-bridge winner against the joined-network solve")


def _check_link_values(check, ans, ctx):
    g = ctx.graphs[check["graph"]]
    delta = check["delta"]
    out = _json(ans, "link-value")
    if "skipped" in out:
        raise CheckError(f"link-value skipped pairs: {out['skipped'][:3]}")
    potential = check["mode"] == "potential"
    upper = np.triu(np.ones_like(g.adj, dtype=bool), 1)
    rows, cols = np.nonzero(upper & ((g.adj == 0) == potential))
    want_pairs = {frozenset((g.labels[i], g.labels[j])) for i, j in zip(rows, cols)}
    got_pairs = [frozenset((v["i"], v["j"])) for v in out["values"]]
    if len(got_pairs) != len(want_pairs) or set(got_pairs) != want_pairs:
        raise CheckError(f"link-value lists {len(got_pairs)} pairs, expected {len(want_pairs)}")
    index = _index(g)
    base = aggregate(g.adj, delta)
    previous = np.inf
    for v in out["values"]:
        if v["kind"] != check["mode"]:
            raise CheckError(f"link-value kind {v['kind']!r} in --all-{check['mode']}")
        i, j = index[v["i"]], index[v["j"]]
        realized = _link_change(g.adj, delta, i, j, 1.0 if potential else -1.0)
        want = realized if potential else -realized
        within(delta * v["value"], want, max(abs(want), 1e-6 * base), CLI_RTOL,
               f"delta * value of {v['i']}-{v['j']} against the realized change")
        if v["value"] > previous + CLI_RTOL * abs(previous):
            raise CheckError("link-value: values are not ranked best first")
        previous = v["value"]


def _check_fresh(check, ans, ctx):
    g = ctx.graphs[check["graph"]]
    model = check["type"]
    if check["fraction"] > 1.0:
        if ans["rc"] == 1 and not ans["out"] and ans["err"].startswith("error:"):
            return "ok"
        if check.get("fault_eligible") and ans["rc"] == 2 and "not positive definite" in ans["err"]:
            return "failed"
        raise CheckError(
            f"{model} at {check['fraction']} of the eigvalsh bound: exit {ans['rc']}, "
            f"expected a rejection with exit 1 ({ans['err'].strip()[:120]})"
        )
    out = _json(ans, model)
    if sorted(out["labels"]) != sorted(g.labels):
        raise CheckError(f"{model}: labels differ from the graph's")
    order = [_index(g)[lab] for lab in out["labels"]]
    n, delta, a = g.n, check["delta"], g.adj
    theta = ctx.thetas[check["theta"]] if check["theta"] else np.ones(n)
    eye = np.eye(n)
    if model == "centrality":
        m = np.linalg.inv(eye - delta * a)
        b = m @ theta
        agree(out["b"], b[order], CLI_RTOL, "centrality b against a dense inverse")
        agree(out["self_loops"], np.diag(m)[order], CLI_RTOL, "self-loops against a dense inverse")
        within(out["aggregate"], float(b.sum()), float(b.sum()), CLI_RTOL, "aggregate")
    elif model == "multi":
        beta = MULTI_BETA
        theta_b = ctx.thetas[check["theta_b"]] if check["theta_b"] else np.ones(n)
        p = eye - delta * a
        # First-order conditions: x_a + beta x_b - delta G x_a = theta_a, and
        # symmetrically for activity b.
        foc = np.block([[p, beta * eye], [beta * eye, p]])
        x = np.linalg.solve(foc, np.concatenate([theta, theta_b]))
        agree(out["activity_a"], x[:n][order], CLI_RTOL, "multi activity a against its first-order conditions")
        agree(out["activity_b"], x[n:][order], CLI_RTOL, "multi activity b against its first-order conditions")
    elif model == "congestion":
        gamma = CONGESTION_GAMMA
        # First-order conditions: (I - delta G + gamma G^2) x = theta.
        x = np.linalg.solve(eye - delta * a + gamma * a @ a, theta)
        agree(out["x"], x[order], CLI_RTOL, "congestion x against its first-order conditions")
    elif model == "global":
        phi = GLOBAL_PHI
        # First-order conditions: (1 - phi) x_i + phi sum_j x_j - delta (G x)_i = 1.
        x = np.linalg.solve((1.0 - phi) * eye + phi * np.ones((n, n)) - delta * a, np.ones(n))
        agree(out["x"], x[order], CLI_RTOL, "global x against its first-order conditions")
    else:
        raise CheckError(f"unknown model {model!r}")
    return "ok"


_LIBRARY = {
    "characteristic": _check_effect,
    "structural": _check_effect,
    "hybrid": _check_effect,
    "intercentrality": _check_intercentrality,
    "link_value_existing": _check_link_value,
    "link_value_potential": _check_link_value,
    "walk_matrix": _check_walk_matrix,
    "avoidance_block": _check_avoidance,
}

_CLI = {
    "exhaustive": _check_exhaustive,
    "greedy": _check_greedy,
    "bridge": _check_bridge,
    "link_values": _check_link_values,
    "centrality": _check_fresh,
    "multi": _check_fresh,
    "congestion": _check_fresh,
    "global": _check_fresh,
}


def check(op: dict, answer: dict, ctx: Context) -> str:
    if op["kind"] == "cli":
        return _CLI[op["check"]["type"]](op["check"], answer, ctx) or "ok"
    _LIBRARY[op["kind"]](op, answer, ctx)
    return "ok"
