"""Spans around netsurgeon's module boundaries, for the traced run.

Each public function that one netsurgeon module imports from another is
replaced, in every namespace that holds it, by a wrapper that records a
span: its CPU time minus that of spans started inside it (self time),
and a call count. GameSpec.solve and the cho_factor names held by graphs,
walks and extensions are wrapped the same way. The package source is not
touched; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def span(self, name: str, fn, count=None):
        """fn wrapped in a span; count(counts, args, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                self.self_s[name] += elapsed - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def take(self) -> dict:
        """Totals since the last take, then start again from zero."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out


def _rhs_columns(counts, args, result):
    rhs = args[1]
    counts["rhs_columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]


def _subsets(counts, args, result):
    counts["subsets_scored"] += len(result)


def _frontier(counts, args, result):
    counts["bridge_pairs_scored"] += len(result)
    counts["bridge_cross_pairs"] += args[0].n * args[1].n


def install(tracer: Tracer) -> None:
    """Wrap every boundary listed below in all namespaces that hold it."""
    import netsurgeon as ns
    from netsurgeon import bridge, centrality, cli, extensions, graphs, intervene, keygroup, walks

    boundaries = [
        ("graphs.spectral_radius", graphs, "spectral_radius", (graphs, intervene, extensions, ns), None),
        ("graphs.certify", graphs, "certify", (graphs, keygroup, bridge, cli, ns), None),
        ("graphs.load", graphs, "load_network", (graphs, cli, ns), None),
        ("graphs.factor", graphs, "cho_factor", (graphs, walks, extensions), None),
        ("centrality.katz_bonacich", centrality, "katz_bonacich", (cli, ns), None),
        ("keygroup.intercentrality", keygroup, "intercentrality", (walks, ns), None),
        ("keygroup.exhaustive", keygroup, "key_group_exhaustive", (cli, ns), _subsets),
        ("keygroup.greedy", keygroup, "key_group_greedy", (cli, ns), None),
        ("bridge.rank_bridges", bridge, "rank_bridges", (cli, ns), _frontier),
        ("cli", cli, "run", (cli,), None),
    ]
    for attr in ("characteristic_effect", "hybrid_effect", "structural_effect"):
        boundaries.append(("intervene", intervene, attr, (cli, ns), None))
    for attr in ("walk_matrix", "avoidance_block"):
        boundaries.append(("walks", walks, attr, (cli, ns), None))
    for attr in ("link_value_existing", "link_value_potential"):
        boundaries.append(("bridge.link_value", bridge, attr, (cli, ns), None))
    for attr in (
        "certify_multi_activity", "certify_congestion", "certify_global_substitution",
        "multi_activity_equilibrium", "congestion_equilibrium", "global_substitution_equilibrium",
    ):
        boundaries.append(("extensions", extensions, attr, (extensions, ns), None))

    for name, home, attr, holders, count in boundaries:
        wrapped = tracer.span(name, getattr(home, attr), count)
        for module in holders:
            setattr(module, attr, wrapped)
    graphs.GameSpec.solve = tracer.span("graphs.solve", graphs.GameSpec.solve, _rhs_columns)


# (metric, source, key): source is "self_s", "calls" or "counts".
LAYER_METRICS = (
    ("graphs.spectral_radius.calls", "calls", "graphs.spectral_radius"),
    ("graphs.spectral_radius.self_s", "self_s", "graphs.spectral_radius"),
    ("graphs.certify.calls", "calls", "graphs.certify"),
    ("graphs.certify.self_s", "self_s", "graphs.certify"),
    ("graphs.load.self_s", "self_s", "graphs.load"),
    ("graphs.factorizations", "calls", "graphs.factor"),
    ("graphs.factor.self_s", "self_s", "graphs.factor"),
    ("graphs.solve.calls", "calls", "graphs.solve"),
    ("graphs.solve.rhs_columns", "counts", "rhs_columns"),
    ("graphs.solve.self_s", "self_s", "graphs.solve"),
    ("centrality.katz_bonacich.self_s", "self_s", "centrality.katz_bonacich"),
    ("intervene.calls", "calls", "intervene"),
    ("intervene.self_s", "self_s", "intervene"),
    ("keygroup.intercentrality.self_s", "self_s", "keygroup.intercentrality"),
    ("keygroup.exhaustive.self_s", "self_s", "keygroup.exhaustive"),
    ("keygroup.exhaustive.subsets_scored", "counts", "subsets_scored"),
    ("keygroup.greedy.self_s", "self_s", "keygroup.greedy"),
    ("walks.self_s", "self_s", "walks"),
    ("bridge.link_value.calls", "calls", "bridge.link_value"),
    ("bridge.link_value.self_s", "self_s", "bridge.link_value"),
    ("bridge.rank_bridges.self_s", "self_s", "bridge.rank_bridges"),
    ("extensions.self_s", "self_s", "extensions"),
    ("cli.self_s", "self_s", "cli"),
)


def layer_metrics(setup: dict, timed: dict, rounds: int) -> dict:
    """Per-layer figures for set-up plus one round of operations.

    Every round repeats the same operations, so timed totals divided by the
    number of rounds give one round exactly for counts.
    """

    def value(source: str, key: str) -> float:
        return setup[source].get(key, 0) + timed[source].get(key, 0) / rounds

    out = {name: value(source, key) for name, source, key in LAYER_METRICS}
    cross = value("counts", "bridge_cross_pairs")
    out["bridge.frontier_share"] = value("counts", "bridge_pairs_scored") / cross if cross else 0.0
    return out
