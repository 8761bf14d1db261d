"""Search output pinned byte for byte to recorded files.

Seeded Erdos-Renyi and circulant graphs built here go through the CLI's
key-group (exhaustive and greedy), key-bridge and link-value (--all-potential
and --all-existing) searches in JSON and CSV. Each stdout must equal the
bytes in tests/data/search_golden.json, which were recorded from the
per-subset, per-pair search code that the array searches replaced. To record
them from another checkout:

    PYTHONPATH=<checkout>/src python tests/test_search_golden.py
"""

import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from netsurgeon import Network, cli

GOLDEN = Path(__file__).parent / "data" / "search_golden.json"
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def erdos_renyi(rng, n, p, prefix=""):
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    return Network.from_edges(
        [(f"{prefix}{i + 1}", f"{prefix}{j + 1}") for i, j in zip(*np.nonzero(a))],
        isolated=[f"{prefix}{i + 1}" for i in range(n)],
    )


def circulant(n, offsets, prefix=""):
    return Network.from_edges(
        [(f"{prefix}{i + 1}", f"{prefix}{(i + o) % n + 1}") for i in range(n) for o in offsets]
    )


def cases(root) -> dict:
    """Case name -> argv; writes the graphs and the theta file under root."""
    rng = np.random.default_rng(7)
    nets = {
        "er20": erdos_renyi(rng, 20, 0.3),
        "er40": erdos_renyi(rng, 40, 0.15),
        "er25a": erdos_renyi(rng, 25, 0.25, "a"),
        "er18b": erdos_renyi(rng, 18, 0.3, "b"),
        "er14": erdos_renyi(rng, 14, 0.35),
        "er30": erdos_renyi(rng, 30, 0.2),
        "circ16": circulant(16, (1, 3)),
        "circ10": circulant(10, (1, 2)),
        "circ10a": circulant(10, (1, 2), "a"),
        "circ12b": circulant(12, (1, 4), "b"),
    }
    path = {}
    for name, net in nets.items():
        path[name] = os.path.join(root, f"{name}.txt")
        Path(path[name]).write_text(net.serialize())
    theta = os.path.join(root, "er20.theta")
    values = rng.uniform(0.5, 2.0, 20)
    Path(theta).write_text("".join(f"{i + 1} {v!r}\n" for i, v in enumerate(values.tolist())))

    def key_group(graph, delta, k, mode, *extra):
        return ["key-group", "--graph", path[graph], "--delta", delta, "--k", str(k),
                "--mode", mode, *extra]

    base = {
        "exhaustive_er20_k1": key_group("er20", "0.1", 1, "exhaustive", "--top", "5"),
        "exhaustive_er20_k2": key_group("er20", "0.1", 2, "exhaustive", "--top", "5"),
        "exhaustive_er20_k3": key_group("er20", "0.1", 3, "exhaustive", "--top", "5"),
        "exhaustive_er20_k2_theta": key_group("er20", "0.1", 2, "exhaustive", "--top", "5",
                                              "--theta", theta),
        "exhaustive_circ16_k2": key_group("circ16", "0.2", 2, "exhaustive", "--top", "6"),
        "greedy_er20_k4_theta": key_group("er20", "0.1", 4, "greedy", "--theta", theta),
        "greedy_er40_k5": key_group("er40", "0.08", 5, "greedy"),
        "greedy_circ16_k3": key_group("circ16", "0.2", 3, "greedy"),
    }
    for one, two, delta in (("er25a", "er18b", "0.08"), ("circ10a", "circ12b", "0.15"),
                            ("er25a", "circ12b", "0.08")):
        base[f"bridge_{one}_{two}"] = ["key-bridge", "--graph1", path[one], "--graph2", path[two],
                                       "--delta", delta]
    for graph, delta in (("er14", "0.1"), ("er14", "0.185"),
                         ("circ10", "0.2"), ("circ10", "0.2358")):
        base[f"potential_{graph}_{delta}"] = ["link-value", "--graph", path[graph], "--delta",
                                              delta, "--all-potential"]
    for graph, delta in (("er30", "0.1"), ("circ16", "0.2")):
        base[f"existing_{graph}_{delta}"] = ["link-value", "--graph", path[graph], "--delta",
                                             delta, "--all-existing"]
    out = {}
    for name, argv in base.items():
        out[f"{name}.json"] = argv
        out[f"{name}.csv"] = argv + ["--format", "csv"]
    return out


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return cases(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_search_output_matches_recorded_bytes(argvs, name):
    assert run(argvs[name]) == RECORDED[name]


def test_every_case_is_recorded(argvs):
    assert sorted(argvs) == sorted(RECORDED)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        recorded = {name: run(argv) for name, argv in sorted(cases(root).items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} outputs to {GOLDEN}", file=sys.stderr)
