"""Output of the non-search subcommands pinned byte for byte to recorded files.

centrality and intervene (characteristic, structural and hybrid) in JSON and
CSV, walks (--exclude and --from/--to), extension (multi, congestion and
global) and reproduce --format json run on seeded graphs built here. One
graph's labels carry non-ASCII characters (one outside the Basic
Multilingual Plane), a double quote, a backslash and a control character, so
the JSON escapes are pinned too; the key-group, key-bridge and link-value
cases on it pin them on the search side. Each stdout must equal the bytes in
tests/data/cli_golden.json. To record them from another checkout:

    PYTHONPATH=<checkout>/src python tests/test_cli_golden.py [NAME ...]

Named cases are re-recorded and every other recorded output is kept; with
no names, all cases are recorded afresh.
"""

import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from netsurgeon import Network, cli, reference

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

ODD_LABELS = ["José", 'say"hi', "back\\slash", "Ω", "\U0001F600", "tab\x01ctl", "ß"]


def erdos_renyi(rng, labels, p):
    n = len(labels)
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    return Network.from_edges(
        [(labels[i], labels[j]) for i, j in zip(*np.nonzero(a))], isolated=labels
    )


def circulant(n, offsets):
    return Network.from_edges(
        [(f"{i + 1}", f"{(i + o) % n + 1}") for i in range(n) for o in offsets]
    )


def cases(root) -> dict:
    """Case name -> argv; writes the graphs and theta files under root."""
    rng = np.random.default_rng(11)
    odd = ODD_LABELS + [f"v{i}" for i in range(9)]
    nets = {
        "odd16": erdos_renyi(rng, odd, 0.3),
        "odd6": erdos_renyi(rng, [f"w{lab}" for lab in ODD_LABELS[:6]], 0.6),
        "er24": erdos_renyi(rng, [f"{i + 1}" for i in range(24)], 0.2),
        "circ12": circulant(12, (1, 3)),
    }
    path = {}
    for name, net in nets.items():
        path[name] = os.path.join(root, f"{name}.txt")
        Path(path[name]).write_text(net.serialize(), encoding="utf-8")
    theta = {}
    for name in ("odd16", "er24"):
        theta[name] = os.path.join(root, f"{name}.theta")
        values = rng.uniform(0.5, 2.0, nets[name].n)
        Path(theta[name]).write_text(
            "".join(f"{lab} {v!r}\n" for lab, v in zip(nets[name].labels, values.tolist())),
            encoding="utf-8",
        )

    def game(graph, delta, *extra):
        return ["--graph", path[graph], "--delta", delta, *extra]

    both = {
        "centrality_odd16_theta": ["centrality", *game("odd16", "0.12", "--theta", theta["odd16"])],
        "centrality_circ12": ["centrality", *game("circ12", "0.2")],
        "intervene_characteristic_er24": [
            "intervene", *game("er24", "0.1", "--theta", theta["er24"]),
            "--dtheta", "3=0.5", "--dtheta", "17=-0.25",
        ],
        "intervene_structural_er24": [
            "intervene", *game("er24", "0.1"), "--add", "1,2", "--add", "5,9", "--remove",
            ",".join(nets["er24"].edges()[0]),
        ],
        "intervene_hybrid_odd16": [
            "intervene", *game("odd16", "0.12"), "--add", "ß,Ω",
            "--remove", ",".join(nets["odd16"].edges()[1]), "--dtheta", 'say"hi=0.75',
        ],
        "intervene_structural_circ12": [
            "intervene", *game("circ12", "0.2"), "--remove", "1,2", "--remove", "4,7",
        ],
    }
    base = {
        "walks_exclude_odd16": ["walks", *game("odd16", "0.12"), "--exclude", "Ω,back\\slash,v3"],
        "walks_exclude_circ12": ["walks", *game("circ12", "0.2"), "--exclude", "1"],
        "walks_from_to_odd16": [
            "walks", *game("odd16", "0.12"), "--from", "José,ß", "--to", "\U0001F600,v0,v7",
        ],
        "walks_from_to_er24": ["walks", *game("er24", "0.1"), "--from", "2", "--to", "3,11"],
        "extension_multi_odd16": [
            "extension", "--model", "multi", *game("odd16", "0.08", "--theta", theta["odd16"]),
            "--beta", "0.3", "--theta-b", theta["odd16"],
        ],
        "extension_multi_circ12": [
            "extension", "--model", "multi", *game("circ12", "0.1"), "--beta", "-0.4",
        ],
        "extension_congestion_er24": [
            "extension", "--model", "congestion", *game("er24", "0.1", "--theta", theta["er24"]),
            "--gamma", "0.02",
        ],
        "extension_global_odd16": [
            "extension", "--model", "global", *game("odd16", "0.12"), "--phi", "0.05",
        ],
        "keygroup_odd16": [
            "key-group", *game("odd16", "0.12"), "--k", "2", "--top", "4",
        ],
        "keygroup_greedy_odd16": [
            "key-group", *game("odd16", "0.12"), "--k", "3", "--mode", "greedy",
        ],
        "bridge_odd16_odd6": [
            "key-bridge", "--graph1", path["odd16"], "--graph2", path["odd6"], "--delta", "0.1",
        ],
        "linkvalue_pair_odd16": ["link-value", *game("odd16", "0.12"), "--pair", 'José,say"hi'],
        "linkvalue_existing_odd6": ["link-value", *game("odd6", "0.2"), "--all-existing"],
    }
    for table in reference.TABLE_IDS:
        base[f"reproduce_{table}"] = ["reproduce", "--table", str(table), "--format", "json"]
    out = {f"{name}.json": argv for name, argv in base.items()}
    for name, argv in both.items():
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
    return cases(str(tmp_path_factory.mktemp("cli_golden")))


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_cli_output_matches_recorded_bytes(argvs, name):
    assert run(argvs[name]) == RECORDED[name]


def test_every_case_is_recorded(argvs):
    assert sorted(argvs) == sorted(RECORDED)


def test_odd_labels_are_escaped():
    assert "\\u00e9" in RECORDED["walks_from_to_odd16.json"]
    assert "\\ud83d\\ude00" in RECORDED["walks_from_to_odd16.json"]
    assert 'say\\"hi' in RECORDED["linkvalue_pair_odd16.json"]
    assert "\\\\" in RECORDED["walks_exclude_odd16.json"]
    assert "\\u0001" in RECORDED["centrality_odd16_theta.json"]


if __name__ == "__main__":
    names = sys.argv[1:]
    with tempfile.TemporaryDirectory() as root:
        argvs = cases(root)
        unknown = sorted(set(names) - set(argvs))
        if unknown:
            sys.exit(f"unknown cases: {' '.join(unknown)}")
        recorded = dict(RECORDED) if names else {}
        for name in names or sorted(argvs):
            recorded[name] = run(argvs[name])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(names or argvs)} outputs to {GOLDEN}", file=sys.stderr)
