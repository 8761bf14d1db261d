"""Hostile inputs through every subcommand: never a traceback, never exit 2.

Each case must either succeed or fail as bad input: exit 0 with nothing on
stderr, or exit 1 with exactly one line on stderr.
"""

import io

import numpy as np
import pytest

from netsurgeon import (
    CharacteristicIntervention,
    InputError,
    Network,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    cli,
)

# A warning here marks arithmetic that overflowed on the way to an answer.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GRAPHS = {
    "path": "1 2\n2 3\n3 4\n",
    "other": "x y\ny z\n",
    "empty": "",
    "comments": "# nothing here\n\n",
    "self_loop": "1 2\n2 2\n",
    "edgeless": "1\n2\n3\n4\n",
    "three_tokens": "1 2 3\n",
}
THETAS = {
    "nan": "1 nan\n2 1\n3 1\n4 1\n",
    "inf": "1 1\n2 -inf\n3 1\n4 1\n",
    "overflow": "1 1e999\n2 1\n3 1\n4 1\n",
    "missing_label": "1 1\n2 1\n3 1\n",
    "unknown_label": "1 1\n2 1\n3 1\n4 1\n9 1\n",
    "not_a_number": "1 one\n2 1\n3 1\n4 1\n",
}
DELTAS = ("nan", "inf", "-inf", "0", "-0.1", "1e308", "0.6")  # path bound is 0.618


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    out = {}
    for name, text in {**GRAPHS, **{f"theta_{k}": v for k, v in THETAS.items()}}.items():
        p = root / f"{name}.txt"
        p.write_text(text)
        out[name] = str(p)
    out["absent"] = str(root / "absent.txt")
    return out


def graph_commands(graph, delta):
    """One command line per subcommand (and extension model) on one graph."""
    base = ["--graph", graph, "--delta", delta]
    return [
        ["centrality"] + base,
        ["centrality"] + base + ["--format", "csv"],
        ["intervene"] + base + ["--add", "1,3"],
        ["intervene"] + base + ["--remove", "1,2", "--dtheta", "3=0.5"],
        ["key-group"] + base + ["--k", "2"],
        ["key-group"] + base + ["--k", "2", "--mode", "greedy"],
        ["link-value"] + base + ["--all-potential"],
        ["link-value"] + base + ["--pair", "1,2"],
        ["walks"] + base + ["--exclude", "2"],
        ["walks"] + base + ["--from", "1", "--to", "4"],
        ["extension", "--model", "multi"] + base + ["--beta", "0.3"],
        ["extension", "--model", "congestion"] + base + ["--gamma", "0.01"],
        ["extension", "--model", "global"] + base + ["--phi", "0.2"],
    ]


def corpus(files):
    cases = []
    for graph in ("path", "empty", "comments", "self_loop", "edgeless", "three_tokens", "absent"):
        for delta in DELTAS:
            cases += graph_commands(files[graph], delta)
            cases.append(["key-bridge", "--graph1", files[graph], "--graph2", files["other"],
                          "--delta", delta])
    path = ["--graph", files["path"], "--delta", "0.2"]
    for name in THETAS:
        theta = files[f"theta_{name}"]
        cases += [
            ["centrality"] + path + ["--theta", theta],
            ["intervene"] + path + ["--theta", theta, "--add", "1,3"],
            ["key-group"] + path + ["--theta", theta, "--k", "1"],
            ["extension", "--model", "multi"] + path + ["--theta", theta, "--beta", "0.3"],
            ["extension", "--model", "multi"] + path + ["--theta-b", theta, "--beta", "0.3"],
            ["extension", "--model", "congestion"] + path + ["--theta", theta, "--gamma", "0.01"],
        ]
    for value in ("nan", "inf", "-inf"):
        cases += [
            ["intervene"] + path + ["--dtheta", f"2={value}"],
            ["intervene"] + path + ["--add", "1,3", "--dtheta", f"2={value}"],
            ["extension", "--model", "multi"] + path + ["--beta", value],
            ["extension", "--model", "congestion"] + path + ["--gamma", value],
            ["extension", "--model", "global"] + path + ["--phi", value],
        ]
    cases += [
        ["reproduce", "--table", "0"],
        ["reproduce", "--table", "nan"],
        ["reproduce"],
        [],
    ]
    return cases


def test_every_hostile_input_exits_0_or_1_with_one_line(files):
    failures = []
    for argv in corpus(files):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = cli.run(argv, out=out, err=err)
        except Exception as exc:  # the contract: run() never raises
            failures.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        text = err.getvalue()
        ok = (code == 0 and text == "") or (
            code == 1 and text.startswith("error: ") and text.count("\n") == 1
        )
        if not ok or "Traceback" in text:
            failures.append((argv, f"exit {code}, stderr {text!r}"))
    assert not failures, "\n".join(f"{argv}: {why}" for argv, why in failures)


def test_non_finite_parameters_name_themselves(files):
    cases = {
        "delta must be positive and finite, got nan": ["centrality", "--graph", files["path"],
                                                       "--delta", "nan"],
        "delta must be positive and finite, got inf": ["centrality", "--graph",
                                                       files["edgeless"], "--delta", "inf"],
        "--theta: line 1: non-finite number 'nan'": ["centrality", "--graph", files["path"],
                                                     "--delta", "0.2", "--theta",
                                                     files["theta_nan"]],
        "delta and gamma must be nonnegative and finite, got 0.2, inf": [
            "extension", "--model", "congestion", "--graph", files["path"],
            "--delta", "0.2", "--gamma", "inf"],
    }
    for message, argv in cases.items():
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(argv, out=out, err=err) == 1
        assert err.getvalue() == f"error: {message}\n"


class TestLibraryRejectsNonFinite:
    @pytest.fixture()
    def net(self):
        return Network.from_edges([("1", "2"), ("2", "3")])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scalars(self, net, bad):
        ones = np.ones(3)
        with pytest.raises(InputError):
            certify(net, bad)
        with pytest.raises(InputError):
            certify_multi_activity(net, bad, 0.3, ones, ones)
        with pytest.raises(InputError):
            certify_multi_activity(net, 0.2, bad, ones, ones)
        with pytest.raises(InputError):
            certify_congestion(net, bad, 0.01)
        with pytest.raises(InputError):
            certify_congestion(net, 0.2, bad)
        with pytest.raises(InputError):
            certify_global_substitution(net, bad, 0.2)
        with pytest.raises(InputError):
            certify_global_substitution(net, 0.2, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vectors(self, net, bad):
        theta = np.array([1.0, bad, 1.0])
        ones = np.ones(3)
        with pytest.raises(InputError):
            certify(net, 0.2, theta)
        with pytest.raises(InputError):
            certify(net, 0.2).with_theta(theta)
        with pytest.raises(InputError):
            certify_multi_activity(net, 0.2, 0.3, ones, theta)
        with pytest.raises(InputError):
            certify_congestion(net, 0.2, 0.01, theta)
        with pytest.raises(InputError):
            CharacteristicIntervention(theta - 1.0)
        with pytest.raises(InputError):
            CharacteristicIntervention.from_pairs(net, {"2": bad})
