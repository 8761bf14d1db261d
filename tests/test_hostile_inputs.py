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
    NodeSet,
    StructuralIntervention,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    cli,
    congestion_equilibrium,
    link_values,
    structural_effect,
    walk_matrix,
)

GRAPHS = {
    "path": "1 2\n2 3\n3 4\n",
    "other": "x y\ny z\n",
    "empty": "",
    "comments": "# nothing here\n\n",
    "self_loop": "1 2\n2 2\n",
    "edgeless": "1\n2\n3\n4\n",
    "three_tokens": "1 2 3\n",
    # Superscript three, a digit int() cannot read, and decimal labels longer
    # than int() reads by default, on a good line and on a bad one.
    "digit_like": "1 2\n2 \u00b3\n\u00b3 4\n4 " + "5" * 5000 + "\n",
    "long_label_bad_line": "1 2\n" + "5" * 5000 + " 1 2\n",
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
    for graph in (
        "path", "empty", "comments", "self_loop", "edgeless", "three_tokens", "digit_like",
        "long_label_bad_line", "absent",
    ):
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


class TestAdjacencyDtypes:
    """A bool or integer adjacency is the float64 network it describes.

    A 30-node path with a chord, at half of each bound: walks once raised a
    numpy UFuncTypeError on these dtypes, and a boolean adjacency squared by
    boolean matmul broke the congestion split check.
    """

    @staticmethod
    def adjacency():
        a = np.zeros((30, 30))
        i = np.arange(29)
        a[i, i + 1] = a[i + 1, i] = 1.0
        a[4, 20] = a[20, 4] = 1.0
        return a

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_every_model_answers_as_for_float64(self, dtype):
        a = self.adjacency()
        labels = tuple(str(i + 1) for i in range(30))
        net, ref = Network(labels, a.astype(dtype)), Network(labels, a)
        mu = np.linalg.eigvalsh(a)
        delta = 0.5 / mu[-1]
        spec, ref_spec = certify(net, delta), certify(ref, delta)
        np.testing.assert_array_equal(spec.b, ref_spec.b)
        got, want = walk_matrix(spec, NodeSet.of([3])), walk_matrix(ref_spec, NodeSet.of([3]))
        np.testing.assert_array_equal(got.kept_kept, want.kept_kept)
        iv = StructuralIntervention(frozenset({(0, 2, 1)}))
        np.testing.assert_array_equal(
            structural_effect(spec, iv).post_b, structural_effect(ref_spec, iv).post_b
        )
        assert link_values(spec, "potential") == link_values(ref_spec, "potential")
        gamma = 0.01
        bound = float(np.min(1.0 / mu[mu > 0] + gamma * mu[mu > 0]))
        np.testing.assert_array_equal(
            congestion_equilibrium(certify_congestion(net, 0.5 * bound, gamma)),
            congestion_equilibrium(certify_congestion(ref, 0.5 * bound, gamma)),
        )

    def test_other_dtypes_are_input_errors(self):
        with pytest.raises(InputError):
            Network(("1", "2"), np.array([[None, 1], [1, None]]))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestOverflowIsRefused:
    """Finite inputs whose arithmetic overflows on the way to an answer: exit
    1 with one error line and nothing on stdout. The suite's warning filter
    turns any overflow warning into a failure."""

    @pytest.fixture()
    def kite(self, tmp_path):
        # The 4-cycle a-b-c-d with the chord a-c, and thetas of 1e308 and
        # 3e307 everywhere; at delta 0.3 the second has a finite equilibrium.
        graph, huge, large = (tmp_path / name for name in ("kite.txt", "huge.txt", "large.txt"))
        graph.write_text("a b\nb c\nc d\nd a\na c\n")
        huge.write_text("a 1e308\nb 1e308\nc 1e308\nd 1e308\n")
        large.write_text("a 3e307\nb 3e307\nc 3e307\nd 3e307\n")
        return ["--graph", str(graph)], {"HUGE": str(huge), "LARGE": str(large)}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extension", "--model", "congestion", "--delta", "0.1", "--gamma", "1e308"],
             "gamma 1e+308 is too large: gamma G^2 overflows"),
            (["extension", "--model", "multi", "--delta", "0.1", "--beta", "0.1",
              "--theta", "HUGE", "--theta-b", "HUGE"],
             "theta_a and theta_b are too large: their sum overflows"),
            (["key-group", "--mode", "greedy", "--k", "2", "--delta", "0.3", "--theta", "HUGE"],
             "theta is too large: the equilibrium overflows"),
            # Printed Infinity, or warned and printed NaN, before the
            # equilibria themselves were checked.
            (["centrality", "--delta", "0.3", "--theta", "HUGE"],
             "theta is too large: the equilibrium overflows"),
            (["extension", "--model", "multi", "--delta", "0.3", "--beta", "0.1",
              "--theta", "HUGE"],
             "theta is too large: the equilibrium overflows"),
            (["extension", "--model", "congestion", "--delta", "0.3", "--gamma", "0.01",
              "--theta", "HUGE"],
             "theta is too large: the equilibrium overflows"),
            # Printed Infinity or NaN, with a warning, from a finite equilibrium.
            (["intervene", "--delta", "0.3", "--dtheta", "a=1e308"],
             "the intervention's change in play overflows"),
            (["intervene", "--delta", "0.3", "--dtheta", "a=1e308", "--add", "b,d"],
             "the intervention's equivalent theta shift overflows"),
            (["intervene", "--delta", "0.3", "--theta", "LARGE", "--add", "b,d"],
             "the intervention's equivalent theta shift overflows"),
            (["centrality", "--delta", "0.3", "--theta", "LARGE"],
             "theta is too large: the aggregate overflows"),
            # An IndexError traceback, and Infinity and NaN with exit 0, from
            # scores that overflow although the equilibrium is finite.
            (["key-group", "--mode", "greedy", "--k", "2", "--delta", "0.3", "--theta", "LARGE"],
             "theta is too large: the greedy single-node scores overflow"),
            (["key-group", "--k", "2", "--delta", "0.3", "--theta", "LARGE"],
             "theta is too large: the group intercentralities overflow"),
        ],
        ids=[
            "congestion-gamma", "multi-theta-sum", "greedy-theta", "centrality-theta",
            "multi-solve", "congestion-solve", "dtheta-report", "hybrid-local-solve",
            "structural-local-solve", "centrality-aggregate", "greedy-scores", "exhaustive-scores",
        ],
    )
    def test_one_error_line(self, kite, argv, message):
        graph, thetas = kite
        argv = [thetas.get(a, a) for a in argv]
        assert run_cli(argv + graph) == (1, "", f"error: {message}\n")

    def test_scores_of_both_signs_rank_without_overflow(self, kite, tmp_path):
        # Finite scores near +-1e308: the gap between neighbours in the
        # ranking overflows, and an overflowing gap is simply no tie.
        graph, _ = kite
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("a 1e308\nb -1e308\nc 1e308\nd -1e308\n")
        argv = ["key-group", "--k", "1", "--top", "4", "--delta", "0.01", "--theta", str(mixed)]
        code, out, err = run_cli(argv + graph)
        assert (code, err) == (0, "") and out.count('"group"') == 4

    def test_congestion_past_rounding_keeps_its_refusal(self, kite):
        # The exact system is positive definite, but gamma G^2 buries the
        # diagonal's 1 in rounding: the quadratic's certificate must leave it
        # to the factorization, which refuses it as before.
        graph, _ = kite
        argv = ["extension", "--model", "congestion", "--delta", "0.3", "--gamma", "5e307"]
        message = "game system is not positive definite: smallest eigenvalue -1.15e+292"
        assert run_cli(argv + graph) == (1, "", f"error: {message}\n")

    def test_global_substitution_words_the_given_delta(self, kite):
        graph, _ = kite
        argv = ["extension", "--model", "global", "--delta", "0.3", "--phi", "0.5"] + graph
        message = "delta=0.3 with lambda_max=5.12311 requires delta < 0.195194"
        assert run_cli(argv) == (1, "", f"error: spectral condition violated: {message}\n")


def test_cli_input_errors_name_themselves(files):
    path = ["--graph", files["path"], "--delta", "0.2"]
    absent = files["absent"]
    cases = {
        f"--theta: cannot read {absent!r}: [Errno 2] No such file or directory: {absent!r}":
            ["centrality", *path, "--theta", absent],
        "--dtheta: expected LABEL=VALUE, got '2'": ["intervene", *path, "--dtheta", "2"],
        "--dtheta: bad number 'x'": ["intervene", *path, "--dtheta", "2=x"],
        "--exclude: no labels given": ["walks", *path, "--exclude", ","],
        "--from: no labels given": ["walks", *path, "--from", ",", "--to", "1"],
        "--gamma is required for the congestion model":
            ["extension", "--model", "congestion", *path],
        "--phi is required for the global-substitution model":
            ["extension", "--model", "global", *path],
    }
    for message, argv in cases.items():
        assert run_cli(argv) == (1, "", f"error: {message}\n"), argv


class TestUnreadFlagsAreRefused:
    """A flag the chosen model or mode does not read ends in one error line
    naming it, never in an answer that silently ignores it."""

    @pytest.fixture()
    def kite(self, tmp_path):
        graph, weights = tmp_path / "kite.txt", tmp_path / "w.txt"
        graph.write_text("a b\nb c\nc d\nd a\na c\n")
        weights.write_text("a 2\nb 1\nc 1\nd 1\n")
        return ["--graph", str(graph)], str(weights)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Printed the unit-theta answer with exit 0, whatever the file held.
            (["extension", "--model", "global", "--delta", "0.1", "--phi", "0.2", "--theta", "W"],
             "--theta: the global-substitution model is defined for theta = 1"),
            (["extension", "--model", "global", "--delta", "0.1", "--phi", "0.2", "--beta", "0.3"],
             "--beta is not read by the global-substitution model"),
            (["extension", "--model", "global", "--delta", "0.1", "--phi", "0.2",
              "--theta-b", "W"],
             "--theta-b is not read by the global-substitution model"),
            # Exited 0, although the --theta-b file does not exist.
            (["extension", "--model", "congestion", "--delta", "0.1", "--gamma", "0.01",
              "--beta", "0.5", "--phi", "0.3", "--theta-b", "nonexistent"],
             "--beta is not read by the congestion model"),
            (["extension", "--model", "congestion", "--delta", "0.1", "--gamma", "0.01",
              "--phi", "0.3"],
             "--phi is not read by the congestion model"),
            (["extension", "--model", "congestion", "--delta", "0.1", "--gamma", "0.01",
              "--theta-b", "W"],
             "--theta-b is not read by the congestion model"),
            (["extension", "--model", "multi", "--delta", "0.1", "--beta", "0.3",
              "--gamma", "0.01"],
             "--gamma is not read by the multi-activity model"),
            (["extension", "--model", "multi", "--delta", "0.1", "--beta", "0.3", "--phi", "0.2"],
             "--phi is not read by the multi-activity model"),
            # Printed one group.
            (["key-group", "--mode", "greedy", "--k", "2", "--delta", "0.1", "--top", "3"],
             "--top is not read by the greedy search, which reports one group"),
            (["key-group", "--mode", "greedy", "--k", "2", "--delta", "0.1", "--top", "1"],
             "--top is not read by the greedy search, which reports one group"),
        ],
    )
    def test_one_error_line_names_the_flag(self, kite, argv, message):
        graph, weights = kite
        argv = [weights if a == "W" else a for a in argv]
        assert run_cli(argv + graph) == (1, "", f"error: {message}\n")

    def test_exhaustive_search_reports_one_group_by_default(self, kite):
        graph, _ = kite
        argv = ["key-group", "--k", "2", "--delta", "0.1"] + graph
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "") and out.count('"group"') == 1
        assert run_cli(argv + ["--top", "1"]) == (code, out, err)
