"""Command-line surface: exit codes, formats, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsurgeon import InputError, Network, cli, reference

from .oracle import serialize


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def dyad_file(tmp_path):
    p = tmp_path / "dyad.txt"
    p.write_text("a b\n")
    return str(p)


@pytest.fixture()
def path4_file(tmp_path):
    p = tmp_path / "path4.txt"
    p.write_text("1 2\n2 3\n3 4\n")
    return str(p)


@pytest.fixture()
def reg_file(tmp_path, regular10):
    p = tmp_path / "reg10.txt"
    p.write_text(serialize(regular10))
    return str(p)


class TestCentrality:
    def test_dyad_json(self, dyad_file):
        code, out, err = invoke(["centrality", "--graph", dyad_file, "--delta", "0.25"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["labels"] == ["a", "b"]
        assert payload["b"] == [1.33333, 1.33333]  # six significant digits
        assert payload["aggregate"] == 2.66667

    def test_byte_identical_reruns(self, reg_file):
        argv = ["centrality", "--graph", reg_file, "--delta", "0.2"]
        assert invoke(argv) == invoke(argv)

    def test_csv_format(self, dyad_file):
        code, out, _ = invoke(
            ["centrality", "--graph", dyad_file, "--delta", "0.25", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[0] == "label,b,self_loop\r\n"
        assert lines[1] == "a,1.33333,1.06667\r\n"

    def test_theta_file(self, dyad_file, tmp_path):
        tf = tmp_path / "theta.txt"
        tf.write_text("a 2.0\nb 0.0\n")
        code, out, _ = invoke(
            ["centrality", "--graph", dyad_file, "--delta", "0.25", "--theta", str(tf)]
        )
        assert code == 0
        assert json.loads(out)["b"] == [2.13333, 0.533333]

    def test_theta_file_mismatch(self, dyad_file, tmp_path):
        tf = tmp_path / "theta.txt"
        tf.write_text("a 2.0\nzz 1.0\n")
        code, _, err = invoke(
            ["centrality", "--graph", dyad_file, "--delta", "0.25", "--theta", str(tf)]
        )
        assert code == 1 and "--theta" in err

    def test_theta_duplicate_label(self, dyad_file, tmp_path):
        tf = tmp_path / "theta.txt"
        tf.write_text("a 2.0\na 1.0\nb 1.0\n")
        code, _, err = invoke(
            ["centrality", "--graph", dyad_file, "--delta", "0.25", "--theta", str(tf)]
        )
        assert code == 1 and "duplicate" in err


def load_theta_by_line(text, labels):
    """Reference theta parse: each line's comment cut and split by hand."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"--theta: line {lineno}: expected 'label value'")
        lab, val = parts
        if lab in seen:
            raise InputError(f"--theta: line {lineno}: duplicate label {lab!r}")
        try:
            seen[lab] = float(val)
        except ValueError:
            raise InputError(f"--theta: line {lineno}: bad number {val!r}") from None
        if not np.isfinite(seen[lab]):
            raise InputError(f"--theta: line {lineno}: non-finite number {val!r}")
    missing = [lab for lab in labels if lab not in seen]
    extra = [lab for lab in seen if lab not in labels]
    if missing or extra:
        raise InputError(
            f"--theta: labels do not match the graph (missing {missing}, unknown {extra})"
        )
    return np.array([seen[lab] for lab in labels])


THETA_LINES = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["1", "0.5", "-2e3", "7_0"])),
    st.tuples(st.sampled_from(["a", "b", "e"]), st.sampled_from(["one", "nan", "-inf", "1e999"])),
    st.sampled_from([("a",), ("a", "1", "2"), (), ("# b 1",), ("c", "2", "# 3")]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(THETA_LINES, max_size=7),
    st.lists(st.sampled_from(["\n", "\r\n", "\x0b", "\u2028"]), min_size=7, max_size=7),
    st.sampled_from([" ", "\t", "  "]),
)
def test_theta_file_matches_the_line_loop(tmp_path_factory, lines, breaks, space):
    text = "".join(space.join(parts) + brk for parts, brk in zip(lines, breaks))
    path = tmp_path_factory.getbasetemp() / "theta_by_line.txt"
    path.write_text(text, encoding="utf-8", newline="")
    net = Network.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    try:
        want = load_theta_by_line(text, net.labels)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            cli._load_theta(str(path), net)
        assert str(got.value) == str(exc)
        return
    got = cli._load_theta(str(path), net)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestErrorPaths:
    def test_missing_graph_file(self, tmp_path):
        code, _, err = invoke(
            ["centrality", "--graph", str(tmp_path / "nope.txt"), "--delta", "0.2"]
        )
        assert code == 1 and "error:" in err

    def test_missing_required_flag(self, dyad_file):
        code, _, err = invoke(["centrality", "--graph", dyad_file])
        assert code == 1 and "--delta" in err

    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 1

    def test_delta_past_spectral_bound(self, dyad_file):
        code, _, err = invoke(["centrality", "--graph", dyad_file, "--delta", "1.5"])
        assert code == 1 and "spectral" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["key-group", "--help"])
        assert exc.value.code == 0

    def test_internal_failure_exits_two(self, monkeypatch):
        # a silently wrong frozen value must abort loudly, not print a table
        broken = (("1", 1.1688, 9.9999),) + reference._TABLE1[1:]
        monkeypatch.setattr(reference, "_TABLE1", broken)
        code, out, err = invoke(["reproduce", "--table", "1"])
        assert code == 2
        assert "FAIL" in out and "internal check failed" in err


class TestIntervene:
    def test_structural_json(self, path4_file):
        code, out, _ = invoke(
            [
                "intervene", "--graph", path4_file, "--delta", "0.2",
                "--add", "1,4", "--remove", "2,3",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "labels", "delta_x", "delta_aggregate", "equivalent_delta_theta", "post_b",
        }
        assert payload["labels"] == ["1", "2", "3", "4"]

    def test_dtheta_only(self, path4_file):
        code, out, _ = invoke(
            ["intervene", "--graph", path4_file, "--delta", "0.2", "--dtheta", "2=0.5"]
        )
        assert code == 0
        assert json.loads(out)["delta_aggregate"] > 0

    def test_hybrid_csv_has_aggregate_row(self, path4_file):
        code, out, _ = invoke(
            [
                "intervene", "--graph", path4_file, "--delta", "0.2",
                "--add", "1,3", "--dtheta", "4=-0.1", "--format", "csv",
            ]
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("aggregate_change,")

    def test_nothing_to_do(self, path4_file):
        code, _, err = invoke(["intervene", "--graph", path4_file, "--delta", "0.2"])
        assert code == 1 and "nothing to do" in err

    def test_bad_pair_syntax(self, path4_file):
        code, _, err = invoke(
            ["intervene", "--graph", path4_file, "--delta", "0.2", "--add", "1-4"]
        )
        assert code == 1 and "--add" in err

    def test_illegal_addition(self, path4_file):
        code, _, err = invoke(
            ["intervene", "--graph", path4_file, "--delta", "0.2", "--add", "1,2"]
        )
        assert code == 1


    def test_list_flags_do_not_carry_over_between_runs(self, path4_file):
        # One parser serves every run of the process.
        assert cli.build_parser() is cli.build_parser()
        base = ["intervene", "--graph", path4_file, "--delta", "0.2"]
        code, _, _ = invoke(base + ["--add", "1,3", "--dtheta", "2=0.5"])
        assert code == 0
        code, out, err = invoke(base + ["--dtheta", "1=0.25"])
        assert (code, err) == (0, "")
        assert json.loads(out)["equivalent_delta_theta"] == [0.25, 0.0, 0.0, 0.0]
        args = cli.build_parser().parse_args(base + ["--remove", "1,2"])
        assert (args.add, args.remove, args.dtheta) == ([], ["1,2"], [])

    def test_mixed_change_next_to_the_bound(self, tmp_path):
        # The path 1-2-3 rewired into 1-3-2 at 1 - 2e-9 of the bound, where
        # the local |S| x |S| system alone printed negative equilibria.
        graph = tmp_path / "path3.txt"
        graph.write_text("1 2\n2 3\n")
        delta = (1 - 2e-9) / math.sqrt(2)
        code, out, err = invoke(
            ["intervene", "--graph", str(graph), "--delta", repr(delta),
             "--add", "1,3", "--remove", "1,2"]
        )
        assert (code, err) == (0, "")
        d = Fraction(delta)
        end, middle = (1 + d) / (1 - 2 * d * d), (1 + 2 * d) / (1 - 2 * d * d)
        want = [float(end), float(end), float(middle)]
        assert json.loads(out)["post_b"] == pytest.approx(want, rel=1e-5)


class TestKeyGroup:
    def test_exhaustive_winner(self, reg_file):
        code, out, _ = invoke(
            ["key-group", "--graph", reg_file, "--delta", "0.2", "--k", "2", "--top", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["group"] == ["2", "7"]
        assert payload["results"][0]["intercentrality"] == 10.2941
        assert payload["results"][1]["group"] == ["2", "10"]

    def test_greedy_csv(self, reg_file):
        code, out, _ = invoke(
            [
                "key-group", "--graph", reg_file, "--delta", "0.2",
                "--k", "2", "--mode", "greedy", "--format", "csv",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,group,intercentrality,direct_effect,indirect_effect"
        assert lines[1].startswith("1,1 8,10.2083,")

    def test_thread_cap_respected(self, reg_file, monkeypatch):
        monkeypatch.setenv("NETSURGEON_THREADS", "2")
        argv = ["key-group", "--graph", reg_file, "--delta", "0.2", "--k", "2"]
        code, out, _ = invoke(argv)
        assert code == 0
        monkeypatch.setenv("NETSURGEON_THREADS", "1")
        assert invoke(argv)[1] == out

    def test_thread_variable_is_ignored(self, reg_file, monkeypatch):
        argv = ["key-group", "--graph", reg_file, "--delta", "0.2", "--k", "2"]
        monkeypatch.delenv("NETSURGEON_THREADS", raising=False)
        want = invoke(argv)
        assert want[0] == 0
        for raw in ("1", "2", "zero"):
            monkeypatch.setenv("NETSURGEON_THREADS", raw)
            assert invoke(argv) == want

    def test_bad_top(self, reg_file):
        code, _, err = invoke(
            ["key-group", "--graph", reg_file, "--delta", "0.2", "--k", "2", "--top", "0"]
        )
        assert code == 1 and err == "error: --top must be positive, got 0\n"


class TestKeyBridge:
    def test_winner_json(self, tmp_path, star7, twohub9):
        f1 = tmp_path / "one.txt"
        f2 = tmp_path / "two.txt"
        f1.write_text(serialize(star7))
        f2.write_text(serialize(twohub9))
        code, out, _ = invoke(
            ["key-bridge", "--graph1", str(f1), "--graph2", str(f2), "--delta", "0.25"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"]["i"] == "h" and payload["winner"]["j"] == "a2"
        assert payload["winner"]["index"] == 79.0258
        assert payload["candidates"][1]["j"] == "a1"


class TestLinkValue:
    def test_pair_auto_detects_kind(self, path4_file):
        code, out, _ = invoke(
            ["link-value", "--graph", path4_file, "--delta", "0.2", "--pair", "2,3"]
        )
        assert json.loads(out)["values"][0]["kind"] == "existing"
        code, out, _ = invoke(
            ["link-value", "--graph", path4_file, "--delta", "0.2", "--pair", "1,4"]
        )
        assert json.loads(out)["values"][0]["kind"] == "potential"

    def test_all_existing_ranked(self, path4_file):
        code, out, _ = invoke(
            ["link-value", "--graph", path4_file, "--delta", "0.2", "--all-existing"]
        )
        assert code == 0
        vals = [v["value"] for v in json.loads(out)["values"]]
        assert vals == sorted(vals, reverse=True)
        # middle link outranks the end links on a path
        assert json.loads(out)["values"][0]["i"] == "2"

    def test_all_potential_skips_uncertifiable(self, tmp_path):
        p = tmp_path / "cycle.txt"
        p.write_text("1 2\n2 3\n3 4\n1 4\n")
        code, out, _ = invoke(
            ["link-value", "--graph", str(p), "--delta", "0.49", "--all-potential"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == []
        assert {(s["i"], s["j"]) for s in payload["skipped"]} == {("1", "3"), ("2", "4")}

    def test_modes_are_exclusive(self, path4_file):
        code, _, err = invoke(
            [
                "link-value", "--graph", path4_file, "--delta", "0.2",
                "--pair", "1,2", "--all-existing",
            ]
        )
        assert code == 1


class TestWalks:
    def test_excluded_matrix(self, path4_file):
        code, out, _ = invoke(
            ["walks", "--graph", path4_file, "--delta", "0.2", "--exclude", "2,3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["excluded"] == ["2", "3"]
        assert payload["kept"] == ["1", "4"]
        assert len(payload["kept_kept"]) == 2

    def test_avoidance_block(self, path4_file):
        code, out, _ = invoke(
            ["walks", "--graph", path4_file, "--delta", "0.2", "--from", "1", "--to", "4"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["avoided"] == ["1", "4"]
        assert payload["matrix"][0][0] > 0

    def test_exclude_conflicts_with_endpoints(self, path4_file):
        code, _, err = invoke(
            [
                "walks", "--graph", path4_file, "--delta", "0.2",
                "--exclude", "2", "--from", "1", "--to", "4",
            ]
        )
        assert code == 1
        assert "--exclude" in err

    def test_neither_mode_given(self, path4_file):
        code, _, err = invoke(["walks", "--graph", path4_file, "--delta", "0.2"])
        assert code == 1

    def test_from_requires_to(self, path4_file):
        code, _, err = invoke(
            ["walks", "--graph", path4_file, "--delta", "0.2", "--from", "1"]
        )
        assert code == 1


class TestExtension:
    def test_multi_requires_beta(self, dyad_file):
        code, _, err = invoke(
            ["extension", "--model", "multi", "--graph", dyad_file, "--delta", "0.2"]
        )
        assert code == 1 and "--beta" in err

    def test_multi_with_theta_b(self, dyad_file, tmp_path):
        tb = tmp_path / "tb.txt"
        tb.write_text("a 2.0\nb 1.0\n")
        code, out, _ = invoke(
            [
                "extension", "--model", "multi", "--graph", dyad_file,
                "--delta", "0.2", "--beta", "0.3", "--theta-b", str(tb),
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "multi"
        assert len(payload["activity_a"]) == 2

    def test_congestion_and_global(self, path4_file):
        code, out, _ = invoke(
            [
                "extension", "--model", "congestion", "--graph", path4_file,
                "--delta", "0.2", "--gamma", "0.01",
            ]
        )
        assert code == 0 and json.loads(out)["model"] == "congestion"
        code, out, _ = invoke(
            [
                "extension", "--model", "global", "--graph", path4_file,
                "--delta", "0.2", "--phi", "0.3",
            ]
        )
        assert code == 0 and json.loads(out)["model"] == "global"


class TestReproduce:
    def test_text_report(self):
        code, out, _ = invoke(["reproduce", "--table", "1"])
        assert code == 0
        assert out.startswith("table 1\n")
        assert out.count("ok ") == 6
        assert "all cells pass" in out

    def test_json_report_all_tables(self):
        for table in reference.TABLE_IDS:
            code, out, _ = invoke(["reproduce", "--table", str(table), "--format", "json"])
            assert code == 0
            payload = json.loads(out)
            assert payload["table"] == table
            assert all(cell["ok"] for cell in payload["cells"])

    def test_bad_table_id(self):
        code, _, err = invoke(["reproduce", "--table", "9"])
        assert code == 1


def test_console_script_installed(dyad_file):
    # The child imports the package these tests import, installed or not.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "netsurgeon.cli", "centrality", "--graph", dyad_file, "--delta", "0.25"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["aggregate"] == 2.66667
