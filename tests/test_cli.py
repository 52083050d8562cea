import argparse
import dataclasses
import json
from fractions import Fraction

import pytest

import cayleygap.cheeger
import cayleygap.cli
import cayleygap.verify
from cayleygap import full_report
from cayleygap.cli import main
from cayleygap.verify import CSV_HEADER, build_graph


def _failing_report():
    """A real report with one row turned into a failure."""
    report = full_report(build_graph("cyclic:6", "±1"))
    first = dataclasses.replace(report.checks[0], status="fail")
    return dataclasses.replace(report, checks=(first, *report.checks[1:]))


def test_verify_all_pass(capsys):
    code = main(["verify", "--group", "cyclic:5", "--gens", "±1"])
    out = capsys.readouterr()
    assert code == 0
    assert "main_bound" in out.out
    assert "pass" in out.out
    assert out.err == ""


def test_verify_json(capsys):
    code = main(["verify", "--group", "cyclic:5", "--gens", "±1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["group"] == "cyclic:5"
    assert len(payload["checks"]) == 15


def test_verify_csv(capsys):
    code = main(["verify", "--group", "cyclic:5", "--gens", "±1",
                 "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    report = _failing_report()
    assert not report.all_pass
    monkeypatch.setattr(cayleygap.cli, "full_report",
                        lambda graph, **kwargs: report)
    code = main(["verify", "--group", "cyclic:6", "--gens", "±1"])
    assert code == 1


def test_proof_z6(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1"])
    out = capsys.readouterr()
    assert code == 0
    assert "H = {0, 2, 4}" in out.out
    assert "succeeded: True" in out.out
    assert out.err == ""


def test_proof_expander_exits_zero(capsys):
    code = main(["proof", "--group", "cyclic:5", "--gens", "±1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "hypothesis met: False" in out


def test_proof_csv_stages(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "stage,status"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["hypothesis"] == "met"
    assert table["candidate"] == "ok"
    assert table["dichotomy"] == "ok"
    assert table["subgroup"] == "ok"
    assert table["disjointness"] == "ok"
    assert table["succeeded"] == "true"


def test_proof_json(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    trace = payload["proof_trace"]
    assert trace["succeeded"] is True
    assert trace["subgroup"]["elements"] == [0, 2, 4]


def test_proof_forced_banner(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--zeta", "0.25"])
    out = capsys.readouterr()
    assert code == 0
    assert "forced mode" in out.err
    assert "succeeded: False" in out.out


def test_verify_forced_banner_honours_max_exact(capsys):
    code = main(["verify", "--group", "cyclic:26", "--gens", "±1",
                 "--zeta", "1/1000000", "--max-exact", "30"])
    out = capsys.readouterr()
    assert code == 0
    assert "forced mode" in out.err
    assert "h = 2/13" in out.out


def test_verify_forced_over_cap_prints_skipped_rows(capsys):
    code = main(["verify", "--group", "cyclic:26", "--gens", "±1",
                 "--zeta", "1/1000000"])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    assert "skipped  (cap:max_exact=24,needed=26)" in out.out


def test_verify_forced_on_one_element_group_prints_skipped_rows(capsys):
    argv = ["verify", "--group", "cyclic:1", "--gens", "0", "--zeta"]
    assert main([*argv, "auto"]) == 0
    auto = capsys.readouterr()
    assert main([*argv, "1/2"]) == 0
    forced = capsys.readouterr()
    assert forced == auto
    assert forced.err == ""
    assert "skipped  (no admissible sets: need n >= 2)" in forced.out
    # proof has no report to skip rows in, so the same error ends the run.
    assert main(["proof", *argv[1:], "1/2"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: no admissible sets: need n >= 2\n")


def test_proof_zeta_fraction(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--zeta", "1/1492992"])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    assert "succeeded: True" in out.out


def test_proof_zeta_garbage(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--zeta", "garbage"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: cannot parse zeta")


def test_proof_exit_one_on_in_regime_failure(capsys, monkeypatch):
    # a forced failing trace relabeled as in-regime is a counterexample shape
    from cayleygap import build_graph, run_pipeline

    graph = build_graph("cyclic:5", "±1")
    trace = run_pipeline(graph, zeta=Fraction(1, 4))
    params = dataclasses.replace(trace.params, subgroup_regime=True)
    fake = dataclasses.replace(trace, params=params)
    assert fake.hypothesis_met and not fake.succeeded and not fake.out_of_regime
    monkeypatch.setattr(cayleygap.cli, "run_pipeline",
                        lambda graph, zeta, **kwargs: fake)
    code = main(["proof", "--group", "cyclic:5", "--gens", "±1"])
    assert code == 1


def test_spectrum_text(capsys):
    code = main(["spectrum", "--group", "cyclic:4", "--gens", "±1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "connected = True, bipartite (spectral) = True" in out


def test_spectrum_csv(capsys):
    code = main(["spectrum", "--group", "cyclic:4", "--gens", "±1",
                 "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "index,t,lambda"
    assert len(lines) == 5
    assert lines[1].startswith("0,-1.0")


def test_spectrum_json(capsys):
    code = main(["spectrum", "--group", "cyclic:4", "--gens", "±1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["n"] == 4
    assert payload["bipartite_spectral"] is True
    assert len(payload["spectrum"]["t"]) == 4


def test_spectrum_non_generating(capsys):
    code = main(["spectrum", "--group", "cyclic:6", "--gens", "2,4"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: not generating")
    assert out.out == ""


def test_cheeger_text(capsys):
    code = main(["cheeger", "--group", "cyclic:6", "--gens", "±1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "h = 2/3  witness = (0, 1, 2)" in out
    assert "edge_h = 1/3" in out
    assert "dual_h = 1" in out


def test_cheeger_dual_cap_skip(capsys):
    code = main(["cheeger", "--group", "symmetric:4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "h = 5/6" in out
    assert "dual_h skipped (cap:max_dual=14,needed=24)" in out


def test_cheeger_csv(capsys):
    code = main(["cheeger", "--group", "cyclic:6", "--gens", "±1",
                 "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "quantity,value,witness"
    assert lines[1] == "h,2/3,0 1 2"
    assert lines[3].startswith("dual_h,1,")


def test_cheeger_json(capsys):
    code = main(["cheeger", "--group", "cyclic:6", "--gens", "±1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["h"] == {"num": 2, "den": 3}
    assert payload["h_witness"] == [0, 1, 2]
    assert payload["dual_h_witness"] == [[0, 2, 4], [1, 3, 5]]


_ONE_ELEMENT_CHEEGER = {
    "text": "graph: cyclic:1 gens=0\n"
            "n = 1, d = 1\n"
            "h skipped (no admissible sets: need n >= 2)\n"
            "edge_h skipped (no admissible sets: need n >= 2)\n"
            "dual_h = 0  witness = ((0,), ())\n",
    "csv": "quantity,value,witness\n"
           "h,,no admissible sets: need n >= 2\n"
           "edge_h,,no admissible sets: need n >= 2\n"
           "dual_h,0,0 | \n",
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_cheeger_on_one_element_group_skips_h_and_prints_dual_h(capsys, fmt):
    # n = 1 has no admissible set for h or edge_h, but V1 = {0} is a pair
    # for the dual constant: the rows verify gives on the same graph.
    argv = ["--group", "cyclic:1", "--gens", "0", "--format", fmt]
    assert main(["cheeger", *argv]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    if fmt != "json":
        assert out.out == _ONE_ELEMENT_CHEEGER[fmt]
        return
    payload = json.loads(out.out)
    assert payload == {
        "schema_version": 1, "group": "cyclic:1", "gens": [0], "n": 1, "d": 1,
        "h": None, "h_reason": "no admissible sets: need n >= 2",
        "edge_h": None, "edge_h_reason": "no admissible sets: need n >= 2",
        "dual_h": {"num": 0, "den": 1}, "dual_h_witness": [[0], []],
    }
    assert main(["verify", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dual_h"] == payload["dual_h"]
    assert report["h"] is None


def test_subgroups_dihedral(capsys):
    code = main(["subgroups", "--group", "dihedral:4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "index-2 subgroups: 3" in out
    assert "{0, 2, 5, 7}  disjoint from S: True" in out
    assert "bipartite (structural) = True" in out


def test_subgroups_json(capsys):
    code = main(["subgroups", "--group", "cyclic:5", "--gens", "±1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["index2_subgroups"] == []
    assert payload["bipartite_structural"] is False


def test_sweep_text(capsys):
    code = main(["sweep", "cyclic:3..5 gens=±1"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.count("graph:") == 3
    assert out.err == ""


def test_sweep_csv(capsys):
    code = main(["sweep", "cyclic:3..5 gens=±1", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_sweep_error_item(capsys):
    code = main(["sweep", "cyclic:3 gens=±1", "florble:9", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 2
    assert "error: florble:9:" in out.err
    assert len(out.out.splitlines()) == 2   # header + the one good row


def test_sweep_of_a_huge_range_is_one_error_line(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a member of the range was built")

    monkeypatch.setattr(cayleygap.verify, "build_graph", no_build)
    code = main(["sweep", "cyclic:1..20001"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ("error: cyclic:1..20001: range in 'cyclic:1..20001' "
                       "has 20001 members, more than 10000\n")


def test_missing_table_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "missing.txt"
    code = main(["spectrum", "--group", f"table:{path}", "--gens", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == (
        f"error: cannot read table file {path}: No such file or directory\n")
    assert out.out == ""


def test_sweep_missing_table_file_is_error_item(capsys, tmp_path):
    path = tmp_path / "missing.txt"
    code = main(["sweep", "cyclic:3 gens=±1", f"table:{path} gens=1",
                 "--format", "csv"])
    out = capsys.readouterr()
    assert code == 2
    assert f"error: table:{path} gens=1: cannot read table file" in out.err
    assert len(out.out.splitlines()) == 2   # header + the one good row


def test_sweep_fail_dominates_error(capsys, monkeypatch):
    report = _failing_report()
    assert not report.all_pass
    monkeypatch.setattr(cayleygap.verify, "full_report",
                        lambda graph, **kwargs: report)
    code = main(["sweep", "cyclic:3 gens=±1", "florble:9"])
    assert code == 1


def test_sweep_workers_match(capsys, tmp_path):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert main(["sweep", "cyclic:3..6 gens=±1", "--format", "json",
                 "--out", str(out1)]) == 0
    assert main(["sweep", "cyclic:3..6 gens=±1", "--format", "json",
                 "--workers", "3", "--out", str(out2)]) == 0
    assert capsys.readouterr().out == ""
    assert out1.read_bytes() == out2.read_bytes()


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--group", "cyclic:5", "--gens", "±1",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["group"] == "cyclic:5"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out


def test_missing_group_is_usage_error(capsys):
    assert main(["spectrum"]) == 2
    assert "--group" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["florble"]) == 2


@pytest.mark.parametrize("group,gens,message", [
    ("cyclic:1", "auto", "the trivial group has no generating set"),
    ("dihedral:5001", "auto", "element cap exceeded: problem size 10002 > limit 10000"),
    ("symmetric:3", "(0 5)", "cycle uses point 5 but the group acts on 0..2"),
    ("product:cyclic:2", "auto", "product needs at least two factors: 'product:cyclic:2'"),
    ("perm:(0 0 1)", "1", "repeated point inside a cycle: (0 0 1)"),
    ("perm:(0 a)", "1", "non-integer point in cycle: (0 a)"),
    ("symmetric:3", "(0 x)", "non-integer point in cycle: (0 x)"),
    ("table:", "1", "table spec needs a file path"),
])
def test_spec_error_is_one_error_line(capsys, group, gens, message):
    code = main(["verify", "--group", group, "--gens", gens])
    out = capsys.readouterr()
    assert code == 2
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_bad_group_spec(capsys):
    code = main(["verify", "--group", "florble:9"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error:")


def test_sweep_honours_zeta(capsys):
    main(["verify", "--group", "dihedral:5", "--gens", "auto",
          "--zeta", "1/2", "--format", "json"])
    verified = json.loads(capsys.readouterr().out)
    main(["sweep", "dihedral:5 gens=auto", "--zeta", "1/2", "--format", "json"])
    [swept] = json.loads(capsys.readouterr().out)["reports"]
    assert swept["proof_trace"]["zeta"] == 0.5
    assert swept["proof_trace"]["hypothesis_met"] is True
    assert swept == verified


def _options(command):
    """The option strings and positionals a subcommand accepts, minus -h."""
    parser = cayleygap.cli._build_parser()
    [subs] = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {action.option_strings[-1] if action.option_strings else action.dest
            for action in subs.choices[command]._actions
            if action.dest != "help"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    graph = {"--group", "--gens", "--format", "--out"}
    everything = {"--max-exact", "--max-dual", "--zeta"}
    assert _options("spectrum") == graph
    assert _options("cheeger") == graph | {"--max-exact", "--max-dual"}
    assert _options("subgroups") == graph
    assert _options("proof") == graph | {"--max-exact", "--zeta"}
    assert _options("verify") == graph | everything
    assert _options("sweep") == (
        {"specs", "--workers", "--format", "--out"} | everything)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--group", "cyclic:7", "--zeta", "1/2"],
    ["subgroups", "--group", "cyclic:7", "--tol", "1e-6"],
    ["cheeger", "--group", "cyclic:7", "--zeta", "1/2"],
    ["proof", "--group", "cyclic:7", "--max-dual", "10"],
    ["spectrum", "--group", "cyclic:7", "--tol", "1e-6"],
    ["verify", "--group", "cyclic:7", "--tol", "1e-6"],
    ["sweep", "cyclic:7", "--tol", "1e-6"],
])
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    assert main(["sweep", "cyclic:4", "--workers", workers]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --workers: must be an integer >= 1" in out.err


_CAP_FLAGS = [
    (command, flag)
    for command in ("cheeger", "proof", "verify", "sweep")
    for flag in ("--max-exact", "--max-dual")
    if (command, flag) != ("proof", "--max-dual")   # proof does not read it
]


@pytest.mark.parametrize("command,flag", _CAP_FLAGS,
                         ids=[f"{c}{f}" for c, f in _CAP_FLAGS])
@pytest.mark.parametrize("value", ["0", "-5", "1.5"])
def test_caps_must_be_positive_integers(capsys, command, flag, value):
    graph = (["cyclic:6 gens=±1"] if command == "sweep"
             else ["--group", "cyclic:6", "--gens", "±1"])
    assert main([command, *graph, flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert errors == [
        f"cayleygap {command}: error: argument {flag}: "
        f"must be an integer >= 1, got '{value}'"
    ]


def test_caps_of_one_are_valid(capsys):
    code = main(["verify", "--group", "cyclic:6", "--gens", "±1",
                 "--max-exact", "1", "--max-dual", "1"])
    out = capsys.readouterr()
    assert code == 0
    assert "skipped  (cap:max_exact=1,needed=6)" in out.out
    assert "skipped  (cap:max_dual=1,needed=6)" in out.out


def _must_not_run(*args, **kwargs):
    raise AssertionError("the run started before --out was opened")


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing_dir", "directory"])
def test_unwritable_out_is_one_error_line(capsys, monkeypatch, tmp_path, target):
    monkeypatch.setattr(cayleygap.cli, "build_graph", _must_not_run)
    monkeypatch.setattr(cayleygap.cli, "sweep", _must_not_run)
    path = tmp_path / target
    for command in (["verify", "--group", "cyclic:5", "--gens", "±1"],
                    ["sweep", "cyclic:5"]):
        code = main([*command, "--out", str(path)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith(f"error: cannot write {path}: ")
        assert out.err.count("\n") == 1


def test_out_unwritable_after_the_run_is_one_error_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "report.txt"

    def build_then_block_out(*args):
        path.unlink()
        path.mkdir()        # the final write meets a directory
        return build_graph(*args)

    monkeypatch.setattr(cayleygap.cli, "build_graph", build_then_block_out)
    code = main(["verify", "--group", "cyclic:5", "--gens", "±1", "--out", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert (out.out, out.err) == ("", f"error: cannot write {path}: Is a directory\n")


def test_out_is_left_empty_when_the_run_fails(capsys, tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("stale\n", encoding="utf-8")
    code = main(["verify", "--group", "cyclic:0", "--out", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_text(encoding="utf-8") == ""


def test_zeta_with_zero_denominator_is_input_error(capsys):
    code = main(["proof", "--group", "cyclic:6", "--gens", "±1",
                 "--zeta", "1/0"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == "error: cannot parse zeta value '1/0'\n"


def test_zeta_with_digit_separators():
    # Python 3.10's Fraction rejects '_', so there the fallback reads it; the
    # value is exact on every version.
    assert cayleygap.cli._parse_zeta("0.000_1") == Fraction(1, 10000)


ZETA_COMMANDS = {
    "proof": ["proof", "--group", "cyclic:4", "--gens", "±1"],
    "verify": ["verify", "--group", "cyclic:4", "--gens", "±1"],
    "sweep": ["sweep", "cyclic:4", "cyclic:5"],
}


def _no_search(*args, **kwargs):
    raise AssertionError("a search ran before --zeta was checked")


@pytest.mark.parametrize("zeta", ["0", "-1", "3"])
@pytest.mark.parametrize("command", sorted(ZETA_COMMANDS))
def test_zeta_out_of_range_is_one_error_line(capsys, monkeypatch, command, zeta):
    for name in ("vertex_cheeger", "run_pipeline", "full_report", "sweep"):
        monkeypatch.setattr(cayleygap.cli, name, _no_search)
    code = main(ZETA_COMMANDS[command] + ["--zeta", zeta])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: zeta must lie in (0, 2], got {zeta}\n"


@pytest.mark.parametrize("zeta", ["1e-400", "1/1" + "0" * 400],
                         ids=["1e-400", "1/10^400"])
@pytest.mark.parametrize("command", sorted(ZETA_COMMANDS))
def test_zeta_that_rounds_to_zero_is_one_error_line(capsys, monkeypatch,
                                                    command, zeta):
    # The exact value is in (0, 2], but the proof parameters are floats.
    runs = []
    search = cayleygap.cheeger._vertex_search

    def counted(*args, **kwargs):
        runs.append(None)
        return search(*args, **kwargs)

    monkeypatch.setattr(cayleygap.cheeger, "_vertex_search", counted)
    code = main(ZETA_COMMANDS[command] + ["--zeta", zeta])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: zeta {zeta} rounds to 0.0 as a float\n"
    assert runs == []


@pytest.mark.parametrize("command", sorted(ZETA_COMMANDS))
def test_zeta_two_is_valid(capsys, command):
    code = main(ZETA_COMMANDS[command] + ["--zeta", "2", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0
    assert "error" not in out.err
    assert out.out.startswith("stage,status\n" if command == "proof" else CSV_HEADER)


ELEMENT_CAP_LINE = "element cap exceeded: problem size {} > limit 10000"


@pytest.mark.parametrize("argv,needed", [
    (["verify", "--group", "cyclic:10001"], 10001),
    (["spectrum", "--group", "perm:(0 1 2 3 4 5 6 7);(0 1)"], 10001),
    (["spectrum", "--group", "product:cyclic:200xcyclic:60"], 12000),
])
def test_element_cap_is_one_error_line(capsys, argv, needed):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: {ELEMENT_CAP_LINE.format(needed)}\n"


def test_sweep_element_cap_is_one_error_item(capsys):
    code = main(["sweep", "cyclic:10001"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == f"error: cyclic:10001: {ELEMENT_CAP_LINE.format(10001)}\n"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_parser_per_call(monkeypatch):
    monkeypatch.setattr(cayleygap.cli, "_build_parser",
                        cayleygap.cli._build_parser.__wrapped__)


def test_parser_is_built_once_per_process(capsys):
    cayleygap.cli._build_parser.cache_clear()
    for argv in (
        ["verify", "--group", "cyclic:5", "--gens", "±1"],
        ["verify", "--group", "cyclic:5", "--max-exact", "0"],
        ["spectrum", "--group", "cyclic:4", "--format", "csv"],
        ["subgroups", "--group", "dihedral:3"],
        ["cheeger", "--group", "cyclic:4", "--format", "json"],
    ):
        main(argv)
    capsys.readouterr()
    assert cayleygap.cli._build_parser.cache_info().misses == 1


def test_usage_errors_leave_the_shared_parser_as_a_fresh_one(capsys, monkeypatch):
    # The unread --tol fails after --max-exact 3 was parsed; a value leaking
    # into the shared parser would skip rows of the default-cap run.
    runs = (
        ["verify", "--group", "cyclic:6", "--max-exact", "0"],
        ["verify", "--group", "cyclic:6", "--max-exact", "3", "--tol", "1"],
        ["verify", "--gens", "±1"],
        ["verify", "--help"],
        ["verify", "--group", "cyclic:6", "--gens", "±1", "--format", "json"],
    )
    monkeypatch.setenv("COLUMNS", "80")
    shared = [_run(capsys, argv) for argv in runs]
    assert [code for code, _, _ in shared] == [2, 2, 2, 0, 0]
    _fresh_parser_per_call(monkeypatch)
    assert [_run(capsys, argv) for argv in runs] == shared


@pytest.mark.parametrize("command", [[], *([c] for c in cayleygap.cli.COMMANDS)],
                         ids=["top", *cayleygap.cli.COMMANDS])
def test_help_of_the_shared_parser_matches_a_fresh_one(capsys, monkeypatch, command):
    # Help is laid out for the width at the time it is printed, not at the
    # time the shared parser was built.
    monkeypatch.setenv("COLUMNS", "200")
    cayleygap.cli._build_parser.cache_clear()
    cayleygap.cli._build_parser()
    monkeypatch.setenv("COLUMNS", "60")
    shared = _run(capsys, [*command, "--help"])
    _fresh_parser_per_call(monkeypatch)
    assert _run(capsys, [*command, "--help"]) == shared
