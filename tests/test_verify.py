import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cayleygap
from cayleygap import (
    build_graph,
    full_report,
    main_bound_constant,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_text,
)
from cayleygap.cheeger import MAX_DUAL_DEFAULT
from cayleygap.spectral import normalized_adjacency
from cayleygap.verify import (
    CHECK_NAMES,
    CSV_HEADER,
    parse_sweep_spec,
    report_csv_row,
    report_json_dict,
    report_text_lines,
)

import families
import oracles


def _row(report, name):
    for row in report.checks:
        if row.name == name:
            return row
    raise KeyError(name)


def test_main_bound_constant():
    assert main_bound_constant(1) == 2048
    assert main_bound_constant(2) == 294912
    with pytest.raises(ValueError):
        main_bound_constant(0)


def test_interval_check_direct():
    report = families.report_of(families.MEMBERS[2])   # cyclic:5 gens=±1
    lower = _row(report, "eigenvalue_interval_lower")
    upper = _row(report, "eigenvalue_interval_upper")
    assert lower.status == upper.status == "pass"
    assert lower.margin == pytest.approx(0.1909796147830386, rel=1e-12)
    assert upper.margin == pytest.approx(0.5659830056250525, rel=1e-12)


_PASS = ("pass", None)
_NO_SETS = ("skipped", "no admissible sets: need n >= 2")
_OVER_EXACT = ("skipped", "cap:max_exact=24,needed=25")
_OVER_DUAL = ("skipped", "cap:max_dual=14,needed=25")


@pytest.mark.parametrize("spec,gens,rows", [
    # single vertex: no nontrivial eigenvalues and no admissible set for h,
    # but dual_h = 0 is decided
    ("cyclic:1", "0", {
        "connectivity": _PASS,
        "main_bound": _NO_SETS,
        "eigenvalue_interval_lower": _NO_SETS,
        "eigenvalue_interval_upper": _NO_SETS,
        "cheeger_buser_lower": _NO_SETS,
        "cheeger_buser_upper": _NO_SETS,
        "vertex_edge_lower": _NO_SETS,
        "vertex_edge_upper": _NO_SETS,
        "dual_cheeger_lower": _PASS,
        "dual_cheeger_upper": _PASS,
        "dual_cheeger_equivalence": _PASS,
        "large_set_expansion": _NO_SETS,
        "bipartite_equivalence": _PASS,
        "proof_pipeline": _NO_SETS,
        "tightness_ratio": _NO_SETS,
    }),
    # odd and over both caps: the gap rows are skipped, not not_applicable
    ("cyclic:25", "±1", {
        "connectivity": _PASS,
        "main_bound": _OVER_EXACT,
        "eigenvalue_interval_lower": _OVER_EXACT,
        "eigenvalue_interval_upper": _OVER_EXACT,
        "cheeger_buser_lower": _OVER_EXACT,
        "cheeger_buser_upper": _OVER_EXACT,
        "vertex_edge_lower": _OVER_EXACT,
        "vertex_edge_upper": _OVER_EXACT,
        "dual_cheeger_lower": _OVER_DUAL,
        "dual_cheeger_upper": _OVER_DUAL,
        "dual_cheeger_equivalence": _OVER_DUAL,
        "large_set_expansion": _OVER_EXACT,
        "bipartite_equivalence": _PASS,
        "proof_pipeline": _OVER_EXACT,
        "tightness_ratio": _OVER_EXACT,
    }),
])
def test_full_report_row_table(spec, gens, rows):
    report = full_report(build_graph(spec, gens))
    assert {row.name: (row.status, row.reason) for row in report.checks} == rows
    assert [row.name for row in report.checks] == list(CHECK_NAMES)
    for row in report.checks:
        if row.status == "skipped":
            assert row.margin is None


def test_tightness_ratio_values():
    report = families.report_of(families.MEMBERS[0])   # cyclic:3 gens=±1
    assert report.tightness == 9216.0
    assert _row(report, "tightness_ratio").margin == 9215.0
    assert _row(report, "tightness_ratio").status == "pass"
    assert families.report_of(families.MEMBERS[2]).tightness == pytest.approx(
        56323.1801548955, rel=1e-12
    )
    report = families.report_of(families.MEMBERS[3])   # cyclic:6 gens=±1
    assert report.tightness is None
    assert _row(report, "tightness_ratio").reason == "bipartite"


def test_full_report_z5_all_pass():
    report = families.report_of(families.MEMBERS[2])   # cyclic:5 gens=±1
    assert report.group_label == "cyclic:5"
    assert report.gens == (1, 4)
    assert report.all_pass
    assert report.failed == ()
    assert [row.name for row in report.checks] == list(CHECK_NAMES)
    assert _row(report, "main_bound").margin == pytest.approx(
        0.1909796147830387, rel=1e-12
    )
    assert _row(report, "proof_pipeline").reason == "hypothesis not met"
    assert _row(report, "tightness_ratio").margin == pytest.approx(
        report.tightness - 1.0, rel=1e-12
    )
    assert report.tightness == pytest.approx(56323.1801548955, rel=1e-12)
    assert not report.bipartite_spectral
    assert report.bipartite_structural is False


def test_full_report_z6_bipartite_rows():
    report = families.report_of(families.MEMBERS[3])   # cyclic:6 gens=±1
    assert report.all_pass
    for name in ("main_bound", "eigenvalue_interval_lower",
                 "eigenvalue_interval_upper", "tightness_ratio"):
        row = _row(report, name)
        assert row.status == "not_applicable"
        assert row.reason == "bipartite"
        assert row.margin is None
    assert _row(report, "cheeger_buser_lower").status == "pass"
    assert _row(report, "dual_cheeger_lower").margin == pytest.approx(0.0, abs=1e-12)
    assert _row(report, "proof_pipeline").status == "pass"
    assert report.tightness is None
    assert report.trace is not None and report.trace.succeeded
    assert report.bipartite_spectral and report.bipartite_structural


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_full_report_family_passes(member):
    report = families.report_of(member)
    assert report.all_pass, [r for r in report.failed]
    assert len(report.checks) == len(CHECK_NAMES)
    bip = report.bipartite_structural
    assert bip == member.bipartite
    if member.bipartite:
        assert _row(report, "main_bound").status == "not_applicable"
    else:
        assert _row(report, "main_bound").status == "pass"
        assert report.tightness is not None and report.tightness >= 1.0
    # dual Cheeger is exact up to max_dual, and dual = 1 iff bipartite
    assert (report.dual_h is None) == (report.n > MAX_DUAL_DEFAULT)
    if report.dual_h is not None:
        assert (report.dual_h == 1) == member.bipartite


def test_full_report_forced_zeta():
    report = full_report(build_graph("cyclic:6", "±1"), zeta=Fraction(1, 4))
    row = _row(report, "proof_pipeline")
    assert row.status == "not_applicable"
    assert row.reason == "out_of_regime"
    assert report.all_pass
    assert report.trace.out_of_regime


def test_full_report_dual_cap():
    report = full_report(build_graph("symmetric:4", "auto"))
    for name in ("dual_cheeger_lower", "dual_cheeger_upper",
                 "dual_cheeger_equivalence"):
        row = _row(report, name)
        assert row.status == "skipped"
        assert row.reason == "cap:max_dual=14,needed=24"
    assert report.dual_h is None
    # transposition generators are odd, so this graph is bipartite
    assert _row(report, "main_bound").status == "not_applicable"
    assert report.all_pass


def test_json_schema_shape():
    report = families.report_of(families.MEMBERS[2])
    payload = report_json_dict(report)
    assert list(payload) == [
        "schema_version", "group", "gens", "n", "d", "h", "edge_h", "dual_h",
        "spectrum", "bipartite", "checks", "proof_trace",
    ]
    assert payload["schema_version"] == 1
    assert payload["group"] == "cyclic:5"
    assert payload["gens"] == [1, 4]
    assert payload["h"] == {"num": 1, "den": 1}
    assert payload["edge_h"] == {"num": 1, "den": 2}
    assert payload["dual_h"] == {"num": 4, "den": 5}
    assert len(payload["spectrum"]["t"]) == 5
    assert payload["bipartite"] == {"spectral": False, "structural": False}
    assert len(payload["checks"]) == 15
    assert set(payload["checks"][0]) == {"name", "status", "margin", "reason"}
    trace = payload["proof_trace"]
    assert trace["hypothesis_met"] is False
    assert trace["succeeded"] is False
    assert trace["candidate"] is None
    # everything must survive a JSON round trip unchanged
    assert json.loads(json.dumps(payload, indent=2)) == payload


def test_json_trace_shape_bipartite():
    report = families.report_of(families.MEMBERS[3])
    trace = report_json_dict(report)["proof_trace"]
    assert trace["hypothesis_met"] is True
    assert trace["succeeded"] is True
    assert trace["candidate"]["a_set"] == [0, 2, 4]
    assert trace["subgroup"]["elements"] == [0, 2, 4]
    assert trace["subgroup"]["is_index_two"] is True
    assert trace["final"]["disjoint"] is True
    assert trace["final"]["structural_match"] is True
    assert trace["dichotomy"]["valid"] is True
    assert trace["agreement_bounds_ok"] is True
    assert trace["eps"] == {"num": 2, "den": 3}


def test_json_deterministic():
    graph1 = build_graph("cyclic:5", "±1")
    graph2 = build_graph("cyclic:5", "±1")
    first = json.dumps(report_json_dict(full_report(graph1)), indent=2)
    assert first == json.dumps(report_json_dict(full_report(graph2)), indent=2)


def test_csv_row_shape():
    report = families.report_of(families.MEMBERS[2])
    row = report_csv_row(report)
    assert "\n" not in row
    parsed = next(csv.reader(io.StringIO(row)))
    assert len(parsed) == len(CSV_HEADER.split(",")) == 10
    assert parsed[0] == "cyclic:5 gens=1,4"
    assert parsed[1] == "5"
    assert parsed[2] == "2"
    assert parsed[3] == "1"
    assert parsed[4] == "1/2"
    assert parsed[7] == "false"
    assert float(parsed[8]) == pytest.approx(0.1909796147830387, rel=1e-12)
    # the graph label contains a comma, so the raw field must be quoted
    assert row.startswith('"cyclic:5 gens=1,4",')


def test_csv_bipartite_empty_cells():
    report = families.report_of(families.MEMBERS[3])
    parsed = next(csv.reader(io.StringIO(report_csv_row(report))))
    assert parsed[7] == "true"
    assert parsed[8] == ""   # main bound margin
    assert parsed[9] == ""   # tightness


def test_text_report_mentions_every_check():
    report = families.report_of(families.MEMBERS[2])
    text = "\n".join(report_text_lines(report))
    for name in CHECK_NAMES:
        assert name in text
    assert "tightness ratio" in text


def test_parse_sweep_spec():
    assert parse_sweep_spec("cyclic:5 gens=±1") == ("cyclic:5", "±1")
    assert parse_sweep_spec("cyclic:5") == ("cyclic:5", None)
    assert parse_sweep_spec("  dihedral:4 gens=auto ") == ("dihedral:4", "auto")


def test_build_graph_defaults():
    graph = build_graph("cyclic:5", None)
    assert graph.gens == (1, 4)
    assert build_graph("cyclic:5", "auto").gens == (1, 4)
    assert build_graph("symmetric:3", "auto").d == 3
    assert build_graph("cyclic:6", "±1").n == 6


def test_sweep_range_expansion():
    items = sweep(["cyclic:3..16 gens=±1"])
    assert len(items) == 14
    assert [item.spec for item in items] == [
        f"cyclic:{n} gens=±1" for n in range(3, 17)
    ]
    for item, n in zip(items, range(3, 17)):
        assert item.error is None
        assert item.report.n == n
        assert item.report.all_pass
        assert item.report.bipartite_spectral == (n % 2 == 0)


def test_sweep_workers_identical():
    specs = ["cyclic:3..8 gens=±1", "dihedral:3 gens=auto"]
    serial = sweep(specs, workers=1)
    parallel = sweep(specs, workers=3)
    assert sweep_to_json(serial) == sweep_to_json(parallel)
    assert sweep_to_csv(serial) == sweep_to_csv(parallel)


@pytest.mark.parametrize("specs,pool_sizes", [
    ([], []),
    (["cyclic:3 gens=±1"], []),                     # one task: in-process
    (["cyclic:3..4 gens=±1"], [2]),
    (["cyclic:3..5 gens=±1", "florble:9"], [4]),   # errors are tasks too
])
def test_sweep_starts_no_more_workers_than_tasks(monkeypatch, specs, pool_sizes):
    sizes = []

    class RecordingPool:
        """Records the pool size asked for, and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    items = sweep(specs, workers=500)
    assert sizes == pool_sizes
    assert sweep_to_json(items) == sweep_to_json(sweep(specs))


def test_import_leaves_out_the_process_pool():
    # A fresh interpreter, as this one has imported concurrent.futures; it
    # imports the same cayleygap as this one.
    code = ("import sys, cayleygap; print(sorted(m for m in sys.modules"
            " if m.startswith(('concurrent', 'multiprocessing'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cayleygap.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_sweep_records_errors():
    items = sweep(["florble:7", "cyclic:5 gens=7,8", "cyclic:4 gens=±1"])
    assert items[0].report is None and items[0].error is not None
    assert items[1].report is None and "outside" in items[1].error
    assert items[2].report is not None

    payload = json.loads(sweep_to_json(items))
    assert payload["schema_version"] == 1
    assert len(payload["reports"]) == 3
    assert payload["reports"][0]["error"] == items[0].error
    assert payload["reports"][2]["group"] == "cyclic:4"

    lines = sweep_to_csv(items).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2   # only the successful report

    text = sweep_to_text(items)
    assert "error:" in text


def test_sweep_records_the_expansion_error():
    # the spec's own error, not the one parsing '5..3' as an integer gives
    items = sweep(["cyclic:5..3 gens=±1", "cyclic:3"])
    assert [(item.spec, item.error) for item in items] == [
        ("cyclic:5..3 gens=±1", "empty range in 'cyclic:5..3'"),
        ("cyclic:3", None),
    ]


def test_sweep_empty():
    assert sweep([]) == []
    assert sweep_to_csv([]) == CSV_HEADER + "\n"
    assert json.loads(sweep_to_json([])) == {"schema_version": 1, "reports": []}


def _same_but_floats(ours, ref, path: str = "report") -> None:
    """Equal structure, strings, ints, bools and None; floats within
    1e-12 max(1, |ref|), the benchmark's rule."""
    if isinstance(ours, float) or isinstance(ref, float):
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref)), path
    elif isinstance(ours, dict):
        assert ours.keys() == ref.keys(), path
        for key in ours:
            _same_but_floats(ours[key], ref[key], f"{path}.{key}")
    elif isinstance(ours, list):
        assert len(ours) == len(ref), path
        for i, (x, y) in enumerate(zip(ours, ref)):
            _same_but_floats(x, y, f"{path}[{i}]")
    else:
        assert ours == ref, path


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_family_report_is_the_dense_report(member, monkeypatch):
    # Each family report read from the characters or the cyclic-subgroup
    # blocks has every row status, reason and exact field of the report read
    # from numpy's eigenvalues of the dense T, which share no code with
    # either path.
    ours = report_json_dict(families.report_of(member))
    for path in ("_character_eigenvalues", "_coset_eigenvalues"):
        monkeypatch.setattr(
            cayleygap.spectral, path,
            lambda graph: oracles.numpy_eigs(normalized_adjacency(graph)))
    dense = full_report(build_graph(member.group_spec, member.gens_spec))
    _same_but_floats(ours, report_json_dict(dense))


_ABOVE_CAPS = [
    ("dihedral:32", "auto"),
    ("symmetric:5", "auto"),
    ("dihedral:64", "auto"),
    ("product:" + "x".join(["cyclic:2"] * 7), "64,32,16,8,4,2,1"),
    ("cyclic:256", "±1,±2"),
]


@pytest.mark.parametrize("group_spec,gens_spec", _ABOVE_CAPS)
def test_report_above_the_caps_leaves_mult_unbuilt(group_spec, gens_spec):
    # Above the exact caps a report reads only the numpy table; the tuple
    # table is built on first read of `mult`, so it must still be missing.
    graph = build_graph(group_spec, gens_spec)
    full_report(graph)
    assert "mult" not in vars(graph.group)


@pytest.mark.parametrize("group_spec,gens_spec", [
    ("symmetric:6", "auto"),
    ("product:cyclic:2xdihedral:256", "1,255,256,512"),
])
def test_spectrum_above_the_caps_leaves_mult_unbuilt(group_spec, gens_spec):
    graph = build_graph(group_spec, gens_spec)
    cayleygap.spectrum(graph)
    assert "mult" not in vars(graph.group)
