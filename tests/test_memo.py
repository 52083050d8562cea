"""The per-graph memo: each engine runs once per graph object, caps are
re-checked on every call, and separately built graphs share nothing."""

import json
from collections import Counter
from fractions import Fraction

import pytest

import cayleygap.cheeger
import cayleygap.proof
import cayleygap.spectral
import cayleygap.subgroups
from cayleygap import (
    CapExceededError,
    build_graph,
    dual_cheeger,
    edge_cheeger,
    full_report,
    is_bipartite_structural,
    spectrum,
    vertex_cheeger,
)
from cayleygap.cli import main

# The index-2 enumeration runs only in proof.disjointness_check, through its
# own binding of index2_subgroups; both bindings count as the one engine.
# Likewise _crossing_search counts the edge search (cheeger's binding) and the
# proof's S'-weighted search (proof's). spectral._summary runs once per graph
# on both the character path and the dense solver's.
ENGINES = (
    (cayleygap.cheeger, "_vertex_search"),
    (cayleygap.cheeger, "_crossing_search"),
    (cayleygap.proof, "_crossing_search"),
    (cayleygap.spectral, "_summary"),
    (cayleygap.subgroups, "index2_subgroups"),
    (cayleygap.proof, "index2_subgroups"),
)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counter of runs of the h search, the crossing search, the spectrum and
    the index-2 enumeration (the engines behind the memoised public
    functions)."""
    runs = Counter()
    for module, name in ENGINES:
        def counted(*args, _name=name, _engine=getattr(module, name), **kwargs):
            runs[_name] += 1
            return _engine(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return runs


def _once_each():
    return Counter({name: 1 for _, name in ENGINES})


def test_full_report_runs_each_engine_once(engine_runs):
    report = full_report(build_graph("symmetric:4", "auto"))
    # The proof reaches its last stage with H disjoint from S, where
    # disjointness_check reads the index-2 list. The S'-weighted candidate is
    # the index-2 coset, so only the edge search runs _crossing_search.
    assert report.trace.final.disjoint
    assert report.trace.final.structural_match
    assert engine_runs == _once_each()


def test_cli_verify_runs_each_engine_once(engine_runs, capsys):
    code = main(["verify", "--group", "dihedral:5", "--gens", "auto",
                 "--zeta", "1/2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["proof_trace"]["zeta"] == 0.5
    # D5 with a rotation in S is not bipartite, so the proof never reaches
    # the disjointness cross-check and the enumeration does not run. At
    # zeta = 1/2 the hypothesis holds, so the S'-weighted search runs once
    # besides the edge search.
    assert payload["proof_trace"]["hypothesis_met"]
    assert engine_runs == Counter(_vertex_search=1, _crossing_search=2, _summary=1)


def test_cli_cheeger_computes_no_spectrum(engine_runs, capsys):
    # The cheeger command prints no spectrum and passes none to the edge
    # search, which then runs without the spectral floor.
    assert main(["cheeger", "--group", "symmetric:4", "--gens", "auto"]) == 0
    assert "edge_h = 1/3" in capsys.readouterr().out
    assert engine_runs == Counter(_vertex_search=1, _crossing_search=1)


def test_cli_verify_takes_the_parity_pass_once(monkeypatch, capsys):
    # Both full_report and the proof's candidate search ask a bipartite
    # graph for its <S·S> certificate, which one breadth-first pass gives;
    # the graph's memo keeps it. The dual search takes its seed from the
    # same routine through cheeger's own binding, which is not counted here.
    calls = []
    parity_pair = cayleygap.subgroups._parity_pair

    def counted(masks):
        calls.append(len(masks))
        return parity_pair(masks)

    monkeypatch.setattr(cayleygap.subgroups, "_parity_pair", counted)
    assert main(["verify", "--group", "cyclic:8", "--gens", "±1"]) == 0
    assert "structural = True" in capsys.readouterr().out
    assert calls == [8]


def test_weighted_search_runs_only_when_the_hypothesis_holds(engine_runs):
    graph = build_graph("dihedral:5", "auto")
    assert not full_report(graph).trace.hypothesis_met
    assert engine_runs["_crossing_search"] == 1   # the edge search
    assert full_report(graph, zeta=Fraction(1, 2)).trace.hypothesis_met
    assert engine_runs["_crossing_search"] == 2   # plus the S'-weighted search


def test_caps_hold_across_memo_hits(monkeypatch):
    graph = build_graph("cyclic:8", "±1")
    for call, cap in ((vertex_cheeger, "max_exact"), (edge_cheeger, "max_exact"),
                      (dual_cheeger, "max_dual")):
        first = call(graph, **{cap: graph.n})
        assert call(graph, **{cap: graph.n}) is first
        with pytest.raises(CapExceededError) as exc:
            call(graph, **{cap: graph.n - 1})
        assert exc.value.needed == graph.n
    monkeypatch.setattr(cayleygap.spectral, "MAX_SPECTRUM", graph.n)
    first = spectrum(graph)
    assert spectrum(graph) is first
    monkeypatch.setattr(cayleygap.spectral, "MAX_SPECTRUM", graph.n - 1)
    with pytest.raises(CapExceededError) as exc:
        spectrum(graph)
    assert exc.value.needed == graph.n


def test_separate_graphs_share_no_memo(engine_runs):
    first = build_graph("dihedral:4", "auto")
    second = build_graph("dihedral:4", "auto")
    for graph in (first, second):
        vertex_cheeger(graph)
        edge_cheeger(graph)
        spectrum(graph)
        is_bipartite_structural(graph)
    # is_bipartite_structural takes one closure and runs no enumeration.
    assert engine_runs == Counter(_vertex_search=2, _crossing_search=2, _summary=2)


def test_failed_computation_is_not_stored():
    graph = build_graph("cyclic:1", "0")
    calls = []

    def compute():
        calls.append(None)
        if len(calls) == 1:
            raise ValueError("first attempt fails")
        return "value"

    with pytest.raises(ValueError):
        graph.memo("key", compute)
    assert graph.memo("key", compute) == "value"
    assert graph.memo("key", compute) == "value"
    assert len(calls) == 2
    with pytest.raises(ValueError):
        vertex_cheeger(graph)
    with pytest.raises(ValueError):
        vertex_cheeger(graph)

