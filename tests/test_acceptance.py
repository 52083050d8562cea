"""End-to-end acceptance gate, one test per criterion.

Each test prints a single ACCEPTANCE line (visible under pytest -s or on
failure) and then asserts, so the suite doubles as a checklist. The paper's
inequalities are read off each member's `full_report` rows, which are where
the library decides them.
"""

import math
import time

from cayleygap import (
    index2_subgroups,
    is_bipartite_spectral,
    is_connected,
    run_pipeline,
    sweep,
    sweep_to_json,
    zeta_max,
)

import families
import oracles


def _verdict(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, failures[:5]


def test_acceptance_01_main_bound():
    start = time.monotonic()
    failures = []
    for member in families.MEMBERS:
        summary = families.summary_of(member)
        if not is_connected(summary) or is_bipartite_spectral(summary):
            continue
        row = families.rows_of(member)["main_bound"]
        if not (row.status == "pass" and row.margin > 0):
            failures.append((member.name, row))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime seconds", elapsed))
    _verdict(1, "main_bound", failures)


def test_acceptance_02_eigenvalue_interval():
    failures = []
    for member in families.MEMBERS:
        if member.bipartite:
            continue
        rows = families.rows_of(member)
        for name in ("eigenvalue_interval_lower", "eigenvalue_interval_upper"):
            if rows[name].status != "pass":
                failures.append((member.name, rows[name]))
    _verdict(2, "eigenvalue_interval", failures)


def test_acceptance_03_bipartite_equivalence():
    failures = []
    for member in families.MEMBERS:
        row = families.rows_of(member)["bipartite_equivalence"]
        structural = families.report_of(member).bipartite_structural
        if not (row.status == "pass" and structural == member.bipartite):
            failures.append((member.name, row, structural))
    _verdict(3, "bipartite_equivalence", failures)


def test_acceptance_04_cheeger_buser_vertex_edge():
    failures = []
    for member in families.MEMBERS:
        report = families.report_of(member)
        if report.n > 24:
            continue
        rows = families.rows_of(member)
        for name in ("vertex_edge_lower", "vertex_edge_upper"):
            if rows[name].status != "pass":
                failures.append((member.name, name, report.h, report.edge_h))
        for name in ("cheeger_buser_lower", "cheeger_buser_upper"):
            if rows[name].status != "pass":
                failures.append((member.name, rows[name]))
    _verdict(4, "cheeger_buser_vertex_edge", failures)


def test_acceptance_05_exhaustive_expansion():
    # all 2^n subsets per member: boundary counts are exact integers, the
    # expansion constant an exact rational, so both inequalities are checked
    # without rounding
    failures = []
    for member in families.small(12):
        graph = families.graph_of(member)
        n, d = graph.n, graph.d
        h = families.h_of(member)
        full = (1 << n) - 1
        counts = [oracles.vertex_boundary(graph, a).bit_count() for a in range(1 << n)]
        for a_mask in range(1 << n):
            boundary = counts[a_mask]
            if boundary * d < counts[full ^ a_mask]:
                failures.append((member.name, "internal", a_mask))
                break
            size = a_mask.bit_count()
            if 2 * size >= n and (
                boundary * d * h.denominator < h.numerator * (n - size)
            ):
                failures.append((member.name, "large-set", a_mask))
                break
    _verdict(5, "exhaustive_expansion", failures)


def test_acceptance_06_proof_pipeline():
    failures = []
    for member in families.MEMBERS:
        graph = families.graph_of(member)
        h = families.h_of(member)
        trace = run_pipeline(graph, zeta=zeta_max(h, graph.d))
        if member.bipartite:
            structural = {
                cert
                for cert in index2_subgroups(graph.group)
                if not any(s in cert for s in graph.gens)
            }
            ok = (
                trace.succeeded
                and trace.subgroup is not None
                and trace.subgroup.is_index_two
                and trace.final is not None
                and trace.final.disjoint
                and trace.final.structural_match
                and trace.subgroup.h_set in structural
            )
            if not ok:
                failures.append((member.name, trace.failure))
        elif trace.hypothesis_met:
            failures.append((member.name, "hypothesis unexpectedly met"))
    member = next(
        m for m in families.MEMBERS
        if m.group_spec == "cyclic:6" and m.gens_spec == "±1"
    )
    trace = run_pipeline(families.graph_of(member))
    if trace.subgroup.h_set != (0, 2, 4) or trace.candidate.a_set != (0, 2, 4):
        failures.append(("cyclic:6", trace.candidate, trace.subgroup))
    _verdict(6, "proof_pipeline", failures)


def test_acceptance_07_circulant_oracle():
    failures = []
    for member in families.MEMBERS:
        graph = families.graph_of(member)
        if member.group_spec.startswith("cyclic:"):
            n, d = graph.n, graph.d
            closed_form = sorted(
                sum(math.cos(2 * math.pi * k * s / n) for s in graph.gens) / d
                for k in range(n)
            )
            summary = families.summary_of(member)
            err = max(
                abs(a - b) for a, b in zip(closed_form, summary.t, strict=True)
            )
            if err > 1e-9:
                failures.append((member.name, "closed form", err))
        if not oracles.square_spectrum_consistency(graph, tol=1e-9):
            failures.append((member.name, "squared operator"))
    _verdict(7, "circulant_oracle", failures)


def test_acceptance_08_cheeger_oracle():
    failures = []
    for member in families.small(12):
        graph = families.graph_of(member)
        vertex = families.h_cert_of(member)
        edge = families.edge_h_cert_of(member)
        if oracles.naive_vertex_cheeger(graph.nbr_masks, graph.n) != (
            vertex.value,
            vertex.witness,
        ):
            failures.append((member.name, "vertex"))
        if oracles.naive_edge_cheeger(graph) != (edge.value, edge.witness):
            failures.append((member.name, "edge"))
    _verdict(8, "cheeger_oracle", failures)


def test_acceptance_09_dual_cheeger_sandwich():
    failures = []
    for member in families.small(12):
        dual_h = families.report_of(member).dual_h
        rows = families.rows_of(member)
        for name in ("dual_cheeger_lower", "dual_cheeger_upper",
                     "dual_cheeger_equivalence"):
            if rows[name].status != "pass":
                failures.append((member.name, rows[name]))
        if (dual_h == 1) != member.bipartite:
            failures.append((member.name, "dual=1 iff bipartite", dual_h))
    _verdict(9, "dual_cheeger_sandwich", failures)


def test_acceptance_10_sweep_determinism():
    specs = ["cyclic:3..10 gens=±1", "dihedral:3..5 gens=auto"]
    first = sweep_to_json(sweep(specs)).encode()
    second = sweep_to_json(sweep(specs)).encode()
    failures = [] if first == second else ["sweep JSON differs between runs"]
    _verdict(10, "sweep_determinism", failures)
