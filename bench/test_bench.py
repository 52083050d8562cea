"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

They check that the correctness gate rejects a perturbed reference, that the
tracer's wrappers reach every binding and leave outputs unchanged, and that
the traced call counts per report are the ones bench/README.md states.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def item(workload: str, item_id: str) -> workloads.Item:
    (found,) = [it for it in workloads.all_items(workload) if it.id == item_id]
    return found


def traced_pass(items):
    tr = tracer.Tracer()
    with tracer.installed(tr):
        result = workloads.run_pass(items, tr)
    return result, tr.take()


def calls_per_item(spans, name: str) -> Counter:
    return Counter(span.item for span in spans if span.name == name)


@pytest.fixture(scope="module")
def family_reference():
    return workloads.load_reference("family_sweep")


def test_reference_accepts_own_output_and_rejects_perturbations(family_reference):
    item_id = "cyclic:5 gens=±1"
    result = workloads.run_pass([item("family_sweep", item_id)])
    reference = family_reference["reports"]
    report = result.reports[item_id]
    assert not result.errors
    assert workloads.check_report(item_id, report, reference) == []

    bad_h = copy.deepcopy(reference)
    bad_h[item_id]["h"]["num"] += 1
    assert workloads.check_report(item_id, report, bad_h)

    bad_status = copy.deepcopy(reference)
    row = bad_status[item_id]["checks"][1]
    row["status"] = "fail" if row["status"] == "pass" else "pass"
    assert workloads.check_report(item_id, report, bad_status)

    bad_float = copy.deepcopy(reference)
    bad_float[item_id]["spectrum"]["t"][0] += 1e-7
    assert workloads.check_report(item_id, report, bad_float)

    close_float = copy.deepcopy(reference)
    close_float[item_id]["spectrum"]["t"][0] += 1e-12
    assert workloads.check_report(item_id, report, close_float) == []


def test_every_drawable_item_has_a_reference():
    for workload in workloads.WORKLOADS:
        reference = workloads.load_reference(workload)["reports"]
        ids = {it.id for it in workloads.all_items(workload)}
        assert ids == set(reference)


def test_reference_cap_skipped_rows():
    expected = {"family_sweep": 18, "near_cap_verify": 21, "spectrum_large": 49}
    for workload, count in expected.items():
        reference = workloads.load_reference(workload)["reports"]
        for seed in (0, 1, 2):
            items = workloads.make_inputs(workload, seed).items
            total = sum(workloads.cap_skipped_rows(reference[it.id]) for it in items)
            assert total == count


def test_seed_fixes_inputs_and_order():
    a = workloads.make_inputs("near_cap_verify", 7)
    b = workloads.make_inputs("near_cap_verify", 7)
    assert a.items == b.items
    assert [a.next_order() for _ in range(3)] == [b.next_order() for _ in range(3)]
    assert len(a.items) == len(workloads.NEAR_CAP_VERIFY) + 1
    orders = {tuple(it.id for it in workloads.make_inputs("family_sweep", s).next_order())
              for s in range(5)}
    assert len(orders) == 5


def test_wrappers_reach_every_binding_and_are_removed():
    import cayleygap
    import cayleygap.cheeger
    import cayleygap.cli
    import cayleygap.proof
    import cayleygap.subgroups
    import cayleygap.verify

    original = cayleygap.cheeger.vertex_cheeger
    bindings = (
        (cayleygap, "vertex_cheeger"),
        (cayleygap.cheeger, "vertex_cheeger"),
        (cayleygap.proof, "vertex_cheeger"),
        (cayleygap.verify, "vertex_cheeger"),
        (cayleygap.cli, "vertex_cheeger"),
        (cayleygap.cli, "index2_subgroups"),
        (cayleygap.proof, "index2_subgroups"),
        (cayleygap.subgroups, "index2_subgroups"),
        (cayleygap.verify, "full_report"),
    )
    with tracer.installed(tracer.Tracer()):
        for module, name in bindings:
            assert hasattr(getattr(module, name), "__wrapped__"), (module, name)
    for module, name in bindings:
        assert not hasattr(getattr(module, name), "__wrapped__"), (module, name)
    assert cayleygap.proof.vertex_cheeger is original


def test_tracing_leaves_outputs_unchanged():
    items = [
        item("family_sweep", "symmetric:3 gens=auto"),
        item("family_sweep", "cyclic:15 gens=±1,±2"),
        item("near_cap_verify", "verify dihedral:11 gens=auto zeta=1/2"),
    ]
    plain = workloads.run_pass(items)
    traced, spans = traced_pass(items)
    assert spans
    assert not plain.errors and not traced.errors
    assert json.dumps(plain.reports) == json.dumps(traced.reports)
    assert plain.csv == traced.csv


def test_traced_call_counts_per_report():
    sweep_ids = ["cyclic:5 gens=±1", "dihedral:4 gens=auto",
                 "product:cyclic:2xcyclic:4 gens=4,1,3"]
    cli_ids = ["verify dihedral:6 gens=auto"]
    forced_ids = ["verify dihedral:11 gens=auto zeta=1/2"]
    large_ids = ["dihedral:32 gens=auto"]
    items = ([item("family_sweep", i) for i in sweep_ids]
             + [item("near_cap_verify", i) for i in cli_ids + forced_ids]
             + [item("spectrum_large", i) for i in large_ids])
    result, spans = traced_pass(items)
    assert not result.errors

    vertex = calls_per_item(spans, "cheeger.vertex_cheeger")
    spectra = calls_per_item(spans, "spectral.spectrum")
    for item_id in sweep_ids + cli_ids:
        assert (vertex[item_id], spectra[item_id]) == (3, 2), item_id
    for item_id in forced_ids:
        assert (vertex[item_id], spectra[item_id]) == (4, 2), item_id
    for item_id in large_ids:
        assert (vertex[item_id], spectra[item_id]) == (1, 1), item_id

    metrics = run.pass_layer_metrics(spans, result.reports)
    total_vertex = 3 * len(sweep_ids + cli_ids) + 4 + 1
    assert metrics["cheeger.vertex_calls_per_report"] == total_vertex / len(items)
    # dual_cheeger on n = 22 (max_dual 14); vertex and dual on n = 64.
    assert metrics["cheeger.cap_refusals"] == 3
    assert abs(sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
               - sum(span.duration for span in spans if span.parent < 0)) < 1e-6


def test_self_times_subtract_direct_children():
    spans = [
        tracer.Span("verify.full_report", 0.0, 10.0, -1, "x", None),
        tracer.Span("cheeger.vertex_cheeger", 1.0, 4.0, 0, "x", None),
        tracer.Span("cheeger.vertex_cheeger_from_masks", 1.5, 3.5, 1, "x", None),
        tracer.Span("spectral.spectrum", 5.0, 6.0, 0, "x", None),
    ]
    assert tracer.self_times(spans) == [6.0, 1.0, 2.0, 1.0]


def test_speed_probe_integrates_work_at_each_sampled_speed():
    probe = speed.SpeedProbe()
    # Kernels of cost 1 at [0, 1] and cost 2 at [11, 13].
    probe.starts, probe.ends, probe.costs = [0.0, 11.0], [1.0, 13.0], [1.0, 2.0]
    # [1, 11] at cost 1, the probe's [11, 13] left out, [13, 23] at cost 2.
    assert probe.work(1.0, 23.0) == pytest.approx(10.0 + 5.0)
    assert probe.work(5.0, 7.0) == pytest.approx(2.0)
    assert probe.work(14.0, 15.0) == pytest.approx(0.5)
    assert probe.seconds(5.0, 7.0) == pytest.approx(2.0 * speed.REFERENCE_KERNEL_S)


def test_speed_probe_samples_while_active():
    with speed.SpeedProbe(interval=0.005) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(probe.costs) >= 10
    assert all(cost > 0 for cost in probe.costs)
    # Outside the probe's own time the loop ran at the sampled speeds.
    busy = sum(min(e, end) - max(s, start)
               for s, e in zip(probe.starts, probe.ends) if s < end and e > start)
    expected = (end - start - busy) / probe.median_cost()
    assert probe.work(start, end) == pytest.approx(expected, rel=0.5)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "family_sweep", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["cap_skipped_rows"]["value"] == 18
