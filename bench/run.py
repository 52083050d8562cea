#!/usr/bin/env python3
"""cayleygap benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times set-up in fresh processes, then runs measured passes
over the workload until the next pass would end after S seconds, checks
every output against bench/reference/, and prints the end-to-end metrics,
whose times are at a fixed reference CPU speed (bench/speed.py).
With --trace 1 it alternates untraced and traced passes for S seconds and
prints the per-layer metrics instead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

import os

# Pin BLAS threads before numpy is imported, here and in set-up processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
EIGVALSH_TOL = 1e-12
# Graphs of order 64, 128 and 256 for the per-call spectrum timings.
SPECTRUM_PROBES = (
    (64, "dihedral:32", "auto"),
    (128, "dihedral:64", "auto"),
    (256, "cyclic:256", "±1,±2"),
)

END_TO_END = (
    "setup_s", "pass_s", "slowest_item_s",
    "peak_rss_mib", "ok_rate", "cap_skipped_rows",
)

# Inclusive-time groups: a span counts once, unless an enclosing span is in
# the same group (GroupSpec.build recurses on product factors).
INCLUSIVE = {
    "proof.candidate_s": {"proof.find_candidate_set"},
    "proof.stages_s": {
        "proof.set_property_check", "proof.translate_profile",
        "proof.dichotomy_check", "proof.agreement_set_bounds_check",
        "proof.construct_subgroup", "proof.disjointness_check",
    },
    "spectral.spectrum_s": {"spectral.spectrum"},
    "subgroups.index2_s": {"subgroups.index2_subgroups"},
    "groups.build_s": {"groups.GroupSpec.build"},
    "cayley.build_s": {
        "cayley.build", "cayley.generating_set", "cayley.parse_generators",
    },
    "verify.render_s": {
        "verify.sweep_to_json", "verify.sweep_to_csv", "verify.sweep_to_text",
        "verify.report_to_json", "verify.report_to_csv",
        "verify.report_to_text",
    },
}
SELF = {
    "cheeger.vertex_s": {
        "cheeger.vertex_cheeger", "cheeger.vertex_cheeger_from_masks",
    },
    "cheeger.edge_s": {"cheeger.edge_cheeger"},
    "cheeger.dual_s": {"cheeger.dual_cheeger"},
    "proof.large_set_self_s": {"proof.large_set_expansion_check"},
    "proof.pipeline_self_s": {"proof.run_pipeline"},
    "verify.full_report_self_s": {"verify.full_report"},
}
CALLS_PER_REPORT = {
    "cheeger.vertex_calls_per_report": "cheeger.vertex_cheeger",
    "spectral.spectrum_calls_per_report": "spectral.spectrum",
    "subgroups.index2_calls_per_report": "subgroups.index2_subgroups",
}


def high_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return f"n/a (needs >= 11 samples, have {k})"
    p = 100.0 * (1.0 - 10.0 / k)
    rank = max(0, min(k - 1, int(p / 100.0 * k) - 1))
    return f"p{p:.0f} = {sorted(values)[rank]:.4f}"


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that imports cayleygap and generates the
    workload's inputs, and the same at the reference CPU speed.

    The process times its own work with the speed probe; the rest (starting
    the interpreter, exiting) is scaled by the speed it measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    own = json.loads(proc.stdout.strip().splitlines()[-1])
    rest = max(0.0, wall - own["seconds"])
    return wall, own["reference_seconds"] + rest * own["speed"]


class Checker:
    """Correctness gate over every item of every pass.

    An item fails if it raised, errored or exited non-zero, if its report
    differs from the stored reference, if its output differs from the same
    item's output in an earlier pass of this run (so traced and untraced
    outputs must be identical), or, where eigenvalues are given, if its
    spectrum is more than EIGVALSH_TOL from numpy's eigvalsh.
    """

    def __init__(self, reference: dict, eigvalsh: dict | None = None):
        self.reference = reference["reports"]
        self.eigvalsh = eigvalsh
        self.first_output: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0.0

    def check(self, result) -> None:
        for item_id in result.item_seconds:
            self.attempted += 1
            report = result.reports.get(item_id)
            problems = []
            if item_id in result.errors:
                problems.append(f"{item_id}: {result.errors[item_id]}")
            problems += workloads.check_report(item_id, report, self.reference)
            if report is not None:
                text = json.dumps(report)
                first = self.first_output.setdefault(item_id, text)
                if text != first:
                    problems.append(f"{item_id}: output differs from an earlier pass")
                if self.eigvalsh is not None:
                    t = report["spectrum"]["t"]
                    want = self.eigvalsh[item_id]
                    err = max(abs(a - b) for a, b in zip(t, want))
                    self.max_abs_err = max(self.max_abs_err, err)
                    if len(t) != len(want) or err > EIGVALSH_TOL:
                        problems.append(f"{item_id}: eigvalsh error {err:.3g}")
            if problems:
                self.failed += 1
                for line in problems[:5]:
                    print(f"FAIL {line}", file=sys.stderr)


def run_for(seconds: float, step) -> None:
    """Call step() until the next call would likely end after `seconds`;
    always at least once. step() returns how long its pass took."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + median(durations) > seconds:
            return


def warm_up() -> None:
    """Let lazy initialisation in the interpreter, numpy and the library
    happen before timing, on a graph no workload contains."""
    import cayleygap.verify

    cayleygap.verify.sweep_to_json(cayleygap.verify.sweep(["cyclic:7 gens=±3"]))


def untraced(args) -> tuple[dict, list[str], Checker]:
    probe = speed.SpeedProbe()
    reference = workloads.load_reference(args.workload)
    inputs = workloads.make_inputs(args.workload, args.seed)
    checker = Checker(reference)
    passes, slowest, skipped = [], [], []
    wall_passes = []
    csv_match = []

    def step() -> float:
        result = workloads.run_pass(inputs.next_order())
        checker.check(result)
        wall_passes.append(result.seconds)
        passes.append(probe.seconds(*result.bounds))
        slowest.append(max(probe.seconds(*bounds)
                           for bounds in result.item_bounds.values()))
        skipped.append(sum(workloads.cap_skipped_rows(r)
                           for r in result.reports.values() if r is not None))
        if "csv_sha256" in reference:
            csv_match.append(canonical_csv_sha(inputs, result)
                             == reference["csv_sha256"])
        return result.seconds

    wall_setups, setups = zip(*(time_setup(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS)))
    with probe:
        warm_up()
        run_for(args.seconds, step)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": median(setups),
        "pass_s": median(passes),
        "slowest_item_s": median(slowest),
        "peak_rss_mib": rss_mib,
        "ok_rate": (checker.attempted - checker.failed) / checker.attempted,
        "cap_skipped_rows": median(skipped),
    }
    notes = [
        "times are at the reference CPU speed; the speed kernel took "
        f"{probe.median_cost() * 1e3:.4f} ms (median of {len(probe.costs)}) "
        f"against {speed.REFERENCE_KERNEL_S * 1e3:g} ms at reference speed",
        f"setup_s: median of {len(setups)} fresh processes; "
        f"min {min(setups):.4f}, max {max(setups):.4f}; "
        f"wall-clock median {median(wall_setups):.4f}",
        f"pass_s: median of {len(passes)} passes; quartiles "
        f"{quartiles(passes)}; {high_percentile(passes)}; "
        f"wall-clock median {median(wall_passes):.4f}, quartiles "
        f"{quartiles(wall_passes)}",
        f"slowest_item_s: median over passes of the slowest item; "
        f"max {max(slowest):.4f}",
        f"error_rate: {checker.failed}/{checker.attempted} = "
        f"{checker.failed / checker.attempted:.4g}",
    ]
    if csv_match:
        notes.append("family_sweep CSV sha256 (canonical order) equals the "
                     f"reference: {all(csv_match)} (information, not a gate)")
    return values, notes, checker


def quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def canonical_csv_sha(inputs, result) -> str:
    """sha256 of the pass's CSV with its rows put back in suite order."""
    import cayleygap.verify

    csv = cayleygap.verify.sweep_to_csv(
        [result.sweep_items[item.id] for item in inputs.items])
    return hashlib.sha256(csv.encode()).hexdigest()


def eigvalsh_reference(items) -> dict[str, list[float]]:
    import numpy as np

    from cayleygap.spectral import normalized_adjacency
    from cayleygap.verify import build_graph, parse_sweep_spec

    out = {}
    for item in items:
        if item.spec is not None:
            group, gens = parse_sweep_spec(item.spec)
        else:
            argv = list(item.argv)
            group = argv[argv.index("--group") + 1]
            gens = argv[argv.index("--gens") + 1]
        matrix = np.array(normalized_adjacency(build_graph(group, gens)))
        out[item.id] = [float(x) for x in np.linalg.eigvalsh(matrix)]
    return out


def pass_layer_metrics(spans, reports: dict) -> dict[str, float]:
    """Per-layer numbers for one traced pass."""
    selfs = tracer.self_times(spans)
    out: dict[str, float] = {}
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        layer_self[span.layer] += own
        name_self[span.name] += own
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    for metric, names in SELF.items():
        out[metric] = sum(name_self[name] for name in names)
    for metric, names in INCLUSIVE.items():
        covered = [False] * len(spans)
        total = 0.0
        for i, span in enumerate(spans):
            p = span.parent
            covered[i] = p >= 0 and (covered[p] or spans[p].name in names)
            if span.name in names and not covered[i]:
                total += span.duration
        out[metric] = total
    calls = Counter(span.name for span in spans)
    n_reports = len(reports)
    for metric, name in CALLS_PER_REPORT.items():
        out[metric] = calls[name] / n_reports
    out["cheeger.cap_refusals"] = sum(
        1 for span in spans
        if span.layer == "cheeger" and span.error == "CapExceededError"
        and not (span.parent >= 0 and spans[span.parent].layer == "cheeger"
                 and spans[span.parent].error == "CapExceededError")
    )
    out["trace.spans"] = len(spans)
    return out


def traced(args) -> tuple[dict, list[str], Checker]:
    reference = workloads.load_reference(args.workload)
    inputs = workloads.make_inputs(args.workload, args.seed)
    checker = Checker(reference, eigvalsh_reference(inputs.items))
    # The probe makes traced and untraced passes comparable for
    # trace.overhead; its kernel time (about 1%) falls inside the spans.
    probe = speed.SpeedProbe()
    plain, timed, per_pass, shares = [], [], [], []
    subsets = []
    tr = tracer.Tracer()

    def step() -> float:
        use_trace = len(plain) > len(timed)
        if use_trace:
            with tracer.installed(tr):
                result = workloads.run_pass(inputs.next_order(), tr)
            per_pass.append(pass_layer_metrics(tr.take(), result.reports))
            timed.append(probe.seconds(*result.bounds))
            shares.append({layer: per_pass[-1][f"{layer}.self_s"] / result.seconds
                           for layer in tracer.LAYERS})
        else:
            result = workloads.run_pass(inputs.next_order())
            plain.append(probe.seconds(*result.bounds))
        checker.check(result)
        subsets.append(sum(workloads.large_set_subsets(r)
                           for r in result.reports.values() if r is not None))
        return result.seconds

    with probe:
        warm_up()
        run_for(args.seconds, step)
        if not timed:
            step()
    values = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
    values["proof.large_set_subsets"] = median(subsets)
    values["trace.overhead"] = median(timed) / median(plain)
    values["spectral.max_abs_err"] = checker.max_abs_err
    values.update(spectrum_probe())

    share_text = ", ".join(
        f"{layer} {median([s[layer] for s in shares]):.1%}"
        for layer in tracer.LAYERS
    )
    outside = median([1 - sum(s.values()) for s in shares])
    notes = [
        f"traced passes {len(timed)}, untraced passes {len(plain)}; "
        f"traced pass_s {median(timed):.4f}, untraced {median(plain):.4f} (reference speed)",
        f"self-time share of a traced pass (median): {share_text}; "
        f"outside the library {outside:.1%}",
    ]
    return values, notes, checker


def spectrum_probe() -> dict[str, float]:
    """One untraced spectrum call per probe graph, outside the passes."""
    import cayleygap.spectral
    from cayleygap.verify import build_graph

    out = {}
    for n, group, gens in SPECTRUM_PROBES:
        graph = build_graph(group, gens)
        start = time.perf_counter()
        cayleygap.spectral.spectrum(graph)
        out[f"spectral.spectrum_s_n{n}"] = time.perf_counter() - start
    return out


def load_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cayleygap" / "__init__.py").is_file():
        print(f"error: no cayleygap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    units = load_units()
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, BLAS threads 1, workers 1")
    if args.trace:
        values, notes, checker = traced(args)
        expected = {name for name, unit in units.items()
                    if name not in END_TO_END}
    else:
        values, notes, checker = untraced(args)
        expected = set(END_TO_END)
    if set(values) != expected:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ expected)}")
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    for note in notes:
        print(note)
    correct = checker.failed == 0
    print(f"correctness gate: {'pass' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
