"""Workload inputs, one measured pass, and the correctness gate.

Every item is run single-process (`workers=1`) through the library's own
entry points, looked up on their modules at call time so that the tracer's
wrappers see them:

- a sweep item is `cayleygap.verify.sweep([spec], workers=1)`; after the
  last item the pass renders all its reports with `sweep_to_json` and
  `sweep_to_csv`, inside the timed region;
- a CLI item is `cayleygap.cli.main(argv)` in-process, with stdout and
  stderr captured.

Run as a script (`python3 bench/workloads.py --workload NAME --seed N`) it
imports the library and generates the workload's inputs, then exits; the
benchmark times that in fresh processes as its set-up cost, with the speed
probe of bench/speed.py running in the set-up process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
FLOAT_TOL = 1e-9

# The standard family suite of scripts/run_family_sweep.py, copied so the
# benchmark's inputs stay fixed when that script changes: 39 graphs.
FAMILY_SPECS = (
    "cyclic:3..16 gens=±1",
    "cyclic:3..16 gens=±1,±2",
    "dihedral:3..6 gens=auto",
    "symmetric:3 gens=auto",
    "symmetric:4 gens=auto",
    "symmetric:4 gens=(0 1);(1 2);(2 3)",
    "product:cyclic:2xcyclic:2xcyclic:2 gens=4,2,1",
    "product:cyclic:2xcyclic:2xcyclic:2 gens=4,5,6,7",
    "product:cyclic:3xcyclic:3 gens=3,6,1,2",
    "product:cyclic:2xcyclic:4 gens=4,1,3",
)

# (group, gens, forced zeta or None). The heaviest exact searches under the
# default caps: n = max_dual = 14 for the 3^n dual search, n = 23..24 =
# max_exact for the 2^n searches, and two forced out-of-regime runs that take
# the weighted S'-support search and every pipeline stage.
NEAR_CAP_VERIFY = (
    ("symmetric:4", "auto", None),
    ("symmetric:4", "(0 1);(1 2);(2 3)", None),
    ("cyclic:14", "±1,±2", None),
    ("dihedral:7", "auto", None),
    ("cyclic:24", "±1", None),
    ("dihedral:12", "auto", None),
    ("cyclic:23", "±1,±2", None),
    ("cyclic:23", "±1,±2", "1/2"),
    ("dihedral:11", "auto", "1/2"),
)

# One of these joins near_cap_verify per run, drawn from the seed. All have
# n <= 12, so none reaches a cap and the cap-skipped row count stays fixed.
NEAR_CAP_POOL = (
    ("cyclic:9", "±1,±2", None),
    ("cyclic:10", "±1,±3", None),
    ("cyclic:11", "±1,±2", None),
    ("cyclic:12", "±1,±5", None),
    ("dihedral:5", "auto", None),
    ("dihedral:6", "auto", None),
    ("product:cyclic:2xcyclic:4", "4,1,3", None),
    ("product:cyclic:3xcyclic:3", "3,6,1,2", None),
)

# Every exact search is over its cap here, so the Jacobi spectrum dominates.
SPECTRUM_LARGE = (
    "dihedral:32 gens=auto",
    "symmetric:5 gens=auto",
    "dihedral:64 gens=auto",
    "product:" + "x".join(["cyclic:2"] * 7) + " gens=64,32,16,8,4,2,1",
    "cyclic:256 gens=±1,±2",
)

WORKLOADS = ("family_sweep", "near_cap_verify", "spectrum_large")


@dataclass(frozen=True)
class Item:
    id: str                            # reference key
    spec: str | None = None            # sweep item
    argv: tuple[str, ...] | None = None  # CLI item


def _cli_item(group: str, gens: str, zeta: str | None) -> Item:
    argv = ["verify", "--group", group, "--gens", gens, "--format", "json"]
    label = f"verify {group} gens={gens}"
    if zeta is not None:
        argv += ["--zeta", zeta]
        label += f" zeta={zeta}"
    return Item(id=label, argv=tuple(argv))


def family_items() -> list[Item]:
    from cayleygap.groups import expand_group_specs
    from cayleygap.verify import parse_sweep_spec

    out = []
    for spec in FAMILY_SPECS:
        group_part, gens_part = parse_sweep_spec(spec)
        for single in expand_group_specs(group_part):
            label = f"{single.label()} gens={gens_part}"
            out.append(Item(id=label, spec=label))
    return out


def all_items(workload: str) -> list[Item]:
    """Every item the workload can run, whatever the seed."""
    if workload == "family_sweep":
        return family_items()
    if workload == "near_cap_verify":
        return [_cli_item(*args) for args in NEAR_CAP_VERIFY + NEAR_CAP_POOL]
    if workload == "spectrum_large":
        return [Item(id=spec, spec=spec) for spec in SPECTRUM_LARGE]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Inputs:
    items: list[Item]
    rng: random.Random

    def next_order(self) -> list[Item]:
        """The items in this pass's order, drawn from the seed."""
        return self.rng.sample(self.items, len(self.items))


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(seed)
    if workload == "near_cap_verify":
        items = [_cli_item(*args) for args in NEAR_CAP_VERIFY]
        items.append(_cli_item(*rng.choice(NEAR_CAP_POOL)))
    else:
        items = all_items(workload)
    return Inputs(items, rng)


# ---------------------------------------------------------------------------
# One pass


@dataclass
class PassResult:
    seconds: float
    item_seconds: dict[str, float]
    # perf_counter() readings: the pass's start and end, and each item's.
    bounds: tuple[float, float] = (0.0, 0.0)
    item_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    # Per item: the report as parsed from the rendered output, or None.
    reports: dict[str, dict | None] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    sweep_items: dict = field(default_factory=dict)   # item id -> SweepItem
    csv: str = ""


def run_pass(order: list[Item], tracer=None) -> PassResult:
    """Run the items in order and render; only the library calls and the
    rendering are inside the timed region."""
    import cayleygap.cli
    import cayleygap.verify

    clock = time.perf_counter
    item_bounds: dict[str, tuple[float, float]] = {}
    cli_out: dict[str, tuple[str, int]] = {}
    errors: dict[str, str] = {}
    sweep_items = []
    sweep_ids = []
    t_pass = clock()
    for item in order:
        if tracer is not None:
            tracer.item = item.id
        t_item = clock()
        try:
            if item.argv is not None:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cayleygap.cli.main(list(item.argv))
                cli_out[item.id] = (out.getvalue(), code)
            else:
                sweep_items += cayleygap.verify.sweep([item.spec], workers=1)
                sweep_ids.append(item.id)
        except Exception:
            errors[item.id] = traceback.format_exc()
        item_bounds[item.id] = (t_item, clock())
    if tracer is not None:
        tracer.item = None
    rendered_json = csv = ""
    if sweep_items:
        rendered_json = cayleygap.verify.sweep_to_json(sweep_items)
        csv = cayleygap.verify.sweep_to_csv(sweep_items)
    t_end = clock()

    result = PassResult(t_end - t_pass,
                        {k: b - a for k, (a, b) in item_bounds.items()},
                        (t_pass, t_end), item_bounds, errors=errors,
                        sweep_items=dict(zip(sweep_ids, sweep_items)), csv=csv)
    if sweep_items:
        reports = json.loads(rendered_json)["reports"]
        for item_id, sweep_item, report in zip(sweep_ids, sweep_items, reports):
            if sweep_item.error is not None:
                errors[item_id] = f"sweep error: {sweep_item.error}"
            result.reports[item_id] = report if sweep_item.report else None
    for item_id, (text, code) in cli_out.items():
        if code != 0:
            errors[item_id] = f"exit code {code}"
        try:
            result.reports[item_id] = json.loads(text)
        except json.JSONDecodeError:
            errors.setdefault(item_id, "output is not JSON")
            result.reports[item_id] = None
    return result


# ---------------------------------------------------------------------------
# Correctness gate


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """{"reports": {item id: report}, "csv_sha256": ... (family_sweep)}."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between a report and its reference.

    Everything exact (rationals as num/den, statuses, reasons, flags,
    witnesses and subgroup elements, proof-trace failure) must be equal.
    Floats must agree within FLOAT_TOL, relative to the reference value when
    it exceeds 1 in magnitude.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (got, want))
        if numeric and (got == want or (
                math.isfinite(want)
                and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)))):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def check_report(item_id: str, report: dict | None, reference: dict) -> list[str]:
    """Mismatches of one item's report against the reference reports."""
    if item_id not in reference:
        return [f"{item_id}: no reference"]
    if report is None:
        return [f"{item_id}: no report"]
    return [f"{item_id}{m}" for m in mismatches(report, reference[item_id])]


def cap_skipped_rows(report: dict) -> int:
    return sum(
        1 for row in report["checks"]
        if row["status"] == "skipped" and (row["reason"] or "").startswith("cap:")
    )


def large_set_subsets(report: dict) -> int:
    """Subsets the large-set expansion check tested: all 2^n, or the
    sample size recorded in the row's reason."""
    for row in report["checks"]:
        if row["name"] == "large_set_expansion" and row["status"] != "skipped":
            reason = row["reason"] or ""
            if reason.startswith("sampled:"):
                return int(reason.split(":", 1)[1])
            return 2 ** report["n"]
    return 0


def main(argv: list[str] | None = None) -> int:
    """Set-up: import cayleygap and generate the inputs. Prints one JSON line
    with the wall time from here to the end, the same at the reference CPU
    speed, and the speed factor (reference kernel time / measured)."""
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        parser = argparse.ArgumentParser(
            description="Import cayleygap and generate one workload's inputs.")
        parser.add_argument("--workload", choices=WORKLOADS, required=True)
        parser.add_argument("--seed", type=int, required=True)
        args = parser.parse_args(argv)
        import cayleygap  # noqa: F401  (the import is part of set-up)

        inputs = make_inputs(args.workload, args.seed)
        ok = bool(inputs.next_order())
        end = time.perf_counter()
    print(json.dumps({
        "seconds": end - start,
        "reference_seconds": probe.seconds(start, end),
        "speed": speed.REFERENCE_KERNEL_S / probe.median_cost(),
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
