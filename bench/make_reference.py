#!/usr/bin/env python3
"""Regenerate the stored reference reports under bench/reference/.

Runs every item each workload can draw, once, in canonical order, and stores
the reports as the library renders them. For family_sweep it also stores the
sha256 of the sweep CSV in canonical order. Regenerate only when a change is
meant to alter results, and say so in CHANGES.md.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        result = workloads.run_pass(workloads.all_items(workload))
        if result.errors:
            for item_id, error in result.errors.items():
                print(f"{workload}: {item_id}: {error}", file=sys.stderr)
            return 1
        payload = {"workload": workload, "reports": result.reports}
        if workload == "family_sweep":
            payload["csv_sha256"] = hashlib.sha256(result.csv.encode()).hexdigest()
        with open(workloads.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(result.reports)} reports, {result.seconds:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
