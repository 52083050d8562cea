#!/usr/bin/env python3
"""Scan how loose the spectral-gap bound is across non-bipartite graphs.

For each graph the tightness ratio is the observed gap 2 - lambda_n divided
by the guaranteed gap h^4 / (2^9 d^6 (d+1)^2); it is at least 1 whenever the
bound holds, and its growth shows how conservative the constant is. Odd
cycles are the natural scan axis: h shrinks like 1/n while the observed gap
shrinks like 1/n^2, so the ratio grows polynomially.
"""

import argparse
import csv
import sys

from cayleygap import CayleyGapError, build_graph, expand_group_specs, full_report

DEFAULT_SPECS = ["cyclic:3..23", "dihedral:3..7", "product:cyclic:3xcyclic:3"]
DEFAULT_GENS = {"dihedral": "auto", "product": "3,6,1,2"}

COLUMNS = ["graph", "n", "d", "h", "lambda_n", "margin", "tightness"]


def scan_rows(specs: list[str]) -> list[dict]:
    rows = []
    for spec in specs:
        for single in expand_group_specs(spec):
            kind = single.label().split(":", 1)[0]
            gens = DEFAULT_GENS.get(kind)
            report = full_report(build_graph(single.label(), gens))
            if report.tightness is None:
                continue
            main = next(row for row in report.checks if row.name == "main_bound")
            rows.append(
                {
                    "graph": f"{single.label()} gens="
                    + ",".join(str(s) for s in report.gens),
                    "n": report.n,
                    "d": report.d,
                    "h": str(report.h),
                    "lambda_n": f"{report.summary.lambda_max:.12f}",
                    "margin": f"{main.margin:.6g}",
                    "tightness": f"{report.tightness:.6g}",
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "specs", nargs="*", default=DEFAULT_SPECS,
        help="group specs to scan (ranges allowed; graphs without a tightness "
        "ratio, i.e. bipartite or over the exact cap, skipped)",
    )
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    args = parser.parse_args(argv)

    try:
        rows = scan_rows(args.specs)
    except (CayleyGapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        return 0

    widths = {
        key: max([len(key), *(len(str(row[key])) for row in rows)])
        for key in COLUMNS
    }
    print("  ".join(key.ljust(widths[key]) for key in COLUMNS))
    for row in rows:
        print("  ".join(str(row[key]).ljust(widths[key]) for key in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
