#!/usr/bin/env python3
"""Run the standard family suite through the verification sweep.

Produces one verification report per graph (JSON, CSV, or text) covering all
cycles, dihedral groups, symmetric groups, and small abelian products used by
the test suite. Extra sweep items can be appended on the command line.
"""

import argparse
import sys

from cayleygap import sweep, sweep_to_csv, sweep_to_json, sweep_to_text
from cayleygap.cli import _positive_int, write_output

FAMILY_SPECS = [
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
]

RENDERERS = {"json": sweep_to_json, "csv": sweep_to_csv, "text": sweep_to_text}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("extra", nargs="*", help="additional sweep items")
    parser.add_argument("--format", choices=sorted(RENDERERS), default="text")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="parallel workers, at least 1 (default: 1)")
    parser.add_argument("--out", help="write here instead of stdout")
    args = parser.parse_args(argv)

    # Create --out before the sweep, so an unwritable path fails at once.
    if args.out and not write_output(args.out, ""):
        return 2
    items = sweep(FAMILY_SPECS + args.extra, workers=args.workers)
    rendered = RENDERERS[args.format](items)
    if not args.out:
        sys.stdout.write(rendered)
    elif not write_output(args.out, rendered):
        return 2

    errors = [item for item in items if item.error is not None]
    fails = [
        item
        for item in items
        if item.report is not None and not item.report.all_pass
    ]
    for item in errors:
        print(f"error: {item.spec}: {item.error}", file=sys.stderr)
    for item in fails:
        print(f"failed checks: {item.spec}", file=sys.stderr)
    print(
        f"{len(items)} graphs, {len(fails)} with failed checks, "
        f"{len(errors)} errors",
        file=sys.stderr,
    )
    return 1 if fails else (2 if errors else 0)


if __name__ == "__main__":
    raise SystemExit(main())
