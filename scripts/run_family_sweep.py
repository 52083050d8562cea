#!/usr/bin/env python3
"""Run the standard family suite through the verification sweep.

`cayleygap sweep` over the 39 graphs of FAMILY_SPECS: all cycles, dihedral
groups, symmetric groups and small abelian products used by the test suite.
It takes every flag of `cayleygap sweep` (--format, --workers, --max-exact,
--max-dual, --zeta, --out); extra sweep items can be appended on the command
line, before or after the flags.
"""

import sys

from cayleygap import cli

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


def main(argv: list[str] | None = None) -> int:
    return cli.main(["sweep", *FAMILY_SPECS, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
