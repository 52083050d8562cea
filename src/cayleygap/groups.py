"""Finite groups as dense multiplication tables with 0-based element indices.

Element 0 is always the identity. Constructors canonicalise the indexing
(rotation-first for dihedral groups, BFS discovery order for permutation
groups) so that element indices are reproducible across runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ElementCapError,
    GroupValidationError,
    SpecParseError,
)

ELEMENT_CAP = 10_000
# Full associativity validation is O(n^3); it runs only up to this order.
ASSOCIATIVITY_LIMIT = 512


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Concrete finite group: ``mult[a][b]`` is the index of the product a*b.

    A constructor that knows the group's structure records it, and nothing
    else (not ``name``) is read for it:

    - ``radices`` = (m_1, ..., m_k) for Z/m_1 x ... x Z/m_k, where the
      element with digits (a_1, ..., a_k) has the mixed-radix index
      (...(a_1 m_2 + a_2) m_3 + ...) m_k + a_k;
    - ``dihedral`` = m for D_m numbered as in from_dihedral.

    Groups built any other way record neither.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int = 0
    perms: tuple[tuple[int, ...], ...] | None = None
    name: str = ""
    radices: tuple[int, ...] = ()
    dihedral: int | None = None


def _inverses_from_table(mult: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(mult)
    inv = [-1] * n
    for a in range(n):
        for b in range(n):
            if mult[a][b] == 0 and mult[b][a] == 0:
                inv[a] = b
                break
        if inv[a] < 0:
            raise GroupValidationError(f"element {a} has no two-sided inverse")
    return tuple(inv)


def validate_axioms(group: FiniteGroup) -> None:
    """Raise GroupValidationError unless `group` satisfies all group axioms.

    Associativity is the expensive part; it is checked exhaustively only for
    order <= ASSOCIATIVITY_LIMIT.
    """
    n = group.order
    if n < 1:
        raise GroupValidationError(f"order must be positive, got {n}")
    if len(group.mult) != n or any(len(row) != n for row in group.mult):
        raise GroupValidationError("multiplication table is not n x n")
    for a in range(n):
        for b in range(n):
            v = group.mult[a][b]
            if not 0 <= v < n:
                raise GroupValidationError(
                    f"table entry mult[{a}][{b}] = {v} outside 0..{n - 1}"
                )
    if group.identity != 0:
        raise GroupValidationError("identity must sit at index 0")
    for a in range(n):
        if group.mult[0][a] != a or group.mult[a][0] != a:
            raise GroupValidationError(f"index 0 does not act as identity on {a}")
    if len(group.inv) != n:
        raise GroupValidationError("inverse array has wrong length")
    for a in range(n):
        b = group.inv[a]
        if not 0 <= b < n or group.mult[a][b] != 0 or group.mult[b][a] != 0:
            raise GroupValidationError(f"inv[{a}] = {b} is not a two-sided inverse")

    if n <= ASSOCIATIVITY_LIMIT:
        m = np.array(group.mult, dtype=np.int64)
        for a in range(n):
            left = m[m[a]]          # left[b, c] = (a*b)*c
            right = m[a][m]         # right[b, c] = a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise GroupValidationError(
                    f"associativity fails at triple ({a}, {b}, {c}): "
                    f"(a*b)*c = {int(left[b, c])}, a*(b*c) = {int(right[b, c])}"
                )


def from_cyclic(n: int) -> FiniteGroup:
    """Additive group of integers mod n; element k is the residue k."""
    if n < 1:
        raise GroupValidationError(f"cyclic order must be >= 1, got {n}")
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(n, mult, inv, name=f"cyclic:{n}", radices=(n,))


def from_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m.

    Indices 0..m-1 are the rotations r^a, indices m..2m-1 the reflections
    r^a s, with s r s = r^-1.
    """
    if m < 2:
        raise GroupValidationError(f"dihedral parameter must be >= 2, got {m}")
    n = 2 * m
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)

    def idx(a: int, b: int) -> int:
        return a % m + (b % 2) * m

    mult_rows = []
    for x in range(n):
        a, b = x % m, x // m
        row = []
        for y in range(n):
            c, e = y % m, y // m
            if b == 0:
                row.append(idx(a + c, e))
            else:
                row.append(idx(a - c, 1 + e))
        mult_rows.append(tuple(row))
    mult = tuple(mult_rows)
    inv = _inverses_from_table(mult)
    return FiniteGroup(n, mult, inv, name=f"dihedral:{m}", dihedral=m)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p * q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(q)))


def cycle_string(perm: Sequence[int]) -> str:
    """Cycle-notation label for a permutation, 'e' for the identity."""
    k = len(perm)
    seen = [False] * k
    parts = []
    for start in range(k):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) or "e"


def from_permutations(
    generators: Sequence[Sequence[int]], *, name: str = ""
) -> FiniteGroup:
    """Closure of the given permutations under composition, by BFS from the identity.

    Element 0 is the identity permutation; discovery order fixes the indexing.
    At most ELEMENT_CAP elements are generated.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    if not gens:
        raise GroupValidationError("at least one generator permutation is required")
    k = len(gens[0])
    for g in gens:
        if len(g) != k:
            raise GroupValidationError("generator permutations act on different point sets")
        if sorted(g) != list(range(k)):
            raise GroupValidationError(f"{g} is not a bijection on 0..{k - 1}")

    identity = tuple(range(k))
    perms: list[tuple[int, ...]] = [identity]
    index: dict[tuple[int, ...], int] = {identity: 0}
    head = 0
    while head < len(perms):
        cur = perms[head]
        head += 1
        for g in gens:
            nxt = _compose(g, cur)
            if nxt not in index:
                if len(perms) >= ELEMENT_CAP:
                    raise ElementCapError("element", ELEMENT_CAP, len(perms) + 1)
                index[nxt] = len(perms)
                perms.append(nxt)

    n = len(perms)
    mult = tuple(
        tuple(index[_compose(perms[a], perms[b])] for b in range(n)) for a in range(n)
    )
    inv = _inverses_from_table(mult)
    return FiniteGroup(n, mult, inv, perms=tuple(perms), name=name or "permutation")


def from_symmetric(k: int) -> FiniteGroup:
    """Full symmetric group on k points, generated by all transpositions."""
    if k < 1:
        raise GroupValidationError(f"symmetric parameter must be >= 1, got {k}")
    if k == 1:
        return from_permutations([(0,)], name="symmetric:1")
    gens = []
    for i in range(k):
        for j in range(i + 1, k):
            t = list(range(k))
            t[i], t[j] = t[j], t[i]
            gens.append(tuple(t))
    return from_permutations(gens, name=f"symmetric:{k}")


def from_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; the pair (a, b) gets index a * |G2| + b, so a product
    of two groups that both record radices has the radices of both, in order."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    m1, m2 = g1.mult, g2.mult
    mult_rows = []
    for x in range(n):
        a1, b1 = divmod(x, n2)
        row1 = m1[a1]
        row2 = m2[b1]
        mult_rows.append(
            tuple(row1[y // n2] * n2 + row2[y % n2] for y in range(n))
        )
    mult = tuple(mult_rows)
    inv = tuple(g1.inv[x // n2] * n2 + g2.inv[x % n2] for x in range(n))
    name = f"product:{g1.name or '?'}x{g2.name or '?'}"
    radices = g1.radices + g2.radices if g1.radices and g2.radices else ()
    return FiniteGroup(n, mult, inv, name=name, radices=radices)


def from_table(text: str, *, name: str = "table") -> FiniteGroup:
    """Parse a Cayley-table file: first line n, then n rows of n indices.

    Row and column 0 must be the identity. All axioms are validated
    (associativity up to ASSOCIATIVITY_LIMIT).
    """
    tokens_per_line = [ln.split() for ln in text.splitlines()]
    lines = [toks for toks in tokens_per_line if toks]
    if not lines:
        raise GroupValidationError("empty table file")
    if len(lines[0]) != 1:
        raise GroupValidationError("first line must contain exactly the order n")
    try:
        n = int(lines[0][0])
    except ValueError as exc:
        raise GroupValidationError(f"order is not an integer: {lines[0][0]!r}") from exc
    if n < 1:
        raise GroupValidationError(f"order must be positive, got {n}")
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    if len(lines) != n + 1:
        raise GroupValidationError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for i, toks in enumerate(lines[1:]):
        if len(toks) != n:
            raise GroupValidationError(f"row {i} has {len(toks)} entries, expected {n}")
        try:
            row = tuple(int(t) for t in toks)
        except ValueError as exc:
            raise GroupValidationError(f"row {i} contains a non-integer entry") from exc
        rows.append(row)
    mult = tuple(rows)
    for a in range(n):
        for b in range(n):
            if not 0 <= mult[a][b] < n:
                raise GroupValidationError(
                    f"table entry mult[{a}][{b}] = {mult[a][b]} outside 0..{n - 1}"
                )
    inv = _inverses_from_table(mult)
    group = FiniteGroup(n, mult, inv, name=name)
    validate_axioms(group)
    return group


def load_table(path: str | Path) -> FiniteGroup:
    p = Path(path)
    return from_table(p.read_text(), name=f"table:{p}")


# ---------------------------------------------------------------------------
# Spec strings


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group descriptor; `build()` constructs the group."""

    family: str
    n: int | None = None
    factors: tuple["GroupSpec", ...] = ()
    generators: tuple[tuple[int, ...], ...] = ()
    path: str | None = None

    def label(self) -> str:
        if self.family == "product":
            return "product:" + "x".join(f.label() for f in self.factors)
        if self.family == "permutation":
            return "perm:" + ";".join(cycle_string(g) for g in self.generators)
        if self.family == "table":
            return f"table:{self.path}"
        return f"{self.family}:{self.n}"

    def build(self) -> FiniteGroup:
        if self.family == "cyclic":
            return from_cyclic(self.n)
        if self.family == "dihedral":
            return from_dihedral(self.n)
        if self.family == "symmetric":
            return from_symmetric(self.n)
        if self.family == "product":
            group = self.factors[0].build()
            for factor in self.factors[1:]:
                group = from_direct_product(group, factor.build())
            return group
        if self.family == "permutation":
            return from_permutations(self.generators, name=self.label())
        if self.family == "table":
            return load_table(self.path)
        raise SpecParseError(f"unknown family {self.family!r}")


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse cycle notation like '(0 1 2)(3 4)'; commas also separate points.

    Cycles are applied left to right. With no explicit degree the permutation
    acts on 0..max_point.
    """
    body = text.strip()
    if body in ("e", "()", ""):
        if degree is None:
            raise SpecParseError("identity permutation needs an explicit degree")
        return tuple(range(degree))
    chunks = _CYCLE_RE.findall(body)
    if not chunks or _CYCLE_RE.sub("", body).strip():
        raise SpecParseError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in chunks:
        pts = [int(t) for t in re.split(r"[,\s]+", chunk.strip()) if t]
        if len(pts) < 2:
            raise SpecParseError(f"cycle needs at least two points: ({chunk})")
        if len(set(pts)) != len(pts):
            raise SpecParseError(f"repeated point inside a cycle: ({chunk})")
        if any(p < 0 for p in pts):
            raise SpecParseError(f"negative point in cycle: ({chunk})")
        cycles.append(pts)
    k = max(p for cyc in cycles for p in cyc) + 1
    if degree is not None:
        if k > degree:
            raise SpecParseError(
                f"cycle uses point {k - 1} but the group acts on 0..{degree - 1}"
            )
        k = degree
    perm = list(range(k))
    for cyc in cycles:
        step = list(range(k))
        for i, p in enumerate(cyc):
            step[p] = cyc[(i + 1) % len(cyc)]
        perm = [step[perm[i]] for i in range(k)]
    return tuple(perm)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse one group spec: cyclic:N | dihedral:M | symmetric:K |
    product:<spec>x<spec>[x...] | perm:<cycles;...> | table:<path>.
    """
    body = text.strip()
    if ":" not in body:
        raise SpecParseError(f"group spec needs 'family:params': {text!r}")
    family, rest = body.split(":", 1)
    family = family.strip().lower()
    if family in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(rest)
        except ValueError as exc:
            raise SpecParseError(f"{family} parameter must be an integer: {rest!r}") from exc
        return GroupSpec(family, n=n)
    if family == "product":
        parts = rest.split("x")
        if len(parts) < 2:
            raise SpecParseError(f"product needs at least two factors: {text!r}")
        # Re-join pieces so factors like 'cyclic:2' survive the split on 'x'.
        factors = []
        buf: list[str] = []
        for part in parts:
            buf.append(part)
            candidate = "x".join(buf)
            try:
                factors.append(parse_group_spec(candidate))
                buf = []
            except SpecParseError:
                continue
        if buf or len(factors) < 2:
            raise SpecParseError(f"cannot parse product factors in {text!r}")
        return GroupSpec("product", factors=tuple(factors))
    if family == "perm":
        gens = [parse_permutation(p) for p in rest.split(";") if p.strip()]
        if not gens:
            raise SpecParseError(f"perm spec needs at least one permutation: {text!r}")
        k = max(len(g) for g in gens)
        gens = [tuple(g) + tuple(range(len(g), k)) for g in gens]
        return GroupSpec("permutation", generators=tuple(gens))
    if family == "table":
        if not rest.strip():
            raise SpecParseError("table spec needs a file path")
        return GroupSpec("table", path=rest.strip())
    raise SpecParseError(f"unknown group family {family!r}")


_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def expand_group_specs(text: str) -> list[GroupSpec]:
    """Like parse_group_spec but with range sugar, e.g. cyclic:3..16."""
    body = text.strip()
    if ":" in body:
        family, rest = body.split(":", 1)
        m = _RANGE_RE.match(rest.strip())
        if m and family.strip().lower() in ("cyclic", "dihedral", "symmetric"):
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise SpecParseError(f"empty range in {text!r}")
            return [GroupSpec(family.strip().lower(), n=k) for k in range(lo, hi + 1)]
    return [parse_group_spec(body)]


def default_generators(spec: GroupSpec, group: FiniteGroup) -> tuple[int, ...]:
    """Family defaults used for gens=auto: cyclic {1, -1}; dihedral
    {r, r^-1, s}; symmetric: all transpositions.
    """
    if spec.family == "cyclic":
        if group.order < 2:
            raise SpecParseError("the trivial group has no generating set")
        return tuple(sorted({1, group.inv[1]}))
    if spec.family == "dihedral":
        m = spec.n
        return tuple(sorted({1, (m - 1) % m, m}))
    if spec.family == "symmetric":
        if group.perms is None or group.order < 2:
            raise SpecParseError("no default generators for symmetric:1")
        k = len(group.perms[0])
        index = {p: i for i, p in enumerate(group.perms)}
        out = []
        for i in range(k):
            for j in range(i + 1, k):
                t = list(range(k))
                t[i], t[j] = t[j], t[i]
                out.append(index[tuple(t)])
        return tuple(sorted(out))
    raise SpecParseError(f"gens=auto is not defined for family {spec.family!r}")
