"""Finite groups as dense multiplication tables with 0-based element indices.

Element 0 is always the identity. Constructors canonicalise the indexing
(rotation-first for dihedral groups, BFS discovery order for permutation
groups) so that element indices are reproducible across runs.

Each constructor builds its table once, as a read-only n x n numpy array,
and every reader that runs above the exact-search caps gathers from it. The
same table as tuples of Python ints, which the exact searches index in their
tight loops, is built from it on first read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

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
    """Concrete finite group: ``table[a, b]`` is the index of the product a*b.

    ``table`` is an ``np.intp`` array of shape (n, n), made read-only here.
    ``mult`` is the same table as tuples of Python ints, frozen from it on
    first read, and ``inv`` holds Python ints too: never numpy integers, so
    that ``1 << mult[a][b]`` builds an exact bitmask for any order (a shift
    by a numpy integer wraps past bit 63).

    A constructor that knows an abelian subgroup A of index 1 or 2 records
    it, and nothing else (not ``name``) is read for it. ``abelian`` =
    (m_1, ..., m_k) says that elements 0..|A|-1 form A = Z/m_1 x ... x Z/m_k,
    the element with digits (a_1, ..., a_k) having the mixed-radix index
    (...(a_1 m_2 + a_2) m_3 + ...) m_k + a_k, and that |A| is the order or
    half of it. Groups built any other way record ``()``.
    """

    order: int
    table: np.ndarray
    inv: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...] | None = None
    name: str = ""
    abelian: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.table.flags.writeable = False

    def __reduce__(self):
        # Unpickling calls the constructor, so __post_init__ makes the table
        # read-only again, and `mult` is frozen on first read, not pickled.
        return type(self), (self.order, self.table, self.inv, self.perms,
                            self.name, self.abelian)

    @cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """The table as tuples of Python ints (``tolist`` converts each
        entry), row by row, so no nested list of the whole table is held."""
        return tuple(tuple(row.tolist()) for row in self.table)


def _first(bad: np.ndarray) -> int:
    """Flat index of the first True entry in row-major order, or -1."""
    return int(np.argmax(bad)) if bad.any() else -1


def _outside(values: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the entries outside 0..n-1. An object array (entries
    too large for 64 bits) compares them as Python ints."""
    return ((values < 0) | (values >= n)).astype(bool)


def _inverses(table: np.ndarray) -> tuple[int, ...]:
    """For each a, the first b with table[a, b] == table[b, a] == 0."""
    zero = table == 0
    two_sided = zero & zero.T
    missing = _first(~two_sided.any(axis=1))
    if missing >= 0:
        raise GroupValidationError(f"element {missing} has no two-sided inverse")
    return tuple(np.argmax(two_sided, axis=1).tolist())


def _checked_array(table: np.ndarray, n: int) -> np.ndarray:
    """The n x n `table` as an np.intp array, after checking that every entry
    lies in 0..n-1; the first entry outside, in row-major order, is the one
    reported. An object array (entries too large for 64 bits) is checked as
    Python ints."""
    k = _first(_outside(table, n))
    if k >= 0:
        a, b = divmod(k, n)
        raise GroupValidationError(
            f"table entry mult[{a}][{b}] = {table[a, b]} outside 0..{n - 1}"
        )
    return table.astype(np.intp, copy=False)


def validate_axioms(group: FiniteGroup) -> None:
    """Raise GroupValidationError unless `group` satisfies all group axioms.

    Associativity is the expensive part; it is checked exhaustively only for
    order <= ASSOCIATIVITY_LIMIT.
    """
    n = group.order
    if n < 1:
        raise GroupValidationError(f"order must be positive, got {n}")
    if group.table.shape != (n, n):
        raise GroupValidationError("multiplication table is not n x n")
    m = _checked_array(group.table, n)
    r = np.arange(n)
    a = _first((m[0] != r) | (m[:, 0] != r))
    if a >= 0:
        raise GroupValidationError(f"index 0 does not act as identity on {a}")
    if len(group.inv) != n:
        raise GroupValidationError("inverse array has wrong length")
    inv = np.array(group.inv)
    outside = _outside(inv, n)
    b = np.where(outside, 0, inv).astype(np.intp)
    a = _first(outside | (m[r, b] != 0) | (m[b, r] != 0))
    if a >= 0:
        raise GroupValidationError(
            f"inv[{a}] = {group.inv[a]} is not a two-sided inverse"
        )

    if n <= ASSOCIATIVITY_LIMIT:
        for a in range(n):
            left = m[m[a]]          # left[b, c] = (a*b)*c
            right = m[a][m]         # right[b, c] = a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise GroupValidationError(
                    f"associativity fails at triple ({a}, {b}, {c}): "
                    f"(a*b)*c = {int(left[b, c])}, a*(b*c) = {int(right[b, c])}"
                )


def closure(group: FiniteGroup, seeds: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the seeds, as sorted element indices.

    BFS under right multiplication; in a finite group the product closure of
    a set containing the identity is already a subgroup. The BFS reads the
    columns x*s of the seeds, gathered once from the table.
    """
    gens = sorted({int(s) for s in seeds} | {0})
    for s in gens:
        if not 0 <= s < group.order:
            raise ValueError(f"seed {s} outside 0..{group.order - 1}")
    right = group.table[:, gens].tolist()   # right[x][i] = x * gens[i]
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in right[x]:
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(members))


def from_cyclic(n: int) -> FiniteGroup:
    """Additive group of integers mod n; element k is the residue k."""
    if n < 1:
        raise GroupValidationError(f"cyclic order must be >= 1, got {n}")
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    r = np.arange(n)
    table = r[:, None] + r
    table %= n  # in place, so peak memory holds one n x n array, not two
    return FiniteGroup(n, table, tuple((-r % n).tolist()),
                       name=f"cyclic:{n}", abelian=(n,))


def from_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m.

    Indices 0..m-1 are the rotations r^a, indices m..2m-1 the reflections
    r^a s, with s r s = r^-1. The rotations are the recorded Z/m.
    """
    if m < 2:
        raise GroupValidationError(f"dihedral parameter must be >= 2, got {m}")
    n = 2 * m
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    # x = a + b*m is r^a s^b: r^a * r^c s^e = r^(a+c) s^e and
    # r^a s * r^c s^e = r^(a-c) s^(1+e).
    r = np.arange(n)
    c, e = r % m, r // m
    a = c[:m, None]
    # In place, so peak memory holds the table and no half-table temporaries.
    table = np.empty((n, n), dtype=np.intp)
    np.add(a, c, out=table[:m])
    np.subtract(a, c, out=table[m:])
    table %= m
    table[:m] += e * m
    table[m:] += (1 - e) * m
    return FiniteGroup(n, table, _inverses(table),
                       name=f"dihedral:{m}", abelian=(m,))


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
    One pass takes the elements in index order as heads, at most
    ELEMENT_CAP // r of them (r generators) per numpy gather with every
    generator, so the cap of ELEMENT_CAP elements is checked after at most
    about ELEMENT_CAP products. The products are looked up by their bytes in
    (head, generator) order, the order in which new elements take their
    indices, and each new element records the head h and generator g that
    found it. The table is then filled a row at a time: row a is row h mapped
    through g's indices, whose entry j is the index of g * perms[j].
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    if not gens:
        raise GroupValidationError("at least one generator permutation is required")
    k = len(gens[0])
    if k == 0:
        raise GroupValidationError("generator permutations must act on at least one point")
    for g in gens:
        if len(g) != k:
            raise GroupValidationError("generator permutations act on different point sets")
        if sorted(g) != list(range(k)):
            raise GroupValidationError(f"{g} is not a bijection on 0..{k - 1}")

    gen_rows = np.array(gens, dtype=np.intp)
    r = len(gens)
    as_bytes = np.dtype((np.void, k * gen_rows.itemsize))   # one key per permutation
    keys = [np.arange(k, dtype=np.intp).tobytes()]          # keys[j]: the bytes of perms[j]
    index = {keys[0]: 0}
    left: list[int] = []             # left[j * r + i] = index of g_i * perms[j]
    origin = [(0, 0)]                # origin[a] = (h, i): element a is g_i * perms[h]
    per = max(1, ELEMENT_CAP // r)   # heads per gather
    lo = 0                           # the first head not yet composed
    while lo < len(keys):
        heads = np.frombuffer(b"".join(keys[lo:lo + per]), dtype=np.intp).reshape(-1, k)
        # g_i * head for every head of the block, one row of r keys per head.
        products = np.ascontiguousarray(gen_rows[:, heads].transpose(1, 0, 2))
        for head, row in enumerate(products.view(as_bytes).reshape(-1, r).tolist(), lo):
            for i, key in enumerate(row):
                j = index.get(key)
                if j is None:
                    if len(keys) >= ELEMENT_CAP:
                        raise ElementCapError("element", ELEMENT_CAP, len(keys) + 1)
                    j = index[key] = len(keys)
                    keys.append(key)
                    origin.append((head, i))
                left.append(j)
        lo += len(heads)

    n = len(keys)
    gathers = np.array(left, dtype=np.intp).reshape(n, r).T
    table = np.empty((n, n), dtype=np.intp)
    table[0] = np.arange(n)
    for a, (h, i) in enumerate(origin[1:], 1):
        table[a] = gathers[i][table[h]]
    perms = np.frombuffer(b"".join(keys), dtype=np.intp).reshape(n, k)
    return FiniteGroup(n, table, _inverses(table), perms=tuple(map(tuple, perms.tolist())),
                       name=name or "permutation")


def from_symmetric(k: int) -> FiniteGroup:
    """Full symmetric group on k points, generated by all transpositions."""
    if k < 1:
        raise GroupValidationError(f"symmetric parameter must be >= 1, got {k}")
    if k == 1:
        return from_permutations([(0,)], name="symmetric:1")
    return from_permutations(_transpositions(k), name=f"symmetric:{k}")


def _transpositions(k: int) -> list[tuple[int, ...]]:
    """The transpositions (i j), i < j, of k points as image tuples, by (i, j)."""
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            t = list(range(k))
            t[i], t[j] = t[j], t[i]
            out.append(tuple(t))
    return out


def from_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; the pair (a, b) gets index a * |G2| + b. When A2 is
    all of G2, A1 x G2 is the first |A1| |G2| elements in mixed radix, with
    index [G1:A1], so the product records g1.abelian + g2.abelian; else ()."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > ELEMENT_CAP:
        raise ElementCapError("element", ELEMENT_CAP, n)
    m1, m2 = g1.table, g2.table
    table = (m1[:, None, :, None] * n2 + m2[None, :, None, :]).reshape(n, n)
    inv = np.add.outer(np.array(g1.inv) * n2, np.array(g2.inv)).reshape(n)
    name = f"product:{g1.name or '?'}x{g2.name or '?'}"
    whole = g1.abelian and math.prod(g2.abelian) == n2
    return FiniteGroup(n, table, tuple(inv.tolist()), name=name,
                       abelian=g1.abelian + g2.abelian if whole else ())


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
    # Entries are checked before inverses are looked for, so a table with an
    # entry out of range reports that entry. np.array gives an object array
    # when an entry does not fit in 64 bits.
    table = _checked_array(np.array(rows), n)
    group = FiniteGroup(n, table, _inverses(table), name=name)
    validate_axioms(group)
    return group


def load_table(path: str | Path) -> FiniteGroup:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise GroupValidationError(f"cannot read table file {p}: {exc.strerror}") from exc
    return from_table(text, name=f"table:{p}")


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
# A point is written as cycle_string writes it: ASCII digits. The sign is
# allowed only so that a negative point gets its own message.
_POINT_RE = re.compile(r"-?[0-9]+")


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
        tokens = [t for t in re.split(r"[,\s]+", chunk.strip()) if t]
        if not all(_POINT_RE.fullmatch(t) for t in tokens):
            raise SpecParseError(f"non-integer point in cycle: ({chunk})")
        pts = list(map(int, tokens))
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
    """Like parse_group_spec but with range sugar, e.g. cyclic:3..16. A range
    of more than ELEMENT_CAP members holds 0 or a parameter above the cap,
    which no family builds, so it is refused before any spec is built."""
    body = text.strip()
    if ":" in body:
        family, rest = body.split(":", 1)
        m = _RANGE_RE.match(rest.strip())
        if m and family.strip().lower() in ("cyclic", "dihedral", "symmetric"):
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise SpecParseError(f"empty range in {text!r}")
            if hi - lo >= ELEMENT_CAP:
                raise SpecParseError(
                    f"range in {text!r} has {hi - lo + 1} members, more than {ELEMENT_CAP}")
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
        index = {p: i for i, p in enumerate(group.perms)}
        return tuple(sorted(index[t] for t in _transpositions(len(group.perms[0]))))
    raise SpecParseError(f"gens=auto is not defined for family {spec.family!r}")
