"""Cayley graphs with bitmask vertex sets and generator-square multisets.

Vertices are group elements; x and y are adjacent when some generator s has
s*x = y (left multiplication throughout). Vertex sets are plain ints used as
bitmasks, which gives O(1) union/intersection/complement at any order.

A graph stores S once, as its sorted tuple of element indices, and its
adjacency once, as a neighbour mask per vertex (s*x is group.table[s, x]).
build gathers the rows of S from the numpy table and converts them to Python
ints before any shift, so the masks are exact at any order. The translates
and multiset images below run only inside the exact searches (n <= 24 by
default) and index the group's Python-int table, group.mult.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, TypeVar

from .errors import GeneratingSetError, SpecParseError
from .groups import FiniteGroup, closure, parse_permutation

_T = TypeVar("_T")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def generating_set(group: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """S as a sorted tuple once it is validated as symmetric and generating."""
    elems = sorted({int(x) for x in elements})
    if not elems:
        raise GeneratingSetError("generating set is empty")
    n = group.order
    for s in elems:
        if not 0 <= s < n:
            raise GeneratingSetError(f"generator {s} outside 0..{n - 1}")
    elem_set = set(elems)
    for s in elems:
        if group.inv[s] not in elem_set:
            raise GeneratingSetError(
                f"not symmetric: inverse of {s} is {group.inv[s]}, missing from the set"
            )
    reached = closure(group, elems)
    if len(reached) != n:
        v = min(set(range(n)).difference(reached))
        raise GeneratingSetError(
            f"not generating: element {v} is unreachable from the identity"
        )
    return tuple(elems)


@dataclass(frozen=True, eq=False)
class CayleyGraph:
    """d-regular graph on the group; a loop (identity in S) counts one half-edge.

    Build it through build, which rejects a set that does not generate the
    group: the library takes every graph to be connected, and the
    constructor checks nothing.

    The graph is immutable, so quantities derived from it (exact Cheeger
    constants, the spectrum) are computed once per graph object and kept in
    its memo.
    """

    group: FiniteGroup
    gens: tuple[int, ...]
    nbr_masks: tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key: object, compute: Callable[[], _T]) -> _T:
        """compute() on the first call for key, the stored value afterwards.

        A compute() that raises stores nothing, so callers keep their cap
        tests in front of the lookup and a failed call is retried.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def d(self) -> int:
        return len(self.gens)

    @property
    def full_mask(self) -> int:
        return (1 << self.group.order) - 1


def build(group: FiniteGroup, gens: Iterable[int]) -> CayleyGraph:
    """Construct the Cayley graph; validates the generating set."""
    gens = generating_set(group, gens)
    rows = group.table[list(gens)].T.tolist()   # rows[x] = [s*x for s in gens]
    nbr_masks = tuple(mask_of(row) for row in rows)
    # Distinct generators give distinct neighbors (s*x = s'*x forces s = s'),
    # and symmetry of S makes adjacency symmetric; verify both cheaply.
    for x, row in enumerate(rows):
        if len(set(row)) != len(row):
            raise GeneratingSetError(f"repeated neighbor at vertex {x}")
        for y in row:
            if not (nbr_masks[y] >> x) & 1:
                raise GeneratingSetError(f"asymmetric edge {x} -> {y}")
    return CayleyGraph(group, gens, nbr_masks)


def set_image(graph: CayleyGraph, a_mask: int) -> int:
    """Bitmask of S·A = {s*a : s in S, a in A}, the union of the neighbor
    masks of A's members."""
    nbr_masks = graph.nbr_masks
    acc = 0
    for a in mask_members(a_mask):
        acc |= nbr_masks[a]
    return acc


def left_translate(group: FiniteGroup, a_mask: int, s: int) -> int:
    """Bitmask of s·A."""
    row = group.mult[s]
    acc = 0
    for a in mask_members(a_mask):
        acc |= 1 << row[a]
    return acc


def right_translate(group: FiniteGroup, a_mask: int, g: int) -> int:
    """Bitmask of A·g."""
    mult = group.mult
    acc = 0
    for a in mask_members(a_mask):
        acc |= 1 << mult[a][g]
    return acc


def square_multiset(gens: tuple[int, ...], group: FiniteGroup) -> dict[int, int]:
    """The multiset S·S of two-step products s*t, as {element: count}; the
    counts sum to d^2, and the multiset is symmetric because S is."""
    counts: dict[int, int] = {}
    mult = group.mult
    for s in gens:
        row = mult[s]
        for t in gens:
            g = row[t]
            counts[g] = counts.get(g, 0) + 1
    for g, c in counts.items():
        if counts.get(group.inv[g], 0) != c:
            raise GeneratingSetError("square multiset lost its symmetry")
    return counts


class ImageExcess(NamedTuple):
    identified: int   # |supp(S·S)·A \ A|, each element once
    weighted: int     # same count with product multiplicities


def multiset_image_excess(group: FiniteGroup, counts: dict[int, int], a_mask: int) -> ImageExcess:
    """Both readings of |S'A \\ A| for a multiset S' = {element: count} of
    the group, such as the square multiset S·S."""
    if a_mask == 0:
        raise ValueError("A must be nonempty")
    mult = group.mult
    members = mask_members(a_mask)
    union_out = 0
    weighted = 0
    for g in sorted(counts):
        row = mult[g]
        img = 0
        for a in members:
            img |= 1 << row[a]
        out = img & ~a_mask
        union_out |= out
        weighted += counts[g] * out.bit_count()
    return ImageExcess(union_out.bit_count(), weighted)


_GEN_TOKEN_RE = re.compile(r"^(±|\+-|-)?(\d+)$")


def parse_generators(group: FiniteGroup, text: str) -> tuple[int, ...]:
    """Parse a generator spec: comma-separated indices with optional ±k / +-k
    (element and inverse) or -k (inverse only), or semicolon-separated cycle
    notation for permutation groups.
    """
    return generating_set(group, _generator_elements(group, text))


def _generator_elements(group: FiniteGroup, text: str) -> list[int]:
    """The elements a generator spec names, not yet validated as a set:
    parse_generators validates them, and build validates what it is given."""
    body = text.strip()
    if not body:
        raise GeneratingSetError("empty generator spec")
    if body.startswith("("):
        if group.perms is None:
            raise GeneratingSetError(
                "cycle notation requires a permutation-constructed group"
            )
        degree = len(group.perms[0])
        index = {p: i for i, p in enumerate(group.perms)}
        out = []
        for piece in body.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            perm = parse_permutation(piece, degree=degree)
            if perm not in index:
                raise GeneratingSetError(f"permutation {piece} is not a group element")
            out.append(index[perm])
        return out
    out = []
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        m = _GEN_TOKEN_RE.match(token)
        if not m:
            raise SpecParseError(f"bad generator token {token!r}")
        sign, digits = m.group(1), int(m.group(2))
        if not 0 <= digits < group.order:
            raise GeneratingSetError(f"generator {digits} outside 0..{group.order - 1}")
        if sign == "-":
            out.append(group.inv[digits])
        elif sign in ("±", "+-"):
            out.append(digits)
            out.append(group.inv[digits])
        else:
            out.append(digits)
    return out
