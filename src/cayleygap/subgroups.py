"""Index-2 subgroups, each a sorted element tuple, and structural bipartiteness.

A connected Cayley graph C(G, S) is bipartite exactly when G has an index-2
subgroup H with H cap S empty; the parts are then H and its complement.
Such an H holds every product s·t of two generators, so it contains
K = <S·S>, the elements that are words of even length in S. Since S
generates G and is symmetric, G = K cup sK for any s in S: K is normal of
index 1 or 2, and K is the only candidate for H. The graph is therefore
bipartite exactly when K has index 2, and then K misses S (s in K would give
K = G). K holds every vertex at even distance from the identity, and none at
odd distance when it has index 2. So one breadth-first pass decides
bipartiteness and gives the certificate: every edge joins its even and odd
sides exactly when the graph is bipartite, and the even side is then K.

index2_subgroups lists every index-2 subgroup, for the `subgroups` command
and the proof's independent cross-check. Every index-2 subgroup contains all
squares, so it is the preimage of a hyperplane of G/N, N the subgroup the
squares generate; G/N is elementary abelian, (Z/2)^k. The coordinates in
F2^k come from one pass over the elements that doubles the span of N one
new element at a time, with no table of cosets.
"""

from __future__ import annotations

from typing import Sequence

from .cayley import CayleyGraph, mask_members
from .groups import FiniteGroup, closure


def squares_commutators_subgroup(group: FiniteGroup) -> tuple[int, ...]:
    """Subgroup N generated by all squares and commutators.

    G/N is an elementary abelian 2-group: every element squares into N, and
    commutators land in N so the quotient is abelian. The squares alone
    generate N, since g^-1 h^-1 g h = (g^-1)^2 (g h^-1)^2 h^2.
    """
    n = group.order
    mult = group.mult
    members = closure(group, {mult[g][g] for g in range(n)})
    if n % len(members):
        raise AssertionError("subgroup order does not divide the group order")
    return members


def index2_subgroups(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All index-2 subgroups, sorted by element tuple.

    They are the preimages of the 2^k - 1 hyperplanes of G/N = (Z/2)^k, N
    the squares subgroup. Each element gets its coordinate in F2^k in one
    pass that doubles the assigned span: N has coordinate 0, and each g
    without a coordinate starts a new bit b and gives g·y the coordinate
    vec[y] | b for every y assigned so far (g·span is a coset of the span,
    disjoint from it). reps[c] is an element with coordinate c, and the
    check on all pairs of reps makes the coordinate a homomorphism (N is
    normal), so each preimage is a subgroup without a further closure check.
    """
    n = group.order
    mult = group.mult
    vec = [-1] * n
    assigned = list(squares_commutators_subgroup(group))
    for x in assigned:
        vec[x] = 0
    reps = [0]
    for g in range(n):
        if vec[g] >= 0:
            continue
        bit = len(reps)   # 2^rank: the next unused bit
        row = mult[g]
        for y in assigned[:]:
            z = row[y]
            if vec[z] >= 0:
                raise AssertionError("quotient span collapsed")
            vec[z] = vec[y] | bit
            assigned.append(z)
        reps += [row[r] for r in reps]
    for a in reps:
        for b in reps:
            if vec[mult[a][b]] != vec[a] ^ vec[b]:
                raise AssertionError("quotient is not elementary abelian")

    out = []
    for f in range(1, len(reps)):
        members = tuple(g for g in range(n) if (vec[g] & f).bit_count() % 2 == 0)
        if 2 * len(members) != n:
            raise AssertionError("hyperplane preimage has the wrong size")
        out.append(members)
    out.sort()
    return tuple(out)


def is_bipartite_structural(graph: CayleyGraph) -> tuple[int, ...] | None:
    """The index-2 subgroup disjoint from S, or None when there is none.

    It can only be K = <S·S> (see the module docstring), and it exists
    exactly when every edge joins the two parity sides, 2·cross = d·n; K is
    then the even side. Being the only one, it is also the first disjoint
    subgroup in element-tuple order.
    """
    def even_side() -> tuple[int, ...] | None:
        cross, even, _ = _graph_parity_pair(graph)
        return mask_members(even) if 2 * cross == graph.d * graph.n else None

    return graph.memo("bipartite_structural", even_side)


def _graph_parity_pair(graph: CayleyGraph) -> tuple[int, int, int]:
    """_parity_pair of the graph, kept in its memo, so that
    is_bipartite_structural and the dual search's seed share one walk."""
    return graph.memo("parity_pair", lambda: _parity_pair(graph.nbr_masks))


def _parity_pair(masks: Sequence[int]) -> tuple[int, int, int]:
    """The BFS-parity pair (V1, V2) as (cross, m1, m2), with cross = e(V1, V2)
    the crossing edges (a loop never crosses).

    V1 and V2 are the vertices at even and odd BFS distance from 0, so 0 is
    in V1, and the graph is connected, so V1 ∪ V2 holds all n vertices.
    Loops are never followed, since a vertex is marked when it is first
    reached.
    """
    sides = [1, 0]
    seen = level = 1
    parity = 0
    while level:
        reached = 0
        for v in mask_members(level):
            reached |= masks[v]
        level = reached & ~seen
        seen |= level
        parity ^= 1
        sides[parity] |= level
    m1, m2 = sides
    return sum((masks[v] & m2).bit_count() for v in mask_members(m1)), m1, m2
