"""Index-2 subgroups and the structural bipartiteness criterion.

A connected Cayley graph C(G, S) is bipartite exactly when G has an index-2
subgroup H with H cap S empty; the parts are then H and its complement.
Such an H holds every product s·t of two generators, so it contains
K = <S·S>, the elements that are words of even length in S. Since S
generates G and is symmetric, G = K cup sK for any s in S: K is normal of
index 1 or 2, and K is the only candidate for H. The graph is therefore
bipartite exactly when K has index 2, and then K misses S (s in K would give
K = G). One subgroup closure decides bipartiteness and gives the certificate.

index2_subgroups lists every index-2 subgroup, for the `subgroups` command
and the proof's independent cross-check. Every index-2 subgroup contains all
squares, so it is the preimage of a hyperplane of G/N, N the subgroup the
squares generate; G/N is elementary abelian, (Z/2)^k. The coordinates in
F2^k come from one pass over the elements that doubles the span of N one
new element at a time, with no table of cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import CayleyGraph
from .groups import FiniteGroup, closure


@dataclass(frozen=True)
class SubgroupCertificate:
    elements: tuple[int, ...]
    index: int


def squares_commutators_subgroup(group: FiniteGroup) -> SubgroupCertificate:
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
    return SubgroupCertificate(members, n // len(members))


def index2_subgroups(group: FiniteGroup) -> tuple[SubgroupCertificate, ...]:
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
    assigned = list(squares_commutators_subgroup(group).elements)
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
        out.append(SubgroupCertificate(members, 2))
    out.sort(key=lambda cert: cert.elements)
    return tuple(out)


def is_bipartite_structural(graph: CayleyGraph) -> SubgroupCertificate | None:
    """The index-2 subgroup disjoint from S, or None when there is none.

    It can only be K = <S·S>, the words of even length (see the module
    docstring), so it exists exactly when |K| = n/2. Being the only one, it
    is also the first disjoint subgroup in element-tuple order.
    """
    return graph.memo("bipartite_structural", lambda: _even_subgroup(graph))


def _even_subgroup(graph: CayleyGraph) -> SubgroupCertificate | None:
    """K = <S·S> as the certificate when it has index 2, else None."""
    mult = graph.group.mult
    gens = graph.gens.elements
    k = closure(graph.group, {mult[s][t] for s in gens for t in gens})
    if 2 * len(k) != graph.n:
        return None
    return SubgroupCertificate(k, 2)
