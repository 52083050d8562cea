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
squares and commutators, so the search space is the quotient of G by the
subgroup N those generate: an elementary abelian 2-group whose hyperplanes
are in bijection with the index-2 subgroups.
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

    They are the preimages of the 2^k - 1 hyperplanes of the quotient
    (Z/2)^k by the squares-commutators subgroup N. The quotient check below
    makes the coset coordinate a homomorphism onto (Z/2)^k (N is normal), so
    each preimage is a subgroup without a further closure check.
    """
    n = group.order
    mult = group.mult
    base = squares_commutators_subgroup(group).elements
    q, rem = divmod(n, len(base))
    if rem:
        raise AssertionError("coset decomposition failed")
    if q == 1:
        return ()
    if q & (q - 1):
        raise AssertionError(f"quotient order {q} is not a power of 2")
    k = q.bit_length() - 1

    # Minimal-element coset representatives; scanning g in increasing order
    # makes the first unseen element the minimum of its coset.
    coset_id = [-1] * n
    reps: list[int] = []
    for g in range(n):
        if coset_id[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        row = mult[g]
        for x in base:
            coset_id[row[x]] = cid
    if len(reps) != q:
        raise AssertionError("coset count mismatch")

    # F2 coordinates: grow a basis greedily, doubling the assigned span.
    vec = [-1] * q
    vec[coset_id[group.identity]] = 0
    assigned = [coset_id[group.identity]]
    rank = 0
    for c in range(q):
        if vec[c] >= 0:
            continue
        bit = 1 << rank
        rank += 1
        for c2 in list(assigned):
            c3 = coset_id[mult[reps[c2]][reps[c]]]
            if vec[c3] >= 0:
                raise AssertionError("quotient span collapsed")
            vec[c3] = vec[c2] | bit
            assigned.append(c3)
    if rank != k:
        raise AssertionError("quotient rank mismatch")
    for c1 in range(q):
        for c2 in range(q):
            c3 = coset_id[mult[reps[c1]][reps[c2]]]
            if vec[c3] != vec[c1] ^ vec[c2]:
                raise AssertionError("quotient is not elementary abelian")

    out = []
    for f in range(1, 1 << k):
        members = tuple(
            g for g in range(n) if (vec[coset_id[g]] & f).bit_count() % 2 == 0
        )
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
    mult = graph.group.mult
    gens = graph.gens.elements
    k = closure(graph.group, {mult[s][t] for s in gens for t in gens})
    if 2 * len(k) != graph.n:
        return None
    return SubgroupCertificate(k, 2)
