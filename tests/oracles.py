"""Independent reference implementations the fast code is checked against.

Everything here is deliberately naive: full 2^n or 3^n scans, closed-form
spectra, and numpy's eigensolver. None of these are imported by the package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from cayleygap import (
    CayleyGraph,
    CheegerCertificate,
    FiniteGroup,
    closure,
    index2_subgroups,
    set_image,
    spectrum,
    square_multiset,
)
from cayleygap.cayley import mask_members
from cayleygap.proof import (
    _EXHAUSTIVE_LIMIT,
    _SAMPLE_SEED,
    _SAMPLES,
    LargeSetExpansionReport,
)


def _better(num: int, size: int, mask: int,
            best: tuple[int, int, int] | None) -> bool:
    """(ratio, size, mask) lexicographic order via cross-multiplication."""
    if best is None:
        return True
    bn, bs, bm = best
    lhs, rhs = num * bs, bn * size
    if lhs != rhs:
        return lhs < rhs
    if size != bs:
        return size < bs
    return mask < bm


def neighbor_rows(graph: CayleyGraph) -> list[list[int]]:
    """The neighbours s x, s in S, of every vertex x, read off the group
    table rather than the graph's neighbour masks."""
    mult = graph.group.mult
    return [[mult[s][x] for s in graph.gens] for x in range(graph.n)]


def naive_vertex_cheeger(nbr_masks, n: int) -> tuple[Fraction, tuple[int, ...]]:
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if 2 * size > n:
            continue
        union = 0
        for x in range(n):
            if (mask >> x) & 1:
                union |= nbr_masks[x]
        num = (union & ~mask).bit_count()
        if _better(num, size, mask, best):
            best = (num, size, mask)
    num, size, mask = best
    witness = tuple(x for x in range(n) if (mask >> x) & 1)
    return Fraction(num, size), witness


def naive_edge_cheeger(graph: CayleyGraph) -> tuple[Fraction, tuple[int, ...]]:
    n, d = graph.n, graph.d
    rows = neighbor_rows(graph)
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if 2 * size > n:
            continue
        crossing = 0
        for x in range(n):
            if (mask >> x) & 1:
                for y in rows[x]:
                    if not (mask >> y) & 1:
                        crossing += 1
        if _better(crossing, size, mask, best):
            best = (crossing, size, mask)
    num, size, mask = best
    witness = tuple(x for x in range(n) if (mask >> x) & 1)
    return Fraction(num, d * size), witness


def naive_dual_cheeger(
    graph: CayleyGraph,
) -> tuple[Fraction, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Full base-3 scan (digit 0 -> V1, 1 -> V2, 2 -> V3, vertex 0 most
    significant), first strict maximiser wins."""
    n, d = graph.n, graph.d
    rows = neighbor_rows(graph)
    best_cross, best_m = -1, 1
    best_pair = ((), ())
    for code in range(3**n):
        digits = []
        c = code
        for _ in range(n):
            c, r = divmod(c, 3)
            digits.append(r)
        digits.reverse()
        v1 = [x for x in range(n) if digits[x] == 0]
        v2 = [x for x in range(n) if digits[x] == 1]
        m = len(v1) + len(v2)
        if m == 0:
            continue
        in1 = [digits[x] == 0 for x in range(n)]
        in2 = [digits[x] == 1 for x in range(n)]
        cross = 0
        for x in v1:
            for y in rows[x]:
                if in2[y]:
                    cross += 1
        cross *= 2
        if cross * best_m > best_cross * m:
            best_cross, best_m = cross, m
            best_pair = (tuple(v1), tuple(v2))
    return Fraction(best_cross, d * best_m), best_pair


def reference_dual_search(graph: CayleyGraph) -> CheegerCertificate:
    """The dual search before its seed, floor and local-optimality pruning,
    kept as the reference for the graphs above naive_dual_cheeger's reach.

    Branch and bound over (V1, V2, V3) assignments of 0, 1, ..., n-1.

    A crossing edge is counted when its later endpoint is assigned, so an
    unassigned vertex w adds at most low[w] = |N(w) ∩ {0..w-1}| crossings,
    and adds 1 to m = |V1| + |V2| if it joins V1 or V2. With the incumbent
    ratio p/q, a completion of a node at vertex v (cross crossings so far)
    beats it strictly only if
        cross·q - p·m + G[v] > 0,   G[v] = sum over w >= v of max(0, low[w]·q - p)
    (Dinkelbach's test for a ratio). Every other node is pruned: no pair below
    it beats the incumbent strictly, so the first maximiser in enumeration
    order is the one the unpruned scan finds. G is rebuilt on each strict
    improvement. At v == n, G[n] = 0 and the test is the improvement test.
    """
    n, d = graph.n, graph.d
    masks = graph.nbr_masks
    low = [(masks[w] & ((1 << w) - 1)).bit_count() for w in range(n)]
    best_cross, best_m = -1, 1
    best_pair = (0, 0)

    def suffix_gains() -> list[int]:
        gains = [0] * (n + 1)
        for w in range(n - 1, -1, -1):
            gain = low[w] * best_m - best_cross
            gains[w] = gains[w + 1] + (gain if gain > 0 else 0)
        return gains

    gains = suffix_gains()

    def assign(v: int, m1: int, m2: int, m: int, cross: int) -> None:
        nonlocal best_cross, best_m, best_pair, gains
        if cross * best_m - best_cross * m + gains[v] <= 0:
            return
        if v == n:
            best_cross, best_m = cross, m
            best_pair = (m1, m2)
            gains = suffix_gains()
            return
        bit = 1 << v
        nm = masks[v]
        assign(v + 1, m1 | bit, m2, m + 1, cross + (nm & m2).bit_count())
        assign(v + 1, m1, m2 | bit, m + 1, cross + (nm & m1).bit_count())
        assign(v + 1, m1, m2, m, cross)

    assign(1, 1, 0, 1, 0)
    value = Fraction(2 * best_cross, d * best_m)
    pair = (mask_members(best_pair[0]), mask_members(best_pair[1]))
    return CheegerCertificate("dual", value, pair[0], witness_pair=pair)


def naive_weighted_edge_min(pairs, n: int) -> tuple[int, int, int]:
    """Weighted crossing minimiser over 1 <= |A| <= n/2, same tie-break."""
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if 2 * size > n:
            continue
        num = 0
        for x in range(n):
            if (mask >> x) & 1:
                for y, w in pairs[x]:
                    if not (mask >> y) & 1:
                        num += w
        if _better(num, size, mask, best):
            best = (num, size, mask)
    return best


def support_pairs(graph: CayleyGraph) -> list[tuple[tuple[int, int], ...]]:
    """(neighbor, multiplicity) lists of the support graph of S' = S·S,
    counted straight from the generator pairs (s, t), loops dropped."""
    mult = graph.group.mult
    out = []
    for x in range(graph.n):
        counts: dict[int, int] = {}
        for s in graph.gens:
            for t in graph.gens:
                y = mult[mult[s][t]][x]
                if y != x:
                    counts[y] = counts.get(y, 0) + 1
        out.append(tuple(sorted(counts.items())))
    return out


def circulant_t(n: int, gens) -> list[float]:
    """Closed-form normalised adjacency spectrum of a cyclic-group graph:
    t_k = (1/d) sum_{s in S} cos(2 pi k s / n)."""
    d = len(gens)
    return sorted(
        sum(math.cos(2.0 * math.pi * k * s / n) for s in gens) / d
        for k in range(n)
    )


def numpy_eigs(matrix) -> list[float]:
    return [float(x) for x in np.linalg.eigvalsh(np.asarray(matrix, dtype=float))]


def closed_walk_counts(graph: CayleyGraph, longest: int) -> list[int]:
    """W_j = #{(s_1, ..., s_j) in S^j : s_1 ... s_j = e} for j = 0..longest,
    in Python ints, by pushing the number of walks from the identity to
    each x one generator step at a time along the group table. Every vertex
    of a Cayley graph starts W_j closed walks of length j, so the trace of
    A^j, A = d T the count matrix, is n W_j."""
    mult, n = graph.group.mult, graph.n
    walks = [1] + [0] * (n - 1)
    counts = [1]
    for _ in range(longest):
        step = [0] * n
        for x, w in enumerate(walks):
            if w:
                for s in graph.gens:
                    step[mult[s][x]] += w
        walks = step
        counts.append(walks[0])
    return counts


def is_conjugation_closed(group: FiniteGroup, elements) -> bool:
    """Whether g s g^-1 lies in the set for every g in G and s in it, read
    off the group table."""
    mult, inv = group.mult, group.inv
    members = set(elements)
    return all(mult[mult[g][s]][inv[g]] in members
               for g in range(group.order) for s in members)


def _array(mult) -> np.ndarray:
    """A table built entry by entry, in the form FiniteGroup stores it."""
    return np.array(mult, dtype=np.intp)


def naive_inverses(mult) -> tuple[int, ...]:
    """For each a, the first b with a*b = b*a = identity (index 0)."""
    n = len(mult)
    inv = []
    for a in range(n):
        for b in range(n):
            if mult[a][b] == 0 and mult[b][a] == 0:
                inv.append(b)
                break
        else:
            raise AssertionError(f"element {a} has no two-sided inverse")
    return tuple(inv)


def naive_cyclic(n: int) -> FiniteGroup:
    """Z/n one table entry at a time: k is the residue k."""
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(n, _array(mult), tuple((-a) % n for a in range(n)))


def naive_dihedral(m: int) -> FiniteGroup:
    """D_m one entry at a time: a + b*m is r^a s^b, with s r s = r^-1."""
    n = 2 * m

    def idx(a: int, b: int) -> int:
        return a % m + (b % 2) * m

    rows = []
    for x in range(n):
        a, b = x % m, x // m
        row = []
        for y in range(n):
            c, e = y % m, y // m
            row.append(idx(a + c, e) if b == 0 else idx(a - c, 1 + e))
        rows.append(tuple(row))
    mult = tuple(rows)
    return FiniteGroup(n, _array(mult), naive_inverses(mult))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p * q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(q)))


def naive_permutations(generators) -> FiniteGroup:
    """The closure by BFS from the identity, in discovery order, with every
    table entry a composition looked up in a dict."""
    gens = [tuple(g) for g in generators]
    identity = tuple(range(len(gens[0])))
    perms = [identity]
    index = {identity: 0}
    for cur in perms:
        for g in gens:
            nxt = _compose(g, cur)
            if nxt not in index:
                index[nxt] = len(perms)
                perms.append(nxt)
    n = len(perms)
    mult = tuple(
        tuple(index[_compose(perms[a], perms[b])] for b in range(n))
        for a in range(n)
    )
    return FiniteGroup(n, _array(mult), naive_inverses(mult), perms=tuple(perms))


def naive_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 one entry at a time; (a, b) has index a * |G2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    mult = tuple(
        tuple(g1.mult[x // n2][y // n2] * n2 + g2.mult[x % n2][y % n2]
              for y in range(n))
        for x in range(n)
    )
    inv = tuple(g1.inv[x // n2] * n2 + g2.inv[x % n2] for x in range(n))
    return FiniteGroup(n, _array(mult), inv)


def brute_force_index2(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All subsets of size n/2 containing the identity and closed under
    multiplication (closure at half size forces inverses)."""
    n = group.order
    if n % 2:
        return []
    half = n // 2
    found = []
    from itertools import combinations

    for rest in combinations(range(1, n), half - 1):
        members = (0,) + rest
        mask = 0
        for x in members:
            mask |= 1 << x
        if all((mask >> group.mult[a][b]) & 1 for a in members for b in members):
            found.append(tuple(sorted(members)))
    return sorted(found)


def squares_commutators_closure(group: FiniteGroup) -> tuple[int, ...]:
    """The subgroup generated by every square g^2 and every commutator
    g^-1 h^-1 g h, all n^2 of them listed as seeds."""
    n = group.order
    mult = group.mult
    inv = group.inv
    seeds = {mult[g][g] for g in range(n)}
    for g in range(n):
        for h in range(n):
            seeds.add(mult[mult[inv[g]][inv[h]]][mult[g][h]])
    return closure(group, seeds)


def validate_subgroup(group: FiniteGroup, elements: tuple[int, ...]) -> None:
    """Raise AssertionError unless the elements contain the identity and are
    closed under inverses and products."""
    members = set(elements)
    if 0 not in members:
        raise AssertionError("candidate subgroup misses the identity")
    for a in elements:
        if group.inv[a] not in members:
            raise AssertionError(f"candidate subgroup not inverse-closed at {a}")
    mult = group.mult
    for a in elements:
        row = mult[a]
        for b in elements:
            if row[b] not in members:
                raise AssertionError(
                    f"candidate subgroup not closed: {a} * {b} escapes"
                )


def enumerated_bipartite_certificate(graph: CayleyGraph):
    """The first index-2 subgroup disjoint from S in element-tuple order,
    from the full list of index-2 subgroups, or None."""
    s_set = set(graph.gens)
    for cert in index2_subgroups(graph.group):
        if not s_set.intersection(cert):
            return cert
    return None


def support_component_witness(graph: CayleyGraph) -> int | None:
    """The (size, mask)-least connected component of the support graph of
    S·S (loops left out) when it has more than one, else None: a set with no
    crossing edges is a union of components."""
    n = graph.n
    mult = graph.group.mult
    support = set(square_multiset(graph.gens, graph.group)) - {0}
    comps = []
    seen: set[int] = set()
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for g in support:
                y = mult[g][x]
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        comps.append(sum(1 << x for x in comp))
    if len(comps) == 1:
        return None
    return min(comps, key=lambda c: (c.bit_count(), c))


def normalized_adjacency_lists(graph: CayleyGraph) -> list[list[float]]:
    """Dense T = A/d as lists of Python floats, counts checked exactly."""
    n, d = graph.n, graph.d
    count_rows = []
    for row in neighbor_rows(graph):
        counts = [0] * n
        for y in row:
            counts[y] += 1
        if sum(counts) != d:
            raise AssertionError("row sum mismatch in adjacency counts")
        count_rows.append(counts)
    for x in range(n):
        for y in range(x):
            if count_rows[x][y] != count_rows[y][x]:
                raise AssertionError("adjacency counts not symmetric")
    return [[c / d for c in row] for row in count_rows]


# Set boundaries and the S·S operator, computed directly from their
# definitions. Only the tests use them.


def vertex_boundary(graph: CayleyGraph, a_mask: int) -> int:
    """Bitmask of the outer vertex boundary (S·A) \\ A."""
    return set_image(graph, a_mask) & ~a_mask


def translate_defect(graph: CayleyGraph, a_mask: int) -> int:
    """max over s in S and g in G of |sAg delta (G \\ Ag)|, from the sets."""
    mult = graph.group.mult
    members = mask_members(a_mask)
    everything = set(range(graph.n))
    worst = 0
    for g in range(graph.n):
        ag = {mult[a][g] for a in members}
        for s in graph.gens:
            sag = {mult[s][x] for x in ag}
            worst = max(worst, len(sag ^ (everything - ag)))
    return worst


def agreement_set(graph: CayleyGraph, a_mask: int, g: int) -> set[int]:
    """B = {x : x in A exactly when x in Ag}, from the sets."""
    mult = graph.group.mult
    members = set(mask_members(a_mask))
    ag = {mult[a][g] for a in members}
    return {x for x in range(graph.n) if (x in members) == (x in ag)}


def edge_boundary_count(graph: CayleyGraph, a_mask: int) -> int:
    """Number of pairs (a, s) with a in A and s*a outside A."""
    masks = graph.nbr_masks
    total = 0
    for a in mask_members(a_mask):
        total += (masks[a] & ~a_mask).bit_count()
    return total


def min_crossing_by_size(graph: CayleyGraph) -> list[int]:
    """For k = 0..n//2, the least |E(A, A^c)| over all sets A of k vertices."""
    n = graph.n
    best = [None] * (n // 2 + 1)
    for mask in range(1 << n):
        k = mask.bit_count()
        if 2 * k <= n:
            crossing = edge_boundary_count(graph, mask)
            if best[k] is None or crossing < best[k]:
                best[k] = crossing
    return best


def square_normalized_adjacency(graph: CayleyGraph) -> list[list[float]]:
    """Dense operator of the product multiset S·S: entry [x][y] = m(y x^-1)/d².

    Equals T @ T for the same graph (left action: x -> g x steps by g = t*s).
    """
    multiset = square_multiset(graph.gens, graph.group)
    group = graph.group
    n = graph.n
    d2 = graph.d * graph.d
    rows = []
    for x in range(n):
        inv_x = group.inv[x]
        row = [0.0] * n
        for y in range(n):
            m = multiset.get(group.mult[y][inv_x], 0)
            if m:
                row[y] = m / d2
        rows.append(row)
    return rows


def square_spectrum_consistency(graph: CayleyGraph, tol: float = 1e-9) -> bool:
    """True iff spec of the S·S operator equals {t_i^2} elementwise (sorted)."""
    direct = numpy_eigs(square_normalized_adjacency(graph))
    squared = sorted(t * t for t in spectrum(graph).t)
    if len(direct) != len(squared):
        return False
    return max(abs(x - y) for x, y in zip(direct, squared)) <= tol


def _image_tables(nbr_masks: tuple[int, ...], n: int) -> list[list[int]]:
    """Per-byte lookup tables for S·A: tables[c][b] is the union of the
    neighbor masks of the vertices 8c + i over the bits i of the byte b."""
    tables = []
    for c in range(0, n, 8):
        nbr = list(nbr_masks[c:c + 8]) + [0] * (c + 8 - n)
        table = [0] * 256
        for b in range(1, 256):
            table[b] = table[b & (b - 1)] | nbr[(b & -b).bit_length() - 1]
        tables.append(table)
    return tables


def _table_image(tables: list[list[int]], mask: int) -> int:
    """Bitmask of S·A from the tables of `_image_tables`; equals set_image."""
    img = 0
    for table in tables:
        img |= table[mask & 255]
        mask >>= 8
    return img


def naive_large_set_expansion(
    graph: CayleyGraph, eps: Fraction,
) -> LargeSetExpansionReport:
    """`proof.large_set_expansion_check` one Python-int mask at a time, on
    the same sets in the same order: all 2^n for n <= 12, else the first
    10 000 draws of random.Random(_SAMPLE_SEED).getrandbits(n)."""
    n = graph.n
    full = graph.full_mask
    d = graph.d
    p, q = eps.numerator, eps.denominator

    exhaustive = n <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        candidates = range(1 << n)
        tested = 1 << n
    else:
        rng = random.Random(_SAMPLE_SEED)
        tested = _SAMPLES
        candidates = (rng.getrandbits(n) for _ in range(tested))

    main_ok = True
    internal_ok = True
    main_slack: int | None = None
    internal_slack: int | None = None
    tables = _image_tables(graph.nbr_masks, n)
    for mask in candidates:
        comp = ~mask & full
        exc = (_table_image(tables, mask) & comp).bit_count()
        exc_c = (_table_image(tables, comp) & mask).bit_count()
        islack = d * exc - exc_c
        if islack < 0:
            internal_ok = False
        if internal_slack is None or islack < internal_slack:
            internal_slack = islack
        size = mask.bit_count()
        if 2 * size >= n:
            mslack = d * q * exc - p * (n - size)
            if mslack < 0:
                main_ok = False
            if main_slack is None or mslack < main_slack:
                main_slack = mslack

    return LargeSetExpansionReport(
        ok=main_ok and internal_ok,
        exhaustive=exhaustive,
        tested=tested,
        main_slack=main_slack,
        internal_slack=internal_slack,
    )


_BISECT_EPS = float(np.finfo(np.float64).eps)
_BISECT_SAFE_MIN = float(np.finfo(np.float64).tiny)
_BISECT_MULTISECTION = 16
_BISECT_MAX_ROUNDS = 64


def frozen_bisect_block(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """spectral._bisect_block as it was before counts were shared between
    equal brackets: every bracket is counted on its own, and a pivot is
    fixed by |q| < pivmin -> -pivmin before its sign is read. The fast
    routine must equal it bit for bit. Raises RuntimeError where the package
    raises ConvergenceError."""
    n = d.size
    e2 = np.concatenate(([0.0], e * e))
    pivmin = _BISECT_SAFE_MIN * max(1.0, float(np.max(e2)))
    abs_e = np.abs(e)
    radius = np.append(abs_e, 0.0) + np.concatenate(([0.0], abs_e))
    lo_bound = float(np.min(d - radius))
    hi_bound = float(np.max(d + radius))
    norm = max(abs(lo_bound), abs(hi_bound))
    pad = 2.1 * (norm * _BISECT_EPS * n + 2.0 * pivmin)
    lo = np.full(n, lo_bound - pad)
    hi = np.full(n, hi_bound + pad)
    rows = np.arange(n)
    target = rows[:, None]
    fractions = np.arange(1, _BISECT_MULTISECTION) / _BISECT_MULTISECTION
    shape = (n, _BISECT_MULTISECTION - 1)
    q = np.ones(shape)
    scratch = np.empty(shape)
    negative = np.empty(shape, dtype=bool)
    for _ in range(_BISECT_MAX_ROUNDS):
        width = hi - lo
        tolerance = (2.0 * _BISECT_EPS * np.maximum(np.abs(lo), np.abs(hi))
                     + _BISECT_EPS * norm)
        if np.all(width <= tolerance):
            return 0.5 * (lo + hi)
        x = lo[:, None] + width[:, None] * fractions
        below = np.zeros(shape, dtype=np.int64)
        for i in range(n):
            np.divide(e2[i], q, out=scratch)
            np.subtract(d[i], x, out=q)
            q -= scratch
            np.less(np.abs(q, out=scratch), pivmin, out=negative)
            np.copyto(q, -pivmin, where=negative)
            np.less(q, 0.0, out=negative)
            below += negative
        points = np.concatenate((lo[:, None], x, hi[:, None]), axis=1)
        above = np.concatenate((below > target, np.ones((n, 1), dtype=bool)), axis=1)
        j = np.argmax(above, axis=1)
        lo, hi = points[rows, j], points[rows, j + 1]
    raise RuntimeError("Sturm bisection did not converge")


def frozen_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """spectral._tridiagonalize as it was when it took real symmetric
    matrices only: Householder reduction of each a[b] (a is overwritten) to
    its tridiagonal (d[b], e[b]). On real input (imaginary part +0.0) the
    Hermitian routine must give this d and this |e| bit for bit."""
    batch, n = a.shape[0], a.shape[1]
    e = np.zeros((batch, n - 1))
    for k in range(n - 2):
        x = a[:, k + 1:, k]
        e[:, k] = x[:, 0]
        reflect = np.any(x[:, 1:], axis=1)
        if reflect.all():
            rows = slice(None)
        elif reflect.any():
            rows = np.flatnonzero(reflect)
        else:
            continue
        x = x[rows]
        x_max = np.max(np.abs(x), axis=1)
        v = x / x_max[:, None]
        alpha = np.copysign(np.sqrt(np.sum(v * v, axis=1)), v[:, 0])
        v[:, 0] += alpha
        v /= np.sqrt(np.sum(v * v, axis=1))[:, None]
        sub = a[rows, k + 1:, k + 1:]
        p = np.sum(sub * v[:, None, :], axis=2)
        w = p - np.sum(v * p, axis=1)[:, None] * v
        vw = v[:, :, None] * (2.0 * w)[:, None, :]
        sub -= vw + vw.transpose(0, 2, 1)
        if not isinstance(rows, slice):
            a[rows, k + 1:, k + 1:] = sub
        e[rows, k] = -alpha * x_max
    if n > 1:
        e[:, n - 2] = a[:, n - 1, n - 2]
    return np.diagonal(a, axis1=1, axis2=2).copy(), e
