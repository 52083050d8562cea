"""Exact Cheeger constants by pruned subset enumeration.

All three isoperimetric quantities are exact rationals:

  vertex  h       = min |delta(A)| / |A|          over 1 <= |A| <= floor(n/2),
  edge    h_edge  = min |E(A, A^c)| / (d |A|)     same range,
  dual    h_dual  = max 2|E(V1, V2)| / (d(|V1| + |V2|))  over partitions
                    V1, V2, V3 with V1 cup V2 nonempty.

Witnesses are deterministic: the minimum (resp. first maximum) under the
tie-break (ratio, |A|, bitmask value), so every result equals the naive
all-subsets scan, value and witness both. The dual enumerator starts from a
seed pair's ratio as a floor and prunes a subtree when no pair in it reaches
the floor or beats the incumbent, or when no maximiser lies in it (some
vertex whose neighbours are all placed could move or drop out and raise the
ratio). The vertex, edge and S'-weighted searches share one witness rule:
they first find (ratio, |A|), pruning every subtree that cannot lower it,
and then search the sets of that size and ratio for the smallest bitmask.

The edge and S'-weighted searches are one crossing search on a Cayley
multigraph, given as the group table and a symmetric multiset of elements.
Its first incumbent is the better of the rooted set {0} and the best union
of left cosets of a cyclic subgroup <g>, g in the multiset (_coset_union):
each element maps left cosets onto left cosets, so all unions of up to 12
cosets are scored at once on the coset graph. The union is a real set, so
the result is unchanged and the search can only visit fewer nodes. On
symmetric:4 with the transpositions it is the optimum, which the spectral
floor below then certifies before the first node.

The edge search also ends its first pass early at a spectral floor. Every
set A of k vertices in a d-regular graph has
|E(A, A^c)| >= d lambda_2 k (n - k)/n (Fiedler 1973; Alon and Milman 1985),
where d lambda_2 is the second eigenvalue of dI - A (lambda_2 that of I - T);
loops cancel in dI - A. The floor ceil((lambda_2 - TOL) d k (n - k)/n) is
taken in exact rationals from the spectrum the caller passes to
edge_cheeger (full_report passes the one it already holds); without one the
search runs to the end. Its only float input, lambda_2, is lowered by
spectral.TOL, which exceeds the solvers' error of about n eps. The proof's
S'-weighted search takes no floor.

The depth-first searches find their optimum early and spend most of their
nodes proving it. So the vertex search's first pass and the crossing
search's second pass dive first: they run depth first under a fixed node
budget (_VERTEX_DIVE extend calls, _CROSSING_DIVE step calls), and a dive
that finishes within it is the whole search. A dive that runs out restarts
from the root on a numpy frontier (_frontier): nodes held as uint64 masks
and int64 counts, expanded in chunks of bounded size, depth first over
chunks, with the same bounds and the same result. The vertex frontier
starts from the dive's incumbent; the crossing frontier keeps the walk's
order, so its first surviving set is still the smallest mask. A frontier
set is one uint64, so above _LAYOUT = 64 vertices (reachable only with a
raised max_exact) the dives run with no budget. The crossing frontier pays
where pass 2 outruns its dive, as on symmetric:4 with the transpositions,
whose pass 2 (the same from verify and from the cheeger command) takes
3 016 step calls depth first and about twice as long as on the frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .cayley import CayleyGraph, mask_members
from .errors import CapExceededError
from .spectral import TOL, SpectralSummary

MAX_EXACT_DEFAULT = 24
MAX_DUAL_DEFAULT = 14


@dataclass(frozen=True)
class CheegerCertificate:
    kind: str                                   # "vertex" | "edge" | "dual"
    value: Fraction
    witness: tuple[int, ...]
    witness_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None


# Node budgets of the depth-first dives: extend calls of the vertex search's
# pass 1, step calls of the crossing search's pass 2. A dive that exceeds its
# budget restarts on a numpy frontier (_frontier), whose chunks hold at most
# _CHUNK entries per array. A frontier set is one uint64, so above _LAYOUT
# vertices the dives run with no budget.
_VERTEX_DIVE = 600
_CROSSING_DIVE = 400
_CHUNK = 32768
_LAYOUT = 64


class _OverBudget(Exception):
    """Ends a depth-first dive that has used up its node budget."""


def _count(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 mask, as int64 (bitwise_count gives uint8)."""
    return np.bitwise_count(x).astype(np.int64)


def _frontier(
    root: tuple[np.ndarray, ...], n: int,
    expand: Callable[[int, tuple[np.ndarray, ...]], tuple[tuple[np.ndarray, ...], int]],
) -> int:
    """Expand a frontier of nodes in chunks, depth first over chunks; returns
    the first nonzero result of expand, or 0 when the frontier runs out.

    A chunk is a tuple of arrays with one row per node; root is the chunk at
    depth 0. expand(depth, chunk) returns the surviving children of the
    chunk's nodes, in node order, and a nonzero result to stop. A node has
    at most n children, and each level is cut into chunks of at most
    _CHUNK // (n * width) nodes, width the entries of a root row's widest
    array: so the arrays of a chunk's (node, child) pairs hold at most
    _CHUNK entries each, and the stack, one chunk list per level, at most
    _CHUNK entries per array per level. The chunks of a level are expanded
    in order, each one's subtree before the next chunk, so the nodes are
    visited in depth-first order chunk by chunk.
    """
    per = max(1, _CHUNK // (n * max(a[0].size for a in root)))
    stack = [(0, [root])]
    while stack:
        depth, level = stack[-1]
        chunk = level.pop()
        if not level:
            stack.pop()
        children, found = expand(depth, chunk)
        if found:
            return found
        count = len(children[0])
        if count:
            starts = range((count - 1) // per * per, -1, -per)
            stack.append((depth + 1, [tuple(a[i:i + per] for a in children) for i in starts]))
    return 0


def _may_lower(lhs: np.ndarray, rhs: np.ndarray, ties: np.ndarray | bool) -> np.ndarray:
    """The rows whose bound lhs/rhs (cross-multiplied with the incumbent)
    may still lower (ratio, size): below it, or equal where ties holds."""
    return (lhs < rhs) | ((lhs == rhs) & ties)


def _pairs(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(node, child) pairs, node-major: node i with each v in first[i]..stop[i]-1
    ascending. Returns the node index and v of every pair."""
    width = stop - first
    node = np.repeat(np.arange(len(first)), width)
    offset = np.cumsum(width) - width
    return node, np.arange(len(node)) - offset[node] + first[node]


# The rooted searches below use right translation x -> x·g, a graph
# automorphism: every set has a translate containing vertex 0 (the identity)
# with the same size and ratio, so the (ratio, size) minimum is found by
# enumerating only the sets that contain 0, depth first from the rooted set
# {0} in vertex order, and pruning every subtree that cannot lower it. The
# witness is the (ratio, size, mask) minimum over all admissible sets:
# _smallest_mask finds it in a second pass over all sets of the optimal size.


def _smallest_mask(
    n: int, size: int, bound: int,
    step: Callable[[Any, int, int, int], tuple[Any, int]], state: Any,
) -> int:
    """The smallest mask of `size` vertices whose objective is at most `bound`.

    Elements are chosen from the top down, each in ascending order, so the
    first complete set is the smallest mask. step(state, e, a, left) adds the
    element e to the set (a is the result) and returns (state, lb): lb bounds
    the objective of every completion of a by `left` more elements below e,
    and is exact when left == 0. A branch with lb > bound is pruned.
    """

    def walk(top: int, chosen: int, state: Any, left: int) -> int:
        left -= 1
        for e in range(left, top):
            a = chosen | (1 << e)
            state2, lb = step(state, e, a, left)
            if lb <= bound:
                if not left:
                    return a
                found = walk(e, a, state2, left)
                if found:
                    return found
        return 0

    return walk(n, 0, state, size)


def _vertex_search(nbr_masks: Sequence[int], n: int) -> tuple[int, int, int]:
    """Minimise |delta(A)|/|A|; returns (boundary, size, mask).

    Pass 1 finds the value (b*, k*), the least ratio and then the least size,
    over the rooted sets. Below a node, A holds `mask`, the passed-over
    vertices can never join, and at most slack = kmax - |A| future vertices
    may still join. Passed-over neighbours of A are boundary for good (pb).
    A live vertex y (future and adjacent to A) is boundary unless it joins,
    and if it joins, its neighbours among the passed-over vertices Q not
    adjacent to A become boundary. If j live vertices join, the boundary is
    at least pb + (live - j) + q_(j), where q_(j) is the j-th smallest
    q_y = |N(y) ∩ Q| (q_(0) = 0): the union of the joiners' Q-neighbours is
    at least as large as the largest of their q_y. Capping q_y at 2 keeps
    this a lower bound, and the minimum over j <= min(slack, live) is lb.
    The cheap bound, which takes every q_y as 0, is tried first.

    Every set in a subtree has size at most kmax and boundary at least lb,
    so its ratio is at least lb/kmax, strictly more unless its size is kmax
    or lb = 0. A subtree (or the rest of a loop) is pruned when lb/kmax
    exceeds the incumbent ratio, and also when it only ties it and the
    smallest of its sets that can tie is not below the incumbent size: none
    of them can then lower (ratio, size). That set has size kmax when the
    ratio is above 0, and one more than |A| at ratio 0, where any set with
    no boundary ties.

    Pass 2 returns the smallest mask among all sets, rooted or not, with
    |A| = k* and |delta(A)| <= b*: no set of size k* has a smaller boundary,
    so that is the (ratio, size, mask) minimum. Once the elements at and
    above e are decided, every neighbour above e outside A is boundary (pb),
    and of the cand neighbours below e at most `left` more elements can be
    absorbed, so pb + max(0, cand - left) bounds the boundary.

    Pass 1 is a dive: after _VERTEX_DIVE extend calls it keeps its incumbent
    and restarts from {0} on the frontier (_vertex_bulk), which applies the
    same tests to a chunk of nodes at once. Pass 2 always runs depth first.
    """
    kcap = n // 2
    below = [(1 << u) - 1 for u in range(n + 1)]
    masks = list(nbr_masks)
    best_num, best_size = (masks[0] & ~1).bit_count(), 1   # the rooted set {0}

    def passed_over_bound(live_mask: int, live: int, j: int, passed: int) -> int:
        # min over i <= j joiners of live - i + q_(i), q_y capped at 2. q1, q2
        # hold the vertices with at least one and at least two neighbours in
        # `passed` (Q); adjacency is symmetric, so they are built from the
        # neighbour masks of Q's members. The i joiners with q_y <= 1 come
        # first; among them the sum does not increase with i.
        q1 = q2 = 0
        while passed:
            low = passed & -passed
            m = masks[low.bit_length() - 1]
            q2 |= q1 & m
            q1 |= m
            passed ^= low
        one = (live_mask & q1).bit_count()
        two = (live_mask & q2).bit_count()
        i = j if j < live - two else live - two
        extra = live - i + (i > live - one)
        if j > i and live - j + 2 < extra:
            extra = live - j + 2
        return extra

    calls, budget = 0, _VERTEX_DIVE if n <= _LAYOUT else math.inf

    def extend(start: int, mask: int, size: int, nbr: int) -> None:
        nonlocal best_num, best_size, calls
        calls += 1
        if calls > budget:
            raise _OverBudget
        bn, bs = best_num, best_size
        for u in range(start, n):
            # Everything left in this loop extends `mask`; vertices below u
            # that are boundary now can never be absorbed.
            kmax = size + (n - u)
            if kmax > kcap:
                kmax = kcap
            lhs = (nbr & below[u] & ~mask).bit_count() * bs
            rhs = bn * kmax
            if lhs > rhs or (lhs == rhs and (kmax if bn else size + 1) >= bs):
                break
            mask2 = mask | (1 << u)
            size2 = size + 1
            nbr2 = nbr | masks[u]
            num2 = (nbr2 & ~mask2).bit_count()
            lhs = num2 * bs
            rhs = bn * size2
            if lhs < rhs or (lhs == rhs and size2 < bs):
                best_num, best_size = bn, bs = num2, size2
            if size2 < kcap and u + 1 < n:
                kmax = size2 + (n - u - 1)
                if kmax > kcap:
                    kmax = kcap
                pb = (nbr2 & below[u + 1] & ~mask2).bit_count()
                live_mask = nbr2 & ~below[u + 1]
                live = live_mask.bit_count()
                j = kmax - size2
                if j > live:
                    j = live
                rhs = bn * kmax
                ties = (kmax if bn else size2 + 1) < bs   # a tie can lower the size
                lhs = (pb + live - j) * bs
                if lhs < rhs or (lhs == rhs and ties):
                    passed = below[u + 1] & ~mask2 & ~nbr2
                    lhs = (pb + passed_over_bound(live_mask, live, j, passed)) * bs
                    if lhs < rhs or (lhs == rhs and ties):
                        extend(u + 1, mask2, size2, nbr2)
                        bn, bs = best_num, best_size

    def step(nbr: int, e: int, a: int, left: int) -> tuple[int, int]:
        nb = nbr | masks[e]
        cand = (nb & below[e]).bit_count()
        return nb, (nb & ~below[e] & ~a).bit_count() + (cand - left if cand > left else 0)

    if kcap > 1:
        try:
            extend(1, 1, 1, masks[0])
        except _OverBudget:
            best_num, best_size = _vertex_bulk(masks, n, best_num, best_size)
    return best_num, best_size, _smallest_mask(n, best_size, best_num, step, 0)


def _vertex_bulk(masks: Sequence[int], n: int, best_num: int, best_size: int) -> tuple[int, int]:
    """Pass 1 of _vertex_search on a chunked frontier (_frontier), from the
    rooted set {0} and the incumbent (best_num, best_size); returns the
    optimal (boundary, size). n <= _LAYOUT, so a set is one uint64.

    Each chunk applies extend's tests to all its (node, u) pairs at once,
    under the incumbent the chunk started with, which is sound because the
    incumbent only improves. The loop-head break is monotone in u (its left
    side grows and kmax shrinks), so it is a filter. The chunk's best child
    replaces the incumbent under the strict tie rule, and the children are
    then filtered by the cheap bound and by the passed-over bound.
    """
    kcap = n // 2
    one = np.uint64(1)
    bits = one << np.arange(n, dtype=np.uint64)
    low = bits - one   # low[u]: the vertices below u
    nbrs = np.array(masks, dtype=np.uint64)
    # byte_planes[b] = (t1, t2): for a set Q whose byte b is x and whose
    # other bytes are 0, t1[x] and t2[x] hold the vertices with at least one
    # and at least two neighbours in Q.
    byte_planes = []
    for b in range(0, n, 8):
        t1 = t2 = np.zeros(1, dtype=np.uint64)
        for m in nbrs[b:b + 8]:
            t1, t2 = np.concatenate((t1, t1 | m)), np.concatenate((t2, t2 | (t1 & m)))
        byte_planes.append((t1, t2))

    def prove(depth: int, chunk: tuple[np.ndarray, ...]) -> tuple[tuple[np.ndarray, ...], int]:
        # The chunk's nodes are rooted sets of depth + 1 vertices.
        nonlocal best_num, best_size
        start, mask, nbr = chunk
        size = depth + 1
        bn, bs = best_num, best_size
        node, u = _pairs(start, np.full_like(start, n))
        mask, nbr = mask[node], nbr[node]
        kmax = np.minimum(size + n - u, kcap)
        keep = _may_lower(_count(nbr & low[u] & ~mask) * bs, bn * kmax,
                          (kmax if bn else size + 1) < bs)
        u = u[keep]
        mask2 = mask[keep] | bits[u]
        nbr2 = nbr[keep] | nbrs[u]
        size2 = size + 1
        if len(u):
            num2 = int(_count(nbr2 & ~mask2).min())
            if num2 * bs < bn * size2 or (num2 * bs == bn * size2 and size2 < bs):
                best_num, best_size = bn, bs = num2, size2
        keep = (u + 1 < n) & (size2 < kcap)
        u, mask2, nbr2 = u[keep] + 1, mask2[keep], nbr2[keep]   # u: the child's start
        kmax = np.minimum(size2 + n - u, kcap)
        pb = _count(nbr2 & low[u] & ~mask2)
        live_mask = nbr2 & ~low[u]
        live = _count(live_mask)
        j = np.minimum(kmax - size2, live)
        keep = _may_lower((pb + live - j) * bs, bn * kmax, (kmax if bn else size2 + 1) < bs)
        u, mask2, nbr2, kmax, pb, live_mask, live, j = (
            a[keep] for a in (u, mask2, nbr2, kmax, pb, live_mask, live, j))
        # passed_over_bound on every child, with q1, q2 merged from the
        # planes of the passed-over set's bytes.
        passed = low[u] & ~mask2 & ~nbr2
        q1 = np.zeros_like(passed)
        q2 = np.zeros_like(passed)
        for shift, (t1, t2) in enumerate(byte_planes):
            byte = (passed >> np.uint64(8 * shift)) & np.uint64(255)
            r1, r2 = t1[byte], t2[byte]
            q2 |= r2 | (q1 & r1)
            q1 |= r1
        ones = _count(live_mask & q1)
        two = live - _count(live_mask & q2)
        i = np.minimum(j, two)
        extra = live - i + (i > live - ones)
        extra = np.where((j > i) & (live - j + 2 < extra), live - j + 2, extra)
        keep = _may_lower((pb + extra) * bs, bn * kmax, (kmax if bn else size2 + 1) < bs)
        return (u[keep], mask2[keep], nbr2[keep]), 0

    root = (np.array([1]), np.array([1], dtype=np.uint64), nbrs[:1])
    _frontier(root, n, prove)
    return best_num, best_size


class _Certified(Exception):
    """Ends pass 1 of _crossing_search once the floor certifies the incumbent."""


def _certified(floor: Sequence[int], num: int, size: int) -> bool:
    """Whether no set can lower (ratio, size) below (num/size, size) when
    every set of k vertices crosses at least floor[k]: each k has a floor
    ratio above num/size, or equal to it with k >= size."""
    for k in range(1, len(floor)):
        lhs, rhs = floor[k] * size, num * k
        if lhs < rhs or (lhs == rhs and k < size):
            return False
    return True


def _coset_union(
    mult: Sequence[Sequence[int]], counts: dict[int, int],
) -> tuple[int, int, int] | None:
    """The (ratio, size)-least union of at most half the left cosets x<g> of
    one cyclic subgroup <g>, g != 0 in the multiset, as (crossing, size,
    mask); None when no <g> has 2 to 12 cosets.

    c·(x g^e) = (c x) g^e, so each element c maps left cosets onto left
    cosets, and a union U of cosets crosses |<g>| times its crossing in the
    coset graph: sum over c of counts[c] · #{C in U : c·C not in U}. Every
    union is scored at once in int64 from the coset graph's weight matrix.
    A conjugate y<g>y^-1 has the cosets x<g>y^-1, right translates of those
    of <g>, with the same crossings, so it is skipped like a repeated <g>.
    """
    n = len(mult)
    inv = [row.index(0) for row in mult]
    seen: set[frozenset[int]] = set()
    best = None
    for g in sorted(counts):
        if not g:
            continue
        sub = [0, g]   # <g> = {1, g, g^2, ...}
        while mult[sub[-1]][g]:
            sub.append(mult[sub[-1]][g])
        k = n // len(sub)
        if not 2 <= k <= 12 or frozenset(sub) in seen:
            continue
        seen.update(frozenset(mult[mult[y][h]][inv[y]] for h in sub) for y in range(n))
        label, cosets = [-1] * n, []
        for x in range(n):
            if label[x] < 0:
                for h in sub:
                    label[mult[x][h]] = len(cosets)
                cosets.append(x)
        weight = [[0] * k for _ in range(k)]   # the coset graph
        for c, w in counts.items():
            for i, x in enumerate(cosets):
                weight[i][label[mult[c][x]]] += w
        weight = np.array(weight, dtype=np.int64)
        # Union u = high | low, low of the cosets below k // 2 and high of the
        # rest: its crossing is each part's own less the weight between them.
        half = k // 2
        low = (np.arange(1 << half)[:, None] >> np.arange(k)) & 1
        high = (np.arange(0, 1 << k, 1 << half)[:, None] >> np.arange(k)) & 1
        own = [((m @ weight) * (1 - m)).sum(axis=1) for m in (high, low)]
        cross = (own[0][:, None] + own[1] - high @ (weight + weight.T) @ low.T).ravel()
        # (ratio, size, u) as one int64: 60 is a multiple of every size <= 6.
        size = _count(np.arange(1 << k))
        key = np.where((size > 0) & (2 * size <= k),
                       60 // np.maximum(size, 1) * cross * 8 + size, np.iinfo(np.int64).max)
        u = int(np.argmin(key))
        num, size2 = len(sub) * int(cross[u]), len(sub) * int(size[u])
        if best is None or num * best[1] < best[0] * size2 or (
                num * best[1] == best[0] * size2 and size2 < best[1]):
            best = num, size2, sum(1 << x for x in range(n) if u >> label[x] & 1)
    return best


def _crossing_search(
    mult: Sequence[Sequence[int]], counts: dict[int, int],
    floor: Sequence[int] | None = None,
) -> tuple[int, int, int, int]:
    """Minimise the weighted crossing count w(A, A^c)/|A| over
    1 <= |A| <= n//2 on a Cayley multigraph; returns (crossing, size, mask,
    nodes), nodes the extend calls of pass 1.

    mult is the group table (n = len(mult)) and counts a symmetric multiset
    {element: count}: u and g·u are joined by an edge of weight counts[g];
    element 0, the identity, gives loops, which never cross. Unit counts on
    S give the edge Cheeger count |E(A, A^c)|, and S·S the proof's count.

    Pass 1 finds the value (b*, k*), the least ratio and then the least size,
    over the rooted sets. Its first incumbent is the better of the rooted
    set {0} and the best union of cosets of a cyclic subgroup (_coset_union).
    Both are real sets, so every incumbent is attained and pass 1 still ends
    at (b*, k*), and pass 2, which takes only (b*, k*), finds the same mask.
    The depth-first order is unchanged, and each test prunes at least as
    much under a lower incumbent, so pass 1 visits a subset of the nodes it
    would from {0} alone. On symmetric:4 with the transpositions the union
    is the optimum 24/12, which the spectral floor certifies before the
    first node.

    Below a node, A holds `mask`, the passed-over set P can never join, and
    the future vertices y (above the last one decided) are free. Let c_y
    and p_y be y's weight to A and to P. In any completion y pays at least
    min(c_y, p_y): its edges to P cross if it joins A, its edges to A if it
    does not. These edges are disjoint from each other and from the A-P
    edges, so every completion crosses at least
        lb = w(A, P) + sum over future y of min(c_y, p_y).
    min(c, p) is the number of k >= 1 with c >= k and p >= k; counting only
    k = 1, 2 keeps lb a lower bound and fits in bit planes c1 = {c >= 1},
    c2 = {c >= 2} (likewise p1, p2), so the sum is two popcounts. Subtrees
    (and the rest of a loop) are pruned as in _vertex_search: when lb/kmax
    exceeds the incumbent ratio, and when it only ties it and the smallest of
    its sets that can tie (size kmax, or |A| + 1 at ratio 0) is not below the
    incumbent size.

    floor, when given, holds for 1 <= k <= n//2 a lower bound floor[k] on
    the crossing of every set of k vertices (floor[0] is unused). Pass 1 then
    stops as soon as the first incumbent or an improved one meets it
    (_certified): no set can lower (ratio, size) any more.

    Pass 2 returns the smallest mask among all sets, rooted or not, with
    |A| = k* and crossing at most b*. Once the elements at and above e are
    decided, a vertex y below e that joins A stops crossing to A and starts
    crossing to the vertices at and above e that stay out, and the edges
    among the vertices below e only add crossings. So with c_y and h_y the
    weight of y to A and to the vertices at and above e, a completion by
    `left` more elements crosses at least
        w(A, A^c) + (sum of the `left` smallest h_y - 2 c_y over y < e).

    Pass 2 is a dive: after _CROSSING_DIVE step calls it restarts from the
    empty set on the frontier (_crossing_bulk), in the walk's order. Pass 1
    always runs depth first. The frontier stays for pass 2 of the
    symmetric:4 edge search with the transpositions, floored or not: it
    outruns the dive, and depth first it takes about twice as long.
    """
    n = len(mult)
    kcap = n // 2
    # weight[u][y] = counts[g] for the one g with g·u = y; rows[u]: one
    # (count, mask of those y) layer per distinct count, in count order.
    weight = [[0] * n for _ in range(n)]
    layers: dict[int, list[int]] = {}
    for g, c in counts.items():
        if g:
            masks = layers.setdefault(c, [0] * n)
            for u, y in enumerate(mult[g]):
                weight[u][y] = c
                masks[u] |= 1 << y
    order = sorted(layers.items())
    rows = [tuple((c, masks[u]) for c, masks in order) for u in range(n)]
    # deg[u]: weight from u to every other vertex; low[u]: to vertices below u.
    deg = [sum(row) for row in weight]
    low = [sum(row[:u]) for u, row in enumerate(weight)]
    # one[u], two[u]: vertices joined to u with weight >= 1 and >= 2 (a row's
    # layers are disjoint, so their sum is their union). Adding u to a set
    # with planes (x1, x2) gives (x1 | one[u], x2 | two[u] | x1 & one[u]).
    one = [sum(m for _, m in row) for row in rows]
    two = [sum(m for c, m in row if c > 1) for row in rows]
    above = [~((1 << u) - 1) for u in range(n + 1)]   # vertices u, u+1, ...
    best_num, best_size = deg[0], 1   # the rooted set {0}
    union = _coset_union(mult, counts)
    if union and union[0] * best_size < best_num * union[1]:   # a tie keeps {0}
        best_num, best_size = union[:2]
    nodes = 0

    def extend(start: int, mask: int, size: int, eb: int, pe: int,
               c1: int, c2: int, p1: int, p2: int) -> None:
        # eb: crossing weight of `mask`; pe: crossing weight between `mask`
        # and vertices already passed over (they can never join A); c1, c2
        # and p1, p2: the planes of `mask` and of the passed-over vertices.
        nonlocal best_num, best_size, nodes
        nodes += 1
        bn, bs = best_num, best_size
        pe_run = pe
        for u in range(start, n):
            kmax = size + (n - u)
            if kmax > kcap:
                kmax = kcap
            f = above[u]
            lhs = (pe_run + (c1 & p1 & f).bit_count() + (c2 & p2 & f).bit_count()) * bs
            rhs = bn * kmax
            if lhs > rhs or (lhs == rhs and (kmax if bn else size + 1) >= bs):
                break
            inner = 0   # weight between u and `mask`, which lies below u
            for w, m in rows[u]:
                inner += w * (m & mask).bit_count()
            eb2 = eb + deg[u] - 2 * inner
            size2 = size + 1
            lhs = eb2 * bs
            rhs = bn * size2
            if lhs < rhs or (lhs == rhs and size2 < bs):
                best_num, best_size = bn, bs = eb2, size2
                if floor and _certified(floor, bn, bs):
                    raise _Certified
            r1, r2 = one[u], two[u]
            if size2 < kcap and u + 1 < n:
                kmax = size2 + (n - u - 1)
                if kmax > kcap:
                    kmax = kcap
                pe2 = pe_run + low[u] - inner
                d1 = c1 | r1
                d2 = c2 | r2 | (c1 & r1)
                f = above[u + 1]
                lhs = (pe2 + (d1 & p1 & f).bit_count() + (d2 & p2 & f).bit_count()) * bs
                rhs = bn * kmax
                if lhs < rhs or (lhs == rhs and (kmax if bn else size2 + 1) < bs):
                    extend(u + 1, mask | (1 << u), size2, eb2, pe2, d1, d2, p1, p2)
                    bn, bs = best_num, best_size
            pe_run += inner
            p2 |= r2 | (p1 & r1)
            p1 |= r1

    # high[e][y]: y's weight to the vertices e, e+1, ...
    high = [[0] * n for _ in range(n + 1)]
    for e in range(n - 1, -1, -1):
        high[e] = [h + w for h, w in zip(high[e + 1], weight[e])]

    calls, budget = 0, _CROSSING_DIVE if n <= _LAYOUT else math.inf

    def step(state: tuple[list[int], int], e: int, a: int,
             left: int) -> tuple[tuple[list[int], int], int]:
        # state: (c, w(A, A^c)), c[y] the weight of y to A for y below the
        # last element added.
        nonlocal calls
        calls += 1
        if calls > budget:
            raise _OverBudget
        c, cross = state
        cross += deg[e] - 2 * c[e]
        row, he = weight[e], high[e]
        c = [c[y] + row[y] for y in range(e)]
        gains = sorted([he[y] - 2 * c[y] for y in range(e)])
        return (c, cross), cross + sum(gains[:left])

    if kcap > 1 and not (floor and _certified(floor, best_num, best_size)):
        try:
            extend(1, 1, 1, deg[0], 0, one[0], two[0], 0, 0)
        except _Certified:
            pass
    try:
        mask = _smallest_mask(n, best_size, best_num, step, ([0] * n, 0))
    except _OverBudget:
        mask = _crossing_bulk(weight, high, deg, n, best_size, best_num)
    return best_num, best_size, mask, nodes


def _crossing_bulk(
    weight: Sequence[Sequence[int]], high: Sequence[Sequence[int]], deg: Sequence[int],
    n: int, size: int, bound: int,
) -> int:
    """Pass 2 of _crossing_search on a chunked frontier (_frontier): the
    smallest mask of `size` vertices crossing at most `bound`. n <= _LAYOUT,
    so a set is one uint64.

    A node is a set of `depth` elements: its lowest element (n at the root),
    its mask, w(A, A^c) and the row c of weights to A. Each chunk applies
    step's bound to all its (node, e) pairs at once: c is an (F, n) array,
    and the sum of the `left` smallest h_y - 2 c_y over y < e comes from
    np.partition along the rows. Children come node-major in ascending e,
    the walk's order, so the first complete set that survives is the
    smallest mask.
    """
    wt = np.array(weight, dtype=np.int64)
    hi = np.array(high, dtype=np.int64)
    degs = np.array(deg, dtype=np.int64)
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    cols = np.arange(n)
    never = np.iinfo(np.int64).max   # stands for y >= e, which cannot join

    def prove(depth: int, chunk: tuple[np.ndarray, ...]) -> tuple[tuple[np.ndarray, ...], int]:
        top, mask, cross, c = chunk
        left = size - depth - 1
        node, e = _pairs(np.full_like(top, left), top)
        c = c[node] + wt[e]   # wt[e, e] = 0, so c[:, e] is still e's weight to A
        cross = cross[node] + degs[e] - 2 * c[np.arange(len(e)), e]
        lb = cross
        if left:
            gains = np.where(cols < e[:, None], hi[e] - 2 * c, never)
            lb = cross + np.partition(gains, left - 1, axis=1)[:, :left].sum(axis=1)
        keep = np.flatnonzero(lb <= bound)
        mask = mask[node[keep]] | bits[e[keep]]
        if not left and len(keep):
            return (), int(mask[0])
        return (e[keep], mask, cross[keep], c[keep]), 0

    root = (np.array([n]), np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64),
            np.zeros((1, n), dtype=np.int64))
    return _frontier(root, n, prove)


def _require_exact(n: int, max_exact: int) -> None:
    if n > max_exact:
        raise CapExceededError("max_exact", max_exact, n)
    if n < 2:
        raise ValueError("no admissible sets: need n >= 2")


def vertex_cheeger(graph: CayleyGraph, *, max_exact: int = MAX_EXACT_DEFAULT) -> CheegerCertificate:
    _require_exact(graph.n, max_exact)
    return graph.memo("vertex_cheeger", lambda: _vertex_certificate(graph))


def _vertex_certificate(graph: CayleyGraph) -> CheegerCertificate:
    num, size, mask = _vertex_search(graph.nbr_masks, graph.n)
    return CheegerCertificate("vertex", Fraction(num, size), mask_members(mask))


def edge_cheeger(
    graph: CayleyGraph,
    *,
    max_exact: int = MAX_EXACT_DEFAULT,
    summary: SpectralSummary | None = None,
) -> CheegerCertificate:
    """Exact edge Cheeger constant with the smallest-mask witness.

    summary, when given, must be spectrum(graph): the search then stops its
    first pass at the spectral floor. The result is the same either way.
    """
    _require_exact(graph.n, max_exact)
    return graph.memo("edge_cheeger", lambda: _edge_certificate(graph, summary))


def _edge_certificate(graph: CayleyGraph, summary: SpectralSummary | None) -> CheegerCertificate:
    floor = None if summary is None else _spectral_floor(graph, summary.lambda2)
    num, size, mask, _ = _crossing_search(
        graph.group.mult, dict.fromkeys(graph.gens.elements, 1), floor)
    return CheegerCertificate("edge", Fraction(num, graph.d * size), mask_members(mask))


def _spectral_floor(graph: CayleyGraph, lambda2: float) -> list[int]:
    """floor[k] = ceil((lambda2 - TOL) d k (n - k)/n) for 0 <= k <= n//2, a
    lower bound on |E(A, A^c)| over the sets A of k vertices when lambda2 is
    the second-smallest eigenvalue of I - T."""
    n, d = graph.n, graph.d
    lam = Fraction(lambda2) - Fraction(TOL)
    return [math.ceil(lam * d * k * (n - k) / n) for k in range(n // 2 + 1)]


def dual_cheeger(graph: CayleyGraph, *, max_dual: int = MAX_DUAL_DEFAULT) -> CheegerCertificate:
    """Exact dual Cheeger constant with the canonical first-maximiser witness.

    Only pairs with the identity (vertex 0) in V1 are enumerated: translating
    any maximiser so that one of its vertices lands on 0, and swapping V1 and
    V2 if needed, gives one with 0 in V1, and the V1 branch of vertex 0 comes
    first in the full enumeration order, so the first maximiser is the same.
    """
    if graph.n > max_dual:
        raise CapExceededError("max_dual", max_dual, graph.n)
    return graph.memo("dual_cheeger", lambda: _dual_certificate(graph))


def _dual_certificate(graph: CayleyGraph) -> CheegerCertificate:
    cross, m, m1, m2, _ = _dual_search(graph.nbr_masks, graph.n)
    value = Fraction(2 * cross, graph.d * m)
    pair = (mask_members(m1), mask_members(m2))
    return CheegerCertificate("dual", value, pair[0], witness_pair=pair)


def _dual_seed(masks: Sequence[int]) -> tuple[int, int, int]:
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


def _dual_search(masks: Sequence[int], n: int) -> tuple[int, int, int, int, int]:
    """(cross, m, m1, m2, nodes): the first maximiser of cross/m over the
    pairs (V1, V2) with 0 in V1, in the order that assigns 0, 1, ..., n-1 to
    V1, V2, V3 in turn; nodes counts the assign calls.

    A crossing edge is counted when its later endpoint is assigned, so an
    unassigned vertex w adds at most low[w] = |N(w) ∩ {0..w-1}| crossings,
    and adds 1 to m = |V1| + |V2| if it joins V1 or V2.

    Floor. The seed (_dual_seed) is a real pair on all n vertices, so its
    p/q = cross/n is at most the optimum r* from the first node on. A
    completion of a node at vertex v (cross crossings so far) reaches p/q
    only if
        cross·q - p·m + G[v] >= 0,   G[v] = sum over w >= v of max(0, low[w]·q - p)
    (Dinkelbach's test for a ratio). Until the first leaf is accepted, a node
    is pruned only when this fails, so every pair that reaches the floor, and
    the first maximiser with them, survives; the first leaf that reaches it
    becomes the incumbent. From then on p/q is the incumbent, the test is
    strict (> 0, a completion must beat it), and G is rebuilt on each
    improvement. At v == n, G[n] = 0 and the test is the acceptance test.
    Bipartite graphs. 2·cross is the sum of c_u below over u in V1 ∪ V2,
    so 2·cross <= d·m <= d·n. If the seed reaches 2·cross = d·n, every
    vertex is placed with all d neighbours on the other side: the seed is a
    bipartition, of ratio 1, the most any pair reaches, and the search is
    skipped (nodes = 0). Any pair of ratio 1 has the same property on its
    own vertices, so it holds every neighbour of each; in the connected
    graph that is every vertex, and 0 in V1 fixes the 2-colouring. The seed
    is therefore the only maximiser with 0 in V1.

    Local optimality. Let (V1, V2) be any maximiser, m = |V1| + |V2|, and for
    u in V1 ∪ V2 let c_u count u's neighbours on the other side and s_u those
    on its own side (a loop counts on neither). Then
      - s_u <= c_u: moving u to the other side gives cross - c_u + s_u
        crossings at the same m, which beats the maximum if s_u > c_u;
      - c_u >= r* = cross/m: dropping u gives (cross - c_u)/(m - 1), and
        (cross - c_u)·m > cross·(m - 1) exactly when cross > c_u·m. (If
        m = 1, u is alone, c_u = 0 and cross = 0, so c_u >= r* holds.)
    closes[k] holds the vertices u whose neighbours and u itself lie in
    0..k-1, so at depth k their c_u and s_u are fixed for every leaf below.
    A node at depth k is pruned if some u in closes[k] lies in V1 ∪ V2 with
    s_u > c_u or c_u·q < p: then c_u < p/q <= r*, as p/q is the floor or
    the incumbent, both reached by real pairs. No maximiser lies below such
    a node, so the first maximiser is still the leaf the search accepts
    last. (The rules need the floor: with the incumbent alone they prune
    leaves that would have raised it early, and the search grows.)
    """
    d = masks[0].bit_count()
    p, best1, best2 = _dual_seed(masks)
    q = n
    if 2 * p == d * n:
        return p, q, best1, best2, 0
    low = [(masks[w] & ((1 << w) - 1)).bit_count() for w in range(n)]
    closes: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for u in range(n):
        nbr = masks[u] & ~(1 << u)          # a loop counts on neither side
        closes[max(u, nbr.bit_length() - 1) + 1].append((1 << u, nbr))
    tie = 0                                 # 1 once a leaf is accepted
    expanded = 0                            # each makes three assign calls

    def suffix_gains() -> list[int]:
        gains = [0] * (n + 1)
        for w in range(n - 1, -1, -1):
            gain = low[w] * q - p
            gains[w] = gains[w + 1] + (gain if gain > 0 else 0)
        return gains

    gains = suffix_gains()

    def assign(v: int, m1: int, m2: int, m: int, cross: int) -> None:
        nonlocal p, q, best1, best2, gains, tie, expanded
        if cross * q - p * m + gains[v] < tie:
            return
        closing = closes[v]
        if closing:
            for bit, nbr in closing:
                if m1 & bit:
                    c, s = (nbr & m2).bit_count(), (nbr & m1).bit_count()
                elif m2 & bit:
                    c, s = (nbr & m1).bit_count(), (nbr & m2).bit_count()
                else:
                    continue
                if s > c or c * q < p:
                    return
        if v == n:
            p, q, best1, best2, tie = cross, m, m1, m2, 1
            gains = suffix_gains()
            return
        expanded += 1
        bit = 1 << v
        nm = masks[v]
        assign(v + 1, m1 | bit, m2, m + 1, cross + (nm & m2).bit_count())
        assign(v + 1, m1, m2 | bit, m + 1, cross + (nm & m1).bit_count())
        assign(v + 1, m1, m2, m, cross)

    assign(1, 1, 0, 1, 0)
    return p, q, best1, best2, 1 + 3 * expanded
