"""Normalised spectra of Cayley graphs.

The normalised adjacency operator T has entries T[x][y] = #{s in S : sx = y}/d.
It is symmetric with row sums 1, so its spectrum lies in [-1, 1]. We report
both the adjacency eigenvalues t_1 <= ... <= t_n and the Laplacian eigenvalues
lambda_i = 1 - t_{n+1-i}, sorted ascending, with lambda_1 = 0 exactly.

The eigenvalues come from characters when the group constructor recorded
an abelian subgroup A of index 1 or 2 (``FiniteGroup.abelian``), in O(n d):
each character of A gives one eigenvalue when A = G (Babai, "Spectra of
Cayley graphs", 1979) and one 2x2 block when [G:A] = 2 (Serre, "Linear
Representations of Finite Groups", section 7); see _character_eigenvalues.
That covers cyclic and abelian groups, dihedral groups, and products of a
dihedral group with cyclic factors after it.

Every other group (symmetric, ``perm:`` and ``table:`` groups, and products
that record no abelian subgroup) takes them from the cyclic subgroup
A = <g> of an element g of largest order L: each character of A gives a
k x k Hermitian block, k = n/L (_coset_eigenvalues). The floor(L/2) + 1
blocks go to the in-repo solver (Householder tridiagonalisation of the
Hermitian blocks themselves, then Sturm-count bisection) in one batch. The
solver's cost at these sizes is its Python steps, one per row per stage,
so a batch of blocks takes about the steps of one block, where the blocks
one by one take about those of the n x n matrix.

``spectrum`` never builds T. The tests build it with
``normalized_adjacency`` and compare both paths with numpy's ``eigvalsh``
on it, an oracle that shares no code with this module. A Cayley graph's
eigenvalues repeat (each irreducible representation rho gives dim rho
copies of its own), so the bisection takes the Sturm counts once per
distinct bracket, not once per eigenvalue. Both
paths use only numpy elementwise arithmetic on float64 (a complex number
is a pair of real arrays), sums along the last axis and ``sqrt``; no
BLAS, LAPACK or libm transcendental is called (the cosines are Taylor
series on an angle reduced exactly in integers), so results are bitwise
reproducible, and no external solver is consulted outside the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cayley import CayleyGraph
from .errors import CapExceededError, ConvergenceError

MAX_SPECTRUM = 2048
# The margin of the two spectral flags below. Every graph that cayley.build
# makes is connected, and on a connected d-regular graph of order n and
# diameter D, lambda_2 >= 4/(d n D) (Mohar, "Eigenvalues, diameter, and mean
# distance in graphs", 1991) and, unless it is bipartite,
# 1 + t_min >= 1/(d n (D + 1)) (Alon and Sudakov, "Bipartite subgraphs and the
# smallest eigenvalue", 2000). Both are at least about 1/(4 n^2): 6e-8 at
# n = MAX_SPECTRUM and 2.5e-9 at groups.ELEMENT_CAP, above TOL, while the
# solvers' error is about n eps.
TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)
_SAFE_MIN = float(np.finfo(np.float64).tiny)
# sqrt(_SAFE_MIN): below it, a modulus may come from an underflowed square.
_ROOT_SAFE_MIN = 2.0 ** -511
_CONJUGATE = np.array([1.0, -1.0])[:, None]     # (Re z, Im z) -> (Re z, -Im z)
_MULTISECTION = 16      # each bisection round splits a bracket into 16
_MAX_ROUNDS = 64
# Taylor coefficients of cos and sin on [0, pi/4], where the 11th term of
# either series is below 1e-19.
_COS_TERMS = tuple((-1) ** k / math.factorial(2 * k) for k in range(11))
_SIN_TERMS = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(11))


def normalized_adjacency(graph: CayleyGraph) -> np.ndarray:
    """Dense T = A/d as a float64 array. Counts are checked exactly before
    dividing. spectrum does not use it; the tests and the benchmark's error
    metric build T with it."""
    n, d = graph.n, graph.d
    counts = np.zeros((n, n), dtype=np.int64)
    steps = graph.group.table[list(graph.gens)]   # steps[i, x] = s_i x
    np.add.at(counts, (np.tile(np.arange(n), d), np.ravel(steps)), 1)
    if np.any(counts.sum(axis=1) != d):
        raise AssertionError("row sum mismatch in adjacency counts")
    if not np.array_equal(counts, counts.T):
        raise AssertionError("adjacency counts not symmetric")
    return counts / d


def _polar(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|z| and z/|z| for complex numbers given as real pairs z[..., 0] +
    i z[..., 1]; the phase of 0 is copysign(1, Re z).

    z is first divided by max(|Re z|, |Im z|), so no square underflows, and
    a real z gets |z| = abs(z) and phase +-1 + 0i exactly.
    """
    big = np.abs(z).max(axis=-1)
    zero = big == 0.0
    unit = z / np.where(zero, 1.0, big)[..., None]
    if zero.any():
        unit[zero, 0] = np.copysign(1.0, unit[zero, 0])
    r = np.sqrt(unit[..., 0] * unit[..., 0] + unit[..., 1] * unit[..., 1])
    return big * r, unit / r[..., None]


def _tridiagonalize(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of each Hermitian re[b] + i im[b] to a real
    tridiagonal with the same eigenvalues: its diagonal d[b] and the moduli
    |e[b]| of its off-diagonal, which is all that _bisect_block reads. re
    and im are left as they are.

    Step k reflects rows/columns k+1.. by H = I - 2 u u^H so that column k
    vanishes below its subdiagonal (zhetrd; Golub and Van Loan, "Matrix
    Computations", section 8.3). With x that column, u is x + alpha e_0
    normalised, alpha = phase(x_0) ||x||, and the phase of x_0 = 0 is
    copysign(1, Re x_0). The trailing block is updated by the Hermitian
    rank-2 form sub -= 2 (u w^H + w u^H), w = p - (u^H p) u and p = sub u,
    formed as vw + vw^H with vw = u (2w)^H: doubling is exact, so Re stays
    exactly symmetric and Im exactly antisymmetric. A matrix whose column k
    is already zero there is left as it is. Re and Im are stacked in one
    array, so p takes one product and one sum. Every operation is
    elementwise or a sum along the last axis, so each matrix gets the bits
    it would get alone.

    Real input (im all +0.0) gives the d and |e| of the real reduction bit
    for bit: Im, Im u, -Im p and -Im w stay +0.0, so every imaginary term
    that meets a real one is a +0.0 subtracted from a product or added to a
    square, an exact identity.
    """
    batch, n = re.shape[0], re.shape[1]
    a = np.stack((re, im), axis=1)      # a[b, 0] = Re, a[b, 1] = Im
    abs_e = np.zeros((batch, n - 1))
    for k in range(n - 2):
        x = a[:, :, k + 1:, k]
        reflect = x[:, :, 1:].any(axis=(1, 2))
        if reflect.all():
            rows = slice(None)      # a view: sub is updated in place
        else:
            kept = np.flatnonzero(~reflect)
            abs_e[kept, k] = _polar(x[kept, :, 0])[0]
            if not reflect.any():
                continue
            rows = np.flatnonzero(reflect)
        x = x[rows]
        x_max = np.abs(x).max(axis=(1, 2))
        v = x / x_max[:, None, None]
        square = v * v
        norm = np.sqrt((square[:, 0] + square[:, 1]).sum(axis=1))
        # phase(v_0) = v_0/|v_0|, unless |v_0|^2 may have underflowed.
        modulus = np.sqrt(square[:, 0, 0] + square[:, 1, 0])
        small = modulus < _ROOT_SAFE_MIN
        phase = v[:, :, 0] / np.maximum(modulus, _ROOT_SAFE_MIN)[:, None]
        if small.any():
            phase[small] = _polar(v[small, :, 0])[1]
        v[:, :, 0] += phase * norm[:, None]
        square = v * v
        v /= np.sqrt((square[:, 0] + square[:, 1]).sum(axis=1))[:, None, None]
        sub = a[rows, :, k + 1:, k + 1:]
        # prod[b, i, j] = sub_i v_j for i, j in (Re, Im).
        prod = (sub[:, :, None] * v[:, None, :, None, :]).sum(axis=4)
        pq = np.empty_like(v)                               # (Re p, -Im p)
        np.subtract(prod[:, 0, 0], prod[:, 1, 1], out=pq[:, 0])
        # 0.0 - x is +0.0 for x = +-0.0, so -Im p is +0.0 on real input.
        np.subtract(0.0, prod[:, 0, 1], out=pq[:, 1])
        pq[:, 1] -= prod[:, 1, 0]
        vpq = v * pq
        c = (vpq[:, 0] - vpq[:, 1]).sum(axis=1)            # u^H p, real
        w2 = pq - c[:, None, None] * (v * _CONJUGATE)       # (Re w, -Im w)
        w2 *= 2.0
        outer = v[:, :, None, :, None] * w2[:, None, :, None, :]
        vw_re = outer[:, 0, 0] - outer[:, 1, 1]
        vw_im = outer[:, 1, 0] + outer[:, 0, 1]
        sub[:, 0] -= vw_re + vw_re.transpose(0, 2, 1)
        sub[:, 1] -= vw_im - vw_im.transpose(0, 2, 1)
        if not isinstance(rows, slice):
            a[rows, :, k + 1:, k + 1:] = sub
        abs_e[rows, k] = norm * x_max
    if n > 1:
        abs_e[:, n - 2] = _polar(a[:, :, n - 1, n - 2])[0]
    return np.diagonal(a[:, 0], axis1=1, axis2=2).copy(), abs_e


def _bisect_block(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of each symmetric tridiagonal (d[b], e[b]), by Sturm counts;
    entry r of row b of the result is the (r+1)-th smallest of tridiagonal b.

    All brackets of a tridiagonal start at its padded Gershgorin interval
    and are narrowed together: a round evaluates the Sturm count (number of
    eigenvalues below x) at 15 interior points of each bracket and keeps
    the sixteenth that holds the bracket's eigenvalue, until every bracket
    is narrower than 2 eps |lambda| + eps ||T||. About 14 rounds;
    ConvergenceError after _MAX_ROUNDS. A tridiagonal whose brackets are
    all that narrow leaves the batch, and pivmin, the Gershgorin bounds and
    the pad are its own, so its eigenvalues are the bits it would get alone.

    Counts are taken once per distinct bracket. A Cayley graph's
    eigenvalues repeat, so many brackets are equal; equal brackets have
    equal points, and a count does not depend on the target, so a round
    counts on the first bracket of each run of adjacent equal ones and
    copies the counts to the rest of the run. Every bracket, and so every
    output bit, is the one a count per bracket would give.

    Pivots follow LAPACK's pivmin rule in one step: q < pivmin counts as
    negative and is replaced by min(q, -pivmin). That is the two-step rule
    "replace |q| < pivmin by -pivmin, then count q < 0": both leave q >=
    pivmin and q <= -pivmin as they are, both send -pivmin < q < pivmin
    (-0.0 too) to a negative -pivmin, and both leave NaN uncounted and in
    place. So no division is by zero or by a denormal, and counts and next
    pivots are those of the two-step rule.
    """
    batch, n = d.shape
    side = np.zeros((batch, 1))
    e2 = np.concatenate((side, e * e), axis=1)
    pivmin = _SAFE_MIN * np.maximum(1.0, np.max(e2, axis=1))
    abs_e = np.abs(e)
    radius = np.concatenate((abs_e, side), axis=1) + np.concatenate((side, abs_e), axis=1)
    lo_bound = np.min(d - radius, axis=1)
    hi_bound = np.max(d + radius, axis=1)
    norm = np.maximum(np.abs(lo_bound), np.abs(hi_bound))
    pad = 2.1 * (norm * _EPS * n + 2.0 * pivmin)
    lo = np.repeat((lo_bound - pad)[:, None], n, axis=1)
    hi = np.repeat((hi_bound + pad)[:, None], n, axis=1)
    out = np.empty((batch, n))
    live = np.arange(batch)     # tridiagonals still in the batch
    target = np.arange(n)[:, None]
    fractions = np.arange(1, _MULTISECTION) / _MULTISECTION
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        tolerance = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS * norm[:, None]
        # A zero tridiagonal (norm 0) has lo = -hi, so its midpoints are
        # its eigenvalues, exactly 0, from the first round.
        done = np.all(width <= tolerance, axis=1) | (norm == 0.0)
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            if done.all():
                return out
            keep = ~done
            live, lo, hi, width = live[keep], lo[keep], hi[keep], width[keep]
            d, e2, pivmin, norm = d[keep], e2[keep], pivmin[keep], norm[keep]
        x = lo[:, :, None] + width[:, :, None] * fractions
        # new[b, r]: bracket r of tridiagonal b starts a run of equal brackets.
        new = np.ones(lo.shape, dtype=bool)
        np.not_equal(lo[:, 1:], lo[:, :-1], out=new[:, 1:])
        np.logical_or(new[:, 1:], hi[:, 1:] != hi[:, :-1], out=new[:, 1:])
        distinct = x[new]
        owner = np.flatnonzero(new) // n
        diag, off2 = d[owner].T[:, :, None], e2[owner].T[:, :, None]
        floor = pivmin[owner][:, None]
        ceiling = -floor
        q = np.ones(distinct.shape)
        scratch = np.empty(distinct.shape)
        negative = np.empty(distinct.shape, dtype=bool)
        count = np.zeros(distinct.shape, dtype=np.int64)
        for i in range(n):
            # Pivot recurrence q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}, in place.
            np.divide(off2[i], q, out=scratch)
            np.subtract(diag[i], distinct, out=q)
            q -= scratch
            np.less(q, floor, out=negative)
            np.minimum(q, ceiling, out=q, where=negative)
            count += negative
        below = count[np.cumsum(new) - 1].reshape(x.shape)
        # New bracket: the first point whose count exceeds the target and
        # the point before it; the invariant count(lo) <= target < count(hi)
        # holds whether or not the computed counts are monotone. One row
        # per bracket, over all tridiagonals.
        points = np.concatenate((lo[:, :, None], x, hi[:, :, None]), axis=2).reshape(lo.size, -1)
        above = np.ones((lo.size, _MULTISECTION), dtype=bool)
        above[:, :-1] = (below > target).reshape(lo.size, -1)
        j = np.argmax(above, axis=1)
        rows = np.arange(lo.size)
        lo, hi = points[rows, j].reshape(lo.shape), points[rows, j + 1].reshape(lo.shape)
    raise ConvergenceError(f"Sturm bisection did not converge in {_MAX_ROUNDS} rounds")


@dataclass(frozen=True)
class SpectralSummary:
    t: tuple[float, ...]     # adjacency eigenvalues, ascending
    lam: tuple[float, ...]   # Laplacian eigenvalues, ascending

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def t_min(self) -> float:
        return self.t[0]

    @property
    def t_max(self) -> float:
        return self.t[-1]

    @property
    def lambda2(self) -> float:
        return self.lam[1]

    @property
    def lambda_max(self) -> float:
        return self.lam[-1]


def spectrum(graph: CayleyGraph) -> SpectralSummary:
    if graph.n > MAX_SPECTRUM:
        raise CapExceededError("max_spectrum", MAX_SPECTRUM, graph.n)
    return graph.memo("spectrum", lambda: _summary(graph))


def _summary(graph: CayleyGraph) -> SpectralSummary:
    if graph.group.abelian:
        values = _character_eigenvalues(graph)
    else:
        values = _coset_eigenvalues(graph)
    # T is symmetric and stochastic, so its spectrum lies in [-1, 1] exactly;
    # anything outside is rounding, and clamping it only removes error.
    t = [min(1.0, max(-1.0, x)) for x in values]
    if abs(t[-1] - 1.0) > TOL:
        raise AssertionError(f"top adjacency eigenvalue {t[-1]!r}, expected 1")
    t[-1] = 1.0     # T is stochastic, so 1 is an eigenvalue exactly
    lam = tuple(1.0 - t[len(t) - 1 - i] for i in range(len(t)))
    return SpectralSummary(tuple(t), lam)


@functools.cache
def _cos_table(q: int) -> np.ndarray:
    """cos(2 pi p / q) for p = 0..q-1, from + - * / on exactly reduced angles.
    Each table is computed once per process and is read-only, since every
    caller shares it.

    4p = quadrant q + r with 0 <= r < q, so the angle is quadrant pi/2 + phi
    with phi = (pi/2) r/q; reflecting r to q - r when 2r > q swaps cos and
    sin and leaves phi' in [0, pi/4], where both Taylor series converge to
    the last bit. The rational values of cos (Niven: 0, +-1/2, +-1, at
    multiples of 60 and 90 degrees) are exact: phi' = 0 gives 1 and 0, and
    3 r' = q (phi' = 30 degrees) is given sin = 1/2.
    """
    quadrant, r = np.divmod(4 * np.arange(q, dtype=np.int64), q)
    flip = 2 * r > q
    r = np.where(flip, q - r, r)
    x = r / q * (math.pi / 2)
    x2 = x * x
    cos, sin = np.full(q, _COS_TERMS[-1]), np.full(q, _SIN_TERMS[-1])
    for c, s in zip(_COS_TERMS[-2::-1], _SIN_TERMS[-2::-1]):
        cos = cos * x2 + c
        sin = sin * x2 + s
    sin = np.where(3 * r == q, 0.5, sin * x)
    # cos(quadrant pi/2 + phi) is cos, -sin, -cos, sin of phi by quadrant.
    value = np.where((quadrant % 2 == 1) != flip, sin, cos)
    # 0.0 - 0.0 is +0.0, so the zeros at 90 and 270 degrees are not -0.0.
    table = np.where((quadrant == 1) | (quadrant == 2), 0.0 - value, value)
    table.flags.writeable = False
    return table


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Row sums of a (rows, d) array, adding the columns left to right, so
    the order of the additions is fixed by the generator order alone."""
    total = np.zeros(values.shape[0])
    for column in values.T:
        total += column
    return total


def _character_eigenvalues(graph: CayleyGraph) -> list[float]:
    """Eigenvalues of T from the characters chi_k(a) = exp(2 pi i sum_j
    k_j a_j / m_j) of A = Z/m_1 x ... x Z/m_k, the recorded subgroup.

    Right multiplication commutes with T, so V_chi = {f : f(xa) = chi(a) f(x)}
    is T-invariant, of dimension [G:A], and C[G] is the sum of the V_chi.

    - A = G: t_k = (1/d) sum_{s in S} cos(2 pi sum_j k_j s_j / m_j).
    - [G:A] = 2, r = element |A|: on (f(1), f(r)), T is (1/d) [[a, b*],
      [b, c]], with a = sum chi(s) and c = sum chi(r^-1 s r) over s in S n A
      and b = sum chi(s r) over s in S outside A. S is symmetric, so a and c
      are real; the eigenvalues are ((a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2))/d.

    With L = lcm(m_j), the phase sum_j k_j a_j (L/m_j) mod L is exact in
    integers. In one table of cos(2 pi p / 4L), entry 4p is cos(2 pi p / L),
    the bits of _cos_table(L)[p], and entry 4p - L is sin(2 pi p / L).
    """
    group, gens, d = graph.group, graph.gens, graph.d
    moduli = group.abelian
    size, lcm = math.prod(moduli), math.lcm(*moduli)
    strides = [math.prod(moduli[j + 1:]) for j in range(len(moduli))]
    digits = np.arange(size)[:, None] // strides % moduli
    scale = [lcm // m for m in moduli]
    table = _cos_table(4 * lcm)

    def phases(elements) -> np.ndarray:  # a row per character, a column per element
        return digits @ (digits[list(elements)] * scale).T % lcm

    def sums(elements, shift: int = 0) -> np.ndarray:  # cos, or sin if shift is L
        return _column_sums(table[(4 * phases(elements) - shift) % (4 * lcm)])

    if size == graph.n:
        return sorted((sums(gens) / d).tolist())
    r, mult = size, group.table
    conjugate = mult[group.inv[r], mult[:size, r]].tolist()
    inside = [s for s in gens if s < size]
    twisted = mult[[s for s in gens if s >= size], r].tolist()
    a = sums(inside)
    # c adds its terms in ascending element order, as a does (generators are
    # sorted). _cos_table is not bitwise even (at q = 64, entries 8, 24, 40
    # and 56 differ in the last bit from their mirrors), so on D_m, where
    # r^-1 s r = s^-1, only this order makes c equal to a bit for bit.
    c = sums(sorted(conjugate[s] for s in inside))
    b_re, b_im = sums(twisted), sums(twisted, lcm)
    half, mid = (a - c) / 2, (a + c) / 2
    root = np.sqrt(half * half + (b_re * b_re + b_im * b_im))
    # chi and chi(r^-1 . r) have the same block, mathematically but not
    # bitwise, so both take the block of the lower character index. The
    # partner of chi_k is read off its values on the unit elements e_j.
    units = [(1 % m) * stride for m, stride in zip(moduli, strides)]
    partner = phases(conjugate[e] for e in units) // scale @ strides
    lower = np.minimum(np.arange(size), partner)
    values = np.concatenate(((mid - root)[lower], (mid + root)[lower])) / d
    return sorted(values.tolist())


def _coset_eigenvalues(graph: CayleyGraph) -> list[float]:
    """Eigenvalues of T from the characters of a cyclic subgroup A = <g>, g
    the lowest-indexed element of largest order L, with k = n/L cosets.

    As in _character_eigenvalues, V_chi = {f : f(xa) = chi(a) f(x)} is
    T-invariant for each character chi_j(g^e) = w^(je), w = exp(2 pi i/L),
    and C[G] is the sum of the L spaces V_chi (A's regular representation
    induced to G; Serre, section 7). With the left-coset representatives
    r_1 < ... < r_k (each the lowest index in its coset) and s r_i = r_l
    g^e, T acts on (f(r_1), ..., f(r_k)) by the Hermitian k x k block
    M_j[i][l] = (1/d) sum of w^(je) over {s : s r_i in r_l A}.

    Each entry adds its terms in generator order, and M_j is averaged with
    its conjugate transpose, which makes it exactly Hermitian. The blocks of
    j = 0..floor(L/2), k x k each, are solved in one batch. M_(L-j) is the
    conjugate of M_j and has its eigenvalues, so a complex character (2j !=
    0 mod L) counts its values twice, once for j and once for L - j, and a
    real one counts them once. The phases come from _cos_table(4L) as in
    _character_eigenvalues.
    """
    group, n, d = graph.group, graph.n, graph.d
    table = group.table
    elements = np.arange(n)
    # order[x] = the least e >= 1 with x^e = 1, for every x at once.
    order = np.zeros(n, dtype=np.intp)
    power, e = elements, 1
    while not order.all():
        order[(power == 0) & (order == 0)] = e
        power, e = table[power, elements], e + 1
    g = int(np.argmax(order))
    size = int(order[g])
    times_g = table[:, g].tolist()
    cyclic = [0]
    for _ in range(size - 1):
        cyclic.append(times_g[cyclic[-1]])
    # Row x of coset is x g^e for e = 0..L-1; its least entry r is the
    # coset's representative, and x g^e = r means x = r g^(-e).
    coset = table[:, cyclic]
    rep = np.min(coset, axis=1)
    exponent = -np.argmin(coset, axis=1) % size
    reps = np.flatnonzero(rep == elements)
    k = reps.size
    number = np.zeros(n, dtype=np.intp)
    number[reps] = np.arange(k)
    # s r_i = r_l g^e: l and e for each generator s and each i.
    image = table[np.array(graph.gens)[:, None], reps]
    column, shift = number[rep[image]], exponent[image]
    chars = np.arange(size // 2 + 1)
    phase = 4 * (chars[:, None, None] * shift % size)
    circle = _cos_table(4 * size)
    cos, sin = circle[phase], circle[(phase - size) % (4 * size)]
    re, im = np.zeros((2, chars.size, k, k))
    rows = np.arange(k)
    for s in range(d):      # s permutes the cosets, so no (i, l) repeats
        re[:, rows, column[s]] += cos[:, s]
        im[:, rows, column[s]] += sin[:, s]
    # Exactly Hermitian: x + y = y + x and x - y = -(y - x) in floating point.
    re = (re + re.transpose(0, 2, 1)) / (2 * d)
    im = (im - im.transpose(0, 2, 1)) / (2 * d)
    values = _bisect_block(*_tridiagonalize(re, im))
    counts = np.where(2 * chars % size == 0, 1, 2)
    return sorted(np.repeat(values, counts, axis=0).ravel().tolist())


def is_connected(summary: SpectralSummary) -> bool:
    if summary.n == 1:
        return True
    return summary.lambda2 > TOL


def is_bipartite_spectral(summary: SpectralSummary) -> bool:
    return summary.lambda_max >= 2.0 - TOL
