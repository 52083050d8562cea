"""Normalised spectra of Cayley graphs.

The normalised adjacency operator T has entries T[x][y] = #{s in S : sx = y}/d.
It is symmetric with row sums 1, so its spectrum lies in [-1, 1]. We report
both the adjacency eigenvalues t_1 <= ... <= t_n and the Laplacian eigenvalues
lambda_i = 1 - t_{n+1-i}, sorted ascending, with lambda_1 = 0 always.

The eigenvalues come from characters when the group constructor recorded
an abelian subgroup A of index 1 or 2 (``FiniteGroup.abelian``), in O(n d):
each character of A gives one eigenvalue when A = G (Babai, "Spectra of
Cayley graphs", 1979) and one 2x2 block when [G:A] = 2 (Serre, "Linear
Representations of Finite Groups", section 7); see _character_eigenvalues.
That covers cyclic and abelian groups, dihedral groups, and products of a
dihedral group with cyclic factors after it.

Every other group goes to an in-repo dense solver (Householder
tridiagonalisation, then Sturm-count bisection), which stays the tests'
oracle for the character path. A Cayley graph's eigenvalues repeat (each
irreducible representation rho gives dim rho copies of its own), so the
bisection takes the Sturm counts once per distinct bracket, not once per
eigenvalue. Both paths use only numpy elementwise arithmetic, ``np.sum`` and
``sqrt``; no BLAS, LAPACK or libm transcendental is called (the cosines are
Taylor series on an angle reduced exactly in integers), so results are
bitwise reproducible, and no external solver is consulted outside the test
suite.
"""

from __future__ import annotations

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
_SYMMETRY_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_SAFE_MIN = float(np.finfo(np.float64).tiny)
_SAFE_EXPONENT = 400    # |log2 max|A_ij|| beyond which the input is rescaled
_MULTISECTION = 16      # each bisection round splits a bracket into 16
_MAX_ROUNDS = 64
# Taylor coefficients of cos and sin on [0, pi/4], where the 11th term of
# either series is below 1e-19.
_COS_TERMS = tuple((-1) ** k / math.factorial(2 * k) for k in range(11))
_SIN_TERMS = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(11))


def normalized_adjacency(graph: CayleyGraph) -> np.ndarray:
    """Dense T = A/d as a float64 array. Counts are checked exactly before
    dividing."""
    n, d = graph.n, graph.d
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (np.arange(n).repeat(d), np.ravel(graph.neighbors)), 1)
    if np.any(counts.sum(axis=1) != d):
        raise AssertionError("row sum mismatch in adjacency counts")
    if not np.array_equal(counts, counts.T):
        raise AssertionError("adjacency counts not symmetric")
    return counts / d


def eigenvalues_symmetric(matrix) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending, as Python floats.

    Two stages, both in numpy elementwise arithmetic and ``np.sum`` (no BLAS
    or LAPACK), so the result is the same bit for bit on every call:

    1. Householder reduction to a tridiagonal (d, e), O(n^3) once.
    2. Sturm-count multisection on (d, e), split at exactly-zero couplings.

    Each eigenvalue is returned within about eps * ||A|| of the exact one;
    an eigenvalue of a 1x1 block (a row whose coupling is exactly zero on
    both sides, e.g. every entry of a diagonal matrix) is returned exactly.
    Raises ValueError on a non-square, non-finite or asymmetric input.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.size == 0:
        return []
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix is not square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    sym_gap = float(np.max(np.abs(a - a.T)))
    if sym_gap > _SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric: max |M - M^T| = {sym_gap:.3e}")
    # Rescale by a power of two (exact) when squares of the entries would
    # overflow or underflow; eigenvalues are scaled back by the same power.
    exponent = math.frexp(float(np.max(np.abs(a))))[1]
    if abs(exponent) < _SAFE_EXPONENT:
        exponent = 0
    np.ldexp(a, -exponent, out=a)
    d, e = _tridiagonalize(a)
    t = np.ldexp(_tridiagonal_eigenvalues(d, e), exponent)
    return sorted(t.tolist())


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of the symmetric ``a`` (overwritten) to (d, e).

    Step k reflects rows/columns k+1.. so that column k vanishes below its
    subdiagonal, then updates the trailing block by the symmetric rank-2
    form sub -= 2 (v w^T + w v^T), which keeps it exactly symmetric.
    """
    n = a.shape[0]
    e = np.zeros(n - 1)
    for k in range(n - 2):
        x = a[k + 1:, k]
        if not np.any(x[1:]):
            e[k] = x[0]
            continue
        x_max = float(np.max(np.abs(x)))
        v = x / x_max
        alpha = math.copysign(math.sqrt(float(np.sum(v * v))), float(v[0]))
        v[0] += alpha
        v /= math.sqrt(float(np.sum(v * v)))
        sub = a[k + 1:, k + 1:]
        p = np.sum(sub * v, axis=1)
        w = p - float(np.sum(v * p)) * v
        # 2 (v w^T + w v^T), formed as vw + vw^T with vw = v (2w)^T: doubling
        # is exact, and the sum is exactly symmetric.
        vw = np.outer(v, 2.0 * w)
        sub -= vw + vw.T
        e[k] = -alpha * x_max
    if n > 1:
        e[n - 2] = a[n - 1, n - 2]
    return np.diagonal(a).copy(), e


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (diagonal d, off-diagonal e).

    The matrix splits into independent blocks at exactly-zero couplings; a
    1x1 block's eigenvalue is its diagonal entry, and larger blocks go to
    _bisect_block. Returned in block order, not sorted.
    """
    cuts = (np.flatnonzero(e == 0.0) + 1).tolist()
    t = d.copy()
    for first, stop in zip([0, *cuts], [*cuts, d.size]):
        if stop - first > 1:
            t[first:stop] = _bisect_block(d[first:stop], e[first:stop - 1])
    return t


def _bisect_block(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of an unreduced symmetric tridiagonal, by Sturm counts.

    All n brackets start at the padded Gershgorin interval and are narrowed
    together: a round evaluates the Sturm count (number of eigenvalues below
    x) at 15 interior points of each bracket and keeps the sixteenth that
    holds the bracket's eigenvalue, until every bracket is narrower than
    2 eps |lambda| + eps ||T||. About 14 rounds; ConvergenceError after
    _MAX_ROUNDS.

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
    n = d.size
    e2 = np.concatenate(([0.0], e * e))
    pivmin = _SAFE_MIN * max(1.0, float(np.max(e2)))
    abs_e = np.abs(e)
    radius = np.append(abs_e, 0.0) + np.concatenate(([0.0], abs_e))
    lo_bound = float(np.min(d - radius))
    hi_bound = float(np.max(d + radius))
    norm = max(abs(lo_bound), abs(hi_bound))
    pad = 2.1 * (norm * _EPS * n + 2.0 * pivmin)
    lo = np.full(n, lo_bound - pad)
    hi = np.full(n, hi_bound + pad)
    rows = np.arange(n)
    target = rows[:, None]
    fractions = np.arange(1, _MULTISECTION) / _MULTISECTION
    shape = (n, _MULTISECTION - 1)
    # Work arrays at full size; a round uses their first u rows, one per
    # distinct bracket.
    q_all = np.ones(shape)
    scratch_all = np.empty(shape)
    negative_all = np.empty(shape, dtype=bool)
    count_all = np.empty(shape, dtype=np.int64)
    new = np.empty(n, dtype=bool)
    new[0] = True
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        tolerance = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS * norm
        if np.all(width <= tolerance):
            return 0.5 * (lo + hi)
        x = lo[:, None] + width[:, None] * fractions
        # new[r]: bracket r starts a run of equal brackets.
        np.not_equal(lo[1:], lo[:-1], out=new[1:])
        np.logical_or(new[1:], hi[1:] != hi[:-1], out=new[1:])
        distinct = x[new]
        u = distinct.shape[0]
        q, scratch = q_all[:u], scratch_all[:u]
        negative, count = negative_all[:u], count_all[:u]
        count.fill(0)
        for i in range(n):
            # Pivot recurrence q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}, in place.
            np.divide(e2[i], q, out=scratch)
            np.subtract(d[i], distinct, out=q)
            q -= scratch
            np.less(q, pivmin, out=negative)
            np.minimum(q, -pivmin, out=q, where=negative)
            count += negative
        below = count[np.cumsum(new) - 1]
        # New bracket: the first point whose count exceeds the target and
        # the point before it; the invariant count(lo) <= target < count(hi)
        # holds whether or not the computed counts are monotone.
        points = np.concatenate((lo[:, None], x, hi[:, None]), axis=1)
        above = np.concatenate((below > target, np.ones((n, 1), dtype=bool)), axis=1)
        j = np.argmax(above, axis=1)
        lo, hi = points[rows, j], points[rows, j + 1]
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
        values = eigenvalues_symmetric(normalized_adjacency(graph))
    # T is symmetric and stochastic, so its spectrum lies in [-1, 1] exactly;
    # anything outside is rounding, and clamping it only removes error.
    t = [min(1.0, max(-1.0, x)) for x in values]
    if abs(t[-1] - 1.0) > TOL:
        raise AssertionError(f"top adjacency eigenvalue {t[-1]!r}, expected 1")
    lam = tuple(1.0 - t[len(t) - 1 - i] for i in range(len(t)))
    return SpectralSummary(tuple(t), lam)


def _cos_table(q: int) -> np.ndarray:
    """cos(2 pi p / q) for p = 0..q-1, from + - * / on exactly reduced angles.

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
    return np.where((quadrant == 1) | (quadrant == 2), 0.0 - value, value)


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
    group, gens, d = graph.group, graph.gens.elements, graph.d
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
    r, mult = size, group.mult
    conjugate = [mult[group.inv[r]][mult[a][r]] for a in range(size)]
    inside = [s for s in gens if s < size]
    twisted = [mult[s][r] for s in gens if s >= size]
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


def is_connected(summary: SpectralSummary) -> bool:
    if summary.n == 1:
        return True
    return summary.lambda2 > TOL


def is_bipartite_spectral(summary: SpectralSummary) -> bool:
    return summary.lambda_max >= 2.0 - TOL
