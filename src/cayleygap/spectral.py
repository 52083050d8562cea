"""Normalised spectra of Cayley graphs.

The normalised adjacency operator T has entries T[x][y] = #{s in S : sx = y}/d.
It is symmetric with row sums 1, so its spectrum lies in [-1, 1]. We report
both the adjacency eigenvalues t_1 <= ... <= t_n and the Laplacian eigenvalues
lambda_i = 1 - t_{n+1-i}, sorted ascending, with lambda_1 = 0 always.

Eigenvalues come from an in-repo solver (Householder tridiagonalisation, then
Sturm-count bisection) written in numpy elementwise arithmetic; no BLAS or
LAPACK routine is called, so results are bitwise reproducible, and no
external solver is consulted outside the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import CayleyGraph
from .errors import CapExceededError, ConvergenceError

MAX_SPECTRUM = 2048
_SYMMETRY_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_SAFE_MIN = float(np.finfo(np.float64).tiny)
_SAFE_EXPONENT = 400    # |log2 max|A_ij|| beyond which the input is rescaled
_MULTISECTION = 16      # each bisection round splits a bracket into 16
_MAX_ROUNDS = 64


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
    """
    n = d.size
    e2 = np.concatenate(([0.0], e * e))
    # LAPACK's pivmin: a pivot smaller in magnitude is replaced by -pivmin
    # before its sign is counted, so no division by zero or by a denormal.
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
    q = np.ones(shape)
    scratch = np.empty(shape)
    negative = np.empty(shape, dtype=bool)
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        tolerance = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS * norm
        if np.all(width <= tolerance):
            return 0.5 * (lo + hi)
        x = lo[:, None] + width[:, None] * fractions
        below = np.zeros(shape, dtype=np.int64)
        for i in range(n):
            # Pivot recurrence q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}, in place.
            np.divide(e2[i], q, out=scratch)
            np.subtract(d[i], x, out=q)
            q -= scratch
            np.less(np.abs(q, out=scratch), pivmin, out=negative)
            np.copyto(q, -pivmin, where=negative)
            np.less(q, 0.0, out=negative)
            below += negative
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
    # T is symmetric and stochastic, so its spectrum lies in [-1, 1] exactly;
    # anything outside is rounding, and clamping it only removes error.
    t = [min(1.0, max(-1.0, x))
         for x in eigenvalues_symmetric(normalized_adjacency(graph))]
    if abs(t[-1] - 1.0) > 1e-9:
        raise AssertionError(f"top adjacency eigenvalue {t[-1]!r}, expected 1")
    lam = tuple(1.0 - t[len(t) - 1 - i] for i in range(len(t)))
    return SpectralSummary(tuple(t), lam)


def is_connected(summary: SpectralSummary, tol: float = 1e-9) -> bool:
    if summary.n == 1:
        return True
    return summary.lambda2 > tol


def is_bipartite_spectral(summary: SpectralSummary, tol: float = 1e-9) -> bool:
    return summary.lambda_max >= 2.0 - tol
