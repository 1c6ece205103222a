"""Dense real matrix substrate: symmetric/skew constructors, commutators,
the trace inner product, and a pivoted Gram-Schmidt numerical rank in array
form, whose one elimination gives the rank at a tolerance and one decade
above it.  Eigendecompositions are left to ``numpy.linalg.eigh``.

The Gram-Schmidt rank serves the gradient sets (member independence and
Casimir counts).  Those sets are monomial bases that lose their
conditioning as n grows, and ranking them by singular values instead moved
verdicts (two of 120 verify requests went from pass to fail), so they stay
on it until better-conditioned gradients replace the bases.  Leaf
dimensions are ranked by singular values in :func:`symflow.poisson.rank_certified`.

All functions are pure and operate on plain ``numpy`` float arrays.  The
validating constructors (:func:`sym_matrix`, :func:`skew_matrix`) are the
only place finiteness and (anti)symmetry are enforced; downstream code may
assume both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Asymmetry above this (max-abs, on the raw input) is rejected instead of
#: being projected away; below it the constructors project exactly.
ASYM_REJECT_TOL = 1e-8


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-abs norm; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def sym_matrix(a, reject_tol: float = ASYM_REJECT_TOL) -> np.ndarray:
    """Validating constructor for a symmetric matrix.

    Projects ``(a + a.T)/2`` so the result is exactly symmetric, but rejects
    inputs whose asymmetry exceeds ``reject_tol`` in max-abs.
    """
    a = as_square(a)
    defect = max_abs(a - a.T)
    if defect > reject_tol:
        raise ValueError(f"matrix is not symmetric (defect {defect:.3e} > {reject_tol:.1e})")
    return (a + a.T) / 2.0


def skew_matrix(a, reject_tol: float = ASYM_REJECT_TOL) -> np.ndarray:
    """Validating constructor for a skew-symmetric matrix (projects, rejects above tol)."""
    a = as_square(a)
    defect = max_abs(a + a.T)
    if defect > reject_tol:
        raise ValueError(f"matrix is not skew-symmetric (defect {defect:.3e} > {reject_tol:.1e})")
    return (a - a.T) / 2.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Unconditional symmetric projection (a + a.T)/2, of each matrix of a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba.  For a symmetric and b skew the result is skew-symmetric."""
    return a @ b + b @ a


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> float:
    """trace(x y), the inner product making Sym(n) self-dual."""
    return float(np.einsum("ij,ji->", x, y))


def random_sym(n: int, rng: np.random.Generator, normalized: bool = True) -> np.ndarray:
    """Symmetrized standard-normal matrix, Frobenius-normalized by default."""
    x = symmetrize(rng.standard_normal((n, n)))
    if normalized:
        nrm = frob_norm(x)
        if nrm > 0:
            x = x / nrm
    return x


def random_skew(n: int, rng: np.random.Generator, normalized: bool = True) -> np.ndarray:
    a = rng.standard_normal((n, n))
    x = (a - a.T) / 2.0
    if normalized:
        nrm = frob_norm(x)
        if nrm > 0:
            x = x / nrm
    return x


def numerical_rank(vectors: Sequence[np.ndarray] | np.ndarray, tol: float = 1e-9) -> int:
    """Numerical rank of a set of vectors.

    The first axis indexes the vectors and trailing axes are flattened, so
    a list of matrices and a stacked ``(k, n, n)`` array give the same rank.
    Modified Gram-Schmidt with column pivoting; counts the pivots before the
    first pivot norm at most ``tol`` times the first (largest) one.
    """
    return _decade_ranks(vectors, tol)[0]


def _decade_ranks(vectors, tol: float) -> tuple[int, int]:
    """Numerical ranks at ``tol`` and at ``10 * tol`` from one elimination.

    The pivot sequence of :func:`_pivot_norms` does not depend on the
    tolerance, only the stopping point does, so the pass run to ``tol``
    also holds the stopping point of ``10 * tol``.
    """
    pivots = _pivot_norms(vectors, tol)
    # Pivot norms fall only up to roundoff; the running minimum counts the
    # pivots before the first one at or below each cut.
    running = np.minimum.accumulate(pivots)
    return int(np.sum(running > tol * pivots[0])), int(np.sum(running > 10.0 * tol * pivots[0]))


def _pivot_norms(vectors, tol: float) -> list:
    """Pivot norms of modified Gram-Schmidt with column pivoting.

    The list ends with the first norm at most ``tol`` times the first (or
    with the last vector).  Each step pivots on the largest remaining norm
    (ties go to the lowest index) and removes its direction from the rest.
    The elimination runs in one copy of the vectors: the pivot row is
    dropped by shifting the rows below it up, which keeps the remaining
    rows in their original order, and the norms are
    ``sqrt(add.reduce(w * w))`` per row, the arithmetic of
    ``np.linalg.norm(axis=1)``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        work = np.array(vectors, dtype=float)  # a copy: the elimination overwrites it
    except ValueError as exc:
        raise ValueError("vectors have inconsistent lengths") from exc
    if work.ndim == 0 or len(work) == 0:
        raise ValueError("numerical_rank of an empty set")
    work = work.reshape(len(work), work[0].size)
    squares, coefs, norms = np.empty_like(work), np.empty(len(work)), np.empty(len(work))

    pivots = []
    for m in range(len(work), 0, -1):  # m rows remain
        w, sq, nrm = work[:m], squares[:m], norms[:m]
        np.multiply(w, w, out=sq)
        np.sqrt(np.add.reduce(sq, axis=1, out=nrm), out=nrm)
        j = int(nrm.argmax())
        pivots.append(norms[j])
        if norms[j] <= tol * pivots[0]:
            break
        qvec = work[j] / norms[j]
        work[j:m - 1] = work[j + 1:m]
        w, sq = work[:m - 1], squares[:m - 1]
        np.matmul(w, qvec, out=coefs[:m - 1])
        np.multiply(coefs[:m - 1, None], qvec, out=sq)
        w -= sq
    return pivots
